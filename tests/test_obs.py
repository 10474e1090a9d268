"""Unit tests for :mod:`repro.obs`: spans, metrics, exporters, merging.

Also holds the PassManager timing regression tests: the manager's
per-pass wall time is now a single span measurement shared by
``timings()``, ``EngineStats.pass_seconds`` and the trace record, so a
failing pass must report exactly one timing entry (the old code computed
``elapsed`` separately on the success and failure branches).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.errors import InjectedFault, PassError
from repro.lcmm.passes import CompilationContext, Pass, PassManager, default_pipeline
from repro.obs.spans import NULL_SPAN, SpanRecord, Tracer
from repro.robustness.inject import FaultPlan, injected


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with tracing off and metrics empty."""
    obs.disable()
    obs.reset_registry()
    yield
    obs.disable()
    obs.reset_registry()


class TestSpans:
    def test_disabled_span_is_the_shared_noop(self):
        first = obs.span("anything", key="value")
        second = obs.span("other")
        assert first is NULL_SPAN and second is NULL_SPAN
        with first as entered:
            assert entered is NULL_SPAN
            entered.annotate("ignored")
        assert first.seconds == 0.0

    def test_timed_span_measures_without_recording(self):
        with obs.timed_span("work") as sp:
            sum(range(1000))
        assert sp.seconds > 0.0
        assert obs.tracer() is None

    def test_nesting_builds_parent_child_links(self):
        with obs.tracing("main") as tr:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        by_name = {r.name: r for r in tr.records}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_exception_sets_error_attr_and_still_records(self):
        with obs.tracing("main") as tr:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        (record,) = tr.records
        assert record.attrs["error"] == "ValueError"
        assert record.duration >= 0.0

    def test_annotate_attaches_to_innermost_open_span(self):
        with obs.tracing("main") as tr:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.annotate("marker", detail=7)
        by_name = {r.name: r for r in tr.records}
        assert [e.name for e in by_name["inner"].events] == ["marker"]
        assert by_name["inner"].events[0].attrs == {"detail": 7}
        assert by_name["outer"].events == ()

    def test_annotate_outside_any_span_lands_on_the_tracer(self):
        with obs.tracing("main") as tr:
            obs.annotate("orphan", where="top")
        assert [e.name for e in tr.events] == ["orphan"]

    def test_tracing_restores_the_previous_tracer(self):
        outer = obs.enable("outer")
        with obs.tracing("inner") as inner:
            assert obs.tracer() is inner
        assert obs.tracer() is outer

    def test_threads_nest_independently(self):
        with obs.tracing("main") as tr:
            def worker():
                with obs.span("thread-root"):
                    pass

            with obs.span("main-root"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        by_name = {r.name: r for r in tr.records}
        # The other thread's stack is empty, so its span is a root, not
        # a child of the main thread's open span.
        assert by_name["thread-root"].parent_id is None
        assert by_name["thread-root"].thread != by_name["main-root"].thread


class TestMerge:
    def _worker_batch(self):
        worker = Tracer("worker")
        with obs.tracing("worker"):
            with obs.span("chunk"):
                with obs.span("tile"):
                    pass
            worker = obs.tracer()
        return [r.as_dict() for r in worker.records]

    def test_merge_remaps_ids_preserving_parent_links(self):
        batch = self._worker_batch()
        parent = Tracer("main")
        parent.next_id()  # occupy id 1 so remapping must move the batch
        count = parent.merge(batch)
        assert count == len(batch)
        by_name = {r.name: r for r in parent.records}
        assert by_name["tile"].parent_id == by_name["chunk"].span_id
        merged_ids = [r.span_id for r in parent.records]
        assert len(set(merged_ids)) == len(batch)
        # Id 1 was already handed out in the parent's space, so the
        # remapping must have moved the batch past it.
        assert 1 not in merged_ids

    def test_merge_keeps_or_overrides_process_label(self):
        batch = self._worker_batch()
        keep = Tracer("main")
        keep.merge(batch)
        assert {r.process for r in keep.records} == {"worker"}
        override = Tracer("main")
        override.merge(batch, process="dse-worker-7")
        assert {r.process for r in override.records} == {"dse-worker-7"}

    def test_record_roundtrips_through_dict(self):
        batch = self._worker_batch()
        restored = [SpanRecord.from_dict(d) for d in batch]
        assert [r.as_dict() for r in restored] == batch


class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        reg = obs.registry()
        counter = reg.counter("hits")
        counter.inc(graph="a")
        counter.inc(2, graph="a")
        counter.inc(graph="b")
        series = counter.series()
        assert series["graph=a"] == 3
        assert series["graph=b"] == 1

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            obs.registry().counter("hits").inc(-1)

    def test_gauge_keeps_the_last_value(self):
        gauge = obs.registry().gauge("level")
        gauge.set(3)
        gauge.set(1)
        assert gauge.series()[""] == 1

    def test_histogram_summarises(self):
        hist = obs.registry().histogram("seconds")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        summary = hist.series()[""]
        assert summary == {
            "count": 3,
            "total": 6.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
        }

    def test_kind_mismatch_raises(self):
        obs.registry().counter("x")
        with pytest.raises(TypeError):
            obs.registry().gauge("x")

    def test_get_or_create_returns_the_same_instance(self):
        assert obs.registry().counter("x") is obs.registry().counter("x")

    def test_snapshot_and_reset(self):
        obs.registry().counter("hits").inc()
        snap = obs.registry().snapshot()
        assert "hits" in snap
        obs.reset_registry()
        assert obs.registry().snapshot() == {}


class TestExporters:
    def _trace(self):
        with obs.tracing("main") as tr:
            with obs.span("outer", graph="g"):
                with obs.span("inner"):
                    obs.annotate("tick", n=1)
            obs.annotate("orphan")
        return tr

    def test_chrome_trace_structure(self):
        tr = self._trace()
        trace = obs.chrome_trace(tr.records, tr.events)
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert phases.count("M") == 1  # one process_name metadata entry
        assert phases.count("X") == 2  # the two spans
        assert phases.count("i") == 2  # span annotation + orphan event
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        # Times are microseconds and the child sits inside the parent.
        assert by_name["inner"]["ts"] >= by_name["outer"]["ts"]
        assert (
            by_name["inner"]["ts"] + by_name["inner"]["dur"]
            <= by_name["outer"]["ts"] + by_name["outer"]["dur"]
        )
        assert trace["displayTimeUnit"] == "ms"

    def test_chrome_trace_is_json_serializable(self):
        tr = self._trace()
        obs.registry().counter("hits").inc(graph="g")
        trace = obs.chrome_trace(
            tr.records, tr.events, metrics=obs.registry().snapshot()
        )
        encoded = json.dumps(trace, default=str)
        assert "hits" in encoded

    def test_write_chrome_trace_returns_span_count(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "trace.json"
        count = obs.write_chrome_trace(str(path), tr)
        assert count == 2
        loaded = json.loads(path.read_text())
        assert {e["name"] for e in loaded["traceEvents"] if e["ph"] == "X"} == {
            "outer",
            "inner",
        }

    def test_flat_json_carries_everything(self):
        tr = self._trace()
        flat = obs.flat_json(tr.records, tr.events, metrics={"m": 1})
        assert {s["name"] for s in flat["spans"]} == {"outer", "inner"}
        assert flat["events"][0]["name"] == "orphan"
        assert flat["metrics"] == {"m": 1}

    def test_stats_table_lists_spans_and_metrics(self):
        tr = self._trace()
        obs.registry().counter("lcmm.runs").inc(graph="g")
        text = obs.stats_table(tr.records, obs.registry().snapshot())
        assert "outer" in text and "inner" in text
        assert "lcmm.runs" in text and "graph=g" in text

    def test_stats_table_empty_trace(self):
        assert "(none recorded)" in obs.stats_table([])


class _Exploding(Pass):
    name = "exploding"

    def run(self, ctx) -> None:
        raise ValueError("boom")


class TestPassManagerFailureTiming:
    def test_failing_pass_reports_exactly_one_timing_entry(
        self, snippet_graph, accel
    ):
        ctx = CompilationContext.create(snippet_graph, accel)
        manager = PassManager([_Exploding()])
        with pytest.raises(PassError, match="boom"):
            manager.run(ctx)
        # The failed pass never executed to completion, so it must not
        # appear in timings(); its wall time lands once in pass_seconds.
        assert manager.timings() == ()
        assert list(ctx.stats.pass_seconds) == ["exploding"]
        assert ctx.stats.pass_seconds["exploding"] >= 0.0

    def test_injected_pass_failure_single_timing_and_trace_record(
        self, snippet_graph, accel
    ):
        point = "pass.feature_reuse"
        with obs.tracing("main") as tr:
            ctx = CompilationContext.create(snippet_graph, accel)
            manager = PassManager(default_pipeline(ctx.options))
            with injected(FaultPlan(point, mode="raise")):
                with pytest.raises(InjectedFault):
                    manager.run(ctx)
        spans = [r for r in tr.records if r.name == point]
        assert len(spans) == 1, "a failing pass records exactly one span"
        assert ctx.stats.pass_seconds == {"feature_reuse": spans[0].duration}
        assert spans[0].attrs["error"] == "InjectedFault"
        # The injected fault itself shows up as an instant event on the
        # pass span (fault_point fires inside it).
        assert any(e.name == "fault-injected" for e in spans[0].events)

    def test_failing_pass_names_itself_and_its_error(self, snippet_graph, accel):
        with obs.tracing("main") as tr:
            ctx = CompilationContext.create(snippet_graph, accel)
            manager = PassManager([_Exploding()])
            with pytest.raises(PassError):
                manager.run(ctx)
        (span,) = [r for r in tr.records if r.name == "pass.exploding"]
        assert span.attrs["error"] == "ValueError"
        (diag,) = [d for d in ctx.diagnostics if d.category == "pass-failed"]
        assert diag.pass_name == "exploding"
        assert diag.data["error"] == "ValueError"
