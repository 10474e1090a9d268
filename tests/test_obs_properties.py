"""Property-based tests of the trace schema.

What the schema promises, checked over random inputs:

* every span has a non-negative start and duration;
* span ids are unique within a trace;
* a span's parent id, when set, refers to a span in the same trace,
  same process and same thread, whose interval contains the child's;
* merging worker batches remaps ids consistently (links preserved,
  no collisions) and keeps each process's spans monotone in end time.

The first group runs the real LCMM pipeline over random DAGs under a
live tracer; the merge group drives :meth:`Tracer.merge` with synthetic
batches so the property space is not limited to what the DSE pool
happens to produce.  One integration test exercises the actual
two-process DSE pool once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.obs.spans import SpanRecord, Tracer

from tests.conftest import small_accel
from tests.test_properties import random_dags


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset_registry()
    yield
    obs.disable()
    obs.reset_registry()


def assert_schema(records: list[SpanRecord]) -> None:
    """The invariants every produced trace must satisfy."""
    by_id = {}
    for record in records:
        assert record.start >= 0.0, record
        assert record.duration >= 0.0, record
        assert record.span_id not in by_id, f"duplicate id {record.span_id}"
        by_id[record.span_id] = record
    for record in records:
        if record.parent_id is None:
            continue
        parent = by_id.get(record.parent_id)
        assert parent is not None, f"dangling parent {record.parent_id}"
        assert parent.process == record.process
        assert parent.thread == record.thread
        # Same-process spans share one clock epoch, so nesting is exact.
        assert record.start >= parent.start
        assert record.start + record.duration <= parent.start + parent.duration
        for event in record.events:
            assert record.start <= event.time <= record.start + record.duration


class TestTraceSchemaOnRealRuns:
    @settings(max_examples=15, deadline=None)
    @given(random_dags(), st.booleans())
    def test_lcmm_traces_satisfy_the_schema(self, graph, splitting):
        accel = small_accel()
        with obs.tracing("main") as tracer:
            run_lcmm(graph, accel, options=LCMMOptions(splitting=splitting))
        assert tracer.records, "a pipeline run must produce spans"
        assert_schema(tracer.records)

    @settings(max_examples=10, deadline=None)
    @given(random_dags())
    def test_disabled_tracing_records_nothing(self, graph):
        run_lcmm(graph, small_accel())
        assert obs.tracer() is None


# -- Synthetic worker batches for the merge properties ----------------------


@st.composite
def span_batches(draw):
    """A well-formed worker trace: ids 1..n, parents earlier, times monotone."""
    n = draw(st.integers(min_value=1, max_value=12))
    records = []
    clock = 0.0
    for span_id in range(1, n + 1):
        parent = None
        if span_id > 1 and draw(st.booleans()):
            parent = draw(st.integers(min_value=1, max_value=span_id - 1))
        start = clock + draw(st.floats(min_value=0.0, max_value=1.0))
        duration = draw(st.floats(min_value=0.0, max_value=1.0))
        clock = start + duration  # completion order == end-time order
        records.append(
            SpanRecord(
                name=f"s{span_id}",
                span_id=span_id,
                parent_id=parent,
                start=start,
                duration=duration,
                process="worker",
                thread=1,
            )
        )
    return [record.as_dict() for record in records]


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(span_batches(), min_size=1, max_size=4))
    def test_merged_batches_never_collide(self, batches):
        tracer = Tracer("main")
        for index, batch in enumerate(batches):
            tracer.merge(batch, process=f"worker-{index}")
        ids = [record.span_id for record in tracer.records]
        assert len(set(ids)) == len(ids)
        by_id = {record.span_id: record for record in tracer.records}
        for record in tracer.records:
            if record.parent_id is not None:
                parent = by_id[record.parent_id]
                assert parent.process == record.process

    @settings(max_examples=50, deadline=None)
    @given(span_batches())
    def test_merge_preserves_structure_and_times(self, batch):
        tracer = Tracer("main")
        tracer.merge(batch, process="w")
        # Names pair originals with merged copies; parent *names* must
        # survive the id remapping untouched.
        original = {d["span_id"]: d for d in batch}
        original_parent_names = {
            d["name"]: (
                original[d["parent_id"]]["name"]
                if d["parent_id"] is not None
                else None
            )
            for d in batch
        }
        by_id = {record.span_id: record for record in tracer.records}
        for record in tracer.records:
            expected = original_parent_names[record.name]
            actual = (
                by_id[record.parent_id].name
                if record.parent_id is not None
                else None
            )
            assert actual == expected
            source = next(d for d in batch if d["name"] == record.name)
            assert record.start == source["start"]
            assert record.duration == source["duration"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(span_batches(), min_size=1, max_size=4))
    def test_per_process_end_times_stay_monotone(self, batches):
        tracer = Tracer("main")
        for index, batch in enumerate(batches):
            tracer.merge(batch, process=f"worker-{index}")
        by_process: dict[str, list[SpanRecord]] = {}
        for record in tracer.records:
            by_process.setdefault(record.process, []).append(record)
        for records in by_process.values():
            ends = [record.start + record.duration for record in records]
            assert ends == sorted(ends)


class TestWorkerPoolIntegration:
    def test_dse_worker_spans_merge_monotone(self):
        from repro.analysis.experiments import reference_design
        from repro.hw.precision import INT8
        from repro.models.zoo import get_model
        from tests.conftest import sweep_base

        graph = get_model("alexnet")
        base = reference_design("resnet152", INT8, "lcmm")
        with obs.tracing("main") as tracer:
            sweep_base(graph, base, int(2.0 * 2**20), workers=2)
        worker_spans = [
            record
            for record in tracer.records
            if record.process.startswith("dse-worker-")
        ]
        assert worker_spans, "the pool must ship spans back to the parent"
        assert {record.name for record in worker_spans} == {"dse.chunk"}
        by_process: dict[str, list[SpanRecord]] = {}
        for record in worker_spans:
            by_process.setdefault(record.process, []).append(record)
        for records in by_process.values():
            ends = [record.start + record.duration for record in records]
            assert ends == sorted(ends)
        assert_schema(tracer.records)
