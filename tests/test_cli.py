"""Tests for the lcmm command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.reference import model_reference_design, reference_design
from repro.cli import build_parser, main
from repro.errors import ModelNotFoundError
from repro.hw.precision import INT8
from repro.models.zoo import list_models

SNAPSHOTS = Path(__file__).parent / "snapshots"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_parse(self):
        for cmd in ("table1", "table2", "table3", "fig8"):
            args = build_parser().parse_args([cmd])
            assert callable(args.func)

    def test_fig2b_options(self):
        args = build_parser().parse_args(["fig2b", "--stride", "64"])
        assert args.stride == 64
        assert args.precision == "int8"

    def test_run_requires_known_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lenet"])


class TestCommands:
    def test_run_command_output(self, capsys):
        assert main(["run", "googlenet", "--precision", "int8"]) == 0
        out = capsys.readouterr().out
        assert "Speedup" in out
        assert "UMM" in out and "LCMM" in out

    def test_fig2a_output(self, capsys):
        assert main(["fig2a"]) == 0
        out = capsys.readouterr().out
        assert "Memory-bound conv layers" in out
        assert "Ridge point" in out

    def test_fig2a_points_flag(self, capsys):
        assert main(["fig2a", "--points"]) == 0
        out = capsys.readouterr().out
        assert "Layer" in out

    def test_fig2b_sampled(self, capsys):
        assert main(["fig2b", "--stride", "512"]) == 0
        out = capsys.readouterr().out
        assert "allocation points" in out

    def test_table3_output(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Cloud-DNN [3]" in out
        assert "TGPA [17]" in out
        assert "measured" in out

    def test_fig8_output(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "inception_3a" in out
        assert "LCMM (feature reuse)" in out

    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Average speedup" in out

    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "POL" in out

    def test_doublebuffer_output(self, capsys):
        assert main(["doublebuffer"]) == 0
        out = capsys.readouterr().out
        assert "NON-LINEAR" in out
        assert "alexnet" in out and "linear" in out

    def test_batch_output(self, capsys):
        assert main(["batch", "googlenet", "--images", "4"]) == 0
        out = capsys.readouterr().out
        assert "steady state" in out
        assert "img/s" in out

    def test_sweep_output(self, capsys):
        assert main(["sweep", "googlenet"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_simulate_output(self, capsys):
        assert main(["simulate", "googlenet", "--rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "= execution" in out

    @pytest.mark.parametrize(
        "argv, snapshot",
        [
            (["googlenet", "--rows", "5"], "simulate_googlenet_rows5.txt"),
            (
                ["inception_v4", "--precision", "int16", "--rows", "5"],
                "simulate_inception_v4_int16_rows5.txt",
            ),
        ],
    )
    def test_simulate_matches_snapshot(self, capsys, argv, snapshot):
        """The full ``lcmm simulate`` stdout, pinned byte for byte."""
        assert main(["simulate", *argv]) == 0
        assert capsys.readouterr().out == (SNAPSHOTS / snapshot).read_text()

    @pytest.mark.parametrize("view", ("graph", "interference", "pdg"))
    def test_dot_output(self, capsys, tmp_path, view):
        target = str(tmp_path / f"{view}.dot")
        assert main(["dot", "googlenet", "--view", view, "-o", target]) == 0
        contents = open(target).read()
        assert contents.startswith(("digraph", "graph"))

    def test_passes_command(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "allocate_splitting" in out
        assert "requires:" in out and "produces:" in out
        assert "Default pipeline:" in out

    def test_run_explain(self, capsys):
        assert main(["run", "googlenet", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline: feature_reuse -> weight_prefetch" in out
        assert "Diagnostics" in out
        assert "[feature_reuse]" in out

    def test_run_profile_passes(self, capsys):
        assert main(["run", "googlenet", "--profile-passes"]) == 0
        out = capsys.readouterr().out
        assert "Evaluation engine profile" in out
        assert "allocate" in out
        assert "gain cache" in out

    def test_dse_output(self, capsys):
        assert main(["dse", "googlenet", "--workers", "2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Tile DSE" in out
        assert "UMM" in out

    def test_dse_space_output(self, capsys):
        assert main(
            ["dse", "googlenet", "--space", "small", "--sample", "64",
             "--budget", "2", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Design-space DSE" in out
        assert "pruned" in out  # pruning counts are never silent

    def test_dse_space_no_prune_scores_everything(self, capsys):
        assert main(
            ["dse", "googlenet", "--space", "small", "--sample", "32",
             "--budget", "2", "--no-prune", "--top", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 pruned" in out

    def test_dse_pool_fresh(self, capsys):
        from tests.conftest import child_pids, wait_for_exit

        before = child_pids()
        assert main(["dse", "googlenet", "--workers", "2", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "Pool: " in out
        # The sweep's private pool was closed: its workers exit.
        assert not wait_for_exit(child_pids() - before)

    def test_cotune_output(self, capsys):
        assert main(["cotune", "googlenet"]) == 0
        out = capsys.readouterr().out
        assert "best" in out
        assert "LCMM" in out

    def test_report_output(self, capsys, tmp_path):
        target = str(tmp_path / "report.md")
        assert main(["report", "-o", target]) == 0
        contents = open(target).read()
        assert "## Table 1" in contents
        assert "## Fig. 8" in contents

    def test_export_output(self, capsys, tmp_path):
        target = str(tmp_path / "alloc.json")
        assert main(["export", "googlenet", "-o", target]) == 0
        import json

        data = json.loads(open(target).read())
        assert data["model"] == "googlenet"
        assert data["buffers"]


    def test_export_alias_gets_its_models_design(self, tmp_path):
        # An alias compiles on its model's reference design, not on the
        # resnet152 design every non-benchmark model shares.
        import json

        designs = {}
        for name in ("gn", "googlenet"):
            target = tmp_path / f"{name}.json"
            assert main(["export", name, "-o", str(target)]) == 0
            designs[name] = json.loads(target.read_text())["design"]
        assert designs["gn"] == designs["googlenet"] == "lcmm-googlenet-int16"

    def test_reference_design_per_model_name(self):
        assert model_reference_design("RN", INT8, "umm") == reference_design(
            "resnet152", INT8, "umm"
        )
        assert model_reference_design("IN", INT8, "lcmm").name == "lcmm-inception_v4-int8"
        assert model_reference_design("vgg16", INT8, "lcmm").name == "lcmm-resnet152-int8"
        with pytest.raises(ModelNotFoundError):
            model_reference_design("lenet", INT8, "lcmm")


class TestErrorHandling:
    """ReproErrors become one-line stderr messages, not tracebacks.

    User/configuration errors (unknown model, bad budget) exit 2;
    internal failures exit 1 — see the README error-taxonomy table.
    """

    def test_unknown_model_exits_nonzero(self, capsys):
        assert main(["dse", "nosuchnet"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "unknown model" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_model_lists_alternatives(self, capsys):
        assert main(["export", "lenet"]) == 2
        err = capsys.readouterr().err
        assert "googlenet" in err  # actionable: names the known models

    def test_unknown_model_message(self, capsys):
        assert main(["export", "lenet"]) == 2
        known = ", ".join(list_models())
        assert capsys.readouterr().err == (
            f"error: unknown model 'lenet'; known: {known}\n"
        )

    def test_nonpositive_budget_exits_nonzero(self, capsys):
        assert main(["dse", "googlenet", "--budget", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "positive" in err

    def test_infeasible_budget_exits_nonzero(self, capsys):
        assert main(["dse", "googlenet", "--budget", "0.00001"]) == 2
        err = capsys.readouterr().err
        assert "no tile configuration" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "alexnet"],
            ["batch", "googlenet"],
            ["dse", "alexnet"],
            ["doublebuffer"],
        ],
    )
    def test_unknown_precision_exits_two(self, argv, capsys):
        assert main([*argv, "--precision", "int3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown precision 'int3'; known: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["batch", "pipeline"])
    def test_zero_images_rejected_before_compiling(self, command, capsys):
        assert main([command, "googlenet", "--images", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --images must be at least 1, got 0\n"
        assert captured.out == ""

    def test_run_explain_reports_no_degradation(self, capsys):
        # Every compile checks its invariants; a reference compile must
        # pass them at the requested level.
        assert main(["run", "googlenet", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Degradation: none" in out

    def test_run_no_fallback_succeeds(self, capsys):
        assert main(["run", "googlenet", "--no-fallback"]) == 0
        assert "Speedup" in capsys.readouterr().out

    def test_explain_reports_degradation(self, capsys):
        from repro.robustness.inject import FaultPlan, injected

        with injected(FaultPlan("pass.allocate_splitting", mode="raise")):
            assert main(["run", "googlenet", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Degradation: level" in out
        assert "Recovery events" in out


class TestClosedPipe:
    def test_closed_stdout_exits_one_without_traceback(self):
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "passes"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
