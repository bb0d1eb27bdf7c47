"""Experiment runner smoke tests and Table I standalone programs."""

import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from repro.benchsuite import ep, runner
from repro.benchsuite.table1 import TABLE1_PAIRS, source_path
from repro.hpl import reset_runtime
from repro.benchsuite import report


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    yield


class TestTable1:
    def test_rows_cover_all_benchmarks(self):
        rows = runner.run_table1()
        assert {r["benchmark"] for r in rows} == set(TABLE1_PAIRS)

    def test_hpl_is_always_smaller(self):
        for row in runner.run_table1():
            assert row["hpl_sloc"] < row["opencl_sloc"], row

    def test_substantial_reduction(self):
        """Every benchmark must shed at least a third of its SLOC."""
        for row in runner.run_table1():
            assert row["reduction_pct"] > 33.0, row

    def test_formatting(self):
        text = report.format_table1(runner.run_table1())
        assert "Table I" in text and "EP" in text

    @pytest.mark.parametrize("which", sorted(TABLE1_PAIRS))
    def test_standalone_programs_run_and_agree(self, which, capsys):
        """Each OpenCL/HPL program pair runs and prints identical
        result lines (bar the simulated-timing line)."""
        outputs = []
        for filename in TABLE1_PAIRS[which]:
            reset_runtime()
            mod = runpy.run_path(source_path(filename))
            rc = mod["main"]()
            assert rc == 0
            captured = capsys.readouterr().out
            result_lines = [ln for ln in captured.strip().split("\n")
                            if "kernel time" not in ln]
            outputs.append(result_lines)
        assert outputs[0] == outputs[1]


class TestWarmCache:
    def test_second_invocation_cheaper(self):
        row = runner.run_warm_cache("S")
        assert row["warm_slowdown_pct"] < row["cold_slowdown_pct"]
        assert row["warm_overhead_seconds"] < \
            row["cold_overhead_seconds"]

    def test_report_formatting(self):
        row = runner.run_warm_cache("S")
        text = report.format_warm_cache(row)
        assert "first call" in text and "second call" in text


class TestFigureRunners:
    def test_fig6_rows(self):
        rows = runner.run_fig6(classes=("S",))
        row = rows[0]
        assert row["opencl_speedup"] > 1
        assert row["hpl_speedup"] > 1
        assert row["hpl_speedup"] <= row["opencl_speedup"] * 1.05

    def test_fig8_structure(self):
        problems = {"Spmv": runner.spmv.spmv_problem(n_run=256)}
        rows = runner.run_fig8(problems=problems)
        assert rows[0]["hpl_overhead_seconds"] > 0
        text = report.format_fig8(rows)
        assert "Slowdown" in text

    def test_fig8_transfers_dilute_overhead(self):
        problems = {
            "Matrix transpose":
                runner.transpose.transpose_problem(n_run=64)}
        dry = runner.run_fig8(problems=problems)
        reset_runtime()
        wet = runner.run_fig8(include_transfers=True, problems=problems)
        # §V-B: counting transfers shrinks transpose's relative overhead
        assert abs(wet[0]["slowdown_pct"]) <= \
            abs(dry[0]["slowdown_pct"]) + 0.5


class TestEngineJit:
    def test_engine_jit_wiring(self, monkeypatch, tmp_path):
        """`run_engine_jit` plumbing on tiny problems: interleaved
        rounds, per-engine bests, identical checksums, JSON artifact.
        The real >= 2x perf gate runs on the full sizes in CI."""
        from repro.benchsuite import floyd

        monkeypatch.setattr(
            runner, "_problems_engine_jit",
            lambda: {"Floyd-Warshall": (floyd.floyd_problem(64, n_run=4), 2)})
        out = tmp_path / "engine_jit.json"
        row = runner.run_engine_jit(rounds=1, gate=None, output=str(out))
        leg = row["benchmarks"]["Floyd-Warshall"]
        assert leg["vector_seconds"] > 0 and leg["jit_seconds"] > 0
        assert row["checksums_identical"]
        assert out.exists()
        text = report.format_engine_jit(row)
        assert "geomean" in text and "jit" in text

    def test_engine_jit_gate_fires(self, monkeypatch):
        from repro.benchsuite import floyd

        monkeypatch.setattr(
            runner, "_problems_engine_jit",
            lambda: {"Floyd-Warshall": (floyd.floyd_problem(64, n_run=4), 2)})
        with pytest.raises(AssertionError, match="gate"):
            runner.run_engine_jit(rounds=1, gate=1e9, output=None)

    def test_engine_jit_writes_artifact_before_gate_fires(self, monkeypatch,
                                                          tmp_path):
        from repro.benchsuite import floyd

        monkeypatch.setattr(
            runner, "_problems_engine_jit",
            lambda: {"Floyd-Warshall": (floyd.floyd_problem(64, n_run=4), 2)})
        out = tmp_path / "engine_jit.json"
        with pytest.raises(AssertionError, match="geomean_speedup"):
            runner.run_engine_jit(rounds=1, gate=1e9, output=str(out))
        assert json.loads(out.read_text())["gate"] == 1e9


class TestClusterTargetGates:
    """The cluster targets enforce their own gates at default sizes and
    write their artifact; a run that misses a gate raises by name."""

    def test_cluster_lb(self, tmp_path):
        out = tmp_path / "lb.json"
        row = runner.run_cluster_lb(output=str(out))
        assert row["speedup_weighted"] >= 1.3
        assert row["speedup_dynamic"] >= 1.3
        assert json.loads(out.read_text())["results_identical"]

    def test_cluster_faults(self, tmp_path):
        out = tmp_path / "faults.json"
        row = runner.run_cluster_faults(output=str(out))
        assert row["recovery_overhead"] <= 2.0
        assert row["legs"]["transient"]["retries"] >= 1
        assert json.loads(out.read_text())["results_identical"]

    def test_cluster_resilience(self, tmp_path):
        out = tmp_path / "resilience.json"
        row = runner.run_cluster_resilience(output=str(out))
        assert row["resume_bit_identical"] and row["resumed_blocks"] >= 1
        assert json.loads(out.read_text())["results_identical"]

    def test_lb_gate_fires_when_balancing_cannot_pay(self):
        """One iteration over 1024 items is too little work for the
        weighted/dynamic schedules to beat the uniform split."""
        with pytest.raises(AssertionError, match="speedup_dynamic"):
            runner.run_cluster_lb(n=1024, iters=1, output=None)


class TestSubprocessLegs:
    def test_child_ignores_callers_hpl_settings(self, monkeypatch):
        """A measured child runs on the engine its record names and
        under no fault plan, whatever ``HPL_*`` the caller has set."""
        monkeypatch.setenv("HPL_ENGINE", "jit")
        monkeypatch.setenv("HPL_FAULTS", "device=* kind=lost at=0")
        record = runner._spawn_child("_opt_pipeline_child", opt_level=2,
                                     engine="vector", tiny=True)
        assert record["engine"] == "vector"
        assert record["opt_level"] == 2
        assert record["verified"]


class TestCiWorkflow:
    """Text-only checks of the CI workflow (no YAML parser needed)."""

    CI = Path(__file__).resolve().parents[2] / ".github/workflows/ci.yml"

    def test_no_inline_python(self):
        assert "python - <<" not in self.CI.read_text()

    def test_matrix_runs_every_gated_target(self):
        targets = re.findall(r"\btarget:\s*([\w-]+)", self.CI.read_text())
        assert set(targets) <= set(runner._cli_targets())
        assert set(targets) == {"warm-cache", "opt-pipeline", "engine-jit",
                                "cluster-lb", "cluster-faults",
                                "cluster-resilience"}
