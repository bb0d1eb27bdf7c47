"""Fault-tolerant cluster execution: retry, quarantine, re-balance.

Every test asserts the recovery invariant the benchsuite gate relies
on: results under faults are bit-identical to the fault-free run.

The module also honours an externally-installed ``HPL_FAULTS`` plan
(see the CI ``faults`` job, which runs this file under three seeded
plans): tests install their own plan explicitly, so a plan from the
environment only governs :class:`TestUnderEnvironmentPlan`.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.hpl as hpl
from repro import trace
from repro.errors import ClusterExecutionError
from repro.hpl import (Float, FailureSummary, calibration, cluster_eval,
                       float_)
from repro.hpl.cluster import Cluster, ClusterResult, DistributedArray
from repro.ocl import faults
from repro.ocl.platform import reset_platform_devices

N = 4000


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    calibration().reset()
    faults.configure(None)
    yield
    faults.configure(None)
    calibration().reset()
    reset_platform_devices()
    hpl.reset_runtime()


def saxpy_part(y, x, a, offset, count):
    y[hpl.idx] = a * x[hpl.idx] + y[hpl.idx]


def _problem(cluster, n=N, seed=11):
    rng = np.random.default_rng(seed)
    xd = rng.random(n).astype(np.float32)
    yd = rng.random(n).astype(np.float32)
    x = DistributedArray(float_, n, cluster, data=xd)
    y = DistributedArray(float_, n, cluster, data=yd)
    return (y, x, Float(2.0)), yd


def _expected(n=N, seed=11):
    """The fault-free reference, computed once per plan/schedule."""
    faults.configure(None)
    hpl.reset_runtime()
    c = Cluster(hpl.get_devices())
    args, _ = _problem(c, n, seed)
    cluster_eval(saxpy_part, c, *args)
    out = args[0].gather()
    hpl.reset_runtime()
    return out


def _run(plan, schedule, n=N, **kwargs):
    hpl.reset_runtime()
    faults.configure(plan)
    c = Cluster(hpl.get_devices())
    args, _ = _problem(c, n)
    result = cluster_eval(saxpy_part, c, *args, schedule=schedule,
                          **kwargs)
    out = args[0].gather()
    faults.configure(None)
    return out, result, c


class TestHealthyRuns:
    def test_result_is_a_plain_list_with_clean_summary(self):
        out, result, _c = _run(None, "uniform")
        assert isinstance(result, ClusterResult)
        assert isinstance(result, list) and len(result) > 0
        assert isinstance(result.failures, FailureSummary)
        assert result.failures.clean
        assert result.failures.retries == 0
        assert np.array_equal(out, _expected())


class TestTransientRecovery:
    @pytest.mark.parametrize("schedule", ["uniform", "weighted",
                                          "dynamic"])
    def test_retry_reproduces_exact_results(self, schedule):
        out, result, _c = _run(
            "device=Tesla kind=transient op=kernel nth=1", schedule)
        f = result.failures
        assert f.transient_failures >= 1 and f.retries >= 1
        assert f.backoff_seconds > 0
        assert not f.devices_lost
        assert np.array_equal(out, _expected())

    def test_transient_h2d_failure_is_retried(self):
        out, result, _c = _run(
            "device=Tesla kind=transient op=write nth=1", "uniform")
        assert result.failures.retries >= 1
        assert np.array_equal(out, _expected())

    @pytest.mark.parametrize("max_retries", [2, 3])
    @pytest.mark.parametrize("schedule", ["uniform", "dynamic"])
    def test_transient_h2d_failure_succeeds_on_first_retry(
            self, schedule, max_retries):
        """One failed copy-in costs one retry: the rollback of the
        abandoned launch must not leave the device copy marked valid
        and produced by the failed write, which made every retry fail
        and quarantined the healthy device."""
        out, result, _c = _run(
            "device=Tesla kind=transient op=write nth=1", schedule,
            max_retries=max_retries)
        f = result.failures
        assert f.retries == 1
        assert f.transient_failures == 1
        assert f.devices_lost == []
        assert np.array_equal(out, _expected())

    def test_backoff_grows_per_attempt_and_is_capped(self):
        from repro.hpl.cluster import _backoff_delay

        delays = [_backoff_delay(1e-4, k) for k in range(6)]
        assert delays[0] == pytest.approx(1e-4)
        assert delays[1] == pytest.approx(2e-4)
        assert delays[3] == delays[4] == delays[5]  # capped

    def test_transient_build_failure_is_retried(self):
        out, result, _c = _run(
            "device=Tesla kind=transient op=build nth=1", "uniform")
        assert result.failures.retries >= 1
        assert np.array_equal(out, _expected())


class TestDeviceLossRecovery:
    @pytest.mark.parametrize("schedule", ["uniform", "weighted",
                                          "dynamic"])
    def test_lost_device_is_quarantined_and_work_rebalanced(
            self, schedule):
        out, result, c = _run("device=Quadro kind=lost at=0", schedule)
        f = result.failures
        assert f.devices_lost == ["SimCL Quadro FX 380#1"]
        assert f.requeued_items > 0
        assert len(c.devices) == len(hpl.get_devices()) - 1
        assert [d.label for d in c.lost] == f.devices_lost
        assert np.array_equal(out, _expected())

    def test_mid_run_loss_requeues_stranded_chunks(self):
        # the device dies after its simulated clock passes the onset,
        # so chunks it already computed are stranded and must re-run
        out, result, _c = _run("device=Tesla kind=lost at=0.000001",
                               "dynamic")
        f = result.failures
        assert f.devices_lost == ["SimCL Tesla C2050/C2070#0"]
        assert f.requeued_items > 0
        assert np.array_equal(out, _expected())

    def test_exhausted_retries_quarantine_the_device(self):
        out, result, _c = _run(
            "device=Quadro kind=transient op=kernel nth=1 count=99",
            "uniform", max_retries=2)
        f = result.failures
        assert f.retries == 2
        assert f.devices_lost == ["SimCL Quadro FX 380#1"]
        assert np.array_equal(out, _expected())

    def test_losing_every_device_raises(self):
        with pytest.raises(ClusterExecutionError):
            _run("device=* kind=lost at=0", "uniform")

    def test_quarantined_cluster_serves_followup_evals(self):
        _out, _result, c = _run("device=Quadro kind=lost at=0",
                                "uniform")
        # the cluster keeps working with the survivors: a fresh eval
        # re-plans over the remaining devices (the fault plan is gone)
        args, _ = _problem(c)
        result = cluster_eval(saxpy_part, c, *args)
        assert result.failures.clean
        assert np.array_equal(args[0].gather(), _expected())


class TestStraggler:
    def test_slow_device_changes_time_not_results(self):
        out, result, _c = _run("device=Quadro kind=slow factor=16",
                               "dynamic")
        assert result.failures.clean
        assert np.array_equal(out, _expected())


class TestObservability:
    def test_metrics_and_spans_record_recovery(self):
        trace.reset_metrics()
        registry = trace.get_registry()
        r0 = registry.counter("cluster.retries").value
        l0 = registry.counter("cluster.device_lost").value
        q0 = registry.counter("cluster.requeued_items").value
        tracer = trace.enable(fresh=True)
        try:
            _run("device=Tesla kind=transient op=kernel nth=1;"
                 "device=Quadro kind=lost at=0", "uniform")
        finally:
            trace.disable()
        assert registry.counter("cluster.retries").value > r0
        assert registry.counter("cluster.device_lost").value == l0 + 1
        assert registry.counter("cluster.requeued_items").value > q0
        names = [s.name for s in tracer.spans()]
        assert "fault_inject" in names
        assert "recover" in names
        actions = {s.attrs.get("action") for s in tracer.spans()
                   if s.name == "recover"}
        assert {"retry", "quarantine", "requeue"} <= actions

    def test_faults_injected_counter_counts_injections(self):
        registry = trace.get_registry()
        before = registry.counter("simcl.faults_injected").value
        _run("device=Tesla kind=transient op=kernel nth=1", "uniform")
        assert registry.counter("simcl.faults_injected").value > before


class TestGatherScatterAfterRecovery:
    def test_gather_skips_empty_partitions_without_holes(self):
        # more blocks than elements leaves None partitions around
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        data = np.arange(2, dtype=np.float32)
        d = DistributedArray(float_, 2, c, data=data)
        d.repartition([(0, 1), (1, 1), (1, 2)])
        assert d.parts[1] is None
        assert np.array_equal(d.gather(), data)
        assert all(e is not None for e in d.last_gather_events)

    def test_scatter_ignores_stale_prerepartition_views(self):
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        d = DistributedArray(float_, 8, c,
                             data=np.zeros(8, np.float32))
        stale_parts = list(d.parts)
        d.repartition([(0, 4), (4, 8), (8, 8)])
        fresh = np.arange(8, dtype=np.float32)
        d.scatter(fresh)
        assert np.array_equal(d.gather(), fresh)
        # the old views must not have been written through
        for part in stale_parts:
            if part is not None:
                assert part._host_valid

    def test_scatter_after_recovery_layout(self):
        _out, _result, c = _run("device=Quadro kind=lost at=0",
                                "dynamic")
        args, _ = _problem(c)
        y = args[0]
        fresh = np.linspace(0, 1, N).astype(np.float32)
        y.scatter(fresh)
        assert np.array_equal(y.gather(), fresh)


class TestUnderEnvironmentPlan:
    """Generic correctness under whatever ``HPL_FAULTS`` the CI job
    installs — the same invariant, any seeded plan."""

    @pytest.mark.parametrize("schedule", ["uniform", "weighted",
                                          "dynamic"])
    def test_results_identical_under_ambient_plan(self, monkeypatch,
                                                  schedule):
        import os

        plan_text = os.environ.get(faults.ENV_VAR)
        if not plan_text:
            pytest.skip("no ambient HPL_FAULTS plan")
        out, result, _c = _run(plan_text, schedule)
        assert np.array_equal(out, _expected())
