"""``cluster_eval`` option validation, the watchdog on static plans,
and checkpoint run identity.

Every recovery option either takes effect or raises ``HPLError`` at
call time.  A checkpoint only resumes the run it belongs to: a changed
kernel body, closure value, scalar or read-only input starts fresh.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.hpl as hpl
from repro.errors import DeadlineExceeded, HPLError
from repro.hpl import Float, calibration, cluster_eval, float_, timeline_of
from repro.hpl.cluster import Cluster, DistributedArray
from repro.ocl import faults
from repro.ocl.platform import reset_platform_devices

N = 6000


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    calibration().reset()
    faults.configure(None)
    yield
    faults.configure(None)
    calibration().reset()
    reset_platform_devices()
    hpl.reset_runtime()


def make_kernel(shift: float = 0.0, scale: bool = False):
    """A saxpy variant; every variant shares the kernel name."""
    if scale:
        def saxpy_part(y, x, a, offset, count):
            y[hpl.idx] = a * x[hpl.idx] * 2.0 + y[hpl.idx] + shift
    else:
        def saxpy_part(y, x, a, offset, count):
            y[hpl.idx] = a * x[hpl.idx] + y[hpl.idx] + shift
    return saxpy_part


def _problem(cluster, x_seed=3):
    xd = np.random.default_rng(x_seed).random(N).astype(np.float32)
    yd = np.random.default_rng(4).random(N).astype(np.float32)
    return (DistributedArray(float_, N, cluster, data=yd),
            DistributedArray(float_, N, cluster, data=xd))


def _run(kernel=None, a=2.0, x_seed=3, plan=None, **kwargs):
    """One cluster_eval from a fresh runtime: (gathered y, result)."""
    hpl.reset_runtime()
    faults.configure(plan)
    c = Cluster(hpl.get_devices())
    y, x = _problem(c, x_seed)
    result = cluster_eval(kernel or make_kernel(), c, y, x, Float(a),
                          **kwargs)
    out = y.gather()
    faults.configure(None)
    return out, result


class TestOptionValidation:
    @pytest.mark.parametrize("kwargs, match", [
        ({"watchdog": True, "deferred": False}, "deferred=True"),
        ({"watchdog": 2.0, "deferred": False}, "deferred=True"),
        ({"watchdog": 0.5}, "slow-factor"),
        ({"resume": True}, "checkpoint"),
        ({"checkpoint_every": 0, "checkpoint": "ckpt"}, "checkpoint_every"),
        ({"probe_interval": 0, "probation": True}, "probe_interval"),
        ({"probation_decay": 0.0}, "probation_decay"),
        ({"probation_decay": 1.5}, "probation_decay"),
        ({"max_retries": -1}, "max_retries"),
        ({"backoff": -1e-4}, "backoff"),
        ({"deadline": 0}, "deadline"),
        ({"deadline": -1.0}, "deadline"),
    ])
    def test_invalid_combination_raises_before_any_work(
            self, kwargs, match, tmp_path):
        if "checkpoint" in kwargs:
            kwargs = {**kwargs, "checkpoint": tmp_path / "ckpt"}
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        y, x = _problem(c)
        clocks = [d.queue.clock for d in c.devices]
        with pytest.raises(HPLError, match=match):
            cluster_eval(make_kernel(), c, y, x, Float(2.0),
                         schedule="dynamic", **kwargs)
        assert [d.queue.clock for d in c.devices] == clocks
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("kwargs", [
        {"watchdog": 1}, {"watchdog": False, "deferred": False},
        {"probation_decay": 1.0}, {"max_retries": 0}, {"backoff": 0.0},
    ])
    def test_boundary_values_are_accepted(self, kwargs):
        out, result = _run(schedule="dynamic", **kwargs)
        assert result.failures.clean
        assert np.array_equal(out, _run(schedule="dynamic")[0])


class TestWatchdogOnStaticPlans:
    @pytest.mark.parametrize("schedule", [None, "uniform"])
    def test_straggler_block_is_speculated_and_exact(self, schedule):
        straggler = "device=Quadro kind=slow factor=1024"
        expected, _ = _run(schedule=schedule)
        _run(schedule=schedule, plan=straggler)     # calibration warm-up
        slow, slow_result = _run(schedule=schedule, plan=straggler)
        out, result = _run(schedule=schedule, plan=straggler,
                           watchdog=True)
        assert result.failures.speculative_wins >= 1
        assert np.array_equal(out, expected)
        assert np.array_equal(slow, expected)
        assert timeline_of(result).makespan_seconds \
            < timeline_of(slow_result).makespan_seconds / 10

    @pytest.mark.parametrize("factor", [2, 5])
    @pytest.mark.parametrize("schedule", [None, "uniform", "weighted"])
    def test_moderate_straggler_is_never_made_worse(self, schedule, factor):
        """The prediction counts the rest of the wave queued on the
        target, so a reroute never piles work onto a busy device."""
        straggler = f"device=Quadro kind=slow factor={factor}"
        expected, _ = _run(schedule=schedule)
        _run(schedule=schedule, plan=straggler)     # calibration warm-up
        slow, slow_result = _run(schedule=schedule, plan=straggler)
        out, result = _run(schedule=schedule, plan=straggler,
                           watchdog=True)
        assert np.array_equal(out, expected)
        assert timeline_of(result).makespan_seconds \
            <= timeline_of(slow_result).makespan_seconds


class TestCheckpointRunIdentity:
    """A snapshot of one run is never restored into another."""

    @pytest.mark.parametrize("change", [
        {"kernel": make_kernel(scale=True)},        # kernel body
        {"kernel": make_kernel(shift=1.0)},         # closure value
        {"a": 3.0},                                 # scalar argument
        {"x_seed": 5},                              # read-only input
    ], ids=["body", "closure", "scalar", "read-only-input"])
    @pytest.mark.parametrize("schedule", ["uniform", "dynamic"])
    def test_changed_run_starts_fresh(self, change, schedule, tmp_path):
        _run(schedule=schedule, checkpoint=tmp_path)
        expected, _ = _run(schedule=schedule, **change)
        out, result = _run(schedule=schedule, checkpoint=tmp_path,
                           resume=True, **change)
        assert result.failures.resumed_blocks == 0
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("schedule", ["uniform", "dynamic"])
    def test_unchanged_run_still_resumes(self, schedule, tmp_path):
        expected, _ = _run(schedule=schedule)
        _run(schedule=schedule, checkpoint=tmp_path)
        out, result = _run(schedule=schedule, checkpoint=tmp_path,
                           resume=True)
        assert result.failures.resumed_blocks > 0
        assert len(result) == 0             # nothing left to compute
        assert np.array_equal(out, expected)

    @staticmethod
    def _chained(**kwargs):
        """y = a*x + y on the cluster, then z = 2*y from the still
        device-resident y; the second run's result and gathered z."""
        def double_part(z, y, offset, count):
            z[hpl.idx] = y[hpl.idx] * 2.0

        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        y, x = _problem(c)
        z = DistributedArray(float_, N, c)
        cluster_eval(make_kernel(), c, y, x, Float(2.0))
        result = cluster_eval(double_part, c, z, y, **kwargs)
        return result, z.gather(), y

    def test_device_resident_input_costs_no_transfer(self, tmp_path):
        """Digesting the run id never copies a device-only input back:
        checkpointing leaves the launches' timeline as it was."""
        plain, expected, _ = self._chained()
        result, out, _ = self._chained(checkpoint=tmp_path)
        assert np.array_equal(out, expected)
        assert timeline_of(result).makespan_seconds \
            == timeline_of(plain).makespan_seconds
        assert [e.profile_start for r in result for e in r.events] \
            == [e.profile_start for r in plain for e in r.events]

    def test_resume_refuses_a_device_resident_input(self, tmp_path):
        self._chained(checkpoint=tmp_path)
        with pytest.raises(HPLError, match="'y' valid on the host"):
            self._chained(checkpoint=tmp_path, resume=True)

    def test_device_resident_run_is_never_resumed(self, tmp_path):
        """A snapshot whose read-only input was never digested does not
        match a host-valid input, so a resume starts fresh."""
        def double_part(z, y, offset, count):
            z[hpl.idx] = y[hpl.idx] * 2.0

        _, expected, _ = self._chained(checkpoint=tmp_path)
        hpl.reset_runtime()
        c = Cluster(hpl.get_devices())
        y = DistributedArray(float_, N, c, data=expected / 2)
        z = DistributedArray(float_, N, c)
        result = cluster_eval(double_part, c, z, y, checkpoint=tmp_path,
                              resume=True)
        assert result.failures.resumed_blocks == 0
        assert np.array_equal(z.gather(), expected)

    @pytest.mark.parametrize("schedule", ["weighted", "dynamic"])
    def test_same_process_resume_after_deadline_on_same_arrays(
            self, schedule, tmp_path):
        expected, _ = _run(schedule=schedule)
        hpl.reset_runtime()
        # transient faults give the static plan a second wave, so the
        # deadline strikes with only part of its blocks done
        faults.configure("device=Tesla kind=transient op=kernel nth=1")
        c = Cluster(hpl.get_devices())
        y, x = _problem(c)
        with pytest.raises(DeadlineExceeded):
            cluster_eval(make_kernel(), c, y, x, Float(2.0),
                         schedule=schedule, checkpoint=tmp_path,
                         deadline=1e-6)
        faults.configure(None)
        result = cluster_eval(make_kernel(), c, y, x, Float(2.0),
                              schedule=schedule, checkpoint=tmp_path,
                              resume=True)
        assert result.failures.resumed_blocks > 0
        assert len(result) > 0              # the rest was computed
        assert np.array_equal(y.gather(), expected)


class TestSchedulerKeywords:
    def test_uniform_scheduler_takes_no_weights(self):
        from repro.hpl.cluster import Scheduler, UniformScheduler
        with pytest.raises(TypeError):
            UniformScheduler(weights=[1.0, 2.0, 3.0])
        with pytest.raises(TypeError):
            Scheduler(calibrate=False)
