"""Golden behaviour of ``cluster_eval`` under every schedule and fault.

Each run pins the exact simulated makespan, the ``FailureSummary``, the
final partition bounds and the SHA-256 of the gathered result (a run
that raises pins its error and summary instead).  The schedule x mode x
fault matrix pins a cold run and a calibrated (warm) rerun per leg.
Any change to how the cluster runner launches, retries, quarantines,
requeues, speculates or checkpoints shows up here as a changed number,
so a refactor of the runner that keeps this file green keeps the
behaviour bit for bit.

Every leg installs its own fault plan (``faults.configure`` overrides
an ambient ``HPL_FAULTS``), resets the runtime, the platform devices and
the calibration store, and builds a fresh :class:`Cluster`.

The goldens live in ``cluster_golden.json`` next to this file.  They are
recorded, never edited by hand::

    PYTHONPATH=src python tests/hpl/test_cluster_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np
import pytest

import repro.hpl as hpl
from repro.errors import HPLError
from repro.hpl import Float, calibration, cluster_eval, float_, timeline_of
from repro.hpl.cluster import Cluster, DistributedArray
from repro.ocl import faults
from repro.ocl.platform import reset_platform_devices

N = 4000
GOLDEN = os.path.join(os.path.dirname(__file__), "cluster_golden.json")

FAULTS = {
    "none": None,
    "transient": ("device=Tesla kind=transient op=kernel nth=1; "
                  "device=Quadro kind=transient op=kernel nth=1 count=2; "
                  "device=* kind=transient op=kernel prob=0.1; seed=7"),
    "tesla-lost": "device=Tesla kind=lost at=0.000001",
    "straggler": "device=Quadro kind=slow factor=1024",
    "write": ("device=Tesla kind=transient op=write nth=1; "
              "device=Quadro kind=transient op=write nth=2; seed=9"),
}
SCHEDULES = (None, "uniform", "weighted", "dynamic")


def saxpy_part(y, x, a, offset, count):
    y[hpl.idx] = a * x[hpl.idx] + y[hpl.idx]


def _fresh(plan) -> Cluster:
    reset_platform_devices()
    hpl.reset_runtime()
    faults.configure(plan)
    return Cluster(hpl.get_devices())


def _problem(cluster):
    rng = np.random.default_rng(11)
    x = DistributedArray(float_, N, cluster,
                         data=rng.random(N).astype(np.float32))
    y = DistributedArray(float_, N, cluster,
                         data=rng.random(N).astype(np.float32))
    return y, x


def _record(result, y) -> dict:
    out = y.gather()
    return {
        "makespan": timeline_of(result).makespan_seconds if result
        else None,
        "failures": result.failures.as_dict(),
        "bounds": [list(b) for b in y.bounds],
        "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
    }


def _run(plan, schedule, **kwargs) -> dict:
    """One cluster_eval from a fresh runtime under ``plan``."""
    y, x = _problem(_fresh(plan))
    try:
        result = cluster_eval(saxpy_part, y.cluster, y, x, Float(2.0),
                              schedule=schedule, **kwargs)
    except HPLError as exc:
        record = {"error": type(exc).__name__}
        if getattr(exc, "failures", None) is not None:
            record["failures"] = exc.failures.as_dict()
        if getattr(exc, "result", None) is not None:
            record["partial_launches"] = len(exc.result)
        return record
    return _record(result, y)


def _leg_name(schedule, deferred, fault) -> str:
    mode = "deferred" if deferred else "eager"
    return f"{schedule or 'current'}/{mode}/{fault}"


def _matrix_leg(schedule, deferred, fault) -> list:
    kwargs = {"deferred": deferred}
    if fault == "straggler" and schedule == "dynamic" and deferred:
        kwargs["watchdog"] = True
    # cold, then warm: the second run sees the first one's calibration
    return [_run(FAULTS[fault], schedule, **kwargs) for _ in range(2)]


def _checkpoint_leg(schedule) -> dict:
    with tempfile.TemporaryDirectory() as ckpt:
        record = _run(None, schedule, checkpoint=ckpt, checkpoint_every=2)
        with open(os.path.join(ckpt, "MANIFEST.json")) as fh:
            record["completed"] = json.load(fh)["completed"]
    return record


def _resume_leg(schedule) -> list:
    # transient faults make the static plan take a second wave, so its
    # deadline strikes with only part of the blocks done
    plan = FAULTS["transient"]
    with tempfile.TemporaryDirectory() as ckpt:
        aborted = _run(plan, schedule, checkpoint=ckpt, checkpoint_every=1,
                       deadline=1e-6)
        resumed = _run(plan, schedule, checkpoint=ckpt, resume=True)
    return [aborted, resumed]


def _probation_leg(schedule) -> dict:
    return _run("device=Quadro kind=transient code=lost nth=1 count=3",
                schedule, probation=True, probe_interval=1)


def _multi_loss_leg(schedule) -> dict:
    # a kernel hiccup on the Tesla, the Quadro dead from the start and
    # the Xeon exhausting its retries: two quarantines in one round
    return _run("device=Tesla kind=transient op=kernel nth=1; "
                "device=Quadro kind=lost at=0; "
                "device=Xeon kind=transient op=kernel nth=1 count=5; seed=3",
                schedule, max_retries=2)


def _legs() -> dict:
    legs = {}
    for fault in FAULTS:
        for schedule in SCHEDULES:
            for deferred in (True, False):
                legs[_leg_name(schedule, deferred, fault)] = (
                    _matrix_leg, (schedule, deferred, fault))
    for schedule in ("weighted", "dynamic"):
        legs[f"checkpoint/{schedule}"] = (_checkpoint_leg, (schedule,))
        legs[f"deadline-resume/{schedule}"] = (_resume_leg, (schedule,))
    for schedule in ("uniform", "dynamic"):
        legs[f"probation/{schedule}"] = (_probation_leg, (schedule,))
    for schedule in ("uniform", "weighted", "dynamic"):
        legs[f"multi-loss/{schedule}"] = (_multi_loss_leg, (schedule,))
    return legs


LEGS = _legs()


def _run_leg(name):
    func, args = LEGS[name]
    calibration().reset()
    try:
        return json.loads(json.dumps(func(*args)))
    finally:
        faults.configure(None)
        calibration().reset()
        reset_platform_devices()
        hpl.reset_runtime()


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(LEGS))
def test_leg_matches_golden(name):
    golden = _load_golden()
    assert name in golden, f"no golden recorded for leg {name!r}"
    assert _run_leg(name) == golden[name]


def test_every_golden_has_a_leg():
    assert set(_load_golden()) == set(LEGS)


def _record_all() -> None:
    """Write every leg's golden, one leg per line."""
    legs = [f" {json.dumps(name)}: "
            f"{json.dumps(_run_leg(name), sort_keys=True)}"
            for name in sorted(LEGS)]
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(legs) + "\n}\n")
    print(f"recorded {len(legs)} leg(s) into {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    _record_all()
