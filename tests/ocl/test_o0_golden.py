"""Golden behaviour of ``-cl-opt-disable`` (O0) on the lock-step engines.

Each leg runs one program on the ``vector`` or ``jit`` engine at O0 with
the source-level profiler on, and pins one SHA-256 over:

* the output bytes,
* the cost counters (``vars(counters)``; the per-kernel profile
  counters, summed over launches, for the benchmark legs),
* the per-line profile (``KernelProfile.lines``),
* the divergent branches (``KernelProfile.divergent_branches()``).

The raw ``branches`` dict is deliberately left out: it also records
branches that never split lanes, which is an engine detail, not part of
the O0 contract.

Legs: 100 seeded kernels of the differential fuzzer
(``tests/clc/test_opt_differential.py``) and the five tiny paper
benchmarks of the opt-pipeline experiment, each on both engines.  Any
change to what O0 computes, charges or attributes shows up here as a
changed digest.

The goldens live in ``o0_golden.json`` next to this file.  They are
recorded, never edited by hand::

    PYTHONPATH=src python -m tests.ocl.test_o0_golden --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

import repro.hpl as hpl
from repro import prof
from repro.benchsuite import runner
from repro.ocl.devicedb import DEFAULT_DEVICES
from repro.ocl.platform import reset_platform_devices, set_platform_devices
from tests.clc.test_opt_differential import _KernelGen, _run_config

GOLDEN = os.path.join(os.path.dirname(__file__), "o0_golden.json")

ENGINES = ("vector", "jit")
SEEDS = range(1000, 1100)
BENCHMARKS = ("EP", "Floyd-Warshall", "Matrix transpose", "Spmv",
              "Reduction")

LEGS = ([f"fuzz/{seed}/{engine}" for seed in SEEDS for engine in ENGINES]
        + [f"bench/{name}/{engine}" for name in BENCHMARKS
           for engine in ENGINES])


def _digest(outputs, counters: dict, profiles) -> str:
    h = hashlib.sha256()
    for out in outputs:
        arr = np.ascontiguousarray(np.asarray(out))
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    h.update(json.dumps(counters, sort_keys=True).encode())
    for p in sorted(profiles, key=lambda p: p.kernel):
        h.update(json.dumps({
            "kernel": p.kernel,
            "lines": {str(line): rec.to_dict()
                      for line, rec in sorted(p.lines.items())},
            "divergent": [[line, rec.to_dict()]
                          for line, rec in p.divergent_branches()],
        }, sort_keys=True).encode())
    return h.hexdigest()


def _fuzz_leg(seed: int, engine: str) -> str:
    gen = _KernelGen(seed)
    source = gen.source()
    lsize = (gen.lsize,) if gen.has_barrier else None
    rng = np.random.default_rng(seed)
    fin = rng.uniform(0.1, 4.0, gen.gsize).astype(np.float32)
    iin = rng.integers(-100, 100, gen.gsize).astype(np.int32)
    s = round(float(rng.uniform(-2, 2)), 2)
    out, iout, counters = _run_config(engine, "-cl-opt-disable", source,
                                      (gen.gsize,), lsize, fin, iin, s)
    return _digest([out, iout], vars(counters),
                   prof.get_profiler().merged())


def _bench_leg(name: str, engine: str) -> str:
    problem = runner._problems_opt_tiny()[name]
    hpl.configure(opt_level=0)
    set_platform_devices(DEFAULT_DEVICES, engine)
    hpl.reset_runtime()
    prof.reset()
    run = runner._BENCH_MODULES[name].run_hpl(problem, runner.TESLA)
    profiles = prof.get_profiler().merged()
    counters = {p.kernel: p.counters for p in profiles}
    parts = run.output if isinstance(run.output, (tuple, list)) \
        else (run.output,)
    return _digest(parts, counters, profiles)


def _run_leg(leg: str) -> str:
    kind, key, engine = leg.split("/")
    was_enabled = prof.is_enabled()
    prof.enable()
    prof.reset()
    try:
        if kind == "fuzz":
            return _fuzz_leg(int(key), engine)
        return _bench_leg(key, engine)
    finally:
        prof.reset()
        if not was_enabled:
            prof.disable()
        hpl.configure(opt_level=None)
        reset_platform_devices()
        hpl.reset_runtime()


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("leg", LEGS)
def test_leg_matches_golden(leg):
    golden = _load_golden()
    assert leg in golden, f"no golden recorded for leg {leg!r}"
    assert _run_leg(leg) == golden[leg]


def test_every_golden_has_a_leg():
    assert set(_load_golden()) == set(LEGS)


def _record_all() -> None:
    """Write every leg's digest, one leg per line."""
    legs = [f" {json.dumps(leg)}: {json.dumps(_run_leg(leg))}"
            for leg in sorted(LEGS)]
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(legs) + "\n}\n")
    print(f"recorded {len(legs)} leg(s) into {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    _record_all()
