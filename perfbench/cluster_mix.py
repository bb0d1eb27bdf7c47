"""cluster-mix: repeated ``cluster_eval`` + ``gather`` on a skewed mix.

A compute-bound partitioned kernel runs on the paper's three devices
(Tesla, Quadro and the Xeon host) under a seeded ``FaultPlan`` with
transient kernel failures on the Tesla and a 64x slow Quadro (slow
enough that the watchdog now and then speculates).  Calls
cycle in a fixed order through ``uniform``, ``weighted``, ``dynamic``,
``dynamic`` with ``watchdog=`` and ``dynamic`` with ``checkpoint=``: the
static and dynamic runners side by side, with and without the resilience
options.  The plain ``dynamic`` leg also makes the cycle odd, so the
median call falls inside one policy's distribution instead of in the gap
between two of them.  Every result must be bit-identical to the first
one and within tolerance of a NumPy reference.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import numpy as np
from repro import hpl
from repro.hpl import (Cluster, DistributedArray, Float, Int, calibration,
                       cluster_eval, endfor_, float_, for_, get_devices,
                       idx, reset_runtime, sqrt, timeline_of)
from repro.ocl.faults import FaultPlan

from common import (Digest, EngineTally, Strict, TransferTally,
                    array_checksum, check_golden, counters_dict, median,
                    registry_count, span, work_dir)

NAME = "cluster-mix"
HOME = ("suite", "cluster")

N = 16384
ITERS = 32
CHECKPOINT_EVERY = 4
MAX_RETRIES = 6
FAULTS = ("device=Tesla kind=transient op=kernel prob=0.02; "
          "device=Quadro kind=slow factor=64; seed={seed}")
#: cycles per phase of the traced run (untraced, then traced)
TRACE_CYCLES = 8
#: least seconds between two probe breaks of a timed run
PROBE_GAP = 1.0


def make_kernel(iters: int, name: str = "mix_heavy"):
    def heavy(y, x, a, offset, count):
        acc = Float(0.0)
        j = Int()
        for_(j, 0, iters)
        acc.assign(acc + sqrt(x[idx] * x[idx] + a * acc + 1.0))
        endfor_()
        y[idx] = acc

    heavy.__name__ = name
    return heavy


def reference(xs: np.ndarray, a: float, iters: int) -> np.ndarray:
    acc = np.zeros_like(xs)
    for _ in range(iters):
        acc = acc + np.sqrt(xs * xs + np.float32(a) * acc + np.float32(1.0))
    return acc


def results_ok(out, baseline, expected) -> bool:
    """The cross-policy check: bit-identical to the first result of the
    run, and within float32 tolerance of the NumPy reference."""
    return bool(np.array_equal(out, baseline)
                and np.allclose(out, expected, rtol=1e-4, atol=1e-5))


class Mix:
    """A cluster, its distributed arrays and the policy cycle."""

    def __init__(self, data_seed: int, iters: int = ITERS, n: int = N,
                 name: str = "mix_heavy", ckpt: str | None = None) -> None:
        rng = np.random.default_rng(data_seed)
        self.xs = rng.random(n).astype(np.float32)
        self.a = round(0.25 + 0.5 * float(rng.random()), 3)
        self.kernel = make_kernel(iters, name)
        self.expected = reference(self.xs, self.a, iters)
        self.cluster = Cluster(get_devices())
        self.dx = DistributedArray(float_, n, self.cluster, data=self.xs)
        self.dy = DistributedArray(float_, n, self.cluster)
        self.baseline = None
        self.ckpt = ckpt
        self.policies = [("uniform", {"schedule": "uniform"}),
                         ("weighted", {"schedule": "weighted"}),
                         ("dynamic", {"schedule": "dynamic"}),
                         ("dynamic+watchdog",
                          {"schedule": "dynamic", "watchdog": True})]
        if ckpt is not None:
            self.policies.append(
                ("dynamic+checkpoint",
                 {"schedule": "dynamic", "checkpoint": ckpt,
                  "checkpoint_every": CHECKPOINT_EVERY}))

    def call(self, kwargs) -> tuple:
        """One ``cluster_eval`` plus ``gather``: (seconds, result, out)."""
        t0 = time.perf_counter()
        with span("bench.op"):
            with span("cluster.eval"):
                result = cluster_eval(self.kernel, self.cluster, self.dy,
                                      self.dx, Float(self.a),
                                      max_retries=MAX_RETRIES, **kwargs)
            with span("cluster.gather"):
                out = self.dy.gather()
        return time.perf_counter() - t0, result, out

    def checked_call(self, policy: str, kwargs, outcome, sink=None):
        try:
            seconds, result, out = self.call(kwargs)
        except Exception as exc:  # counted, reported, and the run goes on
            outcome.record(False, f"{policy}: {type(exc).__name__}: {exc}")
            return
        if self.check(outcome, policy, out) and sink is not None:
            sink(policy, seconds, result, out)

    def check(self, outcome, policy: str, out) -> bool:
        """Record one call as an operation: bit-identical to the first
        result of this mix, and within tolerance of the reference."""
        if self.baseline is None:
            self.baseline = out.copy()
        return outcome.record(results_ok(out, self.baseline, self.expected),
                              f"{policy}: result differs")

    def cycle(self, outcome, sink=None) -> None:
        for policy, kwargs in self.policies:
            self.checked_call(policy, kwargs, outcome, sink)


def digest_record(policy: str, result, out) -> dict:
    """Simulated results of one call: makespan, launches, recovery
    summary, summed kernel/transfer time and counters, output hash."""
    counters = [counters_dict(r.kernel_event.counters) for r in result]
    return {"policy": policy,
            "makespan": timeline_of(result).makespan_seconds,
            "launches": len(result),
            "failures": result.failures.as_dict(),
            "kernel_seconds": sum(r.kernel_seconds for r in result),
            "transfer_seconds": sum(r.transfer_seconds for r in result),
            "counters": counters, "output": array_checksum(out)}


class Workload:
    name = NAME
    home = HOME

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.digest = Digest()
        self.ckpt = os.path.join(work_dir(), f"ckpt-{os.getpid()}")

    def setup(self) -> None:
        self.mix = Mix(self.seed, ckpt=self.ckpt)
        self.plan = FaultPlan.parse(FAULTS.format(seed=self.seed))
        hpl.configure(faults=self.plan)
        # one unmeasured cycle builds the kernel on every device and
        # gives the weighted and dynamic schedulers their calibration
        self.mix.cycle(Strict())
        hpl.configure(faults=None)

    def _digest_sink(self, policy, seconds, result, out):
        if self.digest.items < len(self.mix.policies):
            self.digest.add(digest_record(policy, result, out))

    def run_timed(self, finished, timer, outcome, probes) -> None:
        def sink(policy, seconds, result, out):
            timer.add("cluster", seconds)
            self._digest_sink(policy, seconds, result, out)

        hpl.configure(faults=self.plan)
        try:
            while True:
                with timer.operation("suite"):
                    self.mix.cycle(outcome, sink)
                if finished():
                    break
                if probes.due(PROBE_GAP):
                    self._probe_break(probes)
        finally:
            hpl.configure(faults=None)

    def _probe_break(self, probes) -> None:
        """Probe evals on a runtime of their own, then a fresh cluster
        whose queue clocks they never touched (the fault plan and the
        schedulers' calibration carry over)."""
        hpl.configure(faults=None)
        reset_runtime()
        gc.collect()        # the dropped cluster is garbage; not timed
        probes.tick()
        reset_runtime()
        baseline = self.mix.baseline
        self.mix = Mix(self.seed, ckpt=self.ckpt)
        self.mix.baseline = baseline
        # the fresh runtime builds the kernel on every device, unmeasured
        self.mix.checked_call("uniform", {"schedule": "uniform"}, Strict())
        hpl.configure(faults=self.plan)

    def run_traced(self, outcome, phase) -> dict:
        base, traced = [], []
        hpl.configure(faults=self.plan)
        try:
            def base_sink(policy, seconds, result, out):
                base.append(seconds)
                self._digest_sink(policy, seconds, result, out)

            for _ in range(TRACE_CYCLES):
                self.mix.cycle(outcome, base_sink)
            tally = EngineTally()
            stats = {"cluster.chunks": 0, "cluster.retries": 0,
                     "cluster.requeued_items": 0, "wins": 0}

            def sink(policy, seconds, result, out):
                traced.append(seconds)
                for r in result:
                    tally.add(r.kernel_event.counters)
                stats["cluster.chunks"] += len(result)
                stats["cluster.retries"] += result.failures.retries
                stats["cluster.requeued_items"] += \
                    result.failures.requeued_items
                stats["wins"] += result.failures.speculative_wins

            with phase:
                transfers = TransferTally()
                spec0 = registry_count("cluster.speculative_launches")
                bytes0 = registry_count("cluster.checkpoint_bytes")
                for _ in range(TRACE_CYCLES):
                    self.mix.cycle(outcome, sink)
                launches = registry_count(
                    "cluster.speculative_launches") - spec0
                wins = stats.pop("wins")
                counts = {**stats, **tally.as_metrics(),
                          **transfers.as_metrics(),
                          "cluster.speculative_launches": launches,
                          "cluster.speculation_win_ratio":
                              wins / launches if launches else 0.0,
                          "cluster.checkpoint_bytes":
                              registry_count("cluster.checkpoint_bytes")
                              - bytes0}
        finally:
            hpl.configure(faults=None)
        return phase.result(ops=len(traced), counts=counts,
                            overhead=median(traced) / median(base) - 1.0)

    def run_digest(self, outcome) -> str:
        """Simulated results of the first measured cycle, which always
        follows the same history (set-up, then one warm-up cycle)."""
        return self.digest.hexdigest()

    def golden_digest(self, outcome) -> str:
        """Makespans and results of one fault-free cycle on the canonical
        data (independent of the seed), from a fresh runtime."""
        reset_runtime()
        calibration().reset()
        mix = Mix(0, ckpt=self.ckpt)
        digest = Digest()
        mix.cycle(outcome, lambda p, s, r, o: digest.add(
            digest_record(p, r, o)))
        return digest.hexdigest()

    def golden_check(self, outcome, golden) -> None:
        check_golden(outcome, golden, NAME, self.golden_digest(outcome))

    def close(self) -> None:
        hpl.configure(faults=None)
        shutil.rmtree(self.ckpt, ignore_errors=True)
