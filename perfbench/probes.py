"""Light probe streams for the operation classes a workload lacks.

Every end-to-end metric is reported on every workload.  A workload whose
own calls include no cold or warm ``eval`` (paper-suite, cluster-mix) or
no ``cluster_eval`` (paper-suite, kernel-zoo) measures that class on a
fixed probe: ``PROBE_KERNELS`` zoo kernels drawn from the run's seed,
each evaluated cold once and warm ``WARM_CALLS`` times, and
``PROBE_CLUSTER_CALLS`` small fault-free ``uniform`` cluster calls.  The
counts leave at least ten samples beyond every reported tail percentile.

The probe work is paced over the measured window, between the
workload's own operations, so its medians average over the same stretch
of time as the workload's.  cluster-mix takes its probe work in larger
breaks, each between two resets of the runtime: a probe ``eval``
advances the default device's queue clock, and the dynamic cluster
scheduler splits work by those clocks.
"""

from __future__ import annotations

import time

from repro import hpl

import cluster_mix
import kernel_zoo

PROBE_KERNELS = 32 * kernel_zoo.BLOCK
PROBE_CLUSTER_CALLS = 880
#: the probe cluster call: a short kernel on a small index space
PROBE_N, PROBE_ITERS = 3072, 8
UNIFORM = {"schedule": "uniform"}


def probe_mix(seed: int) -> cluster_mix.Mix:
    return cluster_mix.Mix(seed, iters=PROBE_ITERS, n=PROBE_N,
                           name="probe_heavy")


class ProbeStream:
    """The probe operations of one run, paced against its deadline."""

    def __init__(self, kinds, seed: int, timer, outcome, start: float,
                 seconds: float) -> None:
        self.seed, self.timer, self.outcome = seed, timer, outcome
        self.start, self.seconds = start, seconds
        self.kernels = kernel_zoo.generate(seed, PROBE_KERNELS) \
            if {"cold", "warm"} & set(kinds) else []
        self.cluster_calls = PROBE_CLUSTER_CALLS if "cluster" in kinds else 0
        self.kernels_done = self.calls_done = 0
        self._mix = self._runtime = None
        self._last = start

    def _share(self) -> float:
        return min(1.0, (time.perf_counter() - self.start) / self.seconds)

    def due(self, gap: float = 0.0) -> bool:
        """Whether probe work is due and ``gap`` seconds have passed
        since the last tick."""
        share = self._share()
        return time.perf_counter() - self._last >= gap and (
            self.kernels_done < share * len(self.kernels)
            or self.calls_done < share * self.cluster_calls)

    def tick(self) -> None:
        """Catch up with the share of probe work due by now (paused on
        the timer's clock)."""
        self._last = time.perf_counter()
        with self.timer.pause():
            self._run(self._share())

    def finish(self) -> None:
        self._run(1.0)

    def _run(self, share: float) -> None:
        # a runtime created inside a timed call would bill device
        # discovery to that call
        runtime = hpl.get_runtime()
        try:
            while self.kernels_done < share * len(self.kernels):
                kernel = self.kernels[self.kernels_done]
                kernel_zoo.run_kernel(kernel, self.seed, self.outcome,
                                      self._kernel_sink)
                kernel.allocated.clear()
                self.kernels_done += 1
        finally:
            hpl.configure(engine=None, opt_level=None)
        if self.calls_done < share * self.cluster_calls \
                and runtime is not self._runtime:
            # a fresh runtime (paper-suite resets it every pass) needs a
            # fresh cluster; its first call builds the kernel, unmeasured
            self._runtime, self._mix = runtime, probe_mix(self.seed)
            self._mix.checked_call("uniform", UNIFORM, self.outcome)
        while self.calls_done < share * self.cluster_calls:
            self._mix.checked_call("uniform", UNIFORM, self.outcome,
                                   self._cluster_sink)
            self.calls_done += 1

    def _kernel_sink(self, kernel, call, seconds, result, out) -> None:
        self.timer.add("warm" if call else "cold", seconds)

    def _cluster_sink(self, policy, seconds, result, out) -> None:
        self.timer.add("cluster", seconds)
