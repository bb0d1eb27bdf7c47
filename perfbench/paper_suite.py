"""paper-suite: the Fig. 7 problem set, as ``run_fig7`` runs it.

Each pass generates the five problems at the ``run_fig7`` sizes and, per
benchmark, runs the OpenCL variant, then the HPL variant after
``reset_runtime()`` (so HPL pays its cold first call, as in the paper),
checks both with the suite's own ``verify`` and computes the serial
baseline.  The inputs are fixed by the paper, so the seed is not used.
"""

from __future__ import annotations

import time

from repro.benchsuite import ep, floyd, reduction, spmv, transpose
from repro.hpl import reset_runtime

from common import (Digest, EngineTally, Outcome, TransferTally,
                    array_checksum, check_golden, counters_dict, load_golden,
                    median, span)

NAME = "paper-suite"
#: operation classes the main stream supplies (see run.py)
HOME = ("suite",)
DEVICE = "Tesla"

#: (key, benchsuite module, problem factory) at the run_fig7 sizes
BENCHES = (
    ("ep", ep, lambda: ep.ep_problem("C")),
    ("floyd", floyd,
     lambda: floyd.floyd_problem(floyd.PAPER_NODES, n_run=128)),
    ("transpose", transpose,
     lambda: transpose.transpose_problem(transpose.PAPER_SIZE, n_run=512)),
    ("spmv", spmv, lambda: spmv.spmv_problem(spmv.PAPER_SIZE, n_run=1024)),
    ("reduction", reduction,
     lambda: reduction.reduction_problem(reduction.PAPER_N, n_run=1 << 18)),
)


def digest_record(key: str, run, serial: float | None = None) -> dict:
    """Simulated results of one variant run.  ``build_seconds`` and
    ``hpl_overhead_seconds`` are wall-clock measurements and stay out."""
    record = {"benchmark": key, "variant": run.variant,
              "device": run.device, "kernel_seconds": run.kernel_seconds,
              "transfer_seconds": run.transfer_seconds,
              "counters": counters_dict(run.counters),
              "output": array_checksum(run.output)}
    if serial is not None:
        record["serial_seconds"] = serial
    return record


def one_pass(outcome: Outcome, tally: EngineTally | None = None,
             between=lambda: None) -> tuple:
    """One verified pass: (wall seconds, digest of simulated results);
    ``between`` runs after each benchmark."""
    digest = Digest()
    t0 = time.perf_counter()
    with span("bench.op"):
        for key, module, make in BENCHES:
            with span("suite.generate"):
                problem = make()
            with span(f"suite.{key}.opencl"):
                run_ocl = module.run_opencl(problem, DEVICE)
            reset_runtime()
            with span(f"suite.{key}.hpl"):
                run_hpl = module.run_hpl(problem, DEVICE)
            with span(f"suite.verify.{key}"):
                ok_ocl = module.verify(run_ocl, problem)
                ok_hpl = module.verify(run_hpl, problem)
            with span("suite.serial"):
                serial = module.serial_seconds(run_ocl)
            outcome.record(ok_ocl, f"{key} OpenCL variant failed verify")
            outcome.record(ok_hpl, f"{key} HPL variant failed verify")
            digest.add(digest_record(key, run_ocl, serial))
            digest.add(digest_record(key, run_hpl))
            if tally is not None:
                tally.add(run_ocl.counters)
                tally.add(run_hpl.counters)
            between()
    return time.perf_counter() - t0, digest.hexdigest()


class Workload:
    name = NAME
    home = HOME

    def __init__(self, seed: int) -> None:
        self.seed = seed        # unused: the paper fixes the inputs
        self.digests: list[str] = []

    def setup(self) -> None:
        self.golden = load_golden()

    def check_digest(self, outcome: Outcome, digest: str) -> None:
        self.digests.append(digest)
        check_golden(outcome, self.golden, NAME, digest)

    def run_timed(self, finished, timer, outcome, probes) -> None:
        def between():
            # the OpenCL variants use contexts of their own, and every
            # HPL variant starts from a fresh runtime, so probe work
            # between benchmarks leaves the simulated results alone
            timer.between()
            probes.tick()

        while True:
            with timer.operation("suite"):
                digest = one_pass(outcome, between=between)[1]
            self.check_digest(outcome, digest)
            if finished():
                return

    def run_traced(self, outcome, phase) -> dict:
        base = [one_pass(outcome)[0] for _ in range(TRACE_PASSES)]
        tally = EngineTally()
        seconds = []
        with phase:
            transfers = TransferTally()
            for _ in range(TRACE_PASSES):
                s, digest = one_pass(outcome, tally)
                seconds.append(s)
                self.check_digest(outcome, digest)
            counts = {**tally.as_metrics(), **transfers.as_metrics()}
        return phase.result(ops=TRACE_PASSES, counts=counts,
                            overhead=median(seconds) / median(base) - 1.0)

    def run_digest(self, outcome) -> str | None:
        """Every pass starts from a fresh runtime, so any pass will do."""
        return self.digests[0] if self.digests else None

    def golden_digest(self, outcome) -> str:
        return one_pass(outcome)[1]

    def golden_check(self, outcome, golden) -> None:
        """Nothing more to run: every pass is checked against the
        golden digest as it completes."""

    def close(self) -> None:
        pass


#: passes per phase of the traced run (untraced, then traced)
TRACE_PASSES = 2
