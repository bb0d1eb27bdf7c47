"""The repository benchmark: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload kernel-zoo --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``paper-suite`` — the Fig. 7 problem set, OpenCL then cold HPL;
* ``kernel-zoo`` — a seeded stream of distinct small kernels, each
  evaluated cold once and warm several times;
* ``cluster-mix`` — ``cluster_eval`` + ``gather`` cycling through the
  scheduling policies on a skewed three-device mix under faults.

Each is a closed loop with one caller in one process.  With ``--trace 0``
the run measures for ``--seconds`` with tracing off and prints every
end-to-end metric, operation times scaled to the reference speed
(``common.HostSpeed``); with ``--trace 1`` it does a fixed, seed-determined
amount of work twice, untraced then traced, and prints every per-layer
metric.  Every operation is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
records the host, configuration, sample counts, the times as measured
and simulated-output digests.  ``--update-golden`` rewrites ``golden.json`` from the current
program; ``selftest.py`` checks the benchmark's own checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import BenchError, Outcome, Strict, Timer  # noqa: E402

WORKLOADS = ("paper-suite", "kernel-zoo", "cluster-mix")
#: set-up is measured this many times per run, in fresh processes
SETUP_RUNS = 5
#: seed of the kernels that pay the lazy first-use costs before timing
WARM_SEED = 2 ** 31 - 1

#: end-to-end metric -> (operation class, percentile, scale, unit)
E2E = {
    "suite_s": ("suite", 50, 1.0, "s"),
    "cold_eval_ms_p50": ("cold", 50, 1e3, "ms"),
    "cold_eval_ms_p95": ("cold", 95, 1e3, "ms"),
    "warm_eval_us_p50": ("warm", 50, 1e6, "us"),
    "warm_eval_us_p99": ("warm", 99, 1e6, "us"),
    "cluster_eval_ms_p50": ("cluster", 50, 1e3, "ms"),
    "cluster_eval_ms_p95": ("cluster", 95, 1e3, "ms"),
}
E2E_KINDS = sorted({kind for kind, *_ in E2E.values()})
#: a tail percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10
#: operation class -> samples its highest reported percentile needs
MIN_SAMPLES = {}
for _kind, _q, *_rest in E2E.values():
    MIN_SAMPLES[_kind] = max(MIN_SAMPLES.get(_kind, 1), 1 if _q == 50
                             else math.ceil(MIN_TAIL_SAMPLES * 100
                                            / (100 - _q)))
del _kind, _q, _rest


def workload_class(name: str):
    import cluster_mix
    import kernel_zoo
    import paper_suite
    return {"paper-suite": paper_suite.Workload,
            "kernel-zoo": kernel_zoo.Workload,
            "cluster-mix": cluster_mix.Workload}[name]


def warm_up() -> None:
    """Pay lazy imports and first-use costs before anything is timed:
    one zoo kernel per template across every engine and opt level, and
    one small cluster call."""
    import kernel_zoo
    import probes
    from repro import hpl

    try:
        for kernel in kernel_zoo.generate(WARM_SEED, kernel_zoo.BATCH):
            kernel.engine, kernel.opt_level = kernel_zoo.COMBOS[
                kernel.serial % len(kernel_zoo.COMBOS)]
            kernel_zoo.run_kernel(kernel, WARM_SEED, Strict())
    finally:
        hpl.configure(engine=None, opt_level=None)
    probes.probe_mix(WARM_SEED).checked_call(
        "uniform", {"schedule": "uniform"}, Strict())


def set_up(name: str, seed: int):
    """Everything before the first timed operation: imports, device
    discovery, input generation and warm-up.  The persistent kernel
    cache stays off for the whole run."""
    common.import_program()
    from repro import hpl
    hpl.configure(cache_dir=None)
    hpl.get_devices()
    warm_up()
    workload = workload_class(name)(seed)
    workload.setup()
    return workload


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: from spawn until the child has
    finished ``set_up`` (it then exits without measuring anything).

    Set-up is mostly imports, whose time does not follow the reference
    work (:class:`common.HostSpeed`), so it is reported as measured."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              cwd=common.root_dir()) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up probe exited with code {code}")
        samples.append(elapsed)
    return samples


class TracedPhase:
    """Tracing on for one block; keeps its spans and compile count."""

    def __enter__(self):
        from repro import trace
        self.compiles0 = common.registry_count("clc.compiles")
        trace.enable(fresh=True)
        return self

    def __exit__(self, *exc) -> bool:
        from repro import trace
        self.spans = trace.get_tracer().spans()
        trace.disable()
        self.compiles = common.registry_count("clc.compiles") - self.compiles0
        return False

    def result(self, ops: int, counts: dict, overhead: float) -> dict:
        import layers
        counts = {**counts, "clc.compiles": self.compiles}
        return layers.per_layer(self.spans, ops, counts, overhead)


def end_to_end(timer: Timer, setup_samples, record: dict) -> dict:
    """Every end-to-end metric, operation times at the reference speed
    (set-up as measured); the record keeps the operation times as
    measured too."""
    metrics = {"setup_s": {"value": statistics.median(setup_samples),
                           "unit": "s"},
               "peak_rss_mb": {"value": common.peak_rss_mb(), "unit": "MB"}}
    record["samples"] = {"setup_s": len(setup_samples)}
    record["as_measured"] = {}
    for name, (kind, q, scale, unit) in E2E.items():
        if timer.count(kind) < MIN_SAMPLES[kind]:
            raise BenchError(f"{name} needs {MIN_SAMPLES[kind]} samples, "
                             f"got {timer.count(kind)}")
        metrics[name] = {
            "value": common.percentile(timer.scaled(kind), q) * scale,
            "unit": unit}
        record["samples"][name] = timer.count(kind)
        record["as_measured"][name] = \
            common.percentile(timer.raw(kind), q) * scale
    record["reference_ms"] = {
        "median": statistics.median(timer.speed.values) * 1e3,
        "timings": len(timer.speed.values),
        "at_reference_speed": common.REFERENCE_SECONDS * 1e3}
    return metrics


def run(args) -> dict:
    import layers
    import probes

    golden = common.load_golden()
    setup_samples = [] if args.trace else measure_setup(args)
    workload = set_up(args.workload, args.seed)
    outcome = Outcome()
    record = common.host_record(args.workload, args.seed, bool(args.trace))
    try:
        if args.trace:
            phase = TracedPhase()
            metrics = workload.run_traced(outcome, phase)
            path = os.path.join(common.work_dir(),
                                f"trace-{args.workload}-{args.seed}.jsonl")
            from repro import trace
            trace.write_jsonl(path, phase.spans)
            record["trace_file"] = os.path.relpath(path, common.root_dir())
            record["layers"] = {
                row: {"metrics": metrics_, "moves": moves, "on": on,
                      "bypassed_on": off}
                for row, (metrics_, moves, on, off) in layers.LAYERS.items()}
        else:
            timer = Timer()
            deadline = time.perf_counter() + args.seconds

            def finished() -> bool:
                # past the deadline, and every tail has its samples
                return time.perf_counter() >= deadline and all(
                    timer.count(kind) >= MIN_SAMPLES[kind]
                    for kind in workload.home)

            stream = probes.ProbeStream(
                set(E2E_KINDS) - set(workload.home), args.seed, timer,
                outcome, time.perf_counter(), args.seconds)
            timer.speed.measure()
            workload.run_timed(finished, timer, outcome, stream)
            stream.finish()
            timer.speed.measure()
            metrics = end_to_end(timer, setup_samples, record)
        workload.golden_check(outcome, golden)
        record["digest"] = workload.run_digest(outcome)
    finally:
        workload.close()
    record["failures"] = outcome.reasons
    print(json.dumps({"record": record}))
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def update_golden() -> None:
    """Rewrite golden.json from the current program (run after a change
    that deliberately moves simulated results)."""
    golden = {}
    for name in WORKLOADS:
        workload = set_up(name, 0)
        try:
            golden[name] = workload.golden_digest(Strict())
        finally:
            workload.close()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(golden, indent=2))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.update_golden:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.check_environment()
        common.import_program()
        if args.update_golden:
            update_golden()
            return 0
        if args.setup_probe:
            workload = set_up(args.workload, args.seed)
            print("ready", flush=True)
            workload.close()
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
