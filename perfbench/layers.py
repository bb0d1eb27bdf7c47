"""Per-layer metrics of the traced run: the layer table and attribution.

Each wall-clock span of the traced phase is charged to one layer: the
benchmark's own spans (category ``bench``) and the spans the program
already emits map to layers by name; any other span inherits the layer
of its parent, so the clc spans inside an OpenCL build count as build
time.  A layer's time is the sum of its spans' self times (duration
minus the part covered by child spans).  Operation spans
(``bench.op``) belong to no layer: their self time is the unattributed
time of the run.

Times are reported per workload operation (paper-suite: one pass;
kernel-zoo: one kernel, i.e. a cold eval and its warm evals; cluster-mix:
one ``cluster_eval`` plus ``gather``).  Counts are totals over the traced
phase, whose work is fixed by the seed, so they repeat exactly.
"""

from __future__ import annotations

from common import self_times

BENCHES = ("ep", "floyd", "transpose", "spmv", "reduction")

#: layer row -> (metrics, end-to-end metric it should move, workloads
#: that load it, workloads or calls that bypass it).  The same table is
#: printed in perfbench/README.md so that later performance work can
#: cite a row.
LAYERS = {
    "hpl.capture": (
        ["hpl.capture.ms", "hpl.codegen.source_bytes"],
        "cold_eval_ms_p50", "kernel-zoo", "warm calls, cluster-mix"),
    "clc front end": (
        ["clc.preprocess.ms", "clc.lex.ms", "clc.parse.ms", "clc.sema.ms",
         "clc.tokens"],
        "cold_eval_ms_p50", "kernel-zoo", "paper-suite (<5%)"),
    "clc.passes": (
        ["clc.passes.ms", "clc.pass_runs", "clc.pass_changes"],
        "cold_eval_ms_p50", "kernel-zoo, O2 kernels", "O0 kernels"),
    "clc.lower": (
        ["clc.lower.ms", "clc.bytecode_instrs"],
        "cold_eval_ms_p50", "kernel-zoo", "warm calls"),
    "ocl.engines.jit codegen": (
        ["jit.codegen.ms", "jit.source_bytes"],
        "cold_eval_ms_p95", "kernel-zoo, jit kernels", "vector kernels"),
    "ocl.program": (
        ["ocl.build.ms", "ocl.build.residual.ms"],
        "cold_eval_ms_p50", "kernel-zoo", "warm calls"),
    "hpl.runtime caches": (
        ["hpl.cache_hit_ratio", "clc.compiles"],
        "(check only)", "all", "-"),
    "hpl.evaluator + ocl.queue": (
        ["hpl.eval.self.us", "hpl.bind_args.us", "ocl.enqueue.us"],
        "warm_eval_us_p50", "kernel-zoo", "paper-suite"),
    "ocl.engines run": (
        ["engine.vector.run.ms", "engine.jit.run.ms", "engine.launches",
         "engine.work_items", "engine.alu_ops", "engine.fp64_ops",
         "engine.global_bytes", "engine.global_transactions"],
        "suite_s, and partly warm_eval_us_p50", "paper-suite, kernel-zoo",
        "cold compile"),
    "hpl.array transfers": (
        ["hpl.h2d.count", "hpl.d2h.count", "hpl.read.us"],
        "warm_eval_us_p50", "kernel-zoo", "-"),
    "hpl.cluster": (
        ["cluster.self.ms", "cluster.gather.ms", "cluster.chunks",
         "cluster.retries", "cluster.requeued_items",
         "cluster.speculative_launches", "cluster.speculation_win_ratio",
         "cluster.checkpoint.ms", "cluster.checkpoint_bytes"],
        "cluster_eval_ms_p50 / cluster_eval_ms_p95", "cluster-mix",
        "paper-suite, kernel-zoo"),
    "benchsuite datasets, verify and baseline": (
        ["suite.generate.ms"]
        + [f"suite.verify.{b}.ms" for b in BENCHES] + ["suite.serial.ms"]
        + [f"suite.{b}.{v}.ms" for b in BENCHES for v in ("opencl", "hpl")],
        "suite_s", "paper-suite", "kernel-zoo, cluster-mix"),
    "whole run": (
        ["unattributed.share", "trace.overhead.share"],
        "-", "each workload", "-"),
}

#: unit of every per-layer metric, in table order
UNITS = {}
for _metrics, *_rest in LAYERS.values():
    for _name in _metrics:
        UNITS[_name] = ("ms" if _name.endswith(".ms") else
                        "us" if _name.endswith(".us") else
                        "ratio" if _name.endswith(("_ratio", ".share"))
                        else "bytes" if _name.endswith("bytes")
                        else "count")
del _metrics, _rest, _name

#: span name -> layer time metric; benchmark spans use these names
#: directly, program spans are listed by their own names
_BY_NAME = {
    "hpl.capture": "hpl.capture.ms", "capture": "hpl.capture.ms",
    "clc.preprocess": "clc.preprocess.ms", "clc.lex": "clc.lex.ms",
    "clc.parse": "clc.parse.ms", "clc.sema": "clc.sema.ms",
    "clc.passes": "clc.passes.ms", "clc.lower": "clc.lower.ms",
    "jit.codegen": "jit.codegen.ms",
    "build": "ocl.build.ms",
    "hpl.eval": "hpl.eval.self.us", "eval": "hpl.eval.self.us",
    "bind_args": "hpl.bind_args.us",
    "launch": "ocl.enqueue.us", "enqueue_kernel": "ocl.enqueue.us",
    "hpl.read": "hpl.read.us",
    "cluster.eval": "cluster.self.ms", "cluster.gather": "cluster.gather.ms",
    "checkpoint_write": "cluster.checkpoint.ms",
    "checkpoint_load": "cluster.checkpoint.ms",
    "suite.generate": "suite.generate.ms", "suite.serial": "suite.serial.ms",
}
for _b in BENCHES:
    _BY_NAME[f"suite.verify.{_b}"] = f"suite.verify.{_b}.ms"
    for _v in ("opencl", "hpl"):
        _BY_NAME[f"suite.{_b}.{_v}"] = f"suite.{_b}.{_v}.ms"
del _b, _v

OP_SPAN = "bench.op"

#: the compile rows kernel-zoo drives one public call at a time
COMPILE_STEPS = ("clc.preprocess.ms", "clc.lex.ms", "clc.parse.ms",
                 "clc.sema.ms", "clc.passes.ms", "clc.lower.ms",
                 "jit.codegen.ms")


def _layer_of(sp) -> str | None:
    if sp.name == OP_SPAN:
        return None
    if sp.name == "engine_run":
        return f"engine.{sp.attrs.get('engine', 'vector')}.run.ms"
    metric = _BY_NAME.get(sp.name)
    if metric is None and sp.category == "cluster":
        return "cluster.self.ms"
    return metric


def attribute(spans) -> tuple[dict, float, float]:
    """(layer metric -> seconds, operation wall seconds, unattributed
    seconds) over the wall-clock spans of one traced phase."""
    wall = [sp for sp in spans if sp.clock == "wall" and sp.end_us is not None]
    by_id = {sp.span_id: sp for sp in wall}
    selfs = self_times(wall)
    memo: dict[int, str | None] = {}

    def layer(sp):
        if sp.span_id not in memo:
            found = _layer_of(sp)
            parent = by_id.get(sp.parent_id)
            if parent is not None and sp.name != OP_SPAN:
                inherited = layer(parent)
                # everything inside an OpenCL build is build time
                if inherited == "ocl.build.ms" or found is None:
                    found = inherited
            memo[sp.span_id] = found
        return memo[sp.span_id]

    totals: dict[str, float] = {}
    op_wall = unattributed = 0.0
    for sp in wall:
        name = layer(sp)
        if sp.name == OP_SPAN:
            op_wall += sp.duration_us * 1e-6
        if name is None:
            unattributed += selfs[sp.span_id]
        else:
            totals[name] = totals.get(name, 0.0) + selfs[sp.span_id]
    return totals, op_wall, unattributed


def engine_counts(spans) -> dict:
    runs = [sp for sp in spans if sp.name == "engine_run"]
    return {"engine.launches": len(runs),
            "engine.work_items": sum(int(sp.attrs.get("work_items", 0))
                                     for sp in runs)}


def compile_counts(spans) -> dict:
    """Tokens and pass executions of the program's own compiles (spans
    inside an OpenCL build), and the kernel-cache hit ratio of every
    ``eval`` in the phase."""
    builds = {sp.span_id for sp in spans if sp.name == "build"}
    by_id = {sp.span_id: sp for sp in spans}

    def in_build(sp):
        while sp.parent_id is not None:
            if sp.parent_id in builds:
                return True
            sp = by_id.get(sp.parent_id)
            if sp is None:
                return False
        return False

    tokens = sum(int(sp.attrs.get("tokens", 0)) for sp in spans
                 if sp.category == "clc" and sp.name == "parse")
    pass_runs = sum(1 for sp in spans if sp.name.startswith("pass:")
                    and in_build(sp))
    evals = [sp for sp in spans if sp.category == "hpl" and sp.name == "eval"]
    hits = sum(1 for sp in evals if sp.attrs.get("cache") == "hit")
    return {"clc.tokens": tokens, "clc.pass_runs": pass_runs,
            "hpl.cache_hit_ratio": hits / len(evals) if evals else 0.0}


def per_layer(spans, ops: int, counts: dict, overhead_share: float) -> dict:
    """Every per-layer metric (zero where the workload bypasses the
    layer): times per operation, counts as totals."""
    totals, op_wall, unattributed = attribute(spans)
    values = {name: 0.0 for name in UNITS}
    for name, seconds in totals.items():
        scale = 1e6 if name.endswith(".us") else 1e3
        values[name] = seconds * scale / max(ops, 1)
    # build time the separately driven compile steps do not explain
    values["ocl.build.residual.ms"] = values["ocl.build.ms"] - sum(
        values[name] for name in COMPILE_STEPS)
    values.update(engine_counts(spans))
    values.update(compile_counts(spans))
    values.update(counts)
    values["unattributed.share"] = unattributed / op_wall if op_wall else 0.0
    values["trace.overhead.share"] = overhead_share
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in UNITS}
