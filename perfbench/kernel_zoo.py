"""kernel-zoo: a seeded stream of distinct small HPL kernels.

Seven templates cover ``for_``/``while_`` loops, ``if_``/``else_``
divergence, ``Local`` arrays with ``barrier``, double precision with
math builtins, 2-D domains and indexed gathers.  Each kernel closes over
constants drawn from the seed plus one derived from its serial number,
so its generated source is unique and every kernel cache misses on its
first ``eval``.  The seed also draws each kernel's engine (``vector`` or
``jit``) and opt level (0 or 2).  Outputs are checked against a NumPy
reference of the template, never against another engine.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np
from repro import hpl
from repro.hpl import (LOCAL, Array, Float, Int, Local, barrier,
                       cast, double_, else_, endfor_, endif_, endwhile_,
                       exp, float_, for_, gidx, idx, idy, if_, int_, lidx,
                       sin, sqrt, while_)

from common import (Digest, EngineTally, TransferTally, array_checksum,
                    check_golden, counters_dict, median, span)

ENGINES = ("vector", "jit")
OPT_LEVELS = (0, 2)
COMBOS = tuple((e, o) for e in ENGINES for o in OPT_LEVELS)
#: warm evaluations after each cold one
WARM_CALLS = 5


@dataclass
class ZooKernel:
    """One generated kernel with everything needed to run and check it."""

    serial: int
    template: str
    engine: str
    opt_level: int
    func: object
    #: (argument name, HPL dtype, shape) for every Array argument; the
    #: first one is the output
    arrays: list
    #: name -> callable(rng) producing fresh host data for an input
    inputs: dict
    #: callable(inputs dict) -> expected output
    reference: object
    rtol: float = 1e-5
    atol: float = 1e-5
    global_size: tuple | None = None
    local_size: tuple | None = None
    #: scalar arguments appended after the arrays
    scalars: tuple = ()
    #: the output accumulates (``+=``), so it is zeroed before each call
    zero_output: bool = False
    allocated: dict = field(default_factory=dict)

    def args(self) -> list:
        if not self.allocated:
            for name, dtype, shape in self.arrays:
                self.allocated[name] = Array(dtype, *shape)
        return [self.allocated[n] for n, _d, _s in self.arrays] \
            + list(self.scalars)

    def evaluator(self):
        ev = hpl.eval(self.func)
        if self.global_size is not None:
            ev = ev.global_(*self.global_size)
        if self.local_size is not None:
            ev = ev.local_(*self.local_size)
        return ev

    @property
    def output(self):
        return self.allocated[self.arrays[0][0]]


def _const(rng, serial: int, lo: float, hi: float) -> float:
    # four random decimals plus an exact serial-dependent binary
    # fraction: distinct kernels never share a constant
    return round(lo + (hi - lo) * float(rng.random()), 4) \
        + serial * 2.0 ** -16


SIZES = (64, 128, 192, 256)


class Dealer:
    """Seeded, balanced choices for the kernels of one template slot:
    each option of a list comes up exactly once in every ``len(options)``
    consecutive turns of the slot, in an order the seed shuffles."""

    def __init__(self, seed: int, slot: int, turn: int) -> None:
        self.seed, self.slot, self.turn = seed, slot, turn

    def __call__(self, tag: str, options):
        deck = np.random.default_rng(
            (self.seed, self.slot, zlib.crc32(tag.encode()),
             self.turn // len(options))).permutation(len(options))
        return options[int(deck[self.turn % len(options)])]


def _floats(n, lo=-1.0, hi=1.0, dtype=np.float32):
    return lambda rng: rng.uniform(lo, hi, n).astype(dtype)


def t_for(rng, serial, deal):
    k = deal("k", tuple(range(3, 10)))
    c1, c2 = _const(rng, serial, 0.2, 0.9), _const(rng, serial, 0.5, 2.0)

    def zoo_for(y, x):
        acc = Float(0.0)
        j = Int()
        for_(j, 0, k)
        acc.assign(acc * c1 + x[idx] * c2)
        endfor_()
        y[idx] = acc

    def ref(inp):
        x = inp["x"]
        acc = np.zeros_like(x)
        for _ in range(k):
            acc = acc * np.float32(c1) + x * np.float32(c2)
        return acc

    n = deal("n", SIZES)
    return dict(func=zoo_for, arrays=[("y", float_, (n,)),
                                      ("x", float_, (n,))],
                inputs={"x": _floats(n)}, reference=ref)


def t_while(rng, serial, deal):
    limit = deal("limit", tuple(range(2, 9)))
    # distinct per kernel (serial below 4096) and drawn from the seed
    scale = int(rng.integers(1, 1000)) * 4096 + serial % 4096

    def zoo_while(y, x):
        v = Int(0)
        s = Int(0)
        v.assign(x[idx])
        while_(v > limit)
        v.assign(v / 2)
        s.assign(s + 1)
        endwhile_()
        y[idx] = s * scale + v

    def ref(inp):
        v = inp["x"].astype(np.int64)
        s = np.zeros_like(v)
        while (v > limit).any():
            more = v > limit
            v = np.where(more, v // 2, v)
            s = s + more
        return (s * scale + v).astype(np.int32)

    n = deal("n", SIZES)
    return dict(func=zoo_while, arrays=[("y", int_, (n,)), ("x", int_, (n,))],
                inputs={"x": lambda r: r.integers(0, 5000, n).astype(
                    np.int32)},
                reference=ref, rtol=0.0, atol=0.0)


def t_branch(rng, serial, deal):
    c1, c2 = _const(rng, serial, 1.0, 3.0), _const(rng, serial, -1.0, 1.0)
    threshold = round(float(rng.uniform(-0.5, 0.5)), 3)

    def zoo_branch(y, x, t):
        if_(x[idx] > t)
        y[idx] = x[idx] * c1
        else_()
        y[idx] = x[idx] + c2
        endif_()

    def ref(inp):
        x = inp["x"]
        return np.where(x > np.float32(threshold), x * np.float32(c1),
                        x + np.float32(c2)).astype(np.float32)

    n = deal("n", SIZES)
    return dict(func=zoo_branch, arrays=[("y", float_, (n,)),
                                         ("x", float_, (n,))],
                inputs={"x": _floats(n)}, reference=ref,
                scalars=(Float(threshold),))


def t_local(rng, serial, deal):
    group, groups = deal("local", ((16, 2), (16, 4), (32, 2), (32, 4),
                                    (64, 2), (64, 4)))
    c1 = _const(rng, serial, 0.5, 2.0)
    n = group * groups

    def zoo_local(out, x):
        i = Int()
        shared = Array(float_, group, mem=Local)
        shared[lidx] = x[idx] * c1
        barrier(LOCAL)
        if_(lidx == 0)
        for_(i, 0, group)
        out[gidx] += shared[i]
        endfor_()
        endif_()

    def ref(inp):
        x = (inp["x"] * np.float32(c1)).reshape(groups, group)
        acc = np.zeros(groups, dtype=np.float32)
        for i in range(group):
            acc = acc + x[:, i]
        return acc

    return dict(func=zoo_local, arrays=[("out", float_, (groups,)),
                                        ("x", float_, (n,))],
                inputs={"x": _floats(n)}, reference=ref,
                global_size=(n,), local_size=(group,), zero_output=True,
                rtol=1e-4, atol=1e-4)


def t_dmath(rng, serial, deal):
    c1, c2 = _const(rng, serial, 0.1, 1.0), _const(rng, serial, 0.5, 2.0)
    c3 = _const(rng, serial, 1.0, 4.0)

    def zoo_dmath(y, x):
        y[idx] = sqrt(x[idx] * x[idx] + c1) + exp(x[idx] * -c2) \
            + sin(x[idx] * c3)

    def ref(inp):
        x = inp["x"]
        return np.sqrt(x * x + c1) + np.exp(x * -c2) + np.sin(x * c3)

    n = deal("n", SIZES)
    return dict(func=zoo_dmath, arrays=[("y", double_, (n,)),
                                        ("x", double_, (n,))],
                inputs={"x": _floats(n, dtype=np.float64)}, reference=ref,
                rtol=1e-12, atol=1e-12)


def t_grid2d(rng, serial, deal):
    rows, cols = deal("grid", ((8, 8), (8, 16), (16, 8), (16, 16)))
    c1, c2 = _const(rng, serial, 0.5, 2.0), _const(rng, serial, 0.01, 0.1)

    def zoo_grid2d(out, a, d):
        out[idx, idy] = a[idx, idy] * c1 + cast(idx, float_) * c2 \
            - cast(idy, float_) * d

    def ref(inp):
        i = np.arange(rows, dtype=np.float32)[:, None]
        j = np.arange(cols, dtype=np.float32)[None, :]
        return (inp["a"] * np.float32(c1) + i * np.float32(c2)
                - j * np.float32(0.25)).astype(np.float32)

    return dict(func=zoo_grid2d, arrays=[("out", float_, (rows, cols)),
                                         ("a", float_, (rows, cols))],
                inputs={"a": lambda r: r.uniform(-1, 1, (rows, cols))
                        .astype(np.float32)},
                reference=ref, scalars=(Float(0.25),))


def t_gather(rng, serial, deal):
    c1, c2 = _const(rng, serial, 0.5, 2.0), _const(rng, serial, -1.0, 1.0)
    n = deal("n", SIZES)
    m = deal("m", (32, 64, 128))

    def zoo_gather(y, v, cols):
        y[idx] = v[cols[idx]] * c1 + c2

    def ref(inp):
        return (inp["v"][inp["cols"]] * np.float32(c1)
                + np.float32(c2)).astype(np.float32)

    return dict(func=zoo_gather, arrays=[("y", float_, (n,)),
                                         ("v", float_, (m,)),
                                         ("cols", int_, (n,))],
                inputs={"v": _floats(m),
                        "cols": lambda r: r.integers(0, m, n).astype(
                            np.int32)},
                reference=ref)


TEMPLATES = {"for": t_for, "while": t_while, "branch": t_branch,
             "local": t_local, "dmath": t_dmath, "grid2d": t_grid2d,
             "gather": t_gather}
_ORDER = tuple(TEMPLATES)
#: kernels holding every (template, engine, opt level) combination once
BLOCK = len(_ORDER) * len(COMBOS)


def make_kernel(seed: int, serial: int) -> ZooKernel:
    """Kernel ``serial`` of the zoo of ``seed``.  Templates cycle in a
    fixed order, so every batch of seven covers each of them once.  The
    seed draws each kernel's constants and deals its (engine, opt level)
    pair and sizes from shuffled decks (:class:`Dealer`), so every
    aligned run of ``BLOCK`` kernels holds each (template, engine, opt
    level) combination exactly once, and two seeds differ in order,
    constants and pairing, not in mix."""
    turn, slot = divmod(serial, len(_ORDER))
    deal = Dealer(seed, slot, turn)
    engine, opt_level = deal("combo", COMBOS)
    template = _ORDER[slot]
    fields = TEMPLATES[template](np.random.default_rng((seed, serial)),
                                serial, deal)
    return ZooKernel(serial=serial, template=template, engine=engine,
                     opt_level=opt_level, **fields)


def generate(seed: int, count: int, start: int = 0) -> list:
    return [make_kernel(seed, s) for s in range(start, start + count)]


def kernel_source(kernel: ZooKernel) -> str:
    """The OpenCL C source HPL generates for ``kernel`` (captured on a
    throwaway runtime lookup; compiles nothing)."""
    return hpl.get_runtime().get_captured(kernel.func, kernel.args()).source


# -- running and checking one kernel ----------------------------------------------------

def compiles() -> int:
    from repro import trace
    return int(trace.get_registry().counter("clc.compiles").value)


def set_inputs(kernel: ZooKernel, seed: int, call: int) -> dict:
    """Write fresh inputs for call ``call`` into the host arrays (the
    device copies go stale, so the eval pays its h2d copies)."""
    rng = np.random.default_rng((seed, kernel.serial, call, 1))
    data = {name: make(rng) for name, make in kernel.inputs.items()}
    kernel.args()
    for name, value in data.items():
        kernel.allocated[name].data[...] = value
    if kernel.zero_output:
        kernel.output.fill(0)
    return data


def output_ok(kernel: ZooKernel, out, expected) -> bool:
    out = np.asarray(out)
    return out.shape == np.shape(expected) and bool(np.allclose(
        out, expected, rtol=kernel.rtol, atol=kernel.atol))


def timed_eval(kernel: ZooKernel):
    """One ``eval`` plus the read of its output: (seconds, result, out)."""
    args = kernel.args()
    t0 = time.perf_counter()
    with span("hpl.eval"):
        result = kernel.evaluator()(*args)
    with span("hpl.read"):
        out = kernel.output.read()
    return time.perf_counter() - t0, result, out


def configure_for(kernel: ZooKernel) -> None:
    hpl.configure(engine=kernel.engine, opt_level=kernel.opt_level)


def check_call(outcome, kernel: ZooKernel, call: int, out, expected,
               built: int, hits: int, from_cache: bool) -> bool:
    """Record one call as an operation: its output must match the
    template's reference and its counts must be exact (the cold call
    compiles once and misses the kernel cache, a warm call compiles
    nothing and hits it)."""
    cold = call == 0
    counts_ok = (built, hits, from_cache) == \
        ((1, 0, False) if cold else (0, 1, True))
    return outcome.record(
        output_ok(kernel, out, expected) and counts_ok,
        f"zoo#{kernel.serial} ({kernel.template}, {kernel.engine}, "
        f"O{kernel.opt_level}) call {call}: compiles {built}, "
        f"cache hits {hits}")


def run_kernel(kernel: ZooKernel, seed: int, outcome, sink=None,
               before_cold=None) -> None:
    """One cold ``eval`` and ``WARM_CALLS`` warm ones, each checked by
    :func:`check_call`; ``sink(kernel, call, seconds, result, out)`` sees
    every call that passed."""
    configure_for(kernel)
    stats = hpl.get_runtime().stats
    for call in range(1 + WARM_CALLS):
        cold = call == 0
        data = set_inputs(kernel, seed, call)
        expected = kernel.reference(data)
        if cold and before_cold is not None:
            before_cold(kernel)
        compiles0, hits0 = compiles(), stats.cache_hits
        try:
            seconds, result, out = timed_eval(kernel)
        except Exception as exc:  # counted, reported, and the run goes on
            outcome.record(False, f"zoo#{kernel.serial} call {call}: "
                                  f"{type(exc).__name__}: {exc}")
            return
        ok = check_call(outcome, kernel, call, out, expected,
                        compiles() - compiles0, stats.cache_hits - hits0,
                        result.from_cache)
        if ok and sink is not None:
            sink(kernel, call, seconds, result, out)


def digest_record(kernel: ZooKernel, call: int, result, out) -> dict:
    """The simulated results of one call (no wall-clock field)."""
    return {"serial": kernel.serial, "call": call,
            "kernel_seconds": result.kernel_seconds,
            "transfer_seconds": result.transfer_seconds,
            "counters": counters_dict(result.kernel_event.counters),
            "output": array_checksum(out)}


# -- the workload ----------------------------------------------------------------

NAME = "kernel-zoo"
HOME = ("suite", "cold", "warm")
#: kernels per batch: one of each template
BATCH = len(_ORDER)
#: upper bound on kernels one timed run can reach
MAX_KERNELS = 3500
#: kernels between two runtime resets of a timed run
RESET_EVERY = 8 * BLOCK
#: kernels in each phase of the traced run (untraced, then traced)
TRACE_KERNELS = 3 * BLOCK
#: the seed of the canonical zoo behind the golden digest
GOLDEN_SEED = 0


def drive_compile_steps(kernel: ZooKernel, tally: dict) -> None:
    """Run the compile path of a cold kernel one public call at a time,
    each under its own span: capture, the clc front end, the pass
    pipeline, lowering and JIT codegen.  Mirrors what ``Program.build``
    does at the kernel's opt level; the ``eval`` that follows builds the
    kernel again, as always."""
    from repro import clc
    from repro.clc.lower import lower_program
    from repro.clc.passes import PIPELINE_VERSION, run_pipeline
    from repro.ocl.engines import jit

    rt = hpl.get_runtime()
    level = kernel.opt_level
    with span("bench.op"):
        with span("hpl.capture"):
            captured = rt.get_captured(kernel.func, kernel.args())
        source = captured.source
        with span("clc.preprocess"):
            text = clc.preprocess(source, "")
        with span("clc.lex"):
            tokens = clc.tokenize(text)
        with span("clc.parse"):
            unit = clc.parse(tokens)
        with span("clc.sema"):
            ir = clc.analyze(unit)
        ir.source = source
        tally["hpl.codegen.source_bytes"] += len(source)
        if level > 0:           # at O0 Program.build runs no passes
            changes = []
            with span("clc.passes"):
                run_pipeline(ir, level,
                             observer=lambda _n, _p, c: changes.append(c))
            with span("clc.lower"):
                bytecode = lower_program(ir, level, PIPELINE_VERSION)
            ir.opt_level, ir.bytecode = level, bytecode
            tally["clc.pass_changes"] += sum(changes)
            tally["clc.bytecode_instrs"] += sum(
                len(fn.instrs) for fn in bytecode.functions.values())
            if kernel.engine == "jit":
                with span("jit.codegen"):
                    jit.JitEngine.prebuild(ir, rt.default_device.ocl.spec)
                key = jit.source_cache_key(source, level, PIPELINE_VERSION)
                tally["jit.source_bytes"] += len(
                    jit._source_memo.get(key, ""))
                # the eval's own build must generate the module again
                jit.clear_cache()


def zoo_digest(seed: int, outcome) -> str:
    """Digest of the simulated results of the first ``BLOCK`` kernels of
    ``seed``, evaluated from a fresh runtime.  Event durations are cut
    from absolute queue clocks, so their last nanosecond depends on what
    ran before; a fresh runtime makes the history the same every time."""
    hpl.reset_runtime()
    digest = Digest()
    try:
        for kernel in generate(seed, BLOCK):
            run_kernel(kernel, seed, outcome,
                       lambda k, c, s, r, o: digest.add(
                           digest_record(k, c, r, o)))
    finally:
        hpl.configure(engine=None, opt_level=None)
    return digest.hexdigest()


class Workload:
    name = NAME
    home = HOME

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.kernels = generate(self.seed, MAX_KERNELS)

    def run_timed(self, finished, timer, outcome, probes) -> None:
        def sink(kernel, call, seconds, result, out):
            timer.add("cold" if call == 0 else "warm", seconds)

        try:
            for start in range(0, len(self.kernels), BATCH):
                with timer.operation("suite"):
                    for kernel in self.kernels[start:start + BATCH]:
                        run_kernel(kernel, self.seed, outcome, sink)
                        kernel.allocated.clear()
                probes.tick()
                if finished():
                    return
                if (start + BATCH) % RESET_EVERY == 0:
                    # the kernel caches grow with every distinct kernel;
                    # dropping them now and then keeps peak memory
                    # independent of how many kernels a run reaches
                    hpl.reset_runtime()
                    hpl.get_runtime()
        finally:
            hpl.configure(engine=None, opt_level=None)

    def run_traced(self, outcome, phase) -> dict:
        base, warm = [], []
        try:
            for kernel in self.kernels[:TRACE_KERNELS]:
                run_kernel(kernel, self.seed, outcome,
                           lambda k, c, s, r, o: c and base.append(s))
            hpl.reset_runtime()
            engine = EngineTally()
            tally = dict.fromkeys(("hpl.codegen.source_bytes",
                                   "clc.pass_changes", "clc.bytecode_instrs",
                                   "jit.source_bytes"), 0)

            def sink(kernel, call, seconds, result, out):
                if call:
                    warm.append(seconds)
                engine.add(result.kernel_event.counters)

            with phase:
                transfers = TransferTally()
                for kernel in generate(self.seed, TRACE_KERNELS):
                    run_kernel(kernel, self.seed, outcome, sink,
                               before_cold=lambda k: drive_compile_steps(
                                   k, tally))
                counts = {**tally, **engine.as_metrics(),
                          **transfers.as_metrics()}
        finally:
            hpl.configure(engine=None, opt_level=None)
        return phase.result(ops=TRACE_KERNELS, counts=counts,
                            overhead=median(warm) / median(base) - 1.0)

    def run_digest(self, outcome) -> str:
        """Simulated results of the seed's first block of kernels."""
        return zoo_digest(self.seed, outcome)

    def golden_digest(self, outcome) -> str:
        return zoo_digest(GOLDEN_SEED, outcome)

    def golden_check(self, outcome, golden) -> None:
        check_golden(outcome, golden, NAME, self.golden_digest(outcome))

    def close(self) -> None:
        hpl.configure(engine=None, opt_level=None)
