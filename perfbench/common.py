"""Shared plumbing of the benchmark: timing, percentiles, digests, spans.

Everything here measures from outside the program: the benchmark times
calls into public ``repro`` functions with ``time.perf_counter`` and, in
the traced run, wraps those calls in spans of its own (category
``bench``) recorded by the program's process-global tracer, next to the
spans the program already emits.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

#: environment variables that silently change the program being measured
GUARDED_ENV = ("HPL_CACHE_DIR", "HPL_ENGINE", "HPL_OPT_LEVEL",
               "HPL_FAULTS", "HPL_PROFILE")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad environment)."""


def root_dir() -> str:
    """The checkout root: the parent of this package's directory."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def work_dir() -> str:
    """Scratch space inside the checkout for traces, records and
    checkpoints (ignored by git)."""
    path = os.path.join(root_dir(), ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def check_environment() -> None:
    set_vars = [name for name in GUARDED_ENV if os.environ.get(name)]
    if set_vars:
        raise BenchError(
            "refusing to run with " + ", ".join(set_vars) + " set: each "
            "one changes the program being measured")


def import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``;
    raises :class:`BenchError` when the checkout holds no program."""
    src = os.path.join(root_dir(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchError(f"no program sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.hpl  # noqa: F401
    return sys.modules["repro"]


# -- measurement ----------------------------------------------------------------

#: pause between two timings of the reference work, in seconds
SPEED_INTERVAL = 0.05
#: reference timings within this many seconds of an operation set its speed
SPEED_WINDOW = 0.15
#: fewest reference timings behind one operation's speed
SPEED_POINTS = 3
#: the reference work's time on the reference host, in seconds
REFERENCE_SECONDS = 0.6e-3


def _reference_text() -> str:
    lines = [f"float v{i} = a[gid + {i}] * {i}.5f + b_{i % 7} * (x >> 2);"
             for i in range(64)]
    return "\n".join(lines)


_REFERENCE_TEXT = _reference_text()


def reference_work() -> int:
    """A fixed piece of pure-Python work shaped like the program's own
    (a hand-written lexer building small objects, then a dict over
    them), independent of the program's code."""
    text, n, i = _REFERENCE_TEXT, len(_REFERENCE_TEXT), 0
    tokens = []
    while i < n:
        c = text[i]
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j]))
            i = j
        elif c.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
        elif c.isspace():
            i += 1
        else:
            tokens.append(("op", c))
            i += 1
    return len({word: kind for kind, word in tokens})


class HostSpeed:
    """The host's speed over the run, from timings of
    :func:`reference_work` made between operations.

    The benchmark shares its host, whose speed drifts by tens of percent
    over seconds to minutes, and every part of the program slows with
    it.  Each operation's wall-clock time is therefore reported at the
    reference speed: multiplied by ``REFERENCE_SECONDS`` over the mean
    reference time within ``SPEED_WINDOW`` seconds of the operation (the
    mean, not the median: on a shared processor single timings split
    between a fast and a slow mode, and the median of a few of them
    jumps between the two).  A
    change to the program moves its operations and not the reference
    work, so it still shows in full."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []
        self._last = -math.inf

    def measure(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.values.append(t1 - t0)
        self._last = t1

    def maybe(self) -> None:
        """Time the reference work if ``SPEED_INTERVAL`` has passed."""
        if time.perf_counter() - self._last >= SPEED_INTERVAL:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """Factor to the reference speed for an operation over
        ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW)
        while hi - lo < SPEED_POINTS and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times):
                hi += 1
        if hi <= lo:
            raise ValueError("no reference timings")
        return REFERENCE_SECONDS / statistics.fmean(self.values[lo:hi])


class Timer:
    """Per-operation wall-clock samples, keyed by operation class, with
    the host's speed timed between them."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        #: key -> [(seconds, start, end)], ``start`` and ``end`` in
        #: ``time.perf_counter`` time
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self._paused = 0.0
        self._depth = 0

    def clock(self) -> float:
        """``time.perf_counter`` stopped inside :meth:`pause`."""
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def operation(self, key: str):
        """Time the block as one operation of class ``key`` on
        :meth:`clock`, leaving out the reference work and probe work
        run inside it."""
        start, c0 = time.perf_counter(), self.clock()
        yield
        self._record(key, self.clock() - c0, start)

    @contextlib.contextmanager
    def pause(self):
        """Work that is not part of the operation around it (reference
        work, probe operations)."""
        self._depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self._paused += time.perf_counter() - t0

    def between(self) -> None:
        """A point between operations where reference work may run."""
        with self.pause():
            self.speed.maybe()

    def add(self, key: str, seconds: float) -> None:
        """Record an operation that has just ended."""
        self._record(key, seconds, time.perf_counter() - seconds)

    def _record(self, key: str, seconds: float, start: float) -> None:
        self.samples.setdefault(key, []).append(
            (seconds, start, time.perf_counter()))
        self.between()

    def count(self, key: str) -> int:
        return len(self.samples.get(key, ()))

    def raw(self, key: str) -> list[float]:
        return [seconds for seconds, _, _ in self.samples.get(key, ())]

    def scaled(self, key: str) -> list[float]:
        """The samples of ``key`` at the reference speed."""
        return [seconds * self.speed.scale(start, end)
                for seconds, start, end in self.samples.get(key, ())]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- correctness -----------------------------------------------------------------

class Outcome:
    """Attempted/failed operation counts plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


class Strict(Outcome):
    """Outcome for unmeasured warm-up calls: any failure stops the run."""

    def record(self, ok: bool, what: str = "") -> bool:
        if not ok:
            raise BenchError(f"warm-up failed: {what}")
        return super().record(ok, what)


def counters_dict(counters) -> dict:
    """Every field of a ``CostCounters`` (or an empty dict for None)."""
    if counters is None:
        return {}
    return dataclasses.asdict(counters)


def array_checksum(value) -> str:
    """Exact content hash of an array-like result (dtype and shape
    included), or of a dict/tuple of them."""
    import numpy as np

    h = hashlib.sha256()
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            h.update(array_checksum(value[key]).encode())
    elif isinstance(value, (tuple, list)):
        for item in value:
            h.update(array_checksum(item).encode())
    else:
        arr = np.ascontiguousarray(np.asarray(value))
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class Digest:
    """Running sha256 over canonical JSON of simulated results.

    Floats go through ``repr`` (exact round trip), so any change to a
    simulated number, however small, changes the digest."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.items = 0

    def add(self, record) -> None:
        self._h.update(json.dumps(record, sort_keys=True,
                                  default=repr).encode())
        self._h.update(b"\n")
        self.items += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def check_golden(outcome, golden: dict, name: str, digest: str) -> None:
    """Record the simulated-output digest as one checked operation."""
    outcome.record(digest == golden.get(name),
                   f"{name} simulated-output digest {digest[:12]} differs "
                   f"from the golden {str(golden.get(name))[:12]}")


def load_golden() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- host and configuration record ----------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git;
    None when the checkout is not a repository."""
    git = os.path.join(root_dir(), ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_record(workload: str, seed: int, trace: bool) -> dict:
    import platform

    import numpy as np
    from repro.clc.passes import default_opt_level
    from repro.ocl.engines.base import default_engine

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "default_engine": default_engine(),
        "default_opt_level": default_opt_level(),
    }


# -- spans ----------------------------------------------------------------------

def span(name: str, **attrs):
    """A benchmark-side span around one call into a layer (a no-op
    unless the program's tracer is enabled)."""
    from repro import trace
    return trace.span(name, category="bench", **attrs)


def self_times(spans) -> dict:
    """span id -> self time in seconds: the span's wall-clock duration
    minus the part of it covered by its (wall-clock) child spans."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.clock == "wall" and sp.parent_id is not None:
            children.setdefault(sp.parent_id, []).append(
                (sp.start_us, sp.end_us))
    out = {}
    for sp in spans:
        if sp.clock != "wall":
            continue
        covered = 0.0
        cursor = sp.start_us
        for start, end in sorted(children.get(sp.span_id, ())):
            start, end = max(start, cursor), min(end, sp.end_us)
            if end > start:
                covered += end - start
                cursor = end
        out[sp.span_id] = max(0.0, sp.duration_us - covered) * 1e-6
    return out


def registry_count(name: str) -> float:
    """Current value of a counter in the program's process-global
    metrics registry."""
    from repro import trace
    return trace.get_registry().counter(name).value


class EngineTally:
    """Sums the engine's ``CostCounters`` over the launches it sees."""

    def __init__(self) -> None:
        self.alu_ops = self.fp64_ops = 0.0
        self.global_bytes = self.global_transactions = 0

    def add(self, counters) -> None:
        if counters is None:
            return
        self.alu_ops += counters.alu_ops
        self.fp64_ops += counters.fp64_ops
        self.global_bytes += counters.global_bytes
        self.global_transactions += counters.global_transactions

    def as_metrics(self) -> dict:
        return {"engine.alu_ops": self.alu_ops,
                "engine.fp64_ops": self.fp64_ops,
                "engine.global_bytes": self.global_bytes,
                "engine.global_transactions": self.global_transactions}


class TransferTally:
    """h2d/d2h copy counts between two points of a run."""

    def __init__(self) -> None:
        self.h2d0 = registry_count("simcl.h2d_transfers")
        self.d2h0 = registry_count("simcl.d2h_transfers")

    def as_metrics(self) -> dict:
        return {"hpl.h2d.count":
                registry_count("simcl.h2d_transfers") - self.h2d0,
                "hpl.d2h.count":
                registry_count("simcl.d2h_transfers") - self.d2h0}
