"""Shared benchmark infrastructure: run records and time extrapolation.

Problem-size scaling
--------------------
The paper's problem sizes (16K x 16K matrices, 2^32 random pairs) are
impractical to *functionally* execute in a Python-based simulator, so
each benchmark runs a scaled-down instance and **extrapolates** the
simulated device time: the dynamic :class:`CostCounters` measured on the
scaled run are multiplied by the known work ratio before being fed to
the cost model.  This is exact for these five kernels because their
operation mix is size-independent (work grows linearly in every counter)
— the property is asserted by tests that compare two scales.

Wall-clock HPL overhead (capture + code generation + build) is *not*
scaled: it genuinely does not depend on the problem size, which is the
mechanism behind Figure 6's shrinking relative overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import ocl
from ..ocl import CostCounters, DeviceSpec, kernel_time


@dataclass
class Problem:
    """A generated workload instance."""

    name: str
    params: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    #: factor by which device work was scaled down relative to the paper
    scale: float = 1.0


@dataclass
class BenchRun:
    """The outcome of running one benchmark variant on one device."""

    benchmark: str
    variant: str              # 'opencl' | 'hpl'
    device: str
    output: object            # result data for verification
    #: simulated kernel time, extrapolated to the paper's problem size
    kernel_seconds: float
    #: simulated host<->device transfer time (paper-size bytes)
    transfer_seconds: float = 0.0
    #: wall-clock overhead unique to HPL (capture/codegen); 0 for OpenCL
    hpl_overhead_seconds: float = 0.0
    #: wall-clock OpenCL program build time (paid by both variants)
    build_seconds: float = 0.0
    counters: CostCounters | None = None
    params: dict = field(default_factory=dict)

    def total_seconds(self, include_transfers: bool = False,
                      include_build: bool = False) -> float:
        """Kernel time plus the overheads the paper's measurement counts.

        Figures 6-8 count 'the generation of the backend code (in the
        case of HPL) and the compilation and execution of the kernel, but
        not the transfers'; the with-transfer variant of Figure 8 adds
        them.
        """
        total = self.kernel_seconds + self.hpl_overhead_seconds
        if include_build:
            total += self.build_seconds
        if include_transfers:
            total += self.transfer_seconds
        return total


def opencl_setup(device_name: str, source: str, kernel_name: str,
                 label: str, needs_fp64: bool = False) -> tuple:
    """The set-up every OpenCL host program repeats: take the first
    platform's first device whose name contains ``device_name``, create
    a context and a profiling queue, build ``source`` (timed; a failed
    build raises with its build log, like real host code) and create
    ``kernel_name``.  ``label`` names the benchmark in errors.

    Returns ``(device, context, queue, kernel, build_seconds)``.
    """
    platforms = ocl.get_platforms()
    if not platforms:
        raise RuntimeError("no OpenCL platforms found")
    devices = [d for d in platforms[0].get_devices()
               if device_name.lower() in d.name.lower()]
    if not devices:
        raise RuntimeError(f"no device matching {device_name!r}")
    device = devices[0]
    if needs_fp64 and not device.supports_fp64:
        raise RuntimeError(f"{device.name} lacks cl_khr_fp64; {label} "
                           "needs double precision")
    context = ocl.Context([device])
    queue = ocl.CommandQueue(context, device, profiling=True)
    t0 = time.perf_counter()
    program = ocl.Program(context, source)
    try:
        program.build()
    except Exception as exc:
        raise RuntimeError(f"{label} kernel build failed:\n"
                           f"{program.build_log}") from exc
    build_seconds = time.perf_counter() - t0
    return (device, context, queue, program.create_kernel(kernel_name),
            build_seconds)


def extrapolated_seconds(counters: CostCounters, spec: DeviceSpec,
                         work_factor: float,
                         launches: int = 1) -> float:
    """Paper-size simulated time from scaled-run counters.

    ``work_factor`` scales every extensive counter; ``launches`` is the
    number of paper-size kernel launches the counters represent (so the
    per-launch overhead is charged the right number of times).
    """
    if launches <= 0:
        raise ValueError("launches must be positive")
    per_launch = counters.scaled(work_factor / launches)
    return kernel_time(per_launch, spec).total * launches


def serial_time_from_counters(counters: CostCounters, work_factor: float,
                              spec: DeviceSpec | None = None,
                              store_line_penalty: float = 1.0) -> float:
    """Serial-CPU baseline time derived from measured kernel counters.

    The serial C++ implementations perform the same algorithmic work as
    the kernels, so the baseline reuses the dynamically measured op and
    byte counts, re-timed with the one-core CPU model.  GPU-specific work
    (local-memory staging, barriers) is stripped.  For benchmarks whose
    natural serial loop strides across cache lines (matrix transpose's
    column writes), ``store_line_penalty`` scales store traffic by the
    line/element ratio.
    """
    from ..ocl import XEON_SERIAL

    spec = XEON_SERIAL if spec is None else spec
    c = counters.scaled(work_factor)
    c.local_accesses = 0
    c.barriers = 0
    c.global_store_bytes = int(c.global_store_bytes * store_line_penalty)
    return kernel_time(c, spec).total


def verify_close(actual, expected, rtol: float = 1e-4,
                 atol: float = 1e-6) -> bool:
    """Tolerant elementwise comparison used by the runner's self-checks."""
    return bool(np.allclose(np.asarray(actual), np.asarray(expected),
                            rtol=rtol, atol=atol))
