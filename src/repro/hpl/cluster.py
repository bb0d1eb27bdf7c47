"""Multi-device / distributed-memory execution (§VII future work).

The paper closes by planning "to extend the high-productivity features
of HPL to handle distributed memory parallelism by running HPL on a
cluster of SMP nodes in which each node can contain multiple
heterogeneous computing devices".  This module implements that layer on
top of the simulated platform:

* a :class:`Cluster` is an ordered set of devices (possibly spanning the
  simulated "nodes" — every SimCL device has its own memory, so device
  boundaries already model node boundaries for data-movement purposes);
* :class:`DistributedArray` block-partitions a 1-D HPL Array across the
  cluster along its first dimension;
* :func:`cluster_eval` runs an elementwise-style kernel on every
  partition concurrently (owner-computes), giving each device its slice
  of every distributed argument plus the partition offset;
* a pluggable :class:`Scheduler` decides *how much* of the index space
  each device computes.  On a heterogeneous mix a uniform block split
  pins the makespan to the slowest device; the
  :class:`WeightedScheduler` sizes blocks from per-device throughput
  (device specs, refined by measured history — a self-calibrating
  feedback loop), and the :class:`DynamicScheduler` cuts the index
  space into guided chunks handed to devices as their event graphs
  drain, EngineCL-HGuided style.  See ``docs/cluster.md``.

Communication is staged through host memory (the "interconnect"), with
per-transfer costs accounted by each device's PCIe model — exactly how a
one-host multi-GPU OpenCL program moves data.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import trace
from ..errors import (ClusterExecutionError, DeadlineExceeded,
                      DeviceNotAvailable, DomainError, HPLError,
                      OutOfResources)
from ..ocl.faults import active_plan
from .array import Array
from .checkpoint import CheckpointStore
from .dtypes import HPLType
from .evaluator import eval as hpl_eval
from .runtime import HPLDevice, get_runtime
from .scalars import Int


def _block_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """Contiguous near-even split of ``n`` elements into ``k`` blocks.

    With ``n < k`` the first ``n`` blocks get one element each and the
    rest are empty — callers skip empty partitions instead of failing.
    """
    if n < 0:
        raise DomainError(f"cannot partition {n} element(s)")
    if n < k:
        return [(min(i, n), min(i + 1, n)) for i in range(k)]
    base, extra = divmod(n, k)
    bounds = []
    start = 0
    for rank in range(k):
        size = base + (1 if rank < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class Cluster:
    """An ordered group of HPL devices acting as one execution target."""

    def __init__(self, devices=None) -> None:
        if devices is None:
            devices = [d for d in get_runtime().devices if not d.is_cpu]
            if not devices:
                devices = list(get_runtime().devices)
        devices = list(devices)
        if not devices:
            raise HPLError("a Cluster needs at least one device")
        for d in devices:
            if not isinstance(d, HPLDevice):
                raise HPLError(f"{d!r} is not an HPL device")
        self.devices = devices
        #: devices removed from the rotation by :meth:`quarantine`
        self.lost: list = []

    def __len__(self) -> int:
        return len(self.devices)

    def __repr__(self) -> str:
        lost = f", {len(self.lost)} lost" if self.lost else ""
        return f"<Cluster of {len(self.devices)} device(s){lost}>"

    def quarantine(self, device: HPLDevice) -> None:
        """Remove a permanently failed device from the rotation.

        Called by :func:`cluster_eval`'s recovery path; subsequent
        plans see only the survivors.  Quarantining the last device
        raises :class:`ClusterExecutionError` — there is nobody left
        to compute."""
        if device not in self.devices:
            return
        if len(self.devices) == 1:
            raise ClusterExecutionError(
                f"device {device.label!r} failed permanently and no "
                "other device remains in the cluster")
        self.devices.remove(device)
        self.lost.append(device)

    def readmit(self, device: HPLDevice) -> None:
        """Return a quarantined device to the rotation.

        Called by :func:`cluster_eval`'s probation path after a health
        probe succeeds; no-op when the device was never quarantined.
        The device rejoins at the end of the roster (its old rank may
        have been reassigned while it was out)."""
        if device not in self.lost:
            return
        self.lost.remove(device)
        self.devices.append(device)

    def partition_bounds(self, n: int) -> list[tuple[int, int]]:
        """Contiguous block partition of ``n`` elements over the devices.

        When ``n`` is smaller than the cluster, the first ``n`` devices
        get one element each and the remaining partitions are empty
        (``lo == hi``); :func:`cluster_eval` skips empty partitions.
        """
        return _block_bounds(n, len(self.devices))


# -- scheduling -----------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """One contiguous block of the index space, owned by one device.

    ``rank`` is the owning device's position in the cluster.
    """

    lo: int
    hi: int
    rank: int | None = None

    @property
    def size(self) -> int:
        return self.hi - self.lo


def device_throughput(spec) -> float:
    """Spec-derived relative throughput estimate of one device.

    A pure compute proxy (``compute_units x clock x ipc``): exact for
    compute-bound kernels, pessimistic about memory-bound ones — which
    is why the weighted scheduler prefers *measured* per-kernel
    throughput once :class:`CalibrationStore` has seen the kernel run.
    """
    return spec.compute_units * spec.clock_ghz * spec.ipc


class CalibrationStore:
    """Measured per-(kernel, device) throughput history.

    Every :func:`cluster_eval` records, for each launch it made, the
    observed ``items / simulated second`` of that kernel on that device
    (an exponential moving average, so the estimate tracks the current
    problem regime).  The :class:`WeightedScheduler` consults this
    store before falling back to spec-derived estimates — closing the
    profiler -> cost-model -> scheduler feedback loop.

    Entries are keyed by device *identity* — the ``name#index`` label —
    never by bare model name: two same-model devices run at the same
    nominal speed but may see very different regimes (one behind a slow
    link, one quarantined and restored, one straggling under a fault
    plan), and merging their EMAs would corrupt both estimates.
    """

    #: EMA smoothing: weight of the newest observation
    ALPHA = 0.5

    def __init__(self) -> None:
        self._tput: dict = {}       # (kernel_name, device_label) -> it/s
        self._samples: dict = {}    # same key -> observation count

    @staticmethod
    def _label_of(device) -> str:
        """Accept an :class:`HPLDevice` or its ``name#index`` label."""
        return device if isinstance(device, str) else device.label

    def record(self, kernel_name: str, device,
               items: int, seconds: float) -> None:
        if items <= 0 or seconds <= 0.0:
            return
        key = (kernel_name, self._label_of(device))
        observed = items / seconds
        prev = self._tput.get(key)
        self._tput[key] = observed if prev is None \
            else self.ALPHA * observed + (1.0 - self.ALPHA) * prev
        self._samples[key] = self._samples.get(key, 0) + 1

    def throughput(self, kernel_name: str, device):
        """Measured items/second, or ``None`` if never observed.

        ``device`` is an :class:`HPLDevice` or its unique label
        (``name#index``)."""
        return self._tput.get((kernel_name, self._label_of(device)))

    def samples(self, kernel_name: str, device) -> int:
        return self._samples.get(
            (kernel_name, self._label_of(device)), 0)

    def decay(self, kernel_name: str, device, factor: float) -> None:
        """Scale the measured throughput down by ``factor``.

        Used when a quarantined device is readmitted on probation: its
        history predates the failure, so the estimate is discounted and
        the device must re-earn its weight through fresh observations
        (the EMA recovers in a few samples if it really is healthy)."""
        key = (kernel_name, self._label_of(device))
        if key in self._tput:
            self._tput[key] *= factor

    def reset(self) -> None:
        self._tput.clear()
        self._samples.clear()


#: process-wide store; survives ``reset_runtime()`` on purpose — device
#: labels are stable across runtime resets (the roster keeps its
#: order), so measured speeds carry over
_CALIBRATION = CalibrationStore()


def calibration() -> CalibrationStore:
    """The process-wide scheduler calibration store."""
    return _CALIBRATION


class Scheduler:
    """Partitioning policy interface used by ``cluster_eval(schedule=)``.

    Static schedulers implement :meth:`plan`, returning one
    :class:`Partition` per device (possibly empty).  Dynamic schedulers
    (``dynamic = True``) implement :meth:`next_chunk` instead:
    :func:`cluster_eval` asks for one chunk at a time, on behalf of the
    device whose event graph drains first.
    """

    name = "?"
    dynamic = False

    def plan(self, n: int, cluster: Cluster,
             kernel_name: str | None = None) -> list[Partition]:
        raise NotImplementedError

    def next_chunk(self, remaining: int, n_devices: int,
                   weight_share: float, min_chunk: int = 1) -> int:
        """Size of the next chunk handed to a requesting device.

        ``weight_share`` is the requesting device's fraction of the
        cluster's total throughput weight.  Only dynamic schedulers
        implement this.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class UniformScheduler(Scheduler):
    """Near-even block partition — one block per device, sizes within
    one element of each other.  The right choice for homogeneous
    clusters; on skewed mixes the makespan is pinned to the slowest
    device."""

    name = "uniform"

    def plan(self, n, cluster, kernel_name=None):
        return [Partition(lo, hi, rank)
                for rank, (lo, hi)
                in enumerate(_block_bounds(n, len(cluster.devices)))]


class _ThroughputScheduler(Scheduler):
    """Shared base of the schedulers that size work by device
    throughput (:class:`WeightedScheduler`, :class:`DynamicScheduler`).
    """

    def __init__(self, weights=None, calibrate: bool = True) -> None:
        if weights is not None:
            weights = [float(w) for w in weights]
            if any(w < 0 for w in weights):
                raise HPLError("scheduler weights must be >= 0")
            if sum(weights) <= 0:
                raise HPLError("scheduler weights must sum to > 0")
        #: explicit per-device weights (None: calibrated, else spec)
        self.weights = weights
        self.calibrate = calibrate

    def weights_for(self, cluster: Cluster,
                    kernel_name: str | None = None
                    ) -> tuple[list[float], str]:
        """Per-device throughput weights and their source
        (``explicit`` | ``calibrated`` | ``spec``).

        Explicit weights win; else measured per-kernel throughputs from
        the :class:`CalibrationStore` (only when *all* device models of
        the cluster have history for this kernel, so measured and
        estimated numbers never mix); else :func:`device_throughput` of
        the specs.
        """
        if self.weights is not None:
            if len(self.weights) != len(cluster.devices):
                raise HPLError(
                    f"{len(self.weights)} weight(s) for a "
                    f"{len(cluster.devices)}-device cluster")
            return list(self.weights), "explicit"
        if self.calibrate and kernel_name is not None:
            measured = [_CALIBRATION.throughput(kernel_name, d.label)
                        for d in cluster.devices]
            if all(t is not None for t in measured):
                return list(measured), "calibrated"
        return [device_throughput(d.ocl.spec)
                for d in cluster.devices], "spec"


class WeightedScheduler(_ThroughputScheduler):
    """Static weighted partition: each device's block is proportional to
    its throughput.

    Weights come from, in order of preference: the explicit ``weights``
    argument; the :class:`CalibrationStore` (measured items/second of
    this kernel on every device model of the cluster — used only when
    *all* devices have history, so measured and estimated numbers never
    mix); else :func:`device_throughput` of each device's spec.
    """

    name = "weighted"

    def plan(self, n, cluster, kernel_name=None):
        weights, _source = self.weights_for(cluster, kernel_name)
        total = sum(weights)
        quotas = [n * w / total for w in weights]
        sizes = [int(q) for q in quotas]
        shortfall = n - sum(sizes)
        # largest-remainder rounding, fastest devices first on ties
        order = sorted(range(len(sizes)),
                       key=lambda i: (quotas[i] - sizes[i], weights[i]),
                       reverse=True)
        for i in order[:shortfall]:
            sizes[i] += 1
        partitions = []
        start = 0
        for rank, size in enumerate(sizes):
            partitions.append(Partition(start, start + size, rank))
            start += size
        return partitions


class DynamicScheduler(_ThroughputScheduler):
    """Dynamic chunk scheduler (EngineCL's "HGuided" policy).

    The index space is cut into contiguous chunks *on demand*: whenever
    a device's event graph drains, it is handed the next chunk, sized
    ``remaining x weight_share / factor`` — the device's throughput
    share of the remaining work, damped by ``factor`` so the tail
    shrinks geometrically and keeps the finish times tight.  Fast
    devices therefore pull big chunks early and often; slow devices
    nibble ``min_chunk``-sized pieces they are guaranteed to finish
    quickly.  Unlike the static :class:`WeightedScheduler` this needs no
    accurate model up front — mis-estimates only cost a chunk, not the
    whole partition — at the price of one launch (and its transfers)
    per chunk.

    ``chunk_size`` switches to fixed-size self-scheduling (every chunk
    the same size regardless of device); ``min_chunk`` floors the
    guided sizes (default ``n / (16 x devices)``).
    """

    name = "dynamic"
    dynamic = True

    def __init__(self, chunk_size: int | None = None, factor: int = 2,
                 min_chunk: int | None = None, weights=None,
                 calibrate: bool = True) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise HPLError(f"chunk_size must be >= 1, got {chunk_size}")
        if factor < 1:
            raise HPLError(f"factor must be >= 1, got {factor}")
        if min_chunk is not None and min_chunk < 1:
            raise HPLError(f"min_chunk must be >= 1, got {min_chunk}")
        super().__init__(weights, calibrate)
        self.chunk_size = chunk_size
        self.factor = factor
        self.min_chunk = min_chunk

    def min_chunk_for(self, n: int, n_devices: int) -> int:
        if self.min_chunk is not None:
            return self.min_chunk
        return max(1, n // (16 * n_devices))

    def next_chunk(self, remaining, n_devices, weight_share,
                   min_chunk=1):
        if self.chunk_size is not None:
            return min(int(self.chunk_size), remaining)
        size = int(remaining * weight_share / self.factor)
        size = max(size, min_chunk)
        return min(size, remaining)

    def plan(self, n, cluster, kernel_name=None):
        raise HPLError(
            "DynamicScheduler cuts chunks on demand during cluster_eval; "
            "it has no static plan")


#: schedule-name -> scheduler class, for ``cluster_eval(schedule="...")``
SCHEDULERS = {
    "uniform": UniformScheduler,
    "weighted": WeightedScheduler,
    "dynamic": DynamicScheduler,
}


def get_scheduler(spec) -> Scheduler | None:
    """Resolve a ``schedule=`` argument: None, a policy name, or a
    :class:`Scheduler` instance."""
    if spec is None or isinstance(spec, Scheduler):
        return spec
    if isinstance(spec, str):
        try:
            return SCHEDULERS[spec]()
        except KeyError:
            raise HPLError(
                f"unknown schedule {spec!r}; available: "
                + ", ".join(sorted(SCHEDULERS))) from None
    raise HPLError(f"schedule must be None, a name or a Scheduler, "
                   f"got {spec!r}")


# -- distributed data -----------------------------------------------------------


class DistributedArray:
    """A 1-D array block-partitioned across a :class:`Cluster`.

    The full contents live in one host buffer; each partition is an
    ordinary HPL :class:`Array` *viewing* its slice (so repartitioning
    never copies host memory), owned by one device.  :meth:`gather`
    assembles the full contents on the host, overlapping the per-device
    d2h transfers on the simulated timeline.  Empty partitions are
    represented as ``None`` and skipped everywhere.
    """

    def __init__(self, dtype: HPLType, n: int, cluster: Cluster,
                 data: np.ndarray | None = None,
                 bounds=None) -> None:
        self.dtype = dtype
        self.n = int(n)
        if self.n < 1:
            raise HPLError("a DistributedArray needs at least 1 element")
        self.cluster = cluster
        self._full = np.zeros(self.n, dtype=dtype.np_dtype)
        if data is not None:
            data = np.asarray(data, dtype=dtype.np_dtype)
            if data.size != self.n:
                raise HPLError(
                    f"provided {data.size} element(s) for a "
                    f"{self.n}-element DistributedArray")
            self._full[:] = data.reshape(self.n)
        bounds = cluster.partition_bounds(self.n) if bounds is None \
            else [(int(lo), int(hi)) for lo, hi in bounds]
        self._check_bounds(bounds)
        self.bounds = bounds
        self.parts = self._make_parts(bounds)
        #: d2h events of the most recent :meth:`gather`, for timelines
        self.last_gather_events: list = []

    def _check_bounds(self, bounds) -> None:
        if not bounds or bounds[0][0] != 0 or bounds[-1][1] != self.n:
            raise HPLError(f"partition bounds {bounds} do not cover "
                           f"[0, {self.n})")
        for (alo, ahi), (blo, bhi) in zip(bounds, bounds[1:]):
            if ahi != blo or alo > ahi or blo > bhi:
                raise HPLError(
                    f"partition bounds {bounds} are not a contiguous "
                    "non-overlapping cover")

    def _make_parts(self, bounds) -> list:
        return [Array(self.dtype, hi - lo, data=self._full[lo:hi])
                if hi > lo else None
                for lo, hi in bounds]

    @property
    def size(self) -> int:
        return self.n

    def repartition(self, bounds) -> "DistributedArray":
        """Re-slice the array along new partition bounds.

        Device-resident partitions are first synchronised back to the
        host (their d2h copies overlap across devices); the new parts
        start host-valid, so the next launch pays the h2d copies of the
        new layout — the real cost of re-balancing data.
        """
        bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        if bounds == self.bounds:
            return self
        self._check_bounds(bounds)
        self._sync_parts()
        self.bounds = bounds
        self.parts = self._make_parts(bounds)
        return self

    def _sync_parts(self) -> list:
        """Refresh the host copy of every partition.

        All stale partitions' d2h copies are *enqueued* before any is
        waited on, so transfers from different devices overlap on the
        simulated timeline instead of serializing with the host loop.
        Returns the transfer events (one per partition that needed one).
        """
        events = []
        for part in self.parts:
            if part is None:
                continue
            event = part.enqueue_host_sync()
            if event is not None:
                events.append(event)
        for event in events:
            event.wait()
        return events

    def gather(self) -> np.ndarray:
        """Assemble the full array on the host (device->host transfers).

        The per-device transfers overlap on the simulated timeline;
        their events are kept in :attr:`last_gather_events` so
        :func:`timeline_of` can measure the overlap.  Empty (``None``)
        partitions — common after a :meth:`repartition` with more
        blocks than elements — are skipped, and the event list holds
        only real transfer events (one per partition that needed a
        copy), never placeholder holes.
        """
        self.last_gather_events = self._sync_parts()
        return self._full.copy()

    def scatter(self, data: np.ndarray) -> None:
        """Replace the contents from a host array.

        Writes go through the *full* host buffer — the single source of
        truth every partition views — never through a partition's
        ``data`` accessor: the old contents are about to be overwritten
        wholesale, so pulling them back from the devices first (which
        ``part.data`` does) would be pure waste, and any stale
        pre-``repartition`` view someone kept alive must not receive
        the new contents.  Device copies are invalidated so the next
        launch re-uploads the new data.
        """
        data = np.asarray(data, dtype=self.dtype.np_dtype)
        if data.size != self.n:
            raise HPLError(
                f"scatter of {data.size} element(s) into a "
                f"{self.n}-element DistributedArray")
        self._full[:] = data.reshape(self.n)
        for part in self.parts:
            if part is not None:
                part._host_valid = True
                part.host_event = None
                part._invalidate_devices()

    def __repr__(self) -> str:
        return (f"<DistributedArray {self.dtype}[{self.n}] over "
                f"{len(self.cluster)} device(s), "
                f"{sum(p is not None for p in self.parts)} partition(s)>")


# -- evaluation -----------------------------------------------------------------


def _parts_at(dist_args, index: int) -> dict:
    """``id(DistributedArray) -> partition`` for block ``index``."""
    return {id(a): a.parts[index] for a in dist_args}


def _local_args(args, parts: dict, lo: int, hi: int) -> list:
    """One block's argument list: partitions swapped in, offset/count
    appended."""
    return [parts[id(a)] if isinstance(a, DistributedArray) else a
            for a in args] + [Int(lo), Int(hi - lo)]


def _check_broadcast_writes(kernel, args, local_args) -> None:
    """Reject kernels that write a broadcast plain :class:`Array`.

    Each rank writing its own copy would invalidate the other ranks'
    copies mid-loop, making the final contents depend on rank order —
    an error, not a race the user should debug.  Called once per
    chunk with that chunk's *actual* local arguments, so the capture
    inspected is the capture that will run (capture keys depend on
    argument signatures and closure values, which this must not assume
    are partition-invariant).
    """
    captured = get_runtime().get_captured(kernel, local_args)
    for (name, _proxy), arg in zip(captured.params, args):
        if isinstance(arg, Array) and captured.info.writes(name):
            raise HPLError(
                f"kernel {captured.kernel_name!r} writes its broadcast "
                f"Array argument {name!r}; every device would invalidate "
                "the other devices' copies, leaving the result dependent "
                "on execution order.  Partition it as a DistributedArray "
                "(or make the kernel read-only on it) instead")


def _mark(name: str, **attrs) -> None:
    """An instant ``cluster`` span: a recovery decision, not a duration."""
    with trace.span(name, category="cluster", **attrs):
        pass


# -- failure recovery -----------------------------------------------------------


@dataclass
class FailureSummary:
    """What recovery had to do during one :func:`cluster_eval`.

    Attached to the returned :class:`ClusterResult` as ``.failures``;
    all-zero (``clean``) on a healthy run.
    """

    #: individual command/launch failures classified as transient
    transient_failures: int = 0
    #: retry attempts made (each adds a capped-exponential backoff)
    retries: int = 0
    #: labels of devices quarantined mid-run, in quarantine order
    devices_lost: list = field(default_factory=list)
    #: index-space items whose blocks had to be re-run elsewhere
    requeued_items: int = 0
    #: total simulated backoff delay injected into device clocks
    backoff_seconds: float = 0.0
    #: straggler chunks won by a speculative duplicate (the original
    #: launch was cancelled without running)
    speculative_wins: int = 0
    #: the run hit ``cluster_eval(deadline=)`` and was aborted
    deadline_missed: bool = False
    #: blocks restored from a checkpoint instead of recomputed
    resumed_blocks: int = 0
    #: labels of quarantined devices readmitted after a health probe
    readmitted: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no fault touched the run."""
        return not (self.transient_failures or self.devices_lost
                    or self.requeued_items or self.speculative_wins
                    or self.deadline_missed or self.resumed_blocks)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (benchsuite ``--json`` metadata)."""
        return {**asdict(self), "clean": self.clean}


class ClusterResult(list):
    """The per-partition :class:`EvalResult` list of one
    :func:`cluster_eval`, with the recovery record on ``.failures``.

    A plain ``list`` subclass: existing call sites that index, iterate
    or ``+=`` the result keep working unchanged.
    """

    def __init__(self, results, failures: FailureSummary) -> None:
        super().__init__(results)
        self.failures = failures


#: the FailureSummary of the most recent cluster_eval in this process,
#: recorded even when the run aborted (deadline, all devices lost)
_LAST_SUMMARY: FailureSummary | None = None


def last_failure_summary() -> FailureSummary | None:
    """The :class:`FailureSummary` of the most recent
    :func:`cluster_eval` (``None`` before the first one).  Recorded
    even for aborted runs, so tooling — e.g. the benchsuite's
    ``--json`` metadata — can report what recovery had to do."""
    return _LAST_SUMMARY


#: backoff doubles per attempt, capped at base * 2**_BACKOFF_CAP
_BACKOFF_CAP = 3


def _jitter(key: tuple) -> float:
    """Deterministic uniform draw in [0, 1) for a retry site.

    Derived by hashing the fault-plan seed (0 when no plan is active)
    with the caller's key, so identical runs reproduce identical
    delays bit-for-bit while distinct retry sites decorrelate."""
    plan = active_plan()
    seed = plan.seed if plan is not None else 0
    token = hashlib.sha256(repr((seed,) + tuple(key)).encode()).digest()
    return int.from_bytes(token[:8], "big") / 2.0 ** 64


def _backoff_delay(base: float, attempt: int, key: tuple = ()) -> float:
    """Capped exponential backoff for retry ``attempt`` (0-based).

    With a ``key`` (device label, block bounds, attempt) the delay gets
    deterministic *full jitter* — scaled by a seeded uniform draw in
    (0, 1] — so simultaneous transient failures on multiple devices
    retry staggered instead of in lockstep, while runs stay
    bit-reproducible.  Without a key the delay is the bare cap."""
    delay = base * (2 ** min(attempt, _BACKOFF_CAP))
    if not key:
        return delay
    return delay * (1.0 - _jitter(key))


def _failure_kind(error) -> str:
    """Classify a launch/command failure for the recovery policy.

    ``permanent`` (device gone — quarantine, no retry), ``transient``
    (resource hiccup — retry with backoff), or ``fatal`` (a genuine
    bug such as a kernel trap: re-raise, recovery would only mask it).
    """
    if isinstance(error, DeviceNotAvailable):
        return "permanent"
    if isinstance(error, OutOfResources):
        return "transient"
    return "fatal"


# -- resilience: watchdog, probation, deadline, checkpoint ----------------------


class _Watchdog:
    """Per-chunk expected-duration model driving speculative re-execution.

    Built from the :class:`CalibrationStore` at run start: for every
    device it snapshots the measured items/second of this kernel.  A
    chunk is speculated when (a) its assigned device's calibrated
    throughput trails the best healthy device's by more than ``factor``
    and (b) some other device is predicted to *complete* the chunk —
    queue drain included — more than ``factor`` times sooner.  The
    second condition is what keeps a merely-slower device in a healthy
    heterogeneous cluster un-speculated: its chunks are already sized
    down by the scheduler, so rerouting them wins little, whereas a
    genuine straggler's minimum-size chunk still takes orders of
    magnitude longer than any peer would need.  First predicted
    completion wins — decided on the model the way a real watchdog
    decides on wall-clock observations.  Devices without calibration
    history are never flagged (no expectation, no watchdog).
    """

    def __init__(self, kernel_name: str, devices, factor: float) -> None:
        self.factor = float(factor)
        self.tput = [_CALIBRATION.throughput(kernel_name, d.label)
                     for d in devices]

    def track(self, kernel_name: str, device) -> None:
        """Register a device readmitted mid-run (appended rank)."""
        self.tput.append(_CALIBRATION.throughput(kernel_name,
                                                 device.label))

    def pick(self, rank: int, size: int, active, avail_ns: int,
             devices, others) -> int | None:
        """Rank to speculatively duplicate a straggling chunk onto.

        None when the chunk is within budget on its assigned device,
        when no expectation exists, or when no healthy candidate is
        predicted to finish before the assigned device would.
        ``others`` holds the (rank, size) of the rest of a plan's wave:
        launched with this chunk but not yet on any queue clock, their
        predicted durations count as queued work on their devices.
        """
        mine = self.tput[rank] if rank < len(self.tput) else None
        if not mine:
            return None
        best = max((self.tput[r] for r in active
                    if r < len(self.tput) and self.tput[r]), default=None)
        if not best or mine * self.factor > best:
            return None             # within budget of the best device
        queued: dict = {}
        for r, items in others:
            if r < len(self.tput) and self.tput[r]:
                queued[r] = queued.get(r, 0) + items / self.tput[r] * 1e9
        predicted_end = avail_ns + queued.get(rank, 0) + size / mine * 1e9
        best_rank, best_end = None, predicted_end
        for r in active:
            if r == rank or r >= len(self.tput) or not self.tput[r]:
                continue
            start = max(int(devices[r].queue.clock * 1e9), avail_ns) \
                + queued.get(r, 0)
            end = start + size / self.tput[r] * 1e9
            if end < best_end:
                best_rank, best_end = r, end
        if best_rank is None:
            return None
        # the reroute must win by the same margin: time-to-completion
        # measured from now, queue drain included
        if (best_end - avail_ns) * self.factor > predicted_end - avail_ns:
            return None
        return best_rank


def _merge_ranges(ranges) -> list:
    """Sorted union of (lo, hi) ranges, adjacent/overlapping merged."""
    merged: list = []
    for lo, hi in sorted((int(lo), int(hi)) for lo, hi in ranges):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _gaps(merged, n: int) -> list:
    """The (lo, hi) ranges of [0, n) *not* covered by ``merged``."""
    gaps = []
    cursor = 0
    for lo, hi in merged:
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < n:
        gaps.append((cursor, n))
    return gaps


def _reclaim_part(part, dead) -> bool:
    """Roll a partition stranded on dead devices back to the host.

    A part is *stranded* when its only valid copies sit on quarantined
    devices: the data cannot be fetched, but the part's host slice
    still holds the pre-launch contents, so the owning block can simply
    be recomputed.  Returns True when the part was stranded (callers
    must requeue its block).
    """
    if part is None or part._host_valid:
        return False
    holders = [d for d, ok in part._device_valid.items() if ok]
    if not holders or not all(d in dead for d in holders):
        return False
    part._host_valid = True     # stale data; the block will re-run
    for d in holders:
        part._device_valid[d] = False
    part._device_event.clear()
    part.host_event = None
    return True


# -- the runner -----------------------------------------------------------------


@dataclass(eq=False)
class _Chunk:
    """One contiguous block of the index space, launched on one device."""

    lo: int
    hi: int
    device: HPLDevice
    #: the device's stable rank in the run (see :class:`_Runner`)
    rank: int
    #: ``id(DistributedArray) -> partition`` for this block
    parts: dict
    #: guided chunks: the simulated time (ns) their device became free
    ready_ns: int | None = None
    #: the rank the watchdog moved this chunk away from
    origin: int | None = None
    result: object = None
    error: Exception | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.lo, self.hi)


class _PlanSource:
    """Fixed blocks with device affinity, launched a wave at a time.

    The blocks come from ``Scheduler.plan`` or the arrays' current
    bounds; blocks restored from a checkpoint are skipped.  A lost
    block is split over the surviving devices, and every
    DistributedArray is repartitioned to the new layout.
    """

    def __init__(self, run: "_Runner", partitions) -> None:
        self.run = run
        #: (lo, hi, device) of the blocks the next wave launches
        self.pending = [(p.lo, p.hi, run.devices[p.rank])
                        for p in partitions if p.size > 0 and not any(
                            lo <= p.lo and p.hi <= hi
                            for lo, hi in run.resumed)]

    def has_work(self) -> bool:
        return bool(self.pending)

    def next_batch(self, retries) -> list:
        """The next wave: the retries, then every new or split block,
        each with its partitions looked up in the current layout."""
        run = self.run
        batch = retries + [_Chunk(lo, hi, dev, run.devices.index(dev), {})
                           for lo, hi, dev in self.pending]
        self.pending = []
        for chunk in batch:
            chunk.parts = _parts_at(
                run.dist_args, run.dist_args[0].bounds.index(chunk.key))
        return batch

    def requeue(self, failed, stranded) -> None:
        """Split every lost block over the survivors and re-slice."""
        run = self.run
        lost = {c.key for c in failed + stranded}
        survivors = list(run.cluster.devices)
        bounds = []
        for lo, hi in run.dist_args[0].bounds:
            if (lo, hi) not in lost:
                bounds.append((lo, hi))
                continue
            subs = [(lo + slo, lo + shi) for slo, shi
                    in _block_bounds(hi - lo, len(survivors)) if shi > slo]
            bounds += subs
            self.pending += [(slo, shi, survivors[i % len(survivors)])
                             for i, (slo, shi) in enumerate(subs)]
        run.repartition(bounds)

    def finish(self) -> None:
        pass                    # the arrays already hold the layout


class _GuidedSource:
    """HGuided chunks cut on demand, EngineCL style.

    The device whose event graph drains first on the simulated timeline
    — the top of the runner's ready-heap of device clocks — gets the
    next chunk, sized by ``Scheduler.next_chunk`` from its throughput
    share of the remaining work, so a slow device never grabs a large
    early chunk.
    A lost chunk is requeued whole and served before new index space is
    cut.  Checkpoint-restored ranges are ready-made blocks that never
    run.  The DistributedArray arguments end up partitioned along the
    chunk bounds.
    """

    def __init__(self, run: "_Runner", scheduler) -> None:
        self.run = run
        self.scheduler = scheduler
        n = run.dist_args[0].n
        self.weights, self.weight_source = scheduler.weights_for(
            run.cluster, run.kernel_name)
        if sum(self.weights) <= 0:
            raise HPLError("scheduler weights must sum to > 0")
        self.min_chunk = scheduler.min_chunk_for(n, len(run.devices))
        for a in run.dist_args:
            a._sync_parts()     # the chunk views must read current data
        self.requeued: deque = deque()      # lost blocks, served first
        self.segments = deque([lo, hi]
                              for lo, hi in _gaps(run.resumed, n))
        self.remaining = sum(hi - lo for lo, hi in self.segments)

    def _block(self, lo: int, hi: int) -> tuple:
        return lo, hi, {id(a): Array(a.dtype, hi - lo, data=a._full[lo:hi])
                        for a in self.run.dist_args}

    def has_work(self) -> bool:
        return bool(self.remaining or self.requeued)

    def next_batch(self, retries) -> list:
        """A retry goes straight back to its device; otherwise the first
        device to drain gets a requeued block or a freshly cut one."""
        if retries:
            return retries
        run, active = self.run, self.run.active
        while True:
            if not run.ready:
                raise ClusterExecutionError(
                    "no device left to serve the remaining work")
            ready_ns, rank = heapq.heappop(run.ready)
            if rank in active:
                break
        for device in run.devices[len(self.weights):]:  # readmitted
            self.weights.append(device_throughput(device.ocl.spec))
        if self.requeued:
            lo, hi, parts = self.requeued.popleft()
        else:
            seg = self.segments[0]
            share = self.weights[rank] / sum(self.weights[r] for r in active)
            size = min(self.scheduler.next_chunk(
                self.remaining, len(active), share, self.min_chunk),
                seg[1] - seg[0])
            lo, hi, parts = self._block(seg[0], seg[0] + size)
            seg[0] += size
            if seg[0] >= seg[1]:
                self.segments.popleft()
            self.remaining -= size
        return [_Chunk(lo, hi, run.devices[rank], rank, parts, ready_ns)]

    def requeue(self, failed, stranded) -> None:
        for chunk in failed:    # a speculated chunk's origin is free
            if chunk.origin is not None and chunk.origin in self.run.active:
                heapq.heappush(self.run.ready, (chunk.ready_ns,
                                                chunk.origin))
        self.requeued.extend((c.lo, c.hi, c.parts)
                             for c in failed + stranded)

    def finish(self) -> None:
        """Install the layout of the completed and restored blocks, in
        index order."""
        blocks = sorted([self._block(lo, hi) for lo, hi in self.run.resumed]
                        + [(c.lo, c.hi, c.parts)
                           for c in self.run.done.values()],
                        key=lambda b: b[:2])
        for a in self.run.dist_args:
            a.bounds = [(lo, hi) for lo, hi, _parts in blocks]
            a.parts = [parts[id(a)] for _lo, _hi, parts in blocks]


class _Runner:
    """The one cluster runner: validated options, run state, and the
    loop that drives a chunk source to completion.

    Written once here, whatever the source: failure classification,
    same-device retry with jittered backoff, quarantine with a
    last-chance probe, stranded-block reclaim, probe rounds, watchdog
    speculation, the deadline, the checkpoint cadence and the
    completion bookkeeping.  Each round launches a batch — a plan's
    whole wave, or one guided chunk — and drives all of it before
    classifying anything, so one failure never keeps its siblings'
    overlapping work from running.  Ranks index :attr:`devices`, a
    snapshot that stays stable across quarantine; readmitted devices
    are appended.
    """

    def __init__(self, kernel, cluster, args, dist_args, *, deferred,
                 max_retries, backoff, watchdog, deadline, checkpoint,
                 checkpoint_every, resume, probation, probe_interval,
                 probation_decay) -> None:
        # every option takes effect or raises; none is silently
        # clamped or dropped
        factor = None
        if watchdog is not None and watchdog is not False:
            factor = 4.0 if watchdog is True else float(watchdog)
        for bad, message in (
                (max_retries < 0,
                 f"max_retries must be >= 0, got {max_retries}"),
                (backoff < 0, f"backoff must be >= 0, got {backoff}"),
                (deadline is not None and not deadline > 0,
                 f"deadline must be > 0 simulated seconds, got {deadline}"),
                (checkpoint_every < 1,
                 f"checkpoint_every must be >= 1, got {checkpoint_every}"),
                (resume and checkpoint is None,
                 "resume=True needs checkpoint=<directory> to resume from"),
                (probe_interval < 1,
                 f"probe_interval must be >= 1, got {probe_interval}"),
                (not 0 < probation_decay <= 1,
                 f"probation_decay must be in (0, 1], got "
                 f"{probation_decay}"),
                (factor is not None and factor < 1,
                 f"watchdog slow-factor must be >= 1, got {watchdog}"),
                (factor is not None and not deferred,
                 "watchdog= needs deferred=True: speculation cancels the "
                 "straggler's queued event graph, which an eager queue "
                 "has already run")):
            if bad:
                raise HPLError(message)
        self.kernel, self.cluster = kernel, cluster
        self.args, self.dist_args = args, dist_args
        self.kernel_name = getattr(kernel, "__name__", repr(kernel))
        #: the run's deferred flag, applied to readmitted devices too
        self.deferred = deferred
        self.max_retries, self.backoff = int(max_retries), float(backoff)
        self.deadline, self.resume = deadline, resume
        #: snapshot after this many newly completed blocks
        self.every = int(checkpoint_every)
        self.probation = bool(probation)
        self.probe_interval = int(probe_interval)
        self.decay = float(probation_decay)
        self.watchdog = None if factor is None \
            else _Watchdog(self.kernel_name, cluster.devices, factor)
        self.store = None if checkpoint is None \
            else CheckpointStore(checkpoint)
        self.run_id = None
        #: absolute cutoff on the simulated timeline (ns), or None
        self.deadline_ns = None
        #: merged (lo, hi) ranges restored from a checkpoint
        self.resumed: list = []
        self.summary = FailureSummary()
        self.devices = list(cluster.devices)
        self.active = set(range(len(self.devices)))
        #: (lo, hi) -> completed chunk
        self.done: dict = {}

    # -- set-up ---------------------------------------------------------------

    def start(self) -> None:
        """Restore a checkpoint and fix the deadline, once the layout
        the run starts from is in place."""
        if self.store is not None:
            self.run_id = self._run_id()
        if self.resume:
            with trace.span("checkpoint_load", category="cluster",
                            kernel=self.kernel_name) as sp:
                loaded = self.store.load(self.run_id)
                if loaded is not None:
                    snaps, completed = loaded
                    self.resumed = _merge_ranges(completed)
                    for a, snap in zip(self.dist_args, snaps):
                        for rlo, rhi in self.resumed:
                            a._full[rlo:rhi] = snap[rlo:rhi]
                        a.scatter(a._full)
                    self.summary.resumed_blocks = len(completed)
                    trace.get_registry().counter(
                        "cluster.resumed_blocks").inc(len(completed))
                sp.set_attr("blocks", self.summary.resumed_blocks)
        if self.deadline is not None:
            start_ns = min(int(d.queue.clock * 1e9)
                           for d in self.cluster.devices)
            self.deadline_ns = start_ns + int(float(self.deadline) * 1e9)

    def _run_id(self) -> dict:
        """What a snapshot must match before ``resume=True`` trusts it.

        Besides kernel name, size and dtypes: the SHA-256 of the
        captured kernel source the run executes (it follows the kernel
        body and its closure values), and a digest of every argument the
        kernel only reads — scalars, broadcast Arrays and read-only
        DistributedArrays.  Written arrays stay out on purpose: a resume
        after :class:`DeadlineExceeded` sees them partly updated, and
        the snapshot itself restores them.  Only host copies are
        digested: a read-only input valid only on a device is recorded
        as device-resident (no snapshot of such a run is ever resumed),
        and ``resume=True`` refuses it.
        """
        bounds = self.dist_args[0].bounds
        first = next(i for i, (lo, hi) in enumerate(bounds) if hi > lo)
        captured = get_runtime().get_captured(self.kernel, _local_args(
            self.args, _parts_at(self.dist_args, first), *bounds[first]))
        inputs = hashlib.sha256()
        for (name, _proxy), arg in zip(captured.params, self.args):
            if isinstance(arg, DistributedArray):
                if captured.info.writes(name):
                    inputs.update(b"written")
                    continue
                parts, data = arg.parts, arg._full
            elif isinstance(arg, Array):
                parts, data = [arg], arg._host
            else:
                value = arg.value if hasattr(arg, "value") else arg
                inputs.update(repr((type(arg).__name__, value)).encode())
                continue
            if not all(p._host_valid for p in parts if p is not None):
                # digesting it would cost a d2h copy the run never makes
                if self.resume:
                    raise HPLError(
                        f"resume=True needs the read-only input {name!r} "
                        "valid on the host to check it against the "
                        "checkpoint; gather() or read() it first")
                inputs.update(f"device-resident {name}".encode())
                continue
            inputs.update(f"{data.dtype}{data.shape}".encode())
            inputs.update(np.ascontiguousarray(data).tobytes())
        return {"kernel": self.kernel_name, "n": int(self.dist_args[0].n),
                "arrays": [str(a.dtype) for a in self.dist_args],
                "source": hashlib.sha256(
                    captured.source.encode()).hexdigest(),
                "inputs": inputs.hexdigest()}

    def repartition(self, bounds) -> None:
        """Repartition all arrays, retrying transient sync failures.

        ``repartition`` is idempotent per array (already-moved arrays
        early-return, already-synced parts are skipped), so re-running
        the whole loop after a transient d2h failure only redoes the
        failed work.  A *permanent* failure here means a device died
        holding data recovery had not reclaimed — unrecoverable by
        re-running blocks, so it surfaces as
        :class:`ClusterExecutionError`.
        """
        for attempt in itertools.count():
            try:
                for a in self.dist_args:
                    a.repartition(bounds)
                return
            except DeviceNotAvailable as exc:
                raise ClusterExecutionError(
                    "a device died while re-balancing partitions; its "
                    "unsynchronised contents are unrecoverable") from exc
            except OutOfResources:
                if attempt >= self.max_retries:
                    raise
                self._retry(attempt, ("repartition", attempt),
                            op="repartition")

    # -- the loop -------------------------------------------------------------

    def run(self, source) -> ClusterResult:
        """Drive ``source`` dry, feed the observed throughputs to the
        calibration store, and return the results in index order."""
        summary, done = self.summary, self.done
        #: (simulated ns a device drains, its rank), earliest first: what
        #: the guided source serves devices by; plans never read it
        self.ready = [(int(d.queue.clock * 1e9), rank)
                      for rank, d in enumerate(self.devices)]
        heapq.heapify(self.ready)
        attempts: dict = {}     # (lo, hi) -> transient retries used
        retries: list = []      # relaunched on the same device next
        unsaved = 0             # completions since the last snapshot
        since_probe = 0         # completions since the last probe round
        while retries or source.has_work():
            if self.probation and self.cluster.lost \
                    and since_probe >= self.probe_interval:
                since_probe = 0
                self._revive(None)
            batch = source.next_batch(retries)
            for chunk in batch:
                if chunk.result is None and chunk.error is None:
                    # first launch: a guided chunk's device may only
                    # become free past the deadline
                    if chunk.ready_ns is not None:
                        self._check_deadline(chunk.ready_ns)
                    _check_broadcast_writes(self.kernel, self.args,
                                            self._local(chunk))
                    if self.watchdog is not None:
                        self._speculate(chunk, [(c.rank, c.hi - c.lo)
                                                for c in batch
                                                if c is not chunk])
            for chunk in batch:
                chunk.result, chunk.error = None, None
                with trace.span("cluster_chunk", category="cluster",
                                kernel=self.kernel_name,
                                device=chunk.device.label, rank=chunk.rank,
                                lo=chunk.lo, hi=chunk.hi,
                                weights=getattr(source, "weight_source",
                                                None)):
                    try:
                        chunk.result = self._eval(chunk)
                    except (DeviceNotAvailable, OutOfResources) as exc:
                        chunk.error = exc   # e.g. an injected build failure
            for chunk in batch:
                if chunk.result is not None:
                    chunk.result.drive()
            retries, lost = [], {}
            for chunk in batch:
                error = chunk.error
                if error is None:
                    failed = chunk.result.failed_event
                    if failed is None:
                        done[chunk.key] = chunk
                        unsaved += 1
                        since_probe += 1
                        self._complete(chunk)
                        continue
                    error = failed.error
                kind = _failure_kind(error)
                if kind == "fatal":
                    raise error
                used = attempts.get(chunk.key, 0)
                if kind == "transient" and used < self.max_retries:
                    # retry on the SAME device: guided chunks are sized
                    # for their device, and migrating one to a slower
                    # survivor would turn a hiccup into a makespan cliff.
                    # Only quarantine moves work.
                    attempts[chunk.key] = used + 1
                    chunk.device.queue.clock += self._retry(
                        used, (chunk.device.label, chunk.lo, chunk.hi, used),
                        kernel=self.kernel_name, device=chunk.device.label,
                        lo=chunk.lo, hi=chunk.hi)
                    retries.append(chunk)
                    continue
                if kind == "transient":     # retries exhausted: dead
                    summary.transient_failures += 1
                lost.setdefault(chunk.device, []).append(chunk)
            if lost:
                self._quarantine(lost, source)
            if done and self.deadline_ns is not None:
                self._check_deadline(max(c.result.kernel_event.end_ns
                                         for c in done.values()))
            if self.store is not None and unsaved >= self.every:
                self._checkpoint()
                unsaved = 0
        if self.store is not None and unsaved:
            self._checkpoint()
        source.finish()
        chunks = [done[key] for key in sorted(done)]
        for chunk in chunks:
            try:
                seconds = chunk.result.kernel_event.duration
            except Exception:   # profiling disabled on a custom queue
                continue
            _CALIBRATION.record(self.kernel_name, chunk.device.label,
                                chunk.hi - chunk.lo, seconds)
        return ClusterResult([c.result for c in chunks], summary)

    def _local(self, chunk) -> list:
        return _local_args(self.args, chunk.parts, chunk.lo, chunk.hi)

    def _eval(self, chunk):
        return hpl_eval(self.kernel).global_(chunk.hi - chunk.lo) \
            .device(chunk.device)(*self._local(chunk))

    def _retry(self, attempt: int, key: tuple, **attrs) -> float:
        """Account one retry of a transient failure (``attempt`` is
        0-based); its jittered backoff delay."""
        delay = _backoff_delay(self.backoff, attempt, key=key)
        self.summary.transient_failures += 1
        self.summary.retries += 1
        self.summary.backoff_seconds += delay
        trace.get_registry().counter("cluster.retries").inc()
        _mark("recover", action="retry", attempt=attempt + 1,
              backoff_seconds=delay, **attrs)
        return delay

    def _checkpoint(self) -> None:
        """Sync the completed blocks to the host and, with a store,
        snapshot the host buffers + completed block list atomically.

        A device dying between completion and checkpoint drops its
        block from the snapshot; the block then simply re-runs on
        resume.
        """
        good = []
        for key in sorted([*self.resumed, *self.done]):
            ok = True
            chunk = self.done.get(key)
            for part in chunk.parts.values() if chunk is not None else ():
                event = part.enqueue_host_sync()
                if event is not None:
                    event.drive()
                    ok = ok and not event.is_failed
            if ok:
                good.append(key)
        if self.store is None:
            return
        with trace.span("checkpoint_write", category="cluster",
                        blocks=len(good)) as sp:
            written = self.store.save(
                self.run_id, [a._full for a in self.dist_args], good)
            sp.set_attr("bytes", written)
        trace.get_registry().counter(
            "cluster.checkpoint_bytes").inc(written)

    def _check_deadline(self, stamp_ns: int) -> None:
        """Past the deadline: checkpoint what finished, raise with the
        partial result attached."""
        if self.deadline_ns is None or stamp_ns <= self.deadline_ns:
            return
        self.summary.deadline_missed = True
        trace.get_registry().counter("cluster.deadline_missed").inc()
        self._checkpoint()
        partial = [self.done[key].result for key in sorted(self.done)]
        raise DeadlineExceeded(
            f"cluster_eval exceeded its deadline: simulated time reached "
            f"{stamp_ns * 1e-9:.6f}s, budget ended at "
            f"{self.deadline_ns * 1e-9:.6f}s ({len(partial)} block(s) "
            "completed)",
            result=ClusterResult(partial, self.summary),
            failures=self.summary)

    def _speculate(self, chunk, others) -> None:
        """Move a chunk the watchdog predicts to straggle.

        The chunk's launch on its assigned device is cancelled before
        any payload runs, so that device's buffers are never touched;
        first predicted completion wins.  A real watchdog makes the same
        call from wall-clock observations; this one makes it from the
        model those observations would feed.
        """
        device = chunk.device
        avail_ns = chunk.ready_ns if chunk.ready_ns is not None \
            else int(device.queue.clock * 1e9)
        target = self.watchdog.pick(chunk.rank, chunk.hi - chunk.lo,
                                    self.active, avail_ns, self.devices,
                                    others)
        if target is None:
            return
        registry = trace.get_registry()
        with trace.span("watchdog", category="cluster",
                        kernel=self.kernel_name, device=device.label,
                        lo=chunk.lo, hi=chunk.hi,
                        factor=self.watchdog.factor):
            doomed = None
            try:
                doomed = self._eval(chunk)
            except (DeviceNotAvailable, OutOfResources):
                pass            # abandoning this device anyway
        cancelled = 0
        if doomed is not None:
            for e in doomed.events:
                e.cancel()
            cancelled = sum(1 for e in doomed.events if e.is_cancelled)
        # sweep coherence commands a partially-built graph may have left
        # pending on the loser's queue
        cancelled += device.queue.cancel_pending()
        registry.counter("cluster.cancelled_events").inc(cancelled)
        registry.counter("cluster.speculative_launches").inc()
        _mark("speculate", kernel=self.kernel_name, lo=chunk.lo,
              hi=chunk.hi, from_device=device.label,
              to_device=self.devices[target].label,
              cancelled_events=cancelled)
        chunk.origin, chunk.rank = chunk.rank, target
        chunk.device = self.devices[target]

    def _complete(self, chunk) -> None:
        # a finished chunk frees its device at its completion stamp, and
        # a speculated chunk's origin too (a real watchdog kills the
        # loser the moment the winner reports)
        end_ns = chunk.result.kernel_event.end_ns
        heapq.heappush(self.ready, (end_ns, chunk.rank))
        if chunk.origin is not None and chunk.origin in self.active:
            heapq.heappush(self.ready, (end_ns, chunk.origin))
        registry = trace.get_registry()
        if chunk.origin is not None:    # the speculated copy won
            self.summary.speculative_wins += 1
            registry.counter("cluster.speculation_wins").inc()
        label, size = chunk.device.label, chunk.hi - chunk.lo
        registry.counter("cluster.chunks_dispatched").inc()
        registry.counter("cluster.chunk_items").inc(size)
        registry.counter(f"cluster.chunks[{label}]").inc()
        registry.counter(f"cluster.chunk_items[{label}]").inc(size)
        registry.histogram("cluster.chunk_seconds").observe(
            chunk.result.kernel_event.duration)

    def _revive(self, at_ns) -> bool:
        """Probe every quarantined device; readmit the healthy ones.

        A probe is a tiny marker command driven to a terminal state
        (fault plans fail it on devices that are still dead).  A
        readmitted device comes back with its calibration decayed — it
        must re-earn its weight — and the run's deferred flag applied,
        and rejoins the ranks and the ready-heap.  True when any came
        back.
        """
        registry = trace.get_registry()
        revived = False
        for device in list(self.cluster.lost):
            registry.counter("cluster.probes").inc()
            event = device.queue.enqueue_marker(wait_for=[])
            event.drive()
            _mark("probe", kernel=self.kernel_name, device=device.label,
                  healthy=event.is_complete)
            if not event.is_complete:
                continue
            self.cluster.readmit(device)
            _CALIBRATION.decay(self.kernel_name, device.label, self.decay)
            device.set_deferred(self.deferred)
            self.summary.readmitted.append(device.label)
            registry.counter("cluster.readmitted").inc()
            _mark("recover", action="readmit", kernel=self.kernel_name,
                  device=device.label, calibration_decay=self.decay)
            if device not in self.devices:
                self.devices.append(device)
                if self.watchdog is not None:
                    self.watchdog.track(self.kernel_name, device)
            rank = self.devices.index(device)
            if rank not in self.active:
                self.active.add(rank)
                if at_ns is None:   # a probe round: join at the frontier
                    at_ns = self.ready[0][0] if self.ready else 0
                heapq.heappush(self.ready, (at_ns, rank))
            revived = True
        return revived

    def _quarantine(self, lost: dict, source) -> None:
        """Quarantine dead devices; requeue their failed chunks together
        with completed blocks stranded on them.

        ``lost`` maps each dead device to the chunks that failed on it.
        A completed block is *stranded* when its only valid data sat on
        a dead device: it is rolled back to the host and leaves the
        completed set.  Quarantining the last device first probes the
        quarantined ones (with probation on); losing every device stays
        fatal once those probes have failed too.
        """
        cluster, summary = self.cluster, self.summary
        registry = trace.get_registry()
        for device, chunks in lost.items():
            try:
                cluster.quarantine(device)  # raises when nobody is left
            except ClusterExecutionError:
                if not (self.probation
                        and self._revive(chunks[0].ready_ns)):
                    raise
                cluster.quarantine(device)
            self.active.discard(self.devices.index(device))
            summary.devices_lost.append(device.label)
            registry.counter("cluster.device_lost").inc()
            _mark("recover", action="quarantine", kernel=self.kernel_name,
                  device=device.label, failed_blocks=len(chunks))
        failed = [chunk for chunks in lost.values() for chunk in chunks]
        for chunk in failed:
            for part in chunk.parts.values():
                _reclaim_part(part, lost)
        # a list, not a generator: every stranded part is rolled back
        stranded = [self.done.pop(key) for key in sorted(self.done)
                    if any([_reclaim_part(part, lost) for part
                            in self.done[key].parts.values()])]
        items = sum(c.hi - c.lo for c in failed + stranded)
        summary.requeued_items += items
        registry.counter("cluster.requeued_items").inc(items)
        with trace.span("recover", category="cluster", action="requeue",
                        kernel=self.kernel_name, items=items,
                        blocks=len(failed) + len(stranded),
                        survivors=len(cluster.devices)):
            source.requeue(failed, stranded)


def cluster_eval(kernel, cluster: Cluster, *args, deferred: bool = True,
                 schedule=None, max_retries: int = 3,
                 backoff: float = 1e-4, watchdog=None, deadline=None,
                 checkpoint=None, checkpoint_every: int = 1,
                 resume: bool = False, probation: bool = False,
                 probe_interval: int = 4, probation_decay: float = 0.5):
    """Evaluate ``kernel`` once per partition, owner-computes style.

    ``kernel`` is an ordinary HPL kernel function whose **last two
    parameters** must be ``offset`` (Int: the partition's global start
    index) and ``count`` (Int: partition length); each
    :class:`DistributedArray` argument is replaced by the device-local
    partition, while plain Arrays and scalars are broadcast to every
    device (each device keeps its own coherent copy).  Broadcast plain
    Arrays must be read-only in the kernel (an :class:`HPLError` is
    raised otherwise).

    ``schedule`` selects the partitioning policy: ``None`` keeps the
    arrays' current partitioning (block-uniform unless repartitioned),
    while ``"uniform"``, ``"weighted"``, ``"dynamic"`` or a
    :class:`Scheduler` instance re-plan the index space — repartitioning
    every DistributedArray argument to the plan's bounds — before
    launching.  All policies compute bit-identical results; they differ
    only in who computes what (see ``docs/cluster.md``).  One runner
    executes them all: a static plan is a fixed list of blocks with
    device affinity, a dynamic schedule cuts guided chunks on demand.

    With ``deferred=True`` (the default) every device's queue records
    its partition's transfers and launch as an event graph, all
    partitions are launched asynchronously, and a single barrier at the
    end executes them dependency-ordered — so the per-device simulated
    timelines overlap instead of serializing with the host loop.
    ``deferred=False`` runs eagerly; the numerical results are
    identical either way.

    ``max_retries`` (>= 0) and ``backoff`` (>= 0) tune failure recovery
    (see ``docs/faults.md``): transient failures are retried up to
    ``max_retries`` times per block with capped-exponential backoff on
    the simulated clock; a permanently failed device is quarantined
    from the cluster.  Its plan blocks are split over the survivors;
    its guided chunks are requeued.  When no device survives,
    :class:`~repro.errors.ClusterExecutionError` is raised.

    The resilience layer (see ``docs/resilience.md``) is opt-in:

    - ``watchdog`` (``True`` for the default 4x slow-factor, or a
      number >= 1) speculatively re-executes chunks the calibration
      model predicts to straggle past ``slow_factor x`` the best
      device's expected duration, under every schedule.  The loser's
      event graph is *cancelled* before any payload runs, so it needs
      ``deferred=True``.
    - ``deadline`` (simulated seconds, > 0) raises
      :class:`~repro.errors.DeadlineExceeded` — carrying the partial
      result — once any completion stamp passes the budget.
    - ``checkpoint`` (a directory) snapshots host buffers + completed
      blocks every ``checkpoint_every`` (>= 1) block completions;
      ``resume=True`` (only with ``checkpoint``, and with every
      read-only input valid on the host) restores a snapshot of the
      same kernel source and read-only inputs and skips the completed
      blocks, bit-identically.
    - ``probation=True`` probes quarantined devices every
      ``probe_interval`` (>= 1) completed chunks and readmits the
      healthy ones with their calibration decayed by
      ``probation_decay`` (in (0, 1]).

    Invalid values and combinations raise :class:`HPLError` before any
    work starts; nothing is silently clamped or ignored.

    Returns a :class:`ClusterResult` — a list of the per-partition
    :class:`EvalResult` objects (all complete by return), in partition
    order, with the recovery record on ``.failures``.
    """
    dist_args = [a for a in args if isinstance(a, DistributedArray)]
    if not dist_args:
        raise HPLError("cluster_eval needs at least one DistributedArray")
    n = dist_args[0].n
    for a in dist_args:
        if a.n != n or a.cluster is not cluster:
            raise HPLError("all DistributedArrays must share the same "
                           "size and cluster")
    runner = _Runner(
        kernel, cluster, args, dist_args, deferred=deferred,
        max_retries=max_retries, backoff=backoff, watchdog=watchdog,
        deadline=deadline, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, resume=resume,
        probation=probation, probe_interval=probe_interval,
        probation_decay=probation_decay)
    scheduler = get_scheduler(schedule)
    if scheduler is None \
            and len(dist_args[0].bounds) != len(cluster.devices):
        # the current layout (e.g. left over from a recovered run) no
        # longer maps one block per device: re-plan instead of guessing
        scheduler = get_scheduler("uniform")

    def schedule_span():
        return trace.span("cluster_schedule", category="cluster",
                          policy=scheduler.name, kernel=runner.kernel_name,
                          n=n, devices=len(cluster))

    if scheduler is None:
        for a in dist_args:
            if a.bounds != dist_args[0].bounds:
                raise HPLError(
                    "all DistributedArrays must share the same "
                    "partitioning; pass schedule=... to re-plan them "
                    "together")
        partitions = [Partition(lo, hi, rank) for rank, (lo, hi)
                      in enumerate(dist_args[0].bounds)]
    elif not scheduler.dynamic:
        with schedule_span():
            partitions = scheduler.plan(n, cluster,
                                        kernel_name=runner.kernel_name)
            runner.repartition([(p.lo, p.hi) for p in partitions])
    runner.start()
    # every device that may take part, lost ones included (probation can
    # readmit them): the run's deferred flag is undone on all of them
    previous = [(d, d.deferred) for d in [*cluster.devices, *cluster.lost]]
    if deferred:
        for d in cluster.devices:
            d.set_deferred(True)
    global _LAST_SUMMARY
    _LAST_SUMMARY = runner.summary
    try:
        if scheduler is not None and scheduler.dynamic:
            with schedule_span():
                source = _GuidedSource(runner, scheduler)
        else:
            source = _PlanSource(runner, partitions)
        return runner.run(source)
    finally:
        for device, was_deferred in previous:
            device.set_deferred(was_deferred)


# -- timeline measurement -------------------------------------------------------


@dataclass
class ClusterTimeline:
    """Simulated-time shape of one multi-device run (see
    :func:`timeline_of`)."""

    #: wall-clock span on the simulated timeline: latest event end minus
    #: earliest event start, across every device involved
    makespan_seconds: float
    #: per-device busy time (sum of that device's event durations),
    #: keyed by device *label* — identity, not model name — so two
    #: same-model devices get separate buckets
    busy_seconds: dict
    #: what the same work would take with the devices serialized
    serialized_seconds: float = field(init=False)
    #: serialized / makespan — ~N on N equally-loaded devices
    overlap_factor: float = field(init=False)

    def __post_init__(self) -> None:
        self.serialized_seconds = sum(self.busy_seconds.values())
        self.overlap_factor = (self.serialized_seconds
                               / self.makespan_seconds
                               if self.makespan_seconds > 0 else 1.0)


def timeline_of(results) -> ClusterTimeline:
    """Measure the overlap of completed EvalResults and/or Events.

    ``results`` may mix :class:`EvalResult` objects and bare events
    (e.g. ``DistributedArray.last_gather_events``).  The events carry
    simulated start/end stamps on their device's timeline; the makespan
    spans all of them, while the serialized time is what a
    one-device-at-a-time host loop would pay.  Busy time is keyed by
    device *identity* (label), never by model name: two identical
    devices must not merge into one bucket.
    """
    events = []
    for r in results:
        events.extend(r.events if hasattr(r, "events") else [r])
    if not events:
        raise HPLError("timeline_of needs at least one event")
    start = min(e.profile_start for e in events)
    end = max(e.profile_end for e in events)
    busy: dict = {}
    for event in events:
        key = event.device_label or event.device_name
        busy[key] = busy.get(key, 0.0) + event.duration
    return ClusterTimeline(makespan_seconds=(end - start) * 1e-9,
                           busy_seconds=busy)
