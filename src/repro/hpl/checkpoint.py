"""Versioned, content-addressed cluster checkpoints.

A :class:`CheckpointStore` persists the host buffers of every
:class:`~repro.hpl.cluster.DistributedArray` in a ``cluster_eval``
together with the list of completed blocks, so a killed run can be
resumed (``cluster_eval(checkpoint=dir, resume=True)``) and reproduce
bit-identical results without recomputing finished work.  See
``docs/resilience.md``.

Layout of a checkpoint directory::

    MANIFEST.json           versioned metadata + blob references
    objects/<sha256>.bin    content-addressed array snapshots

Writes are crash-safe the way the persistent kernel cache's are: every
file is written to a temporary name in its final directory and
atomically renamed into place, blobs strictly before the manifest that
references them — so a reader (or a resumed run) only ever observes a
complete, self-consistent snapshot, never a torn one.  Blobs are named
by the SHA-256 of their contents, which makes re-writing an unchanged
array free and lets :meth:`load` detect corruption byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from ..errors import CheckpointError
from .diskcache import atomic_write

#: bump when the manifest schema changes; older snapshots are rejected
#: (a resumed run recomputes from scratch rather than misreading them)
FORMAT_VERSION = 1

MANIFEST = "MANIFEST.json"


class CheckpointStore:
    """Snapshot/restore of one run's distributed host buffers.

    ``run_id`` is a JSON-compatible dict identifying the computation
    (kernel name, problem size, array dtypes); :meth:`load` returns
    ``None`` — a fresh start, not an error — when the directory holds
    no snapshot or one from a *different* run, and raises
    :class:`~repro.errors.CheckpointError` only for a snapshot that
    claims to match but cannot be trusted (wrong format version,
    missing blob, contents not matching their digest).
    """

    def __init__(self, directory) -> None:
        self.directory = os.fspath(directory)
        self.objects = os.path.join(self.directory, "objects")
        os.makedirs(self.objects, exist_ok=True)

    def _blob_path(self, sha: str) -> str:
        return os.path.join(self.objects, f"{sha}.bin")

    def save(self, run_id: dict, arrays, completed) -> int:
        """Persist the arrays + completed block list; bytes written.

        Unchanged arrays cost nothing beyond the digest: their blob
        already exists under its content address.
        """
        blobs = []
        written = 0
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            data = arr.tobytes()
            sha = hashlib.sha256(data).hexdigest()
            path = self._blob_path(sha)
            if not os.path.exists(path):
                atomic_write(path, data)
                written += len(data)
            blobs.append({"sha256": sha, "dtype": str(arr.dtype),
                          "size": int(arr.size)})
        manifest = {
            "version": FORMAT_VERSION,
            "run": run_id,
            "completed": [[int(lo), int(hi)] for lo, hi in completed],
            "blobs": blobs,
        }
        payload = json.dumps(manifest, sort_keys=True).encode()
        atomic_write(os.path.join(self.directory, MANIFEST), payload)
        return written + len(payload)

    def load(self, run_id: dict):
        """The snapshot for ``run_id``: ``(arrays, completed)`` or None.

        ``arrays`` are fresh host ndarrays in manifest order;
        ``completed`` is the list of ``(lo, hi)`` finished blocks.
        """
        path = os.path.join(self.directory, MANIFEST)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        try:
            manifest = json.loads(raw)
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint manifest {path} is not valid JSON") from exc
        if not isinstance(manifest, dict) \
                or manifest.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint manifest {path} has format version "
                f"{manifest.get('version') if isinstance(manifest, dict) else '?'}, "
                f"this build reads version {FORMAT_VERSION}")
        if manifest.get("run") != run_id:
            return None     # someone else's snapshot: start fresh
        arrays = []
        for blob in manifest["blobs"]:
            bpath = self._blob_path(blob["sha256"])
            try:
                with open(bpath, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError as exc:
                raise CheckpointError(
                    f"checkpoint blob {blob['sha256']} referenced by "
                    f"{path} is missing") from exc
            if hashlib.sha256(data).hexdigest() != blob["sha256"]:
                raise CheckpointError(
                    f"checkpoint blob {blob['sha256']} is corrupt "
                    "(contents do not match their content address)")
            arr = np.frombuffer(data, dtype=blob["dtype"]).copy()
            if arr.size != blob["size"]:
                raise CheckpointError(
                    f"checkpoint blob {blob['sha256']} holds {arr.size} "
                    f"element(s), manifest expects {blob['size']}")
            arrays.append(arr)
        completed = [(int(lo), int(hi))
                     for lo, hi in manifest["completed"]]
        return arrays, completed
