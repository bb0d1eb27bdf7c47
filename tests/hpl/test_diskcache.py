"""Persistent cross-process kernel binary cache (repro.hpl.diskcache)."""

import json
import os
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.hpl as hpl
import repro.ocl as cl
from repro import trace
from repro.clc import compile_source, preprocess
from repro.clc.ir import _IR_MAGIC, IR_SCHEMA_VERSION, ProgramIR
from repro.clc.passes import opt_signature
from repro.errors import IRSchemaError, KernelLaunchError
from repro.hpl import Array, Float, float_, idx, reset_runtime
from repro.hpl.diskcache import (KernelDiskCache, active_cache, cache_key,
                                 main)

SOURCE = """
__kernel void scale(__global float* y, float a) {
    int i = get_global_id(0);
    y[i] = y[i] * a;
}
"""


@pytest.fixture()
def disk_cache(tmp_path):
    """A configured disk cache; global activation restored afterwards."""
    from repro.hpl import diskcache

    saved = (diskcache._active, diskcache._configured)
    cache = hpl.configure(cache_dir=tmp_path / "kernels")
    yield cache
    diskcache._active, diskcache._configured = saved


def _counter(name):
    return trace.get_registry().counter(name).value


def _farray(n=64, value=3.0):
    a = Array(float_, n)
    a.data[:] = np.float32(value)
    return a


def _scale_kernel():
    def scale(y, a):
        y[idx] = y[idx] * a

    return scale


# -- IR serialization ---------------------------------------------------------

class TestIRSerialization:
    def test_roundtrip_preserves_compiled_program(self):
        ir = compile_source(SOURCE)
        clone = ProgramIR.from_bytes(ir.to_bytes())
        assert isinstance(clone, ProgramIR)
        assert sorted(clone.kernels) == sorted(ir.kernels)
        assert clone.to_bytes() == ir.to_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(IRSchemaError, match="magic"):
            ProgramIR.from_bytes(b"NOTIR" + b"x" * 32)

    def test_truncated_blob_rejected(self):
        blob = compile_source(SOURCE).to_bytes()
        with pytest.raises(IRSchemaError):
            ProgramIR.from_bytes(blob[: len(blob) // 2])

    def test_schema_version_mismatch_rejected_not_crash(self):
        blob = compile_source(SOURCE).to_bytes()
        doc = json.loads(zlib.decompress(blob[len(_IR_MAGIC):]))
        assert doc["schema"] == IR_SCHEMA_VERSION
        doc["schema"] = IR_SCHEMA_VERSION + 1
        tampered = _IR_MAGIC + zlib.compress(
            json.dumps(doc).encode("utf-8"))
        with pytest.raises(IRSchemaError, match="schema"):
            ProgramIR.from_bytes(tampered)


# -- the store itself ---------------------------------------------------------

class TestKernelDiskCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        ir = compile_source(SOURCE)
        key = cache.key_of(SOURCE, "", ("fp64",))
        assert cache.get(key) is None
        cache.put(key, ir)
        hit = cache.get(key)
        assert hit is not None
        assert hit.to_bytes() == ir.to_bytes()

    def test_key_sensitive_to_every_input(self):
        base = cache_key(SOURCE, "", ("fp64",))
        assert cache_key(SOURCE + " ", "", ("fp64",)) != base
        assert cache_key(SOURCE, "-DN=4", ("fp64",)) != base
        assert cache_key(SOURCE, "", ("nofp64",)) != base

    def test_corrupt_entry_is_dropped_and_counted_as_miss(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        key = cache.key_of(SOURCE)
        entry = cache._entry_path(key)
        entry.write_bytes(b"torn garbage, not an IR blob")
        misses = _counter("hpl.disk_cache_misses")
        assert cache.get(key) is None
        assert _counter("hpl.disk_cache_misses") == misses + 1
        assert not entry.exists()

    def test_stale_schema_entry_invalidated(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        ir = compile_source(SOURCE)
        key = cache.key_of(SOURCE)
        blob = ir.to_bytes()
        doc = json.loads(zlib.decompress(blob[len(_IR_MAGIC):]))
        doc["schema"] = IR_SCHEMA_VERSION + 1
        cache._entry_path(key).write_bytes(
            _IR_MAGIC + zlib.compress(json.dumps(doc).encode("utf-8")))
        assert cache.get(key) is None        # rejected, not crashed
        assert not cache._entry_path(key).exists()
        cache.put(key, ir)                   # caller recompiles + overwrites
        assert cache.get(key) is not None

    def test_lru_eviction_drops_oldest(self, tmp_path):
        ir = compile_source(SOURCE)
        entry_size = len(ir.to_bytes())
        cache = KernelDiskCache(tmp_path, max_bytes=3 * entry_size)
        keys = [cache.key_of(SOURCE, f"-DV={i}") for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, ir)
            os.utime(cache._entry_path(key), (i, i))  # deterministic ages
        kept = {k for k, _s, _m in cache.entries()}
        assert kept == set(keys[2:])         # two oldest evicted
        assert sum(s for _k, s, _m in cache.entries()) <= cache.max_bytes

    def test_hit_refreshes_lru_position(self, tmp_path):
        ir = compile_source(SOURCE)
        entry_size = len(ir.to_bytes())
        cache = KernelDiskCache(tmp_path, max_bytes=2 * entry_size)
        a, b = (cache.key_of(SOURCE, f"-DV={i}") for i in "ab")
        cache.put(a, ir)
        cache.put(b, ir)
        os.utime(cache._entry_path(a), (1, 1))
        os.utime(cache._entry_path(b), (2, 2))
        now = time.time()
        assert cache.get(a) is not None      # touch: a becomes newest
        assert cache._entry_path(a).stat().st_mtime >= now - 60
        cache.put(cache.key_of(SOURCE, "-DV=c"), ir)
        kept = {k for k, _s, _m in cache.entries()}
        assert a in kept and b not in kept

    def test_source_sidecars_are_evicted_to_the_cap(self, tmp_path):
        """``put_source`` runs the same store-then-evict path as
        ``put``: ``.jitsrc`` sidecars never push the store past
        ``max_bytes``."""
        text = "x" * 100
        cache = KernelDiskCache(tmp_path, max_bytes=250)
        keys = [f"{i:064x}" for i in range(5)]
        for i, key in enumerate(keys):
            cache.put_source(key, text)
            os.utime(cache._source_path(key), (i, i))  # deterministic ages
        kept = sorted(p.stem for p in tmp_path.glob("*.jitsrc"))
        assert kept == keys[3:]              # three oldest evicted
        assert cache.get_source(keys[-1]) == text

    def test_purge_and_stats(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        ir = compile_source(SOURCE)
        cache.put(cache.key_of(SOURCE), ir)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert cache.purge() == 1
        assert cache.stats()["entries"] == 0


# -- concurrency --------------------------------------------------------------

class TestConcurrentWriters:
    def test_threaded_writers_never_tear_reads(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        ir = compile_source(SOURCE)
        key = cache.key_of(SOURCE)
        blob = ir.to_bytes()
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    cache.put(key, ir)
                    got = cache.get(key)
                    # every read sees a complete blob or a clean miss
                    if got is not None and got.to_bytes() != blob:
                        errors.append("torn read")
            except Exception as exc:       # noqa: BLE001 - fail the test
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_process_writers_never_tear_reads(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.clc import compile_source\n"
            "from repro.hpl.diskcache import KernelDiskCache\n"
            f"src = {SOURCE!r}\n"
            "ir = compile_source(src)\n"
            "blob = ir.to_bytes()\n"
            f"cache = KernelDiskCache({str(tmp_path)!r})\n"
            "key = cache.key_of(src)\n"
            "for _ in range(20):\n"
            "    cache.put(key, ir)\n"
            "    got = cache.get(key)\n"
            "    assert got is None or got.to_bytes() == blob\n"
            "print('ok')\n"
        )
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  env=_child_env(), text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
                 for _ in range(4)]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"


# -- runtime integration ------------------------------------------------------

class TestRuntimeIntegration:
    def test_fresh_runtime_reuses_disk_entry(self, disk_cache,
                                             fresh_runtime):
        compiles = _counter("clc.compiles")
        hits = _counter("hpl.disk_cache_hits")
        hpl.eval(_scale_kernel())(_farray(value=3.0), Float(2.0))
        assert _counter("clc.compiles") == compiles + 1

        reset_runtime()                     # in-memory caches gone
        a = _farray(value=3.0)
        hpl.eval(_scale_kernel())(a, Float(2.0))
        assert _counter("clc.compiles") == compiles + 1   # no recompile
        assert _counter("hpl.disk_cache_hits") >= hits + 1
        np.testing.assert_allclose(a.data, 6.0)

    def test_stats_facade_exposes_disk_counters(self, disk_cache,
                                                fresh_runtime):
        from repro.hpl import get_runtime

        hpl.eval(_scale_kernel())(_farray(), Float(2.0))
        stats = get_runtime().stats
        assert stats.disk_cache_misses >= 1
        assert stats.disk_cache_bytes > 0

    def test_disabled_cache_still_compiles(self, tmp_path, fresh_runtime):
        from repro.hpl import diskcache

        saved = (diskcache._active, diskcache._configured)
        try:
            hpl.configure(cache_dir=None)
            a = _farray(value=5.0)
            hpl.eval(_scale_kernel())(a, Float(2.0))
            np.testing.assert_allclose(a.data, 10.0)
        finally:
            diskcache._active, diskcache._configured = saved


# -- stale -O0 artifacts ------------------------------------------------------

def _build_key(cache, device, options, opt_sig):
    """The disk-cache key ``Program.build`` derives for ``SOURCE``."""
    from repro.ocl.program import engine_signature_of

    caps = ("fp64" if device.supports_fp64 else "nofp64",)
    return cache.key_of(preprocess(SOURCE, options), options, caps,
                        opt_sig, engine_signature_of([device]))


class TestStaleO0Artifacts:
    @pytest.mark.parametrize("engine", ["vector", "jit"])
    def test_bytecode_less_o0_entry_is_missed_and_rebuilt(
            self, disk_cache, cl_run, engine):
        """Older builds cached -O0 programs as tree IR without bytecode
        under ``O0:pipe1:bc1``.  No engine can run such an artifact, so
        it must never be served: the current key differs, the build
        misses, recompiles, and the program runs correctly."""
        options = "-cl-opt-disable"
        device = cl.Device(cl.TESLA_C2050, engine)
        stale = compile_source(SOURCE, options)
        assert stale.bytecode is None
        old_key = _build_key(disk_cache, device, options, "O0:pipe1:bc1")
        disk_cache.put(old_key, stale)
        assert opt_signature(0) != "O0:pipe1:bc1"

        hits = _counter("hpl.disk_cache_hits")
        compiles = _counter("clc.compiles")
        y = np.arange(64, dtype=np.float32)
        cl_run(device, SOURCE, "scale", [y, np.float32(2.0)], (64,),
               options=options)
        assert _counter("hpl.disk_cache_hits") == hits
        assert _counter("clc.compiles") == compiles + 1
        np.testing.assert_array_equal(
            y, np.arange(64, dtype=np.float32) * np.float32(2.0))
        rebuilt = disk_cache.get(
            _build_key(disk_cache, device, options, opt_signature(0)))
        assert rebuilt is not None and rebuilt.bytecode is not None

    @staticmethod
    def _damaged_launch(engine, damage):
        """Build ``SOURCE`` at -O2, damage its bytecode, and return a
        launch of ``scale`` by 2 over ``y = 0..63`` plus the buffer."""
        device = cl.Device(cl.TESLA_C2050, engine)
        ctx = cl.Context([device])
        queue = cl.CommandQueue(ctx, device)
        program = cl.Program(ctx, SOURCE).build("-O2")
        if damage == "stripped":
            program.ir.bytecode = None
        else:
            program.ir.bytecode.version += 1
        kernel = program.create_kernel("scale")
        y = np.arange(64, dtype=np.float32)
        buf = cl.Buffer(ctx, cl.mem_flags.READ_WRITE, size=y.nbytes)
        queue.enqueue_write_buffer(buf, y)
        kernel.set_arg(0, buf)
        kernel.set_arg(1, np.float32(2.0))

        def launch():
            queue.enqueue_nd_range_kernel(kernel, (64,))
            queue.enqueue_read_buffer(buf, y)
            queue.finish()
            return y
        return launch

    @pytest.mark.parametrize("engine", ["vector", "jit"])
    @pytest.mark.parametrize("damage", ["stripped", "foreign-version"])
    def test_program_without_usable_bytecode_raises(self, engine, damage):
        launch = self._damaged_launch(engine, damage)
        with pytest.raises(KernelLaunchError, match="'scale'"):
            launch()

    @pytest.mark.parametrize("damage", ["stripped", "foreign-version"])
    def test_serial_runs_the_optimized_tree_without_bytecode(self, damage):
        """The serial oracle walks the -O2 tree, so the program's
        bytecode is never read: damaged bytecode still runs right."""
        y = self._damaged_launch("serial", damage)()
        np.testing.assert_array_equal(
            y, np.arange(64, dtype=np.float32) * np.float32(2.0))


# -- cross-process reuse ------------------------------------------------------

_CHILD = """
import json
import numpy as np
import repro.hpl as hpl
from repro import trace
from repro.hpl import Array, Float, float_, idx

def scale(y, a):
    y[idx] = y[idx] * a

a = Array(float_, 64)
a.data[:] = np.float32(3.0)
hpl.eval(scale)(a, Float(2.0))
registry = trace.get_registry()
print(json.dumps({
    "checksum": float(a.data.sum()),
    "clc_compiles": registry.counter("clc.compiles").value,
    "disk_cache_hits": registry.counter("hpl.disk_cache_hits").value,
    "disk_cache_misses":
        registry.counter("hpl.disk_cache_misses").value,
}))
"""


def _child_env(cache_dir=None):
    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if cache_dir is not None:
        env["HPL_CACHE_DIR"] = str(cache_dir)
    return env


def _run_child(cache_dir):
    proc = subprocess.run([sys.executable, "-c", _CHILD],
                          env=_child_env(cache_dir),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCrossProcessReuse:
    def test_second_process_hits_and_skips_compile(self, tmp_path):
        cold = _run_child(tmp_path)
        assert cold["clc_compiles"] == 1
        assert cold["disk_cache_hits"] == 0
        assert cold["disk_cache_misses"] == 1

        warm = _run_child(tmp_path)
        assert warm["clc_compiles"] == 0     # served entirely from disk
        assert warm["disk_cache_hits"] == 1
        assert warm["disk_cache_misses"] == 0
        assert warm["checksum"] == cold["checksum"]


# -- CLI ----------------------------------------------------------------------

class TestCLI:
    def test_ls_stats_purge(self, tmp_path, capsys):
        cache = KernelDiskCache(tmp_path)
        key = cache.key_of(SOURCE)
        cache.put(key, compile_source(SOURCE))

        assert main(["ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert key in out and "1 entry" in out

        assert main(["stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1

        assert main(["purge", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert cache.entries() == []

    def test_missing_cache_dir_errors(self, monkeypatch):
        monkeypatch.delenv("HPL_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["ls"])

    def test_env_var_activates_cache(self, tmp_path, monkeypatch):
        from repro.hpl import diskcache

        saved = (diskcache._active, diskcache._configured)
        try:
            diskcache._active, diskcache._configured = None, False
            monkeypatch.setenv("HPL_CACHE_DIR", str(tmp_path))
            cache = active_cache()
            assert cache is not None
            assert cache.path == tmp_path
        finally:
            diskcache._active, diskcache._configured = saved

    @pytest.mark.parametrize("value", ["lots", "0", "-5"])
    def test_invalid_max_bytes_env_raises(self, tmp_path, monkeypatch,
                                          value):
        """A bad ``HPL_CACHE_MAX_BYTES`` is an error naming the variable
        and its value, never a silent fall-back to the default cap."""
        monkeypatch.setenv("HPL_CACHE_MAX_BYTES", value)
        with pytest.raises(ValueError,
                           match=f"HPL_CACHE_MAX_BYTES='{value}'"):
            hpl.configure(cache_dir=tmp_path)
        monkeypatch.setenv("HPL_CACHE_MAX_BYTES", "4096")
        try:
            assert hpl.configure(cache_dir=tmp_path).max_bytes == 4096
        finally:
            hpl.configure(cache_dir=None)


# -- lock lifecycle -----------------------------------------------------------

class TestLockLifecycle:
    def test_purge_keeps_lock_file(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        cache.put(cache.key_of(SOURCE), compile_source(SOURCE))
        with cache._locked():
            pass                        # materializes .lock
        assert (tmp_path / ".lock").exists()
        assert cache.purge() == 1
        # the flock target must survive: a concurrent _locked() holder
        # has this very inode locked, and replacing it would let two
        # processes hold "the" lock at once
        assert (tmp_path / ".lock").exists()
        assert cache.entries() == []

    def test_purge_sweeps_stale_tmp_files(self, tmp_path):
        cache = KernelDiskCache(tmp_path)
        stale = tmp_path / ".deadbeef.1234.5678.tmp"
        stale.write_bytes(b"abandoned by a killed writer")
        cache.purge()
        assert not stale.exists()

    def test_locked_reacquires_after_foreign_unlink(self, tmp_path,
                                                    monkeypatch):
        # a foreign `rm .lock` + recreate while we block on flock must
        # not void mutual exclusion: we would hold an orphaned inode
        # while the next locker flocks the new file.  Provoke exactly
        # that window and check _locked() retries onto the new file.
        from repro.hpl import diskcache

        cache = KernelDiskCache(tmp_path)
        lock = tmp_path / ".lock"
        real_flock = diskcache.fcntl.flock
        raced = {"n": 0}

        def racy_flock(fd, op):
            if op == diskcache.fcntl.LOCK_EX and raced["n"] == 0:
                raced["n"] += 1
                # our fd keeps the old inode alive, so the recreated
                # file is guaranteed to be a different inode
                lock.unlink()
                lock.write_bytes(b"")
            return real_flock(fd, op)

        monkeypatch.setattr(diskcache.fcntl, "flock", racy_flock)
        entered = False
        with cache._locked():
            entered = True
        assert entered and raced["n"] == 1
        assert lock.exists()

    def test_eviction_skips_entry_touched_after_scan(self, tmp_path,
                                                     monkeypatch):
        # a same-key store that lands between the eviction scan and the
        # unlink refreshes the entry's mtime; eviction must re-stat and
        # leave the fresh entry alone
        cache = KernelDiskCache(tmp_path, max_bytes=1)
        key = cache.key_of(SOURCE)
        blob_path = tmp_path / (key + ".irbin")
        cache.put(key, compile_source(SOURCE))   # evicts itself (cap=1B)
        assert not blob_path.exists()

        program = compile_source(SOURCE)
        blob_path.write_bytes(program.to_bytes())
        os.utime(blob_path, (1.0, 1.0))

        real_entries = cache._all_entries

        def entries_then_touch():
            scanned = real_entries()
            # concurrent writer replaces the entry before the unlink
            os.utime(blob_path, (2.0, 2.0))
            return scanned

        monkeypatch.setattr(cache, "_all_entries", entries_then_touch)
        with cache._locked():
            cache._evict_lru()
        assert blob_path.exists()       # re-stat saw the newer mtime

    def test_eviction_tolerates_entry_removed_after_scan(self, tmp_path,
                                                         monkeypatch):
        cache = KernelDiskCache(tmp_path, max_bytes=1)
        key = cache.key_of(SOURCE)
        blob_path = tmp_path / (key + ".irbin")
        program = compile_source(SOURCE)
        blob_path.write_bytes(program.to_bytes())

        real_entries = cache._all_entries

        def entries_then_remove():
            scanned = real_entries()
            blob_path.unlink()          # concurrent purge got it first
            return scanned

        monkeypatch.setattr(cache, "_all_entries", entries_then_remove)
        with cache._locked():
            cache._evict_lru()          # must not raise
        assert real_entries() == []
