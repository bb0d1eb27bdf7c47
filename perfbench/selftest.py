"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

* A perturbed output element makes the operation count as failed, for a
  kernel-zoo reference check and for the cluster-mix cross-policy check.
* Generating the zoo twice from one seed gives identical kernel sources;
  two different seeds give different ones, and no two kernels of one zoo
  share a source.
* The run refuses to start when a guarded ``HPL_*`` variable is set.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.import_program()

import cluster_mix  # noqa: E402
import kernel_zoo  # noqa: E402
from common import Outcome  # noqa: E402
from repro import hpl  # noqa: E402


def perturbed(out):
    bad = out.copy()
    bad.flat[len(bad.flat) // 2] += 1
    return bad


def zoo_reference_check() -> bool:
    kernel = kernel_zoo.generate(7, 1)[0]
    kernel_zoo.configure_for(kernel)
    try:
        data = kernel_zoo.set_inputs(kernel, 7, 0)
        expected = kernel.reference(data)
        _s, result, out = kernel_zoo.timed_eval(kernel)
    finally:
        hpl.configure(engine=None, opt_level=None)
    outcome = Outcome()
    good = kernel_zoo.check_call(outcome, kernel, 0, out, expected, 1, 0,
                                 result.from_cache)
    bad = kernel_zoo.check_call(outcome, kernel, 0, perturbed(out),
                                expected, 1, 0, result.from_cache)
    return good and not bad and (outcome.attempted, outcome.failed) == (2, 1)


def cluster_cross_policy_check() -> bool:
    mix = cluster_mix.Mix(7, iters=4, n=1536, name="selftest_heavy")
    outcome = Outcome()
    _s, _r, first = mix.call({"schedule": "uniform"})
    _s, _r, second = mix.call({"schedule": "dynamic"})
    good = mix.check(outcome, "uniform", first) \
        and mix.check(outcome, "dynamic", second)
    bad = mix.check(outcome, "dynamic", perturbed(second))
    return good and not bad and (outcome.attempted, outcome.failed) == (3, 1)


def source_hashes(seed: int) -> list[str]:
    hpl.reset_runtime()
    return [hashlib.sha256(kernel_zoo.kernel_source(k).encode()).hexdigest()
            for k in kernel_zoo.generate(seed, 3 * kernel_zoo.BATCH)]


def zoo_determinism_check() -> bool:
    first, again, other = source_hashes(11), source_hashes(11), \
        source_hashes(12)
    return first == again and len(set(first)) == len(first) \
        and not set(first) & set(other)


def environment_guard_check() -> bool:
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    env = dict(os.environ, HPL_ENGINE="jit")
    proc = subprocess.run([sys.executable, run, "--workload", "kernel-zoo",
                           "--seconds", "1"], env=env, capture_output=True,
                          timeout=120)
    return proc.returncode != 0 and not proc.stdout.strip()


CHECKS = {
    "perturbed zoo output counts as failed": zoo_reference_check,
    "perturbed cluster output counts as failed": cluster_cross_policy_check,
    "zoo sources: same seed same, other seed different":
        zoo_determinism_check,
    "guarded HPL_* variable refuses the run": environment_guard_check,
}


def main() -> int:
    hpl.configure(cache_dir=None)
    failed = 0
    for name, check in CHECKS.items():
        ok = check()
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
