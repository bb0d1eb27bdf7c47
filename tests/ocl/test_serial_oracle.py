"""The serial engine's contract as the pipeline's oracle: it walks the
typed tree at every opt level (the optimized tree at ``-O1`` and up),
never the lowered bytecode, and counts with C short-circuit semantics."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

import repro.ocl as cl
from repro.ocl import TESLA_C2050
from repro.ocl.engines import serial as serial_mod
from tests.conftest import run_cl_kernel

# `n < 0` is false on every item, so C never evaluates `x[i] > 0`
SHORT_CIRCUIT = """__kernel void sc(__global int* y, __global const int* x,
                 int n)
{
    int i = get_global_id(0);
    if (n < 0 && x[i] > 0) {
        y[i] = 1;
    }
    y[i] = y[i] + (n > 0 || x[i] > 0);
}
"""


def _run(options):
    n = 32
    y = np.zeros(n, np.int32)
    x = np.arange(n, dtype=np.int32)
    event = run_cl_kernel(cl.Device(TESLA_C2050, "serial"), SHORT_CIRCUIT,
                          "sc", [y, x, np.int32(n)], (n,), options=options)
    return y, event.counters


def test_o2_counts_short_circuit_like_o0():
    """The right side of a false `&&` (and of a true `||`) is neither
    executed nor charged at -O2, exactly as at -O0."""
    y0, c0 = _run("-cl-opt-disable")
    y2, c2 = _run("-O2")
    assert y2.tobytes() == y0.tobytes()
    np.testing.assert_array_equal(y2, np.ones(32, np.int32))
    assert c2.alu_ops == c0.alu_ops
    assert c2.global_loads == c0.global_loads
    assert c2.global_load_bytes == c0.global_load_bytes


def test_serial_engine_does_not_use_the_lowering():
    """The oracle shares no code with the bytecode lowering it checks."""
    path = Path(serial_mod.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            assert not module.endswith("clc.lower"), (
                f"{path.name}:{node.lineno} imports {module}")
            assert "lower" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("clc.lower")
                           for a in node.names)
        elif isinstance(node, ast.Name):
            assert node.id != "linked_entry"
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ("linked_entry", "bytecode")
