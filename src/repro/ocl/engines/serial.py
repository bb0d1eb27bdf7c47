"""Per-work-item reference interpreter.

Executes work-groups one at a time; inside a group, every work-item runs
as a Python generator that yields when it reaches a ``barrier()``.  The
group driver advances all items to the barrier before any item proceeds —
real OpenCL barrier semantics, including detection of divergent barriers
(some items reach a barrier other items never execute), which the real
hardware turns into a hang.

This engine is deliberately simple and slow.  It exists as the correctness
oracle for :class:`~repro.ocl.engines.vector.VectorEngine` (the two are
differentially tested) and to run small problems in tests.  It is the
only engine that walks the typed tree IR, at every opt level: at ``-O1``
and up that is the tree the passes optimized, so the walker shares no
code with the lowering and a serial ``-O2`` vs ``-O0`` divergence points
at a pass.  Its counters follow C short-circuit semantics (``&&``,
``||`` and ``?:`` evaluate only the operand they select), unlike the
lock-step bytecode engines, which evaluate both sides.
"""

from __future__ import annotations

import numpy as np

from ... import prof, trace
from ...clc import ir as I
from ...clc.builtins import BUILTINS
from ...clc.types import DOUBLE, PointerType, ScalarType
from ...errors import InvalidKernelArgs, KernelLaunchError, OutOfResources
from ..costmodel import CostCounters
from .base import (ATOMIC_UFUNCS, GLOBAL_ID_KEYS, GROUP_ID_KEYS,
                   LOCAL_ID_KEYS, MAX_LOOP_ITERATIONS, BufferBinding,
                   LocalBinding, NDRange, ScalarBinding, check_args,
                   register_engine)
from .carith import c_div, c_imod, c_shl, c_shr, to_dtype

_MAX_LOOP_ITERATIONS = MAX_LOOP_ITERATIONS


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value=None) -> None:
        self.value = value
        super().__init__()


class _SMem:
    """Shared or private memory object (serial engine)."""

    __slots__ = ("array", "name")

    def __init__(self, array: np.ndarray, name: str) -> None:
        self.array = array
        self.name = name

    @property
    def size(self) -> int:
        return self.array.shape[-1]


class _ItemState:
    """Environment of one work-item inside one function activation."""

    def __init__(self, ids: dict, nd: NDRange) -> None:
        self.env: dict[str, object] = {}
        self.ids = ids
        self.nd = nd


@register_engine
class SerialEngine:
    """Execute a kernel launch one work-item at a time (with barriers)."""

    name = "serial"
    codegen_version = 0

    def __init__(self, program, spec) -> None:
        self.program = program
        self.spec = spec
        #: per-launch profiler collector; None whenever profiling is off
        self._col = None

    def run(self, kernel_name: str, args: list, global_size,
            local_size=None) -> CostCounters:
        kernel = self.program.functions.get(kernel_name)
        if kernel is None or not kernel.is_kernel:
            raise InvalidKernelArgs(f"no kernel named {kernel_name!r}")
        check_args(kernel, args, self.spec)
        nd = NDRange(global_size, local_size,
                     max_work_group_size=self.spec.max_work_group_size,
                     max_work_item_sizes=self.spec.max_work_item_sizes)
        self.nd = nd
        self.counters = CostCounters(work_items=nd.total_items,
                                     work_groups=nd.total_groups)
        ipg = nd.items_per_group

        self._col = prof.begin_launch(kernel_name, self.name, self.spec,
                                      getattr(self.program, "source", ""),
                                      nd.total_items, nd.total_groups)
        try:
            with trace.span("engine_run", category="simcl",
                            engine=self.name, kernel=kernel_name,
                            work_items=nd.total_items):
                with np.errstate(all="ignore"):
                    for group in range(nd.total_groups):
                        local_mems = self._make_local_mems(kernel, args)
                        gens = []
                        for within in range(ipg):
                            state = self._item_state(kernel, args,
                                                     group * ipg + within,
                                                     local_mems)
                            gens.append(self._exec_kernel(kernel, state))
                        self._drive_group(gens)
                prof.finish_launch(self._col, self.counters)
        finally:
            self._col = None
        return self.counters

    # -- group driving -------------------------------------------------------------

    def _drive_group(self, gens: list) -> None:
        live = list(range(len(gens)))
        while live:
            arrived: dict[int, object] = {}
            finished: list[int] = []
            for i in live:
                try:
                    arrived[i] = next(gens[i])
                except StopIteration:
                    finished.append(i)
            if arrived and finished:
                raise KernelLaunchError(
                    "barrier divergence: some work-items of a group "
                    "finished while others wait at a barrier")
            if arrived:
                stmts = set(id(s) for s in arrived.values())
                if len(stmts) > 1:
                    raise KernelLaunchError(
                        "barrier divergence: work-items of a group reached "
                        "different barrier() statements")
                self.counters.barriers += 1
                col = self._col
                if col is not None:
                    marker = next(iter(arrived.values()))
                    col.barrier(marker.line, 1)
            live = [i for i in live if i not in finished]
            if not arrived:
                break

    # -- setup ----------------------------------------------------------------------

    def _make_local_mems(self, kernel, args) -> dict[str, _SMem]:
        mems: dict[str, _SMem] = {}
        local_bytes = 0
        for param, arg in zip(kernel.params, args):
            if isinstance(arg, LocalBinding):
                elem = param.type.pointee
                nelems = arg.nbytes // elem.size
                local_bytes += arg.nbytes
                mems[param.name] = _SMem(
                    np.zeros(nelems, dtype=elem.np_dtype), param.name)
        # __local arrays declared in the body are created lazily per group
        self._group_local_decls: dict[str, _SMem] = {}
        if local_bytes > self.spec.local_mem_bytes:
            raise OutOfResources(
                f"work-group needs {local_bytes} B of local memory; "
                f"{self.spec.name} provides {self.spec.local_mem_bytes} B")
        return mems

    def _item_state(self, kernel, args, flat: int,
                    local_mems: dict[str, _SMem]) -> _ItemState:
        ids = self.nd.item_ids(flat)
        state = _ItemState(ids, self.nd)
        for param, arg in zip(kernel.params, args):
            if isinstance(arg, ScalarBinding):
                state.env[param.name] = param.type.np_dtype.type(arg.value)
            elif isinstance(arg, BufferBinding):
                state.env[param.name] = _SMem(arg.array, param.name)
            elif isinstance(arg, LocalBinding):
                state.env[param.name] = local_mems[param.name]
        state.group_local = self._group_local_decls
        return state

    # -- statement execution (generators yield at barriers) ---------------------------

    def _exec_kernel(self, kernel, state: _ItemState):
        try:
            yield from self._exec_block(kernel.body, state)
        except _ReturnSignal:
            pass

    def _exec_block(self, stmts: list, state: _ItemState):
        for stmt in stmts:
            yield from self._exec_stmt(stmt, state)

    def _exec_stmt(self, stmt, state: _ItemState):
        if isinstance(stmt, I.DeclVar):
            dtype = stmt.type.np_dtype
            value = (self._eval(stmt.init, state)
                     if stmt.init is not None else 0)
            state.env[stmt.name] = dtype.type(
                np.asarray(to_dtype(value, dtype)))
        elif isinstance(stmt, I.DeclArray):
            if stmt.space == "local":
                mem = state.group_local.get(stmt.name)
                if mem is None:
                    mem = _SMem(np.zeros(stmt.size,
                                         dtype=stmt.element.np_dtype),
                                stmt.name)
                    state.group_local[stmt.name] = mem
                state.env[stmt.name] = mem
            else:
                state.env[stmt.name] = _SMem(
                    np.zeros(stmt.size, dtype=stmt.element.np_dtype),
                    stmt.name)
        elif isinstance(stmt, I.Store):
            self._exec_store(stmt, state)
        elif isinstance(stmt, I.AtomicRMW):
            self._exec_atomic(stmt, state)
        elif isinstance(stmt, I.EvalExpr):
            self._eval(stmt.expr, state)
        elif isinstance(stmt, I.If):
            if self._truthy(self._eval(stmt.cond, state)):
                yield from self._exec_block(stmt.then, state)
            else:
                yield from self._exec_block(stmt.otherwise, state)
        elif isinstance(stmt, I.While):
            yield from self._exec_while(stmt, state)
        elif isinstance(stmt, I.Break):
            raise _BreakSignal()
        elif isinstance(stmt, I.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, I.Return):
            value = (self._eval(stmt.value, state)
                     if stmt.value is not None else None)
            raise _ReturnSignal(value)
        elif isinstance(stmt, I.BarrierStmt):
            yield stmt
        else:  # pragma: no cover
            raise KernelLaunchError(
                f"serial engine cannot execute {type(stmt).__name__}")

    def _exec_while(self, stmt: I.While, state: _ItemState):
        iterations = 0
        first = stmt.is_do_while
        while True:
            if not first and not self._truthy(self._eval(stmt.cond, state)):
                break
            first = False
            try:
                yield from self._exec_block(stmt.body, state)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            for u in stmt.update:
                yield from self._exec_stmt(u, state)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise KernelLaunchError(
                    f"loop at line {stmt.line} exceeded iteration limit")

    # -- stores ---------------------------------------------------------------------------

    def _exec_store(self, stmt: I.Store, state: _ItemState) -> None:
        value = self._eval(stmt.value, state)
        target = stmt.target
        if target.index is None:
            dtype = target.type.np_dtype
            state.env[target.name] = dtype.type(
                np.asarray(to_dtype(value, dtype)))
            return
        mem: _SMem = state.env[target.name]
        idx = int(self._eval(target.index, state))
        self._bounds(idx, mem, stmt.line)
        mem.array[idx] = np.asarray(to_dtype(value, mem.array.dtype))
        itemsize = mem.array.dtype.itemsize
        col = self._col
        if target.space in ("global", "constant"):
            self.counters.global_stores += 1
            self.counters.global_store_bytes += itemsize
            self.counters.global_store_transactions += 1
            if col is not None:
                col.mem(stmt.line, 1, itemsize, 1, True)
        elif target.space == "local":
            self.counters.local_accesses += 1
            if col is not None:
                col.local(stmt.line, 1)

    def _exec_atomic(self, stmt: I.AtomicRMW, state: _ItemState) -> None:
        mem: _SMem = state.env[stmt.target.name]
        idx = int(self._eval(stmt.target.index, state))
        self._bounds(idx, mem, stmt.line)
        dtype = mem.array.dtype
        val = (np.asarray(to_dtype(self._eval(stmt.value, state), dtype))
               if stmt.value is not None else dtype.type(1))
        op = stmt.op
        if op in ATOMIC_UFUNCS:
            mem.array[idx] = ATOMIC_UFUNCS[op](mem.array[idx], val)
        itemsize = dtype.itemsize
        col = self._col
        if stmt.target.space == "local":
            self.counters.local_accesses += 2
            if col is not None:
                col.local(stmt.line, 2)
        else:
            self.counters.global_loads += 1
            self.counters.global_stores += 1
            self.counters.global_load_bytes += itemsize
            self.counters.global_store_bytes += itemsize
            self.counters.global_load_transactions += 1
            self.counters.global_store_transactions += 1
            if col is not None:
                col.mem(stmt.line, 1, itemsize, 1, False)
                col.mem(stmt.line, 1, itemsize, 1, True)

    def _bounds(self, idx: int, mem: _SMem, line: int) -> None:
        if idx < 0 or idx >= mem.size:
            raise KernelLaunchError(
                f"access {mem.name}[{idx}] out of bounds "
                f"(size {mem.size}) at line {line}")

    # -- expressions ------------------------------------------------------------------------

    @staticmethod
    def _truthy(value) -> bool:
        return bool(value != 0)

    def _count(self, cost: float, type_, line: int = 0) -> None:
        is_double = isinstance(type_, ScalarType) and type_ is DOUBLE
        if is_double:
            self.counters.fp64_ops += cost
        else:
            self.counters.alu_ops += cost
        col = self._col
        if col is not None:
            col.op(line, 1, cost, is_double)

    def _eval(self, expr: I.Expr, state: _ItemState):
        if isinstance(expr, I.Const):
            return expr.type.np_dtype.type(expr.value)
        if isinstance(expr, I.Var):
            return state.env[expr.name]
        if isinstance(expr, I.Load):
            mem: _SMem = state.env[expr.base]
            idx = int(self._eval(expr.index, state))
            self._bounds(idx, mem, expr.line)
            itemsize = mem.array.dtype.itemsize
            col = self._col
            if expr.space in ("global", "constant"):
                self.counters.global_loads += 1
                self.counters.global_load_bytes += itemsize
                self.counters.global_load_transactions += 1
                if col is not None:
                    col.mem(expr.line, 1, itemsize, 1, False)
            elif expr.space == "local":
                self.counters.local_accesses += 1
                if col is not None:
                    col.local(expr.line, 1)
            else:
                self.counters.alu_ops += 1
                if col is not None:
                    col.op(expr.line, 1, 1.0, False)
            return mem.array[idx]
        if isinstance(expr, I.Convert):
            self._count(1.0, expr.type, expr.line)
            return expr.type.np_dtype.type(
                np.asarray(to_dtype(self._eval(expr.operand, state),
                                    expr.type.np_dtype)))
        if isinstance(expr, I.Unary):
            operand = self._eval(expr.operand, state)
            self._count(1.0, expr.type, expr.line)
            if expr.op == "-":
                return expr.type.np_dtype.type(
                    np.asarray(to_dtype(-operand, expr.type.np_dtype)))
            if expr.op == "~":
                return expr.type.np_dtype.type(~operand)
            return np.int32(0 if self._truthy(operand) else 1)
        if isinstance(expr, I.Binary):
            return self._eval_binary(expr, state)
        if isinstance(expr, I.Select):
            cond = self._truthy(self._eval(expr.cond, state))
            self._count(1.0, expr.type, expr.line)
            branch = expr.then if cond else expr.otherwise
            return self._eval(branch, state)
        if isinstance(expr, I.CallBuiltin):
            return self._eval_builtin(expr, state)
        if isinstance(expr, I.CallFunction):
            return self._eval_call(expr, state)
        raise KernelLaunchError(
            f"serial engine cannot evaluate {type(expr).__name__}")

    def _eval_binary(self, expr: I.Binary, state: _ItemState):
        op = expr.op
        if op == "&&":
            # genuine short-circuit, unlike the lock-step vector engine
            self._count(1.0, expr.type, expr.line)
            if not self._truthy(self._eval(expr.lhs, state)):
                return np.int32(0)
            return np.int32(1 if self._truthy(self._eval(expr.rhs, state))
                            else 0)
        if op == "||":
            self._count(1.0, expr.type, expr.line)
            if self._truthy(self._eval(expr.lhs, state)):
                return np.int32(1)
            return np.int32(1 if self._truthy(self._eval(expr.rhs, state))
                            else 0)
        lhs = self._eval(expr.lhs, state)
        rhs = self._eval(expr.rhs, state)
        self._count(1.0, expr.type, expr.line)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            table = {"==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
                     ">": lhs > rhs, "<=": lhs <= rhs, ">=": lhs >= rhs}
            return np.int32(1 if table[op] else 0)
        dtype = expr.type.np_dtype
        if op == "+":
            result = lhs + rhs
        elif op == "-":
            result = lhs - rhs
        elif op == "*":
            result = lhs * rhs
        elif op == "/":
            result = c_div(lhs, rhs, expr.type.is_float)
        elif op == "%":
            result = c_imod(lhs, rhs)
        elif op == "<<":
            result = c_shl(lhs, rhs)
        elif op == ">>":
            result = c_shr(lhs, rhs)
        elif op == "&":
            result = lhs & rhs
        elif op == "|":
            result = lhs | rhs
        elif op == "^":
            result = lhs ^ rhs
        else:  # pragma: no cover
            raise KernelLaunchError(f"unknown binary {op!r}")
        return dtype.type(np.asarray(to_dtype(result, dtype)))

    def _eval_builtin(self, expr: I.CallBuiltin, state: _ItemState):
        name = expr.name
        if name.startswith("get_"):
            dim = int(expr.args[0].value) if expr.args else 0
            if name == "get_work_dim":
                return np.int32(self.nd.dim)
            if name == "get_global_offset":
                return np.int64(0)
            key = {"get_global_id": GLOBAL_ID_KEYS,
                   "get_local_id": LOCAL_ID_KEYS,
                   "get_group_id": GROUP_ID_KEYS}.get(name)
            if key is not None:
                return np.int64(state.ids[key[dim]])
            return np.int64(self.nd.size_of(name, dim))
        b = BUILTINS[name]
        args = [self._eval(a, state) for a in expr.args]
        self._count(b.cost, expr.type, expr.line)
        return expr.type.np_dtype.type(
            np.asarray(to_dtype(b.impl(*args), expr.type.np_dtype)))

    def _eval_call(self, expr: I.CallFunction, state: _ItemState):
        func = self.program.functions[expr.name]
        fstate = _ItemState(state.ids, self.nd)
        fstate.group_local = state.group_local
        for param, arg in zip(func.params, expr.args):
            if isinstance(param.type, PointerType):
                fstate.env[param.name] = state.env[arg.name]
            else:
                fstate.env[param.name] = param.type.np_dtype.type(
                    np.asarray(to_dtype(self._eval(arg, state),
                                        param.type.np_dtype)))
        gen = self._exec_block(func.body, fstate)
        try:
            for _ in gen:
                raise KernelLaunchError(
                    "barrier() executed inside a helper function")
        except _ReturnSignal as ret:
            if func.return_type.is_void:
                return np.int32(0)
            return func.return_type.np_dtype.type(
                np.asarray(to_dtype(ret.value, func.return_type.np_dtype)))
        if func.return_type.is_void:
            return np.int32(0)
        raise KernelLaunchError(
            f"helper {func.name!r} fell off the end without returning")
