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
only engine that walks the typed tree IR, and only for ``-O0`` builds:
that walker shares no code with the lowering, which is what makes it an
independent reference.  At ``-O1`` and up it runs the program's
bytecode.
"""

from __future__ import annotations

import numpy as np

from ... import prof, trace
from ...clc import ir as I
from ...clc.builtins import BUILTINS
from ...clc.lower import (L_A, L_AUX, L_B, L_C, L_DST,
                          L_ISDBL, L_ISFLOAT, L_LINE, L_NP, L_SCOST,
                          OP_ADD, OP_ATOMIC,
                          OP_BARRIER, OP_BNOT, OP_BREAK,
                          OP_BUILTIN, OP_BXOR, OP_CALL, OP_CAST, OP_CASTF,
                          OP_CEQ,
                          OP_CONST, OP_CONTINUE, OP_DECLARR,
                          OP_IF, OP_LD, OP_LNOT, OP_LOOP,
                          OP_LOR,
                          OP_MOV, OP_NEG, OP_RET, OP_SELECT,
                          OP_ST, OP_WIQ,
                          SPACE_GLOBAL, SPACE_LOCAL)
from ...clc.types import DOUBLE, SCALAR_TYPES, PointerType, ScalarType
from ...errors import InvalidKernelArgs, KernelLaunchError, OutOfResources
from ..costmodel import CostCounters
from .base import (ATOMIC_UFUNCS, GLOBAL_ID_KEYS, GROUP_ID_KEYS,
                   LOCAL_ID_KEYS, MAX_LOOP_ITERATIONS, BufferBinding,
                   LocalBinding, NDRange, ScalarBinding, check_args,
                   linked_entry, register_engine, wiq_value)
from .carith import (binary_value, c_div, c_imod, c_shl, c_shr,
                     compare_value, to_dtype)

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

        entry = None
        if self.program.opt_level >= 1:
            self._linked, entry = linked_entry(self.program, kernel_name)
        self._col = prof.begin_launch(kernel_name, self.name, self.spec,
                                      getattr(self.program, "source", ""),
                                      nd.total_items, nd.total_groups)
        try:
            with trace.span("engine_run", category="simcl",
                            engine=self.name, kernel=kernel_name,
                            work_items=nd.total_items,
                            bytecode=entry is not None):
                with np.errstate(all="ignore"):
                    if entry is not None:
                        self._run_bytecode(entry, kernel, args)
                    else:
                        for group in range(nd.total_groups):
                            local_mems = self._make_local_mems(kernel,
                                                               args)
                            gens = []
                            for within in range(ipg):
                                flat = group * ipg + within
                                state = self._item_state(kernel, args,
                                                         flat, local_mems)
                                gens.append(self._exec_kernel(kernel,
                                                              state))
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
                    line = (marker[L_LINE] if isinstance(marker, tuple)
                            else getattr(marker, "line", 0))
                    col.barrier(line, 1)
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
        for name in kernel.local_arrays:
            pass  # allocated on first DeclArray execution per group
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

    # -- bytecode interpreter (O1+) ------------------------------------------
    #
    # Same observable semantics as the tree walker above (O0) — identical
    # numerics (every result goes through the same to_dtype coercions),
    # identical memory/barrier counters, generators still yield at
    # barriers so _drive_group keeps detecting divergence — but one flat
    # dispatch per instruction instead of isinstance chains per node.

    def _run_bytecode(self, entry, kernel, args) -> None:
        code, kbc = entry
        nd = self.nd
        ipg = nd.items_per_group
        scalar_binds = []
        buffer_binds = []
        local_params = []
        for p, arg in zip(kbc.params, args):
            if p[0] == "scalar":
                dtype = SCALAR_TYPES[p[2]].np_dtype
                scalar_binds.append((p[3], dtype.type(arg.value)))
            elif isinstance(arg, BufferBinding):
                buffer_binds.append((p[3], _SMem(arg.array, p[1])))
            else:
                local_params.append((p[3], p[1]))
        for group in range(nd.total_groups):
            local_mems = self._make_local_mems(kernel, args)
            group_decls: dict[int, _SMem] = {}
            gens = []
            for within in range(ipg):
                flat = group * ipg + within
                gens.append(self._bc_item(code, kbc, flat, scalar_binds,
                                          buffer_binds, local_params,
                                          local_mems, group_decls))
            self._drive_group(gens)

    def _bc_item(self, code, kbc, flat, scalar_binds, buffer_binds,
                 local_params, local_mems, group_decls):
        regs: list = [None] * kbc.n_regs
        mems: list = [None] * kbc.n_mems
        for reg, value in scalar_binds:
            regs[reg] = value
        for slot, mem in buffer_binds:
            mems[slot] = mem
        for slot, name in local_params:
            mems[slot] = local_mems[name]
        ids = self.nd.item_ids(flat)
        try:
            yield from self._bc_span(code, 0, len(code), regs, mems, ids,
                                     group_decls)
        except _ReturnSignal:
            pass

    def _bc_span(self, code, pos, end, regs, mems, ids, gl):
        counters = self.counters
        col = self._col
        while pos < end:
            ins = code[pos]
            op = ins[0]
            if OP_ADD <= op <= OP_BXOR:
                result = binary_value(op, regs[ins[L_A]], regs[ins[L_B]],
                                      ins[L_ISFLOAT])
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(result, dtype)))
                if ins[L_ISDBL]:
                    counters.fp64_ops += 1.0
                else:
                    counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
            elif OP_CEQ <= op <= OP_LOR:
                r = compare_value(op, regs[ins[L_A]], regs[ins[L_B]])
                regs[ins[L_DST]] = np.int32(1) if r else np.int32(0)
                counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, False)
            elif op == OP_MOV:
                regs[ins[L_DST]] = regs[ins[L_A]]
            elif op == OP_LD:
                slot, space = ins[L_AUX]
                mem: _SMem = mems[slot]
                idx = int(regs[ins[L_B]])
                self._bounds(idx, mem, ins[L_LINE])
                if space == SPACE_GLOBAL:
                    itemsize = mem.array.dtype.itemsize
                    counters.global_loads += 1
                    counters.global_load_bytes += itemsize
                    counters.global_load_transactions += 1
                    if col is not None:
                        col.mem(ins[L_LINE], 1, itemsize, 1, False)
                elif space == SPACE_LOCAL:
                    counters.local_accesses += 1
                    if col is not None:
                        col.local(ins[L_LINE], 1)
                else:
                    counters.alu_ops += 1
                    if col is not None:
                        col.op(ins[L_LINE], 1, 1.0, False)
                regs[ins[L_DST]] = mem.array[idx]
            elif op == OP_ST:
                value = regs[ins[L_C]]
                slot, space = ins[L_AUX]
                mem = mems[slot]
                idx = int(regs[ins[L_B]])
                self._bounds(idx, mem, ins[L_LINE])
                mem.array[idx] = np.asarray(to_dtype(value,
                                                     mem.array.dtype))
                if space == SPACE_GLOBAL:
                    itemsize = mem.array.dtype.itemsize
                    counters.global_stores += 1
                    counters.global_store_bytes += itemsize
                    counters.global_store_transactions += 1
                    if col is not None:
                        col.mem(ins[L_LINE], 1, itemsize, 1, True)
                elif space == SPACE_LOCAL:
                    counters.local_accesses += 1
                    if col is not None:
                        col.local(ins[L_LINE], 1)
            elif op == OP_CASTF or op == OP_CAST:
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(regs[ins[L_A]], dtype)))
                if op == OP_CAST:
                    if ins[L_ISDBL]:
                        counters.fp64_ops += 1.0
                    else:
                        counters.alu_ops += 1.0
                    if col is not None:
                        col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
            elif op == OP_CONST:
                regs[ins[L_DST]] = ins[L_AUX]
            elif op == OP_SELECT:
                if ins[L_ISDBL]:
                    counters.fp64_ops += 1.0
                else:
                    counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
                regs[ins[L_DST]] = (regs[ins[L_B]]
                                    if regs[ins[L_A]] != 0
                                    else regs[ins[L_C]])
            elif op == OP_NEG:
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(-regs[ins[L_A]], dtype)))
                if ins[L_ISDBL]:
                    counters.fp64_ops += 1.0
                else:
                    counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
            elif op == OP_BNOT:
                regs[ins[L_DST]] = ins[L_NP].type(~regs[ins[L_A]])
                counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, False)
            elif op == OP_LNOT:
                regs[ins[L_DST]] = (np.int32(0) if regs[ins[L_A]] != 0
                                    else np.int32(1))
                counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, False)
            elif op == OP_WIQ:
                qcode, dim, name = ins[L_AUX]
                value = wiq_value(qcode, dim, name, ids, self.nd)
                regs[ins[L_DST]] = ins[L_NP].type(value)
            elif op == OP_BUILTIN:
                impl, arg_regs, _name = ins[L_AUX]
                bargs = [regs[r] for r in arg_regs]
                if ins[L_ISDBL]:
                    counters.fp64_ops += ins[L_SCOST]
                else:
                    counters.alu_ops += ins[L_SCOST]
                if col is not None:
                    col.op(ins[L_LINE], 1, ins[L_SCOST], ins[L_ISDBL])
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(impl(*bargs), dtype)))
            elif op == OP_IF:
                tlen, elen = ins[L_AUX]
                body = pos + 1
                if regs[ins[L_A]] != 0:
                    yield from self._bc_span(code, body, body + tlen,
                                             regs, mems, ids, gl)
                else:
                    yield from self._bc_span(code, body + tlen,
                                             body + tlen + elen,
                                             regs, mems, ids, gl)
                pos = body + tlen + elen
                continue
            elif op == OP_LOOP:
                clen, blen, ulen, is_do = ins[L_AUX]
                cond_start = pos + 1
                body_start = cond_start + clen
                upd_start = body_start + blen
                end_pos = upd_start + ulen
                creg = ins[L_A]
                first = is_do
                iterations = 0
                while True:
                    if not first:
                        yield from self._bc_span(code, cond_start,
                                                 body_start, regs, mems,
                                                 ids, gl)
                        if not regs[creg] != 0:
                            break
                    first = False
                    try:
                        yield from self._bc_span(code, body_start,
                                                 upd_start, regs, mems,
                                                 ids, gl)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        pass
                    if ulen:
                        yield from self._bc_span(code, upd_start, end_pos,
                                                 regs, mems, ids, gl)
                    iterations += 1
                    if iterations > _MAX_LOOP_ITERATIONS:
                        raise KernelLaunchError(
                            f"loop at line {ins[L_LINE]} exceeded "
                            f"iteration limit")
                pos = end_pos
                continue
            elif op == OP_BARRIER:
                yield ins
            elif op == OP_ATOMIC:
                self._bc_atomic(ins, regs, mems)
            elif op == OP_DECLARR:
                slot, size, np_dtype, space, name, _nbytes = ins[L_AUX]
                if space == SPACE_LOCAL:
                    mem = gl.get(slot)
                    if mem is None:
                        mem = _SMem(np.zeros(size, dtype=np_dtype), name)
                        gl[slot] = mem
                    mems[slot] = mem
                else:
                    mems[slot] = _SMem(np.zeros(size, dtype=np_dtype),
                                       name)
            elif op == OP_CALL:
                yield from self._bc_call(ins, regs, mems, ids, gl)
            elif op == OP_BREAK:
                raise _BreakSignal()
            elif op == OP_CONTINUE:
                raise _ContinueSignal()
            elif op == OP_RET:
                raise _ReturnSignal(regs[ins[L_A]]
                                    if ins[L_A] >= 0 else None)
            else:  # pragma: no cover
                raise KernelLaunchError(f"bad opcode {op}")
            pos += 1

    def _bc_atomic(self, ins, regs, mems) -> None:
        opstr, slot, space = ins[L_AUX]
        mem: _SMem = mems[slot]
        idx = int(regs[ins[L_B]])
        self._bounds(idx, mem, ins[L_LINE])
        dtype = mem.array.dtype
        val = (np.asarray(to_dtype(regs[ins[L_C]], dtype))
               if ins[L_C] >= 0 else dtype.type(1))
        if opstr in ATOMIC_UFUNCS:
            mem.array[idx] = ATOMIC_UFUNCS[opstr](mem.array[idx], val)
        counters = self.counters
        col = self._col
        if space == SPACE_LOCAL:
            counters.local_accesses += 2
            if col is not None:
                col.local(ins[L_LINE], 2)
        else:
            itemsize = dtype.itemsize
            counters.global_loads += 1
            counters.global_stores += 1
            counters.global_load_bytes += itemsize
            counters.global_store_bytes += itemsize
            counters.global_load_transactions += 1
            counters.global_store_transactions += 1
            if col is not None:
                col.mem(ins[L_LINE], 1, itemsize, 1, False)
                col.mem(ins[L_LINE], 1, itemsize, 1, True)

    def _bc_call(self, ins, regs, mems, ids, gl):
        fname, binds, ret_np = ins[L_AUX]
        ccode, ckbc = self._linked[fname]
        cregs: list = [None] * ckbc.n_regs
        cmems: list = [None] * ckbc.n_mems
        for bind in binds:
            if bind[0] == "mem":
                cmems[bind[2]] = mems[bind[1]]
            else:
                pdt = bind[3]
                cregs[bind[2]] = pdt.type(
                    np.asarray(to_dtype(regs[bind[1]], pdt)))
        gen = self._bc_span(ccode, 0, len(ccode), cregs, cmems, ids, gl)
        try:
            for _ in gen:
                raise KernelLaunchError(
                    "barrier() executed inside a helper function")
        except _ReturnSignal as ret:
            if ret_np is None:
                regs[ins[L_DST]] = np.int32(0)
            else:
                regs[ins[L_DST]] = ret_np.type(
                    np.asarray(to_dtype(ret.value, ret_np)))
            return
        if ret_np is not None:
            raise KernelLaunchError(
                f"helper {fname!r} fell off the end without returning")
        regs[ins[L_DST]] = np.int32(0)
        return
        yield  # pragma: no cover - makes this a generator like _bc_span
