"""Source-emitting backend for mini-C: mini-C in, Python source out.

The tree-walking interpreter dispatches ``getattr(self, f"_eval_...")``
per AST node and signals ``break``/``continue``/``return`` with
exceptions — per-*record* costs that dominate wall-clock on the map and
combine hot paths. This module is the paper's source-to-source move
applied to the host language: it walks a :class:`~repro.minic.cast.Program`
**once**, emits Python source for each mini-C function (or kernel body /
spine statement), and lets CPython's own compiler do the rest.

Every ``_stmt_*``/``_expr_*`` method of :class:`_FunctionCompiler`
returns Python source plus the :class:`_Counts` it owes; the
``_flushed_stmt`` / ``_flushed_cond`` entry points (and
``_compile_function``) *materialise* a subtree into **one**
``compile()``d function — a *unit* — with the signature ``fn(rt, frame)``
(``fn(rt, args)`` for whole mini-C functions). Inside a unit:

* scalars declared in a scope the unit fully contains, whose address
  never escapes (no ``&x`` anywhere in the unit), are plain Python
  locals (``v7``); address-taken scalars and arrays declared there are
  Python locals holding a :class:`~repro.minic.values.Cell` (``x7``);
  everything else — free variables, kernel variables, declarations
  whose scope outlives the unit (the GPU warp spine's) — stays a Cell
  in the flat ``frame`` list, bound lazily so an unreachable undeclared
  name never raises;
* loops are native ``while True:`` with the step budget inline, and
  ``break``/``continue`` are native too (sentinel returns only cross
  unit boundaries);
* :class:`~repro.minic.interpreter.ExecCounters` accounting is batched
  per basic block and counted at the block head: straight-line
  ``c.ops += n`` outside loops; inside an in-unit loop one local tick
  ``bN += 1`` per block (blocks with equal counts share ``bN``), which
  the unit's ``try:`` … ``finally:`` folds into ``c`` as ``Σ n × bN``
  once per unit run, also when the run raises. This rests on one
  invariant: nothing reads ``ExecCounters`` while a unit runs — its
  readers (``costmodel/cpu.py``, the ``gpu/executor.py`` folds after a
  launch, the fuzz oracle) look only after the run;
* a call site of a declared builtin (:data:`repro.minic.stdlib.SIGNATURES`)
  looks the name up in ``rt.builtins`` once per unit run and calls the
  typed function it finds positionally — ``g(rt, a, b)``: no argument
  list, and a typed scalar's ``&x`` passed as its bare Cell where the
  signature takes one. A wrong static arity compiles to a raise of
  :func:`~repro.minic.stdlib.arity_error`'s text instead. A name the
  table lacks (a host program's own ``emitKV``) and an undeclared name
  call the user function, with an argument list;
* the host calls in :data:`_HOST_INLINE_CALLS` run straight-line where
  the emitter proves their operands fit — ``printf``/``scanf`` with a
  string-literal format, ``strcmp`` of two non-null pointers (whose
  texts, like a ``printf``'s ``%s`` of one, come off the buffer's
  decode cache, else ``Buffer.c_string``) — guarded
  once per unit run by ``rt.builtins[name] is <the host entry>`` (GPU
  builtin tables replace those names, so they take the call above).

**Nothing from the program text reaches the generated source**: names
are slot-indexed, and literals, ctypes and messages travel through the
unit's exec globals (``k3``). Only emitter-chosen text (fixed operator
spellings, slot numbers, counts) is interpolated.

Counter totals and functional outputs are bit-identical to the
tree-walker for runs that complete; aborted runs (``CRuntimeError``)
may differ only in counts attributable to the aborted basic block.

``rt`` is the run's one execution context, and generated code passes
it on unchanged as the first argument of every builtin, user function
and access charge: the :class:`~repro.minic.interpreter.Interpreter` on
the host, the lane's :class:`~repro.gpu.engine.Lane` on the device.
Nothing is copied out of it or back into it; the attributes a unit may
read are the context protocol stated next to ``Lane``.

The public entry points are :class:`CompiledProgram` (whole programs,
``main()``-style execution against an ``Interpreter``) and
:class:`CompiledSuite` (a single statement run over a caller-built
frame against a GPU lane — the kernel-body case). Both are cached per
program / per statement by :mod:`repro.minic.cache`.
Each unit's source is registered in :mod:`linecache` as
``<minic:PROGRAM_KEY:unit>``, so tracebacks and profiles through
generated code show the emitted line.
"""

from __future__ import annotations

import linecache
import weakref
from typing import Any, Callable

from ..errors import CRuntimeError
from . import cast as A
from . import ctypes as T
from .stdlib import (
    _SCAN_PAIR_RES,
    HOST_BUILTINS,
    SIGNATURES,
    _as_str,
    _compile_format,
    _render_int,
    _scan_convs,
    _store_out,
    arity_error,
    c_scan,
)
from .values import (
    NULL,
    Buffer,
    Cell,
    Ptr,
    ScalarRef,
    as_ptr,
    as_ref,
    c_div,
    c_mod,
    float_to_int,
    ptr_binop,
    truthy,
)

# --------------------------------------------------------------------------
# Control-flow sentinels
# --------------------------------------------------------------------------

#: A statement unit returns None (fell through), one of these two
#: sentinels, or a _Return box — only when the jump's target lies
#: outside the unit (the warp spine's per-statement units). Jumps whose
#: target is inside the unit are native Python control flow.
_BREAK = object()
_CONT = object()


class _Return:
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


_RETURN_NONE = _Return(None)


# --------------------------------------------------------------------------
# Batched counter accounting
# --------------------------------------------------------------------------


class _Counts:
    """Compile-time accumulator of unconditional counter increments."""

    __slots__ = ("ops", "loads", "stores", "branches", "calls", "fp_ops")

    def __init__(self) -> None:
        self.ops = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.calls = 0
        self.fp_ops = 0

    def add(self, other: "_Counts") -> None:
        for attr in _Counts.__slots__:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))


# --------------------------------------------------------------------------
# Run-time support the generated code calls (tree-walker semantics)
# --------------------------------------------------------------------------


def _mk_binop(op: str, apply: Callable[[Any, Any], Any]) -> Callable:
    # The dynamic tail of a binary operator, for operands whose class the
    # emitter could not prove: fp check precedes pointer dispatch,
    # exactly like Interpreter._binop.
    def binop(rt: Any, left: Any, right: Any) -> Any:
        if isinstance(left, float) or isinstance(right, float):
            rt.counters.fp_ops += 1
        if isinstance(left, Ptr) or isinstance(right, Ptr):
            return ptr_binop(op, left, right)
        return apply(left, right)

    return binop


_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")

_BINOPS: dict[str, Callable] = {
    op: _mk_binop(op, fn) for op, fn in {
        "+": lambda l, r: l + r,
        "-": lambda l, r: l - r,
        "*": lambda l, r: l * r,
        "/": c_div,
        "%": c_mod,
        "==": lambda l, r: int(l == r),
        "!=": lambda l, r: int(l != r),
        "<": lambda l, r: int(l < r),
        ">": lambda l, r: int(l > r),
        "<=": lambda l, r: int(l <= r),
        ">=": lambda l, r: int(l >= r),
        "&": lambda l, r: int(l) & int(r),
        "|": lambda l, r: int(l) | int(r),
        "^": lambda l, r: int(l) ^ int(r),
        "<<": lambda l, r: int(l) << int(r),
        ">>": lambda l, r: int(l) >> int(r),
    }.items()
}


def _binop_fn(op: str) -> Callable:
    try:
        return _BINOPS[op]
    except KeyError:
        raise CRuntimeError(f"unsupported operator {op!r}") from None


def _cast_int(value: Any, is_char: bool) -> int:
    if isinstance(value, float):
        return float_to_int(value)
    if is_char:
        return int(value) & 0xFF
    return int(value)


def _step(value: Any, delta: int) -> Any:
    return value.add(delta) if value.__class__ is Ptr else value + delta


def _over_budget(max_steps: int) -> None:
    raise CRuntimeError(
        f"execution exceeded {max_steps} steps (runaway loop?)"
    )


def _bad_arity(name: str, nparams: int, nargs: int) -> None:
    raise CRuntimeError(f"{name}() expects {nparams} args, got {nargs}")


def _user_function(rt: Any, name: str) -> Callable:
    func = rt.funcs.get(name)
    if func is None:
        raise CRuntimeError(f"call to undefined function {name!r}")
    return func


# Cells the emitter knows nothing static about (array names used as
# scalars, untyped free variables): a Buffer-valued cell keeps the
# tree-walker's Ptr(buf, 0) ref semantics — element 0 store,
# buffer-coerced read-back, charge against the buffer.


def _cell_ref(cell: Cell) -> Ptr | ScalarRef:
    value = cell.value
    return Ptr(value, 0) if value.__class__ is Buffer else ScalarRef(cell)


def _cell_assign(rt: Any, cell: Cell, binop: Callable | None,
                 value: Any) -> Any:
    """``x = value`` (``binop`` None) or ``x op= value``; returns the
    stored value. The current value is read after the rhs was evaluated
    (tree-walker order)."""
    held = cell.value
    charge = rt.charge
    if held.__class__ is Buffer:
        if binop is not None:
            value = binop(rt, held.read(0), value)
        held.write(0, value)
        if charge is not None:
            charge(rt, held, True)
        return held.read(0)
    if binop is not None:
        value = binop(rt, held, value)
    ScalarRef(cell).store(value)  # coerces through the cell's ctype
    if charge is not None:
        charge(rt, None, True)
    return cell.value


def _cell_incdec(cell: Cell, delta: int, post: bool) -> Any:
    """``x++``/``--x``; the pre-coercion value is returned exactly as
    the tree-walker's ref.store/return order produces it."""
    held = cell.value
    if held.__class__ is Buffer:
        value = held.read(0)
        new = _step(value, delta)
        held.write(0, new)
        return value if post else new
    new = _step(held, delta)
    ScalarRef(cell).store(new)
    return held if post else new


def _param_coerce(ctype: T.CType) -> Callable[[Any], Any]:
    if ctype.is_float:
        return lambda a: a if isinstance(a, (Ptr, Buffer)) else float(a)
    if ctype.is_integer:
        return lambda a: a if isinstance(a, (Ptr, Buffer)) else int(a)
    return lambda a: a


#: Names every unit's exec globals start from. Constants derived from
#: the program (literals, messages, ctypes) are added per unit as ``kN``.
_UNIT_GLOBALS: dict[str, Any] = {
    "CRuntimeError": CRuntimeError, "Buffer": Buffer, "Cell": Cell,
    "Ptr": Ptr, "ScalarRef": ScalarRef, "NULL": NULL, "truthy": truthy,
    "float_to_int": float_to_int, "_BREAK": _BREAK, "_CONT": _CONT,
    "_Return": _Return, "_RETURN_NONE": _RETURN_NONE,
    "_c_div": c_div, "_c_mod": c_mod, "_as_ptr": as_ptr,
    "_as_ref": as_ref, "_cast_int": _cast_int, "_step": _step,
    "_over_budget": _over_budget, "_bad_arity": _bad_arity,
    "_user_function": _user_function,
    "_cell_ref": _cell_ref, "_cell_assign": _cell_assign,
    "_cell_incdec": _cell_incdec, "_as_str": _as_str,
    "_store_out": _store_out, "c_scan": c_scan,
}

#: Unit-local names bound from ``rt`` on demand, in this order.
_RT_LOCALS = {
    "c": "c = rt.counters",
    "charge": "charge = rt.charge",
    "max_steps": "max_steps = rt.max_steps",
    "builtins": "builtins = rt.builtins",
}

#: Host builtins whose call sites the emitter renders straight-line when
#: it can prove the operands fit, taken when the unit runs against these
#: host table entries: name → (entry, the emitter method that renders
#: the call, or returns None to keep the generic call).
_HOST_INLINE_CALLS = {"printf": (HOST_BUILTINS["printf"], "_printf_lines"),
                      "scanf": (HOST_BUILTINS["scanf"], "_scanf_lines"),
                      "strcmp": (HOST_BUILTINS["strcmp"], "_strcmp_lines")}


# --------------------------------------------------------------------------
# Emission data
# --------------------------------------------------------------------------


class _Ex:
    """One emitted expression: ``pre`` statements that must run first,
    then ``src``, a side-effect-free Python expression for the value.

    ``kind`` is what the emitter can prove about the value's class:
    ``"i"``/``"f"`` exact int/float, ``"p"`` a non-null :class:`Ptr`,
    None unknown. ``stable`` marks a src no later statement can change
    (a constant or a single-assignment temp). ``test`` is an optional
    Python boolean expression equal to the value's C truthiness.
    ``cell`` names the Cell (and its declared ctype) a ``&x`` src wraps,
    so a consumer may store through it without building the ScalarRef.
    """

    __slots__ = ("pre", "src", "kind", "stable", "test", "cell")

    def __init__(self, src: str, kind: str | None = None,
                 pre: list[str] | None = None, stable: bool = False,
                 test: str | None = None,
                 cell: tuple[str, T.CType] | None = None):
        self.pre = pre if pre is not None else []
        self.src = src
        self.kind = kind
        self.stable = stable
        self.test = test
        self.cell = cell


class _Var:
    """Where one declared or free name lives, per frame slot."""

    __slots__ = ("slot", "name", "ctype", "store", "exact")

    def __init__(self, slot: int, name: str, ctype: T.CType | None,
                 store: str, exact: bool):
        self.slot = slot
        self.name = name
        #: Declared ctype every store coerces through, or None when the
        #: cell's ctype is only known at run time.
        self.ctype = ctype
        #: "local" (Python local holding the value), "cell" (Python
        #: local holding a Cell) or "frame" (Cell in the frame list).
        self.store = store
        #: The held value's class is an invariant of the declared ctype
        #: (declarations compiled here; not parameters or kernel frees).
        self.exact = exact

    @property
    def py(self) -> str:
        """The unit-local Python name: the value itself (``v7``), or the
        Cell (``x7``; ``f7`` once bound from the frame)."""
        return f"{self.store[0] if self.store != 'cell' else 'x'}{self.slot}"

    @property
    def is_array(self) -> bool:
        return isinstance(self.ctype, T.Array)

    @property
    def kind(self) -> str | None:
        return _scalar_kind(self.ctype) if self.exact else None


def _scalar_kind(ctype: T.CType | None) -> str | None:
    if ctype is None or isinstance(ctype, (T.Array, T.Pointer)):
        return None
    if ctype.is_integer:
        return "i"
    if ctype.is_float:
        return "f"
    return None


class _Unit:
    """State of one materialisation: exec globals, prologue, temps."""

    def __init__(self, root: A.Node, base: int, is_function: bool):
        self.env: dict[str, Any] = dict(_UNIT_GLOBALS)
        self._const_names: dict[Any, str] = {}
        #: local name → prologue line, in first-use order.
        self.prologue: dict[str, str] = {}
        self.ntemps = 0
        #: len(compiler.scopes) at entry: deeper scopes die with the unit.
        self.base = base
        self.is_function = is_function
        #: Names under ``&`` anywhere in the unit (name-level, so a
        #: shadowing redeclaration is conservatively a Cell too).
        self.addr_taken = {
            n.operand.name for n in root.walk()
            if isinstance(n, A.UnaryOp) and n.op == "&"
            and isinstance(n.operand, A.Ident)
        }
        #: Innermost-last stack of in-unit loops: the lines a
        #: ``continue`` must run first (a for loop's step).
        self.loops: list[list[str]] = []
        #: Counts of one basic block inside an in-unit loop (in
        #: ``_Counts.__slots__`` order) → the local that counts its runs.
        self.blocks: dict[tuple[int, ...], str] = {}

    def const(self, value: Any) -> str:
        """The exec-globals name carrying ``value`` into the unit."""
        # Scalars dedupe by type + repr (0.0 and -0.0 stay distinct);
        # everything else by identity — ``env`` keeps the object alive.
        key: Any = (type(value).__name__, repr(value)) \
            if type(value) in (int, float, str, bool, type(None)) \
            else id(value)
        name = self._const_names.get(key)
        if name is None:
            name = self._const_names[key] = f"k{len(self._const_names)}"
            self.env[name] = value
        return name

    def need(self, name: str, line: str | None = None) -> str:
        if name not in self.prologue:
            self.prologue[name] = line if line is not None else _RT_LOCALS[name]
        return name

    def tmp(self) -> str:
        self.ntemps += 1
        return f"t{self.ntemps}"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines] if lines else ["    pass"]


# --------------------------------------------------------------------------
# The emitter
# --------------------------------------------------------------------------


class _FunctionCompiler:
    """Emits one function body (or one free-standing suite / the warp
    spine's statements) as Python source units.

    Slot resolution is lexical: every declaration gets a fresh frame
    slot; a name not declared in any enclosing compile-time scope is a
    *free* variable, bound once at entry (from the program globals for
    functions, from the GPU env plan for suites). A free name that
    resolves to nothing stays ``None`` and raises the tree-walker's
    "undeclared identifier" lazily on first access — preserving
    reachability semantics.
    """

    def __init__(self, cp: "CompiledProgram"):
        self.cp = cp
        self.scopes: list[dict[str, int]] = []
        self.nslots = 0
        self.free: dict[str, int] = {}
        self.vars: dict[int, _Var] = {}
        # Declared ctype per slot (declarations, plus free names the
        # caller vouched for). The vector engine's region compiler reads
        # this to type the scalars and arrays a region touches.
        self.slot_ctype: dict[int, T.CType] = {}
        # Caller-supplied declared ctypes for free names (kernel suites:
        # the KernelIR's variable table). Such a cell carries this ctype,
        # so stores coerce statically and reads skip the Buffer decay.
        self.free_ctypes: dict[str, T.CType] = {}
        self.u: _Unit | None = None

    # -- slots -----------------------------------------------------------

    def _new_slot(self) -> int:
        slot = self.nslots
        self.nslots += 1
        return slot

    def declare(self, name: str, ctype: T.CType, scoped: bool,
                exact: bool = True) -> _Var:
        """A fresh slot for ``name`` in the innermost scope. ``scoped``
        says the declaration sits directly in a block or for-init, so it
        dominates every later mention; only then, and only in a scope
        the current unit opened, can it leave the frame."""
        slot = self._new_slot()
        self.scopes[-1][name] = slot
        self.slot_ctype[slot] = ctype
        u = self.u
        store = "frame"
        if scoped and u is not None and len(self.scopes) > u.base:
            store = "cell" if isinstance(ctype, T.Array) \
                or name in u.addr_taken else "local"
        var = self.vars[slot] = _Var(slot, name, ctype, store, exact)
        return var

    def slot_for(self, name: str) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        slot = self.free.get(name)
        if slot is None:
            slot = self._new_slot()
            self.free[name] = slot
            ct = self.free_ctypes.get(name)
            if ct is not None:
                self.slot_ctype[slot] = ct
            self.vars[slot] = _Var(slot, name, ct, "frame", False)
        return slot

    def _var(self, name: str) -> tuple[_Var, list[str]]:
        """The variable ``name`` resolves to, plus the lines that must
        precede any access (the lazy undeclared-identifier check)."""
        var = self.vars[self.slot_for(name)]
        if var.store != "frame":
            return var, []
        u = self.u
        if u.is_function:
            # Function bodies see only params + locals + program globals
            # (the tree-walker resets the scope chain per call).
            bind = f"rt.globals.get({u.const(var.name)})" \
                if self.free.get(var.name) == var.slot else "None"
        else:
            bind = f"frame[{var.slot}]"
        u.need(var.py, f"{var.py} = {bind}")
        msg = u.const(f"undeclared identifier {var.name!r}")
        return var, [f"if {var.py} is None:",
                     f"    raise CRuntimeError({msg})"]

    # -- materialisation ---------------------------------------------------

    def _begin(self, root: A.Node, is_function: bool = False) -> _Unit:
        assert self.u is None, "units do not nest"
        self.u = _Unit(root, len(self.scopes), is_function)
        return self.u

    def _finish(self, lines: list[str], label: str | None = None) -> Callable:
        u, self.u = self.u, None
        params = "rt, args" if u.is_function else "rt, frame"
        body = list(u.prologue.values())
        if u.blocks:
            # Fold the loop blocks' runs into c once per unit run, also
            # when the unit raises: each was counted at its head.
            fold = []
            for i, attr in enumerate(_Counts.__slots__):
                terms = [name if counts[i] == 1 else f"{counts[i]} * {name}"
                         for counts, name in u.blocks.items() if counts[i]]
                if terms:
                    fold.append(f"c.{attr} += " + " + ".join(terms))
            body += [f"{name} = 0" for name in u.blocks.values()]
            body += ["try:"] + _indent(lines) + ["finally:"] + _indent(fold)
        else:
            body += lines
        src = f"def unit({params}):\n" + "\n".join(_indent(body)) + "\n"
        filename = self.cp.register_unit(label, src)
        exec(compile(src, filename, "exec"), u.env)
        return u.env["unit"]

    def _flush(self, cnt: _Counts) -> list[str]:
        """ExecCounters accounting for one basic block costing ``cnt``:
        straight-line increments outside loops; inside an in-unit loop,
        one tick of the block's local counter (see :meth:`_finish`)."""
        counts = tuple(getattr(cnt, attr) for attr in _Counts.__slots__)
        if not any(counts):
            return []
        u = self.u
        u.need("c")
        if not u.loops:
            return [f"c.{attr} += {value}"
                    for attr, value in zip(_Counts.__slots__, counts) if value]
        name = u.blocks.get(counts)
        if name is None:
            name = u.blocks[counts] = f"b{len(u.blocks)}"
        return [f"{name} += 1"]

    def _flushed_stmt(self, stmt: A.Stmt) -> Callable:
        """``stmt`` as one unit that flushes its own batched counts."""
        self._begin(stmt)
        return self._finish(self._flushed(stmt))

    def _flushed_cond(self, expr: A.Expr) -> Callable:
        """An if/while condition as one value-returning unit that flushes
        its own counts plus the branch (the warp spine evaluates
        conditions per lane, between units)."""
        self._begin(expr)
        ex, cnt = self._expr(expr)
        cnt.branches += 1
        lines = self._flush(cnt) + ex.pre + [f"return {ex.src}"]
        return self._finish(lines)

    # -- statements ------------------------------------------------------

    def _stmt(self, stmt: A.Stmt,
              scoped: bool = False) -> tuple[list[str], _Counts]:
        """Lines for ``stmt`` plus the counts it incurs unconditionally
        on entry, which the caller batches into the enclosing run."""
        if isinstance(stmt, A.DeclStmt):
            return self._stmt_DeclStmt(stmt, scoped)
        method = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if method is None:
            raise CRuntimeError(f"cannot execute {type(stmt).__name__}")
        return method(stmt)

    def _flushed(self, stmt: A.Stmt, scoped: bool = False) -> list[str]:
        lines, cnt = self._stmt(stmt, scoped)
        return self._flush(cnt) + lines

    def _stmt_Block(self, stmt: A.Block) -> tuple[list[str], _Counts]:
        self.scopes.append({})
        out: list[str] = []
        run: list[str] = []
        pending = _Counts()
        for inner in stmt.stmts:
            lines, cnt = self._stmt(inner, scoped=True)
            run += lines
            pending.add(cnt)
            if not isinstance(inner, (A.DeclStmt, A.ExprStmt)):
                # Anything but a simple statement may leave the block
                # early, so the run of unconditional counts ends here.
                out += self._flush(pending) + run
                run = []
                pending = _Counts()
        out += self._flush(pending) + run
        self.scopes.pop()
        return out, _Counts()

    def _stmt_DeclStmt(self, stmt: A.DeclStmt,
                       scoped: bool) -> tuple[list[str], _Counts]:
        cnt = _Counts()
        lines: list[str] = []
        for decl in stmt.decls:
            init = None
            if decl.init is not None:
                init, icnt = self._expr(decl.init)
                cnt.add(icnt)
                lines += init.pre
            # The slot is created *after* emitting the initializer, so
            # `int x = x + 1;` resolves the rhs to the outer binding,
            # matching the tree-walker's execution-order declare.
            ctype = decl.ctype
            var = self.declare(decl.name, ctype, scoped)
            if isinstance(ctype, T.Array):
                lines += self._declare_array(var, init)
                continue
            if ctype.is_pointer:
                value = "NULL"
            elif ctype.is_float:
                value = "0.0"
            else:
                value = "0"
            if init is not None and init.kind is not None:
                value = self._coerce(ctype, init, lines)
            elif init is not None:
                # A void-call initializer yields None; the tree-walker
                # then keeps the declaration default.
                a = self._atom(init, lines)
                value = f"{value} if {a} is None else " \
                    + self._coerce(ctype, init, lines)
            lines.append(self._bind(var, value))
        return lines, cnt

    def _bind(self, var: _Var, value: str) -> str:
        """The line that (re)creates ``var`` holding ``value``."""
        if var.store == "local":
            return f"{var.py} = {value}"
        cell = f"Cell({value}, {self.u.const(var.ctype)})"
        if var.store == "cell" or self.u.is_function:
            return f"{var.py} = {cell}"
        return f"{var.py} = frame[{var.slot}] = {cell}"

    def _declare_array(self, var: _Var, init: _Ex | None) -> list[str]:
        u = self.u
        ctype = var.ctype
        lines: list[str] = []
        # The tree-walker evaluates the initializer, then raises from
        # the allocation (3-D) or rejects the initializer — at run time.
        if init is not None and not init.stable:
            lines.append(init.src)  # its pre already ran
        if isinstance(ctype.base, T.Array) and \
                isinstance(ctype.base.base, T.Array):
            msg = f"arrays of more than two dimensions unsupported ({var.name})"
            return lines + [f"raise CRuntimeError({u.const(msg)})"]
        if init is not None:
            msg = f"array initializers unsupported ({var.name})"
            return lines + [f"raise CRuntimeError({u.const(msg)})"]
        base, size, inner = ctype.flattened(var.name)
        buf = u.tmp()
        lines += [
            f"{buf} = Buffer({u.const(base)}, {u.const(size)}, "
            f"{u.const(var.name)})",
            f"{buf}.inner_dim = {u.const(inner)}",
            self._bind(var, buf),
        ]
        if var.store == "cell":
            # An array cell's Buffer never changes, so its decay pointer
            # is bound once and serves every rvalue mention.
            lines.append(f"a{var.slot} = {buf}.decay_ptr()")
        return lines

    def _stmt_ExprStmt(self, stmt: A.ExprStmt) -> tuple[list[str], _Counts]:
        if stmt.expr is None:
            return [], _Counts()
        ex, cnt = self._expr(stmt.expr, void=True)
        return self._effects(ex), cnt  # `1 / 0;` still has to raise

    def _stmt_If(self, stmt: A.If) -> tuple[list[str], _Counts]:
        ex, cnt = self._expr(stmt.cond)
        cnt.branches += 1
        test = self._truth(ex)
        lines = ex.pre + [f"if {test}:"] + _indent(self._flushed(stmt.then))
        if stmt.otherwise is not None:
            lines += ["else:"] + _indent(self._flushed(stmt.otherwise))
        return lines, cnt

    def _budget(self) -> list[str]:
        self.u.need("max_steps")
        return ["rt.steps = steps = rt.steps + 1",
                "if steps > max_steps:",
                "    _over_budget(max_steps)"]

    def _loop_test(self, cond: A.Expr) -> list[str]:
        ex, cnt = self._expr(cond)
        cnt.branches += 1
        test = self._truth(ex)
        return self._flush(cnt) + ex.pre + [f"if not ({test}):", "    break"]

    def _stmt_While(self, stmt: A.While) -> tuple[list[str], _Counts]:
        self.u.loops.append([])
        head = self._budget() + self._loop_test(stmt.cond)
        body = self._flushed(stmt.body)
        self.u.loops.pop()
        return ["while True:"] + _indent(head + body), _Counts()

    def _stmt_For(self, stmt: A.For) -> tuple[list[str], _Counts]:
        self.scopes.append({})
        init: list[str] = []
        cnt = _Counts()
        if stmt.init is not None:
            init, cnt = self._stmt(stmt.init, scoped=True)
        # break skips the step; continue runs it (tree-walker order)
        step: list[str] = []
        self.u.loops.append(step)
        head = self._budget()
        if stmt.cond is not None:
            head += self._loop_test(stmt.cond)
        if stmt.step is not None:
            ex, scnt = self._expr(stmt.step, void=True)
            step += self._flush(scnt) + self._effects(ex)
        body = self._flushed(stmt.body)
        self.u.loops.pop()
        self.scopes.pop()
        return init + ["while True:"] + _indent(head + body + step), cnt

    def _stmt_Return(self, stmt: A.Return) -> tuple[list[str], _Counts]:
        function = self.u.is_function
        if stmt.value is None:
            return ["return None" if function else "return _RETURN_NONE"], \
                _Counts()
        ex, cnt = self._expr(stmt.value)
        ret = f"return {ex.src}" if function else f"return _Return({ex.src})"
        return ex.pre + [ret], cnt

    def _stmt_Break(self, stmt: A.Break) -> tuple[list[str], _Counts]:
        return ["break" if self.u.loops else "return _BREAK"], _Counts()

    def _stmt_Continue(self, stmt: A.Continue) -> tuple[list[str], _Counts]:
        if not self.u.loops:
            return ["return _CONT"], _Counts()
        return self.u.loops[-1] + ["continue"], _Counts()

    # -- expression plumbing -----------------------------------------------

    def _expr(self, expr: A.Expr, void: bool = False) -> tuple[_Ex, _Counts]:
        """Emit ``expr``. ``void`` (statement position) lets assignments,
        increments and calls skip materialising a result."""
        kind = type(expr).__name__
        method = getattr(self, f"_expr_{kind}", None)
        if method is None:
            raise CRuntimeError(f"cannot evaluate {kind}")
        if void and kind in ("Assign", "Call", "PostfixOp", "UnaryOp"):
            return method(expr, void=True)
        return method(expr)

    def _seq(self, exs: list[_Ex]) -> list[str]:
        """The ``pre`` lines of ``exs`` in evaluation order. A src that a
        later operand's statements could disturb is pinned to a temp
        first, so every src may then be read after the returned lines."""
        lines: list[str] = []
        for i, ex in enumerate(exs):
            lines += ex.pre
            ex.pre = []
            if not ex.stable and any(later.pre for later in exs[i + 1:]):
                self._pin(ex, lines)
        return lines

    def _effects(self, ex: _Ex) -> list[str]:
        """``ex`` evaluated for its side effects and errors only."""
        return ex.pre if ex.stable else ex.pre + [ex.src]

    def _pin(self, ex: _Ex, lines: list[str]) -> str:
        if not ex.stable:
            tmp = self.u.tmp()
            lines.append(f"{tmp} = {ex.src}")
            ex.src, ex.stable, ex.test = tmp, True, None
        return ex.src

    def _atom(self, ex: _Ex, lines: list[str]) -> str:
        """``ex.src`` as a bare name (safe to mention twice)."""
        return ex.src if ex.src.isidentifier() else self._pin(ex, lines)

    def _truth(self, ex: _Ex) -> str:
        """A Python test for ``ex``'s C truthiness (may extend ex.pre)."""
        if ex.test is not None:
            return ex.test
        if ex.kind in ("i", "f"):
            return ex.src
        if ex.kind == "p":
            return "True"
        a = self._atom(ex, ex.pre)
        return f"({a} if {a}.__class__ is int else truthy({a}))"

    def _const_ex(self, value: Any, kind: str | None) -> tuple[_Ex, _Counts]:
        return _Ex(self.u.const(value), kind, stable=True), _Counts()

    def _coerce(self, ctype: T.CType | None, ex: _Ex,
                lines: list[str]) -> str:
        """Source for ``ex`` coerced the way a store through ``ctype``
        coerces (ScalarRef.store), statically where the class is known."""
        want = _scalar_kind(ctype)
        if want is None or ex.kind == want:
            return ex.src
        conv = "int" if want == "i" else "float"
        if ex.kind is not None:
            return f"{conv}({ex.src})"
        a = self._atom(ex, lines)
        return f"({a} if {a}.__class__ is {conv} else {conv}({a}))"

    def _charge_store(self, buffer: str = "None") -> list[str]:
        self.u.need("charge")
        return ["if charge is not None:", f"    charge(rt, {buffer}, True)"]

    # -- leaves ------------------------------------------------------------

    def _expr_IntLit(self, expr: A.IntLit) -> tuple[_Ex, _Counts]:
        return self._const_ex(expr.value, "i")

    def _expr_FloatLit(self, expr: A.FloatLit) -> tuple[_Ex, _Counts]:
        return self._const_ex(expr.value, "f")

    def _expr_CharLit(self, expr: A.CharLit) -> tuple[_Ex, _Counts]:
        return self._const_ex(expr.value, "i")

    def _expr_SizeofType(self, expr: A.SizeofType) -> tuple[_Ex, _Counts]:
        return self._const_ex(expr.of_type.sizeof(), "i")

    def _expr_StringLit(self, expr: A.StringLit) -> tuple[_Ex, _Counts]:
        # One Buffer per literal per program, baked in at emit time.
        return self._const_ex(self.cp.strlit_ptr(expr), "p")

    def _expr_Ident(self, expr: A.Ident) -> tuple[_Ex, _Counts]:
        var, check = self._var(expr.name)
        if var.store == "local":
            return _Ex(var.py, var.kind), _Counts()
        if var.is_array:
            if var.store == "cell":
                return _Ex(f"a{var.slot}", "p", stable=True), _Counts()
            return _Ex(f"{var.py}.value.decay_ptr()", "p", check), _Counts()
        if var.ctype is not None:
            return _Ex(f"{var.py}.value", var.kind, check), _Counts()
        tmp = self.u.tmp()
        return _Ex(tmp, None, check + [
            f"{tmp} = {var.py}.value",
            f"if {tmp}.__class__ is Buffer:",
            f"    {tmp} = {tmp}.decay_ptr()",  # array decay
        ], stable=True), _Counts()

    def _expr_Cast(self, expr: A.Cast) -> tuple[_Ex, _Counts]:
        ex, cnt = self._expr(expr.operand)
        to = expr.to_type
        if to.is_float:
            if ex.kind != "f":
                ex = _Ex(f"float({ex.src})", "f", ex.pre)
        elif to.is_integer:
            is_char = to == T.CHAR
            if ex.kind == "f":
                ex = _Ex(f"float_to_int({ex.src})", "i", ex.pre)
            elif ex.kind == "i":
                if is_char:
                    ex = _Ex(f"({ex.src} & 0xFF)", "i", ex.pre)
            else:
                ex = _Ex(f"_cast_int({ex.src}, {is_char})", "i", ex.pre)
        # pointer reinterpretation (and any other target) is a no-op
        return ex, cnt

    # -- operators -----------------------------------------------------------

    def _expr_BinOp(self, expr: A.BinOp) -> tuple[_Ex, _Counts]:
        op = expr.op
        left, cnt = self._expr(expr.left)
        if op in ("&&", "||"):
            return self._logical(op, left, cnt, expr.right)
        right, rcnt = self._expr(expr.right)
        cnt.add(rcnt)
        if op == ",":
            right.pre = self._effects(left) + right.pre
            return right, cnt
        pre = self._seq([left, right])
        cnt.ops += 1
        res = self._apply(op, left, right, cnt)
        res.pre = pre + res.pre
        return res, cnt

    def _apply(self, op: str, left: _Ex, right: _Ex, cnt: _Counts) -> _Ex:
        """``left op right`` for operands whose ``pre`` already ran.
        Exact int/float operands compile to a Python expression (with
        the fp_ops count batched); anything unproven keeps the inline
        int/int fast path in front of the dynamic operator."""
        binop = _binop_fn(op)  # also vets `op` before it is interpolated
        lk, rk = left.kind, right.kind
        l, r = left.src, right.src
        numeric = ("i", "f")
        if lk in numeric and rk in numeric:
            fp = lk == "f" or rk == "f"
            if fp:
                cnt.fp_ops += 1
            if op in _COMPARISONS:
                return _Ex(f"(1 if {l} {op} {r} else 0)", "i",
                           test=f"{l} {op} {r}")
            if op in ("/", "%"):
                helper = "_c_div" if op == "/" else "_c_mod"
                return _Ex(f"{helper}({l}, {r})", "f" if fp else "i")
            if op in ("+", "-", "*"):
                return _Ex(f"({l} {op} {r})", "f" if fp else "i")
            if fp:
                l, r = f"int({l})", f"int({r})"
            return _Ex(f"({l} {op} {r})", "i")
        pre: list[str] = []
        l = self._atom(left, pre)
        r = self._atom(right, pre)
        tmp = self.u.tmp()
        slow = f"{tmp} = {self.u.const(binop)}(rt, {l}, {r})"
        kind = "i" if op in _COMPARISONS else None
        if "f" in (lk, rk) or "p" in (lk, rk):
            return _Ex(tmp, kind, pre + [slow], stable=True)
        if op in _COMPARISONS:
            fast = f"1 if {l} {op} {r} else 0"
        elif op in ("/", "%"):
            fast = f"{'_c_div' if op == '/' else '_c_mod'}({l}, {r})"
        else:
            fast = f"{l} {op} {r}"
        is_int = " and ".join(f"{a}.__class__ is int"
                              for a, k in ((l, lk), (r, rk)) if k is None)
        return _Ex(tmp, kind, pre + [
            f"if {is_int}:", f"    {tmp} = {fast}",
            "else:", f"    {slow}",
        ], stable=True)

    def _logical(self, op: str, left: _Ex, cnt: _Counts,
                 right_node: A.Expr) -> tuple[_Ex, _Counts]:
        cnt.ops += 1
        ltest = self._truth(left)
        right, rcnt = self._expr(right_node)
        rtest = self._truth(right)
        rlines = self._flush(rcnt) + right.pre  # rhs is conditional
        join = "and" if op == "&&" else "or"
        if not rlines:
            test = f"({ltest} {join} {rtest})"
            return _Ex(f"(1 if {test} else 0)", "i", left.pre, test=test), cnt
        tmp = self.u.tmp()
        short = f"{tmp} = {0 if op == '&&' else 1}"
        full = rlines + [f"{tmp} = 1 if {rtest} else 0"]
        then, other = (full, [short]) if op == "&&" else ([short], full)
        return _Ex(tmp, "i", left.pre + [f"if {ltest}:"] + _indent(then)
                   + ["else:"] + _indent(other), stable=True), cnt

    def _expr_Conditional(self, expr: A.Conditional) -> tuple[_Ex, _Counts]:
        cond, cnt = self._expr(expr.cond)
        cnt.branches += 1
        test = self._truth(cond)
        tmp = self.u.tmp()
        lines = cond.pre + [f"if {test}:"]
        kinds = []
        for i, arm in enumerate((expr.then, expr.otherwise)):
            ex, acnt = self._expr(arm)
            kinds.append(ex.kind)
            if i:
                lines.append("else:")
            lines += _indent(self._flush(acnt) + ex.pre + [f"{tmp} = {ex.src}"])
        kind = kinds[0] if kinds[0] == kinds[1] else None
        return _Ex(tmp, kind, lines, stable=True), cnt

    def _expr_UnaryOp(self, expr: A.UnaryOp,
                      void: bool = False) -> tuple[_Ex, _Counts]:
        op = expr.op
        if op == "&":
            return self._lvalue(expr.operand)
        if op == "*":
            ex, cnt = self._expr(expr.operand)
            cnt.loads += 1
            tmp = self.u.tmp()
            ex.pre.append(f"{tmp} = _as_ref({ex.src}).deref()")
            return _Ex(tmp, None, ex.pre, stable=True), cnt
        if op in ("++", "--"):
            # Prefix inc/dec: the tree-walker counts no op here.
            cnt = _Counts()
            return self._incdec(expr.operand, 1 if op == "++" else -1,
                                False, void, cnt), cnt
        ex, cnt = self._expr(expr.operand)
        cnt.ops += 1
        if op == "-":
            if isinstance(expr.operand, (A.IntLit, A.FloatLit, A.CharLit)):
                folded, _ = self._const_ex(-expr.operand.value, ex.kind)
                return folded, cnt
            return _Ex(f"(-{ex.src})", ex.kind if ex.kind != "p" else None,
                       ex.pre), cnt
        if op == "!":
            test = f"not {self._truth(ex)}"
            return _Ex(f"(1 if {test} else 0)", "i", ex.pre,
                       test=f"({test})"), cnt
        if op == "~":
            src = f"(~{ex.src})" if ex.kind == "i" else f"(~int({ex.src}))"
            return _Ex(src, "i", ex.pre), cnt
        raise CRuntimeError(f"unsupported unary {op!r}")

    def _expr_PostfixOp(self, expr: A.PostfixOp,
                        void: bool = False) -> tuple[_Ex, _Counts]:
        cnt = _Counts()
        cnt.ops += 1
        return self._incdec(expr.operand, 1 if expr.op == "++" else -1,
                            True, void, cnt), cnt

    def _incdec(self, target: A.Expr, delta: int, post: bool, void: bool,
                cnt: _Counts) -> _Ex:
        """``x++``/``--x``: typed scalars mutate in place; anything else
        goes through its ref. Returns the old (post) or new value."""
        u = self.u
        step = "+ 1" if delta > 0 else "- 1"
        if not isinstance(target, A.Ident):
            lines, rcnt, read, write, _buffer = self._place(target)
            cnt.add(rcnt)
            old, new = u.tmp(), u.tmp()
            lines += [f"{old} = {read}", f"{new} = _step({old}, {delta})",
                      write.format(new)]
            return _Ex(old if post else new, None, lines, stable=True)
        var, lines = self._var(target.name)
        if var.ctype is None or var.is_array:
            tmp = u.tmp()
            lines.append(f"{tmp} = _cell_incdec({var.py}, {delta}, {post})")
            return _Ex(tmp, None, lines, stable=True)
        get = var.py if var.store == "local" else f"{var.py}.value"
        if var.kind == "i":
            # An int-declared variable holds an exact int (every store
            # coerces), so held + delta is already the stored value.
            if void or not post:
                lines.append(f"{get} = {get} {step}")
                return _Ex("None", pre=lines, stable=True) if void \
                    else _Ex(get, "i", lines)
            old = u.tmp()
            lines += [f"{old} = {get}", f"{get} = {old} {step}"]
            return _Ex(old, "i", lines, stable=True)
        old, new = u.tmp(), u.tmp()
        lines += [f"{old} = {get}", f"{new} = _step({old}, {delta})"]
        stored = self._coerce(var.ctype, _Ex(new, stable=True), lines)
        lines.append(f"{get} = {stored}")
        return _Ex(old if post else new, None, lines, stable=True)

    # -- assignment ----------------------------------------------------------

    def _expr_Assign(self, expr: A.Assign,
                     void: bool = False) -> tuple[_Ex, _Counts]:
        u = self.u
        op = expr.op[:-1]  # "" for plain assignment
        binop = u.const(_binop_fn(op)) if op else "None"
        if not isinstance(expr.target, A.Ident):
            lines, cnt, read, write, buffer = self._place(expr.target)
            value, vcnt = self._expr(expr.value)
            cnt.add(vcnt)
            cnt.stores += 1
            lines += value.pre
            src = value.src
            if op:
                cnt.ops += 1
                src = f"{binop}(rt, {read}, {src})"
            lines.append(write.format(src))
            lines += self._charge_store(buffer)
            if void:
                return _Ex("None", pre=lines, stable=True), cnt
            return _Ex(read, None, lines), cnt
        # Scalar-variable targets skip the ref allocation; the lazy
        # undeclared-identifier check still precedes the rhs.
        var, lines = self._var(expr.target.name)
        value, cnt = self._expr(expr.value)
        cnt.stores += 1
        lines += value.pre
        if op:
            cnt.ops += 1
        if var.ctype is None or var.is_array:
            tmp = u.tmp()
            lines.append(
                f"{tmp} = _cell_assign(rt, {var.py}, {binop}, {value.src})")
            return _Ex(tmp, None, lines, stable=True), cnt
        get = var.py if var.store == "local" else f"{var.py}.value"
        if op:
            # The current value is read after the rhs (tree-walker order).
            value = self._apply(op, _Ex(get, var.kind), value, cnt)
            lines += value.pre
        lines.append(f"{get} = {self._coerce(var.ctype, value, lines)}")
        lines += self._charge_store()
        if void:
            return _Ex("None", pre=lines, stable=True), cnt
        return _Ex(get, var.kind, lines), cnt

    # -- lvalues ---------------------------------------------------------

    def _lvalue(self, expr: A.Expr) -> tuple[_Ex, _Counts]:
        """``&expr``: an _Ex whose value is a Ptr or ScalarRef."""
        u = self.u
        if isinstance(expr, A.Ident):
            var, check = self._var(expr.name)
            assert var.store != "local", "address-taken names keep a Cell"
            if var.is_array:
                return _Ex(f"Ptr({var.py}.value, 0)", "p", check), _Counts()
            if var.ctype is not None:
                return _Ex(f"ScalarRef({var.py})", None, check,
                           cell=(var.py, var.ctype)), _Counts()
            return _Ex(f"_cell_ref({var.py})", None, check), _Counts()
        if isinstance(expr, A.Index):
            lines, p, i, cnt = self._index_operands(expr)
            # Both stride cases of the tree-walker's _addr_of collapse
            # to one offset formula; only the result stride differs.
            return _Ex(f"Ptr({p}.buffer, {p}.offset + {i} * {p}.stride, "
                       f"1 if {p}.stride > 1 else {p}.stride)",
                       "p", lines), cnt
        if isinstance(expr, A.UnaryOp) and expr.op == "*":
            ex, cnt = self._expr(expr.operand)
            return _Ex(f"_as_ref({ex.src})", None, ex.pre), cnt
        msg = u.const(f"cannot take address of {type(expr).__name__}")
        return _Ex("None", pre=[f"raise CRuntimeError({msg})"],
                   stable=True), _Counts()

    def _place(self, expr: A.Expr) -> tuple[list[str], _Counts, str, str, str]:
        """A non-variable assignment target, evaluated once: (lines,
        counts, read source, write format, buffer-to-charge source).
        An element target reads and writes its Buffer directly — what
        the tree-walker's Ptr ref does, minus the Ptr."""
        u = self.u
        if isinstance(expr, A.Index):
            lines, p, i, cnt = self._index_operands(expr)
            buf, off = u.tmp(), u.tmp()
            lines += [f"{buf} = {p}.buffer",
                      f"{off} = {p}.offset + {i} * {p}.stride"]
            return (lines, cnt, f"{buf}.read({off})",
                    f"{buf}.write({off}, {{}})", buf)
        ref, cnt = self._lvalue(expr)
        r = self._pin(ref, ref.pre)
        return (ref.pre, cnt, f"{r}.deref()", f"{r}.store({{}})",
                f"{r}.buffer if {r}.__class__ is Ptr else None")

    def _index_operands(
            self, expr: A.Index) -> tuple[list[str], str, str, _Counts]:
        """Evaluate ``base[index]``'s operands: (lines, pointer temp —
        a non-null Ptr — and exact-int index source, counts)."""
        u = self.u
        base, cnt = self._expr(expr.base)
        lines = base.pre
        p = self._pin(base, lines) if base.kind == "p" else u.tmp()
        if base.kind != "p":
            null = u.const("null pointer indexed")
            lines += [
                f"{p} = {base.src}",
                f"if {p}.__class__ is not Ptr:",
                f"    {p} = _as_ptr({p})",
                f"elif {p}.buffer is None:",
                f"    raise CRuntimeError({null})",
            ]
        index, icnt = self._expr(expr.index)
        cnt.add(icnt)
        lines += index.pre
        if index.kind == "i":
            return lines, p, self._atom(index, lines), cnt
        i = u.tmp()
        lines += [f"{i} = {index.src}",
                  f"if {i}.__class__ is not int:", f"    {i} = int({i})"]
        return lines, p, i, cnt

    def _expr_Index(self, expr: A.Index) -> tuple[_Ex, _Counts]:
        u = self.u
        lines, p, i, cnt = self._index_operands(expr)
        load = _Counts()
        load.loads = 1
        count_load = self._flush(load)
        u.need("charge")
        out, buf, off = u.tmp(), u.tmp(), u.tmp()
        # loads (and the GPU charge) depend on the runtime stride, so
        # they are a block of their own rather than batching.
        lines += [
            f"if {p}.stride > 1:",  # row of a flattened 2-D array
            f"    {out} = Ptr({p}.buffer, {p}.offset + {i} * {p}.stride, 1)",
            "else:",
            *_indent(count_load),
            f"    {buf} = {p}.buffer",
            "    if charge is not None:",
            f"        charge(rt, {buf}, False)",
            # Inlined Buffer.read: the _check call is the hot-path cost.
            f"    {off} = {p}.offset + {i}",
            f"    if {buf}.freed or not 0 <= {off} < {buf}.size:",
            f"        {buf}._check({off})",  # raises the canonical error
            f"    {out} = {buf}.data[{off}]",
        ]
        return _Ex(out, None, lines, stable=True), cnt

    # -- calls -----------------------------------------------------------

    def _expr_Call(self, expr: A.Call,
                   void: bool = False) -> tuple[_Ex, _Counts]:
        u = self.u
        cnt = _Counts()
        cnt.calls += 1
        args = []
        for node in expr.args:
            ex, acnt = self._expr(node)
            cnt.add(acnt)
            args.append(ex)
        for ex in args:
            if ex.cell is not None:
                ex.stable = True  # names a Cell no operand can rebind
        lines = self._seq(args)  # left-to-right, matching the tree-walker
        out = None if void else u.tmp()
        assign = "" if void else f"{out} = "
        name = u.const(expr.func)
        user = (f"_user_function(rt, {name})"
                f"(rt, [{', '.join(ex.src for ex in args)}])")
        sig = SIGNATURES.get(expr.func)
        if sig is None:
            call = [assign + user]
        else:
            # One lookup per unit run: tables never change once built.
            # Builtins shadow user functions, as in the tree-walker.
            u.need("builtins")
            g = u.need(f"g{name[1:]}", f"g{name[1:]} = builtins.get({name})")
            if sig[0] <= len(args) <= sig[1]:
                argl = "".join(
                    ", " + (ex.cell[0] if i in sig[2] and ex.cell is not None
                            else ex.src)
                    for i, ex in enumerate(args))
                call = [f"{assign}{g}(rt{argl}) if {g} is not None "
                        f"else {user}"]
            else:
                message = u.const(str(arity_error(expr.func, len(args))))
                call = [f"if {g} is not None:",
                        f"    raise CRuntimeError({message})",
                        assign + user]
        if expr.func in _HOST_INLINE_CALLS:
            entry, emitter = _HOST_INLINE_CALLS[expr.func]
            fast = getattr(self, emitter)(expr, args, assign)
            if fast is not None:
                h = u.need(f"h{name[1:]}",
                           f"h{name[1:]} = {g} is {u.const(entry)}")
                call = [f"if {h}:"] + _indent(fast) + ["else:"] + _indent(call)
        return _Ex(out or "None", None, lines + call, stable=True), cnt

    def _printf_lines(self, expr: A.Call, args: list[_Ex],
                      assign: str) -> list[str] | None:
        """``printf`` with a literal format against the host stdio:
        c_format's segments rendered straight-line. None for any other
        format, and when the generic call must report too few
        arguments."""
        u = self.u
        if not args or type(expr.args[0]) is not A.StringLit:
            return None
        segs, tail = _compile_format(expr.args[0].value)
        args = args[1:]
        if sum(render is not None for _lit, render in segs) > len(args):
            return None
        # Every argument (surplus ones too, for their errors) is evaluated
        # before the first conversion, then each conversion runs in
        # format order, as c_format does.
        lines: list[str] = []
        for ex in args:
            self._atom(ex, lines)
        parts: list[str] = []
        values = iter(args)
        for lit, render in segs:
            if lit:
                parts.append(u.const(lit))
            if render is None:
                continue  # "%%", folded into the literal
            ex = next(values)
            if render is _render_int and ex.kind == "i":
                parts.append(f"str({ex.src})")
            elif render is _as_str and ex.kind == "p":
                parts.append(self._c_string(ex, lines))
            else:
                part = u.tmp()
                lines.append(f"{part} = {u.const(render)}({ex.src})")
                parts.append(part)
        if tail or not parts:
            parts.append(u.const(tail))
        text = u.tmp()
        lines += [f"{text} = " + " + ".join(parts),
                  f"rt.stdout.write({text})"]
        if assign:
            lines.append(f"{assign}len({text})")
        return lines

    def _scanf_lines(self, expr: A.Call, args: list[_Ex],
                     assign: str) -> list[str] | None:
        """``scanf`` with a literal format against the host stdio: the
        two-conversion KV shapes match c_scan's one-shot regex inline
        and store straight into the targets; everything else (and any
        partial or EOF input) is c_scan minus the format re-decode.
        None for a format that is not a literal."""
        u = self.u
        if not args or type(expr.args[0]) is not A.StringLit:
            return None
        fmt = expr.args[0].value
        args = args[1:]
        argv = "[" + ", ".join(ex.src for ex in args) + "]"
        generic = f"{assign}c_scan(rt.stdin, {u.const(fmt)}, {argv})"
        convs = _scan_convs(fmt)
        pattern = _SCAN_PAIR_RES.get(convs)
        if pattern is None or len(args) < 2:
            return [generic]
        stream, m = u.tmp(), u.tmp()
        stores: list[str] = []
        for group, (conv, ex) in enumerate(zip(convs, args), start=1):
            text = f"{m}.group({group})"
            if conv == "s":
                a = self._atom(ex, stores)
                store = f"{a}.buffer.store_string({a}.offset, {text})"
                if ex.kind == "p":
                    stores.append(store)
                    continue
                bad = u.const("scanf %s target must be a char buffer")
                stores += [
                    f"if {a}.__class__ is Ptr and {a}.buffer is not None:",
                    f"    {store}",
                    "else:",
                    f"    raise CRuntimeError({bad})",
                ]
                continue
            parsed = _Ex(f"int({text})", "i") if conv == "d" \
                else _Ex(f"float({text})", "f")
            if ex.cell is not None and _scalar_kind(ex.cell[1]) is not None:
                cell, ctype = ex.cell
                stores.append(
                    f"{cell}.value = {self._coerce(ctype, parsed, stores)}")
            else:
                stores.append(f"_store_out({ex.src}, {parsed.src})")
        stores += [ex.src for ex in args[2:] if not ex.stable]  # for errors
        return [
            f"{stream} = rt.stdin",
            f"{m} = {u.const(pattern)}.match({stream}.text, {stream}.pos)",
            f"if {m} is not None:",
            f"    {stream}.pos = {m}.end()",
            *_indent(stores),
            *([f"    {assign}2"] if assign else []),
            "else:",
            f"    {generic}",
        ]

    def _strcmp_lines(self, expr: A.Call, args: list[_Ex],
                      assign: str) -> list[str] | None:
        """``strcmp`` of two proven non-null pointers against the host
        table: _bi_strcmp straight-line, each text from its buffer's
        decode cache or else ``Buffer.c_string`` (which raises every
        error, in operand order). None for any other operands."""
        if len(args) != 2 or any(ex.kind != "p" for ex in args):
            return None
        lines: list[str] = []
        for ex in args:  # both operands are evaluated before either decodes
            self._atom(ex, lines)
        a, b = (self._c_string(ex, lines) for ex in args)
        if assign:
            lines.append(f"{assign}({a} > {b}) - ({a} < {b})")
        return lines

    def _c_string(self, ex: _Ex, lines: list[str]) -> str:
        """The text at a proven non-null pointer ``ex`` (a bare name), as
        _as_str decodes it: its buffer's decode cache, else
        ``Buffer.c_string`` (which raises every error). Appends the
        lines; returns the temp."""
        u = self.u
        p = ex.src
        buf, cache, text = u.tmp(), u.tmp(), u.tmp()
        lines += [
            f"{buf} = {p}.buffer",
            f"{cache} = {buf}._strcache",
            f"{text} = {cache}.get({p}.offset) "
            f"if {cache} is not None else None",
            f"if {text} is None:",
            f"    {text} = {buf}.c_string({p}.offset)",
        ]
        return text


# --------------------------------------------------------------------------
# Compiled units
# --------------------------------------------------------------------------


def _compile_function(func: A.FunctionDef, cp: "CompiledProgram") -> Callable:
    """One mini-C function as one generated ``call(rt, args)``."""
    comp = _FunctionCompiler(cp)
    u = comp._begin(func, is_function=True)
    comp.scopes.append({})
    nparams = len(func.params)
    lines = [
        f"if len(args) != {nparams}:",
        f"    _bad_arity({u.const(func.name)}, {nparams}, len(args))",
        *comp._budget(),
    ]
    for i, param in enumerate(func.params):
        # Pointers pass through an int/float parameter uncoerced, so a
        # parameter's class is not an invariant of its ctype.
        var = comp.declare(param.name, param.ctype, scoped=True, exact=False)
        arg = f"args[{i}]"
        want = _scalar_kind(param.ctype)
        if want is not None:
            conv = "int" if want == "i" else "float"
            tmp = u.tmp()
            lines += [
                f"{tmp} = {arg}",
                f"if {tmp}.__class__ is not {conv}:",
                f"    {tmp} = {u.const(_param_coerce(param.ctype))}({tmp})",
            ]
            arg = tmp
        lines.append(comp._bind(var, arg))
    lines += comp._flushed(func.body)
    return comp._finish(lines, func.name)


def _forget_units(entries: list[tuple[str, tuple]]) -> None:
    for filename, entry in entries:
        if linecache.cache.get(filename) is entry:
            del linecache.cache[filename]


class CompiledProgram:
    """All functions of one program as generated Python units, plus the
    per-program string-literal buffer table."""

    def __init__(self, program: A.Program):
        from .cache import program_key  # cache imports this module

        self.program = program
        self._key = program_key(program)
        self._strlit_ptrs: dict[int, Ptr] = {}
        # (filename, linecache entry) per unit, in creation order; the
        # entries leave linecache when this program is collected.
        self._units: list[tuple[str, tuple]] = []
        weakref.finalize(self, _forget_units, self._units)
        self.functions: dict[str, Callable] = {}
        for func in program.functions:
            self.functions[func.name] = _compile_function(func, self)

    def register_unit(self, label: str | None, src: str) -> str:
        """Publish one unit's source under ``<minic:KEY:unit>`` (the
        mini-C function's name, or ``unitN``) so tracebacks and profiles
        show the emitted line; returns the filename to compile it under."""
        if label is None:
            label = f"unit{len(self._units)}"
        filename = f"<minic:{self._key}:{label}>"
        entry = (len(src), None, src.splitlines(True), filename)
        linecache.cache[filename] = entry
        self._units.append((filename, entry))
        return filename

    def python_source(self) -> str:
        """Everything emitted for this program so far (functions, then
        suites and spine units in creation order), for inspection. The
        text alone: unit filenames, which carry mini-C function names,
        are not part of it."""
        return "\n".join("".join(entry[2]) for _filename, entry in self._units)

    def strlit_ptr(self, expr: A.StringLit) -> Ptr:
        ptr = self._strlit_ptrs.get(id(expr))
        if ptr is None:
            ptr = Ptr(Buffer.from_string(expr.value), 0)
            self._strlit_ptrs[id(expr)] = ptr
        return ptr

    def run_main(self, interp: Any) -> int:
        """Run ``main()`` with ``interp`` — the Interpreter — as the
        execution context of every unit and builtin it reaches."""
        main = self.functions.get("main")
        if main is None:
            # Match Program.main's KeyError for programs without main().
            raise KeyError("no function 'main' in program")
        interp.funcs = self.functions
        result = main(interp, [])
        return int(result) if result is not None else 0


class CompiledSuite:
    """One statement compiled as a unit over a caller-built frame — used
    for GPU kernel bodies. :meth:`execute_with_frame` is the one entry
    point: the GPU lane engine binds kernel variables straight into
    slots from a precomputed per-launch plan (no scope dicts, no
    per-name lookup), and ``nslots``/``frees`` expose the frame layout
    that plan needs.
    """

    def __init__(self, stmt: A.Stmt, cp: CompiledProgram,
                 free_ctypes: dict[str, T.CType] | None = None):
        comp = _FunctionCompiler(cp)
        if free_ctypes:
            comp.free_ctypes = free_ctypes
        comp.scopes.append({})
        self._body_fn = comp._flushed_stmt(stmt)
        self._nslots = comp.nslots
        self._frees = tuple(comp.free.items())
        self.cp = cp

    @property
    def nslots(self) -> int:
        """Frame length :meth:`execute_with_frame` expects."""
        return self._nslots

    @property
    def frees(self) -> tuple[tuple[str, int], ...]:
        """(name, slot) pairs of the suite's free variables."""
        return self._frees

    def execute_with_frame(self, lane: Any, frame: list) -> None:
        """Run the compiled body for ``lane`` against a caller-built
        frame. Unbound frees must be left as None slots (they raise the
        tree-walker's 'undeclared identifier' error lazily, on first
        access)."""
        self._body_fn(lane, frame)
