"""Tree-walking interpreter for mini-C.

This is the reproduction's "gcc path": the original, directive-annotated
source runs unchanged as a Hadoop Streaming filter (stdin → stdout). The
GPU reference lane engine (:mod:`repro.gpu.executor`) reuses this
evaluator with GPU-runtime builtins substituted, exactly mirroring the
paper's design where one source serves both processors.

The interpreter also keeps instruction/memory counters
(:class:`ExecCounters`) that the cost models consume.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import ConfigError, CRuntimeError
from . import cast as A
from . import ctypes as T
from .cache import compiled_program, strlit_buffers
from .stdlib import InputStream, host_builtins
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

#: Shared ctype instance for the predefined FILE*/NULL globals — ctypes
#: are immutable, so one Pointer(VOID) serves every interpreter.
_VOID_PTR = T.Pointer(T.VOID)

#: Execution backends: "compiled" (generated Python source, the default hot
#: path) and "tree" (the original tree-walker, kept as the reference
#: semantics and for region-snapshot execution).
BACKENDS = ("compiled", "tree")

_default_backend = "compiled"


def _check_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown mini-C backend {name!r}; choose from {BACKENDS}"
        )
    return name


def default_backend() -> str:
    """The backend used when Interpreter(backend=None)."""
    return _default_backend


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default_backend
    previous = _default_backend
    _default_backend = _check_backend(name)
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the default backend (differential tests)."""
    previous = set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


@dataclass
class ExecCounters:
    """Dynamic execution statistics, fed to the CPU/GPU cost models."""

    ops: int = 0           # arithmetic/logic operations evaluated
    loads: int = 0         # buffer reads
    stores: int = 0        # buffer writes
    branches: int = 0      # if/while/for condition evaluations
    calls: int = 0         # function calls (user + builtin)
    fp_ops: int = 0        # floating-point arithmetic
    bytes_in: int = 0      # record/KV input volume
    bytes_out: int = 0     # emitted KV volume

    def add(self, other: "ExecCounters") -> None:
        """Fold ``other`` into this object (the per-lane/per-task folds)."""
        self.ops += other.ops
        self.loads += other.loads
        self.stores += other.stores
        self.branches += other.branches
        self.calls += other.calls
        self.fp_ops += other.fp_ops
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out

    def merged(self, other: "ExecCounters") -> "ExecCounters":
        """The sum as a fresh object; neither operand changes."""
        return ExecCounters(
            self.ops + other.ops, self.loads + other.loads,
            self.stores + other.stores, self.branches + other.branches,
            self.calls + other.calls, self.fp_ops + other.fp_ops,
            self.bytes_in + other.bytes_in, self.bytes_out + other.bytes_out,
        )

    @property
    def total_work(self) -> int:
        """A single scalar work metric (used for coarse task costing)."""
        return self.ops + 2 * self.fp_ops + self.loads + self.stores


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class RegionReached(Exception):
    """Raised when execution arrives at ``stop_at`` (see
    :meth:`Interpreter.run_until_region`); carries the live environment so
    the GPU host driver can capture pre-kernel variable values."""

    def __init__(self, snapshot: dict[str, Any]):
        self.snapshot = snapshot


class Interpreter:
    """Executes a mini-C :class:`~repro.minic.cast.Program`.

    Parameters
    ----------
    program:
        Parsed program.
    stdin:
        Text presented on standard input.
    builtins:
        Builtin function table; defaults to the host C library. The GPU
        executor passes a device-runtime table instead. Values are
        called as ``fn(context, [args...])`` — the context being this
        interpreter on the host: the tables' own entries are
        :class:`~repro.minic.stdlib.Builtin` objects, which derive that
        form from their typed positional function (and which the
        compiled backend calls positionally); a replacement may be any
        callable of that shape.
    max_steps:
        Statement-execution budget; guards against runaway loops in user
        source (a real cluster would rely on task timeouts).
    backend:
        "compiled" (mini-C emitted as Python source) or "tree" (the original
        tree-walker). None picks the process default ("compiled" unless
        a test switched it with :func:`use_backend`). Both backends produce
        bit-identical outputs and counter totals. Only :meth:`run`
        consults it: ``run_until_region`` (the only path that can stop
        mid-execution) and ``exec_stmt`` (the GPU reference lane) always
        tree-walk.
    """

    def __init__(
        self,
        program: A.Program,
        stdin: str = "",
        builtins: dict[str, Callable[["Interpreter", list[Any]], Any]] | None = None,
        max_steps: int = 200_000_000,
        backend: str | None = None,
    ):
        self.program = program
        self.stdin = InputStream(stdin)
        self.stdout = io.StringIO()
        self.builtins = host_builtins() if builtins is None else dict(builtins)
        self.heap: list[Buffer] = []
        self.counters = ExecCounters()
        self.max_steps = max_steps
        self.backend = _check_backend(
            backend if backend is not None else _default_backend
        )
        self.steps = 0
        # This object is the host execution context (the protocol is
        # stated next to repro.gpu.engine.Lane): nothing on the host
        # charges accesses, and CompiledProgram.run_main points ``funcs``
        # at the program's generated units.
        self.charge = None
        self.funcs: dict[str, Callable] = {}
        self._scopes: list[dict[str, Cell]] = []
        # String-literal buffers are cached per *program* (shared across
        # interpreter instances — notably the GPU's one per thread).
        self._strlit_cache: dict[int, Buffer] = strlit_buffers(program)
        # Predefined C identifiers (FILE* streams are opaque sentinels; the
        # IO builtins operate on the interpreter's own streams).
        void_ptr = _VOID_PTR
        self.globals: dict[str, Cell] = {
            "stdin": Cell(value="<stdin>", ctype=void_ptr),
            "stdout": Cell(value="<stdout>", ctype=void_ptr),
            "stderr": Cell(value="<stderr>", ctype=void_ptr),
            "NULL": Cell(value=NULL, ctype=void_ptr),
            "EOF": Cell(value=-1, ctype=T.INT),
        }
        self._stop_at: A.Stmt | None = None

    @property
    def _ctx(self) -> Any:
        """The context a builtin receives as its first argument: this
        interpreter (the GPU reference lane substitutes its Lane)."""
        return self

    # -- environment ---------------------------------------------------------

    def push_scope(self) -> None:
        self._scopes.append({})

    def pop_scope(self) -> None:
        self._scopes.pop()

    def declare(self, name: str, ctype: T.CType) -> Cell:
        cell = Cell(ctype=ctype)
        if isinstance(ctype, T.Array):
            elem, size, inner = ctype.flattened(name)
            cell.value = Buffer(elem, size, label=name)
            cell.value.inner_dim = inner
        elif ctype.is_pointer:
            cell.value = NULL
        elif ctype.is_float:
            cell.value = 0.0
        else:
            cell.value = 0
        self._scopes[-1][name] = cell
        return cell

    def lookup(self, name: str) -> Cell:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise CRuntimeError(f"undeclared identifier {name!r}")

    # -- top level -------------------------------------------------------------

    def run(self) -> int:
        """Execute ``main()``; returns its exit status."""
        if self.backend == "compiled":
            return compiled_program(self.program).run_main(self)
        result = self.call_function(self.program.main, [])
        return int(result) if result is not None else 0

    def run_until_region(self, region: A.Stmt) -> dict[str, Any]:
        """Execute ``main()`` until control reaches ``region`` (the
        directive-annotated statement); returns a snapshot of all live
        variables at that point. This is how the GPU host driver captures
        firstprivate/sharedRO values before a kernel launch."""
        self._stop_at = region
        try:
            self.call_function(self.program.main, [])
        except RegionReached as reached:
            return reached.snapshot
        finally:
            self._stop_at = None
        raise CRuntimeError("execution never reached the directive region")

    def _snapshot_env(self) -> dict[str, Any]:
        snapshot: dict[str, Any] = {}
        for scope in self._scopes:
            for name, cell in scope.items():
                snapshot[name] = cell.value
        return snapshot

    def output(self) -> str:
        return self.stdout.getvalue()

    def call_function(self, func: A.FunctionDef, args: list[Any]) -> Any:
        if len(args) != len(func.params):
            raise CRuntimeError(
                f"{func.name}() expects {len(func.params)} args, got {len(args)}"
            )
        saved_scopes = self._scopes
        self._scopes = [{}]
        try:
            for param, arg in zip(func.params, args):
                cell = Cell(ctype=param.ctype)
                if param.ctype.is_float:
                    cell.value = float(arg) if not isinstance(arg, (Ptr, Buffer)) else arg
                elif param.ctype.is_integer:
                    cell.value = int(arg) if not isinstance(arg, (Ptr, Buffer)) else arg
                else:
                    cell.value = arg
                self._scopes[-1][param.name] = cell
            try:
                self.exec_stmt(func.body)
            except _ReturnSignal as ret:
                return ret.value
            return None
        finally:
            self._scopes = saved_scopes

    # -- statements --------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise CRuntimeError(
                f"execution exceeded {self.max_steps} steps (runaway loop?)"
            )

    def exec_stmt(self, stmt: A.Stmt) -> None:
        self._tick()
        if stmt is self._stop_at:
            raise RegionReached(self._snapshot_env())
        method = getattr(self, f"_exec_{type(stmt).__name__}", None)
        if method is None:
            raise CRuntimeError(f"cannot execute {type(stmt).__name__}")
        method(stmt)

    def _exec_Block(self, stmt: A.Block) -> None:
        self.push_scope()
        try:
            for inner in stmt.stmts:
                self.exec_stmt(inner)
        finally:
            self.pop_scope()

    def _exec_DeclStmt(self, stmt: A.DeclStmt) -> None:
        for decl in stmt.decls:
            init_value = None
            if decl.init is not None:
                init_value = self.eval(decl.init)
            cell = self.declare(decl.name, decl.ctype)
            if init_value is not None:
                if isinstance(decl.ctype, T.Array):
                    raise CRuntimeError(
                        f"array initializers unsupported ({decl.name})"
                    )
                self._store_cell(cell, init_value)

    def _exec_ExprStmt(self, stmt: A.ExprStmt) -> None:
        if stmt.expr is not None:
            self.eval(stmt.expr)

    def _exec_If(self, stmt: A.If) -> None:
        self.counters.branches += 1
        if truthy(self.eval(stmt.cond)):
            self.exec_stmt(stmt.then)
        elif stmt.otherwise is not None:
            self.exec_stmt(stmt.otherwise)

    def _exec_While(self, stmt: A.While) -> None:
        while True:
            self._tick()
            self.counters.branches += 1
            if not truthy(self.eval(stmt.cond)):
                break
            try:
                self.exec_stmt(stmt.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _exec_For(self, stmt: A.For) -> None:
        self.push_scope()
        try:
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while True:
                self._tick()
                if stmt.cond is not None:
                    self.counters.branches += 1
                    if not truthy(self.eval(stmt.cond)):
                        break
                try:
                    self.exec_stmt(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.step is not None:
                    self.eval(stmt.step)
        finally:
            self.pop_scope()

    def _exec_Return(self, stmt: A.Return) -> None:
        value = self.eval(stmt.value) if stmt.value is not None else None
        raise _ReturnSignal(value)

    def _exec_Break(self, stmt: A.Break) -> None:
        raise _BreakSignal()

    def _exec_Continue(self, stmt: A.Continue) -> None:
        raise _ContinueSignal()

    # -- expressions -----------------------------------------------------------

    def eval(self, expr: A.Expr) -> Any:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise CRuntimeError(f"cannot evaluate {type(expr).__name__}")
        return method(expr)

    def _eval_IntLit(self, expr: A.IntLit) -> int:
        return expr.value

    def _eval_FloatLit(self, expr: A.FloatLit) -> float:
        return expr.value

    def _eval_CharLit(self, expr: A.CharLit) -> int:
        return expr.value

    def _eval_StringLit(self, expr: A.StringLit) -> Ptr:
        buf = self._strlit_cache.get(id(expr))
        if buf is None:
            buf = Buffer.from_string(expr.value)
            self._strlit_cache[id(expr)] = buf
        return Ptr(buf, 0)

    def _eval_Ident(self, expr: A.Ident) -> Any:
        cell = self.lookup(expr.name)
        if isinstance(cell.value, Buffer):
            return cell.value.decay_ptr()  # array decay (cached Ptr)
        return cell.value

    def _eval_SizeofType(self, expr: A.SizeofType) -> int:
        return expr.of_type.sizeof()

    def _eval_Cast(self, expr: A.Cast) -> Any:
        value = self.eval(expr.operand)
        to = expr.to_type
        if to.is_pointer:
            return value  # pointer reinterpretation is a no-op in our model
        if to.is_float:
            return float(value)
        if to.is_integer:
            if isinstance(value, float):
                return float_to_int(value)
            if to == T.CHAR:
                return int(value) & 0xFF
            return int(value)
        return value

    def _eval_Index(self, expr: A.Index) -> Any:
        ptr = as_ptr(self.eval(expr.base))
        idx = int(self.eval(expr.index))
        if ptr.stride > 1:  # row of a flattened 2-D array
            return Ptr(ptr.buffer, ptr.offset + idx * ptr.stride, 1)
        self.counters.loads += 1
        return ptr.buffer.read(ptr.offset + idx)  # type: ignore[union-attr]

    def _eval_Call(self, expr: A.Call) -> Any:
        self.counters.calls += 1
        name = expr.func
        # Address-of arguments must not decay through eval for scanf-style
        # out-params; eval of UnaryOp('&') already yields refs, so plain
        # evaluation works for all our builtins.
        args = [self.eval(arg) for arg in expr.args]
        builtin = self.builtins.get(name)
        if builtin is not None:
            return builtin(self._ctx, args)
        try:
            func = self.program.function(name)
        except KeyError:
            raise CRuntimeError(f"call to undefined function {name!r}") from None
        return self.call_function(func, args)

    def _eval_UnaryOp(self, expr: A.UnaryOp) -> Any:
        op = expr.op
        if op == "&":
            return self._addr_of(expr.operand)
        if op == "*":
            target = self.eval(expr.operand)
            self.counters.loads += 1
            return as_ref(target).deref()
        if op in ("++", "--"):
            ref = self._lvalue(expr.operand)
            value = ref.deref()
            new = value + (1 if op == "++" else -1) if not isinstance(value, Ptr) \
                else value.add(1 if op == "++" else -1)
            ref.store(new)
            return new
        value = self.eval(expr.operand)
        self.counters.ops += 1
        if op == "-":
            return -value
        if op == "!":
            return int(not truthy(value))
        if op == "~":
            return ~int(value)
        raise CRuntimeError(f"unsupported unary {op!r}")

    def _eval_PostfixOp(self, expr: A.PostfixOp) -> Any:
        ref = self._lvalue(expr.operand)
        value = ref.deref()
        delta = 1 if expr.op == "++" else -1
        new = value.add(delta) if isinstance(value, Ptr) else value + delta
        ref.store(new)
        self.counters.ops += 1
        return value

    def _eval_Conditional(self, expr: A.Conditional) -> Any:
        self.counters.branches += 1
        if truthy(self.eval(expr.cond)):
            return self.eval(expr.then)
        return self.eval(expr.otherwise)

    def _eval_Assign(self, expr: A.Assign) -> Any:
        ref = self._lvalue(expr.target)
        value = self.eval(expr.value)
        if expr.op != "=":
            current = ref.deref()
            value = self._binop(expr.op[:-1], current, value)
        ref.store(value)
        self.counters.stores += 1
        return ref.deref()

    def _eval_BinOp(self, expr: A.BinOp) -> Any:
        op = expr.op
        if op == ",":
            self.eval(expr.left)
            return self.eval(expr.right)
        if op == "&&":
            self.counters.ops += 1
            return int(truthy(self.eval(expr.left)) and truthy(self.eval(expr.right)))
        if op == "||":
            self.counters.ops += 1
            return int(truthy(self.eval(expr.left)) or truthy(self.eval(expr.right)))
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        return self._binop(op, left, right)

    def _binop(self, op: str, left: Any, right: Any) -> Any:
        self.counters.ops += 1
        if isinstance(left, float) or isinstance(right, float):
            self.counters.fp_ops += 1
        # Pointer arithmetic & comparison.
        if isinstance(left, Ptr) or isinstance(right, Ptr):
            return ptr_binop(op, left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return c_div(left, right)
        if op == "%":
            return c_mod(left, right)
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == ">":
            return int(left > right)
        if op == "<=":
            return int(left <= right)
        if op == ">=":
            return int(left >= right)
        if op == "&":
            return int(left) & int(right)
        if op == "|":
            return int(left) | int(right)
        if op == "^":
            return int(left) ^ int(right)
        if op == "<<":
            return int(left) << int(right)
        if op == ">>":
            return int(left) >> int(right)
        raise CRuntimeError(f"unsupported operator {op!r}")

    # -- lvalues / addressing ---------------------------------------------------

    def _addr_of(self, expr: A.Expr) -> Ptr | ScalarRef:
        if isinstance(expr, A.Ident):
            cell = self.lookup(expr.name)
            if isinstance(cell.value, Buffer):
                return Ptr(cell.value, 0)
            return ScalarRef(cell)
        if isinstance(expr, A.Index):
            ptr = as_ptr(self.eval(expr.base))
            idx = int(self.eval(expr.index))
            if ptr.stride > 1:
                return Ptr(ptr.buffer, ptr.offset + idx * ptr.stride, 1)
            return ptr.add(idx)
        if isinstance(expr, A.UnaryOp) and expr.op == "*":
            return as_ref(self.eval(expr.operand))
        raise CRuntimeError(f"cannot take address of {type(expr).__name__}")

    def _lvalue(self, expr: A.Expr) -> Ptr | ScalarRef:
        ref = self._addr_of(expr)
        return ref

    def _store_cell(self, cell: Cell, value: Any) -> None:
        ScalarRef(cell).store(value)


def run_filter(program: A.Program, input_text: str,
               max_steps: int = 200_000_000,
               backend: str | None = None) -> tuple[str, ExecCounters]:
    """Run a mini-C program as a streaming filter; returns (stdout, counters).

    This is exactly how Hadoop Streaming invokes map/combine/reduce
    executables: text in on stdin, KV lines out on stdout.
    """
    interp = Interpreter(program, stdin=input_text, max_steps=max_steps,
                         backend=backend)
    interp.run()
    return interp.output(), interp.counters
