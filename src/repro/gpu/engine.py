"""GPU lane execution engines: selection, shared builtins, and the
compiled per-lane engine.

A kernel launch simulates thousands of lanes (threads). Three lane
engines execute them, and every GPU-path job runs ``"vector"``:

* ``"vector"`` (what ships) — :class:`~repro.gpu.vector.VectorLaneRunner`
  executes the counted ``for`` loops of a kernel whose shape is the same
  for every lane (the grammar KM, CL and BS use: literal bounds, float
  arithmetic on scalars declared outside the loop, predicated ``if``)
  as numpy operations over all launch lanes at once, and *is* the
  compiled engine everywhere else: it subclasses
  :class:`CompiledLaneRunner`, says why each other loop runs per lane
  (:func:`repro.gpu.vector.lane_plan`, ``repro translate``) and abandons
  a region to the per-lane unit of the same loop on any runtime hazard.
  Nobody picks an engine per job; the runtime does.
* ``"compiled"`` — :class:`CompiledLaneRunner`, vector's base and
  fallback. Per *launch*: fetch the compiled kernel body (cached per
  program, :func:`repro.minic.cache.compiled_kernel_body`) and the
  kernel's device builtin table (:func:`device_builtins`, built once per
  kernel), and precompute an *environment plan* — the
  (slot, factory) list that materializes each lane's kernel variables
  straight into the compiled body's frame. Per *lane*: construct its
  :class:`Lane`, run the plan's factories, call the generated body
  function with the lane as ``rt``. Pinned by tests as the seam that
  forces the per-lane path on every app.
* ``"tree"`` — the reference harness (one ``GpuInterpreter`` per lane,
  built over that lane's :class:`Lane`, its scope filled from the same
  :func:`kernel_cell_factories` table): the reference interpreter
  tree-walking a kernel body under GPU builtins and space charging,
  whatever the ambient mini-C backend — no generated code runs — so it
  is what the other two are compared against.

There is one selector and it is a test seam: :func:`use_gpu_engine` /
:func:`set_default_gpu_engine` set the process-wide engine every launch
reads (a pooled job ships the driver's engine to its workers in the
``JobSpec``, like the mini-C backend). No constructor, CLI flag or
environment variable names an engine.

A GPU thread is one object: its :class:`Lane` — the records (or
combine chunk) it consumes, its cursor, output, thread id and charges,
its counters/heap/step count, the launch's KV store and partitioner,
and the kernel's builtin table, access charge, generated functions,
predefined globals and step budget. The runner constructs one per
active lane (one per combine chunk), generated units take it as
``rt``, and every builtin, on all three engines, receives it as its
first argument. Nothing is re-pointed or copied between lanes.

There is one builtin table per kernel (and device spec and metrics
registry), in the convention of :mod:`repro.minic.stdlib`: each name
maps to a typed positional function ``entry(lane, a, b, ...)`` that
generated lane bodies and the tree engine both call. The device
library is built from the host library's declarations with the
math.h/string.h charge taken inside each entry, and the four runtime
IO calls (``getRecord``/``emitKV``, ``getKV``/``storeKV``) read the
lane's cursor, charges, KV store and partitioner off that first
argument; the entries close over the kernel's *constants* and bound
charges only, so :func:`device_builtins` builds a table once and every
launch of the kernel reuses it. All engines share that table and the
charges of :mod:`repro.gpu.charging`, so outputs, ``ExecCounters``, and
``WarpCost``/``KernelCost`` are bit-identical by construction — and
machine-checked by the fuzz oracle and
``tests/test_gpu_compile_backend.py`` / ``tests/test_gpu_vector_engine.py``
/ ``tests/test_gpu_vector_safety.py`` (abandons, faults, divergence);
``tests/test_builtin_convention.py`` pins the convention itself and
``tests/test_lane_context.py`` the one-object-per-lane rule.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..compiler.kernel_ir import KernelIR, VarClass, VarInfo
from ..errors import ConfigError, CRuntimeError, GpuError
from ..kvstore.coerce import kv_text
from ..kvstore.global_store import KVPair
from ..minic import cast as A
from ..minic import ctypes as T
from ..minic.cache import compiled_kernel_body
from ..minic.interpreter import ExecCounters
from ..minic.stdlib import HOST_BUILTINS, MATH1, MATH2, takes_cells
from ..minic.values import Buffer, Cell, NULL, Ptr, ScalarRef
from .charging import (
    LaneCharges,
    access,
    bind_kv_emit,
    bind_kv_move,
    bind_record_read,
    bind_string_call,
    counted,
    math_call,
)

__all__ = [
    "GPU_ENGINES", "default_gpu_engine", "set_default_gpu_engine",
    "use_gpu_engine", "Lane", "LaneRunner", "CompiledLaneRunner",
    "device_builtins", "make_map_builtins", "make_combine_builtins",
    "kernel_program", "kernel_cell_factories",
]

#: Statement budget per lane, mirroring Interpreter's default.
_LANE_MAX_STEPS = 200_000_000

_VOID_PTR = T.Pointer(T.VOID)


# --------------------------------------------------------------------------
# Engine selection
# --------------------------------------------------------------------------

#: Lane engines: "vector" (numpy-vectorized warp execution of
#: divergence-free regions, the generated body per lane elsewhere — the
#: default and what every job ships), "compiled" (the per-launch
#: generated body for every lane — vector's base, and the forced-fallback
#: test seam), and "tree" (per-lane GpuInterpreter, the reference).
GPU_ENGINES = ("vector", "compiled", "tree")

_default_engine = "vector"


def default_gpu_engine() -> str:
    """The engine every kernel launch of this process runs."""
    return _default_engine


def set_default_gpu_engine(name: str) -> str:
    """Set the process-wide GPU engine; returns the previous one. An
    unknown name is a :class:`ConfigError` listing the valid ones —
    here, before any launch could run under it."""
    global _default_engine
    if name not in GPU_ENGINES:
        raise ConfigError(
            f"unknown GPU engine {name!r}; choose from {GPU_ENGINES}"
        )
    previous = _default_engine
    _default_engine = name
    return previous


@contextmanager
def use_gpu_engine(name: str) -> Iterator[None]:
    """Temporarily switch the GPU engine (differential tests)."""
    previous = set_default_gpu_engine(name)
    try:
        yield
    finally:
        set_default_gpu_engine(previous)


# --------------------------------------------------------------------------
# The lane: one thread's execution context
# --------------------------------------------------------------------------


class Lane:
    """One GPU thread (or one combine chunk's warp) for the length of
    its run: the execution context generated units take as ``rt`` and
    every builtin takes as its first argument.

    **The context protocol.** Generated code and builtins run against
    one object per run — a :class:`Lane` on the device, the
    :class:`~repro.minic.interpreter.Interpreter` on the host — and may
    read exactly these attributes of it:

    * ``counters`` — the run's ``ExecCounters``;
    * ``builtins`` — the name → typed function table (units look an
      entry up once per unit run; nothing changes it);
    * ``funcs`` — the program's generated functions, ``call(rt, args)``;
    * ``globals`` — the predefined C identifiers (name → Cell) a
      function binds its free names from;
    * ``steps`` (read/write) and ``max_steps`` — the loop-trip count and
      its budget;
    * ``charge`` — ``charge(rt, buffer, is_store)`` for an element
      access or a scalar store, or None where nothing is charged (the
      host);
    * ``heap``, ``stdout`` and (host only — ``scanf``/``getline`` do
      not survive translation) ``stdin`` — what ``malloc``, ``printf``
      and ``scanf`` touch.

    The device builtins additionally read the thread's own fields:
    ``records``/``index`` (``getRecord``'s input and cursor), ``chunk``/
    ``index``/``output`` (``getKV``'s input and cursor, ``storeKV``'s
    output), ``global_tid``, ``store`` and ``partitioner`` (the launch's
    KV store, whose portion ``global_tid`` ``emitKV`` fills, and the
    partitioner it files each key under) and ``charges`` (the
    ``LaneCharges`` every device entry and the access charge add to).
    ``frame`` is the lane's variable frame while a compiled body runs."""

    __slots__ = ("records", "index", "chunk", "output", "global_tid",
                 "store", "partitioner", "charges", "counters", "heap",
                 "_stdout", "steps", "frame", "builtins", "charge", "funcs",
                 "globals", "max_steps")

    def __init__(self, builtins: dict[str, Callable],
                 charge: Callable[[Any, Any, bool], None],
                 funcs: dict[str, Callable], globals_dict: dict[str, Cell],
                 charges: LaneCharges, records: list[bytes] = (),
                 global_tid: int = 0, chunk: list[Any] = (),
                 store: Any = None, partitioner: Any = None):
        self.builtins = builtins
        self.charge = charge
        self.funcs = funcs
        self.globals = globals_dict
        self.max_steps = _LANE_MAX_STEPS
        self.charges = charges
        self.records = records
        self.global_tid = global_tid
        self.store = store
        self.partitioner = partitioner
        self.chunk = chunk
        self.index = 0
        self.output: list[tuple[Any, Any]] = []
        self.counters = ExecCounters()
        self.heap: list[Buffer] = []
        self.steps = 0
        self.frame: list | None = None
        self._stdout: io.StringIO | None = None

    @property
    def stdout(self) -> io.StringIO:
        """Created on first use: only ``fprintf`` — which survives
        translation as a host-stream write — ever asks for it."""
        out = self._stdout
        if out is None:
            out = self._stdout = io.StringIO()
        return out


# --------------------------------------------------------------------------
# Device builtin tables (one per kernel, shared by every engine)
# --------------------------------------------------------------------------


def extract_value(arg: Any) -> Any:
    """Convert an evaluated kernel argument to a plain Python KV datum
    (``storeKV``, and the slow branch of ``emitKV``)."""
    cls = arg.__class__
    if cls is Ptr or cls is Buffer:
        return arg.c_string()
    if cls is ScalarRef:
        return arg.deref()
    return arg


def _kv_number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise CRuntimeError(
            f"getKV: cannot read {text!r} into a numeric variable"
        ) from None


def store_kv_arg(ref: Any, value: Any) -> None:
    """``getKV``'s slow branch: marshal one datum off the shuffle's
    textual wire with scanf semantics. A char-array target reads the
    datum's text (%s) — an int key 42 arrives as "42", not as the char
    with code 42 — and a numeric target parses text back to a number
    (%d/%f)."""
    cls = ref.__class__
    if cls is Ptr:
        buf = ref.buffer
        if buf is not None and buf.elem_type is T.CHAR:
            buf.store_string(ref.offset, kv_text(value))
            return
    elif cls is Cell:
        ref = ScalarRef(ref)
    elif cls is not ScalarRef:
        raise CRuntimeError(f"getKV target is not a pointer: {ref!r}")
    ref.store(_kv_number(value) if value.__class__ is str else value)


def _char_len(arg: Any) -> int:
    """The length a device string call is charged for one operand: its
    C string's when it points into a char buffer, else nothing."""
    if arg.__class__ is Ptr:
        buf = arg.buffer
        if buf is not None and buf.elem_type is T.CHAR:
            return len(buf.c_string(arg.offset))
    return 0


def common_lane_builtins(metrics: Any, vec: int) -> dict[str, Callable]:
    """Device versions of the C library, built from the host table's
    declarations: same semantics, plus the kernel's bound cost charges
    (tallied into ``metrics`` when a recorder is enabled, else None)
    taken inside the math.h and string.h entries. The runtime 'provides
    equivalent implementations' of C standard functions the GPU lacks
    (paper §4.1)."""
    host = HOST_BUILTINS
    charge_math = counted(math_call, metrics, "gpu.math_calls")
    charge_string = counted(bind_string_call(vec), metrics,
                            "gpu.string_calls")

    def math1(fn: Callable[[float], Any]) -> Callable:
        def entry(lane: Lane, x: Any) -> Any:
            charge_math(lane.charges, lane.counters)
            return fn(float(x))

        return entry

    def math2(fn: Callable[[float, float], Any]) -> Callable:
        def entry(lane: Lane, x: Any, y: Any) -> Any:
            charge_math(lane.charges, lane.counters)
            return fn(float(x), float(y))

        return entry

    def string2(typed: Callable) -> Callable:
        def entry(lane: Lane, a: Any, b: Any) -> Any:
            charge_string(lane.charges, max(_char_len(a), _char_len(b)))
            return typed(lane, a, b)

        return entry

    def strlen(lane: Lane, s: Any) -> int:
        charge_string(lane.charges, _char_len(s))
        return host["strlen"](lane, s)

    host_strcmp = host["strcmp"]

    def strcmp(lane: Lane, a: Any, b: Any) -> int:
        # Once per pair in every combine kernel. Two char-buffer
        # operands (key vs. previous key) come straight off the buffers'
        # decode caches; anything else is charged and compared by the
        # host function below.
        if a.__class__ is Ptr and b.__class__ is Ptr:
            abuf = a.buffer
            bbuf = b.buffer
            if abuf is not None and bbuf is not None \
                    and abuf.elem_type is T.CHAR and bbuf.elem_type is T.CHAR:
                cache = abuf._strcache
                sa = cache.get(a.offset) if cache is not None else None
                if sa is None:
                    sa = abuf.c_string(a.offset)
                cache = bbuf._strcache
                sb = cache.get(b.offset) if cache is not None else None
                if sb is None:
                    sb = bbuf.c_string(b.offset)
                length = len(sa)
                if len(sb) > length:
                    length = len(sb)
                charge_string(lane.charges, length)
                return (sa > sb) - (sa < sb)
        charge_string(lane.charges, max(_char_len(a), _char_len(b)))
        return host_strcmp(lane, a, b)

    def strncmp(lane: Lane, a: Any, b: Any, n: Any) -> int:
        charge_string(lane.charges, max(_char_len(a), _char_len(b)))
        return host["strncmp"](lane, a, b, n)

    def unsupported(name: str) -> Callable:
        def entry(lane: Lane, *args: Any) -> Any:
            raise GpuError(
                f"{name} survived translation into the GPU kernel; the "
                "translator should have rewritten it"
            )

        return entry

    gpu = dict(host)
    gpu.update((name, math1(fn)) for name, fn in MATH1.items())
    gpu.update((name, math2(fn)) for name, fn in MATH2.items())
    gpu.update((name, string2(host[name]))
               for name in ("strcpy", "strcat", "strstr"))
    gpu["strcmp"] = strcmp
    gpu["strlen"] = strlen
    gpu["strncmp"] = strncmp
    for name in ("printf", "scanf", "getline"):
        gpu[name] = unsupported(name)  # the translator rewrites these
    return gpu


def device_builtins(kernel: KernelIR, spec: Any,
                    metrics: Any) -> dict[str, Callable]:
    """``kernel``'s builtin table on a device of ``spec``, whose charges
    tally into ``metrics`` (a recorder's registry, or None): built by
    the first launch, reused by every later one. A traced run brings a
    fresh registry, so one slot per spec holds the table of the latest
    registry and another the untraced one."""
    tables = kernel.__dict__.setdefault("_device_builtins", {})
    key = (spec, metrics is not None)
    held = tables.get(key)
    if held is None or held[0] is not metrics:
        make = make_map_builtins if kernel.is_mapper else make_combine_builtins
        held = tables[key] = (metrics, make(kernel, spec, metrics))
    return held[1]


def make_map_builtins(kernel: KernelIR, spec: Any,
                      metrics: Any) -> dict[str, Callable]:
    """The map-kernel builtin table: common device library plus
    ``getRecord``/``emitKV`` reading the lane they are handed."""
    txn_bytes = spec.transaction_bytes
    vec = max(kernel.vector_width, 1)
    stealing = kernel.opt.record_stealing
    kv_nbytes = kernel.key_length + kernel.value_length
    charge_record = counted(bind_record_read(txn_bytes, stealing), metrics,
                            "gpu.record_reads")
    charge_emit = counted(bind_kv_emit(kv_nbytes, vec), metrics,
                          "gpu.kv_emits")

    @takes_cells(0)
    def get_record(lane: Lane, line_ref: Any) -> int:
        records = lane.records
        i = lane.index
        if i >= len(records):
            return -1
        rec = records[i]
        lane.index = i + 1
        n = len(rec)
        charge_record(lane.charges, lane.counters, n)
        if rec.isascii():
            # ASCII bytes survive the decode/encode round trip unchanged,
            # so the record can back the buffer directly.
            buf = Buffer(T.CHAR, n + 1, label="strlit")
            buf.data[:n] = rec
        else:
            buf = Buffer.from_string(rec.decode("utf-8", errors="replace"))
        buf.space = "private"
        cls = line_ref.__class__
        if cls is Cell and line_ref.ctype.__class__ is T.Pointer:
            line_ref.value = Ptr(buf, 0)  # ScalarRef.store, for a char*
        else:
            if cls is Cell:
                line_ref = ScalarRef(line_ref)
            elif cls is not ScalarRef and cls is not Ptr:
                raise CRuntimeError("getRecord needs &line")
            line_ref.store(Ptr(buf, 0))
        return n

    def emit_kv(lane: Lane, key: Any, value: Any) -> int:
        # The hot shape — (char key, int value) — reads three structures
        # without a call: the key buffer's decode cache, the
        # partitioner's text-key memo and the thread's portion of the KV
        # store. What they do not answer (a cold cache, an unseen key, a
        # full portion, a bad thread id) goes to the owning method,
        # which also owns the error.
        partitioner = lane.partitioner
        store = lane.store
        buf = key.buffer if key.__class__ is Ptr else None
        if buf is not None:
            cache = buf._strcache
            text = cache.get(key.offset) if cache is not None else None
            key = text if text is not None else buf.c_string(key.offset)
        else:
            key = extract_value(key)
        if value.__class__ is not int:
            value = extract_value(value)
        part = partitioner._str_memo.get(key) if key.__class__ is str \
            else None
        if part is None:
            part = partitioner.partition(key)
        tid = lane.global_tid
        portions = store._slots
        portion = portions[tid] if 0 <= tid < len(portions) else None
        if portion is not None and len(portion) < store.stores_per_thread:
            portion.append(KVPair(key, value, part))
        else:
            store.emit(tid, key, value, part)
        charge_emit(lane.charges, lane.counters)
        return kv_nbytes

    builtins = common_lane_builtins(metrics, vec)
    builtins["getRecord"] = get_record
    builtins["emitKV"] = emit_kv
    return builtins


def make_combine_builtins(kernel: KernelIR, spec: Any,
                          metrics: Any) -> dict[str, Callable]:
    """The combine-kernel builtin table: common device library plus
    ``getKV``/``storeKV`` reading the lane they are handed."""
    txn_bytes = spec.transaction_bytes
    vec = max(kernel.vector_width, 1)
    cooperative = vec > 1
    kv_bytes = kernel.key_length + kernel.value_length
    charge_move = counted(bind_kv_move(kv_bytes, txn_bytes, vec, cooperative),
                          metrics, "gpu.kv_moves")

    @takes_cells(0, 1)
    def get_kv(lane: Lane, key_ref: Any, value_ref: Any) -> int:
        chunk = lane.chunk
        i = lane.index
        if i >= len(chunk):
            return -1
        pair = chunk[i]
        lane.index = i + 1
        charge_move(lane.charges)
        lane.counters.bytes_in += kv_bytes
        # The hot shape is (text key → char array, int value → &int);
        # everything else is store_kv_arg's scanf-semantics marshalling.
        key = pair.key
        buf = key_ref.buffer if key_ref.__class__ is Ptr else None
        if buf is not None and buf.elem_type is T.CHAR \
                and key.__class__ is str:
            buf.store_string(key_ref.offset, key)
        else:
            store_kv_arg(key_ref, key)
        value = pair.value
        if value_ref.__class__ is Cell and value_ref.ctype is T.INT \
                and value.__class__ is int:
            value_ref.value = value
        else:
            store_kv_arg(value_ref, value)
        return 2

    def store_kv(lane: Lane, key: Any, value: Any) -> int:
        lane.output.append((extract_value(key), extract_value(value)))
        charge_move(lane.charges)
        lane.counters.bytes_out += kv_bytes
        return kv_bytes

    builtins = common_lane_builtins(metrics, vec)
    builtins["getKV"] = get_kv
    builtins["storeKV"] = store_kv
    return builtins


# --------------------------------------------------------------------------
# Snapshot materialization helpers (shared with the tree engine)
# --------------------------------------------------------------------------


def clone_buffer(buf: Buffer, space: str) -> Buffer:
    copy = Buffer(buf.elem_type, buf.size, label=buf.label, space=space)
    copy.data[:] = buf.data
    return copy


def snapshot_value(snapshot: dict[str, Any], var: VarInfo) -> Any:
    if var.name not in snapshot:
        raise GpuError(
            f"host snapshot missing firstprivate/sharedRO variable {var.name!r}"
        )
    return snapshot[var.name]


def kernel_program(kernel: KernelIR) -> A.Program:
    """A Program wrapper exposing the user's helper functions (anything
    besides ``main``) so kernel bodies can call them — the paper's
    translator emits ``__device__`` versions of such helpers.

    One Program per kernel, cached on the KernelIR: a stable Program
    identity is what lets the compile/str-literal caches in
    :mod:`repro.minic.cache` hit across threads and splits instead of
    re-walking the AST."""
    program = kernel.__dict__.get("_cached_program")
    if program is None:
        program = A.Program(functions=kernel.helpers)
        setattr(kernel, "_cached_program", program)
    return program


# --------------------------------------------------------------------------
# The thread environment: Algorithm 1's placement table, as Cell factories
# --------------------------------------------------------------------------


def _array_factory(ctype: T.Array, kname: str,
                   space: str | None) -> Callable[[], Cell]:
    """A fresh array Cell in memory space ``space`` per call, with the
    size math and the >2-D rejection hoisted to factory-build time."""
    elem, size, inner = ctype.flattened(kname)

    def make() -> Cell:
        buf = Buffer(elem, size, label=kname)
        buf.inner_dim = inner
        buf.space = space
        return Cell(value=buf, ctype=ctype)

    return make


def _declare_factory(ctype: T.CType, kname: str,
                     value: Any) -> Callable[[], Cell]:
    """A declared variable's Cell holding ``value`` — None: what a C
    declaration leaves there, as ``Interpreter.declare`` does."""
    if isinstance(ctype, T.Array):
        return _array_factory(ctype, kname, space=None)
    if value is None:
        if ctype.is_pointer:
            value = NULL
        elif ctype.is_float:
            value = 0.0
        else:
            value = 0
    return lambda: Cell(value=value, ctype=ctype)


def _var_cell_factory(var: VarInfo, snapshot: dict[str, Any],
                      shared_ro: dict[str, Buffer]) -> Callable[[], Cell]:
    """One kernel variable's per-lane Cell factory: where Algorithm 1
    placed it (constant, sharedRO/texture, firstprivate, shared,
    private) decides what a thread sees under its name."""
    kname = var.kernel_name
    klass = var.klass
    ctype = var.ctype
    if klass in (VarClass.CONST_SCALAR, VarClass.FIRSTPRIVATE_SCALAR):
        return _declare_factory(ctype, kname, snapshot_value(snapshot, var))
    if klass in (VarClass.GLOBAL_RO_ARRAY, VarClass.TEXTURE_ARRAY):
        ptr = Ptr(shared_ro[var.name], 0)
        return lambda: Cell(value=ptr, ctype=_VOID_PTR)
    if klass in (VarClass.FIRSTPRIVATE_ARRAY, VarClass.SHARED_ARRAY):
        host_val = snapshot.get(var.name)
        space = "shared" if klass is VarClass.SHARED_ARRAY else "private"
        if isinstance(host_val, Buffer):
            src = host_val
        elif isinstance(host_val, Ptr) and host_val.buffer is not None:
            src = host_val.buffer
        elif isinstance(ctype, T.Array):
            make_array = _array_factory(ctype, kname, space)
            if host_val is not None:
                raise GpuError(
                    f"cannot initialize firstprivate array {var.name!r} "
                    f"from {type(host_val).__name__}"
                )
            return make_array
        else:
            return _declare_factory(
                ctype, kname, host_val if host_val is not None else 0
            )
        return lambda: Cell(value=Ptr(clone_buffer(src, space), 0),
                            ctype=_VOID_PTR)
    # PRIVATE
    if isinstance(ctype, T.Array):
        return _array_factory(ctype, kname, "private")
    return _declare_factory(ctype, kname, None)


#: Predefined C identifiers, matching ``Interpreter.__init__``'s
#: ``_globals``. Factories, not shared cells: the tree engine gives every
#: lane a fresh interpreter (fresh cells), and kernels may write them.
_GLOBAL_CELL_FACTORIES: dict[str, Callable[[], Cell]] = {
    "stdin": lambda: Cell(value="<stdin>", ctype=_VOID_PTR),
    "stdout": lambda: Cell(value="<stdout>", ctype=_VOID_PTR),
    "stderr": lambda: Cell(value="<stderr>", ctype=_VOID_PTR),
    "NULL": lambda: Cell(value=NULL, ctype=_VOID_PTR),
    "EOF": lambda: Cell(value=-1, ctype=T.INT),
}


def _fresh_globals() -> dict[str, Cell]:
    return {name: make() for name, make in _GLOBAL_CELL_FACTORIES.items()}


def kernel_cell_factories(
    kernel: KernelIR,
    snapshot: dict[str, Any],
    shared_ro: dict[str, Buffer],
) -> dict[str, Callable[[], Cell]]:
    """Kernel name → per-lane Cell factory for every kernel variable, in
    declaration order: the one thread-environment table every engine
    runs (the tree engine into a scope dict, the others into frame
    slots). Building it *validates* every variable (snapshot presence,
    array initialization, dimensionality) whether or not the body
    mentions it, so every engine raises the same error on a launch's
    first active lane."""
    return {var.kernel_name: _var_cell_factory(var, snapshot, shared_ro)
            for var in kernel.variables.values()}


def build_env_plan(
    suite: Any,
    kernel: KernelIR,
    snapshot: dict[str, Any],
    shared_ro: dict[str, Buffer],
) -> tuple[tuple[int, Callable[[], Cell]], ...]:
    """The per-launch environment plan: for each free variable of the
    compiled body, a (slot, factory) pair that materializes the lane's
    Cell for it — a kernel variable's factory, else a predefined
    global's. Frees that are neither keep their None slot and fail
    lazily with the tree-walker's 'undeclared identifier' message."""
    factories = kernel_cell_factories(kernel, snapshot, shared_ro)
    plan: list[tuple[int, Callable[[], Cell]]] = []
    for name, slot in suite.frees:
        factory = factories.get(name) or _GLOBAL_CELL_FACTORIES.get(name)
        if factory is not None:
            plan.append((slot, factory))
    return tuple(plan)


# --------------------------------------------------------------------------
# Lane runners: what a launch asks of an engine
# --------------------------------------------------------------------------


class LaneRunner:
    """One launch's lane-execution context, and the interface the
    launch folds in :mod:`repro.gpu.executor` drive.

    Holds what every engine resolves once per launch — the kernel's
    builtin table and the access charge (both tallying into ``metrics``
    when a recorder is enabled), the generated functions, the predefined
    globals, and a map launch's KV store and partitioner — and runs a
    lane by constructing its :class:`Lane` over those and handing it to
    the engine's ``_run_lane_body``."""

    def __init__(
        self,
        device: Any,
        kernel: KernelIR,
        snapshot: dict[str, Any],
        shared_ro: dict[str, Buffer],
        store: Any = None,
        partitioner: Any = None,
        metrics: Any = None,
    ):
        self.kernel = kernel
        self.snapshot = snapshot
        self.shared_ro = shared_ro
        self.store = store
        self.partitioner = partitioner
        self.metrics = metrics
        self.builtins = device_builtins(kernel, device.spec, metrics)
        self.charge_access = counted(access, metrics, "gpu.accesses")
        # The kernel program's generated functions: none on the tree
        # engine, the compiled engines set theirs.
        self.funcs: dict[str, Callable] = {}
        # Helper functions bind their frees from the lane's globals, so
        # they need per-lane cells (a helper may write them); bodies bind
        # globals through the env plan instead, so helper-less kernels —
        # the common case — share one launch-level dict.
        self._shared_globals = None if kernel.helpers else _fresh_globals()

    def new_lane(self, charges: LaneCharges, records: list[bytes] = (),
                 global_tid: int = 0, chunk: list[Any] = ()) -> Lane:
        """The :class:`Lane` of one map thread (``records``,
        ``global_tid``) or one combine chunk (``chunk``)."""
        globals_dict = self._shared_globals
        if globals_dict is None:
            globals_dict = _fresh_globals()
        return Lane(self.builtins, self.charge_access, self.funcs,
                    globals_dict, charges, records, global_tid, chunk,
                    self.store, self.partitioner)

    def _run_lane_body(self, lane: Lane) -> None:
        """Execute the kernel body once as ``lane``."""
        raise NotImplementedError

    def run_map_warp(
        self, batch: list[tuple[list[bytes], int, LaneCharges]]
    ) -> list[ExecCounters]:
        """Run a launch's active lanes — ``(records, global tid,
        charges)`` each, in tid order. Returns per-lane counters in
        batch order; each ``charges`` object is charged in place. Lanes
        never interact (the KV store is per-thread and read-only tables
        are shared), so an engine may execute the batch any way that is
        indistinguishable from this loop."""
        out = []
        for recs, tid, charges in batch:
            lane = self.new_lane(charges, recs, tid)
            self._run_lane_body(lane)
            out.append(lane.counters)
        return out

    def run_combine_chunk(
        self, chunk: list[Any], charges: LaneCharges
    ) -> tuple[ExecCounters, list[tuple[Any, Any]]]:
        lane = self.new_lane(charges, chunk=chunk)
        self._run_lane_body(lane)
        return lane.counters, lane.output


def scalar_free_ctypes(kernel: KernelIR) -> dict[str, T.CType]:
    """Scalar kernel variables whose per-lane cell is guaranteed to
    carry the declared ctype (their factories mirror
    Interpreter.declare); array/pointer-rewritten classes are left
    generic because their cells hold Ptr under a void* ctype."""
    return {
        var.kernel_name: var.ctype
        for var in kernel.variables.values()
        if var.klass in (VarClass.CONST_SCALAR,
                         VarClass.FIRSTPRIVATE_SCALAR, VarClass.PRIVATE)
        and not isinstance(var.ctype, T.Array)
    }


class CompiledLaneRunner(LaneRunner):
    """Per-launch compiled execution context for one kernel.

    Construction resolves everything that is launch-invariant: the
    compiled body (from the job-level cache, keyed on the program), the
    kernel's builtin table, the access charge, and — lazily, on the first
    active lane, matching the tree engine's error timing — the
    environment plan. Each lane invocation is then: run the plan's
    factories into a fresh frame, call the generated body function with
    the lane as ``rt``."""

    def __init__(
        self,
        device: Any,
        kernel: KernelIR,
        snapshot: dict[str, Any],
        shared_ro: dict[str, Buffer],
        store: Any = None,
        partitioner: Any = None,
        metrics: Any = None,
    ):
        super().__init__(device, kernel, snapshot, shared_ro, store,
                         partitioner, metrics)
        self.suite = compiled_kernel_body(
            kernel_program(kernel), kernel.body, scalar_free_ctypes(kernel)
        )
        self.funcs = self.suite.cp.functions
        self._plans: dict[Any, tuple] = {}

    def env_plan(self, suite: Any) -> tuple[tuple[int, Callable[[], Cell]], ...]:
        """``suite``'s environment plan for this launch, built on first
        use (the first active lane)."""
        plan = self._plans.get(suite)
        if plan is None:
            plan = self._plans[suite] = build_env_plan(
                suite, self.kernel, self.snapshot, self.shared_ro
            )
        return plan

    def new_frame(self, suite: Any) -> list:
        """A fresh variable frame for one lane of ``suite``."""
        frame: list = [None] * suite.nslots
        for slot, make in self.env_plan(suite):
            frame[slot] = make()
        return frame

    def _run_lane_body(self, lane: Lane) -> None:
        suite = self.suite
        lane.frame = frame = self.new_frame(suite)
        suite.execute_with_frame(lane, frame)
