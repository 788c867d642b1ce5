"""Runtime value model for mini-C execution.

Scalars are Python ints/floats held in :class:`Cell` slots. Arrays and
malloc'ed storage are :class:`Buffer` objects; pointers are
(:class:`Buffer`, offset) pairs. ``&scalar`` yields a :class:`ScalarRef`
so ``scanf``-style out-parameters work. The operator rules that depend
only on these classes — C ``/`` and ``%``, pointer arithmetic and
comparison, the pointer/reference coercions of ``[]`` and ``*`` — live
here too: both execution engines import the one copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import CRuntimeError
from . import ctypes as T


def float_to_int(value: float) -> int:
    """C ``(int)`` cast of a double. Non-finite values have no integer
    representation; both execution backends must trap identically rather
    than leak a Python OverflowError/ValueError."""
    if value != value or value in (float("inf"), float("-inf")):
        raise CRuntimeError(f"cast of non-finite double {value!r} to int")
    return int(value)


@dataclass
class Cell:
    """A mutable variable slot."""

    value: Any = 0
    ctype: T.CType = T.INT


class Buffer:
    """Contiguous typed storage; char buffers use a bytearray."""

    #: write() coercion kinds, resolved once at construction.
    _W_CHAR, _W_FLOAT, _W_INT, _W_RAW = 0, 1, 2, 3

    __slots__ = ("elem_type", "data", "size", "label", "freed", "space",
                 "inner_dim", "_decay", "_strcache", "_wkind")

    def __init__(self, elem_type: T.CType, size: int, label: str = "",
                 space: str | None = None):
        # For flattened 2-D arrays: the row length (columns); indexing the
        # buffer once yields a row pointer with this stride.
        self.inner_dim: int | None = None
        self._decay: "Ptr | None" = None
        # Decoded-string cache (offset -> str), dropped on any char
        # write; see c_string().
        self._strcache: dict[int, str] | None = None
        if size < 0:
            raise CRuntimeError(f"negative buffer size {size}")
        self.elem_type = elem_type
        self.size = size
        self.label = label
        self.freed = False
        # GPU memory space tag ('global' | 'texture' | 'shared' | 'private'
        # | None for host memory); the GPU executor charges accesses by it.
        self.space = space
        if elem_type == T.CHAR:
            self.data: Any = bytearray(size)
            self._wkind = Buffer._W_CHAR
        elif elem_type.is_float:
            self.data = [0.0] * size
            self._wkind = Buffer._W_FLOAT
        else:
            self.data = [0] * size
            self._wkind = Buffer._W_INT if elem_type.is_integer \
                else Buffer._W_RAW

    @classmethod
    def from_string(cls, text: str) -> "Buffer":
        """A NUL-terminated char buffer holding ``text``."""
        raw = text.encode("utf-8", errors="replace")
        buf = cls(T.CHAR, len(raw) + 1, label="strlit")
        buf.data[: len(raw)] = raw
        return buf

    def decay_ptr(self) -> "Ptr":
        """The array-decay pointer ``Ptr(self, 0, stride=inner_dim or 1)``.

        Ptr is frozen, so one instance serves every rvalue mention of the
        array — a hot-path allocation saver. ``inner_dim`` is fixed right
        after construction, before any decay can be observed."""
        ptr = self._decay
        if ptr is None:
            ptr = Ptr(self, 0, self.inner_dim or 1)
            self._decay = ptr
        return ptr

    def _check(self, index: int) -> None:
        if self.freed:
            raise CRuntimeError(f"use-after-free on buffer {self.label!r}")
        if not 0 <= index < self.size:
            raise CRuntimeError(
                f"out-of-bounds access: index {index} on buffer "
                f"{self.label!r} of size {self.size}"
            )

    def read(self, index: int) -> Any:
        self._check(index)
        return self.data[index]

    def write(self, index: int, value: Any) -> None:
        self._check(index)
        kind = self._wkind
        if kind == 0:  # char
            self.data[index] = int(value) & 0xFF
            self._strcache = None
        elif kind == 1:  # float
            self.data[index] = float(value)
        elif kind == 2:  # integer
            self.data[index] = int(value)
        else:
            self.data[index] = value

    def resize(self, new_size: int) -> None:
        """Grow the buffer (getline's realloc behaviour)."""
        if new_size <= self.size:
            return
        if self.elem_type == T.CHAR:
            self.data.extend(b"\0" * (new_size - self.size))
            self._strcache = None
        else:
            filler = 0.0 if self.elem_type.is_float else 0
            self.data.extend([filler] * (new_size - self.size))
        self.size = new_size

    def c_string(self, start: int = 0) -> str:
        """Decode a NUL-terminated string beginning at ``start``.

        Decodes are memoized per offset until the next char write —
        printf re-reads its format-string buffer once per emitted KV
        pair, and string literals are never written at all.

        The cache is consulted before any validity check: a warm entry
        proves the buffer is char-typed, live, and the offset in bounds
        (entries only form after the checks pass, writes and resize
        invalidate, and free() drops the cache entirely)."""
        cache = self._strcache
        if cache is not None:
            text = cache.get(start)
            if text is not None:
                return text
        if self._wkind != Buffer._W_CHAR:
            raise CRuntimeError("c_string on non-char buffer")
        if self.size and (self.freed or not 0 <= start < self.size):
            self._check(start)
        if cache is None:
            cache = self._strcache = {}
        end = self.data.find(b"\0", start)
        if end == -1:
            end = self.size
        text = self.data[start:end].decode("utf-8", errors="replace")
        cache[start] = text
        return text

    def store_string(self, start: int, text: str) -> int:
        """Store ``text`` + NUL at ``start``; returns bytes written (excl NUL)."""
        # Sorted KV streams store the same key into the same buffer for
        # every pair of a run; when the decode cache proves the buffer
        # already holds exactly ``text`` + NUL there, the store is a no-op
        # (ASCII only — its decode/encode round trip is bijective).
        cache = self._strcache
        if (cache is not None and cache.get(start) == text and text.isascii()
                and start + len(text) < self.size
                and self.data[start + len(text)] == 0):
            return len(text)
        raw = text.encode("utf-8", errors="replace")
        needed = start + len(raw) + 1
        if needed > self.size:
            raise CRuntimeError(
                f"string of {len(raw)} bytes overflows buffer "
                f"{self.label!r} (size {self.size}, offset {start})"
            )
        self.data[start : start + len(raw)] = raw
        self.data[start + len(raw)] = 0
        # ASCII text round-trips decode(encode(text)) exactly, so the
        # just-stored string can seed the decode cache directly.
        self._strcache = {start: text} if text.isascii() else None
        return len(raw)

    def __repr__(self) -> str:
        return f"Buffer({self.elem_type}, size={self.size}, label={self.label!r})"


@dataclass(frozen=True)
class Ptr:
    """A typed pointer into a :class:`Buffer` (or NULL when buffer is None).

    ``stride`` > 1 marks a row pointer into a flattened 2-D array: one
    more index step multiplies by the stride before reaching elements.
    """

    buffer: Buffer | None
    offset: int = 0
    stride: int = 1

    @property
    def is_null(self) -> bool:
        return self.buffer is None

    def deref(self) -> Any:
        if self.buffer is None:
            raise CRuntimeError("null pointer dereference")
        return self.buffer.read(self.offset)

    def store(self, value: Any) -> None:
        if self.buffer is None:
            raise CRuntimeError("store through null pointer")
        self.buffer.write(self.offset, value)

    def add(self, delta: int) -> "Ptr":
        return Ptr(self.buffer, self.offset + int(delta) * self.stride, self.stride)

    def c_string(self) -> str:
        if self.buffer is None:
            raise CRuntimeError("c_string on null pointer")
        return self.buffer.c_string(self.offset)


NULL = Ptr(None, 0)


@dataclass(frozen=True)
class ScalarRef:
    """Address of a scalar variable (``&x``)."""

    cell: Cell

    def deref(self) -> Any:
        return self.cell.value

    def store(self, value: Any) -> None:
        # Identity checks against the interned scalar ctype singletons
        # sidestep the is_float/is_integer property lookups on the
        # scanf hot path; the property tail keeps exotic types working.
        cell = self.cell
        ct = cell.ctype
        if ct is T.INT or ct is T.LONG or ct is T.SIZE_T:
            cell.value = value if value.__class__ is int else int(value)
        elif ct is T.FLOAT or ct is T.DOUBLE:
            cell.value = value if value.__class__ is float else float(value)
        elif ct.is_float:
            cell.value = float(value)
        elif ct.is_integer:
            cell.value = int(value)
        else:
            cell.value = value


def truthy(value: Any) -> bool:
    """C truthiness for ints, floats, and pointers."""
    if isinstance(value, Ptr):
        return value.buffer is not None
    return bool(value)


# --------------------------------------------------------------------------
# Operator semantics shared by the tree-walker and the generated code
# --------------------------------------------------------------------------


def c_div(left: Any, right: Any) -> Any:
    """C ``/``: integer division truncates toward zero."""
    if right == 0:
        raise CRuntimeError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        q = abs(left) // abs(right)
        return q if (left < 0) == (right < 0) else -q
    return left / right


def c_mod(left: Any, right: Any) -> Any:
    """C ``%``: the result takes the dividend's sign."""
    if right == 0:
        raise CRuntimeError("modulo by zero")
    r = abs(left) % abs(right)
    return r if left >= 0 else -r


def ptr_binop(op: str, left: Any, right: Any) -> Any:
    """``left op right`` where at least one operand is a :class:`Ptr`."""
    if op == "+" and isinstance(left, Ptr):
        return left.add(int(right))
    if op == "+" and isinstance(right, Ptr):
        return right.add(int(left))
    if op == "-" and isinstance(left, Ptr) and isinstance(right, Ptr):
        if left.buffer is not right.buffer:
            raise CRuntimeError("pointer difference across buffers")
        return left.offset - right.offset
    if op == "-" and isinstance(left, Ptr):
        return left.add(-int(right))
    if op in ("==", "!="):
        same = (
            isinstance(left, Ptr)
            and isinstance(right, Ptr)
            and left.buffer is right.buffer
            and (left.buffer is None or left.offset == right.offset)
        )
        if isinstance(left, Ptr) and isinstance(right, int):
            same = left.is_null and right == 0
        if isinstance(right, Ptr) and isinstance(left, int):
            same = right.is_null and left == 0
        return int(same if op == "==" else not same)
    raise CRuntimeError(f"unsupported pointer operation {op!r}")


def as_ptr(value: Any) -> Ptr:
    """The non-null pointer ``value[...]`` indexes through."""
    if isinstance(value, Ptr):
        if value.buffer is None:
            raise CRuntimeError("null pointer indexed")
        return value
    if isinstance(value, Buffer):
        return Ptr(value, 0)
    raise CRuntimeError(f"expected a pointer, got {value!r}")


def as_ref(value: Any) -> Ptr | ScalarRef:
    """The reference ``*value`` dereferences."""
    if isinstance(value, (Ptr, ScalarRef)):
        return value
    raise CRuntimeError(f"cannot dereference {value!r}")
