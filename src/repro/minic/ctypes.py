"""C type model for the mini-C dialect.

Types are immutable and interned where convenient. Sizes follow LP64
(int 4, long 8, pointers 8) — they matter for GPU memory accounting and
vector-width decisions, not for host correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CRuntimeError, SemanticError


@dataclass(frozen=True)
class CType:
    """Base class; concrete types below."""

    def sizeof(self) -> int:
        raise NotImplementedError

    @property
    def is_integer(self) -> bool:
        return False

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_arithmetic(self) -> bool:
        return self.is_integer or self.is_float

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False


@dataclass(frozen=True)
class Scalar(CType):
    """A named scalar type (int, char, float, double, long, ...)."""

    name: str

    _SIZES = {
        "void": 0,
        "char": 1,
        "short": 2,
        "int": 4,
        "unsigned": 4,
        "long": 8,
        "size_t": 8,
        "float": 4,
        "double": 8,
    }
    _INTEGERS = frozenset(
        ["char", "short", "int", "unsigned", "long", "size_t"]
    )
    _FLOATS = frozenset(["float", "double"])

    def sizeof(self) -> int:
        return self._SIZES[self.name]

    @property
    def is_integer(self) -> bool:
        return self.name in self._INTEGERS

    @property
    def is_float(self) -> bool:
        return self.name in self._FLOATS

    def __str__(self) -> str:
        return self.name


VOID = Scalar("void")
CHAR = Scalar("char")
SHORT = Scalar("short")
INT = Scalar("int")
UNSIGNED = Scalar("unsigned")
LONG = Scalar("long")
SIZE_T = Scalar("size_t")
FLOAT = Scalar("float")
DOUBLE = Scalar("double")

_BY_NAME = {
    t.name: t
    for t in [VOID, CHAR, SHORT, INT, UNSIGNED, LONG, SIZE_T, FLOAT, DOUBLE]
}


def scalar(name: str) -> Scalar:
    """Look up a scalar type by keyword name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise SemanticError(f"unknown type name {name!r}") from None


@dataclass(frozen=True)
class Pointer(CType):
    base: CType

    def sizeof(self) -> int:
        return 8

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.base}*"


@dataclass(frozen=True)
class Array(CType):
    """A fixed-size array. ``size`` may be None for unsized parameters."""

    base: CType
    size: int | None

    def sizeof(self) -> int:
        if self.size is None:
            raise SemanticError("sizeof on unsized array")
        return self.base.sizeof() * self.size

    @property
    def is_array(self) -> bool:
        return True

    def flattened(self, name: str) -> tuple[CType, int, int | None]:
        """(element type, flat size, inner row length) of the one
        row-major Buffer that backs this array — 2-D at most. ``name``
        is the declared variable, for the error every engine raises."""
        base = self.base
        size = self.size or 0
        inner: int | None = None
        if isinstance(base, Array):
            inner = base.size or 0
            size *= inner
            base = base.base
            if isinstance(base, Array):
                raise CRuntimeError(
                    f"arrays of more than two dimensions unsupported ({name})"
                )
        return base, size, inner

    def __str__(self) -> str:
        n = "" if self.size is None else str(self.size)
        return f"{self.base}[{n}]"


def decay(t: CType) -> CType:
    """Array-to-pointer decay for expression contexts."""
    if isinstance(t, Array):
        return Pointer(t.base)
    return t
