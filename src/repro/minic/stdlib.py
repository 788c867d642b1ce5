"""Modelled C standard library for mini-C execution.

Provides stdio (``getline``/``scanf``/``printf``), string.h, stdlib.h, and
math.h, plus the ``getWord`` helper the paper's Wordcount listing uses.

There is one builtin table and one calling convention behind it. Every
builtin is declared once, as a typed positional Python function
``impl(facade, a, b, ...)`` — ``facade`` is the run's execution context
(the interpreter on the host, the thread's ``Lane`` on the GPU), so a
builtin can touch its IO streams, heap and
instrumentation counters. A table maps each name to a :class:`Builtin`,
which *is* that function plus the list-convention callable
``b(facade, [a, b, ...])`` derived from its signature (arity check, then
``impl(facade, *args)``). Generated code calls ``impl`` directly at call
sites of the right arity; the tree-walker and every other call site go
through the derived callable — same function, same errors.
:data:`SIGNATURES` is what the emitter knows statically about a name.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

from ..errors import CRuntimeError
from . import ctypes as T
from .values import NULL, Buffer, Cell, Ptr, ScalarRef


class InputStream:
    """Cursor over the program's standard input text.

    Supports both line-oriented reads (``getline``) and token-oriented
    reads (``scanf``), which may be interleaved like real stdio.
    """

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def at_eof(self) -> bool:
        return self.pos >= len(self.text)

    def read_line(self) -> str | None:
        """Read up to and including the next newline; None at EOF."""
        if self.at_eof:
            return None
        end = self.text.find("\n", self.pos)
        if end == -1:
            line = self.text[self.pos :]
            self.pos = len(self.text)
            return line
        line = self.text[self.pos : end + 1]
        self.pos = end + 1
        return line

    _WS_RE = re.compile(r"[ \t\r\n]*")
    _TOKEN_RE = re.compile(r"[ \t\r\n]*([^ \t\r\n]*)")
    _INT_RE = re.compile(r"[+-]?\d+")
    _FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")

    def read_token(self) -> str | None:
        """Whitespace-delimited token (scanf %s); None at EOF."""
        m = self._TOKEN_RE.match(self.text, self.pos)
        token = m.group(1)
        self.pos = m.end()
        return token if token else None

    def read_int(self) -> int | None:
        self.pos = self._WS_RE.match(self.text, self.pos).end()
        m = self._INT_RE.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return int(m.group(0))

    def read_float(self) -> float | None:
        self.pos = self._WS_RE.match(self.text, self.pos).end()
        m = self._FLOAT_RE.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return float(m.group(0))


# --------------------------------------------------------------------------
# printf / scanf machinery
# --------------------------------------------------------------------------

_FMT_RE = re.compile(r"%([-+ #0]*)(\d+)?(?:\.(\d+))?(l|ll|h)?([diufFeEgGscx%])")


def _as_str(value: Any) -> str:
    cls = value.__class__
    if cls is Ptr:
        buffer = value.buffer
        if buffer is None:
            raise CRuntimeError("c_string on null pointer")
        return buffer.c_string(value.offset)
    if cls is Buffer:
        return value.c_string()
    if cls is str:
        return value
    raise CRuntimeError(f"%s argument is not a string: {value!r}")


def _render_int(value: Any) -> str:
    """Bare ``%d``/``%i``. Named so the source emitter can recognise it
    and render a proven int without the call."""
    return str(int(value))


def _compile_format(
    fmt: str,
) -> tuple[tuple[tuple[str, Any], ...], str]:
    """Parse ``fmt`` once into (literal, renderer) segments plus a tail
    literal. A renderer is None for ``%%`` (the ``%`` is folded into the
    literal); otherwise it maps one argument to its formatted text."""
    segs: list[tuple[str, Any]] = []
    pos = 0
    for m in _FMT_RE.finditer(fmt):
        lit = fmt[pos : m.start()]
        pos = m.end()
        flags, width, prec, _length, conv = m.groups()
        if conv == "%":
            segs.append((lit + "%", None))
            continue
        spec = "%" + (flags or "") + (width or "") + (f".{prec}" if prec else "")
        if conv in "di":
            if spec == "%":
                render: Any = _render_int
            else:
                render = lambda v, _s=spec + "d": _s % int(v)
        elif conv == "u":
            render = lambda v, _s=spec + "d": _s % (int(v) & 0xFFFFFFFF)
        elif conv == "x":
            render = lambda v, _s=spec + "x": _s % int(v)
        elif conv in "fFeEgG":
            render = lambda v, _s=spec + conv: _s % float(v)
        elif conv == "c":
            render = lambda v: chr(int(v)) if not isinstance(v, str) else v[:1]
        else:  # conv == "s"
            if spec == "%":
                render = _as_str
            else:
                render = lambda v, _s=spec + "s": _s % _as_str(v)
        segs.append((lit, render))
    return tuple(segs), fmt[pos:]


_FMT_CACHE: dict[str, tuple[tuple[tuple[str, Any], ...], str]] = {}


def c_format(fmt: str, args: list[Any]) -> str:
    """Render a printf format string against evaluated arguments.

    Format strings are parsed once and memoized. (The compiled backend
    renders literal formats inline from the same segments,
    ``compile._printf_lines``; this is the tree-walker's printf and the
    non-literal-format case.)"""
    cached = _FMT_CACHE.get(fmt)
    if cached is None:
        cached = _FMT_CACHE[fmt] = _compile_format(fmt)
    segs, tail = cached
    out: list[str] = []
    arg_i = 0
    nargs = len(args)
    for lit, render in segs:
        if lit:
            out.append(lit)
        if render is not None:
            if arg_i >= nargs:
                raise CRuntimeError(
                    f"printf: too few arguments for format {fmt!r}"
                )
            out.append(render(args[arg_i]))
            arg_i += 1
    if tail:
        out.append(tail)
    return "".join(out)


def _store_out(target: Any, value: Any) -> None:
    """Store through an out-parameter: ``&x`` as a Cell or ScalarRef
    (coerced through the cell's ctype), or an element pointer."""
    cls = target.__class__
    if cls is Cell:
        ct = target.ctype
        if ct is T.INT or ct is T.LONG or ct is T.SIZE_T:
            target.value = value if value.__class__ is int else int(value)
        else:
            ScalarRef(target).store(value)
    elif cls is ScalarRef or cls is Ptr:
        target.store(value)
    else:
        raise CRuntimeError(f"scanf target is not a pointer: {target!r}")


_SCAN_CACHE: dict[str, tuple[str, ...]] = {}

#: One-shot regexes for the fully-whitespace-separated instances of the
#: two-conversion scanf shapes (the compiled backend's inline fast
#: path): both fields and the gap between them match in a single pass.
#: The separator is a *mandatory* whitespace run — without it the first
#: greedy group could backtrack and donate its tail to the second field
#: ("12345" scanning as 1234/5), which the stepwise conversions of
#: :func:`c_scan` would never do. Non-separated or partial inputs simply
#: fail the combined match and go through c_scan.
_SCAN_PAIR_RES: dict[tuple[str, str], "re.Pattern[str]"] = {
    ("s", "d"): re.compile(
        r"[ \t\r\n]*([^\x00 \t\r\n]+)[ \t\r\n]+([+-]?\d+)"),
    ("d", "d"): re.compile(
        r"[ \t\r\n]*([+-]?\d+)[ \t\r\n]+([+-]?\d+)"),
    ("d", "f"): re.compile(
        r"[ \t\r\n]*([+-]?\d+)[ \t\r\n]+"
        r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"),
}


def _scan_convs(fmt: str) -> tuple[str, ...]:
    """The conversion characters of a scanf format, parsed once."""
    convs = _SCAN_CACHE.get(fmt)
    if convs is None:
        convs = tuple(
            m.group(5) for m in _FMT_RE.finditer(fmt) if m.group(5) != "%"
        )
        _SCAN_CACHE[fmt] = convs
    return convs


def c_scan(stream: InputStream, fmt: str, args: list[Any]) -> int:
    """Execute a scanf against the input stream. Returns the number of
    successful conversions, or -1 on EOF before the first conversion.

    (The compiled backend matches the two-conversion KV shapes with
    :data:`_SCAN_PAIR_RES` inline, ``compile._scanf_lines``, and calls
    this for everything else, partial and EOF input included.)"""
    converted = 0
    arg_i = 0
    for conv in _scan_convs(fmt):
        if arg_i >= len(args):
            raise CRuntimeError(f"scanf: too few arguments for format {fmt!r}")
        target = args[arg_i]
        arg_i += 1
        if conv in "diu":
            val = stream.read_int()
            if val is None:
                break
            _store_out(target, val)
        elif conv in "fFeEgG":
            fval = stream.read_float()
            if fval is None:
                break
            _store_out(target, fval)
        elif conv == "s":
            tok = stream.read_token()
            if tok is None:
                break
            if isinstance(target, Ptr) and target.buffer is not None:
                target.buffer.store_string(target.offset, tok)
            else:
                raise CRuntimeError("scanf %s target must be a char buffer")
        elif conv == "c":
            if stream.at_eof:
                break
            ch = stream.text[stream.pos]
            stream.pos += 1
            _store_out(target, ord(ch))
        else:  # pragma: no cover - regex restricts conversions
            raise CRuntimeError(f"unsupported scanf conversion %{conv}")
        converted += 1
    if converted == 0 and stream.at_eof:
        return -1
    return converted


# --------------------------------------------------------------------------
# Builtins: one typed positional declaration each (see the module docstring)
# --------------------------------------------------------------------------
#
# The Python signature *is* the C one: a default marks an optional
# trailing argument, ``*args`` a variadic tail. Operand kinds are
# class-checked inside the function (``x.__class__ is Ptr``), the
# unexpected ones falling through to its own slow branch.

#: ``most`` of a variadic builtin's signature.
_VARIADIC = 1 << 30


def takes_cells(*positions: int) -> Callable[[Callable], Callable]:
    """Declare that the builtin accepts, at these argument positions, a
    typed scalar's ``&x`` as the bare :class:`Cell` — what a direct call
    passes instead of allocating the ``ScalarRef`` the list convention
    carries. The function must treat the two alike."""

    def mark(typed: Callable) -> Callable:
        typed.cells = positions  # type: ignore[attr-defined]
        return typed

    return mark


def signature(typed: Callable) -> tuple[int, int, tuple[int, ...]]:
    """A typed entry's mini-C signature, read off the function: (fewest
    arguments, most arguments, positions that take a bare Cell)."""
    code = typed.__code__
    most = code.co_argcount - 1  # minus the facade
    fewest = most - len(typed.__defaults__ or ())
    if code.co_flags & 0x04:  # CO_VARARGS
        most = _VARIADIC
    return fewest, most, getattr(typed, "cells", ())


class Builtin:
    """One declared builtin as a builtin table holds it.

    ``typed`` is the implementation; calling the instance is the list
    convention derived from it. ``name`` must be declared in
    :data:`SIGNATURES` — that is what lets the emitter check a call
    site's arity, and pick the Cell positions, from the name alone."""

    __slots__ = ("name", "typed", "fewest", "most")

    def __init__(self, name: str, typed: Callable):
        self.name = name
        self.typed = typed
        self.fewest, self.most, _cells = SIGNATURES[name]

    def __call__(self, facade: Any, args: list[Any]) -> Any:
        if not self.fewest <= len(args) <= self.most:
            if self.most == _VARIADIC:
                want = f"at least {self.fewest}"
            elif self.fewest == self.most:
                want = str(self.fewest)
            else:
                want = f"{self.fewest} to {self.most}"
            raise CRuntimeError(
                f"{self.name} expects {want} argument"
                f"{'' if want == '1' else 's'}, got {len(args)}"
            )
        return self.typed(facade, *args)


def _bi_printf(facade: Any, fmt: Any, *args: Any) -> int:
    text = c_format(_as_str(fmt), args)
    facade.stdout.write(text)
    return len(text)


def _bi_fprintf(facade: Any, stream: Any, fmt: Any, *args: Any) -> int:
    return _bi_printf(facade, fmt, *args)  # stderr folded to stdout


def _bi_scanf(facade: Any, fmt: Any, *targets: Any) -> int:
    return c_scan(facade.stdin, _as_str(fmt), targets)


@takes_cells(0, 1)
def _bi_getline(facade: Any, line_ref: Any, n_ref: Any,
                stream: Any = None) -> int:
    """``getline(&line, &nbytes, stdin)``: reads one line incl. newline."""
    text = facade.stdin.read_line()
    if text is None:
        return -1
    cls = line_ref.__class__
    if cls is Cell:
        cell = line_ref
    elif cls is ScalarRef:
        cell = line_ref.cell
    else:
        raise CRuntimeError("getline: first arg must be &line")
    ptr = cell.value
    needed = len(text.encode("utf-8")) + 1
    if ptr.__class__ is not Ptr or ptr.buffer is None:
        buf = Buffer(T.CHAR, max(needed, 128), label="getline")
        ptr = Ptr(buf, 0)
        ScalarRef(cell).store(ptr)
    elif ptr.buffer.size - ptr.offset < needed:
        ptr.buffer.resize(ptr.offset + needed)
    written = ptr.buffer.store_string(ptr.offset, text)
    cls = n_ref.__class__
    if cls is Cell or cls is ScalarRef or cls is Ptr:
        _store_out(n_ref, ptr.buffer.size)
    return written


_WORD_SCAN_RE = re.compile(rb"[ \t\r\n]*([^\x00 \t\r\n]*)")


def _bi_getword(facade: Any, line: Any, offset: Any, word: Any, read: Any,
                max_len: Any) -> int:
    """``getWord(line, offset, word, read, maxLen)`` — the paper's helper.

    Scans ``line`` starting at ``offset`` for the next whitespace-delimited
    word, copies it (truncated to maxLen-1) into ``word``, and returns the
    number of characters consumed from ``line`` (so the caller can advance
    its offset), or -1 if no word remains within ``read`` bytes.
    """
    if line.__class__ is not Ptr or line.buffer is None:
        raise CRuntimeError("getWord: line must be a char pointer")
    if word.__class__ is not Ptr or word.buffer is None:
        raise CRuntimeError("getWord: word must be a char buffer")
    if max_len.__class__ is not int:
        max_len = int(max_len)
    if max_len < 1:
        raise CRuntimeError(f"getWord: maxLen must be at least 1, got {max_len}")
    if offset.__class__ is not int:
        offset = int(offset)
    if read.__class__ is not int:
        read = int(read)
    lbuf = line.buffer
    base = line.offset
    limit = lbuf.size - base
    if read < limit:
        limit = read
    data = lbuf.data
    if offset >= 0 and data.__class__ is bytearray:
        # C-speed scan: leading whitespace, then the word (stopping at
        # whitespace, NUL, or the read limit). An empty word group means
        # only whitespace/NUL remained.
        if offset >= limit:
            return -1
        m = _WORD_SCAN_RE.match(data, base + offset, base + limit)
        token_b = m.group(1)
        if not token_b:
            return -1
        consumed = m.end(1) - base - offset
        if token_b.isascii():
            # ASCII bytes truncate and decode 1:1, so the word can be
            # copied without the decode/encode round trip store_string
            # would make; the decoded text seeds the c_string cache.
            if len(token_b) >= max_len:
                token_b = token_b[:max_len - 1]
            wbuf = word.buffer
            woff = word.offset
            end = woff + len(token_b)
            if end >= wbuf.size:
                raise CRuntimeError(
                    f"string of {len(token_b)} bytes overflows buffer "
                    f"{wbuf.label!r} (size {wbuf.size}, offset {woff})"
                )
            wdata = wbuf.data
            wdata[woff:end] = token_b
            wdata[end] = 0
            wbuf._strcache = {woff: token_b.decode("ascii")}
            return consumed
        token = token_b.decode("utf-8", errors="replace")
        word.buffer.store_string(word.offset, token[:max_len - 1])
        return consumed
    # Slow branch for exotic buffers and negative offsets: byte-at-a-time
    # int indexing (space=32, tab=9, CR=13, LF=10).
    i = offset
    while i < limit:
        c = data[base + i]
        if c == 32 or c == 9 or c == 13 or c == 10:
            i += 1
        else:
            break
    if i >= limit or data[base + i] == 0:
        return -1
    start = i
    while i < limit:
        c = data[base + i]
        if c == 0 or c == 32 or c == 9 or c == 13 or c == 10:
            break
        i += 1
    token = bytes(data[base + start : base + i]).decode("utf-8", errors="replace")
    word.buffer.store_string(word.offset, token[:max_len - 1])
    return i - offset


def _bi_malloc(facade: Any, size: Any) -> Ptr:
    buf = Buffer(T.CHAR, int(size), label="malloc")
    facade.heap.append(buf)
    return Ptr(buf, 0)


def _bi_calloc(facade: Any, count: Any, size: Any) -> Ptr:
    return _bi_malloc(facade, int(count) * int(size))


def _bi_free(facade: Any, ptr: Any) -> int:
    if ptr.__class__ is Ptr and ptr.buffer is not None:
        if ptr.buffer.freed:
            raise CRuntimeError("double free")
        ptr.buffer.freed = True
        # c_string trusts a warm decode cache without re-checking freed.
        ptr.buffer._strcache = None
    return 0


def _bi_strcmp(facade: Any, a: Any, b: Any) -> int:
    # Both operands are almost always Ptr-to-char on the KV hot loop
    # (key vs. previous key); c_string hits the per-buffer decode cache.
    a = a.buffer.c_string(a.offset) if a.__class__ is Ptr and \
        a.buffer is not None else _as_str(a)
    b = b.buffer.c_string(b.offset) if b.__class__ is Ptr and \
        b.buffer is not None else _as_str(b)
    return (a > b) - (a < b)


def _bi_strncmp(facade: Any, a: Any, b: Any, n: Any) -> int:
    n = int(n)
    a, b = _as_str(a)[:n], _as_str(b)[:n]
    return (a > b) - (a < b)


def _bi_strcpy(facade: Any, dst: Any, src: Any) -> Any:
    src = _as_str(src)
    if dst.__class__ is not Ptr or dst.buffer is None:
        raise CRuntimeError("strcpy: bad destination")
    dst.buffer.store_string(dst.offset, src)
    return dst


def _bi_strlen(facade: Any, s: Any) -> int:
    return len(_as_str(s))


def _bi_strstr(facade: Any, hay: Any, needle: Any) -> Any:
    """strstr(haystack, needle) → pointer to first match or NULL. Charges
    compute at compiled-C scan rate (~1 op per 4 bytes scanned)."""
    if hay.__class__ is not Ptr or hay.buffer is None:
        raise CRuntimeError("strstr: bad haystack")
    text = hay.c_string()
    needle = _as_str(needle)
    idx = text.find(needle)
    scanned = len(text) if idx == -1 else idx + len(needle)
    facade.counters.ops += max(1, scanned // 2)
    if idx == -1:
        return NULL
    return Ptr(hay.buffer, hay.offset + len(text[:idx].encode("utf-8")))


def _bi_strcat(facade: Any, dst: Any, src: Any) -> Any:
    if dst.__class__ is not Ptr or dst.buffer is None:
        raise CRuntimeError("strcat: bad destination")
    existing = dst.buffer.c_string(dst.offset)
    dst.buffer.store_string(dst.offset + len(existing.encode()), _as_str(src))
    return dst


_ATOI_RE = re.compile(r"\s*[+-]?\d+")
_ATOF_RE = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _bi_atoi(facade: Any, s: Any) -> int:
    m = _ATOI_RE.match(_as_str(s))
    return int(m.group(0)) if m else 0


def _bi_atof(facade: Any, s: Any) -> float:
    m = _ATOF_RE.match(_as_str(s))
    return float(m.group(0)) if m else 0.0


def _bi_abs(facade: Any, value: Any) -> int:
    return abs(int(value))


def _bi_exit(facade: Any, status: Any) -> None:
    raise CRuntimeError(f"exit({int(status)})")


#: math.h, declared by the float function each name computes; the host
#: table below and the GPU device table (which adds the math-call
#: charge) each build their entries from these.
MATH1: dict[str, Callable[[float], Any]] = {
    "sqrt": math.sqrt, "sqrtf": math.sqrt, "exp": math.exp,
    "expf": math.exp, "log": math.log, "logf": math.log,
    "log2": math.log2, "sin": math.sin, "sinf": math.sin,
    "cos": math.cos, "cosf": math.cos, "tan": math.tan,
    "atan": math.atan, "fabs": abs, "fabsf": abs, "floor": math.floor,
    "ceil": math.ceil, "erf": math.erf, "erff": math.erf,
}
MATH2: dict[str, Callable[[float, float], Any]] = {
    "pow": lambda x, y: x ** y, "powf": lambda x, y: x ** y,
    "fmin": min, "fmax": max,
}


def _math1(fn: Callable[[float], Any]) -> Callable:
    def entry(facade: Any, x: Any) -> Any:
        return fn(float(x))

    return entry


def _math2(fn: Callable[[float, float], Any]) -> Callable:
    def entry(facade: Any, x: Any, y: Any) -> Any:
        return fn(float(x), float(y))

    return entry


def _ctype_char(arg: Any) -> str | None:
    """The character a ctype.h argument denotes, or None when it names
    none (``EOF``, negatives, anything past U+10FFFF) — for which C's
    ``is*`` answer 0 and ``to*`` return the argument unchanged."""
    code = int(arg)
    return chr(code) if 0 <= code <= 0x10FFFF else None


def _ctype_test(test: Callable[[str], bool]) -> Callable:
    def entry(facade: Any, code: Any) -> int:
        ch = _ctype_char(code)
        return int(ch is not None and test(ch))

    return entry


def _ctype_map(convert: Callable[[str], str]) -> Callable:
    def entry(facade: Any, code: Any) -> int:
        ch = _ctype_char(code)
        return int(code) if ch is None else ord(convert(ch))

    return entry


#: The CPU-path C library (what gcc + glibc provide in the paper): every
#: host builtin's one implementation, by name.
_HOST_TYPED: dict[str, Callable] = {
    "printf": _bi_printf,
    "fprintf": _bi_fprintf,
    "scanf": _bi_scanf,
    "getline": _bi_getline,
    "getWord": _bi_getword,
    "malloc": _bi_malloc,
    "calloc": _bi_calloc,
    "free": _bi_free,
    "strcmp": _bi_strcmp,
    "strncmp": _bi_strncmp,
    "strcpy": _bi_strcpy,
    "strlen": _bi_strlen,
    "strcat": _bi_strcat,
    "strstr": _bi_strstr,
    "atoi": _bi_atoi,
    "atof": _bi_atof,
    **{name: _math1(fn) for name, fn in MATH1.items()},
    **{name: _math2(fn) for name, fn in MATH2.items()},
    "abs": _bi_abs,
    "isspace": _ctype_test(lambda ch: ch in " \t\r\n\v\f"),
    "isdigit": _ctype_test(str.isdigit),
    "isalpha": _ctype_test(str.isalpha),
    "tolower": _ctype_map(str.lower),
    "toupper": _ctype_map(str.upper),
    "exit": _bi_exit,
}

#: Every declared builtin's signature (:func:`signature`), by name: the
#: host library's, read off the functions above, plus the GPU runtime's
#: IO calls (paper §4.1–4.2) — the translator substitutes those names
#: into kernel bodies and :mod:`repro.gpu.engine` implements them per
#: launch, so only their shape can be stated here.
SIGNATURES: dict[str, tuple[int, int, tuple[int, ...]]] = {
    **{name: signature(typed) for name, typed in _HOST_TYPED.items()},
    "getRecord": (1, 1, (0,)),
    "emitKV": (2, 2, ()),
    "getKV": (2, 2, (0, 1)),
    "storeKV": (2, 2, ()),
}

_HOST_BUILTINS: dict[str, Builtin] = {
    name: Builtin(name, typed) for name, typed in _HOST_TYPED.items()
}


def host_builtins() -> dict[str, Callable[[Any, list[Any]], Any]]:
    """A fresh copy of the (stateless) host builtin table — callers may
    add or replace entries without affecting other interpreters. A
    replacement may be any ``fn(facade, args)`` callable; only
    :class:`Builtin` entries are called positionally."""
    return dict(_HOST_BUILTINS)


#: Names the HeteroDoop compiler recognises as record-input, KV-emit, and
#: KV-input calls (paper §4.1–4.2). Used by the translator's IO-replacement
#: pass.
RECORD_INPUT_FUNCS = frozenset(["getline"])
KV_EMIT_FUNCS = frozenset(["printf"])
KV_INPUT_FUNCS = frozenset(["scanf"])
