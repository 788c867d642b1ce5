"""Modelled C standard library for mini-C execution.

Provides stdio (``getline``/``scanf``/``printf``), string.h, stdlib.h, and
math.h, plus the ``getWord`` helper the paper's Wordcount listing uses.
Builtins receive the interpreter so they can touch its IO streams and
instrumentation counters.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, TYPE_CHECKING

from ..errors import CRuntimeError
from . import ctypes as T
from .values import NULL, Buffer, Ptr, ScalarRef

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import Interpreter


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
    cls = target.__class__
    if cls is ScalarRef or cls is Ptr or isinstance(target, (Ptr, ScalarRef)):
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
# Builtin implementations. Signature: fn(interp, args) -> value
# --------------------------------------------------------------------------


def _bi_printf(interp: "Interpreter", args: list[Any]) -> int:
    if not args:
        raise CRuntimeError("printf needs a format string")
    text = c_format(_as_str(args[0]), args[1:])
    interp.stdout.write(text)
    return len(text)


def _bi_scanf(interp: "Interpreter", args: list[Any]) -> int:
    if not args:
        raise CRuntimeError("scanf needs a format string")
    return c_scan(interp.stdin, _as_str(args[0]), args[1:])


def _bi_getline(interp: "Interpreter", args: list[Any]) -> int:
    """``getline(&line, &nbytes, stdin)``: reads one line incl. newline."""
    if len(args) < 2:
        raise CRuntimeError("getline(&line, &n, stdin)")
    line_ref, n_ref = args[0], args[1]
    text = interp.stdin.read_line()
    if text is None:
        return -1
    if not isinstance(line_ref, ScalarRef):
        raise CRuntimeError("getline: first arg must be &line")
    ptr = line_ref.deref()
    needed = len(text.encode("utf-8")) + 1
    if not isinstance(ptr, Ptr) or ptr.buffer is None:
        buf = Buffer(T.CHAR, max(needed, 128), label="getline")
        ptr = Ptr(buf, 0)
        line_ref.store(ptr)
    elif ptr.buffer.size - ptr.offset < needed:
        ptr.buffer.resize(ptr.offset + needed)
    written = ptr.buffer.store_string(ptr.offset, text)
    if isinstance(n_ref, (ScalarRef, Ptr)):
        n_ref.store(ptr.buffer.size)
    return written


_WORD_SCAN_RE = re.compile(rb"[ \t\r\n]*([^\x00 \t\r\n]*)")


def _bi_getword(interp: "Interpreter", args: list[Any]) -> int:
    """``getWord(line, offset, word, read, maxLen)`` — the paper's helper.

    Scans ``line`` starting at ``offset`` for the next whitespace-delimited
    word, copies it (truncated to maxLen-1) into ``word``, and returns the
    number of characters consumed from ``line`` (so the caller can advance
    its offset), or -1 if no word remains within ``read`` bytes.
    """
    if len(args) != 5:
        raise CRuntimeError("getWord(line, offset, word, read, maxLen)")
    line, offset, word, read, max_len = args
    if not isinstance(line, Ptr) or line.buffer is None:
        raise CRuntimeError("getWord: line must be a char pointer")
    if not isinstance(word, Ptr) or word.buffer is None:
        raise CRuntimeError("getWord: word must be a char buffer")
    offset = int(offset)
    limit = min(int(read), line.buffer.size - line.offset)
    data = line.buffer.data
    base = line.offset
    if offset >= 0 and isinstance(data, (bytes, bytearray)):
        # C-speed scan: leading whitespace, then the word (stopping at
        # whitespace, NUL, or the read limit). An empty word group means
        # only whitespace/NUL remained.
        if offset >= limit:
            return -1
        m = _WORD_SCAN_RE.match(data, base + offset, base + limit)
        token_b = m.group(1)
        if not token_b:
            return -1
        mlen = int(max_len) - 1
        if token_b.isascii():
            # ASCII bytes truncate and decode 1:1, so the word can be
            # copied without the decode/encode round trip store_string
            # would make; the decoded text seeds the c_string cache.
            if len(token_b) > mlen:
                token_b = token_b[:mlen]
            wbuf = word.buffer
            woff = word.offset
            n = len(token_b)
            if woff + n + 1 > wbuf.size:
                raise CRuntimeError(
                    f"string of {n} bytes overflows buffer "
                    f"{wbuf.label!r} (size {wbuf.size}, offset {woff})"
                )
            wbuf.data[woff : woff + n] = token_b
            wbuf.data[woff + n] = 0
            wbuf._strcache = {woff: token_b.decode("ascii")}
            return m.end(1) - base - offset
        token = token_b.decode("utf-8", errors="replace")
        token = token[:mlen]
        word.buffer.store_string(word.offset, token)
        return m.end(1) - base - offset
    # Fallback for exotic buffers: byte-at-a-time int indexing
    # (space=32, tab=9, CR=13, LF=10).
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
    token = token[: int(max_len) - 1]
    word.buffer.store_string(word.offset, token)
    return i - offset


def _bi_malloc(interp: "Interpreter", args: list[Any]) -> Ptr:
    size = int(args[0])
    buf = Buffer(T.CHAR, size, label="malloc")
    interp.heap.append(buf)
    return Ptr(buf, 0)


def _bi_free(interp: "Interpreter", args: list[Any]) -> int:
    ptr = args[0]
    if isinstance(ptr, Ptr) and ptr.buffer is not None:
        if ptr.buffer.freed:
            raise CRuntimeError("double free")
        ptr.buffer.freed = True
        # c_string trusts a warm decode cache without re-checking freed.
        ptr.buffer._strcache = None
    return 0


def _str_of(arg: Any) -> str:
    return _as_str(arg)


def _bi_strcmp(interp: "Interpreter", args: list[Any]) -> int:
    # Both operands are almost always Ptr-to-char on the KV hot loop
    # (key vs. previous key); c_string hits the per-buffer decode cache.
    a, b = args
    a = a.buffer.c_string(a.offset) if a.__class__ is Ptr and \
        a.buffer is not None else _str_of(a)
    b = b.buffer.c_string(b.offset) if b.__class__ is Ptr and \
        b.buffer is not None else _str_of(b)
    return (a > b) - (a < b)


def _bi_strncmp(interp: "Interpreter", args: list[Any]) -> int:
    n = int(args[2])
    a, b = _str_of(args[0])[:n], _str_of(args[1])[:n]
    return (a > b) - (a < b)


def _bi_strcpy(interp: "Interpreter", args: list[Any]) -> Any:
    dst, src = args[0], _str_of(args[1])
    if not isinstance(dst, Ptr) or dst.buffer is None:
        raise CRuntimeError("strcpy: bad destination")
    dst.buffer.store_string(dst.offset, src)
    return dst


def _bi_strlen(interp: "Interpreter", args: list[Any]) -> int:
    return len(_str_of(args[0]))


def _bi_strstr(interp: "Interpreter", args: list[Any]) -> Any:
    """strstr(haystack, needle) → pointer to first match or NULL. Charges
    compute at compiled-C scan rate (~1 op per 4 bytes scanned)."""
    hay = args[0]
    if not isinstance(hay, Ptr) or hay.buffer is None:
        raise CRuntimeError("strstr: bad haystack")
    text = hay.c_string()
    needle = _str_of(args[1])
    idx = text.find(needle)
    scanned = len(text) if idx == -1 else idx + len(needle)
    interp.counters.ops += max(1, scanned // 2)
    if idx == -1:
        from .values import NULL

        return NULL
    return Ptr(hay.buffer, hay.offset + len(text[:idx].encode("utf-8")))


def _bi_strcat(interp: "Interpreter", args: list[Any]) -> Any:
    dst = args[0]
    if not isinstance(dst, Ptr) or dst.buffer is None:
        raise CRuntimeError("strcat: bad destination")
    existing = dst.buffer.c_string(dst.offset)
    dst.buffer.store_string(dst.offset + len(existing.encode()), _str_of(args[1]))
    return dst


def _bi_atoi(interp: "Interpreter", args: list[Any]) -> int:
    m = re.match(r"\s*[+-]?\d+", _str_of(args[0]))
    return int(m.group(0)) if m else 0


def _bi_atof(interp: "Interpreter", args: list[Any]) -> float:
    m = re.match(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", _str_of(args[0]))
    return float(m.group(0)) if m else 0.0


def _math1(fn: Callable[[float], float]) -> Callable[["Interpreter", list[Any]], float]:
    def impl(interp: "Interpreter", args: list[Any]) -> float:
        return fn(float(args[0]))

    return impl


def _bi_pow(interp: "Interpreter", args: list[Any]) -> float:
    return float(args[0]) ** float(args[1])


def _bi_fmin(interp: "Interpreter", args: list[Any]) -> float:
    return min(float(args[0]), float(args[1]))


def _bi_fmax(interp: "Interpreter", args: list[Any]) -> float:
    return max(float(args[0]), float(args[1]))


def _bi_abs(interp: "Interpreter", args: list[Any]) -> int:
    return abs(int(args[0]))


def _ctype_char(arg: Any) -> str | None:
    """The character a ctype.h argument denotes, or None when it names
    none (``EOF``, negatives, anything past U+10FFFF) — for which C's
    ``is*`` answer 0 and ``to*`` return the argument unchanged."""
    code = int(arg)
    return chr(code) if 0 <= code <= 0x10FFFF else None


def _ctype_test(test: Callable[[str], bool]) -> Callable[["Interpreter", list[Any]], int]:
    def impl(interp: "Interpreter", args: list[Any]) -> int:
        ch = _ctype_char(args[0])
        return int(ch is not None and test(ch))

    return impl


def _ctype_map(convert: Callable[[str], str]) -> Callable[["Interpreter", list[Any]], int]:
    def impl(interp: "Interpreter", args: list[Any]) -> int:
        ch = _ctype_char(args[0])
        return int(args[0]) if ch is None else ord(convert(ch))

    return impl


_bi_isspace = _ctype_test(lambda ch: ch in " \t\r\n\v\f")
_bi_isdigit = _ctype_test(str.isdigit)
_bi_isalpha = _ctype_test(str.isalpha)
_bi_tolower = _ctype_map(str.lower)
_bi_toupper = _ctype_map(str.upper)


def host_builtins() -> dict[str, Callable[["Interpreter", list[Any]], Any]]:
    """The CPU-path C library (what gcc + glibc provide in the paper).

    Returns a fresh copy of the (stateless) table — callers may add or
    replace entries without affecting other interpreters — built from a
    module-level prototype so the lambdas are only created once."""
    return dict(_HOST_BUILTINS)


_HOST_BUILTINS: dict[str, Callable[["Interpreter", list[Any]], Any]] = {
        "printf": _bi_printf,
        "fprintf": lambda i, a: _bi_printf(i, a[1:]),  # stderr folded to stdout
        "scanf": _bi_scanf,
        "getline": _bi_getline,
        "getWord": _bi_getword,
        "malloc": _bi_malloc,
        "calloc": lambda i, a: _bi_malloc(i, [int(a[0]) * int(a[1])]),
        "free": _bi_free,
        "strcmp": _bi_strcmp,
        "strncmp": _bi_strncmp,
        "strcpy": _bi_strcpy,
        "strlen": _bi_strlen,
        "strcat": _bi_strcat,
        "strstr": _bi_strstr,
        "atoi": _bi_atoi,
        "atof": _bi_atof,
        "sqrt": _math1(math.sqrt),
        "sqrtf": _math1(math.sqrt),
        "exp": _math1(math.exp),
        "expf": _math1(math.exp),
        "log": _math1(lambda x: math.log(x)),
        "logf": _math1(lambda x: math.log(x)),
        "log2": _math1(math.log2),
        "sin": _math1(math.sin),
        "sinf": _math1(math.sin),
        "cos": _math1(math.cos),
        "cosf": _math1(math.cos),
        "tan": _math1(math.tan),
        "atan": _math1(math.atan),
        "fabs": _math1(abs),
        "fabsf": _math1(abs),
        "floor": _math1(math.floor),
        "ceil": _math1(math.ceil),
        "erf": _math1(math.erf),
        "erff": _math1(math.erf),
        "pow": _bi_pow,
        "powf": _bi_pow,
        "fmin": _bi_fmin,
        "fmax": _bi_fmax,
        "abs": _bi_abs,
        "isspace": _bi_isspace,
        "isdigit": _bi_isdigit,
        "isalpha": _bi_isalpha,
        "tolower": _bi_tolower,
        "toupper": _bi_toupper,
        "exit": lambda i, a: (_ for _ in ()).throw(CRuntimeError(f"exit({int(a[0])})")),
    }


#: Names the HeteroDoop compiler recognises as record-input, KV-emit, and
#: KV-input calls (paper §4.1–4.2). Used by the translator's IO-replacement
#: pass.
RECORD_INPUT_FUNCS = frozenset(["getline"])
KV_EMIT_FUNCS = frozenset(["printf"])
KV_INPUT_FUNCS = frozenset(["scanf"])
