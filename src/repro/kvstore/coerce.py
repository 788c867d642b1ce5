"""Streaming text coercion — the single source of truth for typing KV.

Hadoop Streaming moves keys and values as tab-separated *text*; the
reproduction types them in memory so reducers can sum and sort
numerically. Every boundary where KV data crosses between the textual
world and the typed world must apply the same rules, or the CPU and GPU
paths drift (a word key ``"42"`` read back as the int ``42`` on one
path but kept as text on the other changes partitioning, grouping, and
the final output dict — found by ``python -m repro fuzz``).

Rules:

* keys — int only when the text is the canonical decimal rendering.
  Keys are identities, not quantities: ``"007"`` and ``"1.0"`` name
  different words than ``"7"`` and ``"1"`` and must keep their text
  identity. Apps emit integer keys via ``%d``, whose output is always
  canonical, so those still come back as ints and sort numerically.
* values — quantities: int when the text parses as one, else float,
  else text.
"""

from __future__ import annotations

from typing import Any

from ..errors import HadoopError


def coerce_key(text: str) -> Any:
    """Type a streaming key (canonical ints only, see module doc)."""
    # The isdecimal screen keeps word keys (the common case) off the
    # int() exception path. isdecimal, not isdigit: int() parses exactly
    # the Unicode decimal digits, while isdigit also accepts "²".
    if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
        i = int(text)
        if str(i) == text:
            return i
    return text


def coerce_value(text: str) -> Any:
    """Type a streaming value (int, else float, else text)."""
    if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
        return int(text)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_kv_line(line: str) -> tuple[Any, Any]:
    """Parse a streaming 'key<TAB>value' line into typed KV."""
    if "\t" not in line:
        raise HadoopError(f"malformed KV line {line!r}")
    k, v = line.split("\t", 1)
    return coerce_key(k), coerce_value(v)


def kv_text(datum: Any) -> str:
    """Render one typed KV datum exactly as it appears on the wire."""
    return datum if isinstance(datum, str) else str(datum)


def kv_line(key: Any, value: Any) -> str:
    """Render one typed pair as its full streaming line (with newline).

    This is the *one* encode of a pair per job: the local job runner
    builds it when a map task's output materializes and reuses it for
    shuffle/output byte accounting and as reducer stdin.
    """
    return f"{kv_text(key)}\t{kv_text(value)}\n"


def utf8_len(text: str) -> int:
    """Byte length of ``text`` on the UTF-8 wire without re-encoding
    the (overwhelmingly ASCII) common case."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def coerce_pair(key: Any, value: Any) -> tuple[Any, Any]:
    """Re-type an in-memory pair as if it had crossed the text wire.

    The GPU task spills its device-side KV store to text before the
    shuffle; this applies that text round-trip to its in-memory pairs.
    """
    return coerce_key(kv_text(key)), coerce_value(kv_text(value))
