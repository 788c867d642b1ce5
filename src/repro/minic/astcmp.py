"""Structural AST equality, ignoring positions.

The pretty-printer round-trip property (parse → print → parse) must
reproduce the same tree *shape*, but re-parsing printed source naturally
assigns new ``line`` numbers and a new ``Program.source`` string. This
module compares two trees field by field while ignoring exactly those
position/provenance attributes, and reports the first difference as a
human-readable path for test failure messages.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from . import cast as A

#: Field names that carry provenance, not structure.
_IGNORED_FIELDS = frozenset({"line", "source"})


def ast_diff(a: Any, b: Any, path: str = "program") -> str | None:
    """Return a description of the first structural difference, or None.

    Works over AST nodes, the plain helper dataclasses (Declarator,
    Param), lists of either, and leaf values (ints, floats, strings,
    CTypes). Floats are compared by exact repr so a printer that loses
    precision (``1e-07`` vs ``1.0000000000000001e-07``) is caught.
    """
    if a is None or b is None:
        if a is None and b is None:
            return None
        return f"{path}: {a!r} != {b!r}"
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: list length {len(a)} != {len(b)}"
        for i, (xa, xb) in enumerate(zip(a, b)):
            diff = ast_diff(xa, xb, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if isinstance(a, float):
        # NaN never equals itself; two NaN literals are the same literal.
        if a != b and not (a != a and b != b):
            return f"{path}: {a!r} != {b!r}"
        return None
    if not dataclasses.is_dataclass(a) or isinstance(a, A.CType):
        return None if a == b else f"{path}: {a!r} != {b!r}"
    for f in dataclasses.fields(a):
        if f.name in _IGNORED_FIELDS:
            continue
        diff = ast_diff(
            getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}"
        )
        if diff is not None:
            return diff
    return None
