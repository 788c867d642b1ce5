"""Vector load/store analysis (paper §4.1 "Using Vector Data Types" and
§4.2's warp-cooperative getKV/storeKV).

For array-typed keys/values the generated code uses CUDA vector types
(``char4``) in ``emitKV`` and string functions, quadrupling effective
memory throughput. In combine kernels, threads of a warp cooperatively
load/store the KV bytes lane-per-element.

The analysis only decides a kernel's vector width; the GPU timing model
applies the effect.
"""

from __future__ import annotations

from ..directives import Directive, DirectiveKind
from ..minic import ctypes as T


def decide_vectorization(
    directive: Directive,
    key_is_array: bool,
    value_is_array: bool,
    key_type: T.CType,
    value_type: T.CType,
    enabled: bool,
) -> int:
    """The kernel's vector width for KV moves: 1 (scalar), 2 or 4 (char4)."""
    if not enabled:
        return 1
    if directive.kind is DirectiveKind.MAPPER:
        if key_is_array or value_is_array:
            # char4 vector loads/stores for an array key/value in emitKV
            # and the string functions.
            return 4
        if key_type.sizeof() + value_type.sizeof() >= 12:
            # Wide scalar KV (e.g. double values): paired 64-bit vector
            # moves in emitKV.
            return 2
        # Scalar key and value: vector types do not apply.
        return 1
    # Combiner: the KV store holds serialized key/value bytes, so the
    # warp's lane-cooperative vectorized getKV/storeKV apply whatever the
    # declared C types; with no array key or value only one lane per warp
    # computes (§4.2), but the bytes still move cooperatively.
    return 4
