"""Algorithm 1: Handling Variables in Generated Kernels.

Classifies every variable used inside a directive region and decides its
GPU placement:

* sharedRO scalars  → kernel parameters (constant memory),
* sharedRO arrays   → device global memory (cudaMalloc + copy-in),
* texture arrays    → texture memory (bindTexture) when the optimization
  is enabled, else they fall back to plain global memory,
* firstprivate      → per-thread private, initialized from a host value,
* everything else   → per-thread private.

For combiner kernels, private arrays are placed in per-warp shared memory
(§4.2's ``gpu_prevWord``/``gpu_word`` optimization).
"""

from __future__ import annotations

import warnings

from ..config import OptimizationFlags
from ..directives import Directive, DirectiveKind
from ..errors import CompilerError
from ..minic import cast as A
from ..minic import ctypes as T
from ..minic.semantics import analyze_region, auto_firstprivate, declared_types
from .kernel_ir import VarClass, VarInfo


class AliasingWarning(UserWarning):
    """The automatic firstprivate analysis may be inaccurate (paper §3.2:
    'It issues a warning if the analysis is inaccurate, e.g., due to
    aliasing.')."""


def classify_variables(
    func: A.FunctionDef,
    region: A.Stmt,
    directive: Directive,
    opt: OptimizationFlags,
    known_functions: set[str],
) -> dict[str, VarInfo]:
    """Run Algorithm 1 over ``region`` and return the variable table."""
    types = declared_types(func)
    info = analyze_region(region)

    shared_ro_set = set(directive.shared_ro)
    texture_set = set(directive.texture)
    first_private_set = set(directive.firstprivate)

    free_vars = {
        name
        for name in info.free_vars
        if name in types and name not in known_functions
    }

    for name in shared_ro_set | texture_set | first_private_set:
        if name not in types:
            raise CompilerError(
                f"directive names {name!r}, which is not declared in "
                f"function {func.name!r}"
            )
        # User annotations override the conservative may-write heuristic
        # (weak writes through unknown callees); definite writes are errors.
        if name in shared_ro_set and name in info.written_strong:
            raise CompilerError(
                f"sharedRO variable {name!r} is written inside the region"
            )
        if name in texture_set and name in info.written_strong:
            raise CompilerError(
                f"texture variable {name!r} is written inside the region"
            )
        if name in texture_set and not (
            isinstance(types[name], T.Array) or types[name].is_pointer
        ):
            raise CompilerError(f"texture clause requires an array: {name!r}")

    # Automatic firstprivate detection for free written variables the user
    # did not annotate (paper §3.2).
    unannotated_written = (
        (free_vars & info.written) - first_private_set - shared_ro_set - texture_set
    )
    detected = auto_firstprivate(region, unannotated_written)
    if detected & info.aliased:
        warnings.warn(
            "automatic firstprivate detection may be inaccurate due to "
            f"aliasing of: {sorted(detected & info.aliased)}",
            AliasingWarning,
            stacklevel=3,
        )
    first_private_set |= detected

    table: dict[str, VarInfo] = {}
    for name in sorted(free_vars):
        ctype = types[name]
        is_arrayish = isinstance(ctype, T.Array) or ctype.is_pointer
        if name in texture_set:
            # The texture optimization can be disabled (Fig. 7a ablation);
            # the data then lives in plain global memory.
            klass = (
                VarClass.TEXTURE_ARRAY if opt.use_texture else VarClass.GLOBAL_RO_ARRAY
            )
        elif name in shared_ro_set:
            klass = (
                VarClass.GLOBAL_RO_ARRAY if is_arrayish else VarClass.CONST_SCALAR
            )
        elif name in first_private_set:
            klass = (
                VarClass.FIRSTPRIVATE_ARRAY if is_arrayish
                else VarClass.FIRSTPRIVATE_SCALAR
            )
        elif name in info.read_only and not is_arrayish:
            # Read-only scalars the user didn't annotate still ride in as
            # kernel arguments (cheap, and what the CUDA compiler would do).
            klass = VarClass.CONST_SCALAR
        elif name in info.read_only and is_arrayish:
            klass = VarClass.GLOBAL_RO_ARRAY
        else:
            klass = VarClass.PRIVATE
        table[name] = VarInfo(
            name=name,
            ctype=ctype,
            klass=klass,
            kernel_name=f"gpu_{name}",
        )

    # §4.2: in combiner kernels private arrays move to per-warp shared memory.
    if directive.kind is DirectiveKind.COMBINER:
        for var in table.values():
            if var.klass in (VarClass.PRIVATE, VarClass.FIRSTPRIVATE_ARRAY) and \
                    isinstance(var.ctype, T.Array):
                var.klass = VarClass.SHARED_ARRAY
        # keyin/valuein receive KV data; they are private per warp.
        for name in (directive.keyin, directive.valuein):
            if name and name in types and name not in table:
                ctype = types[name]
                table[name] = VarInfo(
                    name=name,
                    ctype=ctype,
                    klass=VarClass.SHARED_ARRAY
                    if isinstance(ctype, T.Array)
                    else VarClass.PRIVATE,
                    kernel_name=f"gpu_{name}",
                )

    # Variables declared inside the region are private by construction
    # (MapReduce has no shared written data, §3.2); they are not in the
    # table because the kernel body declares them itself.
    return table


def emitted_kv_layout(
    directive: Directive, types: dict[str, T.CType]
) -> tuple[T.CType, T.CType, int, int, bool, bool]:
    """Determine key/value types and byte lengths for the KV store.

    Returns (key_type, value_type, key_len, value_len, key_is_array,
    value_is_array). keylength/vallength clauses override derived sizes;
    they are *required* when the type is not compiler-derivable (e.g. a
    ``char*``), mirroring §3.1.
    """

    def resolve(name: str | None, length, what: str) -> tuple[T.CType, int, bool]:
        if name is None:
            raise CompilerError(f"directive missing {what} variable")
        ctype = types.get(name)
        if ctype is None:
            raise CompilerError(f"{what} variable {name!r} is not declared")
        if isinstance(ctype, T.Array):
            size = ctype.sizeof() if ctype.size is not None else None
            if size is None and length is None:
                raise CompilerError(
                    f"{what} variable {name!r} has no derivable size; "
                    f"use {what}length(...)"
                )
            if isinstance(length, int):
                size = length
            return ctype, int(size), True
        if ctype.is_pointer:
            if not isinstance(length, int):
                raise CompilerError(
                    f"{what} variable {name!r} is a pointer; "
                    f"{what}length(...) with a literal is required"
                )
            return ctype, int(length), True
        size = ctype.sizeof()
        if isinstance(length, int):
            size = length
        return ctype, size, False

    key_type, key_len, key_arr = resolve(directive.key, directive.keylength, "key")
    val_type, val_len, val_arr = resolve(directive.value, directive.vallength, "value")
    return key_type, val_type, key_len, val_len, key_arr, val_arr
