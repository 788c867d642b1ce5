"""Top-level source-to-source translation (paper §4.1–4.3).

``translate(program)`` locates each ``#pragma mapreduce`` directive, runs
Algorithm 1 variable classification, rewrites the region's IO calls into
GPU-runtime calls, renames locals with the ``gpu_`` prefix (as the paper's
Listings 3–4 show), decides vectorization, and packages the result as
:class:`~repro.compiler.kernel_ir.KernelIR` plus a host plan.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..config import LaunchConfig, OptimizationFlags
from ..directives import Directive, DirectiveKind, find_directives
from ..errors import CompilerError
from ..minic import cast as A
from ..minic import ctypes as T
from ..minic.cache import cached_translation
from ..minic.pretty import pprint_stmt
from ..minic.semantics import declared_types
from .host_codegen import HostPlan
from .kernel_ir import KernelIR, VarClass, VarInfo
from .variables import classify_variables, emitted_kv_layout
from .vectorize import decide_vectorization

#: IO calls the translator rewrites, per §4.1/§4.2.
_RECORD_INPUT = "getline"
_KV_EMIT = "printf"
_KV_INPUT = "scanf"


@dataclass
class TranslationResult:
    """Everything the GPU side needs for one translated program."""

    program: A.Program                 # the original (CPU) program
    map_kernel: KernelIR | None = None
    combine_kernel: KernelIR | None = None
    host_plan: HostPlan | None = None
    cuda_source: str = ""              # human-readable generated "CUDA"

    @property
    def kernels(self) -> list[KernelIR]:
        return [k for k in (self.map_kernel, self.combine_kernel) if k is not None]


# --------------------------------------------------------------------------
# AST rewriting helpers
# --------------------------------------------------------------------------


def _rewrite_expr(expr: A.Expr, fn: Callable[[A.Call], A.Expr]) -> A.Expr:
    """Bottom-up expression rewrite, applying ``fn`` to every Call."""
    for f in dataclasses.fields(expr):
        val = getattr(expr, f.name)
        if isinstance(val, A.Expr):
            setattr(expr, f.name, _rewrite_expr(val, fn))
        elif isinstance(val, list):
            setattr(
                expr,
                f.name,
                [
                    _rewrite_expr(v, fn) if isinstance(v, A.Expr) else v
                    for v in val
                ],
            )
    if isinstance(expr, A.Call):
        return fn(expr)
    return expr


def rewrite_calls(node: A.Node, fn: Callable[[A.Call], A.Expr]) -> None:
    """Apply ``fn`` to every Call in all expressions under ``node`` (in place)."""
    for f in dataclasses.fields(node):
        val = getattr(node, f.name)
        if isinstance(val, A.Expr):
            setattr(node, f.name, _rewrite_expr(val, fn))
        elif isinstance(val, A.Node):
            rewrite_calls(val, fn)
        elif isinstance(val, list):
            new_list = []
            for item in val:
                if isinstance(item, A.Expr):
                    new_list.append(_rewrite_expr(item, fn))
                elif isinstance(item, A.Node):
                    rewrite_calls(item, fn)
                    new_list.append(item)
                elif isinstance(item, A.Declarator):
                    if item.init is not None:
                        item.init = _rewrite_expr(item.init, fn)
                    new_list.append(item)
                else:
                    new_list.append(item)
            setattr(node, f.name, new_list)


def rename_idents(node: A.Node, mapping: dict[str, str]) -> None:
    """Rename identifier references and declarations in place.

    This is the reproduction's ``addParameter``/``addPrivateVar`` renaming:
    Listing 3 shows ``word`` → ``gpu_word`` etc.
    """
    for sub in node.walk():
        if isinstance(sub, A.Ident) and sub.name in mapping:
            sub.name = mapping[sub.name]
        elif isinstance(sub, A.DeclStmt):
            for d in sub.decls:
                if d.name in mapping:
                    d.name = mapping[d.name]


# --------------------------------------------------------------------------
# Region rewrites
# --------------------------------------------------------------------------


def _find_record_input_vars(region: A.Stmt) -> tuple[str, str | None]:
    """Locate ``getline(&line, &nbytes, stdin)`` and return (line, nbytes)."""
    for node in region.walk():
        if isinstance(node, A.Call) and node.func == _RECORD_INPUT:
            if len(node.args) < 2:
                raise CompilerError("getline needs (&line, &nbytes, stdin)")

            def root(arg: A.Expr) -> str | None:
                if isinstance(arg, A.UnaryOp) and arg.op == "&" and \
                        isinstance(arg.operand, A.Ident):
                    return arg.operand.name
                if isinstance(arg, A.Ident):
                    return arg.name
                return None

            line = root(node.args[0])
            nbytes = root(node.args[1])
            if line is None:
                raise CompilerError("cannot identify the record buffer variable "
                                    "in getline(...)")
            return line, nbytes
    raise CompilerError(
        "mapper region contains no record input call (getline); the "
        "directive must annotate the record-iterating loop"
    )


def _rewrite_map_region(region: A.Stmt, line_var: str) -> None:
    """getline → getRecord, printf → emitKV (paper Listing 3)."""

    def fn(call: A.Call) -> A.Expr:
        if call.func == _RECORD_INPUT:
            return A.Call(
                func="getRecord",
                args=[A.UnaryOp(op="&", operand=A.Ident(name=line_var))],
                line=call.line,
            )
        if call.func == _KV_EMIT:
            if len(call.args) != 3:
                raise CompilerError(
                    "mapper emit must be printf(fmt, key, value); got "
                    f"{len(call.args)} arguments at line {call.line}"
                )
            return A.Call(func="emitKV", args=call.args[1:], line=call.line)
        return call

    rewrite_calls(region, fn)


def _rewrite_combine_region(region: A.Stmt) -> None:
    """scanf → getKV, printf → storeKV (paper Listing 4)."""
    saw_input = False

    def fn(call: A.Call) -> A.Expr:
        nonlocal saw_input
        if call.func == _KV_INPUT:
            if len(call.args) != 3:
                raise CompilerError(
                    "combiner input must be scanf(fmt, key, &value); got "
                    f"{len(call.args)} arguments at line {call.line}"
                )
            saw_input = True
            return A.Call(func="getKV", args=call.args[1:], line=call.line)
        if call.func == _KV_EMIT:
            if len(call.args) != 3:
                raise CompilerError(
                    "combiner emit must be printf(fmt, key, value)"
                )
            return A.Call(func="storeKV", args=call.args[1:], line=call.line)
        return call

    rewrite_calls(region, fn)
    if not saw_input:
        raise CompilerError(
            "combiner region contains no KV input call (scanf)"
        )


# --------------------------------------------------------------------------
# Kernel construction
# --------------------------------------------------------------------------


def _resolve_int_clause(value: int | str | None, func: A.FunctionDef) -> int | None:
    """Integer clause arguments may be literals or (unsupported at compile
    time) variables; variables degrade to None with the default behaviour."""
    return value if isinstance(value, int) else None


def _build_kernel(
    func: A.FunctionDef,
    region: A.Stmt,
    directive: Directive,
    opt: OptimizationFlags,
    program: A.Program,
    warp_size: int,
) -> KernelIR:
    known_functions = {f.name for f in program.functions}
    variables = classify_variables(func, region, directive, opt, known_functions)
    types = declared_types(func)
    key_t, val_t, key_len, val_len, key_arr, val_arr = emitted_kv_layout(
        directive, types
    )

    body = copy.deepcopy(region)
    body.pragma = None

    if directive.kind is DirectiveKind.MAPPER:
        line_var, nbytes_var = _find_record_input_vars(body)
        _rewrite_map_region(body, line_var)
        # The record buffer and its size variable are subsumed by the
        # runtime's record machinery (ip/recordLocator in Listing 3): they
        # become private, runtime-managed pointers, not host-initialized.
        for name in (line_var, nbytes_var):
            if name and name in variables:
                variables[name] = VarInfo(
                    name=name,
                    ctype=variables[name].ctype,
                    klass=VarClass.PRIVATE,
                    kernel_name=f"gpu_{name}",
                )
    else:
        _rewrite_combine_region(body)

    rename_map = {v.name: v.kernel_name for v in variables.values()}
    # Region-internal declarations also get the gpu_ prefix (Listing 3).
    from ..minic.semantics import collect_decl_names

    for name in collect_decl_names(body):
        rename_map.setdefault(name, f"gpu_{name}")
    rename_idents(body, rename_map)

    blocks = _resolve_int_clause(directive.blocks, func)
    threads = _resolve_int_clause(directive.threads, func)
    default = LaunchConfig()
    launch = LaunchConfig(
        blocks=blocks if blocks is not None else default.blocks,
        threads=threads if threads is not None else default.threads,
    )

    vec_enabled = (
        opt.vectorize_map
        if directive.kind is DirectiveKind.MAPPER
        else opt.vectorize_combine
    )
    decision = decide_vectorization(
        directive, key_arr, val_arr, key_t, val_t, vec_enabled, warp_size
    )

    kernel = KernelIR(
        kind=directive.kind,
        name=f"gpu_{'mapper' if directive.is_mapper else 'combiner'}",
        body=body,
        variables=variables,
        directive=directive,
        launch=launch,
        opt=opt,
        key_type=key_t,
        value_type=val_t,
        key_length=key_len,
        value_length=val_len,
        key_is_array=key_arr,
        value_is_array=val_arr,
        vector_width=decision.vector_width,
        kvpairs_per_record=_resolve_int_clause(directive.kvpairs, func),
        helpers=[f for f in program.functions if f.name != func.name],
        original_region=region,
    )
    kernel.source_text = render_kernel_source(kernel)
    return kernel


def render_kernel_source(kernel: KernelIR) -> str:
    """Pretty-print the kernel as CUDA-like source (cf. Listings 3–4)."""
    params: list[str] = []
    for var in kernel.variables.values():
        if var.klass is VarClass.CONST_SCALAR:
            params.append(f"{var.ctype} {var.kernel_name} /*constant*/")
        elif var.klass is VarClass.GLOBAL_RO_ARRAY:
            params.append(f"{var.ctype}* {var.kernel_name} /*global*/")
        elif var.klass is VarClass.TEXTURE_ARRAY:
            params.append(f"{var.ctype}* {var.kernel_name} /*texture*/")
        elif var.klass is VarClass.FIRSTPRIVATE_SCALAR:
            params.append(f"{var.ctype} {var.kernel_name}FP")
        elif var.klass is VarClass.FIRSTPRIVATE_ARRAY:
            params.append(f"{var.ctype}* {var.kernel_name}FP")
    if kernel.is_mapper:
        builtin = (
            "char *ip, int ipSize, int *recordLocator, char *devKey, "
            "int *devVal, int storesPerThread, int *devKvCount, "
            "int keyLength, int valLength, int *indexArray, int numReducers"
        )
    else:
        builtin = (
            "char *keys, int *values, char *opKey, int *opVal, "
            "int *indexArray, int size, int mapKeyLength, int mapValLength, "
            "int combKeyLength, int combValLength"
        )
    header = f"__global__ void {kernel.name}({builtin}"
    if params:
        header += ",\n        " + ", ".join(params)
    header += ")"
    shared = []
    if kernel.is_mapper:
        shared.append("    __shared__ unsigned int recordIndex;")
    for var in kernel.vars_of(VarClass.SHARED_ARRAY):
        base = var.ctype
        dims = ""
        while isinstance(base, T.Array):
            dims += f"[{base.size}]"
            base = base.base
        shared.append(
            f"    __shared__ {base} {var.kernel_name}[WARPS_IN_TB]{dims};"
        )
    setup = (
        "    mapSetup(&start, &tid, &index, ipSize, storesPerThread,\n"
        "             ip, devKvCount, numReducers, &recordIndex);"
        if kernel.is_mapper
        else "    combineSetup(kvsPerThread, &laneID, &warpID, &ptr,\n"
             "                 &high, &kvCount, &index, size);"
    )
    body = pprint_stmt(kernel.body, 1)
    finish = (
        "    mapFinish(index, storesPerThread, devKey, keyLength,\n"
        "              indexArray, numReducers, devKvCount);"
        if kernel.is_mapper
        else "    finalCount[warpID] = kvCount;"
    )
    return "\n".join(
        [header, "{"] + shared + [setup, body, finish, "}"]
    )


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def translate(
    program: A.Program,
    opt: OptimizationFlags | None = None,
    warp_size: int = 32,
    map_only: bool = False,
) -> TranslationResult:
    """Translate every directive region in ``program``.

    A HeteroDoop app ships map and combine as separate Streaming
    executables, so a program typically contains exactly one directive.
    ``map_only`` marks jobs with zero reduce tasks (output goes straight to
    HDFS, Fig. 1).
    """
    opt = opt if opt is not None else OptimizationFlags.all_on()
    found = find_directives(program)
    if not found:
        raise CompilerError("program contains no mapreduce directives")

    result = TranslationResult(program=program)
    for directive, region, func in found:
        kernel = _build_kernel(func, region, directive, opt, program, warp_size)
        if kernel.is_mapper:
            if result.map_kernel is not None:
                raise CompilerError("multiple mapper directives in one program")
            result.map_kernel = kernel
        else:
            if result.combine_kernel is not None:
                raise CompilerError("multiple combiner directives in one program")
            result.combine_kernel = kernel

    result.host_plan = HostPlan.build(
        has_combiner=result.combine_kernel is not None,
        map_only=map_only,
        uses_kvpairs_clause=(
            result.map_kernel is not None
            and result.map_kernel.kvpairs_per_record is not None
        ),
    )
    result.cuda_source = "\n\n".join(k.source_text for k in result.kernels)
    return result


def translate_cached(
    program: A.Program,
    opt: OptimizationFlags | None = None,
    warp_size: int = 32,
    map_only: bool = False,
) -> TranslationResult:
    """Memoized :func:`translate`.

    A local job re-translates the same map/combine program once per map
    task; the result depends only on the program source, the
    optimization flags, and the launch parameters, so it is cached under
    that key (see :mod:`repro.minic.cache`). Callers share one
    TranslationResult — the translator never mutates it after build, and
    the GPU runner clones every buffer it materializes from it.
    """
    opt = opt if opt is not None else OptimizationFlags.all_on()
    return cached_translation(
        program,
        opt,
        warp_size,
        map_only,
        lambda: translate(
            program, opt=opt, warp_size=warp_size, map_only=map_only
        ),
    )
