"""Program-level caches for the mini-C toolchain.

A local job runs one map program over N fileSplits and (on the GPU
path) one kernel body over thousands of simulated threads. Without
caching, each task re-parses, re-translates, and re-walks the same
source. This module provides:

* :func:`compiled_program` — one :class:`~repro.minic.compile.CompiledProgram`
  per distinct program *source* text, shared by every interpreter
  instance, task, and thread executing it;
* :func:`compiled_kernel_body` — one generated Python unit per (kernel
  body, program) pair, stashed on the statement node, for direct lane
  execution by the GPU lane engine: a kernel body compiles once per job
  (in practice once per process, since kernels are themselves memoized)
  and every lane invocation is then one call of the generated function
  over a per-thread frame;
* :func:`strlit_buffers` — the per-program string-literal Buffer table
  used by the tree-walking backend, so literals inside loops stop
  allocating a fresh Buffer per interpreter instance;
* :func:`cached_translation` — memoized source-to-source translation,
  keyed by program key + optimization flags, used by
  :func:`repro.compiler.translator.translate_cached`.

A program's key (:func:`program_key`) is a short per-process label,
``src<N>``, handed out once per distinct source text: the label table
is keyed by the text itself, so two ``Program`` objects parsed from
identical source share one compiled artifact and two different sources
never do, with no digest (and no digest library) involved. The label
also names generated units (``<minic:src<N>:unit>``); it is stable
within a process, not across processes. Programs with no source text
(e.g. synthesized kernel-helper programs) fall back to identity keys,
with the cache holding a strong reference to the program so ids cannot
be recycled.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from . import cast as A
from .compile import CompiledProgram, CompiledSuite

_ATTR_KEY = "_repro_cache_key"
_ATTR_COMPILED = "_repro_compiled"
_ATTR_KERNEL_BODY = "_repro_compiled_kernel_body"
_ATTR_WARP_BODY = "_repro_compiled_warp_body"
_ATTR_STRLITS = "_repro_strlit_buffers"

#: source text → its program key (``src<N>``, numbered by ``_label_seq``).
_source_keys: dict[str, str] = {}
_label_seq = itertools.count()
#: program key → CompiledProgram (whose ``program`` pins a source-less
#: program alive, so its identity key cannot be recycled).
_compiled: dict[str, CompiledProgram] = {}
_translations: dict[tuple, Any] = {}


def program_key(program: A.Program) -> str:
    """Cache key: the per-process label of the source text, or identity
    for synthetic programs with no source text. A label is looked up by
    the text on every call, never stashed on the program: it means
    nothing in another process, and a program can be pickled into one."""
    source = program.source
    if source:
        key = _source_keys.get(source)
        if key is None:
            key = _source_keys.setdefault(source, f"src{next(_label_seq)}")
        return key
    key = program.__dict__.get(_ATTR_KEY)
    if key is None:
        key = f"id:{id(program)}"
        setattr(program, _ATTR_KEY, key)
    return key


def compiled_program(program: A.Program) -> CompiledProgram:
    """The (cached) compiled form of ``program``: its functions emitted
    as Python source and ``compile()``d once."""
    cp = program.__dict__.get(_ATTR_COMPILED)
    if cp is not None:
        return cp
    key = program_key(program)
    cp = _compiled.get(key)
    if cp is None:
        cp = CompiledProgram(program)
        _compiled[key] = cp
    setattr(program, _ATTR_COMPILED, cp)
    return cp


def _stmt_artifact(stmt: A.Stmt, attr: str, program: A.Program,
                   build: Callable[[CompiledProgram], Any]) -> Any:
    """``build(cp)``'s result, stashed on ``stmt`` under ``attr`` and
    rebuilt only when the program's compiled form is a different one."""
    cp = compiled_program(program)
    artifact = stmt.__dict__.get(attr)
    if artifact is None or artifact.cp is not cp:
        artifact = build(cp)
        setattr(stmt, attr, artifact)
    return artifact


def compiled_kernel_body(program: A.Program, stmt: A.Stmt,
                         free_ctypes: dict | None = None) -> CompiledSuite:
    """The compiled form of a GPU kernel body for direct lane execution,
    cached per (statement, program). ``free_ctypes`` derives
    deterministically from the kernel (and so from the program), so it
    does not need its own cache dimension."""
    return _stmt_artifact(stmt, _ATTR_KERNEL_BODY, program,
                          lambda cp: CompiledSuite(stmt, cp, free_ctypes))


def compiled_warp_body(program: A.Program, stmt: A.Stmt,
                       build: Callable[[Any], Any]) -> Any:
    """The warp-compiled form of a GPU kernel body (vector lane engine),
    cached per (statement, program) exactly like
    :func:`compiled_kernel_body`.

    ``build(cp)`` constructs the suite from the compiled program — a
    callback so this module never imports the GPU layer. The artifact
    only depends on the program (eligibility gates that involve launch
    geometry are checked by the caller before consulting the cache)."""
    return _stmt_artifact(stmt, _ATTR_WARP_BODY, program, build)


def strlit_buffers(program: A.Program) -> dict[int, Any]:
    """The per-program string-literal Buffer table (tree backend).

    Shared across interpreter instances of the same Program object, so
    the GPU executor's one-interpreter-per-thread pattern stops
    re-allocating literal buffers. Literal buffers are effectively
    read-only (format strings, comparison operands)."""
    cache = program.__dict__.get(_ATTR_STRLITS)
    if cache is None:
        cache = {}
        setattr(program, _ATTR_STRLITS, cache)
    return cache


def warm_program(program: A.Program) -> CompiledProgram:
    """Eagerly build the artifacts a job needs from ``program``.

    A job builds them lazily at its first filter run; the benchmark's
    cold-stage timing (``perf/workloads.py``) calls this to time the
    compile on its own. Covers the compiled program and the
    string-literal Buffer table; translations and kernel bodies build
    through :func:`cached_translation` / :func:`compiled_kernel_body`
    at their own call sites.
    """
    cp = compiled_program(program)
    strlit_buffers(program)
    return cp


def cached_translation(
    program: A.Program,
    opt: Any,
    build: Callable[[], Any],
) -> Any:
    """Memoize ``build()`` (a translate() call) under the program's
    key + optimization flags (the frozen ``OptimizationFlags``
    itself)."""
    key = (program_key(program), opt)
    result = _translations.get(key)
    if result is None:
        result = build()
        _translations[key] = result
    return result
