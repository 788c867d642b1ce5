"""Static analyses over mini-C ASTs used by the HeteroDoop translator.

The paper's Algorithm 1 classifies every variable used inside the annotated
region as shared read-only, texture, firstprivate, or private. The
compiler derives the candidate sets with the helpers here:

* :func:`collect_idents` / :func:`collect_writes` — use/def sets,
* :func:`declared_types` — in-scope declarations preceding the region,
* :func:`auto_firstprivate` — read-before-write detection (the automatic
  firstprivate identification mentioned in §3.2),
* :func:`address_taken` — names whose address escapes (aliasing warning).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cast as A
from . import ctypes as T


#: Library functions with out-only pointer parameters (0-based indices).
#: Used to avoid classifying pure output buffers as read-before-write.
OUT_ONLY_ARGS: dict[str, set[int]] = {
    "getline": {0, 1},
    "getWord": {2},
    "strcpy": {0},
    "strcat": {0},
    "getRecord": {0},
    "getKV": {0, 1},
}

#: Functions whose trailing arguments are all outputs (scanf-style).
VARARG_OUT_FUNCS = frozenset(["scanf", "sscanf"])


def collect_idents(node: A.Node) -> set[str]:
    """Every identifier referenced anywhere in the subtree."""
    names: set[str] = set()
    for sub in node.walk():
        if isinstance(sub, A.Ident):
            names.add(sub.name)
    return names


def collect_decl_names(node: A.Node) -> set[str]:
    """Names declared inside the subtree."""
    names: set[str] = set()
    for sub in node.walk():
        if isinstance(sub, A.DeclStmt):
            names.update(d.name for d in sub.decls)
    return names


def _write_target_names(expr: A.Expr) -> set[str]:
    """Root identifiers an lvalue expression may write through."""
    if isinstance(expr, A.Ident):
        return {expr.name}
    if isinstance(expr, A.Index):
        return _write_target_names(expr.base)
    if isinstance(expr, A.UnaryOp) and expr.op == "*":
        return collect_idents(expr.operand)
    return collect_idents(expr)


def collect_writes(node: A.Node) -> tuple[set[str], set[str]]:
    """(strong, weak) write sets for the subtree.

    *Strong* writes are definite: assignment targets, ++/--, address-of and
    out-parameter call arguments. *Weak* writes are pointer/array arguments
    to calls whose effect we cannot see — the callee *may* write through
    them. User directives (sharedRO/texture) override weak writes; strong
    writes against them are errors.
    """
    strong: set[str] = set()
    weak: set[str] = set()
    for sub in node.walk():
        if isinstance(sub, A.Assign):
            strong.update(_write_target_names(sub.target))
        elif isinstance(sub, (A.PostfixOp,)) or (
            isinstance(sub, A.UnaryOp) and sub.op in ("++", "--")
        ):
            strong.update(_write_target_names(sub.operand))
        elif isinstance(sub, A.Call):
            out_only = OUT_ONLY_ARGS.get(sub.func, set())
            vararg_out = sub.func in VARARG_OUT_FUNCS
            known = sub.func in OUT_ONLY_ARGS or vararg_out
            for idx, arg in enumerate(sub.args):
                if isinstance(arg, A.UnaryOp) and arg.op == "&":
                    strong.update(_write_target_names(arg.operand))
                elif isinstance(arg, A.Ident) and (
                    idx in out_only or (vararg_out and idx >= 1)
                ):
                    strong.add(arg.name)
                elif isinstance(arg, A.Ident) and not known:
                    # Unknown callee: it may write through pointer args.
                    weak.add(arg.name)
    return strong, weak


def address_taken(node: A.Node) -> set[str]:
    """Names whose address is taken (potential aliasing)."""
    taken: set[str] = set()
    for sub in node.walk():
        if isinstance(sub, A.UnaryOp) and sub.op == "&":
            taken.update(_write_target_names(sub.operand))
    return taken


def declared_types(func: A.FunctionDef) -> dict[str, T.CType]:
    """All declarations in the function (params + locals), name → type."""
    types: dict[str, T.CType] = {p.name: p.ctype for p in func.params}
    for sub in func.body.walk():
        if isinstance(sub, A.DeclStmt):
            for d in sub.decls:
                types[d.name] = d.ctype
    return types


@dataclass
class RegionInfo:
    """Use/def summary of a directive-annotated region."""

    used: set[str] = field(default_factory=set)
    written_strong: set[str] = field(default_factory=set)
    written_weak: set[str] = field(default_factory=set)
    declared_inside: set[str] = field(default_factory=set)
    aliased: set[str] = field(default_factory=set)

    @property
    def written(self) -> set[str]:
        return self.written_strong | self.written_weak

    @property
    def free_vars(self) -> set[str]:
        """Variables used in the region but declared outside it."""
        return self.used - self.declared_inside

    @property
    def read_only(self) -> set[str]:
        return self.free_vars - self.written


def analyze_region(region: A.Stmt) -> RegionInfo:
    strong, weak = collect_writes(region)
    return RegionInfo(
        used=collect_idents(region),
        written_strong=strong,
        written_weak=weak,
        declared_inside=collect_decl_names(region),
        aliased=address_taken(region),
    )


def expr_value_reads(expr: A.Expr) -> set[str]:
    """Names whose *value* an expression reads. Plain-assignment targets
    and out-only call arguments are writes, not reads."""
    reads: set[str] = set()

    def visit(e: A.Expr) -> None:
        if isinstance(e, A.Ident):
            reads.add(e.name)
        elif isinstance(e, A.Assign):
            visit(e.value)
            if e.op != "=":
                visit(e.target)
            elif isinstance(e.target, (A.Index,)):
                visit(e.target.base)
                visit(e.target.index)
            elif isinstance(e.target, A.UnaryOp) and e.target.op == "*":
                visit(e.target.operand)
        elif isinstance(e, A.UnaryOp) and e.op == "&":
            pass  # taking an address reads nothing
        elif isinstance(e, A.Call):
            out_only = OUT_ONLY_ARGS.get(e.func, set())
            vararg_out = e.func in VARARG_OUT_FUNCS
            for idx, arg in enumerate(e.args):
                if isinstance(arg, A.Ident) and (
                    idx in out_only or (vararg_out and idx >= 1)
                ):
                    continue
                visit(arg)
        else:
            for child in e.children():
                if isinstance(child, A.Expr):
                    visit(child)

    visit(expr)
    return reads


def expr_plain_writes(expr: A.Expr) -> set[str]:
    """Identifiers written by top-level-dominating ``=`` assignments and
    out-params inside the expression (every evaluation writes them)."""
    writes: set[str] = set()
    for sub in expr.walk():
        if isinstance(sub, A.Assign) and isinstance(sub.target, A.Ident):
            writes.add(sub.target.name)
        elif isinstance(sub, A.Call):
            out_only = OUT_ONLY_ARGS.get(sub.func, set())
            vararg_out = sub.func in VARARG_OUT_FUNCS
            for idx, arg in enumerate(sub.args):
                is_out = idx in out_only or (vararg_out and idx >= 1)
                if not is_out:
                    continue
                if isinstance(arg, A.UnaryOp) and arg.op == "&" and \
                        isinstance(arg.operand, A.Ident):
                    writes.add(arg.operand.name)
                elif isinstance(arg, A.Ident):
                    writes.add(arg.name)
    return writes


def _stmt_reads_before_write(stmt: A.Stmt, pending: set[str], rbw: set[str]) -> None:
    """Sequentially scan a statement list, moving names from ``pending`` to
    ``rbw`` when read before any write. Conservative: condition reads in
    loops count as reads; a write anywhere in a compound statement only
    retires the name if the write dominates (we approximate: writes in
    straight-line code and loop conditions retire; writes inside if/while
    bodies do not)."""

    def note_reads(expr: A.Expr | None) -> None:
        if expr is None:
            return
        for name in expr_value_reads(expr):
            if name in pending:
                rbw.add(name)
                pending.discard(name)

    def note_cond_writes(expr: A.Expr | None) -> None:
        """A loop condition's assignments execute before every body entry."""
        if expr is None:
            return
        for name in expr_plain_writes(expr):
            pending.discard(name)

    if isinstance(stmt, A.Block):
        for inner in stmt.stmts:
            _stmt_reads_before_write(inner, pending, rbw)
    elif isinstance(stmt, A.DeclStmt):
        for d in stmt.decls:
            note_reads(d.init)
            pending.discard(d.name)  # re-declared inside: shadows outer
    elif isinstance(stmt, A.ExprStmt):
        if stmt.expr is not None:
            note_reads(stmt.expr)
            # Dominating straight-line writes retire pending names.
            for name in expr_plain_writes(stmt.expr):
                pending.discard(name)
    elif isinstance(stmt, A.If):
        note_reads(stmt.cond)
        branch_pending = set(pending)
        _stmt_reads_before_write(stmt.then, branch_pending, rbw)
        if stmt.otherwise is not None:
            branch_pending = set(pending)
            _stmt_reads_before_write(stmt.otherwise, branch_pending, rbw)
        # Writes under a condition don't dominate: keep pending as-is minus rbw.
        pending -= rbw
    elif isinstance(stmt, A.While):
        note_reads(stmt.cond)
        note_cond_writes(stmt.cond)
        body_pending = set(pending)
        _stmt_reads_before_write(stmt.body, body_pending, rbw)
        pending -= rbw
    elif isinstance(stmt, A.For):
        if stmt.init is not None:
            _stmt_reads_before_write(stmt.init, pending, rbw)
        note_reads(stmt.cond)
        body_pending = set(pending)
        _stmt_reads_before_write(stmt.body, body_pending, rbw)
        note_reads(stmt.step)
        pending -= rbw
    elif isinstance(stmt, A.Return):
        note_reads(stmt.value)
    # Break/Continue: nothing


def auto_firstprivate(region: A.Stmt, candidates: set[str]) -> set[str]:
    """Of ``candidates`` (free written variables), those read before being
    written inside the region — they need their pre-region value, i.e.
    firstprivate (paper §3.2 'the compiler tries to identify such variables
    automatically')."""
    pending = set(candidates)
    rbw: set[str] = set()
    _stmt_reads_before_write(region, pending, rbw)
    return rbw
