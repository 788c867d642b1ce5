"""AST → source printer.

Used to display the translator's output (the analogue of the generated
CUDA file) and in round-trip tests of the parser.
"""

from __future__ import annotations

from . import cast as A
from . import ctypes as T
from ..errors import ReproError


def _type_prefix_suffix(ctype: T.CType) -> tuple[str, str]:
    """Split a C type into declaration prefix and array suffix."""
    suffix = ""
    while isinstance(ctype, T.Array):
        n = "" if ctype.size is None else str(ctype.size)
        suffix += f"[{n}]"
        ctype = ctype.base
    stars = ""
    while isinstance(ctype, T.Pointer):
        stars += "*"
        ctype = ctype.base
    return f"{ctype}{' ' if not stars else ' ' + stars}", suffix


def _postfix_operand(expr: A.Expr) -> str:
    """The operand of a postfix operator (``x++``, ``x[i]``): a prefix
    expression there needs parentheses — ``(*p)++`` is not ``*p++``."""
    text = pprint_expr(expr)
    return f"({text})" if isinstance(expr, (A.UnaryOp, A.Cast)) else text


def pprint_expr(expr: A.Expr) -> str:
    if isinstance(expr, A.IntLit):
        return str(expr.value)
    if isinstance(expr, A.FloatLit):
        text = repr(expr.value)
        return text
    if isinstance(expr, A.CharLit):
        ch = chr(expr.value)
        escaped = {"\n": "\\n", "\t": "\\t", "\0": "\\0", "'": "\\'", "\\": "\\\\"}.get(ch, ch)
        return f"'{escaped}'"
    if isinstance(expr, A.StringLit):
        body = expr.value.replace("\\", "\\\\").replace('"', '\\"')
        body = body.replace("\n", "\\n").replace("\t", "\\t").replace("\0", "\\0")
        return f'"{body}"'
    if isinstance(expr, A.Ident):
        return expr.name
    if isinstance(expr, A.BinOp):
        return f"({pprint_expr(expr.left)} {expr.op} {pprint_expr(expr.right)})"
    if isinstance(expr, A.UnaryOp):
        operand = pprint_expr(expr.operand)
        # Keep '-' + '-x' from fusing into the '--' token (same for
        # '+'/'&'): a space preserves the lexing of the original tree.
        sep = " " if operand and expr.op[-1] == operand[0] else ""
        return f"{expr.op}{sep}{operand}"
    if isinstance(expr, A.PostfixOp):
        return f"{_postfix_operand(expr.operand)}{expr.op}"
    if isinstance(expr, A.Assign):
        return f"({pprint_expr(expr.target)} {expr.op} {pprint_expr(expr.value)})"
    if isinstance(expr, A.Conditional):
        return (
            f"({pprint_expr(expr.cond)} ? {pprint_expr(expr.then)}"
            f" : {pprint_expr(expr.otherwise)})"
        )
    if isinstance(expr, A.Call):
        args = ", ".join(pprint_expr(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, A.Index):
        return f"{_postfix_operand(expr.base)}[{pprint_expr(expr.index)}]"
    if isinstance(expr, A.Cast):
        prefix, suffix = _type_prefix_suffix(expr.to_type)
        return f"({prefix.strip()}{suffix}) {pprint_expr(expr.operand)}"
    if isinstance(expr, A.SizeofType):
        prefix, suffix = _type_prefix_suffix(expr.of_type)
        return f"sizeof({prefix.strip()}{suffix})"
    raise ReproError(f"cannot print {type(expr).__name__}")


def pprint_stmt(stmt: A.Stmt, indent: int = 0) -> str:
    pad = "    " * indent
    lines: list[str] = []
    if stmt.pragma is not None:
        lines.append(f"{pad}{stmt.pragma.text}")
    if isinstance(stmt, A.Block):
        lines.append(f"{pad}{{")
        for inner in stmt.stmts:
            lines.append(pprint_stmt(inner, indent + 1))
        lines.append(f"{pad}}}")
    elif isinstance(stmt, A.DeclStmt):
        # One declarator per line: keeps print→parse→print idempotent.
        for d in stmt.decls:
            prefix, suffix = _type_prefix_suffix(d.ctype)
            init = f" = {pprint_expr(d.init)}" if d.init is not None else ""
            lines.append(f"{pad}{prefix}{d.name}{suffix}{init};")
    elif isinstance(stmt, A.ExprStmt):
        body = pprint_expr(stmt.expr) if stmt.expr is not None else ""
        lines.append(f"{pad}{body};")
    elif isinstance(stmt, A.If):
        lines.append(f"{pad}if ({pprint_expr(stmt.cond)})")
        lines.append(pprint_stmt(stmt.then, indent + 1))
        if stmt.otherwise is not None:
            lines.append(f"{pad}else")
            lines.append(pprint_stmt(stmt.otherwise, indent + 1))
    elif isinstance(stmt, A.While):
        lines.append(f"{pad}while ({pprint_expr(stmt.cond)})")
        lines.append(pprint_stmt(stmt.body, indent + 1))
    elif isinstance(stmt, A.For):
        init = pprint_stmt(stmt.init, 0).strip().rstrip(";") if stmt.init else ""
        cond = pprint_expr(stmt.cond) if stmt.cond is not None else ""
        step = pprint_expr(stmt.step) if stmt.step is not None else ""
        lines.append(f"{pad}for ({init}; {cond}; {step})")
        lines.append(pprint_stmt(stmt.body, indent + 1))
    elif isinstance(stmt, A.Return):
        value = f" {pprint_expr(stmt.value)}" if stmt.value is not None else ""
        lines.append(f"{pad}return{value};")
    elif isinstance(stmt, A.Break):
        lines.append(f"{pad}break;")
    elif isinstance(stmt, A.Continue):
        lines.append(f"{pad}continue;")
    else:
        raise ReproError(f"cannot print {type(stmt).__name__}")
    return "\n".join(lines)


def pprint_function(func: A.FunctionDef, qualifier: str = "") -> str:
    prefix, _ = _type_prefix_suffix(func.return_type)
    params = ", ".join(
        f"{_type_prefix_suffix(p.ctype)[0]}{p.name}" for p in func.params
    )
    head = f"{qualifier}{prefix}{func.name}({params})"
    return head + "\n" + pprint_stmt(func.body, 0)


def pprint_program(program: A.Program) -> str:
    return "\n\n".join(pprint_function(f) for f in program.functions) + "\n"
