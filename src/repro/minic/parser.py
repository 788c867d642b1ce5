"""Recursive-descent parser for the mini-C dialect."""

from __future__ import annotations

from . import cast as A
from . import ctypes as T
from ..errors import ParseError
from .lexer import Token, tokenize

# Binary operator precedence (higher binds tighter).
_BIN_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])

_TYPE_KEYWORDS = frozenset(
    ["int", "char", "float", "double", "long", "short", "unsigned", "void", "size_t", "const"]
)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.pending_pragma: A.Pragma | None = None

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, got {got.value!r}", got.line, got.col)
        return tok

    def at_type(self) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value in _TYPE_KEYWORDS

    # -- types --------------------------------------------------------------

    def parse_base_type(self) -> T.CType:
        while self.accept("keyword", "const"):
            pass
        tok = self.expect("keyword")
        name = tok.value
        if name == "unsigned":
            # 'unsigned int' / 'unsigned char' / bare 'unsigned'
            follow = self.peek()
            if follow.kind == "keyword" and follow.value in ("int", "char", "long"):
                self.next()
                name = "unsigned" if follow.value == "int" else follow.value
        elif name == "long":
            if self.peek().kind == "keyword" and self.peek().value in ("long", "int"):
                self.next()
        if name not in T.Scalar._SIZES:
            raise ParseError(f"unsupported type {name!r}", tok.line, tok.col)
        ctype: T.CType = T.scalar(name)
        while self.accept("keyword", "const"):
            pass
        return ctype

    def parse_pointers(self, base: T.CType) -> T.CType:
        while self.accept("op", "*"):
            base = T.Pointer(base)
        return base

    def try_parse_type(self) -> T.CType | None:
        """Parse a full type (for casts/sizeof); None if not at a type."""
        if not self.at_type():
            return None
        base = self.parse_base_type()
        return self.parse_pointers(base)

    # -- program ------------------------------------------------------------

    def parse_program(self, source: str) -> A.Program:
        prog = A.Program(source=source)
        while self.peek().kind != "eof":
            if self.peek().kind == "pragma":
                tok = self.next()
                self.pending_pragma = A.Pragma(text=tok.value, line=tok.line)
                continue
            prog.functions.append(self.parse_function())
        return prog

    def parse_function(self) -> A.FunctionDef:
        start = self.peek()
        ret = self.parse_base_type()
        ret = self.parse_pointers(ret)
        name = self.expect("ident").value
        self.expect("op", "(")
        params: list[A.Param] = []
        if not self.accept("op", ")"):
            if self.peek().kind == "keyword" and self.peek().value == "void" \
                    and self.peek(1).kind == "op" and self.peek(1).value == ")":
                self.next()
                self.expect("op", ")")
            else:
                while True:
                    ptype = self.parse_base_type()
                    ptype = self.parse_pointers(ptype)
                    pname = self.expect("ident").value
                    while self.accept("op", "["):
                        size = None
                        if not self.accept("op", "]"):
                            size_tok = self.expect("int")
                            size = int(size_tok.value, 0)
                            self.expect("op", "]")
                        # array parameters decay to pointers
                        ptype = T.Pointer(ptype) if size is None else T.Pointer(ptype)
                    params.append(A.Param(pname, ptype))
                    if not self.accept("op", ","):
                        break
                self.expect("op", ")")
        body = self.parse_block()
        return A.FunctionDef(
            name=name, return_type=ret, params=params, body=body, line=start.line
        )

    # -- statements ----------------------------------------------------------

    def take_pragma(self) -> A.Pragma | None:
        pragma = self.pending_pragma
        self.pending_pragma = None
        return pragma

    def parse_block(self) -> A.Block:
        lbrace = self.expect("op", "{")
        stmts: list[A.Stmt] = []
        while not self.accept("op", "}"):
            if self.peek().kind == "eof":
                raise ParseError("unterminated block", lbrace.line)
            stmts.append(self.parse_statement())
        return A.Block(stmts=stmts, line=lbrace.line)

    def parse_statement(self) -> A.Stmt:
        tok = self.peek()
        if tok.kind == "pragma":
            self.next()
            self.pending_pragma = A.Pragma(text=tok.value, line=tok.line)
            return self.parse_statement()
        pragma = self.take_pragma()

        stmt: A.Stmt
        if tok.kind == "op" and tok.value == "{":
            stmt = self.parse_block()
        elif tok.kind == "op" and tok.value == ";":
            self.next()
            stmt = A.ExprStmt(expr=None, line=tok.line)
        elif self.at_type():
            stmt = self.parse_declaration()
        elif tok.kind == "keyword" and tok.value in (
            "if", "while", "for", "return", "break", "continue"
        ):
            stmt = self._parse_keyword_statement(tok)
        else:
            expr = self.parse_expression()
            self.expect("op", ";")
            stmt = A.ExprStmt(expr=expr, line=tok.line)
        stmt.pragma = pragma
        return stmt

    def _parse_body(self) -> A.Stmt:
        """The statement an if/else/while/for governs. A declaration
        there is block-scoped — nothing after the statement can name it
        — so it is parsed as the one-statement block it denotes, and
        every engine scopes it the way it scopes any block."""
        stmt = self.parse_statement()
        if isinstance(stmt, A.DeclStmt):
            return A.Block(stmts=[stmt], line=stmt.line)
        return stmt

    def _parse_keyword_statement(self, tok: Token) -> A.Stmt:
        if tok.value == "if":
            self.next()
            self.expect("op", "(")
            cond = self.parse_expression()
            self.expect("op", ")")
            then = self._parse_body()
            otherwise = None
            if self.accept("keyword", "else"):
                otherwise = self._parse_body()
            return A.If(cond=cond, then=then, otherwise=otherwise, line=tok.line)
        if tok.value == "while":
            self.next()
            self.expect("op", "(")
            cond = self.parse_expression()
            self.expect("op", ")")
            body = self._parse_body()
            return A.While(cond=cond, body=body, line=tok.line)
        if tok.value == "for":
            self.next()
            self.expect("op", "(")
            init: A.Stmt | None = None
            if not self.accept("op", ";"):
                if self.at_type():
                    init = self.parse_declaration()
                else:
                    init = A.ExprStmt(expr=self.parse_expression(), line=tok.line)
                    self.expect("op", ";")
            cond = None
            if not self.accept("op", ";"):
                cond = self.parse_expression()
                self.expect("op", ";")
            step = None
            if self.peek().value != ")":
                step = self.parse_expression()
            self.expect("op", ")")
            body = self._parse_body()
            return A.For(init=init, cond=cond, step=step, body=body, line=tok.line)
        if tok.value == "return":
            self.next()
            value = None
            if not (self.peek().kind == "op" and self.peek().value == ";"):
                value = self.parse_expression()
            self.expect("op", ";")
            return A.Return(value=value, line=tok.line)
        if tok.value == "break":
            self.next()
            self.expect("op", ";")
            return A.Break(line=tok.line)
        if tok.value == "continue":
            self.next()
            self.expect("op", ";")
            return A.Continue(line=tok.line)
        raise ParseError(f"unexpected keyword {tok.value!r}", tok.line, tok.col)

    def parse_declaration(self) -> A.DeclStmt:
        start = self.peek()
        base = self.parse_base_type()
        decls: list[A.Declarator] = []
        while True:
            ctype = self.parse_pointers(base)
            name_tok = self.expect("ident")
            dims: list[int] = []
            while self.accept("op", "["):
                size_tok = self.expect("int")
                dims.append(int(size_tok.value, 0))
                self.expect("op", "]")
            # int a[4][8] -> Array(Array(int, 8), 4): build inner-out.
            for size in reversed(dims):
                ctype = T.Array(ctype, size)
            init = None
            if self.accept("op", "="):
                init = self.parse_assignment()
            decls.append(A.Declarator(name_tok.value, ctype, init, name_tok.line))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return A.DeclStmt(decls=decls, line=start.line)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> A.Expr:
        expr = self.parse_assignment()
        while self.accept("op", ","):
            right = self.parse_assignment()
            expr = A.BinOp(op=",", left=expr, right=right, line=expr.line)
        return expr

    def parse_assignment(self) -> A.Expr:
        left = self.parse_ternary()
        tok = self.peek()
        if tok.kind == "op" and tok.value in _ASSIGN_OPS:
            self.next()
            value = self.parse_assignment()
            return A.Assign(op=tok.value, target=left, value=value, line=tok.line)
        return left

    def parse_ternary(self) -> A.Expr:
        cond = self.parse_binary(1)
        if self.accept("op", "?"):
            then = self.parse_assignment()
            self.expect("op", ":")
            otherwise = self.parse_ternary()
            return A.Conditional(cond=cond, then=then, otherwise=otherwise, line=cond.line)
        return cond

    def parse_binary(self, min_prec: int) -> A.Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                return left
            prec = _BIN_PREC.get(tok.value)
            if prec is None or prec < min_prec:
                return left
            self.next()
            right = self.parse_binary(prec + 1)
            left = A.BinOp(op=tok.value, left=left, right=right, line=tok.line)

    def parse_unary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("-", "+", "!", "~", "*", "&", "++", "--"):
            self.next()
            operand = self.parse_unary()
            if tok.value == "+":
                return operand
            return A.UnaryOp(op=tok.value, operand=operand, line=tok.line)
        if tok.kind == "keyword" and tok.value == "sizeof":
            self.next()
            self.expect("op", "(")
            of_type = self.try_parse_type()
            if of_type is None:
                raise ParseError("sizeof(expr) unsupported; use sizeof(type)", tok.line)
            self.expect("op", ")")
            return A.SizeofType(of_type=of_type, line=tok.line)
        # Cast: '(' type ')' unary
        if tok.kind == "op" and tok.value == "(":
            nxt = self.peek(1)
            if nxt.kind == "keyword" and nxt.value in _TYPE_KEYWORDS:
                self.next()
                to_type = self.try_parse_type()
                assert to_type is not None
                self.expect("op", ")")
                operand = self.parse_unary()
                return A.Cast(to_type=to_type, operand=operand, line=tok.line)
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                return expr
            if tok.value == "(":
                if not isinstance(expr, A.Ident):
                    raise ParseError("only direct calls supported", tok.line)
                self.next()
                args: list[A.Expr] = []
                if not self.accept("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                    self.expect("op", ")")
                expr = A.Call(func=expr.name, args=args, line=tok.line)
            elif tok.value == "[":
                self.next()
                index = self.parse_expression()
                self.expect("op", "]")
                expr = A.Index(base=expr, index=index, line=tok.line)
            elif tok.value in ("++", "--"):
                self.next()
                expr = A.PostfixOp(op=tok.value, operand=expr, line=tok.line)
            else:
                return expr

    def parse_primary(self) -> A.Expr:
        tok = self.next()
        if tok.kind == "int":
            return A.IntLit(value=int(tok.value.rstrip("uUlL"), 0), line=tok.line)
        if tok.kind == "float":
            return A.FloatLit(value=float(tok.value.rstrip("fF")), line=tok.line)
        if tok.kind == "char":
            return A.CharLit(value=ord(tok.value), line=tok.line)
        if tok.kind == "string":
            return A.StringLit(value=tok.value, line=tok.line)
        if tok.kind == "ident":
            return A.Ident(name=tok.value, line=tok.line)
        if tok.kind == "op" and tok.value == "(":
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)


def parse(source: str) -> A.Program:
    """Parse mini-C source text into a :class:`~repro.minic.cast.Program`."""
    return _Parser(tokenize(source)).parse_program(source)
