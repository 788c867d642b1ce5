"""Seeded, grammar-directed generation of type-correct mini-C programs.

Three program kinds cover the dialect:

* ``expr`` — straight-line/structured CPU programs over scalars, arrays,
  char buffers, the stdio/string.h/math.h subset, and bounded control
  flow. Differentially tested tree vs. compiled.
* ``mapper`` — directive-annotated Streaming mappers (getline/getWord
  loops emitting KV pairs), optionally paired with a matching combiner.
  Tested tree vs. compiled vs. the full GPU-simulated job under every
  lane engine. Mappers mix divergence-heavy shapes (data-dependent
  ``if``/``while`` trip counts, uneven word lengths per record) that
  force the vector engine onto its per-lane fallback paths with
  uniform-trip ``for`` accumulators that it vectorizes, so the oracle
  stresses both sides of the region-eligibility fence.

``expr`` programs and mapper bodies also mix address-taken scalars
(``int *p = &x; *p = e;``, a ``&x`` that first appears in a later inner
block, shadowing redeclarations — braced, or as the brace-less body of
an ``if``/``else``/``for`` — ``x++``/``x += e`` on both kinds) with
scalars whose address never escapes: the compiled backend turns the
latter into Python locals and keeps a Cell for the former, and the
oracle holds that decision to the tree-walker's answer.
* ``combiner`` — directive-annotated sorted-KV aggregators. Tested tree
  vs. compiled, and (for integer values) against the GPU combine kernel
  under the §4.2 chunk-partial relaxation.

Every generated program terminates by construction: ``for`` loops use
literal bounds, ``while`` loops count a reserved variable down, and input
loops are EOF-bounded. Division, modulo, and shift operands are guarded
at generation time so the only runtime errors a program can raise are
deliberate (and must then be raised identically by every backend).

Generation is deterministic: ``generate_case(seed, index)`` derives an
isolated :class:`random.Random` from ``"seed/index"`` (string seeding is
hash-salt independent), so a campaign's case stream is reproducible
across processes and machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Round-robin kind schedule; expr cases are cheap, GPU-backed kinds
#: heavier, so expr gets the larger share.
KIND_SCHEDULE = ("expr", "mapper", "expr", "combiner", "expr")

KINDS = ("expr", "mapper", "combiner")

#: Small word vocabulary for mapper/combiner keys. Includes
#: non-canonical numeric spellings ("007", "1.0", "+5") on purpose:
#: streaming key coercion must keep their text identity on every path.
_VOCAB = (
    "alpha", "beta", "gamma", "delta", "kappa", "omega",
    "map", "reduce", "key", "value", "x1", "zz",
    "007", "42", "1.0", "+5", "-3", "0",
)


@dataclass(frozen=True)
class FuzzCase:
    """One generated differential test case."""

    kind: str                       # "expr" | "mapper" | "combiner"
    seed: int
    index: int
    source: str                     # the mini-C program under test
    input_text: str                 # synthetic stdin / KV records
    gpu: bool = False               # GPU differential applies
    combine_source: str | None = None  # mapper cases: paired combiner
    label: str = ""

    @property
    def name(self) -> str:
        return f"{self.kind}-s{self.seed}-i{self.index}"


# --------------------------------------------------------------------------
# Expression / statement generation ("expr" programs)
# --------------------------------------------------------------------------


@dataclass
class _Vars:
    """Symbol table for the expr generator."""

    ints: list[str] = field(default_factory=list)
    doubles: list[str] = field(default_factory=list)
    arrays: list[tuple[str, int]] = field(default_factory=list)
    strbufs: list[tuple[str, int]] = field(default_factory=list)
    loop_vars: list[str] = field(default_factory=list)  # reserved counters
    helper: str | None = None       # name of the helper function, if any


class _ExprGen:
    """Generates one ``expr``-kind program."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.v = _Vars()
        self._loop_depth = 0
        self._fresh = 0  # suffix for block-local names

    # -- expressions -------------------------------------------------------

    def int_atom(self) -> str:
        rng = self.rng
        choices = ["lit"]
        if self.v.ints:
            choices += ["var"] * 3
        if self.v.arrays:
            choices.append("arr")
        if self.v.strbufs:
            choices.append("strlen")
        if self.v.doubles:
            choices.append("cast")
        pick = rng.choice(choices)
        if pick == "var":
            return rng.choice(self.v.ints)
        if pick == "arr":
            name, size = rng.choice(self.v.arrays)
            return f"{name}[abs({self.int_expr(0)}) % {size}]"
        if pick == "strlen":
            name, _size = rng.choice(self.v.strbufs)
            return f"strlen({name})"
        if pick == "cast":
            return f"(int) {rng.choice(self.v.doubles)}"
        n = rng.randint(-9, 9) if rng.random() < 0.8 else rng.randint(-999, 999)
        return f"({n})" if n < 0 else str(n)

    def int_expr(self, depth: int | None = None) -> str:
        rng = self.rng
        if depth is None:
            depth = rng.randint(1, 3)
        if depth <= 0 or rng.random() < 0.3:
            return self.int_atom()
        shape = rng.choice(("bin", "bin", "bin", "un", "cmp", "cond", "call"))
        if shape == "un":
            return f"{rng.choice(('-', '!', '~'))}({self.int_expr(depth - 1)})"
        if shape == "cmp":
            op = rng.choice(("==", "!=", "<", ">", "<=", ">="))
            return f"({self.int_expr(depth - 1)} {op} {self.int_expr(depth - 1)})"
        if shape == "cond":
            return (f"({self.cond_expr(depth - 1)} ? {self.int_expr(depth - 1)}"
                    f" : {self.int_expr(depth - 1)})")
        if shape == "call" and self.v.helper:
            return (f"{self.v.helper}({self.int_expr(depth - 1)}, "
                    f"{self.int_expr(depth - 1)})")
        op = rng.choice(("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"))
        left = self.int_expr(depth - 1)
        right = self.int_expr(depth - 1)
        if op in ("/", "%"):
            return f"({left} {op} (({right}) ? ({right}) : 1))"
        if op in ("<<", ">>"):
            return f"({left} {op} (abs({right}) % 8))"
        if op == "*":
            # A bounded factor keeps `v = v * v` in a loop from squaring
            # its way to million-digit ints (growth stays linear).
            return f"({left} * (({right}) % 64))"
        return f"({left} {op} {right})"

    def cond_expr(self, depth: int = 1) -> str:
        rng = self.rng
        if rng.random() < 0.5:
            op = rng.choice(("==", "!=", "<", ">", "<=", ">="))
            return f"({self.int_expr(depth)} {op} {self.int_expr(depth)})"
        if rng.random() < 0.3:
            join = rng.choice(("&&", "||"))
            return f"({self.cond_expr(0)} {join} {self.cond_expr(0)})"
        return self.int_expr(depth)

    def double_atom(self) -> str:
        rng = self.rng
        if self.v.doubles and rng.random() < 0.6:
            return rng.choice(self.v.doubles)
        if rng.random() < 0.3:
            return f"(double) ({self.int_expr(1)})"
        lit = round(rng.uniform(-50.0, 50.0), 3)
        return f"({lit!r})" if lit < 0 else repr(lit)

    def double_expr(self, depth: int | None = None) -> str:
        rng = self.rng
        if depth is None:
            depth = rng.randint(1, 2)
        if depth <= 0 or rng.random() < 0.35:
            return self.double_atom()
        shape = rng.choice(("bin", "bin", "math"))
        if shape == "math":
            inner = self.double_expr(depth - 1)
            fn = rng.choice(
                ("sqrt(fabs(%s))", "log(fabs(%s) + 1.0)", "cos(%s)",
                 "sin(%s)", "floor(%s)", "ceil(%s)", "fabs(%s)",
                 "exp(fmin(%s, 12.0))")
            )
            return fn % inner
        op = rng.choice(("+", "-", "*", "/"))
        left = self.double_expr(depth - 1)
        right = self.double_expr(depth - 1)
        if op == "/":
            return f"({left} / (fabs({right}) + 0.5))"
        return f"({left} {op} {right})"

    # -- statements --------------------------------------------------------

    def statements(self, budget: int, depth: int) -> list[str]:
        out: list[str] = []
        while budget > 0:
            stmt, cost = self.statement(depth)
            out.extend(stmt)
            budget -= cost
        return out

    def statement(self, depth: int) -> tuple[list[str], int]:
        rng = self.rng
        choices = ["assign"] * 4 + ["print"] * 2
        if self.v.arrays:
            choices += ["arrstore"] * 2
        if self.v.strbufs:
            choices.append("strop")
        if self.v.doubles:
            choices += ["dassign"] * 2
        if depth > 0:
            choices += ["if", "if", "for", "while"]
        if self._loop_depth > 0:
            choices.append("breakish")
        # Address-taken scalars: the compiled backend keeps a variable
        # as a plain Python local unless its address escapes somewhere
        # in the function, so each shape below flips that decision for
        # some names and not others.
        choices += ["alias", "lateaddr", "shadow", "incdec", "declbody"]
        pick = rng.choice(choices)
        if pick == "declbody":
            return self.declaration_body(), 2
        if pick == "alias":
            return self.alias_block(), 2
        if pick == "lateaddr":
            return self.late_address_block(depth), 3
        if pick == "shadow":
            return self.shadow_block(depth), 3
        if pick == "incdec":
            return [self.incdec(rng.choice(self.v.ints))], 1
        if pick == "assign":
            name = rng.choice(self.v.ints)
            op = rng.choice(("=", "=", "=", "+=", "-=", "*=", "&=", "|=", "^="))
            rhs = self.int_expr()
            if op == "*=":
                rhs = f"(({rhs}) % 64)"  # see int_expr's `*`
            return [f"{name} {op} {rhs};"], 1
        if pick == "dassign":
            name = rng.choice(self.v.doubles)
            op = rng.choice(("=", "=", "+=", "-=", "*="))
            return [f"{name} {op} {self.double_expr()};"], 1
        if pick == "arrstore":
            name, size = rng.choice(self.v.arrays)
            return [f"{name}[abs({self.int_expr(1)}) % {size}] = "
                    f"{self.int_expr()};"], 1
        if pick == "strop":
            name, size = rng.choice(self.v.strbufs)
            word = "".join(rng.choice("abcdxyz") for _ in range(rng.randint(1, 5)))
            if rng.random() < 0.5:
                return [f'strcpy({name}, "{word}");'], 1
            guard = size - len(word) - 2
            return [f"if (strlen({name}) < {guard})",
                    f'    strcat({name}, "{word}");'], 1
        if pick == "print":
            tag = rng.randint(0, 99)
            if self.v.doubles and rng.random() < 0.4:
                return [f'printf("t{tag} %f\\n", {self.double_expr(1)});'], 1
            return [f'printf("t{tag} %d\\n", {self.int_expr()});'], 1
        if pick == "breakish":
            kw = rng.choice(("break", "continue"))
            return [f"if ({self.cond_expr(0)}) {kw};"], 1
        if pick == "if":
            body = self.indent(self.statements(rng.randint(1, 3), depth - 1))
            lines = [f"if ({self.cond_expr()}) {{", *body, "}"]
            if rng.random() < 0.5:
                els = self.indent(self.statements(rng.randint(1, 2), depth - 1))
                lines += ["else {", *els, "}"]
            return lines, 2
        if pick == "for":
            return self.for_loop(depth), 3
        # while
        return self.while_loop(depth), 3

    def incdec(self, name: str) -> str:
        """``x++``/``--x``/``x += e`` on ``name`` — the in-place forms
        whose code differs most between a local and a Cell."""
        rng = self.rng
        shape = rng.choice(("post", "pre", "compound", "compound"))
        if shape == "post":
            return f"{name}{rng.choice(('++', '--'))};"
        if shape == "pre":
            return f"{rng.choice(('++', '--'))}{name};"
        return f"{name} {rng.choice(('+=', '-=', '^='))} {self.int_expr(1)};"

    def _fresh_name(self, stem: str) -> str:
        self._fresh += 1
        return f"{stem}{self._fresh}"

    def alias_block(self) -> list[str]:
        """``int *p = &x; *p = e;`` then a read of ``x``: stores through
        the pointer must land in the variable every later mention of
        ``x`` reads."""
        rng = self.rng
        name = rng.choice(self.v.ints)
        ptr = self._fresh_name("p")
        tag = rng.randint(0, 99)
        return [
            "{",
            f"    int *{ptr} = &{name};",
            f"    *{ptr} = {self.int_expr(1)};",
            f"    {self.incdec(name)}",
            f"    (*{ptr}){rng.choice(('++', '--'))};",
            f'    printf("a{tag} %d %d\\n", {name}, *{ptr});',
            "}",
        ]

    def late_address_block(self, depth: int) -> list[str]:
        """A block-local scalar used as a plain value first, whose ``&``
        only appears in a later statement of an inner block."""
        rng = self.rng
        name = self._fresh_name("w")
        ptr = self._fresh_name("q")
        tag = rng.randint(0, 99)
        lines = ["{", f"    int {name};", f"    {name} = {self.int_expr(1)};"]
        self.v.ints.append(name)
        try:
            lines += self.indent(self.statements(rng.randint(1, 2),
                                                 max(depth - 1, 0)))
            lines.append(f"    {self.incdec(name)}")
            if rng.random() < 0.7:  # else: the same shape, never a Cell
                lines += [
                    "    {",
                    f"        int *{ptr} = &{name};",
                    f"        *{ptr} = (*{ptr} + {self.int_expr(1)});",
                    f"        {self.incdec(name)}",
                    "    }",
                ]
            lines.append(f'    printf("w{tag} %d\\n", {name});')
        finally:
            self.v.ints.remove(name)
        return lines + ["}"]

    def shadow_block(self, depth: int) -> list[str]:
        """A shadowing redeclaration of an outer name (which some other
        statement may have address-taken): the inner variable is a
        different one, and the outer value must survive the block."""
        rng = self.rng
        name = rng.choice(self.v.ints)
        tag = rng.randint(0, 99)
        init = self.int_expr(1)  # may read the outer variable
        body = self.indent(self.statements(rng.randint(1, 2),
                                           max(depth - 1, 0)))
        lines = ["{", f"    int {name} = {init};", *body,
                 f"    {self.incdec(name)}"]
        if rng.random() < 0.4:
            ptr = self._fresh_name("p")
            lines += [f"    int *{ptr} = &{name};", f"    *{ptr} += 1;"]
        return lines + [f'    printf("s{tag} %d\\n", {name});', "}"]

    def declaration_body(self) -> list[str]:
        """A shadowing declaration as the *direct* body of an ``if``,
        ``else`` or ``for`` (no braces): it is block-scoped, so whether
        or not it ran, the statements after it name the outer
        variable."""
        rng = self.rng
        name = rng.choice(self.v.ints)
        tag = rng.randint(0, 99)
        decl = f"    int {name} = {self.int_expr(1)};"
        shape = rng.choice(("if", "else", "for"))
        if shape == "for" and self.v.loop_vars:
            var = self.v.loop_vars[-1]
            head = [f"for ({var} = 0; {var} < {rng.randint(1, 3)}; {var}++)",
                    decl]
        elif shape == "else":
            head = [f"if ({self.cond_expr(0)})", f"    {self.incdec(name)}",
                    "else", decl]
        else:
            head = [f"if ({self.cond_expr(0)})", decl]
        return head + [self.incdec(name),
                       f'printf("b{tag} %d\\n", {name});']

    def for_loop(self, depth: int) -> list[str]:
        rng = self.rng
        if not self.v.loop_vars:
            return [f"{rng.choice(self.v.ints)} = {self.int_expr()};"]
        var = self.v.loop_vars.pop()
        self._loop_depth += 1
        try:
            bound = rng.randint(1, 6)
            body = self.indent(self.statements(rng.randint(1, 3), depth - 1))
            return [f"for ({var} = 0; {var} < {bound}; {var}++) {{",
                    *body, "}"]
        finally:
            self._loop_depth -= 1
            self.v.loop_vars.append(var)

    def while_loop(self, depth: int) -> list[str]:
        rng = self.rng
        if not self.v.loop_vars:
            return [f"{rng.choice(self.v.ints)} = {self.int_expr()};"]
        var = self.v.loop_vars.pop()
        self._loop_depth += 1
        try:
            bound = rng.randint(1, 5)
            body = self.indent(self.statements(rng.randint(1, 2), depth - 1))
            return [f"{var} = {bound};",
                    f"while ({var} > 0) {{",
                    f"    {var} = {var} - 1;",
                    *body, "}"]
        finally:
            self._loop_depth -= 1
            self.v.loop_vars.append(var)

    @staticmethod
    def indent(lines: list[str]) -> list[str]:
        return ["    " + ln for ln in lines]

    # -- whole program -----------------------------------------------------

    def generate(self) -> tuple[str, str]:
        """Returns (source, input_text)."""
        rng = self.rng
        decls: list[str] = []
        inits: list[str] = []

        for i in range(rng.randint(2, 5)):
            name = f"v{i}"
            self.v.ints.append(name)
            decls.append(f"int {name};")
            inits.append(f"{name} = {rng.randint(-9, 9)};")
        for i in range(rng.randint(0, 2)):
            name = f"d{i}"
            self.v.doubles.append(name)
            decls.append(f"double {name};")
            inits.append(f"{name} = {round(rng.uniform(-9.0, 9.0), 2)!r};")
        for i in range(rng.randint(0, 2)):
            name, size = f"a{i}", rng.choice((4, 7, 10))
            self.v.arrays.append((name, size))
            decls.append(f"int {name}[{size}];")
        for i in range(rng.randint(0, 1)):
            name, size = f"s{i}", 48
            self.v.strbufs.append((name, size))
            decls.append(f"char {name}[{size}];")
            word = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 6)))
            inits.append(f'strcpy({name}, "{word}");')
        for i in range(3):
            name = f"i{i}"
            self.v.loop_vars.append(name)
            decls.append(f"int {name};")
        decls.append("int chk;")

        # Array init loops (use a loop var so it reads naturally).
        arr_init: list[str] = []
        for name, size in self.v.arrays:
            mul, add = rng.randint(1, 5), rng.randint(0, 9)
            arr_init += [
                f"for (i0 = 0; i0 < {size}; i0++) {{",
                f"    {name}[i0] = ((i0 * {mul}) + {add});",
                "}",
            ]

        helper_src = ""
        if rng.random() < 0.4:
            self.v.helper = "calc"
            saved, self.v.ints = self.v.ints, ["p0", "p1"]
            saved_arr, self.v.arrays = self.v.arrays, []
            saved_str, self.v.strbufs = self.v.strbufs, []
            saved_dbl, self.v.doubles = self.v.doubles, []
            helper_name = self.v.helper
            self.v.helper = None  # no recursion
            body_expr = self.int_expr(2)
            self.v.helper = helper_name
            self.v.ints = saved
            self.v.arrays = saved_arr
            self.v.strbufs = saved_str
            self.v.doubles = saved_dbl
            helper_src = (
                "int calc(int p0, int p1)\n{\n"
                f"    return {body_expr};\n"
                "}\n\n"
            )

        input_mode = rng.choice(("none", "none", "ints", "words"))
        input_lines: list[str] = []
        io_loop: list[str] = []
        if input_mode == "ints":
            self.v.ints.append("x")
            decls.append("int x;")
            for _ in range(rng.randint(2, 8)):
                input_lines.append(
                    " ".join(str(rng.randint(-99, 99))
                             for _ in range(rng.randint(1, 3)))
                )
            body = self.indent(self.statements(rng.randint(1, 3), 1))
            io_loop = [
                'while (scanf("%d", &x) == 1) {',
                '    printf("in %d\\n", x);',
                *body,
                "}",
            ]
        elif input_mode == "words":
            decls += ["char word[24];", "char *line;",
                      "size_t nbytes = 4096;", "int rd;", "int off;",
                      "int lp;"]
            inits.append("line = (char*) malloc(nbytes*sizeof(char));")
            for _ in range(rng.randint(2, 6)):
                input_lines.append(
                    " ".join(rng.choice(_VOCAB)
                             for _ in range(rng.randint(0, 5)))
                )
            io_loop = [
                "while ((rd = getline(&line, &nbytes, stdin)) != -1) {",
                "    off = 0;",
                "    while ((lp = getWord(line, off, word, rd, 24)) != -1) {",
                '        printf("w %s %d\\n", word, '
                f"{self._word_val_expr()});",
                "        off += lp;",
                "    }",
                "}",
            ]

        body = self.statements(rng.randint(3, 8), 2)

        epilogue: list[str] = []
        for name in self.v.ints:
            epilogue.append(f'printf("{name}=%d\\n", {name});')
        for name in self.v.doubles:
            epilogue.append(f'printf("{name}=%f\\n", {name});')
        for name, size in self.v.arrays:
            epilogue += [
                "chk = 0;",
                f"for (i0 = 0; i0 < {size}; i0++) {{",
                f"    chk = (chk + {name}[i0]);",
                "}",
                f'printf("{name}=%d\\n", chk);',
            ]
        for name, _size in self.v.strbufs:
            epilogue.append(f'printf("{name}=%s\\n", {name});')

        main_lines = (
            decls + inits + arr_init + io_loop + body + epilogue
            + ["return 0;"]
        )
        source = (
            helper_src
            + "int main()\n{\n"
            + "\n".join("    " + ln for ln in main_lines)
            + "\n}\n"
        )
        input_text = "\n".join(input_lines)
        if input_text:
            input_text += "\n"
        return source, input_text

    def _word_val_expr(self) -> str:
        saved, self.v.ints = self.v.ints, ["off", "rd"]
        saved_str, self.v.strbufs = self.v.strbufs, [("word", 24)]
        saved_arr, self.v.arrays = self.v.arrays, []
        saved_dbl, self.v.doubles = self.v.doubles, []
        try:
            return self.int_expr(2)
        finally:
            self.v.ints = saved
            self.v.strbufs = saved_str
            self.v.arrays = saved_arr
            self.v.doubles = saved_dbl


# --------------------------------------------------------------------------
# Mapper generation
# --------------------------------------------------------------------------


def _mapper_val_gen(rng: random.Random, atoms: list[str]) -> str:
    """A deterministic per-word int value expression over ``atoms``."""
    gen = _ExprGen(rng)
    gen.v.ints = list(atoms)
    return gen.int_expr(2)


def _gen_mapper(rng: random.Random) -> tuple[str, str, str | None]:
    """Returns (map_source, input_text, combine_source)."""
    string_key = rng.random() < 0.6
    keylen = rng.choice((16, 24, 30))
    kvpairs = 20
    with_table = rng.random() < 0.5
    with_helper = rng.random() < 0.3
    table_size = rng.choice((4, 8, 16))
    use_texture = with_table and rng.random() < 0.5

    decls = [
        f"char word[{keylen}];",
        "char *line;",
        "size_t nbytes = 10000;",
        "int read;",
        "int linePtr;",
        "int offset;",
        "int val;",
        "int scale;",
    ]
    pre = [
        "line = (char*) malloc(nbytes*sizeof(char));",
        f"scale = {rng.randint(1, 9)};",
    ]
    if not string_key:
        decls.append("int kv;")
    if with_table:
        decls.append(f"int table[{table_size}];")
        decls.append("int ti;")
        mul, add = rng.randint(1, 7), rng.randint(0, 9)
        pre += [
            f"for (ti = 0; ti < {table_size}; ti++) {{",
            f"    table[ti] = ((ti * {mul}) + {add});",
            "}",
        ]

    helper_src = ""
    if with_helper:
        inner = _mapper_val_gen(rng, ["p0", "p1"])
        helper_src = (
            "int calc(int p0, int p1)\n{\n"
            f"    return {inner};\n"
            "}\n\n"
        )

    atoms = ["scale", "offset", "strlen(word)"]
    if with_table:
        atoms.append(f"table[abs(strlen(word)) % {table_size}]")
    if with_helper:
        atoms.append("calc(scale, strlen(word))")
    if not string_key:
        atoms.append("kv")
    val_expr = _mapper_val_gen(rng, atoms)

    # kv must be derived from the current word BEFORE any use: reading
    # last iteration's kv is a cross-record dependence the mapper
    # contract forbids (CPU streams one process per split; GPU threads
    # each start from the host snapshot), so CPU and GPU would
    # legitimately disagree on the first word of every record.
    key_setup: list[str] = []
    emit: list[str] = []
    if string_key:
        key_clause = f"key(word) value(val) keylength({keylen})"
        emit.append('printf("%s\\t%d\\n", word, val);')
    else:
        key_clause = "key(kv) value(val)"
        key_setup = ["kv = (abs(atoi(word)) % 7);"]
        emit = ['printf("%d\\t%d\\n", kv, val);']

    clauses = f"mapper {key_clause} kvpairs({kvpairs})"
    if use_texture:
        clauses += " texture(table)"

    cond_tweak: list[str] = []
    if rng.random() < 0.5:
        cond_tweak = [
            f"if ((val % 3) == {rng.randint(0, 2)}) {{",
            f"    val = (val + {rng.randint(1, 9)});",
            "}",
        ]

    # Divergence-heavy countdown: the trip count depends on the current
    # word, so warp lanes disagree on it and the vector engine must take
    # its per-lane spine/fallback path. Terminates by construction (spin
    # starts bounded by a literal modulus and strictly decreases).
    diverge: list[str] = []
    if rng.random() < 0.4:
        decls.append("int spin;")
        cap = rng.randint(2, 6)
        diverge = [
            f"spin = (abs(val) % {cap});",
            "while (spin > 0) {",
            f"    val = (val + {rng.randint(1, 3)});",
            "    spin = (spin - 1);",
            "}",
        ]

    # Uniform-trip accumulator: a literal-bounded for over scalars, the
    # one shape the vector engine compiles to numpy ops over the lane
    # axis. Float accumulation on purpose — the engine refuses varying
    # *int* arithmetic (int64 overflow risk) but float64 ops are
    # bit-exact between numpy and the scalar interpreters. Keeps the
    # oracle honest on the vectorized side of the fence.
    vec_block: list[str] = []
    if rng.random() < 0.4:
        decls += ["double acc;", "int rr;"]
        trips = rng.choice((4, 8, 16))
        frac = rng.choice(("0.25", "0.5", "1.5"))
        vec_block = [
            "acc = 0.0;",
            f"for (rr = 0; rr < {trips}; rr++) {{",
            f"    acc = (acc + ((rr * {rng.randint(1, 5)})"
            f" * ({frac} * val)));",
            "}",
            f"val = (val + (((int) acc) % {rng.choice((97, 101, 251))}));",
        ]

    # Body-local scalars inside the kernel: `tmp` stays a plain Python
    # local in the generated lane body while `held`, whose address is
    # taken, keeps a Cell — the same decision as on the CPU path, here
    # under the GPU legs of the oracle.
    locals_block: list[str] = []
    if rng.random() < 0.4:
        locals_block = [
            "{",
            "    int tmp;",
            "    int held;",
            "    int *tp = &held;",
            f"    tmp = (val + {rng.randint(1, 9)});",
            f"    tmp{rng.choice(('++', '--'))};",
            "    *tp = tmp;",
            f"    held {rng.choice(('+=', '-=', '^='))} {rng.randint(1, 5)};",
            f"    val = ({rng.choice(('held', '*tp'))} + tmp);",
            "}",
        ]

    body = [
        "offset = 0;",
        f"while ((linePtr = getWord(line, offset, word, read, {keylen})) "
        "!= -1) {",
        *["    " + ln for ln in key_setup],
        f"    val = {val_expr};",
        *(["    " + ln for ln in locals_block]),
        *(["    " + ln for ln in diverge]),
        *(["    " + ln for ln in vec_block]),
        *(["    " + ln for ln in cond_tweak]),
        *(["    " + ln for ln in emit]),
        "    offset += linePtr;",
        "}",
    ]
    main_lines = (
        decls + pre
        + [f"#pragma mapreduce {clauses}",
           "while ((read = getline(&line, &nbytes, stdin)) != -1) {",
           *["    " + ln for ln in body],
           "}",
           "free(line);",
           "return 0;"]
    )
    source = (
        helper_src
        + "int main()\n{\n"
        + "\n".join("    " + ln for ln in main_lines)
        + "\n}\n"
    )

    # Uneven records: some campaigns mix near-keylength words with
    # one-char words and wildly varying word counts, so adjacent GPU
    # lanes walk getWord loops of very different lengths (maximum
    # divergence across a warp).
    uneven = rng.random() < 0.35
    lines = []
    for _ in range(rng.randint(8, 24)):
        if uneven and rng.random() < 0.5:
            words = []
            for _ in range(rng.randint(0, 12)):
                if rng.random() < 0.4:
                    words.append("".join(
                        rng.choice("qwertyuiop")
                        for _ in range(rng.randint(1, keylen - 2))))
                else:
                    words.append(rng.choice(_VOCAB))
            lines.append(" ".join(words))
        else:
            lines.append(" ".join(rng.choice(_VOCAB)
                                  for _ in range(rng.randint(0, 8))))
    input_text = "\n".join(lines) + "\n"

    combine_source = None
    if rng.random() < 0.6:
        combine_source = _combiner_source(
            rng, string_key=string_key, keylen=keylen, float_value=False
        )
    return source, input_text, combine_source


# --------------------------------------------------------------------------
# Combiner generation
# --------------------------------------------------------------------------


def _combiner_source(rng: random.Random, string_key: bool, keylen: int,
                     float_value: bool) -> str:
    """A sum-style combiner (sum is the only §4.2-safe aggregation: the
    GPU's chunk partials must add back to the CPU total)."""
    if string_key:
        header = [
            f"char word[{keylen}];",
            f"char prevWord[{keylen}];",
            "int count;",
            "int val;",
            "int read;",
            "prevWord[0] = '\\0';",
            "count = 0;",
        ]
        pragma = (
            f"#pragma mapreduce combiner key(prevWord) value(count) "
            f"keyin(word) valuein(val) keylength({keylen}) vallength(4) "
            f"firstprivate(prevWord, count)"
        )
        region = [
            "{",
            '    while ((read = scanf("%s %d", word, &val)) == 2) {',
            "        if (strcmp(word, prevWord) == 0) {",
            "            count += val;",
            "        }",
            "        else {",
            "            if (prevWord[0] != '\\0')",
            '                printf("%s\\t%d\\n", prevWord, count);',
            "            strcpy(prevWord, word);",
            "            count = val;",
            "        }",
            "    }",
            "    if (prevWord[0] != '\\0')",
            '        printf("%s\\t%d\\n", prevWord, count);',
            "}",
        ]
    else:
        vtype = "double" if float_value else "int"
        vconv = "%f" if float_value else "%d"
        vfmt = "%f" if float_value else "%d"
        header = [
            "int prevKey;",
            "int key;",
            "int read;",
            "int have;",
            f"{vtype} total;",
            f"{vtype} val;",
            "prevKey = 0;",
            "have = 0;",
            f"total = {'0.0' if float_value else '0'};",
        ]
        pragma = (
            "#pragma mapreduce combiner key(prevKey) value(total) "
            "keyin(key) valuein(val) firstprivate(prevKey, total, have)"
        )
        region = [
            "{",
            f'    while ((read = scanf("%d {vconv}", &key, &val)) == 2) {{',
            "        if (have && (key == prevKey)) {",
            "            total += val;",
            "        }",
            "        else {",
            "            if (have)",
            f'                printf("%d\\t{vfmt}\\n", prevKey, total);',
            "            prevKey = key;",
            "            total = val;",
            "            have = 1;",
            "        }",
            "    }",
            "    if (have)",
            f'        printf("%d\\t{vfmt}\\n", prevKey, total);',
            "}",
        ]
    main_lines = header + [pragma] + region + ["return 0;"]
    return (
        "int main()\n{\n"
        + "\n".join("    " + ln for ln in main_lines)
        + "\n}\n"
    )


def _gen_combiner(rng: random.Random) -> tuple[str, str, bool]:
    """Returns (source, sorted_kv_input, gpu_applicable)."""
    string_key = rng.random() < 0.5
    float_value = (not string_key) and rng.random() < 0.4
    keylen = rng.choice((16, 30))
    source = _combiner_source(rng, string_key=string_key, keylen=keylen,
                              float_value=float_value)

    if string_key:
        pool = sorted(rng.sample(_VOCAB, rng.randint(2, 6)))
    else:
        pool = sorted(rng.sample(range(-20, 99), rng.randint(2, 6)))
    lines: list[str] = []
    for key in pool:
        for _ in range(rng.randint(1, 6)):
            if float_value:
                value: object = round(rng.uniform(-20.0, 20.0), 3)
            else:
                value = rng.randint(-50, 50)
            lines.append(f"{key}\t{value}")
    input_text = "\n".join(lines)
    if input_text:
        input_text += "\n"
    # Float totals render through %f on the CPU but ride as raw floats
    # through the GPU store; only integer values compare exactly.
    return source, input_text, not float_value


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def case_rng(seed: int, index: int) -> random.Random:
    """The per-case RNG; string seeding is stable across processes."""
    return random.Random(f"{seed}/{index}")


def generate_case(seed: int, index: int,
                  kinds: tuple[str, ...] = KIND_SCHEDULE) -> FuzzCase:
    """Deterministically generate the ``index``-th case of a campaign."""
    kind = kinds[index % len(kinds)]
    rng = case_rng(seed, index)
    if kind == "expr":
        source, input_text = _ExprGen(rng).generate()
        return FuzzCase(kind=kind, seed=seed, index=index, source=source,
                        input_text=input_text)
    if kind == "mapper":
        source, input_text, combine = _gen_mapper(rng)
        return FuzzCase(kind=kind, seed=seed, index=index, source=source,
                        input_text=input_text, gpu=True,
                        combine_source=combine)
    if kind == "combiner":
        source, input_text, gpu = _gen_combiner(rng)
        return FuzzCase(kind=kind, seed=seed, index=index, source=source,
                        input_text=input_text, gpu=gpu)
    raise ValueError(f"unknown fuzz kind {kind!r}")


def generate_source(seed: int, kind: str = "expr") -> str:
    """A single program source for one kind (property-test helper)."""
    index = {"expr": 0, "mapper": 1, "combiner": 3}[kind]
    return generate_case(seed, index).source
