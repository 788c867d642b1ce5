"""Differential tests: closure-compiled backend vs the tree-walker.

The compiled backend is only correct if it is *indistinguishable* from
the tree-walker at every observable boundary: streaming-filter stdout,
ExecCounters totals, error messages, and the simulated GPU cost model
(which interprets kernel regions). Every benchmark app runs through
both backends here and must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.apps import all_apps, get_app
from repro.errors import ConfigError, CRuntimeError
from repro.hadoop.local import LocalJobRunner
from repro.kvstore.coerce import parse_kv_line
from repro.minic import parse
from repro.minic.cache import compiled_program
from repro.minic.interpreter import Interpreter, run_filter, use_engine

APP_TAGS = [app.short for app in all_apps()]
COMBINER_TAGS = [app.short for app in all_apps() if app.has_combiner]
NO_COMBINER_TAGS = [app.short for app in all_apps() if not app.has_combiner]


def _filter(program, text, engine):
    with use_engine(engine):
        return run_filter(program, text)


def _both_backends(program, text):
    return _filter(program, text, "tree"), _filter(program, text, "compiled")


class TestMapFilters:
    """Every app's map program, identical stdout and counters."""

    @pytest.mark.parametrize("tag", APP_TAGS)
    def test_map_output_and_counters_match(self, tag):
        app = get_app(tag)
        text = app.generate(80, seed=11)
        (out_t, cnt_t), (out_c, cnt_c) = _both_backends(
            app.map_program(), text)
        assert out_c == out_t
        assert cnt_c == cnt_t


class TestCombineAndReduceFilters:
    """Combiner/reduce programs consume sorted KV text identically.

    Parametrized over the apps that actually carry a combiner (Table 2),
    so combiner-less apps are asserted as such instead of skipped."""

    @pytest.mark.parametrize("tag", COMBINER_TAGS)
    def test_combine_matches(self, tag):
        app = get_app(tag)
        text = app.generate(80, seed=11)
        map_out, _ = _filter(app.map_program(), text, "tree")
        kv = "\n".join(sorted(map_out.splitlines()))
        if kv:
            kv += "\n"
        (out_t, cnt_t), (out_c, cnt_c) = _both_backends(
            app.combine_program(), kv)
        assert out_c == out_t
        assert cnt_c == cnt_t

    @pytest.mark.parametrize("tag", NO_COMBINER_TAGS)
    def test_no_combiner_apps_have_none(self, tag):
        app = get_app(tag)
        assert app.combine_program() is None
        assert app.translate_combine() is None
        with pytest.raises(ConfigError, match="no combiner"):
            app.cpu_combine("k\t1\n")


_HELPERS = """
int two(int a, int b) { return a + b; }
void nothing() { return; }
int down(int n) { return down(n + 1); }
"""

_PREFIX = "int x; int i; for (i = 0; i < 3; i++) { x = i; }\n"


def _program(body):
    return parse(_HELPERS + "int main() {\n" + body + "\nreturn 0;\n}")


def _run_to_error(program, engine, max_steps=200_000_000, stdin=""):
    """(message, counters at the abort) under one engine."""
    interp = Interpreter(program, stdin=stdin, max_steps=max_steps)
    with pytest.raises(CRuntimeError) as exc_info, use_engine(engine):
        interp.run()
    return str(exc_info.value), interp.counters


def _fields(counters):
    return dataclasses.asdict(counters)


class TestErrorParity:
    """Runtime errors carry the same message through both backends, and
    counters agree up to the aborted basic block: everything before it
    is fully counted on both, and the compiled backend — which counts a
    block at its head — is ahead of the tree-walker by at most that
    block's own cost."""

    # (setup before the aborting statement, the aborting statement — a
    #  basic block of its own —, message, that statement's full cost)
    CASES = {
        "division by zero": (
            "", "x = 1 / 0;", "division by zero",
            {"ops": 1, "stores": 1}),
        "printf too few arguments": (
            "", 'printf("%d %d\\n", 1);', "too few arguments",
            {"calls": 1}),
        "index out of bounds": (
            "int a[4];", "x = a[9];", "out-of-bounds",
            {"loads": 1, "stores": 1}),
        "use after free": (
            "char *p; p = (char*) malloc(4); p[0] = 1; free(p);",
            "x = p[0];", "use-after-free on buffer 'malloc'",
            {"loads": 1, "stores": 1}),
        "null pointer indexed": (
            "char *p; p = NULL;", "x = p[0];", "null pointer indexed",
            {"loads": 1, "stores": 1}),
        "null pointer dereference": (
            "int *p; p = NULL;", "x = *p;", "null pointer dereference",
            {"loads": 1, "stores": 1}),
        "store through a freed getline buffer": (
            "char *line; size_t n = 0; line = NULL; "
            "getline(&line, &n, stdin); free(line);",
            "line[0] = 1;", "use-after-free on buffer 'getline'",
            {"stores": 1}),
        "undeclared identifier, reachable": (
            "", "if (x == 2) { q = 1; }", "undeclared identifier 'q'",
            {"ops": 1, "branches": 1, "stores": 1}),
        "wrong arity to a user function": (
            "", "x = two(1);", r"two\(\) expects 2 args, got 1",
            {"calls": 1, "stores": 1}),
        "3-D array declaration": (
            "", "int cube[2][2][2];",
            r"more than two dimensions unsupported \(cube\)", {}),
        "array initialiser": (
            "", "int arr[2] = 5;",
            r"array initializers unsupported \(arr\)", {}),
    }

    @pytest.mark.parametrize("body, match", [
        ("int x; x = 1 / 0;", "division by zero"),
        ('printf("%d %d\\n", 1);', "too few arguments"),
        ("int a[4]; int x; x = a[9];", "out-of-bounds"),
    ])
    def test_same_error(self, body, match):
        program = parse("int main() {\n" + body + "\nreturn 0;\n}")
        errors = []
        for engine in ("tree", "compiled"):
            with pytest.raises(CRuntimeError, match=match) as exc_info:
                _filter(program, "", engine)
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("case", CASES)
    def test_same_error_and_counters_up_to_the_aborted_block(self, case):
        setup, abort, match, block_cost = self.CASES[case]
        stdin = "a line\n"
        before = _PREFIX + setup + "\nif (x == 2) { x = 2; }\n"
        completed = {}
        for engine in ("tree", "compiled"):
            interp = Interpreter(_program(before), stdin=stdin)
            with use_engine(engine):
                interp.run()
            completed[engine] = _fields(interp.counters)
        assert completed["tree"] == completed["compiled"]
        done = completed["tree"]

        program = _program(before + abort)
        msg_t, cnt_t = _run_to_error(program, "tree", stdin=stdin)
        msg_c, cnt_c = _run_to_error(program, "compiled", stdin=stdin)
        assert re.search(match, msg_t)
        assert msg_c == msg_t
        for name, base in done.items():
            tree, comp = _fields(cnt_t)[name], _fields(cnt_c)[name]
            assert base <= tree <= comp <= base + block_cost.get(name, 0), \
                (name, base, tree, comp)

    @pytest.mark.parametrize("body", [
        "int i; i = 0; while (1) { i++; }",          # inside a loop
        "int i; for (i = 0; ; i++) { ; }",
        "down(0);",                                  # on a recursive call
    ])
    def test_step_budget_exhaustion(self, body):
        # The backends tick at different grains (the tree-walker per
        # statement, generated code per iteration and call), so only the
        # message — which names the budget — is comparable.
        program = _program(body)
        msg_t, _ = _run_to_error(program, "tree", max_steps=60)
        msg_c, _ = _run_to_error(program, "compiled", max_steps=60)
        assert msg_c == msg_t == \
            "execution exceeded 60 steps (runaway loop?)"

    @pytest.mark.parametrize("body, expected", [
        # An undeclared name raises lazily: never, if never reached.
        ("int c; c = 0; if (c) { q = 1; } printf(\"ok\\n\");", "ok\n"),
        ("int c; c = 0; while (c) { c = q; } printf(\"ok\\n\");", "ok\n"),
        # A void call as initializer keeps the declaration default.
        ("int x = nothing(); double d = nothing(); "
         "printf(\"%d %.1f\\n\", x, d);", "0 0.0\n"),
    ])
    def test_non_errors_stay_non_errors(self, body, expected):
        (out_t, cnt_t), (out_c, cnt_c) = _both_backends(_program(body), "")
        assert out_t == out_c == expected
        assert cnt_c == cnt_t


class TestDeclarationBodies:
    """A declaration that is the direct body of if/else/while/for is
    block-scoped: it shadows nothing after the statement. Before the
    parser scoped it, ``compiled`` resolved the later ``z`` to the
    never-run declaration (``undeclared identifier 'z'``) and ``tree``
    leaked the shadow into the enclosing block."""

    @pytest.mark.parametrize("body, stdin, expected", [
        ("int c; int z = 1; scanf(\"%d\", &c); if (c) int z = 4; "
         "z = z + 1; printf(\"%d\\n\", z);", "0", "2\n"),
        ("int c; int z = 1; scanf(\"%d\", &c); if (c) int z = 4; "
         "z = z + 1; printf(\"%d\\n\", z);", "1", "2\n"),
        ("int c; int z = 1; scanf(\"%d\", &c); if (c) z = 7; else int z = 4; "
         "printf(\"%d\\n\", z);", "0", "1\n"),
        # inside a loop the tree-walker's leak outlived the iteration
        ("int i; int z = 1; int s = 0; for (i = 0; i < 2; i++) { int z = 10; "
         "if (i) int z = 4; z = z + 1; s = s + z; } "
         "printf(\"%d\\n\", s + z - 2);", "", "21\n"),
        ("int n = 2; int z = 1; while (n--) int z = z + 5; "
         "for (n = 0; n < 2; n++) int z = 9; printf(\"%d\\n\", z);",
         "", "1\n"),
    ])
    def test_declaration_body_is_block_scoped(self, body, stdin, expected):
        (out_t, cnt_t), (out_c, cnt_c) = _both_backends(_program(body), stdin)
        assert out_t == out_c == expected
        assert cnt_c == cnt_t

    def test_parsed_as_the_block_it_denotes(self):
        from repro.minic.astcmp import ast_equal

        assert ast_equal(_program("int c = 1; if (c) int z = 4;"),
                         _program("int c = 1; if (c) { int z = 4; }"))


class TestEmitterHygiene:
    """Nothing from program text reaches the generated Python source:
    identifiers are slot-indexed and literals travel through the unit's
    exec globals, so no spelling can collide with, or inject into, the
    emitted code."""

    # Identifiers that are Python keywords or the emitter's own names,
    # used as variables, parameters and a function name.
    COLLIDING = r"""
int lambda(int def, int None)
{
    int class;
    class = def * 2 + None;
    return class;
}

int main()
{
    int rt; int frame; int c; int v0; int steps; int t1; int k0; int x0;
    int args; int charge; int facade; int builtins; int max_steps;
    rt = 1; frame = 2; c = 3; v0 = 4; steps = 0; t1 = 5; k0 = 6; x0 = 7;
    args = 8; charge = 9; facade = 10; builtins = 11; max_steps = 3;
    while (steps < max_steps) {
        steps++;
        c += lambda(rt, frame) + v0;
    }
    scanf("%d", &x0);
    printf("%d %d %d %d %d %d %d\n", rt, frame, c, v0, steps, t1 + k0, x0);
    printf("%d\n", args + charge + facade + builtins);
    return 0;
}
"""

    # Literals with quotes, backslashes, newlines and a triple quote;
    # distinctive spellings to look for in the generated text.
    DISTINCTIVE = r"""
int zq_hygiene_func(int zq_hygiene_param)
{
    return zq_hygiene_param + 'Z';
}

int main()
{
    int zq_hygiene_ident;
    char zq_hygiene_buf[64];
    zq_hygiene_ident = zq_hygiene_func(31337);
    strcpy(zq_hygiene_buf, "ZQ_LIT \"\"\" it's \\ back\nslash");
    printf("ZQ_FMT \"%s\" '%d' \\n \"\"\"\n", zq_hygiene_buf,
           zq_hygiene_ident);
    printf("%d\n", strcmp(zq_hygiene_buf, "\"\"\"); import os #"));
    return 0;
}
"""

    @pytest.mark.parametrize("source", [COLLIDING, DISTINCTIVE],
                             ids=["colliding-names", "hostile-literals"])
    def test_backends_agree(self, source):
        program = parse(source)
        (out_t, cnt_t), (out_c, cnt_c) = _both_backends(program, "42\n")
        assert out_c == out_t
        assert cnt_c == cnt_t
        assert out_t  # the programs print

    def test_generated_source_carries_no_program_text(self):
        program = parse(self.DISTINCTIVE)
        generated = compiled_program(program).python_source()
        assert "def unit(rt, args):" in generated
        for spelling in ("zq_hygiene", "ZQ_LIT", "ZQ_FMT", "31337",
                         "slash", "import os", '"""', "\\"):
            assert spelling not in generated, spelling

    def test_units_are_registered_for_tracebacks(self):
        import linecache
        import traceback

        program = parse("int main() {\nint x; x = 1 / 0;\nreturn 0;\n}")
        with pytest.raises(CRuntimeError) as exc_info:
            _filter(program, "", "compiled")
        frames = traceback.extract_tb(exc_info.value.__traceback__)
        unit = [f for f in frames if f.filename.startswith("<minic:")]
        assert unit and unit[-1].filename.endswith(":main>")
        assert "_c_div" in unit[-1].line  # the emitted line, not blank
        assert linecache.getline(unit[-1].filename, 1) == \
            "def unit(rt, args):\n"


class TestGpuPathUnaffected:
    """Both paths of one job agree under generated code. (That a GPU
    job does not depend on the engine setting is
    ``tests/test_gpu_compile_backend.py::TestAllAppsEngineParity``.)"""

    def test_cpu_gpu_agree_compiled(self):
        app = get_app("WC")
        text = app.generate(120, seed=5)
        with use_engine("compiled"):
            cpu = LocalJobRunner(app, use_gpu=False).run(text)
            gpu = LocalJobRunner(app, use_gpu=True).run(text)
        assert gpu.output == cpu.output


class TestKeyCoercion:
    """Streaming keys keep their text identity (satellite fix).

    ``"007"`` and ``"1.0"`` are different words than ``"7"`` and
    ``"1"`` — only canonical decimal renderings may come back as ints,
    matching the GPU path which never coerces ``%s`` keys."""

    def test_canonical_int_keys_stay_int(self):
        assert parse_kv_line("7\t1") == (7, 1)
        assert parse_kv_line("-3\t1") == (-3, 1)
        assert parse_kv_line("0\t1") == (0, 1)

    def test_noncanonical_numeric_keys_stay_text(self):
        assert parse_kv_line("007\t1") == ("007", 1)
        assert parse_kv_line("1.0\t1") == ("1.0", 1)
        assert parse_kv_line("+5\t1") == ("+5", 1)
        assert parse_kv_line(" 5\t1") == (" 5", 1)

    def test_word_keys_stay_text(self):
        assert parse_kv_line("word\t2") == ("word", 2)

    def test_values_still_fully_coerced(self):
        assert parse_kv_line("k\t2.5") == ("k", 2.5)
        assert parse_kv_line("k\t007") == ("k", 7)


class TestCompileCache:
    """One Program compiles once; repeat runs reuse the closure tree."""

    def test_compiled_program_is_memoized(self):
        program = get_app("WC").map_program()
        assert compiled_program(program) is compiled_program(program)

    def test_translation_is_memoized(self):
        from repro.compiler import translate_cached

        program = get_app("WC").map_program()
        assert translate_cached(program) is translate_cached(program)

    # The cache is keyed by the source text itself: exact, with no digest.
    CACHE_SOURCE = 'int main() {\nprintf("%d\\n", 41 + 1);\nreturn 0;\n}'

    def test_programs_parsed_from_one_source_share_one_compiled_program(self):
        first, second = parse(self.CACHE_SOURCE), parse(self.CACHE_SOURCE)
        assert first is not second
        assert compiled_program(first) is compiled_program(second)

    def test_sources_one_character_apart_never_share(self):
        import linecache

        other = self.CACHE_SOURCE.replace("41", "40")
        assert len(other) == len(self.CACHE_SOURCE)
        cps = [compiled_program(parse(src))
               for src in (self.CACHE_SOURCE, other)]
        assert cps[0] is not cps[1]
        filenames = [cp.functions["main"].__code__.co_filename for cp in cps]
        assert filenames[0] != filenames[1]
        for filename in filenames:
            assert filename.startswith("<minic:") and filename.endswith(":main>")
            assert linecache.getline(filename, 1) == "def unit(rt, args):\n"
        assert [_filter(cp.program, "", "compiled")[0] for cp in cps] == \
            ["42\n", "41\n"]
