"""Printer tests: output re-parses to the same program (round-trip)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.gen import KINDS, generate_source
from repro.minic import parse, pprint_program
from repro.minic.astcmp import ast_diff
from repro.minic.interpreter import run_filter


ROUND_TRIP_SOURCES = [
    "int main() { int a; a = 1 + 2 * 3; return a; }",
    "int main() { char s[8]; strcpy(s, \"hi\"); return strlen(s); }",
    "int main() { int i, s; s = 0; for (i = 0; i < 4; i++) s += i; return s; }",
    "int main() { int x; x = 5 > 3 ? 1 : 0; if (x) x = -x; else x = 2; return x; }",
    "int main() { double d; d = (double) 3; return (int) d; }",
    "int sq(int x) { return x * x; }\nint main() { return sq(4); }",
    "int main() { int a[3]; a[0] = 1; a[1] = a[0] << 2; return a[1] % 3; }",
    "int main() { int i; i = 0; while (1) { i++; if (i > 3) break; } return i; }",
    # '-' of a negated operand must not print as the '--' token.
    "int main() { int x; x = 2; x = - -~x; return - -x; }",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip_preserves_behaviour(source):
    """Printing then re-parsing must not change program semantics."""
    original = parse(source)
    printed = pprint_program(original)
    reparsed = parse(printed)
    out1, _ = run_filter(original, "")
    out2, _ = run_filter(reparsed, "")
    assert out1 == out2


def test_round_trip_is_stable():
    """print(parse(print(p))) == print(p) — idempotent after one pass."""
    prog = parse(ROUND_TRIP_SOURCES[2])
    once = pprint_program(prog)
    twice = pprint_program(parse(once))
    assert once == twice


def test_pragma_preserved_in_output(wc_map_source):
    printed = pprint_program(parse(wc_map_source))
    assert "#pragma mapreduce mapper" in printed


class TestRoundTripProperty:
    """parse(pprint(parse(s))) is the same AST for fuzzer-made programs.

    Reuses the conformance fuzzer's grammar-directed generator, so the
    property covers the full construct mix the fuzzer exercises
    (directive-annotated mappers and combiners included), not just the
    hand-picked sources above. Equality ignores only line numbers and
    the retained source text (repro.minic.astcmp)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           kind=st.sampled_from(KINDS))
    def test_parse_pretty_parse_is_identity(self, seed, kind):
        source = generate_source(seed, kind)
        original = parse(source)
        printed = pprint_program(original)
        reparsed = parse(printed)
        assert ast_diff(original, reparsed) is None

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           kind=st.sampled_from(KINDS))
    def test_pretty_is_idempotent(self, seed, kind):
        once = pprint_program(parse(generate_source(seed, kind)))
        assert pprint_program(parse(once)) == once

    def test_astcmp_catches_structural_change(self):
        a = parse("int main() { return 1 + 2; }")
        b = parse("int main() { return 1 + 3; }")
        diff = ast_diff(a, b)
        assert diff is not None and "value" in diff

    def test_astcmp_ignores_line_numbers(self):
        a = parse("int main() { return 1; }")
        b = parse("\n\nint main() {\nreturn 1;\n}")
        assert ast_diff(a, b) is None


def test_string_escapes_in_output():
    prog = parse(r'int main() { printf("%s\t%d\n", "x", 1); return 0; }')
    printed = pprint_program(prog)
    assert r"\t" in printed and r"\n" in printed
    out, _ = run_filter(parse(printed), "")
    assert out == "x\t1\n"


def test_prefix_operand_of_a_postfix_operator_keeps_its_parentheses():
    """``(*p)++`` and ``(*rows)[1]`` are not ``*p++`` / ``*rows[1]``
    (found by the fuzz generator's address-taken shapes)."""
    source = ("int main() { int x; int *p = &x; x = 4; (*p)++; ++(*p); "
              'printf("%d %d\\n", x, (*p)--); return x; }')
    original = parse(source)
    printed = pprint_program(original)
    assert "(*p)++" in printed and "(*p)--" in printed
    assert ast_diff(original, parse(printed)) is None
    assert run_filter(parse(printed), "")[0] == "6 6\n"
