"""Tokenizer tests."""

import pytest

from repro.errors import LexError
from repro.minic.lexer import Token, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind != "eof"]


def values(source):
    return [t.value for t in tokenize(source) if t.kind != "eof"]


class TestBasics:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_identifier_and_keyword(self):
        toks = tokenize("int foo")
        assert toks[0].kind == "keyword" and toks[0].value == "int"
        assert toks[1].kind == "ident" and toks[1].value == "foo"

    def test_all_type_keywords_recognized(self):
        for kw in ["int", "char", "float", "double", "long", "void", "size_t"]:
            assert tokenize(kw)[0].kind == "keyword"

    def test_underscore_identifiers(self):
        assert tokenize("_foo_bar2")[0].value == "_foo_bar2"

    def test_line_numbers_advance(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:3]] == [1, 2, 3]


class TestNumbers:
    def test_plain_int(self):
        tok = tokenize("42")[0]
        assert tok.kind == "int" and tok.value == "42"

    def test_hex_int(self):
        tok = tokenize("0xFF")[0]
        assert tok.kind == "int"

    def test_float_with_dot(self):
        assert tokenize("3.25")[0].kind == "float"

    def test_float_scientific(self):
        assert tokenize("1.0e30")[0].kind == "float"

    def test_float_f_suffix(self):
        assert tokenize("2.5f")[0].kind == "float"

    def test_int_long_suffix(self):
        assert tokenize("10L")[0].kind == "int"

    @pytest.mark.parametrize("source", ["1٣", "٣", "2.٥",
                                        "1e٣", "1²"])
    def test_non_ascii_digits_are_not_part_of_a_number(self, source):
        # "1٣" must not read as 13: C digits are 0-9 only.
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(f"int x = {source};")


class TestStringsAndChars:
    def test_string_literal(self):
        tok = tokenize('"hello world"')[0]
        assert tok.kind == "string" and tok.value == "hello world"

    def test_string_escapes(self):
        assert tokenize(r'"%s\t%d\n"')[0].value == "%s\t%d\n"

    def test_char_literal(self):
        tok = tokenize("'a'")[0]
        assert tok.kind == "char" and tok.value == "a"

    def test_escaped_char_literal(self):
        assert tokenize(r"'\0'")[0].value == "\0"
        assert tokenize(r"'\n'")[0].value == "\n"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')


class TestOperators:
    def test_multichar_operators_win(self):
        assert values("a != b") == ["a", "!=", "b"]
        assert values("x += 1") == ["x", "+=", "1"]
        assert values("a && b || c") == ["a", "&&", "b", "||", "c"]

    def test_increment_vs_plus(self):
        assert values("i++ + ++j") == ["i", "++", "+", "++", "j"]

    def test_arrow_and_shift(self):
        assert "->" in values("p->x") and "<<" in values("a << 2")


class TestCommentsAndPreprocessor:
    def test_line_comment_stripped(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment_stripped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_pragma_becomes_token(self):
        toks = tokenize("#pragma mapreduce mapper key(k) value(v)\nint x;")
        assert toks[0].kind == "pragma"
        assert "mapreduce" in toks[0].value

    def test_pragma_line_continuation_folded(self):
        src = "#pragma mapreduce mapper key(k) \\\n    value(v)\n"
        tok = tokenize(src)[0]
        assert tok.kind == "pragma"
        assert "key(k)" in tok.value and "value(v)" in tok.value

    def test_include_skipped(self):
        assert values("#include <stdio.h>\nint x;") == ["int", "x", ";"]

    def test_unknown_preprocessor_raises(self):
        with pytest.raises(LexError):
            tokenize("#error nope")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("int @x;")
