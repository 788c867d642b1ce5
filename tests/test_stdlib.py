"""Modelled C library tests."""

import pytest

from repro.errors import CRuntimeError
from repro.minic import parse
from repro.minic.interpreter import run_filter
from repro.minic.stdlib import InputStream, c_format


def run_main(body: str, stdin: str = "") -> str:
    out, _ = run_filter(parse("int main() {\n" + body + "\nreturn 0;\n}"), stdin)
    return out


class TestPrintf:
    def test_basic_conversions(self):
        assert c_format("%d|%s|%c", [5, "hi", 65]) == "5|hi|A"

    def test_float_precision(self):
        assert c_format("%.3f", [3.14159]) == "3.142"

    def test_width_padding(self):
        assert c_format("%5d", [42]) == "   42"

    def test_percent_literal(self):
        assert c_format("100%%", []) == "100%"

    def test_too_few_args_raises(self):
        with pytest.raises(CRuntimeError, match="too few"):
            c_format("%d %d", [1])

    def test_long_modifier(self):
        assert c_format("%ld", [2**40]) == str(2**40)

    def test_scientific(self):
        assert c_format("%e", [1500.0]).startswith("1.5")


class TestInputStream:
    def test_interleaved_line_and_token_reads(self):
        s = InputStream("header line\n42 3.5\n")
        assert s.read_line() == "header line\n"
        assert s.read_int() == 42
        assert s.read_float() == 3.5
        assert s.read_line() == "\n"
        assert s.read_line() is None

    def test_read_token_skips_newlines(self):
        s = InputStream("\n\n  tok1\ttok2")
        assert s.read_token() == "tok1"
        assert s.read_token() == "tok2"
        assert s.read_token() is None

    def test_negative_numbers(self):
        s = InputStream("-5 -2.5e1")
        assert s.read_int() == -5
        assert s.read_float() == -25.0


class TestStringFunctions:
    def test_strcmp_ordering(self):
        assert run_main('printf("%d %d %d", strcmp("a","a"), '
                        'strcmp("a","b") < 0, strcmp("b","a") > 0);') == "0 1 1"

    def test_strcpy_and_strlen(self):
        assert run_main('char b[16]; strcpy(b, "hello"); '
                        'printf("%d %s", strlen(b), b);') == "5 hello"

    def test_strcpy_overflow_raises(self):
        with pytest.raises(CRuntimeError, match="overflows"):
            run_main('char b[3]; strcpy(b, "too long");')

    def test_strncmp(self):
        assert run_main('printf("%d", strncmp("abcX","abcY",3));') == "0"

    def test_strcat(self):
        assert run_main('char b[16]; strcpy(b, "ab"); strcat(b, "cd"); '
                        'printf("%s", b);') == "abcd"

    def test_strstr_found_and_not(self):
        assert run_main('char h[32]; strcpy(h, "mapreduce rocks"); '
                        'printf("%d", strstr(h, "duce") != NULL);') == "1"
        assert run_main('char h[32]; strcpy(h, "mapreduce"); '
                        'printf("%d", strstr(h, "gpu") == NULL);') == "1"

    def test_strstr_returns_pointer_into_haystack(self):
        assert run_main('char h[16]; char *p; strcpy(h, "xxabc"); '
                        'p = strstr(h, "abc"); printf("%c", *p);') == "a"


class TestConversions:
    def test_atoi(self):
        assert run_main('printf("%d", atoi("  -42xyz"));') == "-42"

    def test_atoi_garbage_is_zero(self):
        assert run_main('printf("%d", atoi("xyz"));') == "0"

    def test_atof(self):
        assert run_main('printf("%.2f", atof("2.5e1"));') == "25.00"


class TestMath:
    def test_sqrt_exp_log(self):
        assert run_main('printf("%.1f %.1f %.1f", sqrt(16.0), exp(0.0), '
                        'log(1.0));') == "4.0 1.0 0.0"

    def test_pow_fabs(self):
        assert run_main('printf("%.0f %.1f", pow(2.0, 10.0), fabs(-2.5));') == \
            "1024 2.5"

    def test_erf_bounds(self):
        out = run_main('printf("%.4f %.4f", erf(0.0), erf(10.0));')
        assert out == "0.0000 1.0000"

    def test_trig(self):
        assert run_main('printf("%.1f %.1f", sin(0.0), cos(0.0));') == "0.0 1.0"

    def test_fmin_fmax(self):
        assert run_main('printf("%.0f %.0f", fmin(2.0,3.0), fmax(2.0,3.0));') == "2 3"


class TestGetWord:
    def test_tokenizes_line(self):
        out = run_main(
            "char line[32]; char w[8]; int off, lp; "
            'strcpy(line, "a bb  ccc"); off = 0; '
            'while ((lp = getWord(line, off, w, 32, 8)) != -1) '
            '{ printf("[%s]", w); off += lp; }'
        )
        assert out == "[a][bb][ccc]"

    def test_truncates_to_max_length(self):
        out = run_main(
            "char line[32]; char w[4]; int lp; "
            'strcpy(line, "abcdefgh"); '
            'lp = getWord(line, 0, w, 32, 4); printf("%s", w);'
        )
        assert out == "abc"

    def test_empty_line_returns_minus_one(self):
        out = run_main(
            "char line[8]; char w[8]; line[0] = '\\0'; "
            'printf("%d", getWord(line, 0, w, 8, 8));'
        )
        assert out == "-1"


class TestCtype:
    """ctype.h arguments outside 0..0x10FFFF name no character: ``is*``
    answer 0 and ``to*`` hand the argument back (``isspace(EOF)`` is
    ordinary C) instead of leaking Python's ``chr()`` ValueError."""

    OUT_OF_RANGE = ("EOF", "-1", "-300", "1114112")  # 0x10FFFF + 1

    @pytest.mark.parametrize("backend", ["tree", "compiled"])
    @pytest.mark.parametrize("arg", OUT_OF_RANGE)
    def test_out_of_range_is_and_to(self, backend, arg):
        program = parse(
            "int main() {\n"
            f'printf("%d %d %d ", isspace({arg}), isdigit({arg}), '
            f"isalpha({arg}));\n"
            f'printf("%d %d", tolower({arg}) == {arg}, '
            f"toupper({arg}) == {arg});\n"
            "return 0;\n}"
        )
        out, _ = run_filter(program, "", backend=backend)
        assert out == "0 0 0 1 1"

    @pytest.mark.parametrize("backend", ["tree", "compiled"])
    def test_in_range_unchanged(self, backend):
        program = parse(
            "int main() {\n"
            "printf(\"%d%d%d%d \", isspace(' '), isspace('x'), "
            "isdigit('7'), isalpha('q'));\n"
            "printf(\"%c%c %d\", tolower('A'), toupper('z'), isalpha(0));\n"
            "return 0;\n}"
        )
        out, _ = run_filter(program, "", backend=backend)
        assert out == "1011 aZ 0"

    def test_eof_loop_terminates_cleanly(self):
        # The idiom the bug broke: classify whatever scanf("%c") left.
        out = run_main(
            "int ch; int n; ch = EOF; n = 0; "
            "if (!isspace(ch) && !isalpha(ch)) n = 1; "
            'printf("%d", n);'
        )
        assert out == "1"

    def test_gpu_builtin_tables_reuse_the_fixed_functions(self):
        from repro.gpu.engine import LaneState, common_lane_builtins
        from repro.minic.stdlib import host_builtins

        host = host_builtins()
        gpu = common_lane_builtins(None, LaneState(), 1)
        for name in ("isspace", "isdigit", "isalpha", "tolower", "toupper"):
            assert gpu[name] is host[name]
        assert gpu["isspace"](None, [-1]) == 0
        assert gpu["toupper"](None, [-1]) == -1
        assert gpu["tolower"](None, [0x110000]) == 0x110000
