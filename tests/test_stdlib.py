"""Modelled C library tests."""

import pytest

from repro.errors import CRuntimeError
from repro.minic import parse
from repro.minic.interpreter import run_filter, use_engine
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

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_strncmp_negative_n_is_no_limit(self, engine):
        # C converts n to size_t: -1 compares the whole strings.
        program = parse(
            "int main() {\n"
            'printf("%d %d", strncmp("abcd", "abce", -1) < 0, '
            'strncmp("abcd", "abcd", -7));\n'
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, "")
        assert out == "1 0"

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

    #: Unicode digits (U+0663 is ARABIC-INDIC DIGIT THREE) are no
    #: digits, and U+00A0 (no-break space) and U+2003 (em space) are no
    #: C-locale spaces, so none of these starts a number ("1" + U+0663
    #: stops after the 1).
    NOT_NUMBERS = ("\u0663", "\u0663.5", "\u00a07", "\u20037", "1\u0663")

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("text", NOT_NUMBERS)
    def test_atoi_atof_read_ascii_digits_only(self, engine, text):
        program = parse(
            "int main() {\n"
            f'printf("%d %.1f", atoi("{text}"), atof("{text}"));\n'
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, "")
        assert out == ("1 1.0" if text == "1\u0663" else "0 0.0")

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_atoi_skips_the_c_locale_spaces(self, engine):
        program = parse(
            "int main() {\n"
            'printf("%d %.1f", atoi(" \\t\\v\\f\\r\\n7"), '
            'atof("\\v\\f2.5"));\n'
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, "")
        assert out == "7 2.5"

    def test_device_table_reads_ascii_digits_only(self):
        from repro.gpu.engine import common_lane_builtins

        gpu = common_lane_builtins(None, 1)
        for text in self.NOT_NUMBERS:
            want = 1 if text == "1\u0663" else 0
            assert gpu["atoi"](None, text) == want
            assert gpu["atof"](None, text) == float(want)
        assert gpu["atoi"](None, "\v\f 42") == 42

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("call, stdin, want", [
        # c_scan's stepwise conversions: C returns 0, not 1 with x == 34.
        ('scanf("%d", &a)', "\u0663\u0664", "0 -1 -1 -1"),
        ('scanf("%f", &f)', "\u0663.5", "0 -1 -1 -1"),
        ('scanf("%d %d", &a, &b)', "5 \u0663\n", "1 5 -1 -1"),
        # The compiled backend's one-shot KV patterns, then c_scan.
        ('scanf("%s %d", w, &a)', "word \u0663\u0664\n", "1 -1 -1 -1"),
        ('scanf("%d %f", &a, &f)', "1 \u0663.5\n", "1 1 -1 -1"),
        ('scanf("%d %d", &a, &b)', "\u0663 4\n", "0 -1 -1 -1"),
    ])
    def test_scanf_reads_ascii_digits_only(self, engine, call, stdin, want):
        program = parse(
            "int main() {\n"
            "char w[16]; int a; int b; int n; double f;\n"
            "a = -1; b = -1; f = -1.0;\n"
            f"n = {call};\n"
            'printf("%d %d %d %d", n, a, b, (int) f);\n'
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, stdin)
        assert out == want


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

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("arg", OUT_OF_RANGE)
    def test_out_of_range_is_and_to(self, engine, arg):
        program = parse(
            "int main() {\n"
            f'printf("%d %d %d ", isspace({arg}), isdigit({arg}), '
            f"isalpha({arg}));\n"
            f'printf("%d %d", tolower({arg}) == {arg}, '
            f"toupper({arg}) == {arg});\n"
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, "")
        assert out == "0 0 0 1 1"

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_in_range_unchanged(self, engine):
        program = parse(
            "int main() {\n"
            "printf(\"%d%d%d%d \", isspace(' '), isspace('x'), "
            "isdigit('7'), isalpha('q'));\n"
            "printf(\"%c%c %d\", tolower('A'), toupper('z'), isalpha(0));\n"
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, "")
        assert out == "1011 aZ 0"

    #: ``²``, ``ß``, ``é`` and ``İ``: not ASCII, so no digit or letter in
    #: the C locale (``İ``'s and ``ß``'s Python case maps are 2 chars).
    NON_ASCII = (178, 223, 233, 0x130)

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("code", NON_ASCII)
    def test_non_ascii_is_no_digit_or_letter(self, engine, code):
        program = parse(
            "int main() {\n"
            f'printf("%d %d %d ", isspace({code}), isdigit({code}), '
            f"isalpha({code}));\n"
            f'printf("%d %d", tolower({code}), toupper({code}));\n'
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, "")
        assert out == f"0 0 0 {code} {code}"

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_ascii_classes_match_the_c_locale(self, engine):
        program = parse(
            "int main() {\nint i;\n"
            "for (i = 0; i < 128; i++)\n"
            '    printf("%d%d%d %d %d\\n", isspace(i), isdigit(i), '
            "isalpha(i), tolower(i), toupper(i));\n"
            "return 0;\n}"
        )
        with use_engine(engine):
            out, _ = run_filter(program, "")
        space = " \t\n\v\f\r"
        expected = "".join(
            f"{int(chr(i) in space)}{int(chr(i).isdigit())}"
            f"{int(chr(i).isalpha())} {ord(chr(i).lower())} "
            f"{ord(chr(i).upper())}\n" for i in range(128))
        assert out == expected

    def test_eof_loop_terminates_cleanly(self):
        # The idiom the bug broke: classify whatever scanf("%c") left.
        out = run_main(
            "int ch; int n; ch = EOF; n = 0; "
            "if (!isspace(ch) && !isalpha(ch)) n = 1; "
            'printf("%d", n);'
        )
        assert out == "1"

    def test_gpu_builtin_tables_reuse_the_fixed_functions(self):
        from repro.gpu.engine import common_lane_builtins
        from repro.minic.stdlib import HOST_BUILTINS

        gpu = common_lane_builtins(None, 1)
        for name in ("isspace", "isdigit", "isalpha", "tolower", "toupper"):
            assert gpu[name] is HOST_BUILTINS[name]
        assert gpu["isspace"](None, -1) == 0
        assert gpu["toupper"](None, -1) == -1
        assert gpu["tolower"](None, 0x110000) == 0x110000
        for code in self.NON_ASCII:
            assert (gpu["isdigit"](None, code), gpu["isalpha"](None, code),
                    gpu["tolower"](None, code),
                    gpu["toupper"](None, code)) == (0, 0, code, code)


def _arity_cases():
    """(name, argument count, the one message) for every declared
    builtin × {one too few, one too many}."""
    from repro.minic.stdlib import SIGNATURES, _VARIADIC

    for name, (fewest, most, _cells) in sorted(SIGNATURES.items()):
        if most == _VARIADIC:
            want = f"at least {fewest}"
        elif fewest == most:
            want = str(fewest)
        else:
            want = f"{fewest} to {most}"
        plural = "" if want == "1" else "s"
        for count in (fewest - 1, most + 1):
            if 0 <= count < _VARIADIC:
                yield name, count, \
                    f"{name} expects {want} argument{plural}, got {count}"


HOST_ARITY = [case for case in _arity_cases()
              if case[0] not in ("getRecord", "emitKV", "getKV", "storeKV")]
IO_ARITY = [case for case in _arity_cases() if case not in HOST_ARITY]


class TestBuiltinArity:
    """A wrong-arity call of a declared builtin is a C error with one
    message shape on every execution path, never a leaked Python
    ``ValueError``/``IndexError`` from an argument-list unpack."""

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("name,count,message", HOST_ARITY)
    def test_host_builtin(self, engine, name, count, message):
        call = f"{name}({', '.join(['0'] * count)});"
        program = parse("int main() {\n" + call + "\nreturn 0;\n}")
        with pytest.raises(CRuntimeError) as caught, use_engine(engine):
            run_filter(program, "")
        assert str(caught.value) == message

    def test_every_host_builtin_is_covered(self):
        from repro.minic.stdlib import HOST_BUILTINS

        assert {name for name, _n, _m in HOST_ARITY} == set(HOST_BUILTINS)

    MAPPER = """\
int main()
{
    char word[16];
    char *line;
    size_t nbytes = 100;
    int read, one;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(word) value(one) keylength(16) kvpairs(4)
    while ((read = getline(&line, &nbytes, stdin)) != -1) {
        one = 1;
        %s
        printf("%%s\\t%%d\\n", word, one);
    }
    free(line);
    return 0;
}
"""
    COMBINER = """\
int main()
{
    char key[16], prevKey[16];
    int val, count, read;
    count = 0;
    #pragma mapreduce combiner key(prevKey) value(count) keyin(key) \\
        valuein(val) keylength(16) firstprivate(prevKey, count)
    {
        %s
        while ((read = scanf("%%s %%d", key, &val)) == 2) {
            count += val;
        }
        printf("%%s\\t%%d\\n", prevKey, count);
    }
    return 0;
}
"""

    @staticmethod
    def _launch(name, call):
        """One lane of a kernel whose body makes ``call``."""
        from repro.compiler.translator import translate
        from repro.config import CLUSTER1
        from repro.gpu.device import GpuDevice
        from repro.gpu.executor import run_combine_kernel, run_map_kernel
        from repro.kvstore import GlobalKVStore, KVPair, Partitioner
        from repro.minic.interpreter import Interpreter

        mapper = name in ("getRecord", "emitKV")
        source = (TestBuiltinArity.MAPPER if mapper
                  else TestBuiltinArity.COMBINER) % call
        tr = translate(parse(source))
        kernel = tr.map_kernel if mapper else tr.combine_kernel
        snapshot = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)
        device = GpuDevice(CLUSTER1.gpu)
        if not mapper:
            return run_combine_kernel(device, kernel, [KVPair("k", 1, 0)],
                                      snapshot)
        threads = kernel.launch.total_threads
        store = GlobalKVStore(threads, threads * 4, kernel.key_length,
                              kernel.value_length)
        return run_map_kernel(device, kernel, [b"a b\n"], snapshot, store,
                              Partitioner(2))

    @pytest.mark.parametrize("engine", ["tree", "compiled", "vector"])
    @pytest.mark.parametrize("name,count,message", IO_ARITY)
    def test_gpu_io_call(self, engine, name, count, message):
        operand = "one" if name in ("getRecord", "emitKV") else "val"
        call = f"{name}({', '.join([operand] * count)});"
        with use_engine(engine), pytest.raises(CRuntimeError) as caught:
            self._launch(name, call)
        assert str(caught.value) == message

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("max_len", [0, -3])
    def test_getword_rejects_a_max_len_below_one(self, engine, max_len):
        # token[:maxLen-1] with a negative bound used to drop the word's
        # last byte and then report an overflow that was not one.
        program = parse(
            "int main() {\nchar w[8]; char *line; size_t n; int r;\n"
            "n = 0; r = getline(&line, &n, stdin);\n"
            f'printf("%d", getWord(line, 0, w, r, {max_len}));\n'
            "return 0;\n}"
        )
        with pytest.raises(CRuntimeError,
                           match="getWord: maxLen must be at least 1"):
            with use_engine(engine):
                run_filter(program, "hello world\n")
