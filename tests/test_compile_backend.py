"""Differential tests: closure-compiled backend vs the tree-walker.

The compiled backend is only correct if it is *indistinguishable* from
the tree-walker at every observable boundary: streaming-filter stdout,
ExecCounters totals, error messages, and the simulated GPU cost model
(which interprets kernel regions). Every benchmark app runs through
both backends here and must agree bit for bit.
"""

from __future__ import annotations

import pytest

from repro.apps import all_apps, get_app
from repro.errors import ConfigError, CRuntimeError
from repro.hadoop.local import LocalJobRunner, parse_kv_line
from repro.minic import parse
from repro.minic.cache import compiled_program
from repro.minic.interpreter import run_filter, use_backend

APP_TAGS = [app.short for app in all_apps()]
COMBINER_TAGS = [app.short for app in all_apps() if app.has_combiner]
NO_COMBINER_TAGS = [app.short for app in all_apps() if not app.has_combiner]


def _both_backends(program, text):
    out_tree, cnt_tree = run_filter(program, text, backend="tree")
    out_comp, cnt_comp = run_filter(program, text, backend="compiled")
    return (out_tree, cnt_tree), (out_comp, cnt_comp)


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
        map_out, _ = run_filter(app.map_program(), text, backend="tree")
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


class TestErrorParity:
    """Runtime errors carry the same message through both backends."""

    @pytest.mark.parametrize("body, match", [
        ("int x; x = 1 / 0;", "division by zero"),
        ('printf("%d %d\\n", 1);', "too few arguments"),
        ("int a[4]; int x; x = a[9];", "out-of-bounds"),
    ])
    def test_same_error(self, body, match):
        program = parse("int main() {\n" + body + "\nreturn 0;\n}")
        errors = []
        for backend in ("tree", "compiled"):
            with pytest.raises(CRuntimeError, match=match) as exc_info:
                run_filter(program, "", backend=backend)
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]


class TestGpuPathUnaffected:
    """The GPU cost simulation must not depend on the CPU backend."""

    @pytest.mark.parametrize("tag", ["WC", "KM"])
    def test_gpu_job_identical_under_both_backends(self, tag):
        app = get_app(tag)
        text = app.generate(120, seed=5)
        results = {}
        for backend in ("tree", "compiled"):
            runner = LocalJobRunner(app, use_gpu=True,
                                    split_bytes=16 * 1024)
            with use_backend(backend):
                results[backend] = runner.run(text)
        tree, comp = results["tree"], results["compiled"]
        assert comp.output == tree.output
        assert comp.map_tasks == tree.map_tasks
        tree_secs = [r.seconds for r in tree.gpu_task_results]
        comp_secs = [r.seconds for r in comp.gpu_task_results]
        assert comp_secs == tree_secs

    def test_cpu_gpu_agree_compiled(self):
        app = get_app("WC")
        text = app.generate(120, seed=5)
        with use_backend("compiled"):
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
