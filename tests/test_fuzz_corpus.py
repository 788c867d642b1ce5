"""Fuzz corpus replay + minimized regressions for fuzzer-found bugs.

Every directory under ``tests/fuzz_corpus/`` is a minimized program that
once exposed a backend divergence (see each entry's ``meta.json`` for
the post-mortem). Replaying them through the full differential oracle on
every tier-1 run guarantees a fixed divergence can never silently
return. The targeted tests below pin each underlying fix directly, so a
regression fails with a precise message rather than a generic
divergence report.
"""

from __future__ import annotations

import pytest

from repro.apps.base import Application
from repro.config import CLUSTER1
from repro.errors import CRuntimeError
from repro.fuzz import load_corpus, run_case
from repro.gpu.device import GpuDevice
from repro.gpu.executor import run_combine_kernel
from repro.hadoop.local import LocalJobRunner
from repro.kvstore import KVPair
from repro.kvstore.coerce import coerce_pair, parse_kv_line
from repro.minic import parse
from repro.minic.interpreter import Interpreter, run_filter, use_engine

CORPUS = load_corpus()
assert CORPUS, "tests/fuzz_corpus/ is empty — corpus entries are required"


def _entry(name: str):
    """Pin a regression to its exact corpus entry (not 'first of kind',
    which would silently repoint when new entries are added)."""
    return next(c for c in CORPUS if c.name == name)


@pytest.mark.parametrize("case", CORPUS, ids=[c.name for c in CORPUS])
def test_corpus_entry_conforms(case):
    """A persisted divergence must stay fixed: the full oracle is green."""
    divergence = run_case(case)
    assert divergence is None, divergence.report()


class TestGpuStreamingCoercion:
    """GPU task output must cross the textual shuffle wire exactly like
    CPU filter stdout does (fuzz case mapper-s0-i6)."""

    MAP_SOURCE = _entry("mapper-s0-i6").source
    INPUT = "42 alpha 42 007\nalpha 42 0 -3\n"

    def _app(self):
        return Application(
            name="fuzz-regression-wc",
            short="FZ",
            nature="IO",
            map_source=self.MAP_SOURCE,
            reduce_py=lambda key, values: [(key, sum(values))],
        )

    def test_gpu_job_matches_cpu_job(self):
        app = self._app()
        cpu = LocalJobRunner(app, use_gpu=False, split_bytes=512).run(self.INPUT)
        gpu = LocalJobRunner(app, use_gpu=True, split_bytes=512).run(self.INPUT)
        assert gpu.output == cpu.output

    def test_canonical_numeric_words_type_as_ints_on_both_paths(self):
        app = self._app()
        gpu = LocalJobRunner(app, use_gpu=True, split_bytes=512).run(self.INPUT)
        # "42"/"0"/"-3" are canonical integer text -> typed keys; "007"
        # is not canonical and must keep its text identity.
        assert gpu.output[42] == 3
        assert gpu.output[0] == 1
        assert gpu.output[-3] == 1
        assert gpu.output["007"] == 1
        assert "42" not in gpu.output

    def test_coerce_pair_round_trips_the_wire(self):
        assert coerce_pair("42", "1") == (42, 1)
        assert coerce_pair(42, 1) == (42, 1)
        assert coerce_pair("007", 1) == ("007", 1)
        assert coerce_pair("1.0", 2.5) == ("1.0", 2.5)
        assert coerce_pair(-3, "x") == (-3, "x")


class TestGetKVTextMarshalling:
    """getKV must deliver int keys to a char-array keyin as text, the way
    scanf %s reads the wire (fuzz case combiner-s0-i33)."""

    COMBINE_SOURCE = _entry("combiner-s0-i33").source

    def _run_kernel(self, pairs):
        from repro.compiler.translator import translate

        tr = translate(parse(self.COMBINE_SOURCE))
        kernel = tr.combine_kernel
        snapshot = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)
        return run_combine_kernel(GpuDevice(CLUSTER1.gpu), kernel, pairs,
                                  snapshot)

    def test_int_key_into_char_keyin_reads_as_text(self):
        launch = self._run_kernel([KVPair(42, 50, 0), KVPair(42, 48, 0),
                                   KVPair(-3, 12, 0), KVPair(-3, 14, 0)])
        totals = {}
        for k, v in launch.output:
            totals[k] = totals.get(k, 0) + v
        # Keys surface as the wire text ("42", "-3"), never chr(42).
        assert totals == {"42": 98, "-3": 26}

    def test_text_key_into_int_keyin_parses_numerically(self):
        source = """
int main()
{
    int prevKey, count, key, val, read, have;
    prevKey = 0; count = 0; have = 0;
    #pragma mapreduce combiner key(prevKey) value(count) \\
        keyin(key) valuein(val) firstprivate(prevKey, count, have)
    {
        while( (read = scanf("%d %d", &key, &val)) == 2 ) {
            if(have && key == prevKey) {
                count += val;
            } else {
                if(have)
                    printf("%d\\t%d\\n", prevKey, count);
                prevKey = key;
                count = val;
                have = 1;
            }
        }
        if(have)
            printf("%d\\t%d\\n", prevKey, count);
    }
    return 0;
}
"""
        from repro.compiler.translator import translate

        tr = translate(parse(source))
        kernel = tr.combine_kernel
        snapshot = Interpreter(tr.program, stdin="").run_until_region(
            kernel.original_region)
        launch = run_combine_kernel(GpuDevice(CLUSTER1.gpu), kernel,
                                    [KVPair("7", 1, 0), KVPair("7", 2, 0)],
                                    snapshot)
        assert sum(v for _k, v in launch.output) == 3


class TestNonFiniteCast:
    """(int) of inf/nan must trap as a CRuntimeError, identically in
    both backends (fuzz case expr-s0-i140)."""

    SOURCE = _entry("expr-s0-i140").source

    def test_both_backends_raise_identical_cruntimeerror(self):
        messages = {}
        for engine in ("tree", "compiled"):
            with pytest.raises(CRuntimeError) as exc_info, \
                    use_engine(engine):
                run_filter(parse(self.SOURCE), "")
            messages[engine] = str(exc_info.value)
        assert messages["tree"] == messages["compiled"]
        assert "non-finite" in messages["tree"]

    def test_nan_cast_also_traps(self):
        # inf - inf makes a NaN without tripping a math-domain error first.
        source = """
int main()
{
    double d;
    d = 1e200;
    d = (d * d);
    d = (d - d);
    printf("%d\\n", (int) d);
    return 0;
}
"""
        for engine in ("tree", "compiled"):
            with pytest.raises(CRuntimeError, match="non-finite"), \
                    use_engine(engine):
                run_filter(parse(source), "")


class TestCampaignDeterminism:
    def test_same_seed_same_digest(self, tmp_path):
        from repro.fuzz import run_campaign

        a = run_campaign(seed=7, count=10, shrink=False,
                         corpus_dir=tmp_path / "a")
        b = run_campaign(seed=7, count=10, shrink=False,
                         corpus_dir=tmp_path / "b")
        assert a.executed == b.executed == 10
        assert a.digest == b.digest
        assert a.ok and b.ok

    def test_different_seeds_differ(self, tmp_path):
        from repro.fuzz import run_campaign

        a = run_campaign(seed=7, count=5, shrink=False,
                         corpus_dir=tmp_path / "a")
        b = run_campaign(seed=8, count=5, shrink=False,
                         corpus_dir=tmp_path / "b")
        assert a.digest != b.digest

    def test_cli_fuzz_exit_zero_on_conformance(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["fuzz", "--seed", "3", "--count", "5", "--quiet",
                   "--corpus-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out


class TestParseKvLineContract:
    """The coercion rules moved to kvstore.coerce; the public import
    path through hadoop.local must keep working with identical typing."""

    def test_reexport(self):
        from repro.hadoop import local
        from repro.kvstore import coerce

        assert local.parse_kv_line is coerce.parse_kv_line

    def test_typing_unchanged(self):
        assert parse_kv_line("7\t1") == (7, 1)
        assert parse_kv_line("007\t1") == ("007", 1)
        assert parse_kv_line("w\t2.5") == ("w", 2.5)
