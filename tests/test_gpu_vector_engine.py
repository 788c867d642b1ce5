"""Differential tests: vectorized warp engine vs the per-lane engines.

The vector engine batches every active lane of a launch through numpy
ops, one region at a time, but must stay *indistinguishable* from the
compiled per-lane engine (and the tree reference) at every observable
boundary: job output, simulated per-task seconds, launch counters, and
the full per-warp cost fold. These tests pin

* full-job parity for every registry app across tree/compiled/vector,
* which apps (and which synthetic loop shapes) actually vectorize, and
  the reason each loop that does not gives,
* the predicated-branch property: an If inside a region, masked by an
  arbitrary data-dependent lane pattern, equals per-lane execution,
* the engine-selection seam (vector is what an unpinned launch runs;
  an unknown engine name fails loudly, listing the valid ones), and
* the ``gpu.vector.*`` observability counters.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_apps, get_app
from repro.compiler.translator import translate
from repro.config import CLUSTER1
from repro.errors import ConfigError
from repro.gpu.device import GpuDevice
from repro.gpu.executor import prepare_shared_ro, run_map_kernel
from repro.gpu.vector import REASONS, VectorLaneRunner, lane_plan
from repro.hadoop.local import LocalJobRunner
from repro.kvstore import GlobalKVStore, Partitioner
from repro.minic import parse
from repro.minic.interpreter import Interpreter, current_engine, use_engine
from repro.obs import trace as obs

APP_TAGS = [app.short for app in all_apps()]

#: The lane-engine plan of every registry app's map kernel: static
#: region count, then why each remaining ``for`` — or the whole kernel —
#: runs per lane. Only five kernels have a ``for`` in their body; the
#: four rejected loops are rejected for what they are (LR: an inner loop
#: starting at ``j = i``, and a printf→emitKV in the body; CL: the
#: getWord/break token loop; PR: the data-dependent bound ``i < n``).
LOOP_PLANS = {
    "KM": (2, []), "BS": (1, []),
    "CL": (1, ["call"]),
    "LR": (0, ["loop-header", "statement"]),
    "PR": (0, ["loop-header"]),
}
#: ... and the other seven (GR, HS, WC, HR, II, RJ, TS) have none.
NO_LOOP_PLAN = (0, ["no-for-loop"])


# -- helpers ----------------------------------------------------------------


def _gpu_job(app, text, engine):
    runner = LocalJobRunner(app, use_gpu=True, split_bytes=16 * 1024)
    with use_engine(engine):
        return runner.run(text)


def _assert_launches_identical(tag, ref, other):
    assert other.output == ref.output, tag
    assert other.task_seconds() == ref.task_seconds(), tag
    for i, (ref_task, other_task) in enumerate(zip(ref.map_task_results,
                                                   other.map_task_results)):
        a, b = ref_task.gpu_task, other_task.gpu_task
        assert b.map_launch.counters == a.map_launch.counters, (tag, i)
        assert b.map_launch.cost == a.map_launch.cost, (tag, i)
        assert b.partition_output == a.partition_output, (tag, i)
        assert b.output_bytes == a.output_bytes, (tag, i)


def _map_setup(source_or_app):
    """(kernel, snapshot) for a mapper app or raw mapper source."""
    if isinstance(source_or_app, str):
        tr = translate(parse(source_or_app))
    else:
        tr = source_or_app.translate_map()
    kernel = tr.map_kernel
    snapshot = Interpreter(tr.program, stdin="").run_until_region(
        kernel.original_region)
    return kernel, snapshot


def _launch_map(app, n=40):
    """One traced map launch of ``app`` on the ambient engine; its
    metrics."""
    kernel, snapshot = _map_setup(app)
    records = [ln.encode("utf-8") + b"\n"
               for ln in app.generate(n, seed=5).splitlines()]
    store = GlobalKVStore(kernel.launch.total_threads,
                          kernel.launch.total_threads * 64,
                          kernel.key_length, kernel.value_length)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        run_map_kernel(GpuDevice(CLUSTER1.gpu), kernel, records,
                       snapshot, store, Partitioner(4))
    return rec.metrics


def _vector_runner(source_or_app):
    kernel, snapshot = _map_setup(source_or_app)
    return VectorLaneRunner(GpuDevice(CLUSTER1.gpu), kernel, snapshot,
                            prepare_shared_ro(kernel, snapshot))


def _plan(source_or_app):
    """(static regions, reasons) of a mapper's lane-engine plan, through
    the entry the runtime uses."""
    kernel, _snapshot = _map_setup(source_or_app)
    suite, kernel_reason = lane_plan(kernel, CLUSTER1.gpu)
    if kernel_reason is not None:
        return (suite.regions if suite else 0), [kernel_reason]
    return suite.regions, [reason for _line, reason in suite.rejected]


def _store_pairs(store):
    return sorted((t, p.key, p.value, p.partition)
                  for t, p in store.iter_pairs())


def _launch_records(kernel, snapshot, records, engine):
    """One map launch of ``records`` on ``engine``: (launch, pairs)."""
    store = GlobalKVStore(kernel.launch.total_threads,
                          kernel.launch.total_threads * 64,
                          kernel.key_length, kernel.value_length)
    with use_engine(engine):
        launch = run_map_kernel(GpuDevice(CLUSTER1.gpu), kernel, records,
                                snapshot, store, Partitioner(4))
    return launch, _store_pairs(store)


# -- full-job parity across the three lane engines --------------------------


class TestAllAppsVectorParity:
    """Every registry app, full GPU job: tree vs compiled vs vector must
    be byte-identical in output, counters, cost, and simulated seconds
    — whether the vector engine vectorizes or falls back per-lane."""

    @pytest.mark.parametrize("tag", APP_TAGS)
    def test_three_engines_agree(self, tag):
        app = get_app(tag)
        text = app.generate(90, seed=11)
        tree = _gpu_job(app, text, "tree")
        compiled = _gpu_job(app, text, "compiled")
        vector = _gpu_job(app, text, "vector")
        _assert_launches_identical(tag, tree, compiled)
        _assert_launches_identical(tag, tree, vector)

    def test_runner_kwarg_selects_vector(self):
        # No runner keyword names an engine any more: an unpinned runner
        # is the vector engine, indistinguishable from the pinned
        # per-lane one.
        app = get_app("BS")
        text = app.generate(60, seed=3)
        unpinned = LocalJobRunner(app, use_gpu=True,
                                  split_bytes=16 * 1024).run(text)
        pinned = _gpu_job(app, text, "compiled")
        _assert_launches_identical("BS", pinned, unpinned)


# -- region detection -------------------------------------------------------


#: A mapper with one loop slot. Regions declare nothing, so every scalar
#: and array a shape uses is declared here, outside the loop.
SHAPE_SOURCE = """\
int main()
{
    char word[16];
    char *line;
    size_t nbytes = 10000;
    int read, linePtr, offset, val, i, j, n, t;
    double x, acc;
    double tab[8];
    double cent[8];
    for (i = 0; i < 8; i++) { cent[i] = 0.25 * i; }
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(word) value(acc) keylength(16) kvpairs(20) \\
        texture(cent)
    while ((read = getline(&line, &nbytes, stdin)) != -1) {
        offset = 0;
        while ((linePtr = getWord(line, offset, word, read, 16)) != -1) {
            val = atoi(word);
            x = 0.5 * val;
            acc = 0.0;
            n = 8;
            t = 0;
            for (i = 0; i < 8; i++) { tab[i] = x + i; }
            %s
            printf("%%s\\t%%f\\n", word, acc + t);
            offset += linePtr;
        }
    }
    free(line);
    return 0;
}
"""
#: The tab[] fill above is a loop itself (an array store: `statement`).
SHAPE_PROLOGUE = ["statement"]


class TestRegionDetection:
    @pytest.mark.parametrize("tag", APP_TAGS)
    def test_registry_apps_vectorize_as_expected(self, tag):
        regions, _reasons = LOOP_PLANS.get(tag, NO_LOOP_PLAN)
        runner = _vector_runner(get_app(tag))
        if regions:
            assert runner._warp is not None, f"{tag} should vectorize"
            assert runner._warp.regions == regions
        else:
            assert runner._warp is None, \
                f"{tag} should take the whole-kernel fallback"

    @pytest.mark.parametrize("tag", APP_TAGS)
    def test_every_non_region_says_why(self, tag):
        regions, reasons = _plan(get_app(tag))
        assert (regions, reasons) == LOOP_PLANS.get(tag, NO_LOOP_PLAN)
        assert set(reasons) <= set(REASONS)

    def test_seven_kernels_have_no_for_loop(self):
        assert len(APP_TAGS) - len(LOOP_PLANS) == 7
        assert set(LOOP_PLANS) <= set(APP_TAGS)

    ACCEPT = {
        "plain": "for (i = 0; i < 8; i++) { acc = x; }",
        "float_acc": "for (i = 0; i < 8; i++) { acc += (i * 0.5); }",
        "nested": "for (i = 0; i < 4; i++) "
                  "{ for (j = 0; j < 4; j++) { acc = (acc + (x - j)); } }",
        "le_bound": "for (i = 0; i <= 7; i++) { acc += x; }",
        "predicated_if": "for (i = 0; i < 8; i++) { if (x > (0.5 * i)) "
                         "{ acc += 1.5; } else { acc = (acc - 0.25); } }",
        "if_without_else": "for (i = 0; i < 8; i++) "
                           "{ if (x > (0.5 * i)) { acc = (acc + x); } }",
        "array_reads": "for (i = 0; i < 4; i++) { acc += "
                       "(tab[i] * tab[(2 * i) + 1]); acc += tab[i]; }",
        # float and (exactly converted) int arguments
        "math_calls": "for (i = 0; i < 3; i++) { acc += (sqrt(x * x) "
                      "+ (exp(-x) + sqrt(t))); acc += erf(val); }",
        # An int target takes a comparison result (0/1 per lane) or a
        # lane-invariant int; int *arithmetic* on varying data does not
        # vectorize (see REJECT).
        "int_flag": "for (i = 0; i < 8; i++) { t = (x > (0.5 * i)); }",
        "int_uniform_store": "for (i = 0; i < 8; i++) { t = (3 * i); }",
        "int_copy": "for (i = 0; i < 8; i++) { t = val; }",
        "empty_then_arm": "for (i = 0; i < 8; i++) "
                          "{ if (x > (0.5 * i)) { } else { acc += 1.0; } }",
        "texture_reads": "for (i = 0; i < 8; i++) "
                         "{ acc += (cent[i] * tab[i]); }",
        "private_read_in_arm": "for (i = 0; i < 8; i++) "
                               "{ if (x > (0.5 * i)) { acc = tab[i]; } }",
        "sequential_counter_reuse":
            "for (i = 0; i < 2; i++) { for (j = 0; j < 2; j++) { acc += x; } "
            "for (j = 0; j < 3; j++) { acc += 1.0; } }",
    }
    REJECT = {
        "var_bound": ("for (i = 0; i < n; i++) { acc = x; }", "loop-header"),
        "downward": ("for (i = 8; i > 0; i--) { acc = x; }", "loop-header"),
        "step2": ("for (i = 0; i < 8; i += 2) { acc = x; }", "loop-header"),
        "prefix_step": ("for (i = 0; i < 8; ++i) { acc = x; }",
                        "loop-header"),
        "decl_counter": ("for (int k = 0; k < 8; k++) { acc = x; }",
                         "loop-header"),
        "var_start": ("for (i = val; i < 8; i++) { acc = x; }",
                      "loop-header"),
        "float_counter": ("for (x = 0; x < 8; x++) { acc = 1.0; }",
                          "loop-header"),
        "active_counter_reuse": (
            "for (i = 0; i < 4; i++) { for (i = 0; i < 4; i++) { acc = x; } }",
            "loop-header"),
        "assigned_then_counter": (
            "for (i = 0; i < 4; i++) { j = (x > 1.0); "
            "for (j = 0; j < 4; j++) { acc = x; } }", "loop-header"),
        "counter_then_assigned": (
            "for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { acc = x; } "
            "j = (x > 1.0); }", "statement"),
        "counter_mutation": ("for (i = 0; i < 8; i++) { i = (i + 2); }",
                             "statement"),
        "break_inside": ("for (i = 0; i < 8; i++) "
                         "{ acc = x; if (acc > 2.0) break; }", "statement"),
        "printf_inside": ("for (i = 0; i < 8; i++) "
                          "{ printf(\"%d\\t%f\\n\", i, x); }", "statement"),
        "while_inside": ("for (i = 0; i < 8; i++) "
                         "{ t = i; while (t > 0) { t = (t - 1); } }",
                         "statement"),
        "body_decl": ("for (i = 0; i < 8; i++) { double d; d = x; acc = d; }",
                      "statement"),
        "incdec": ("for (i = 0; i < 8; i++) { t++; }", "statement"),
        "div_assign": ("for (i = 0; i < 8; i++) { acc /= 2.0; }",
                       "statement"),
        "sub_assign": ("for (i = 0; i < 8; i++) { acc -= x; }", "statement"),
        "array_store": ("for (i = 0; i < 8; i++) { tab[i] = x; }",
                        "statement"),
        "empty_body": ("for (i = 0; i < 8; i++) { }", "statement"),
        "call_in_arm": ("for (i = 0; i < 8; i++) "
                        "{ if (x > 1.0) { printf(\"%d\\t%f\\n\", i, x); } }",
                        "statement"),
        "uniform_if_value": ("for (i = 0; i < 8; i++) { if (i) { acc = x; } }",
                             "statement"),
        "uniform_if": ("for (i = 0; i < 8; i++) { if (i > 3) { acc = x; } }",
                       "expression"),
        "counter_mod": ("for (i = 0; i < 8; i++) { t = (i % 3); }",
                        "expression"),
        "uniform_div": ("for (i = 0; i < 8; i++) { acc = (x * (1.0 / 4.0)); }",
                        "expression"),
        "int_div": ("for (i = 0; i < 8; i++) { t = (val / 2); }",
                    "expression"),
        "cast": ("for (i = 0; i < 8; i++) { acc = (double) val; }",
                 "expression"),
        "not": ("for (i = 0; i < 8; i++) { t = !val; }", "expression"),
        "logical_and": ("for (i = 0; i < 8; i++) "
                        "{ t = ((x > 1.0) && (x < 3.0)); }", "expression"),
        "char_literal": ("for (i = 0; i < 8; i++) { t = 'a'; }",
                         "expression"),
        "mixed_store": ("for (i = 0; i < 8; i++) { acc = 1; }", "expression"),
        "varying_int_add": ("for (i = 0; i < 8; i++) { t = (val + i); }",
                            "expression"),
        "varying_int_acc": ("for (i = 0; i < 8; i++) { t += 1; }",
                            "expression"),
        "varying_int_neg": ("for (i = 0; i < 8; i++) { t = -val; }",
                            "expression"),
        "pointer_operand": ("for (i = 0; i < 8; i++) { t = (line == 0); }",
                            "expression"),
        "uniform_math": ("for (i = 0; i < 8; i++) { acc = sqrt(2.0); }",
                         "call"),
        "fabs": ("for (i = 0; i < 8; i++) { acc = fabs(x); }", "call"),
        "two_arg_math": ("for (i = 0; i < 8; i++) { acc = pow(x, 2.0); }",
                         "call"),
        "string_call": ("for (i = 0; i < 8; i++) { t = strlen(word); }",
                        "call"),
        "varying_index": ("for (i = 0; i < 8; i++) { acc = tab[val]; }",
                          "array"),
        "char_array": ("for (i = 0; i < 8; i++) { t = word[i]; }", "array"),
        "pointer_index": ("for (i = 0; i < 8; i++) { t = line[i]; }",
                          "array"),
        "computed_base": ("for (i = 0; i < 4; i++) { t = (line + 1)[i]; }",
                          "array"),
        # Texture/global miss charges are fractional and replay a static
        # count per lane: no masked reads of cached arrays.
        "cached_read_in_arm": ("for (i = 0; i < 8; i++) "
                               "{ if (x > 1.0) { acc = cent[i]; } }", "array"),
        "trips_over_cap": ("for (i = 0; i < 100000; i++) { acc = x; }",
                           "trip-budget"),
        "zero_trip": ("for (i = 0; i < 0; i++) { acc = x; }", "trip-budget"),
        "nested_over_budget": (
            "for (i = 0; i < 2048; i++) "
            "{ for (j = 0; j < 2048; j++) { acc = x; } }", "trip-budget"),
    }
    RECORDS = [b"3 -2\n", b"0 7 1\n", b"12\n"]

    @pytest.mark.parametrize("shape", sorted(ACCEPT))
    def test_eligible_shapes(self, shape):
        source = SHAPE_SOURCE % self.ACCEPT[shape]
        assert _plan(source) == (1, SHAPE_PROLOGUE)
        # ... and the region computes what the per-lane engines compute.
        kernel, snapshot = _map_setup(source)
        tree = _launch_records(kernel, snapshot, self.RECORDS, "tree")
        for engine in ("compiled", "vector"):
            launch, pairs = _launch_records(kernel, snapshot, self.RECORDS,
                                            engine)
            assert pairs == tree[1], engine
            assert launch.counters == tree[0].counters, engine
            assert launch.cost == tree[0].cost, engine

    @pytest.mark.parametrize("shape", sorted(REJECT))
    def test_ineligible_shapes(self, shape):
        loop, reason = self.REJECT[shape]
        assert _plan(SHAPE_SOURCE % loop) == (0, SHAPE_PROLOGUE + [reason])

    def test_whole_kernel_reasons(self):
        import dataclasses

        kernel, _snapshot = _map_setup(get_app("KM"))
        odd = dataclasses.replace(CLUSTER1.gpu, transaction_bytes=96)
        assert lane_plan(kernel, odd) == (None, "non-pow2")
        with_helper = dataclasses.replace(kernel, helpers=[object()])
        assert lane_plan(with_helper, CLUSTER1.gpu) == (None, "helpers")


# -- predicated branches == per-lane execution (property) -------------------


#: A mapper whose region contains an If predicated on the lane's data:
#: each input integer flips the mask differently on every trip.
PREDICATED_SOURCE = """\
int main()
{
    char word[16];
    char *line;
    size_t nbytes = 10000;
    int read;
    int linePtr;
    int offset;
    int val;
    double acc;
    int rr;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(word) value(val) keylength(16) kvpairs(20)
    while ((read = getline(&line, &nbytes, stdin)) != -1) {
        offset = 0;
        while ((linePtr = getWord(line, offset, word, read, 16)) != -1) {
            val = atoi(word);
            acc = 0.0;
            for (rr = 0; rr < 6; rr++) {
                if ((0.5 * val) > (1.0 * rr)) {
                    acc = (acc + 1.5);
                }
                else {
                    acc = (acc - 0.25);
                }
            }
            val = (val + (((int) acc) % 7));
            printf("%s\\t%d\\n", word, val);
            offset += linePtr;
        }
    }
    free(line);
    return 0;
}
"""


class TestPredicatedBranchProperty:
    KERNEL, SNAPSHOT = _map_setup(PREDICATED_SOURCE)

    def test_kernel_actually_vectorizes(self):
        # The `% 7` and the cast sit outside the loop, on the spine.
        assert _plan(PREDICATED_SOURCE) == (1, [])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=24))
    def test_arbitrary_lane_masks_match_per_lane(self, values):
        records = [f"{v}".encode("utf-8") + b"\n" for v in values]
        compiled, pairs_c = _launch_records(self.KERNEL, self.SNAPSHOT,
                                            records, "compiled")
        vector, pairs_v = _launch_records(self.KERNEL, self.SNAPSHOT,
                                          records, "vector")
        assert vector.counters == compiled.counters
        assert vector.cost == compiled.cost
        assert pairs_v == pairs_c


# -- engine-selection seam --------------------------------------------------


class TestEngineValidation:
    """There is no environment selector: an unpinned launch runs the
    vector engine, and pinning an unknown engine fails with the full
    list of valid names, never by silently running another engine."""

    def test_unknown_engine_raises_listing_valid(self):
        with pytest.raises(ConfigError) as exc_info:
            with use_engine("warp9"):
                _launch_map(get_app("BS"))
        message = str(exc_info.value)
        assert "warp9" in message
        for name in ("compiled", "tree", "vector"):
            assert name in message
        assert current_engine() == "vector"

    def test_unpinned_launch_runs_vector(self):
        metrics = _launch_map(get_app("BS"))
        assert metrics.count("gpu.vector.regions") > 0


# -- observability counters -------------------------------------------------


class TestVectorMetrics:
    def test_vectorized_app_counts_regions(self):
        with use_engine("vector"):
            metrics = _launch_map(get_app("BS"))
        assert metrics.count("gpu.vector.regions") > 0

    def test_fallback_app_counts_fallbacks(self):
        with use_engine("vector"):
            metrics = _launch_map(get_app("WC"))
        assert metrics.count("gpu.vector.regions") == 0
        assert metrics.count("gpu.vector.fallbacks") > 0
