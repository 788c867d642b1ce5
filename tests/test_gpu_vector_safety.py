"""The vector engine's safety net: abandons, faults, divergence.

``docs/performance.md`` promises that a region abandon is always safe
(zero side effects, exact per-lane replay) and that a failing launch
raises the lowest-index lane's error. The registry apps never make
either happen — their data has no zero divisors, no negative ``sqrt``
operands, no 2^53 ints — so this suite does: one mapper template with
a statement slot, a hazard table, and every row run through
``run_map_kernel`` under the ``tree``, ``compiled`` and ``vector`` lane
engines, which must agree on the outcome (KV pairs, ``ExecCounters``,
``KernelCost`` — or the exception's type and message).
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CLUSTER1
from repro.gpu import engine as gpu_engine
from repro.gpu import vector
from repro.gpu.device import GpuDevice
from repro.gpu.executor import run_map_kernel
from repro.kvstore import GlobalKVStore, Partitioner
from repro.minic import ctypes as T
from repro.minic.interpreter import ENGINES, use_engine
from repro.minic.values import Buffer, Cell, Ptr
from repro.obs import trace as obs

from .test_gpu_vector_engine import _map_setup, _store_pairs

#: One record per lane (in lane order), one word per record unless a
#: row says otherwise; ``val`` is the word, ``den`` its float value.
TEMPLATE = """\
int main()
{
    char word[16];
    char *line;
    size_t nbytes = 10000;
    int read, linePtr, offset, val, rr, k, flag;
    long big;
    double den, acc, x;
    double tab[4];
    long ltab[4];
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(word) value(acc) keylength(16) kvpairs(20)
    while ((read = getline(&line, &nbytes, stdin)) != -1) {
        offset = 0;
        while ((linePtr = getWord(line, offset, word, read, 16)) != -1) {
            val = atoi(word);
            den = 1.0 * val;
            acc = 0.0;
            flag = 0;
            %s
            printf("%%s\\t%%f\\n", word, acc + flag);
            offset += linePtr;
        }
    }
    free(line);
    return 0;
}
"""

_KERNELS: dict[str, tuple] = {}


def _kernel(stmts):
    """(kernel, snapshot) of the template with ``stmts`` in its slot."""
    if stmts not in _KERNELS:
        _KERNELS[stmts] = _map_setup(TEMPLATE % stmts)
    return _KERNELS[stmts]


def _records(values):
    return [f"{v}\n".encode("utf-8") for v in values]


def _outcome(stmts, records, engine):
    """What one map launch observably does on ``engine``: ("ok", pairs,
    counters, cost) or ("raise", type, message) — plus the launch's
    ``gpu.vector.*`` counts."""
    kernel, snapshot = _kernel(stmts)
    store = GlobalKVStore(kernel.launch.total_threads,
                          kernel.launch.total_threads * 64)
    with use_engine(engine), \
            obs.use_recorder(obs.TraceRecorder()) as rec:
        try:
            launch = run_map_kernel(GpuDevice(CLUSTER1.gpu), kernel, records,
                                    snapshot, store, Partitioner(4))
        except Exception as exc:
            outcome = ("raise", type(exc), str(exc))
        else:
            outcome = ("ok", _store_pairs(store), launch.counters,
                       launch.cost)
    return outcome, (rec.metrics.count("gpu.vector.regions"),
                     rec.metrics.count("gpu.vector.fallbacks"))


def _three_engines(stmts, values):
    """The three engines' common outcome and vector's (regions,
    fallbacks)."""
    records = _records(values)
    tree, _ = _outcome(stmts, records, "tree")
    compiled, _ = _outcome(stmts, records, "compiled")
    vec, counts = _outcome(stmts, records, "vector")
    assert compiled == tree
    assert vec == tree
    return tree, counts


def _static_regions(stmts):
    suite, reason = vector.lane_plan(_kernel(stmts)[0], CLUSTER1.gpu)
    assert reason is None and suite.rejected == ()
    return suite.regions


REGION = "for (rr = 0; rr < 4; rr++) { %s }"

# -- tier 2: region abandon ---------------------------------------------------

#: Hazards a region's preflight catches that the per-lane engines run
#: to completion: the launch must *succeed*, identically, with the
#: region abandoned on every entry (fallbacks > 0, regions == 0).
NON_FATAL = {
    # numpy would round the int to float64; Python compares exactly
    "big_literal_vs_float":
        REGION % "if (den < 9007199254740993) { acc += 1.0; }",
    "big_literal_on_the_left":
        REGION % "if (9007199254740993 > den) { acc += 1.0; }",
    "big_gathered_scalar":
        "big = 9007199254740993; "
        + REGION % "if (den < big) { acc += 1.0; }",
    "big_array_element":
        "ltab[1] = 9007199254740993; "
        + REGION % "if (den < ltab[1]) { acc += 1.0; }",
    "big_uniform_int_store":
        REGION % "big = 9007199254740993; acc += den;"
        + " if (big > 5) { acc += 1.0; }",
}


class TestRegionAbandon:
    @pytest.mark.parametrize("row", sorted(NON_FATAL))
    def test_abandoned_region_replays_per_lane(self, row):
        stmts = NON_FATAL[row]
        assert _static_regions(stmts) == 1
        outcome, (regions, fallbacks) = _three_engines(stmts, [1, 2, 3, -4])
        assert outcome[0] == "ok"
        assert regions == 0
        assert fallbacks > 0

    def test_abandon_is_per_entry(self):
        # Two entries per launch (the first lane has two words): the one
        # holding the zero-free data vectorizes, the other abandons —
        # and nothing of the abandoned attempt leaks into the result.
        stmts = REGION % "if (den < big) { acc += 1.0; }"
        stmts = "big = 5; if (val == 7) { big = 9007199254740993; } " + stmts
        records = [b"1 7\n", b"2\n"]
        tree, _ = _outcome(stmts, records, "tree")
        vec, (regions, fallbacks) = _outcome(stmts, records, "vector")
        assert vec == tree and vec[0] == "ok"
        assert (regions, fallbacks) == (1, 1)

    #: Hazards that are errors in C — (statements, lanes with the
    #: hazard, the same lanes without it or None where the hazard is in
    #: the code): every engine must raise the same exception, the
    #: vector engine by abandoning and letting the per-lane replay fail.
    FATAL = {
        "zero_divisor": (REGION % "acc += 1.0 / den;", [3, 0, 2], [3, 5, 2]),
        "zero_uniform_divisor": (REGION % "acc += den / (1.0 * rr);",
                                 [3, 1, 2], None),
        "negative_sqrt": (REGION % "acc += sqrt(den);",
                          [3, -1, 2], [3, 1, 2]),
        "log_of_zero": (REGION % "acc += log(den);", [3, 0, 2], [3, 1, 2]),
        "exp_overflow": (REGION % "acc += exp(den);",
                         [3, 1000, 2], [3, 1, 2]),
        "private_array_out_of_range": (REGION % "acc += tab[rr + 1];",
                                       [3, 1, 2], None),
    }

    @pytest.mark.parametrize("row", sorted(FATAL))
    def test_fatal_hazard_raises_the_per_lane_error(self, row):
        stmts, values, clean = self.FATAL[row]
        assert _static_regions(stmts) == 1
        outcome, _counts = _three_engines(stmts, values)
        assert outcome[0] == "raise"
        if clean is not None:  # without the hazardous lane it vectorizes
            outcome, (regions, fallbacks) = _three_engines(stmts, clean)
            assert outcome[0] == "ok"
            assert regions > 0 and fallbacks == 0

    def test_step_budget(self, monkeypatch):
        # A lane whose budget would run out inside the loop is not
        # vectorized: the replay trips it at the exact step. (The tree
        # engine counts steps per statement, so it is not compared.)
        stmts = REGION % "acc += den;"
        records = [b"1 2\n", b"3\n"]
        seen = set()
        for budget in range(1, 24):
            monkeypatch.setattr(gpu_engine, "_LANE_MAX_STEPS", budget)
            compiled, _ = _outcome(stmts, records, "compiled")
            vec, (regions, _f) = _outcome(stmts, records, "vector")
            assert vec == compiled, budget
            seen.add((vec[0], regions))
            if vec[0] == "raise":
                assert vec[2] == (f"execution exceeded {budget} steps "
                                  "(runaway loop?)")
        assert seen == {("raise", 0), ("ok", 2)}

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=24))
    def test_arbitrary_denominators_match_per_lane(self, values):
        stmts = REGION % "acc += 1.0 / den;"
        records = _records(values)
        compiled, _ = _outcome(stmts, records, "compiled")
        vec, _ = _outcome(stmts, records, "vector")
        assert vec == compiled
        assert vec[0] == ("raise" if 0 in values else "ok")


# -- tier 3: the per-lane spine -----------------------------------------------


class TestSpine:
    #: Lanes that take different paths around (and out of) regions.
    DIVERGENT = {
        "if_else_split":
            "if (val > 2) { " + REGION % "acc += den;" + " } else { "
            "for (rr = 0; rr < 3; rr++) { acc += 2.0 * den; } }",
        "if_without_else":
            "if (val > 2) { " + REGION % "acc += den;" + " }",
        "if_with_loop_free_arm":
            "if (val > 2) acc = 1.0; else " + REGION % "acc += den;",
        "while_with_break":
            "k = 0; while ((6 / val) > k) { k = k + 1; "
            + REGION % "acc += den;" + " if (k == 2) { break; } }",
        "while_with_continue":
            "k = 0; while (k < 3) { k = k + 1; "
            "if (val == k) { continue; } " + REGION % "acc += den;" + " }",
        "early_break_of_record_loop":
            REGION % "acc += den;" + " if (val == 2) { break; }",
    }

    @pytest.mark.parametrize("row", sorted(DIVERGENT))
    def test_divergent_lanes_match_per_lane(self, row):
        stmts = self.DIVERGENT[row]
        values = ["1 2 9", 2, 3, "7 1", 6]
        outcome, (regions, fallbacks) = _three_engines(stmts, values)
        assert outcome[0] == "ok"
        assert regions > 0 and fallbacks == 0

    #: (statements, lanes) — the launch fails in a spine condition or
    #: statement of one lane.
    SPINE_FAULTS = {
        "if_condition": ("if ((6 / val) > 2) { " + REGION % "acc += den;"
                         + " }", [1, 2, 0, 4]),
        "while_condition": ("k = 0; while ((6 / val) > k) { k = k + 1; "
                            + REGION % "acc += den;" + " }", [1, 2, 0, 4]),
        "statement_before": ("x = sqrt(4.0 - den); "
                             + REGION % "acc += den;", [1, 2, 5, 4]),
        "statement_after": (REGION % "acc += den;"
                            + " x = sqrt(4.0 - den);", [1, 2, 5, 4]),
    }

    @pytest.mark.parametrize("row", sorted(SPINE_FAULTS))
    def test_spine_fault_raises_the_per_lane_error(self, row):
        stmts, values = self.SPINE_FAULTS[row]
        outcome, _counts = _three_engines(stmts, values)
        assert outcome[0] == "raise"

    #: Two lanes fail with different messages, one on the spine (the
    #: sqrt) and one in a region's per-lane replay (the division). The
    #: warp executes the spine statement for every lane before any lane
    #: enters the region, yet the error raised is the lower lane's.
    TWO_FAULTS = ("x = sqrt(4.0 - den); " + REGION % "acc += 1.0 / den;",
                  REGION % "acc += 1.0 / den;" + " x = sqrt(4.0 - den);")

    @pytest.mark.parametrize("stmts", TWO_FAULTS,
                             ids=["spine_first", "region_first"])
    @pytest.mark.parametrize("values, message", [
        ([1, 0, 5, 2], "division by zero"),
        ([1, 5, 0, 2], "math domain error"),
    ])
    def test_lowest_failing_lane_wins(self, stmts, values, message):
        outcome, _counts = _three_engines(stmts, values)
        assert outcome[0] == "raise"
        assert outcome[2] == message

    def test_two_region_faults_lowest_lane_wins(self):
        stmts = REGION % "acc += 1.0 / den; acc += sqrt(den);"
        for values, message in (([1, 0, -5], "division by zero"),
                                ([1, -5, 0], "math domain error")):
            outcome, _counts = _three_engines(stmts, values)
            assert outcome[2] == message


# -- preflights no mini-C program reaches -------------------------------------


class _FakeLane:
    def __init__(self, frame):
        self.frame = frame


def _buffer(elem=T.DOUBLE, size=4, space="private"):
    return Buffer(elem, size, "b", space)


class TestArrayPreflights:
    """``_resolve_array`` / ``_check_elem`` reject every layout a region
    read could not index directly. The translator only ever binds a
    kernel array to a whole, live, 1-D buffer of the declared element
    type in the declared space, so these are driven directly."""

    ARR = vector._RArr("a", 0, False, "f", "private")

    def _resolve(self, *values, arr=None):
        lanes = [_FakeLane([None if v is None else Cell(v)]) for v in values]
        return vector._resolve_array(arr or self.ARR, lanes)

    def test_accepts_buffers_and_unit_stride_pointers(self):
        a, b = _buffer(), _buffer()
        assert self._resolve(a, Ptr(b, 1)) == ("v", [(a, 0), (b, 1)], "f")

    def test_rejects(self):
        good = _buffer()
        freed = _buffer()
        freed.freed = True
        two_d = _buffer()
        two_d.inner_dim = 2
        for bad in (None, 3.5, Ptr(good, 0, 2), Ptr(None, 0), freed, two_d,
                    _buffer(space="texture"), _buffer(elem=T.INT)):
            assert self._resolve(good, bad) is None, bad

    def test_uniform_array_needs_one_buffer_for_all_lanes(self):
        arr = vector._RArr("a", 0, True, "f", "texture")
        a, b = _buffer(space="texture"), _buffer(space="texture")
        assert self._resolve(a, a, arr=arr) == ("u", a, 0, "f")
        assert self._resolve(a, b, arr=arr) is None
        assert self._resolve(a, Ptr(a, 1), arr=arr) is None

    def test_element_class_and_magnitude(self):
        vector._check_elem(1.5, "f")
        vector._check_elem(1 << 53, "i")
        for value, elem in ((1, "f"), (1.5, "i"), ((1 << 53) + 1, "i"),
                            (-(1 << 53) - 1, "i")):
            with pytest.raises(vector._Abandon):
                vector._check_elem(value, elem)

    def test_freed_or_short_buffer_abandons_the_read(self):
        assert vector._load_numpy()  # a runner would have, before a region
        for uniform in (True, False):
            buf = _buffer()
            env = vector._Env(1, 0, ())
            env.aspec["a"] = (("u", buf, 0, "f") if uniform
                              else ("v", [(buf, 0)], "f"))
            assert env.read_array("a", 3) is not None
            with pytest.raises(vector._Abandon):
                env.read_array("a", 4)
            buf.freed = True
            env.amemo.clear()
            with pytest.raises(vector._Abandon):
                env.read_array("a", 3)


def test_region_with_no_active_lane_is_a_no_op():
    # Every spine node hands a region the lanes still active; with none
    # left it neither vectorizes nor counts a fallback.
    assert vector._Region(None, None).run([], None) == {}


def test_engines_under_test_are_the_registered_ones():
    assert set(ENGINES) == {"tree", "compiled", "vector"}
