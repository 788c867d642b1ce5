"""The collapsed GPU cost model, pinned event by event.

``repro.gpu.charging`` holds each charge formula once — a binder over a
launch's constants, or a plain function where there are none (an
element access, charged to the lane it is handed; a math call). The
tables below are every charge's effect on a
zeroed ``LaneCharges``/``ExecCounters`` — only the non-zero fields are
listed — for every memory space and launch-constant combination
(stealing on/off, vector width 1/2/4, cooperative on/off). The expected
values were **computed on the commit before the collapse**, by calling
the bound forms of its one ``SpaceChargeHook`` profile and printing the
non-zero fields, so a formula that drifts while being moved fails here
by name rather than as a far-off simulated-seconds diff.

Also here: the counting wrapper (one tally per event, costs untouched,
identity when untraced), and the traced event counters compared across
the three lane engines on the apps whose kernels have vector regions —
where the vector engine replicates the tallies instead of calling the
charge functions.
"""

from __future__ import annotations

from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.apps import get_app
from repro.gpu import GPU_ENGINES, use_gpu_engine
from repro.gpu import charging
from repro.gpu.charging import LaneCharges
from repro.hadoop.local import LocalJobRunner
from repro.minic.interpreter import ExecCounters
from repro.obs import MetricsRegistry
from repro.obs import trace as obs
from repro.scenarios import generate_input

from .test_gpu_launch_golden import EVENT_COUNTERS


def _nonzero(obj) -> dict:
    return {name: value for name, value in asdict(obj).items() if value}


def _doubled(effect: dict) -> dict:
    return {name: 2 * value for name, value in effect.items()}


# -- access: (buffer space, is_store, charges) ------------------------------
# None is a scalar (no buffer); "spaceless" a buffer whose space is None.

ACCESS = [
    (None, False, {"instructions": 1.0}),
    (None, True, {"instructions": 1.0}),
    ("spaceless", False, {"instructions": 1.0}),
    ("spaceless", True, {"instructions": 1.0}),
    ("private", False, {"instructions": 1.0}),
    ("private", True, {"instructions": 1.0}),
    ("shared", False, {"shared_accesses": 1.0}),
    ("shared", True, {"shared_accesses": 1.0}),
    ("global", False, {"instructions": 2.0, "global_txn": 0.08}),
    ("global", True, {"instructions": 2.0, "global_txn": 0.08}),
    ("texture", False, {"instructions": 2.0, "texture_accesses": 0.02}),
    ("texture", True, {"instructions": 2.0, "texture_accesses": 0.02}),
]

# -- getRecord: (txn bytes, stealing, record bytes, charges, counters) -----

RECORD_READ = [
    (32, False, 0, {"global_txn": 0.25}, {}),
    (32, False, 37, {"instructions": 5.203125, "global_txn": 0.25}, {"bytes_in": 37}),
    (32, False, 1000, {"instructions": 140.625, "global_txn": 3.90625}, {"bytes_in": 1000}),
    (32, True, 0, {"global_txn": 0.25, "shared_atomics": 1.0}, {}),
    (32, True, 37, {"instructions": 5.203125, "global_txn": 0.25, "shared_atomics": 1.0}, {"bytes_in": 37}),
    (32, True, 1000, {"instructions": 140.625, "global_txn": 3.90625, "shared_atomics": 1.0}, {"bytes_in": 1000}),
    (128, False, 0, {"global_txn": 0.25}, {}),
    (128, False, 37, {"instructions": 5.203125, "global_txn": 0.25}, {"bytes_in": 37}),
    (128, False, 1000, {"instructions": 140.625, "global_txn": 0.9765625}, {"bytes_in": 1000}),
    (128, True, 0, {"global_txn": 0.25, "shared_atomics": 1.0}, {}),
    (128, True, 37, {"instructions": 5.203125, "global_txn": 0.25, "shared_atomics": 1.0}, {"bytes_in": 37}),
    (128, True, 1000, {"instructions": 140.625, "global_txn": 0.9765625, "shared_atomics": 1.0}, {"bytes_in": 1000}),
]

# -- emitKV: (pair bytes, vector width, charges, counters) ----------------

KV_EMIT = [
    (4, 1, {"instructions": 4.0, "global_txn": 0.25}, {"bytes_out": 4}),
    (4, 2, {"instructions": 2.0, "global_txn": 0.25}, {"bytes_out": 4}),
    (4, 4, {"instructions": 1.0, "global_txn": 0.25}, {"bytes_out": 4}),
    (34, 1, {"instructions": 34.0, "global_txn": 2.125}, {"bytes_out": 34}),
    (34, 2, {"instructions": 17.0, "global_txn": 1.0625}, {"bytes_out": 34}),
    (34, 4, {"instructions": 8.5, "global_txn": 1.0625}, {"bytes_out": 34}),
]

# -- getKV/storeKV: (pair bytes, txn bytes, vector width, cooperative, charges)

KV_MOVE = [
    (34, 32, 1, False, {"instructions": 17.0, "global_txn": 4.25}),
    (34, 32, 1, True, {"instructions": 8.5, "global_txn": 1.0625}),
    (34, 32, 2, False, {"instructions": 17.0, "global_txn": 4.25}),
    (34, 32, 2, True, {"instructions": 4.25, "global_txn": 1.0625}),
    (34, 32, 4, False, {"instructions": 17.0, "global_txn": 4.25}),
    (34, 32, 4, True, {"instructions": 2.125, "global_txn": 1.0625}),
    (34, 128, 1, False, {"instructions": 17.0, "global_txn": 4.25}),
    (34, 128, 1, True, {"instructions": 8.5, "global_txn": 1.0}),
    (34, 128, 2, False, {"instructions": 17.0, "global_txn": 4.25}),
    (34, 128, 2, True, {"instructions": 4.25, "global_txn": 1.0}),
    (34, 128, 4, False, {"instructions": 17.0, "global_txn": 4.25}),
    (34, 128, 4, True, {"instructions": 2.125, "global_txn": 1.0}),
    (300, 32, 1, False, {"instructions": 150.0, "global_txn": 37.5}),
    (300, 32, 1, True, {"instructions": 75.0, "global_txn": 9.375}),
    (300, 32, 2, False, {"instructions": 150.0, "global_txn": 37.5}),
    (300, 32, 2, True, {"instructions": 37.5, "global_txn": 9.375}),
    (300, 32, 4, False, {"instructions": 150.0, "global_txn": 37.5}),
    (300, 32, 4, True, {"instructions": 18.75, "global_txn": 9.375}),
    (300, 128, 1, False, {"instructions": 150.0, "global_txn": 37.5}),
    (300, 128, 1, True, {"instructions": 75.0, "global_txn": 2.34375}),
    (300, 128, 2, False, {"instructions": 150.0, "global_txn": 37.5}),
    (300, 128, 2, True, {"instructions": 37.5, "global_txn": 2.34375}),
    (300, 128, 4, False, {"instructions": 150.0, "global_txn": 37.5}),
    (300, 128, 4, True, {"instructions": 18.75, "global_txn": 2.34375}),
]

# -- device math call: (charges, counters) ---------------------------------

MATH_CALL = ({"instructions": 8.0}, {"fp_ops": 4})

# -- device string call: (vector width, chars, charges) -------------------

STRING_CALL = [
    (1, 0, {"instructions": 1.0}),
    (1, 3, {"instructions": 3.0}),
    (1, 30, {"instructions": 30.0}),
    (2, 0, {"instructions": 1.0}),
    (2, 3, {"instructions": 1.5}),
    (2, 30, {"instructions": 15.0}),
    (4, 0, {"instructions": 1.0}),
    (4, 3, {"instructions": 1.0}),
    (4, 30, {"instructions": 7.5}),
]


def _buffer(space):
    if space is None:
        return None
    return SimpleNamespace(space=None if space == "spaceless" else space)


@pytest.mark.parametrize("space, is_store, charged", ACCESS)
def test_access_charges_by_memory_space(space, is_store, charged):
    lane = SimpleNamespace(charges=LaneCharges())
    charging.access(lane, _buffer(space), is_store)
    assert _nonzero(lane.charges) == charged
    # The charge lands on the lane it is handed — nothing is captured,
    # so another lane's access leaves this one's charges alone.
    other = SimpleNamespace(charges=LaneCharges())
    charging.access(other, _buffer(space), is_store)
    assert _nonzero(other.charges) == charged
    assert _nonzero(lane.charges) == charged


@pytest.mark.parametrize("txn_bytes, stealing, nbytes, charged, counted",
                         RECORD_READ)
def test_record_read(txn_bytes, stealing, nbytes, charged, counted):
    charges, counters = LaneCharges(), ExecCounters()
    charge = charging.bind_record_read(txn_bytes, stealing)
    charge(charges, counters, nbytes)
    assert _nonzero(charges) == charged
    assert _nonzero(counters) == counted
    charge(charges, counters, nbytes)  # accumulates, never overwrites
    assert _nonzero(charges) == _doubled(charged)
    assert _nonzero(counters) == _doubled(counted)


@pytest.mark.parametrize("nbytes, vec, charged, counted", KV_EMIT)
def test_kv_emit(nbytes, vec, charged, counted):
    charges, counters = LaneCharges(), ExecCounters()
    charging.bind_kv_emit(nbytes, vec)(charges, counters)
    assert _nonzero(charges) == charged
    assert _nonzero(counters) == counted


@pytest.mark.parametrize("kv_bytes, txn_bytes, vec, cooperative, charged",
                         KV_MOVE)
def test_kv_move(kv_bytes, txn_bytes, vec, cooperative, charged):
    charges = LaneCharges()
    charging.bind_kv_move(kv_bytes, txn_bytes, vec, cooperative)(charges)
    assert _nonzero(charges) == charged


def test_math_call():
    charges, counters = LaneCharges(), ExecCounters()
    charging.math_call(charges, counters)
    assert (_nonzero(charges), _nonzero(counters)) == MATH_CALL


@pytest.mark.parametrize("vec, length, charged", STRING_CALL)
def test_string_call(vec, length, charged):
    charges = LaneCharges()
    charging.bind_string_call(vec)(charges, length)
    assert _nonzero(charges) == charged


# -- the counting wrapper ----------------------------------------------------


def _bound_events():
    """(metric, charge function, call arguments) for all six events."""
    return [
        ("gpu.accesses", charging.access,
         lambda ch, cn: (SimpleNamespace(charges=ch),
                         SimpleNamespace(space="global"), False)),
        ("gpu.record_reads", charging.bind_record_read(128, True),
         lambda ch, cn: (ch, cn, 37)),
        ("gpu.kv_emits", charging.bind_kv_emit(34, 4),
         lambda ch, cn: (ch, cn)),
        ("gpu.kv_moves", charging.bind_kv_move(34, 128, 4, True),
         lambda ch, cn: (ch,)),
        ("gpu.math_calls", charging.math_call,
         lambda ch, cn: (ch, cn)),
        ("gpu.string_calls", charging.bind_string_call(4),
         lambda ch, cn: (ch, 30)),
    ]


def test_counted_is_the_bare_closure_when_untraced():
    for metric, charge, _args in _bound_events():
        assert charging.counted(charge, None, metric) is charge


def test_counted_tallies_exactly_its_metric_once_per_event():
    events = _bound_events()
    assert [metric for metric, _c, _a in events] == list(EVENT_COUNTERS)
    for metric, charge, args in events:
        metrics = MetricsRegistry()
        counting = charging.counted(charge, metrics, metric)
        bare_charges, bare_counters = LaneCharges(), ExecCounters()
        charge(*args(bare_charges, bare_counters))
        charges, counters = LaneCharges(), ExecCounters()
        for n in (1, 2, 3):
            counting(*args(charges, counters))
            assert metrics.counters == {metric: float(n)}
        # Counting adds tallies, never cost.
        assert _nonzero(charges) == {
            name: value * 3 for name, value in _nonzero(bare_charges).items()}
        assert _nonzero(counters) == {
            name: value * 3 for name, value in _nonzero(bare_counters).items()}


# -- traced event counters across the lane engines ---------------------------


# The apps with vector regions: inside a region the vector engine folds
# charges statically and replicates the event tallies itself.
@pytest.mark.parametrize("short", ["BS", "KM", "CL"])
def test_traced_event_counters_agree_across_engines(short):
    app = get_app(short)
    text = generate_input(short, "small")
    tallies = {}
    for engine in GPU_ENGINES:
        with use_gpu_engine(engine), \
                obs.use_recorder(obs.TraceRecorder()) as rec:
            LocalJobRunner(app, use_gpu=True, workers=1).run(text)
        tallies[engine] = {name: rec.metrics.count(name)
                           for name in EVENT_COUNTERS}
        if engine == "vector":
            assert rec.metrics.count("gpu.vector.regions") > 0
    assert tallies["vector"]["gpu.accesses"] > 0
    assert tallies["compiled"] == tallies["tree"]
    assert tallies["vector"] == tallies["tree"]
