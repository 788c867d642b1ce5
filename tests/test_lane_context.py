"""One execution context per lane, pinned.

A GPU thread is one object — :class:`repro.gpu.engine.Lane` — for the
length of its run: the runner constructs it, every generated unit takes
it as ``rt`` and every builtin receives it as its first argument.
Nothing launch-wide is re-pointed at "the lane that is executing", so
there is nothing for one lane to leave behind in the next. This suite
watches a WC map + combine launch (no vector regions: the per-lane
fallback) and a KM map launch (vector regions: the warp spine) under the
two engines that run generated code:

* ``Lane.__init__`` is wrapped to list every lane constructed;
* a profile hook lists every call into a generated unit
  (``<minic:...>`` code) with the ``rt`` and ``frame`` it was given;
* every entry of the launch's builtin table is wrapped to list the
  context it received next to the ``rt`` of the unit that called it.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

import pytest

pytest.importorskip("numpy")

from repro.apps import get_app
from repro.apps.wordcount import MAP_SOURCE
from repro.config import CLUSTER1
from repro.errors import CRuntimeError
from repro.gpu import engine as gpu_engine
from repro.gpu import executor as gpu_executor
from repro.gpu.charging import LaneCharges
from repro.gpu.device import GpuDevice
from repro.gpu.engine import CompiledLaneRunner, Lane
from repro.gpu.executor import (
    prepare_shared_ro,
    run_combine_kernel,
    run_map_kernel,
)
from repro.gpu.vector import VectorLaneRunner
from repro.kvstore import GlobalKVStore, Partitioner
from repro.minic.interpreter import ExecCounters, use_engine

from .test_gpu_compile_backend import _combine_inputs
from .test_gpu_vector_engine import _map_setup, _store_pairs
from .test_gpu_vector_safety import REGION, _kernel, _records

ENGINES = ("compiled", "vector")
RUNNERS = {"compiled": CompiledLaneRunner, "vector": VectorLaneRunner}
_DEVICE = GpuDevice(CLUSTER1.gpu)


def _unit_frame(frame):
    """The nearest generated-unit frame at or above ``frame``."""
    while frame is not None:
        if frame.f_code.co_filename.startswith("<minic:"):
            return frame
        frame = frame.f_back
    return None


class _Probe:
    def __init__(self):
        self.built: list[Lane] = []
        #: (rt, frame or None) per call into generated code
        self.unit_calls: list[tuple] = []
        #: (context received, rt of the calling unit — None when the
        #: tree engine called) per builtin call
        self.builtin_calls: list[tuple] = []
        #: len(batch) per run_map_warp the executor issued
        self.batches: list[int] = []

    def spied(self, table):
        def spy(typed):
            def entry(ctx, *args):
                unit = _unit_frame(sys._getframe(1))
                self.builtin_calls.append(
                    (ctx, unit.f_locals["rt"] if unit is not None else None))
                return typed(ctx, *args)

            return entry

        return {name: spy(entry) for name, entry in table.items()}

    def profile(self, frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "unit" \
                and code.co_filename.startswith("<minic:"):
            self.unit_calls.append((frame.f_locals["rt"],
                                    frame.f_locals.get("frame")))

    def check(self, expected_lanes):
        built = self.built
        assert len(built) == expected_lanes
        assert len({id(lane) for lane in built}) == expected_lanes
        ours = {id(lane) for lane in built}
        assert self.unit_calls and self.builtin_calls
        for rt, frame in self.unit_calls:
            assert rt.__class__ is Lane and id(rt) in ours
            if frame is not None:  # a unit, not a whole mini-C function
                assert frame is rt.frame
        # Every lane ran, and ran on its own frame.
        assert {id(rt) for rt, _frame in self.unit_calls} == ours
        assert len({id(lane.frame) for lane in built}) == expected_lanes
        for ctx, rt in self.builtin_calls:
            assert ctx is rt


@pytest.fixture
def probe(monkeypatch):
    probe = _Probe()
    init = Lane.__init__

    def counting_init(lane, *args, **kwargs):
        init(lane, *args, **kwargs)
        # Born clean: nothing carried over from whichever lane ran last.
        assert lane.counters == ExecCounters() and lane.heap == []
        assert (lane.index, lane.steps, lane.output) == (0, 0, [])
        probe.built.append(lane)

    monkeypatch.setattr(Lane, "__init__", counting_init)
    # A spied table per launch, kept off the kernel's table cache.
    make = {True: gpu_engine.make_map_builtins,
            False: gpu_engine.make_combine_builtins}
    monkeypatch.setattr(
        gpu_engine, "device_builtins",
        lambda kernel, *args: probe.spied(make[kernel.is_mapper](kernel,
                                                                 *args)))
    make_runner = gpu_executor._make_lane_runner

    def watched_runner(*args, **kwargs):
        runner = make_runner(*args, **kwargs)
        run_map_warp = runner.run_map_warp

        def counting_warp(batch):
            probe.batches.append(len(batch))
            return run_map_warp(batch)

        runner.run_map_warp = counting_warp
        return runner

    monkeypatch.setattr(gpu_executor, "_make_lane_runner", watched_runner)
    yield probe
    sys.setprofile(None)


def _map_launch(app, n, engine, probe):
    kernel, snapshot = _map_setup(app)
    records = [ln.encode("utf-8") + b"\n"
               for ln in app.generate(n, seed=5).splitlines()]
    store = GlobalKVStore(kernel.launch.total_threads,
                          kernel.launch.total_threads * 64,
                          kernel.key_length, kernel.value_length)
    with use_engine(engine):
        sys.setprofile(probe.profile)
        try:
            launch = run_map_kernel(_DEVICE, kernel, records, snapshot,
                                    store, Partitioner(4))
        finally:
            sys.setprofile(None)
    return launch, records


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tag, n", [("WC", 60), ("KM", 40)])
def test_map_launch_constructs_one_lane_per_active_lane(tag, n, engine,
                                                        probe):
    launch, records = _map_launch(get_app(tag), n, engine, probe)
    assert launch.records_processed == len(records)
    [active] = probe.batches
    assert 1 < active <= len(records)
    probe.check(expected_lanes=active)
    # The lanes are the launch: its records, its thread ids, its counters.
    assert sorted(rec for lane in probe.built for rec in lane.records) \
        == sorted(records)
    assert len({lane.global_tid for lane in probe.built}) == active
    total = ExecCounters()
    for lane in probe.built:
        assert lane.index == len(lane.records)  # each drained its own
        total.add(lane.counters)
    assert total == launch.counters


def test_tree_lanes_hand_builtins_the_same_kind_of_object(probe):
    """The reference engine tree-walks, but over the same Lane: one per
    active lane, and it — not the interpreter — is what builtins get."""
    launch, records = _map_launch(get_app("WC"), 60, "tree", probe)
    [active] = probe.batches
    assert len(probe.built) == active and not probe.unit_calls
    ours = {id(lane) for lane in probe.built}
    assert probe.builtin_calls
    for ctx, rt in probe.builtin_calls:
        assert rt is None and ctx.__class__ is Lane and id(ctx) in ours
    total = ExecCounters()
    for lane in probe.built:
        total.add(lane.counters)
    assert total == launch.counters


@pytest.mark.parametrize("engine", ENGINES)
def test_combine_launch_constructs_one_lane_per_chunk(engine, probe):
    kernel, pairs, snapshot = _combine_inputs(get_app("WC"), n=120)
    probe.built.clear()  # _combine_inputs ran the CPU map filter
    with use_engine(engine):
        sys.setprofile(probe.profile)
        try:
            result = run_combine_kernel(_DEVICE, kernel, pairs, snapshot)
        finally:
            sys.setprofile(None)
    assert result.chunks > 1
    probe.check(expected_lanes=result.chunks)
    assert [pair for lane in probe.built for pair in lane.chunk] == pairs
    assert [kv for lane in probe.built for kv in lane.output] \
        == result.output


def _run_batch(runner, values, charges):
    batch = [(rec, tid, ch) for tid, (rec, ch) in
             enumerate(zip(([r] for r in _records(values)), charges))]
    return runner.run_map_warp(batch)


@pytest.mark.parametrize("engine", ENGINES)
def test_lanes_after_a_faulted_lane_start_clean(engine, probe):
    """Lane 1 divides by zero mid-body; the runner then runs a clean
    batch. With no launch-wide 'current lane' there is nothing for the
    fault to leave behind: the later lanes are born zeroed (the fixture
    asserts it at construction) and end exactly as on a fresh runner."""
    kernel, snapshot = _kernel(REGION % "acc += 1.0 / den;")

    def runner():
        store = GlobalKVStore(kernel.launch.total_threads,
                              kernel.launch.total_threads * 64,
                              kernel.key_length, kernel.value_length)
        return RUNNERS[engine](_DEVICE, kernel, snapshot,
                               prepare_shared_ro(kernel, snapshot), store,
                               Partitioner(4)), store

    faulted, store = runner()
    with pytest.raises(CRuntimeError, match="division by zero"):
        _run_batch(faulted, [3, 0, 2], [LaneCharges() for _ in range(3)])
    doomed = list(probe.built)
    assert doomed[1].index == 1 and doomed[1].counters != ExecCounters()
    # Run the clean batch on fresh thread ids of the same store.
    clean = [4, 5, 6]
    after_fault = [LaneCharges() for _ in clean]
    counters = _run_batch(faulted, clean, after_fault)
    later = probe.built[len(doomed):]
    assert len(later) == len(clean)
    assert not {id(lane) for lane in later} & {id(lane) for lane in doomed}
    fresh, fresh_store = runner()
    on_fresh = [LaneCharges() for _ in clean]
    assert counters == _run_batch(fresh, clean, on_fresh)
    assert [asdict(ch) for ch in after_fault] \
        == [asdict(ch) for ch in on_fresh]
    assert [lane.counters for lane in later] == counters
    assert all(lane.index == 1 and lane.heap == [] for lane in later)


@pytest.mark.parametrize("engine", ENGINES)
def test_helper_kernels_get_fresh_globals_per_lane(engine, probe):
    """A ``__device__`` helper binds predefined identifiers from the
    lane's ``globals`` and may write them, so a kernel with helpers gives
    every lane its own; a helper-less kernel shares one launch-wide
    dict (its body binds globals through the env plan instead)."""
    source = "int bump() { EOF = EOF - 1; return EOF; }\n" + \
        MAP_SOURCE.replace("one = 1;", "one = bump();")
    kernel, snapshot = _map_setup(source)
    assert [f.name for f in kernel.helpers] == ["bump"]
    records = [b"a b\n", b"c\n", b"d e f\n"]
    stores = {}
    for name in ("tree", engine):
        stores[name] = GlobalKVStore(kernel.launch.total_threads,
                                     kernel.launch.total_threads * 64,
                                     kernel.key_length, kernel.value_length)
        with use_engine(name):
            run_map_kernel(_DEVICE, kernel, records, snapshot, stores[name],
                           Partitioner(4))
        if name == "tree":
            probe.built.clear()
    pairs = _store_pairs(stores[engine])
    assert pairs == _store_pairs(stores["tree"])
    # One record, so one bump(), per lane — each from its own EOF = -1;
    # on a shared dict the second lane would emit -3.
    assert [value for _tid, _key, value, _part in pairs] == [-2] * 6
    assert len({tid for tid, _key, _value, _part in pairs}) == 3
    assert len({id(lane.globals) for lane in probe.built}) \
        == len(probe.built) == 3

    probe.built.clear()
    wc_kernel, wc_snapshot = _map_setup(get_app("WC"))
    with use_engine(engine):
        run_map_kernel(_DEVICE, wc_kernel, records, wc_snapshot,
                       GlobalKVStore(wc_kernel.launch.total_threads,
                                     wc_kernel.launch.total_threads * 64,
                                     wc_kernel.key_length,
                                     wc_kernel.value_length),
                       Partitioner(4))
    assert len(probe.built) == 3
    assert len({id(lane.globals) for lane in probe.built}) == 1
