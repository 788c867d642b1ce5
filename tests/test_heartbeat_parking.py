"""Event-driven heartbeats against polling.

``ClusterSimulator`` parks a TaskTracker whose next heartbeats cannot
change anything and wakes it on the events that can. Polling — every
tracker re-schedules a heartbeat every interval, whatever its state —
is the behaviour that replaced, and it no longer exists in ``src/``:
the subclass below, which never finds a tracker dormant, *is* the
polling simulator. Everything observable must be equal between the two,
bit for bit — the job result, every recorder counter and gauge
(``sim.heartbeats`` counts parked ticks arithmetically) and the whole
trace-event stream — including on configurations built to produce exact
float ties between heartbeat ticks and task completions (no jitter,
dyadic interval and durations, failures at half duration).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import CLUSTER1
from repro.errors import HadoopError
from repro.hadoop import ClusterSimulator, JobConf
from repro.scheduling import get_policy, policy_names


class PollingSimulator(ClusterSimulator):
    """No tracker is ever dormant: every heartbeat is dispatched."""

    def _dormant(self, tracker) -> bool:
        return False


#: (heartbeat interval, CPU task seconds, GPU task seconds). The first
#: is the registry's shape; the dyadic ones put completions (and, with
#: failures, half-durations) exactly on heartbeat ticks, the last with
#: GPU tasks shorter than the interval, so that an event landing on a
#: tick can have been scheduled after the heartbeat it ties with.
TIMINGS = [(0.6, 60.0, 10.0), (0.5, 30.0, 4.0), (0.5, 0.5, 0.25),
           (0.5, 4.0, 0.25)]

#: (nodes, CPU slots per node, GPUs per node). Eight nodes stagger the
#: trackers by a dyadic fraction of the interval: their grids tie with
#: each other's completions, not only with their own.
SHAPES = [(3, 2, 1), (5, 1, 2), (8, 4, 1), (12, 2, 0)]


def observe(cls, policy, shape, maps, timing, jitter, failure_rate,
            seed, slow_node):
    nodes, slots, gpus = shape
    interval, cpu, gpu = timing
    cluster = replace(CLUSTER1, num_slaves=nodes, gpus_per_node=gpus,
                      max_map_slots_per_node=slots,
                      heartbeat_interval_s=interval)
    job = JobConf(name="parking", num_map_tasks=maps, num_reduce_tasks=2,
                  cluster=cluster, cpu_task_seconds=cpu,
                  gpu_task_seconds=gpu, duration_jitter=jitter, seed=seed,
                  failure_rate=failure_rate,
                  node_speed_factors={0: 4.0} if slow_node else None)
    with obs.use_recorder(obs.TraceRecorder()) as rec:
        sim = cls(job, get_policy(policy))
        try:
            result = sim.run()
        except HadoopError as exc:    # a task out of attempts aborts the job
            return {"aborted": str(exc)}, sim
    trace = obs.export_chrome(rec)
    return {
        "result": result,
        "metrics": trace["otherData"]["metrics"],
        "events": trace["traceEvents"],
    }, sim


@pytest.mark.parametrize("policy", policy_names())
@given(shape=st.sampled_from(SHAPES),
       maps=st.integers(min_value=1, max_value=120),
       timing=st.sampled_from(TIMINGS),
       jitter=st.sampled_from([0.04, 0.0]),
       failure_rate=st.sampled_from([0.0, 0.1]),
       seed=st.integers(min_value=0, max_value=10_000),
       slow_node=st.booleans())
@settings(max_examples=100, deadline=None)
def test_parking_is_indistinguishable_from_polling(policy, **case):
    polled, polling_sim = observe(PollingSimulator, policy, **case)
    shipped, sim = observe(ClusterSimulator, policy, **case)
    for key in polled:
        assert shipped[key] == polled[key], key
    assert sim.loop.dispatched <= polling_sim.loop.dispatched


def test_parking_dispatches_a_fraction_of_the_heartbeats():
    """The comparison above would also pass if nothing ever parked."""
    case = dict(policy="tail", shape=(8, 4, 1), maps=120,
                timing=(0.6, 60.0, 10.0), jitter=0.04, failure_rate=0.0,
                seed=7, slow_node=False)
    polled, polling_sim = observe(PollingSimulator, **case)
    shipped, sim = observe(ClusterSimulator, **case)
    assert shipped == polled
    heartbeats = shipped["metrics"]["counters"]["sim.heartbeats"]
    assert polling_sim.loop.dispatched > heartbeats   # every beat an event
    assert sim.loop.dispatched < heartbeats / 4
    assert not polling_sim._parked and sim._parked


@pytest.mark.parametrize("timing, failure_rate, seed", [
    ((0.5, 4.0, 0.25), 0.1, 3),
    ((1.0, 8.0, 0.25), 0.3, 7),
    ((0.5, 0.25, 0.125), 0.1, 3),
])
def test_tick_tying_with_a_later_scheduled_event_was_sent(
        timing, failure_rate, seed):
    """The last map completes exactly on a parked tracker's tick, in an
    attempt started after that tick's heartbeat would have been queued:
    polling dispatches (and counts) the heartbeat first. ``tick < when``
    alone undercounts ``sim.heartbeats`` by one on each of these."""
    case = dict(policy="tail", shape=(8, 4, 1), maps=60, timing=timing,
                jitter=0.0, failure_rate=failure_rate, seed=seed,
                slow_node=False)
    polled, _ = observe(PollingSimulator, **case)
    shipped, _ = observe(ClusterSimulator, **case)
    assert shipped == polled


def test_requeued_work_wakes_trackers_parked_for_lack_of_it():
    """Fewer tasks than slots: trackers with free slots park once
    nothing is pending; when an attempt fails, the retry goes to
    whichever of them polling would have had heartbeat next."""
    case = dict(policy="gpu-first", shape=(3, 2, 1), maps=4,
                timing=(0.5, 30.0, 4.0), jitter=0.0, failure_rate=0.45,
                slow_node=False)
    failures = 0
    for seed in range(12):
        polled, _ = observe(PollingSimulator, seed=seed, **case)
        shipped, _ = observe(ClusterSimulator, seed=seed, **case)
        assert shipped == polled
        if "result" in shipped:
            failures += shipped["result"].failures
    assert failures > 0
