"""Property-based tests for the scheduling policies (hypothesis).

The JobTracker + policy pair is driven directly with arbitrary
heartbeat orderings — interleaved grants, completions, and idle beats
from whichever node hypothesis picks — and three invariants must hold
for every policy in the registry:

* **no double assignment** — a task is granted to at most one tracker
  at a time (every granted id is PENDING at grant, and with no failures
  each task is granted exactly once over the whole run);
* **work conservation** — a heartbeat advertising at least one free
  slot while maps are pending is never sent away empty;
* **no lost tasks** — after any prefix of arbitrary heartbeats, a
  bounded round-robin drain completes every task.

Grants are also bounded by the advertised free slots, so no ordering
can oversubscribe a tracker.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hadoop.heartbeat import Heartbeat
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.tasks import MapTask, TaskState
from repro.scheduling import POLICIES, get_policy

POLICY_NAMES = sorted(POLICIES)

MAX_SLAVES = 6
MAX_SLOTS = 4          # free CPU slots a heartbeat may advertise
MAX_GPUS = 2


@st.composite
def schedules(draw):
    """A cluster, a task pool with replica placements, and a heartbeat
    script: (node, free_cpu, free_gpu, completions-before-beat)."""
    num_slaves = draw(st.integers(min_value=1, max_value=MAX_SLAVES))
    gpus = draw(st.integers(min_value=0, max_value=MAX_GPUS))
    nodes = st.integers(min_value=0, max_value=num_slaves - 1)
    prefs = st.lists(nodes, min_size=0, max_size=3).map(tuple)
    task_prefs = draw(st.lists(prefs, min_size=1, max_size=30))
    beats = st.tuples(nodes,
                      st.integers(min_value=0, max_value=MAX_SLOTS),
                      st.integers(min_value=0, max_value=gpus),
                      st.integers(min_value=0, max_value=3))
    script = draw(st.lists(beats, min_size=1, max_size=40))
    speedup = draw(st.floats(min_value=1.0, max_value=30.0))
    return num_slaves, gpus, task_prefs, script, speedup


def _grant(jt: JobTracker, running: deque, granted: Counter,
           node: int, free_cpu: int, free_gpu: int,
           speedup: float, now: float) -> None:
    pending_before = jt.pending_maps
    hb = Heartbeat(node=node, free_cpu_slots=free_cpu,
                   free_gpu_slots=free_gpu, ave_gpu_speedup=speedup)
    response = jt.handle_heartbeat(hb)
    # Slot bound: a grant never exceeds the advertised free slots.
    assert len(response.task_ids) <= free_cpu + free_gpu
    # Work conservation: free slots + pending work => at least one task.
    if pending_before > 0 and free_cpu + free_gpu > 0:
        assert response.task_ids, (
            f"{jt.policy.name}: empty grant with {pending_before} pending "
            f"and {free_cpu}+{free_gpu} free slots")
    for task_id in response.task_ids:
        task = jt.get_task(task_id)
        # No double assignment: granted ids are PENDING, exactly once.
        assert task.state is TaskState.PENDING
        assert granted[task_id] == 0
        granted[task_id] += 1
        task.assign(node, now)
        running.append(task)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@given(schedule=schedules())
@settings(max_examples=60, deadline=None)
def test_policy_invariants_under_arbitrary_heartbeats(policy_name, schedule):
    num_slaves, gpus, task_prefs, script, speedup = schedule
    tasks = [MapTask(task_id=i, preferred_nodes=p)
             for i, p in enumerate(task_prefs)]
    jt = JobTracker(tasks=tasks, policy=POLICIES[policy_name](),
                    num_slaves=num_slaves, gpus_per_node=gpus)
    running: deque[MapTask] = deque()
    granted: Counter[int] = Counter()
    now = 0.0

    for node, free_cpu, free_gpu, completions in script:
        for _ in range(min(completions, len(running))):
            task = running.popleft()
            now += 1.0
            task.complete(now)
            jt.note_completed(task)
        now += 1.0
        _grant(jt, running, granted, node, free_cpu, free_gpu, speedup, now)

    # No lost tasks: a bounded round-robin drain finishes the job from
    # any intermediate state the script left behind.
    for _ in range(len(tasks) + 1):
        if jt.all_maps_done and not running:
            break
        while running:
            task = running.popleft()
            now += 1.0
            task.complete(now)
            jt.note_completed(task)
        for node in range(num_slaves):
            now += 1.0
            _grant(jt, running, granted, node, MAX_SLOTS, gpus, speedup, now)
    assert jt.all_maps_done and not running
    assert all(t.state is TaskState.COMPLETED for t in tasks)
    assert granted == Counter({t.task_id: 1 for t in tasks})
    assert jt.pending_maps == 0


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_policy_registry_entry_is_well_formed(policy_name):
    policy = POLICIES[policy_name]()
    assert policy.name == policy_name
    assert isinstance(policy.uses_gpus, bool)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@given(remaining=st.integers(min_value=0, max_value=100_000),
       gpus=st.integers(min_value=0, max_value=8),
       max_speedup=st.floats(min_value=1.0, max_value=100.0),
       num_slaves=st.integers(min_value=1, max_value=2000))
def test_no_free_slot_means_no_grant(policy_name, remaining, gpus,
                                     max_speedup, num_slaves):
    """The ``SchedulingPolicy`` contract the simulator's parked
    heartbeats rest on: nothing advertised, nothing granted — in and out
    of the job tail, whatever is pending."""
    assert get_policy(policy_name).tasks_to_grant(
        free_cpu_slots=0, free_gpu_slots=0, remaining=remaining,
        num_gpus_per_node=gpus, max_speedup=max_speedup,
        num_slaves=num_slaves) <= 0
