"""Property-based tests for the discrete-event loop (hypothesis).

The simulator's determinism rests entirely on EventLoop's contract:
time-ordered dispatch with FIFO tie-breaking, monotonically advancing
``now``, a non-reentrant ``run``, an ``until`` early-stop checked after
each event, and a hard event budget against livelock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HadoopError
from repro.hadoop.events import EventLoop

#: Non-negative delays on a coarse grid: many exact ties, no float dust.
delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
              allow_infinity=False).map(lambda d: round(d, 2)),
    min_size=0, max_size=50,
)


@given(delays)
def test_dispatch_order_is_time_sorted_with_fifo_ties(ds):
    loop = EventLoop()
    fired: list[int] = []
    for i, d in enumerate(ds):
        loop.schedule(d, lambda i=i: fired.append(i))
    loop.run()
    assert len(fired) == len(ds)
    # stable sort by scheduled time == time order with FIFO tie-breaking
    assert fired == sorted(range(len(ds)), key=lambda i: ds[i])


@given(delays)
def test_now_is_monotonic_and_matches_scheduled_times(ds):
    loop = EventLoop()
    seen: list[float] = []
    for d in ds:
        loop.schedule(d, lambda: seen.append(loop.now))
    loop.run()
    assert seen == sorted(seen)
    assert seen == sorted(ds)


@given(delays, delays)
def test_events_scheduled_during_run_dispatch_in_order(first, second):
    """Handlers scheduling follow-ups (heartbeat style) keep the order."""
    loop = EventLoop()
    seen: list[float] = []

    def chain(extra):
        seen.append(loop.now)
        for d in extra:
            loop.schedule(d, lambda: seen.append(loop.now))

    for d in first:
        loop.schedule(d, lambda: chain(second))
    loop.run()
    assert seen == sorted(seen)
    assert len(seen) == len(first) * (1 + len(second))


@given(delays.filter(lambda ds: len(ds) >= 1),
       st.integers(min_value=1, max_value=50))
def test_until_stops_after_the_predicate_turns_true(ds, stop_after):
    stop_after = min(stop_after, len(ds))
    loop = EventLoop()
    fired: list[int] = []
    for i, d in enumerate(ds):
        loop.schedule(d, lambda i=i: fired.append(i))
    loop.run(until=lambda: len(fired) >= stop_after)
    # checked after each event: exactly stop_after events ran
    assert len(fired) == stop_after
    assert loop.pending == len(ds) - stop_after


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=30))
def test_event_budget_exhaustion_raises(budget):
    loop = EventLoop()

    def respawn():
        loop.schedule(1.0, respawn)  # livelock on purpose

    loop.schedule(0.0, respawn)
    with pytest.raises(HadoopError, match="event budget exhausted"):
        loop.run(max_events=budget)
    # the loop remains usable (the running flag was released)
    loop2_events: list[float] = []
    loop.schedule(0.5, lambda: loop2_events.append(loop.now))
    with pytest.raises(HadoopError):
        loop.run(max_events=budget)  # respawn chain still queued


def test_run_is_not_reentrant():
    loop = EventLoop()
    errors: list[Exception] = []

    def nested():
        try:
            loop.run()
        except HadoopError as exc:
            errors.append(exc)

    loop.schedule(0.0, nested)
    loop.run()
    assert len(errors) == 1
    assert "not reentrant" in str(errors[0])
    # and the flag is cleared afterwards
    loop.schedule(0.0, lambda: None)
    loop.run()


@given(st.floats(max_value=-1e-9, min_value=-1e6))
def test_negative_delay_rejected(delay):
    loop = EventLoop()
    with pytest.raises(HadoopError):
        loop.schedule(delay, lambda: None)


def test_schedule_at_rejects_the_past():
    loop = EventLoop()
    loop.schedule(5.0, lambda: None)
    loop.run()
    assert loop.now == 5.0
    with pytest.raises(HadoopError):
        loop.schedule_at(4.0, lambda: None)


# -- the (when, scheduled_at, seq) order ---------------------------------------

@given(delays, delays)
def test_default_scheduled_at_is_fifo_on_ties_during_a_run(first, second):
    """Ordinary events carry ``scheduled_at = now``; because ``now`` never
    decreases, the middle key agrees with insertion order and dispatch
    stays "time order, FIFO on ties" — also between events queued before
    the run and events queued by a handler mid-run, through either
    scheduling call."""
    loop = EventLoop()
    whens: list[float] = []
    fired: list[int] = []

    def queue(when, relative):
        i = len(whens)
        whens.append(when)
        if relative:
            loop.schedule(when - loop.now, lambda: fired.append(i))
        else:
            loop.schedule_at(when, lambda: fired.append(i))

    def handler():  # runs at t=50, in the middle of `first`'s range
        for n, d in enumerate(second):
            queue(50.0 + max(d - 50.0, 0.0), relative=bool(n % 2))

    for d in first:
        queue(d, relative=True)
    loop.schedule(50.0, handler)
    loop.run()
    # stable sort by time == time order with FIFO tie-breaking
    assert fired == sorted(range(len(whens)), key=lambda i: whens[i])
    assert loop.dispatched == len(whens) + 1


def test_explicit_scheduled_at_sorts_between_when_and_seq():
    loop = EventLoop()
    fired: list[str] = []

    def at_two():
        # Queued last, but "scheduled" before the event already waiting
        # at t=5 (queued at t=0): on the time tie the earlier
        # scheduled_at wins; an equal one falls back to insertion order.
        loop.schedule_at(5.0, lambda: fired.append("backdated"),
                         scheduled_at=-1.0)
        loop.schedule_at(5.0, lambda: fired.append("same-key-later-seq"),
                         scheduled_at=0.0)
        loop.schedule_at(5.0, lambda: fired.append("ordinary"))
        loop.schedule_at(4.0, lambda: fired.append("earlier-when"),
                         scheduled_at=3.0)

    loop.schedule(5.0, lambda: fired.append("waiting"))
    loop.schedule(2.0, at_two)
    loop.run()
    assert fired == ["earlier-when", "backdated", "waiting",
                     "same-key-later-seq", "ordinary"]


def test_scheduled_at_of_the_running_event_is_exposed():
    loop = EventLoop()
    seen: list[tuple[float, float]] = []

    def note():
        seen.append((loop.now, loop.scheduled_at))

    loop.schedule(1.0, lambda: loop.schedule(2.0, note))
    loop.schedule_at(7.0, note, scheduled_at=6.5)
    loop.run()
    assert seen == [(3.0, 1.0), (7.0, 6.5)]


@given(delays)
def test_dispatched_counts_every_event_across_runs(ds):
    loop = EventLoop()
    for d in ds:
        loop.schedule(d, lambda: None)
    loop.run()
    assert loop.dispatched == len(ds)
    loop.schedule(1.0, lambda: None)
    loop.run()
    assert loop.dispatched == len(ds) + 1
