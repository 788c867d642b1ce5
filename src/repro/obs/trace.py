"""Structured tracing: spans, instants, and counter samples.

The recorder model
------------------

One process-global *recorder* is active at any time. The default is a
:class:`NullRecorder` whose ``enabled`` flag is ``False`` — every
instrumentation site in the runner, simulator, and GPU engine guards its
work behind that single attribute check, so tracing costs one branch
when off. Tests and the ``repro trace`` / ``repro stats`` CLI install a
:class:`TraceRecorder` with :func:`use_recorder`.

Events live on *tracks* — a ``(pid, tid)`` pair matching the Chrome
trace-event model: the pid groups a timeline (a cluster node, the GPU
device, the local job), the tid is one lane within it (a CPU/GPU slot,
an SM, the task pipeline).

Clocks
------

Every timestamp is in **simulated seconds** — the EventLoop's ``now`` in
the cluster simulator, or the cost models' charged seconds in the
functional runner and GPU pipeline. Simulated time is deterministic, so
identical runs produce byte-identical traces (the golden-trace tests
rely on this). A span can *additionally* carry host wall-clock seconds
(``wall_dur``, from ``time.perf_counter``) when the recorder is built
with ``record_wall=True``; wall durations never enter the canonical
export (see :mod:`repro.obs.export`), they only feed overhead triage.

Sites that have no global clock (the functional runner lays tasks out
one after another) omit ``ts``: each track keeps a *cursor* — the end of
the last span recorded on it — and cursor-mode spans start there, so a
sequential execution renders as a contiguous timeline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..errors import ReproError
from .metrics import MetricsRegistry

__all__ = [
    "SpanEvent", "InstantEvent", "CounterEvent",
    "NullRecorder", "TraceRecorder", "NULL_RECORDER",
    "active", "install", "use_recorder",
]


@dataclass
class SpanEvent:
    """One completed (or still-open) span on a track."""

    name: str
    cat: str
    pid: str
    tid: str
    ts: float                      # simulated seconds
    dur: float | None = None       # None while the span is open
    args: dict[str, Any] = field(default_factory=dict)
    wall_dur: float | None = None  # host seconds (optional second clock)
    _wall_start: float | None = None

    @property
    def end(self) -> float:
        if self.dur is None:
            raise ReproError(f"span {self.name!r} is still open")
        return self.ts + self.dur


@dataclass
class InstantEvent:
    """A point event (a heartbeat grant, a tail-forcing decision)."""

    name: str
    cat: str
    pid: str
    tid: str
    ts: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class CounterEvent:
    """A sampled counter series value (Chrome renders these as areas)."""

    name: str
    pid: str
    ts: float
    values: dict[str, float] = field(default_factory=dict)


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Instrumentation sites check ``enabled`` once and skip span/metric
    construction entirely, so a disabled run pays one attribute load per
    site — the "near-zero overhead" contract ``perf/run.py`` measures as
    ``obs.recorder_overhead_pct``.
    """

    enabled = False

    def begin(self, *a: Any, **k: Any) -> None:
        return None

    def end(self, *a: Any, **k: Any) -> None:
        return None

    def complete(self, *a: Any, **k: Any) -> None:
        return None

    def instant(self, *a: Any, **k: Any) -> None:
        return None

    def counter(self, *a: Any, **k: Any) -> None:
        return None

    def inc(self, *a: Any, **k: Any) -> None:
        return None

    def gauge(self, *a: Any, **k: Any) -> None:
        return None

    @contextmanager
    def span(self, *a: Any, **k: Any) -> Iterator[None]:
        yield None


class TraceRecorder:
    """Collects spans/instants/counters plus a metrics registry."""

    enabled = True

    def __init__(self, record_wall: bool = False) -> None:
        self.events: list[SpanEvent | InstantEvent | CounterEvent] = []
        self.metrics = MetricsRegistry()
        self.record_wall = record_wall
        #: Per-track stack of open spans (nesting) and time cursor.
        self._open: dict[tuple[str, str], list[SpanEvent]] = {}
        self._cursor: dict[tuple[str, str], float] = {}
        #: Tracks in first-seen order (drives export metadata).
        self.tracks: list[tuple[str, str]] = []

    # -- track bookkeeping ---------------------------------------------------

    def _track(self, pid: str, tid: str) -> tuple[str, str]:
        key = (pid, tid)
        if key not in self._cursor:
            self._cursor[key] = 0.0
            self._open[key] = []
            self.tracks.append(key)
        return key

    def cursor(self, pid: str, tid: str) -> float:
        """The end of the last span recorded on a track (0.0 if none)."""
        return self._cursor.get((pid, tid), 0.0)

    def _advance(self, key: tuple[str, str], ts: float) -> None:
        if ts > self._cursor[key]:
            self._cursor[key] = ts

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, cat: str, pid: str, tid: str,
              ts: float | None = None,
              args: dict[str, Any] | None = None) -> SpanEvent:
        """Open a span; nested under the track's currently open span."""
        key = self._track(pid, tid)
        open_stack = self._open[key]
        if ts is None:
            ts = open_stack[-1].ts if open_stack else self._cursor[key]
            ts = max(ts, self._cursor[key])
        span = SpanEvent(name=name, cat=cat, pid=pid, tid=tid, ts=ts,
                         args=args or {})
        if self.record_wall:
            span._wall_start = time.perf_counter()
        open_stack.append(span)
        self.events.append(span)
        return span

    def end(self, span: SpanEvent, ts: float | None = None,
            args: dict[str, Any] | None = None) -> SpanEvent:
        """Close a span. ``ts`` defaults to the track cursor (covering
        every child span recorded meanwhile)."""
        key = (span.pid, span.tid)
        stack = self._open.get(key, [])
        if span not in stack:
            raise ReproError(f"span {span.name!r} is not open on {key}")
        if stack[-1] is not span:
            raise ReproError(
                f"span {span.name!r} closed out of order on {key} "
                f"(innermost open is {stack[-1].name!r})"
            )
        stack.pop()
        if ts is None:
            ts = max(self._cursor[key], span.ts)
        if ts < span.ts:
            raise ReproError(
                f"span {span.name!r} ends at {ts} before it starts ({span.ts})"
            )
        span.dur = ts - span.ts
        if args:
            span.args.update(args)
        if span._wall_start is not None:
            span.wall_dur = time.perf_counter() - span._wall_start
            span._wall_start = None
        self._advance(key, ts)
        return span

    @contextmanager
    def span(self, name: str, cat: str, pid: str, tid: str,
             ts: float | None = None,
             args: dict[str, Any] | None = None) -> Iterator[SpanEvent]:
        handle = self.begin(name, cat, pid, tid, ts=ts, args=args)
        try:
            yield handle
        finally:
            if handle.dur is None:  # allow an explicit early end()
                self.end(handle)

    def complete(self, name: str, cat: str, pid: str, tid: str, dur: float,
                 ts: float | None = None,
                 args: dict[str, Any] | None = None) -> SpanEvent:
        """Record an already-measured span in one call.

        Cursor mode (``ts=None``) appends it after the last span on the
        track — the functional runner uses this to lay per-task phase
        durations out as a contiguous timeline.
        """
        if dur < 0:
            raise ReproError(f"span {name!r} has negative duration {dur}")
        key = self._track(pid, tid)
        if ts is None:
            ts = self._cursor[key]
        span = SpanEvent(name=name, cat=cat, pid=pid, tid=tid, ts=ts,
                         dur=dur, args=args or {})
        self.events.append(span)
        self._advance(key, ts + dur)
        return span

    def tiled(self, name: str, cat: str, pid: str, tid: str,
              phases: Iterable[tuple[str, float]],
              args: dict[str, Any] | None = None) -> SpanEvent:
        """One cursor-mode span tiled by ``(phase, seconds)`` children.

        The shape of every functional task span — CPU map task, GPU
        task, reduce task: the ``phase`` children lie end to end and the
        span closes at the last one's end, so a task's phase durations
        sum to its span's by construction (the span-invariant the trace
        tests assert, and what the Fig. 6 breakdown is read back from).
        """
        span = self.begin(name, cat, pid, tid, args=args)
        for phase, seconds in phases:
            self.complete(phase, "phase", pid, tid, seconds)
        return self.end(span)

    # -- instants / counters -------------------------------------------------

    def instant(self, name: str, cat: str, pid: str, tid: str,
                ts: float | None = None,
                args: dict[str, Any] | None = None) -> InstantEvent:
        key = self._track(pid, tid)
        if ts is None:
            ts = self._cursor[key]
        event = InstantEvent(name=name, cat=cat, pid=pid, tid=tid, ts=ts,
                             args=args or {})
        self.events.append(event)
        return event

    def counter(self, name: str, pid: str, values: dict[str, float],
                ts: float) -> CounterEvent:
        event = CounterEvent(name=name, pid=pid, ts=ts, values=dict(values))
        self.events.append(event)
        return event

    # -- cross-process merge -------------------------------------------------

    def splice(self, events: list[SpanEvent | InstantEvent | CounterEvent],
               pid_suffix: str = "") -> None:
        """Merge events recorded by another (per-worker) recorder.

        Worker recorders start their clocks at 0 for every task, so each
        spliced track is *rebased*: the first time a source track appears
        in this call, its base becomes the destination track's current
        cursor, and every event from that source track shifts by that
        base. Relative timing within a track is preserved, so spans that
        nested (or were disjoint) at the source still nest (or stay
        disjoint) at the destination — the per-track invariants the span
        checker enforces survive the merge. ``pid_suffix`` maps worker
        tracks onto distinct destination pids (e.g. ``"@w1234"`` for the
        worker with OS pid 1234) so the Chrome export shows true
        process-level overlap.
        """
        bases: dict[tuple[str, str], float] = {}
        for event in events:
            pid = event.pid + pid_suffix
            tid = event.tid if not isinstance(event, CounterEvent) else ""
            src = (event.pid, event.tid if not isinstance(event, CounterEvent)
                   else "")
            key = self._track(pid, tid or "counters")
            if src not in bases:
                bases[src] = self._cursor[key]
            base = bases[src]
            if isinstance(event, SpanEvent):
                if event.dur is None:
                    raise ReproError(
                        f"cannot splice open span {event.name!r}"
                    )
                copied = SpanEvent(
                    name=event.name, cat=event.cat, pid=pid, tid=tid,
                    ts=base + event.ts, dur=event.dur,
                    args=dict(event.args), wall_dur=event.wall_dur,
                )
                self.events.append(copied)
                self._advance(key, copied.ts + copied.dur)
            elif isinstance(event, InstantEvent):
                self.events.append(InstantEvent(
                    name=event.name, cat=event.cat, pid=pid, tid=tid,
                    ts=base + event.ts, args=dict(event.args),
                ))
            else:
                self.events.append(CounterEvent(
                    name=event.name, pid=pid, ts=base + event.ts,
                    values=dict(event.values),
                ))

    # -- metrics passthrough -------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        self.metrics.inc(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    # -- introspection -------------------------------------------------------

    def open_spans(self) -> list[SpanEvent]:
        """Spans begun but not yet ended (must be empty after a run)."""
        return [s for stack in self._open.values() for s in stack]

    def spans(self, cat: str | None = None) -> list[SpanEvent]:
        return [
            e for e in self.events
            if isinstance(e, SpanEvent) and (cat is None or e.cat == cat)
        ]


#: The process-wide disabled recorder (shared; it has no state).
NULL_RECORDER = NullRecorder()

_active: NullRecorder | TraceRecorder = NULL_RECORDER


def active() -> NullRecorder | TraceRecorder:
    """The recorder instrumentation sites talk to."""
    return _active


def install(recorder: NullRecorder | TraceRecorder) \
        -> NullRecorder | TraceRecorder:
    """Swap the active recorder; returns the previous one."""
    global _active
    previous = _active
    _active = recorder
    return previous


@contextmanager
def use_recorder(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Activate a recorder for the duration of a ``with`` block."""
    previous = install(recorder)
    try:
        yield recorder
    finally:
        install(previous)
