"""Reusable invariant checks over a filled TraceRecorder.

The trace tests import these; they codify what every recorded run must
satisfy regardless of workload:

* every opened span was closed;
* on any one track, spans either nest or are disjoint — no partial
  overlap (the Chrome renderer assumes this, and the recorder's
  cursor/stack discipline is supposed to guarantee it);
* a span with children covers them (parent interval ⊇ child intervals);
* per GPU/CPU task, the ``phase`` children tile the task span: their
  durations sum to the task's duration (which is the pipeline's
  reported simulated seconds for that task).
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs import SpanEvent, TraceRecorder

#: Float slack for sums accumulated in a different order than the
#: original addition (cursor advancement vs straight summation).
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def spans_by_track(rec: TraceRecorder) -> dict[tuple[str, str], list[SpanEvent]]:
    tracks: dict[tuple[str, str], list[SpanEvent]] = defaultdict(list)
    for span in rec.spans():
        tracks[(span.pid, span.tid)].append(span)
    return tracks


def assert_all_closed(rec: TraceRecorder) -> None:
    still_open = rec.open_spans()
    assert not still_open, (
        f"{len(still_open)} span(s) never closed: "
        + ", ".join(s.name for s in still_open)
    )


def assert_no_partial_overlap(rec: TraceRecorder) -> None:
    """On each track, any two spans nest or are disjoint."""
    eps = REL_TOL
    for track, spans in spans_by_track(rec).items():
        ordered = sorted(spans, key=lambda s: (s.ts, -(s.dur or 0.0)))
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if b.ts >= a.end - eps:
                    break  # sorted: every later span starts after a ends
                # b starts inside a: it must end inside a too.
                assert b.end <= a.end + eps * max(a.end, 1.0), (
                    f"track {track}: span {b.name!r} [{b.ts}, {b.end}] "
                    f"partially overlaps {a.name!r} [{a.ts}, {a.end}]"
                )


def phase_children(rec: TraceRecorder, parent: SpanEvent) -> list[SpanEvent]:
    """The ``phase`` spans lying inside a task span on its track."""
    eps = REL_TOL * max(parent.end, 1.0)
    return [
        s for s in rec.spans("phase")
        if (s.pid, s.tid) == (parent.pid, parent.tid)
        and s.ts >= parent.ts - eps and s.end <= parent.end + eps
    ]


def assert_phase_sums(rec: TraceRecorder, task_cat: str,
                      expected_seconds: list[float] | None = None) -> None:
    """Each task span's phase children sum to its duration; optionally
    the durations must match a reported per-task seconds list."""
    tasks = rec.spans(task_cat)
    assert tasks, f"no {task_cat!r} spans recorded"
    for task in tasks:
        children = phase_children(rec, task)
        assert children, f"task span {task.name!r} has no phase children"
        total = sum(c.dur or 0.0 for c in children)
        assert _close(total, task.dur or 0.0), (
            f"{task.name!r}: phase sum {total} != span duration {task.dur}"
        )
    if expected_seconds is not None:
        durations = [t.dur or 0.0 for t in tasks]
        assert len(durations) == len(expected_seconds), (
            f"{len(durations)} {task_cat} spans vs "
            f"{len(expected_seconds)} reported tasks"
        )
        for got, want in zip(durations, expected_seconds):
            assert _close(got, want), (
                f"{task_cat} span duration {got} != reported {want}"
            )


def assert_standard_invariants(rec: TraceRecorder) -> None:
    assert_all_closed(rec)
    assert_no_partial_overlap(rec)


def assert_phase_spans_identical(ref: TraceRecorder,
                                 other: TraceRecorder) -> None:
    """Two traced runs laid down *exactly* the same phase spans.

    This is the GPU lane-engine contract: an alternative engine (vector,
    tree) may execute a kernel any way it likes, but the Fig. 6 phase
    spans it records — name, track, start, duration — must be
    byte-identical to the reference engine's, with no tolerance: the
    simulated clock is deterministic arithmetic, not measurement."""
    def key(rec):
        return [(s.pid, s.tid, s.name, s.ts, s.dur)
                for s in rec.spans("phase")]

    ref_spans, other_spans = key(ref), key(other)
    assert other_spans == ref_spans, (
        "phase spans diverged: "
        + next((f"{a} != {b}" for a, b in zip(ref_spans, other_spans)
                if a != b), "span count differs")
    )
