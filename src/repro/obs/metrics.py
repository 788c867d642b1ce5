"""Counter / gauge registry (the metrics half of the obs layer).

Counters are monotonic event tallies (heartbeats answered, tasks forced
onto GPUs, KV pairs emitted); gauges hold last-written values (queue
depth, remaining maps). Both live in one :class:`MetricsRegistry` keyed
by dotted names, so a whole run's metrics serialize to a flat dict.

The registry is deliberately dependency-free and allocation-light: a
counter bump is one dict operation. Instrumentation sites reach it
through the active recorder (``obs.active().inc(...)``), which is a
no-op when tracing is disabled.
"""

from __future__ import annotations

from ..errors import ReproError

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Flat registries of counters and gauges, keyed by dotted names."""

    __slots__ = ("counters", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        if n < 0:
            raise ReproError(f"counter {name!r} cannot decrease (n={n})")
        self.counters[name] = self.counters.get(name, 0.0) + n

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    # -- gauges -------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Stable (sorted-key) copy of both registries."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges last-write)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        self.gauges.update(other.gauges)
