"""Scheduling policies for heterogeneous CPU+GPU clusters (paper §6).

* :mod:`repro.scheduling.gpu_first` — the simplistic baseline: a new task
  goes to a GPU if one is free, otherwise to a CPU slot.
* :mod:`repro.scheduling.tail` — HeteroDoop's tail scheduling
  (Algorithm 2): near the end of the job, remaining tasks are forced onto
  GPUs so the fast devices never idle while slow CPU stragglers finish;
  also the CPU-only Hadoop baseline, GPU-first on TaskTrackers with no
  GPUs.

Every policy is registered in :data:`POLICIES` under its ``name``; the
CLI, the scenario registry, and the tests all resolve policies through
:func:`get_policy`.
"""

from __future__ import annotations

from ..errors import ConfigError
from .gpu_first import GpuFirstPolicy, PlacementDecision
from .tail import TailPolicy, SchedulingPolicy, CpuOnlyPolicy

#: name → policy class, the single source of truth for "which policies
#: exist" (insertion order is the CLI/help presentation order).
POLICIES: dict[str, type] = {
    "cpu-only": CpuOnlyPolicy,
    "gpu-first": GpuFirstPolicy,
    "tail": TailPolicy,
}


def policy_names() -> tuple[str, ...]:
    return tuple(POLICIES)


def get_policy(name: str) -> SchedulingPolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
    return cls()


__all__ = [
    "SchedulingPolicy", "PlacementDecision", "GpuFirstPolicy", "TailPolicy",
    "CpuOnlyPolicy", "POLICIES", "policy_names", "get_policy",
]
