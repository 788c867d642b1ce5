"""Differential conformance fuzzing across the three engine settings.

The reproduction executes one mini-C source on two paths — as a
streaming filter and, translated, through the Kernel-IR→GPU simulator —
under one process-wide engine switch: ``"tree"`` (tree-walked
everywhere, the reference), ``"compiled"`` (generated code, GPU lanes
one at a time) and ``"vector"`` (what ships). This package generates
seeded, type-correct mini-C programs (plus matching synthetic inputs),
runs each under every applicable setting, compares all observable
boundaries (stdout KV streams, ExecCounters, error messages, simulated
GPU results), delta-debugs any divergent program down to a minimal
reproducer, and persists reproducers into ``tests/fuzz_corpus/``.

Entry points:

* ``python -m repro fuzz --seed 0 --count 300`` — run a campaign.
* :func:`repro.fuzz.runner.run_campaign` — the same, programmatically.
* :func:`repro.fuzz.gen.generate_case` — one deterministic case.
"""

from .gen import FuzzCase, generate_case, generate_source
from .oracle import Divergence, run_case
from .runner import CampaignResult, load_corpus, run_campaign
from .shrink import shrink_case

__all__ = [
    "FuzzCase",
    "generate_case",
    "generate_source",
    "Divergence",
    "run_case",
    "CampaignResult",
    "load_corpus",
    "run_campaign",
    "shrink_case",
]
