"""Differential conformance fuzzing across the mini-C execution backends.

The reproduction executes one mini-C source through three independent
engines — the tree-walking interpreter, the source-emitting compiled
backend, and the compiler→Kernel-IR→GPU-simulator path — and equivalence used to be
asserted only on the eight fixed benchmarks. This package generates
seeded, type-correct mini-C programs (plus matching synthetic inputs),
runs each through every applicable backend, compares all observable
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
