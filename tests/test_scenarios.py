"""Scenario-registry integrity and conformance.

The registry is the single source of truth for app/workload/shape
enumeration, so these tests check it from three sides: structural
integrity (unique ids, every reference resolvable), datagen determinism
(each app's canonical input digests identically across calls and
distinctly across apps), and functional conformance (the registry
extensions run through the full four-engine fuzz oracle; the paper's
eight get the same treatment from ``test_apps`` and the fuzz corpus).

A grep tripwire keeps the enumeration honest: no source or test file
may reintroduce a hard-coded paper-app list outside the registry. A
second one pins the ``REPRO_*`` environment-knob surface.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.fuzz.oracle import run_scenario
from repro.scenarios import (
    APP_ORDER,
    EXTENDED_APP_ORDER,
    PAPER_APP_ORDER,
    SCALES,
    SCENARIOS,
    SHAPES,
    WORKLOADS,
    all_scenarios,
    datagen_digest,
    generate_input,
    get_scenario,
    get_shape,
    get_workload,
    records_for,
    scenario_apps,
    validate_registry,
)
from repro.scheduling import POLICIES

REPO = Path(__file__).resolve().parents[1]


class TestRegistryIntegrity:
    def test_validate_registry_passes(self):
        validate_registry()

    def test_scenario_ids_unique_and_well_formed(self):
        ids = [s.id for s in SCENARIOS]
        assert len(ids) == len(set(ids))
        for scenario_id in ids:
            assert re.fullmatch(r"[a-z0-9][a-z0-9-]*", scenario_id)

    def test_every_reference_resolves(self):
        from repro.apps import get_app

        for scenario in SCENARIOS:
            assert get_app(scenario.app).short == scenario.app
            assert get_shape(scenario.shape).id == scenario.shape
            assert scenario.policy in POLICIES
            assert scenario.app in WORKLOADS

    def test_every_app_has_a_workload_and_vice_versa(self):
        from repro.apps import all_apps

        assert set(WORKLOADS) == {a.short for a in all_apps()}
        assert set(WORKLOADS) == set(APP_ORDER)

    def test_app_order_partitions(self):
        assert APP_ORDER == PAPER_APP_ORDER + EXTENDED_APP_ORDER
        assert not set(PAPER_APP_ORDER) & set(EXTENDED_APP_ORDER)

    def test_scenarios_cover_every_app(self):
        assert scenario_apps() == APP_ORDER

    def test_workload_scales_monotonic(self):
        for workload in WORKLOADS.values():
            assert 0 < workload.small <= workload.medium <= workload.large
            assert workload.calibration > 0

    def test_unknown_lookups_raise_config_error(self):
        with pytest.raises(ConfigError):
            get_scenario("no-such-scenario")
        with pytest.raises(ConfigError):
            get_shape("no-such-shape")
        with pytest.raises(ConfigError):
            get_workload("ZZ")
        with pytest.raises(ConfigError):
            get_workload("WC").records("giant")

    def test_shapes_materialize(self):
        for shape in SHAPES.values():
            cluster = shape.cluster()
            assert cluster.num_slaves >= 1
            assert shape.total_cpu_slots == \
                cluster.num_slaves * cluster.max_map_slots_per_node
            factors = shape.speed_factors()
            if factors is not None:
                assert all(0 <= node < cluster.num_slaves for node in factors)
                assert all(f > 0 for f in factors.values())

    def test_map_tasks_positive_and_scale_monotonic(self):
        for scenario in all_scenarios():
            small, medium, large = (scenario.map_tasks(s) for s in SCALES)
            assert 0 < small <= medium <= large


class TestDatagenDeterminism:
    """Self-consistency of the digests; their values are pinned in
    ``tests/test_apps.py`` (``DATAGEN_DIGESTS``)."""

    def test_digests_stable_across_calls(self, registry_app):
        assert datagen_digest(registry_app, "small") == \
            datagen_digest(registry_app, "small")

    def test_digests_distinct_across_datasets(self):
        digests = {app: datagen_digest(app, "small") for app in APP_ORDER}
        # HS and HR are two queries over the same ratings dataset (same
        # generator, records, and seed), so their inputs coincide by
        # design; every other app draws a distinct dataset.
        assert digests["HS"] == digests["HR"]
        rest = {app: h for app, h in digests.items() if app != "HR"}
        assert len(set(rest.values())) == len(rest)

    def test_seed_changes_input(self, registry_app):
        assert datagen_digest(registry_app, "small", seed=7) != \
            datagen_digest(registry_app, "small", seed=8)

    def test_input_has_declared_record_count(self, registry_app):
        text = generate_input(registry_app, "small")
        assert len(text.strip().splitlines()) == \
            records_for(registry_app, "small")


@pytest.mark.parametrize("short", EXTENDED_APP_ORDER)
def test_new_apps_pass_four_engine_oracle(short):
    # The paper's eight run through the same oracle in the nightly
    # registry-conformance leg (`repro fuzz --registry`); tier-1 pins
    # the four registry extensions, whose coverage is newest.
    divergence = run_scenario(short, scale="small")
    assert divergence is None, divergence.report()


@pytest.mark.slow
def test_full_registry_conformance():
    # Nightly: every covered app (paper eight + extensions) through the
    # oracle — the same leg `repro fuzz --registry` runs in CI.
    from repro.fuzz.runner import registry_conformance

    divergences = registry_conformance(scale="small")
    assert divergences == [], [d.report() for d in divergences]


def test_no_hardcoded_app_lists_outside_registry():
    """Grep tripwire: a *full* paper-app enumeration (all eight tags as
    quoted strings within one literal-sized window) lives in the
    registry and nowhere else. Curated subsets — e.g. which apps an
    ablation applies to — are fine; duplicating the whole roster is the
    drift this guards against."""
    tag_pattern = {
        tag: re.compile(rf"""["']{tag}["']""") for tag in PAPER_APP_ORDER
    }
    window = 400  # chars: generous for an 8-entry list or dict literal
    allowed = {
        # The enumeration itself.
        "src/repro/scenarios/registry.py",
        # Per-app *data* keyed by tag, not an enumeration: the Fig. 5
        # calibration bands, the Table 2 combiner truth table and the
        # pinned datagen digests.
        "src/repro/costmodel/calibration.py",
        "tests/test_apps.py",
    }
    offenders = []
    for root in (REPO / "src", REPO / "tests"):
        for path in sorted(root.rglob("*.py")):
            rel = str(path.relative_to(REPO))
            if rel in allowed:
                continue
            text = path.read_text(encoding="utf-8")
            positions = [[m.start() for m in p.finditer(text)]
                         for p in tag_pattern.values()]
            if not all(positions):
                continue
            # All eight tags appear; flag if some window holds them all.
            for start in positions[0]:
                if all(any(start <= q < start + window for q in quoted)
                       for quoted in positions):
                    offenders.append(rel)
                    break
    assert offenders == [], (
        "hard-coded full app lists (use repro.scenarios instead): "
        f"{offenders}")


#: Every environment knob the program reads — the fields of
#: :class:`repro.config.RuntimeConfig`: the job-wide worker count and
#: the daemon pool's two deployment settings. Engines, backends, batch
#: sizes and per-phase worker counts are chosen by the runtime, not by
#: a knob.
KNOBS = {"REPRO_WORKERS", "REPRO_POOL_IDLE", "REPRO_POOL_START"}


def test_env_knob_surface_is_exactly_the_documented_three():
    """Grep tripwire: the ``REPRO_*`` names under ``src/repro`` and the
    rows of README's knob tables are both exactly :data:`KNOBS` — a new
    knob has to be argued for here, and documented, to land — and the
    environment is *read* in ``config.py`` only (the one other mention
    is the leaf-worker rule's write)."""
    knob = re.compile(r"REPRO_[A-Z_]+")
    sources = {
        path.relative_to(REPO / "src" / "repro").as_posix():
            path.read_text(encoding="utf-8")
        for path in (REPO / "src" / "repro").rglob("*.py")
    }
    in_src = {name for text in sources.values()
              for name in knob.findall(text)}
    assert in_src == KNOBS
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    in_tables = {
        name
        for line in readme.splitlines() if line.startswith("|")
        for name in knob.findall(line)
    }
    assert in_tables == KNOBS
    env_access = re.compile(r"\benviron\b|\bgetenv\b|\bputenv\b")
    environ_lines = {
        (rel, line.strip())
        for rel, text in sources.items()
        for line in text.splitlines() if env_access.search(line)
    }
    assert environ_lines == {
        ("config.py", 'raw = os.environ.get(name, "").strip()'),
        ("parallel/pool.py", 'os.environ["REPRO_WORKERS"] = "1"'),
    }
