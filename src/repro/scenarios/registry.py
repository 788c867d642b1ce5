"""The declarative scenario registry.

One frozen-dataclass declaration per scenario — an app, a seeded datagen
recipe at small/medium/large scale, a cluster shape, and a scheduling
policy — consumed by the sweep runner, the fuzz
oracle, and the conformance tests, so "add a scenario" is one entry here
and every harness picks it up (the SNIPPETS BenchmarkConfig-registry
idiom, and HSTREAM's declare-the-workload-once argument).

Three tables:

* :data:`WORKLOADS` — per-app record counts at the canonical scales.
  These are the single source of truth for every record-count table that
  used to be copy-pasted across calibrate/tests.
* :data:`SHAPES` — named cluster shapes, each a delta over the paper's
  Cluster1/Cluster2 plus an optional heterogeneity profile (a fraction
  of nodes slowed by a factor — the inter-node heterogeneity the paper
  leaves to future work, §9).
* :data:`SCENARIOS` — the scenario list itself.

Everything is import-time validated by :func:`validate_registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from ..config import CLUSTER1, CLUSTER2, ClusterConfig
from ..errors import ConfigError
from .task_times import TABLE2_TASKS, TASK_TIMES

SCALES = ("small", "medium", "large")

#: Fig. 4/5 presentation order — increasing GPU speedup — which the
#: paper's figures, tables, and calibration bands all share.
PAPER_APP_ORDER = ("GR", "HS", "WC", "HR", "LR", "KM", "CL", "BS")

#: Registry extensions beyond Table 2.
EXTENDED_APP_ORDER = ("II", "RJ", "TS", "PR")

#: Every app the registry covers, paper order first.
APP_ORDER = PAPER_APP_ORDER + EXTENDED_APP_ORDER


@dataclass(frozen=True, slots=True)
class Workload:
    """Per-app record counts for the canonical datagen scales.

    ``small`` sizes conformance tests and smoke sweeps, ``medium`` and
    ``large`` the bigger ``repro sweep --scale`` tiers, and
    ``calibration`` sizes the single-task measurement split.
    """

    app: str
    small: int
    medium: int
    large: int
    calibration: int = 300
    seed: int = 7

    def records(self, scale: str) -> int:
        if scale not in SCALES:
            raise ConfigError(f"unknown scale {scale!r}; known: {SCALES}")
        return getattr(self, scale)


@dataclass(frozen=True, slots=True)
class ClusterShape:
    """A named cluster shape: a delta over a base paper cluster plus an
    optional heterogeneity profile.

    ``slow_node_fraction``/``slow_factor`` mark every ``1/fraction``-th
    node's CPUs slower by the factor (a deterministic stride — no RNG —
    so a shape always yields the same speed map). GPUs keep their own
    speed, per :attr:`~repro.hadoop.job.JobConf.node_speed_factors`.
    """

    id: str
    base: str = "cluster1"            # "cluster1" | "cluster2"
    num_slaves: int | None = None
    gpus_per_node: int | None = None
    max_map_slots_per_node: int | None = None
    slow_node_fraction: float = 0.0
    slow_factor: float = 1.0
    description: str = ""

    def cluster(self) -> ClusterConfig:
        if self.base == "cluster1":
            base = CLUSTER1
        elif self.base == "cluster2":
            base = CLUSTER2
        else:
            raise ConfigError(f"shape {self.id}: unknown base {self.base!r}")
        overrides = {
            name: value
            for name, value in (
                ("num_slaves", self.num_slaves),
                ("gpus_per_node", self.gpus_per_node),
                ("max_map_slots_per_node", self.max_map_slots_per_node),
            )
            if value is not None
        }
        return dc_replace(base, **overrides) if overrides else base

    def speed_factors(self) -> dict[int, float] | None:
        """node → CPU slowdown factor, or ``None`` when homogeneous."""
        if self.slow_node_fraction <= 0.0 or self.slow_factor == 1.0:
            return None
        stride = max(1, round(1.0 / self.slow_node_fraction))
        nodes = self.cluster().num_slaves
        return {node: self.slow_factor for node in range(0, nodes, stride)}

    @property
    def total_cpu_slots(self) -> int:
        cluster = self.cluster()
        return cluster.num_slaves * cluster.max_map_slots_per_node


@dataclass(frozen=True, slots=True)
class Scenario:
    """One registry entry: app × shape × default policy × workload shape.

    The simulator side sizes the map pool as ``waves`` full slot
    generations, scaled up by :data:`SCALE_TASK_MULT` at medium/large,
    and takes its per-task durations from the app's row of
    :mod:`repro.scenarios.task_times` for the shape's base cluster.
    The functional side draws its input from the app's :data:`WORKLOADS`
    entry at the requested scale with the scenario ``seed``.
    """

    id: str
    app: str
    shape: str
    policy: str
    description: str = ""
    seed: int = 7
    waves: float = 2.0
    reduce_tasks: int = 16

    def map_tasks(self, scale: str) -> int:
        shape = get_shape(self.shape)
        return max(1, int(shape.total_cpu_slots * self.waves
                          * SCALE_TASK_MULT[scale]))


#: Simulator map-pool multiplier per scale (relative to ``small``).
SCALE_TASK_MULT = {"small": 1.0, "medium": 3.0, "large": 8.0}


# -- workloads (record counts preserved from the pre-registry tables) --------

def _workloads(*entries: Workload) -> dict[str, Workload]:
    return {w.app: w for w in entries}


WORKLOADS: dict[str, Workload] = _workloads(
    Workload("GR", small=200, medium=4000, large=100_000, calibration=500),
    Workload("WC", small=200, medium=3000, large=100_000, calibration=400),
    Workload("HS", small=200, medium=4000, large=100_000, calibration=400),
    Workload("HR", small=200, medium=4000, large=100_000, calibration=400),
    Workload("LR", small=100, medium=1500, large=30_000, calibration=300),
    Workload("KM", small=60, medium=300, large=5_000, calibration=250),
    Workload("CL", small=80, medium=400, large=8_000, calibration=300),
    Workload("BS", small=30, medium=1500, large=30_000, calibration=120),
    Workload("II", small=150, medium=3000, large=80_000, calibration=400),
    Workload("RJ", small=200, medium=4000, large=100_000, calibration=400),
    Workload("TS", small=200, medium=4000, large=100_000, calibration=400),
    Workload("PR", small=150, medium=2000, large=50_000, calibration=300),
)


# -- cluster shapes ----------------------------------------------------------

def _shapes(*entries: ClusterShape) -> dict[str, ClusterShape]:
    return {s.id: s for s in entries}


SHAPES: dict[str, ClusterShape] = _shapes(
    ClusterShape("c1", base="cluster1",
                 description="Paper Cluster1: 48 nodes, 20 slots, 1 K40."),
    ClusterShape("c2", base="cluster2",
                 description="Paper Cluster2: 32 nodes, 4 slots, 3 M2090."),
    ClusterShape("mini", base="cluster1", num_slaves=8,
                 max_map_slots_per_node=4,
                 description="Tiny smoke shape for tier-1 sweeps."),
    ClusterShape("mega1k", base="cluster1", num_slaves=1000,
                 max_map_slots_per_node=8,
                 slow_node_fraction=0.25, slow_factor=1.7,
                 description="1000 heterogeneous nodes: every 4th node's "
                             "CPUs are 1.7x slower (older processors)."),
    ClusterShape("mega1k-dense", base="cluster1", num_slaves=1000,
                 max_map_slots_per_node=8, gpus_per_node=2,
                 slow_node_fraction=0.125, slow_factor=2.0,
                 description="1000 nodes, 2 GPUs each, a 2x-slow straggler "
                             "octile — the GPU-rich heterogeneity case."),
)


# -- scenarios ---------------------------------------------------------------

SCENARIOS: tuple[Scenario, ...] = (
    # The paper's eight on their Table 2 clusters.
    Scenario("gr-c1-gpu-first", app="GR", shape="c1", policy="gpu-first",
             reduce_tasks=0,
             description="Grep, map-only, modest GPU win (Fig. 5)."),
    Scenario("wc-c1-tail", app="WC", shape="c1", policy="tail",
             reduce_tasks=48,
             description="Wordcount under tail scheduling (Fig. 3/4)."),
    Scenario("hs-c1-tail", app="HS", shape="c1", policy="tail",
             reduce_tasks=8,
             description="Histmovies, IO-bound histogram."),
    Scenario("hr-c1-tail", app="HR", shape="c1", policy="tail",
             reduce_tasks=8,
             description="Histratings, combine-heavy histogram."),
    Scenario("lr-c1-tail", app="LR", shape="c1", policy="tail",
             description="Linear regression, 90 pairs per record."),
    Scenario("km-c1-tail", app="KM", shape="c1", policy="tail",
             description="Kmeans, the paper's compute-bound star."),
    Scenario("cl-c2-tail", app="CL", shape="c2", policy="tail",
             description="Classification on the 3-GPU Cluster2."),
    Scenario("bs-c2-gpu-first", app="BS", shape="c2", policy="gpu-first",
             reduce_tasks=0,
             description="BlackScholes, map-only, top GPU speedup (Fig. 5)."),
    # Registry extensions: apps beyond Table 2 and 1000-node shapes.
    Scenario("ii-c1-tail", app="II", shape="c1", policy="tail",
             reduce_tasks=32,
             description="Inverted index, the shuffle-heaviest text app."),
    Scenario("rj-c1-tail", app="RJ", shape="c1", policy="tail",
             description="Repartition join on Cluster1."),
    Scenario("ts-mega1k-tail", app="TS", shape="mega1k", policy="tail",
             reduce_tasks=64,
             description="Terasort at 1000 heterogeneous nodes: tail "
                         "scheduling vs a sort-dominated profile."),
    Scenario("pr-mega1k-tail", app="PR", shape="mega1k", policy="tail",
             description="PageRank step at 1000 heterogeneous nodes."),
    Scenario("wc-mega1k-dense-tail", app="WC", shape="mega1k-dense",
             policy="tail", reduce_tasks=64,
             description="Wordcount on the GPU-dense 1000-node shape."),
    # Smoke scenarios for the tier-1 sweep leg.
    Scenario("wc-mini-tail", app="WC", shape="mini", policy="tail",
             reduce_tasks=4,
             description="Smoke: wordcount on the 8-node mini shape."),
    Scenario("ii-mini-tail", app="II", shape="mini", policy="tail",
             reduce_tasks=4,
             description="Smoke: inverted index on the mini shape."),
)

BY_ID: dict[str, Scenario] = {s.id: s for s in SCENARIOS}


# -- lookups -----------------------------------------------------------------

def all_scenarios() -> tuple[Scenario, ...]:
    return SCENARIOS


def get_scenario(scenario_id: str) -> Scenario:
    try:
        return BY_ID[scenario_id]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {scenario_id!r}; known: {sorted(BY_ID)}"
        ) from None


def get_shape(shape_id: str) -> ClusterShape:
    try:
        return SHAPES[shape_id]
    except KeyError:
        raise ConfigError(
            f"unknown shape {shape_id!r}; known: {sorted(SHAPES)}"
        ) from None


def get_workload(app: str) -> Workload:
    try:
        return WORKLOADS[app.upper()]
    except KeyError:
        raise ConfigError(
            f"no workload for app {app!r}; known: {sorted(WORKLOADS)}"
        ) from None


def records_for(app: str, scale: str = "small") -> int:
    return get_workload(app).records(scale)


def scenario_apps() -> tuple[str, ...]:
    """App tags covered by at least one scenario, in APP_ORDER."""
    covered = {s.app for s in SCENARIOS}
    return tuple(tag for tag in APP_ORDER if tag in covered)


def generate_input(app: str, scale: str = "small", seed: int | None = None) -> str:
    """The canonical datagen call for one app at one scale."""
    from ..apps import get_app

    workload = get_workload(app)
    return get_app(app).generate(
        workload.records(scale), seed if seed is not None else workload.seed
    )


def datagen_digest(app: str, scale: str = "small",
                   seed: int | None = None) -> str:
    """SHA-256 of the canonical input — the registry's determinism stamp."""
    import hashlib

    return hashlib.sha256(
        generate_input(app, scale, seed).encode("utf-8")
    ).hexdigest()


# -- simulated jobs ----------------------------------------------------------

def _task_time_key(app: str, cluster_name: str) -> tuple[str, str]:
    tag = app.upper()
    if tag not in APP_ORDER:
        raise ConfigError(f"unknown app {app!r}; known: {sorted(APP_ORDER)}")
    if (tag, cluster_name) not in TASK_TIMES:
        raise ConfigError(f"{tag} has no Table 2 entry for {cluster_name} "
                          "(the paper marks it NA)")
    return tag, cluster_name


def table2_tasks(app: str, cluster_name: str,
                 task_scale: float = 1.0) -> tuple[int, int]:
    """Table 2's (map tasks × ``task_scale``, at least one; reduce tasks)."""
    maps, reduces = TABLE2_TASKS[_task_time_key(app, cluster_name)]
    return max(1, int(maps * task_scale)), reduces


def simulated_job(app: str, cluster: ClusterConfig, map_tasks: int,
                  reduce_tasks: int, seed: int,
                  node_speed_factors: dict[int, float] | None = None):
    """The one builder of a simulated job: a ``JobConf`` whose durations
    are ``app``'s :mod:`~repro.scenarios.task_times` row for
    ``cluster.name``. Every simulator run of it gives the same result."""
    from ..hadoop.job import JobConf

    key = _task_time_key(app, cluster.name)
    return JobConf(name=key[0], num_map_tasks=map_tasks,
                   num_reduce_tasks=reduce_tasks, cluster=cluster, seed=seed,
                   node_speed_factors=node_speed_factors, **TASK_TIMES[key])


# -- validation --------------------------------------------------------------

def validate_registry() -> None:
    """Cross-check every reference; raises ConfigError on the first hole.

    App tags are checked against :data:`APP_ORDER`, not the app
    registry: importing the apps would load mini-C and the compiler
    into every simulation (``tests/test_apps.py`` pins the two lists
    equal)."""
    from ..scheduling import POLICIES

    seen: set[str] = set()
    for scenario in SCENARIOS:
        if scenario.id in seen:
            raise ConfigError(f"duplicate scenario id {scenario.id!r}")
        seen.add(scenario.id)
        if scenario.app not in APP_ORDER:
            raise ConfigError(
                f"scenario {scenario.id}: unknown app {scenario.app!r}"
            )
        if scenario.policy not in POLICIES:
            raise ConfigError(
                f"scenario {scenario.id}: unknown policy {scenario.policy!r}"
            )
        if scenario.app not in WORKLOADS:
            raise ConfigError(
                f"scenario {scenario.id}: app {scenario.app} has no workload"
            )
        # A task-time row for the shape's base cluster (raises if none).
        _task_time_key(scenario.app, get_shape(scenario.shape).cluster().name)
    for app, workload in WORKLOADS.items():
        if app not in APP_ORDER:
            raise ConfigError(f"workload {app} missing from APP_ORDER")
        if not workload.small <= workload.medium <= workload.large:
            raise ConfigError(f"workload {app}: scales must be monotonic")
    for shape in SHAPES.values():
        shape.cluster()                           # base resolves, replace ok
