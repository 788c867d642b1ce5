"""Application model: sources, metadata (Table 2), and derived artifacts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from ..compiler import TranslationResult, translate_cached
from ..config import OptimizationFlags
from ..errors import ConfigError
from ..minic import cast as A
from ..minic import parse
from ..minic.interpreter import ExecCounters, run_filter


@dataclass(frozen=True)
class ClusterFigures:
    """Per-cluster evaluation parameters from Table 2. ``None`` marks the
    NA entries (KM does not run on Cluster2)."""

    reduce_tasks: int
    map_tasks: int | None
    input_gb: float | None


@dataclass
class Application:
    """One benchmark: sources + Table 2 metadata + oracle."""

    name: str
    short: str                      # the paper's two-letter tag (GR, WC, ...)
    nature: str                     # "IO" | "Compute"
    map_source: str = ""
    combine_source: str | None = None
    #: The reduce function as a mini-C Streaming filter. Reducers always
    #: run on CPUs (paper §3.1: 'HeteroDoop provides no directives for
    #: reduce functions and executes them on the CPUs only').
    reduce_source: str | None = None
    #: Pure-Python reduce for apps with no mini-C reducer (``reference``
    #: is the oracle); ignored when ``reduce_source`` is set.
    reduce_py: Callable[[Any, list[Any]], list[tuple[Any, Any]]] | None = None
    pct_map_combine_active: int = 0  # Table 2 '%Exec. Time Map+Combine Active'
    cluster1: ClusterFigures | None = None
    cluster2: ClusterFigures | None = None
    min_gpu_mem: int = 0            # device floor; KM exceeds Cluster2's GPUs
    generate: Callable[[int, int], str] | None = None  # (records, seed) -> text
    reference: Callable[[str], dict[Any, Any]] | None = None  # oracle
    record_skew: float = 1.0        # record-length skew (drives stealing gains)

    def __post_init__(self) -> None:
        if self.nature not in ("IO", "Compute"):
            raise ConfigError(f"nature must be IO or Compute, not {self.nature!r}")

    @property
    def has_combiner(self) -> bool:
        return self.combine_source is not None

    @property
    def map_only(self) -> bool:
        c1 = self.cluster1
        return bool(c1 and c1.reduce_tasks == 0)

    # -- parsed/translated artifacts (cached per optimization setting) -------

    def map_program(self) -> A.Program:
        return _parse_cached(self.map_source)

    def combine_program(self) -> A.Program | None:
        if self.combine_source is None:
            return None
        return _parse_cached(self.combine_source)

    def translate_map(self, opt: OptimizationFlags | None = None) -> TranslationResult:
        return translate_cached(self.map_program(), opt=opt)

    def translate_combine(
        self, opt: OptimizationFlags | None = None
    ) -> TranslationResult | None:
        prog = self.combine_program()
        if prog is None:
            return None
        return translate_cached(prog, opt=opt)

    # -- CPU (Hadoop Streaming) path -----------------------------------------

    def cpu_map(self, split_text: str) -> tuple[str, ExecCounters]:
        """Run the map filter exactly as Hadoop Streaming would."""
        return run_filter(self.map_program(), split_text)

    def cpu_combine(self, kv_text: str) -> tuple[str, ExecCounters]:
        prog = self.combine_program()
        if prog is None:
            raise ConfigError(f"{self.name} has no combiner")
        return run_filter(prog, kv_text)

    def reduce_program(self) -> A.Program | None:
        if self.reduce_source is None:
            return None
        return _parse_cached(self.reduce_source)

    def cpu_reduce(self, kv_text: str) -> tuple[str, ExecCounters]:
        """Run the reduce filter over one partition's sorted KV lines."""
        prog = self.reduce_program()
        if prog is None:
            raise ConfigError(f"{self.name} has no mini-C reducer")
        return run_filter(prog, kv_text)

    def reduce(self, key: Any, values: list[Any]) -> list[tuple[Any, Any]]:
        """Apply the reduce function (CPU-only in HeteroDoop, §3.1)."""
        if self.reduce_py is None:
            return [(key, v) for v in values]
        return self.reduce_py(key, values)


@lru_cache(maxsize=64)
def _parse_cached(source: str) -> A.Program:
    return parse(source)


class AppRegistry:
    """Global registry the benchmark modules populate on import."""

    _apps: dict[str, Application] = {}

    @classmethod
    def register(cls, app: Application) -> Application:
        key = app.short.upper()
        if key in cls._apps:
            raise ConfigError(f"duplicate app registration {key}")
        cls._apps[key] = app
        return app

    @classmethod
    def get(cls, short: str) -> Application:
        try:
            return cls._apps[short.upper()]
        except KeyError:
            raise ConfigError(
                f"unknown app {short!r}; known: {sorted(cls._apps)}"
            ) from None

    @classmethod
    def all(cls) -> list[Application]:
        return list(cls._apps.values())


def get_app(short: str) -> Application:
    return AppRegistry.get(short)


def all_apps() -> list[Application]:
    return AppRegistry.all()
