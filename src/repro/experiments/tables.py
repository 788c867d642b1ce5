"""Regeneration of the paper's Tables 1–3 from the library's own state —
the catalogue, benchmark registry, and cluster configs are the single
source of truth, so the tables can never drift from the code."""

from __future__ import annotations

from ..apps import all_apps
from ..config import CLUSTER1, CLUSTER2, ClusterConfig
from ..directives.clauses import CLAUSES, ArgKind
from ..scenarios.registry import PAPER_APP_ORDER


def table1() -> list[dict[str, str]]:
    """Table 1: the directive/clause catalogue."""
    rows = [
        {
            "clause": "mapper",
            "arguments": "",
            "description": "Specifies that the attached region performs map operation",
            "optional": "No",
        },
        {
            "clause": "combiner",
            "arguments": "",
            "description": "Specifies that the attached region performs combine operation",
            "optional": "No",
        },
    ]
    arg_names = {
        ArgKind.VARIABLE: "Variable name",
        ArgKind.VARIABLE_LIST: "A set of variable names",
        ArgKind.INTEGER: "Integer variable",
        ArgKind.NONE: "",
    }
    for spec in CLAUSES.values():
        rows.append(
            {
                "clause": spec.name,
                "arguments": arg_names[spec.arg_kind],
                "description": spec.description,
                "optional": "Yes" if spec.optional else "No",
            }
        )
    return rows


def table2() -> list[dict[str, object]]:
    """Table 2: benchmark descriptions, from the app registry."""
    rows = []
    order = PAPER_APP_ORDER
    by_short = {a.short: a for a in all_apps()}
    for short in order:
        app = by_short[short]
        c1, c2 = app.cluster1, app.cluster2
        rows.append(
            {
                "benchmark": f"{app.name} ({short})",
                "pct_map_combine": app.pct_map_combine_active,
                "nature": app.nature,
                "combiner": "Yes" if app.has_combiner else "No",
                "reduce_tasks_c1": c1.reduce_tasks if c1 else None,
                "reduce_tasks_c2": c2.reduce_tasks if c2 else None,
                "map_tasks_c1": c1.map_tasks if c1 else None,
                "map_tasks_c2": (c2.map_tasks if c2 and c2.map_tasks else "NA"),
                "input_gb_c1": c1.input_gb if c1 else None,
                "input_gb_c2": (c2.input_gb if c2 and c2.input_gb else "NA"),
            }
        )
    return rows


def _cluster_row(c: ClusterConfig) -> dict[str, object]:
    return {
        "name": c.name,
        "nodes": f"{c.num_slaves} (+1 master)",
        "cpu": c.cpu.name,
        "cpu_cores": c.cpu.cores,
        "gpus": f"{c.gpus_per_node}x{c.gpu.name}",
        "ram_gb": c.ram // (1024 ** 3),
        "disk": "500GB" if c.has_disk else "none",
        "hadoop": c.hadoop_version,
        "cuda": c.cuda_version,
        "hdfs_block_mb": c.hdfs_block_size // (1024 ** 2),
        "replication": c.hdfs_replication,
        "map_slots": f"{c.max_map_slots_per_node} (+1 per GPU)",
        "reduce_slots": c.max_reduce_slots_per_node,
        "speculative": "Off",
        "slowstart_pct": int(c.slowstart_maps_fraction * 100),
    }


def table3() -> list[dict[str, object]]:
    """Table 3: the two cluster setups."""
    return [_cluster_row(CLUSTER1), _cluster_row(CLUSTER2)]
