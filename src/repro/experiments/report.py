"""Plain-text rendering of experiment results (the harness's output)."""

from __future__ import annotations

from typing import Mapping, Sequence

from .figures import AblationPoint, Fig3Result, Fig5Point, JobPoint, geometric_mean


def render_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Fixed-width table from a list of homogeneous dicts."""
    if not rows:
        return f"{title}\n(empty)"
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), *(len(str(r.get(h, ""))) for r in rows))
        for h in headers
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[h]) for h in headers))
    lines.append("  ".join("-" * widths[h] for h in headers))
    for r in rows:
        lines.append("  ".join(str(r.get(h, "")).ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def render_fig3(result: Fig3Result) -> str:
    lines = [
        "Fig. 3 — tail scheduling key idea (19 tasks, 2 CPU slots, GPU 6x)",
        f"  GPU-first makespan: {result.gpu_first_makespan:.3f} CPU-task units",
        f"  Tail-sched makespan: {result.tail_makespan:.3f} CPU-task units",
        f"  Improvement: {result.gpu_first_makespan / result.tail_makespan:.2f}x",
    ]
    return "\n".join(lines)


def render_fig4(points: list[JobPoint], title: str) -> str:
    rows = [
        {
            "app": p.app,
            "gpus": p.gpus_per_node,
            "policy": p.policy,
            "speedup": f"{p.speedup:.2f}x",
            "gpu_task_share": f"{p.gpu_task_fraction:.0%}",
            "forced": p.forced_tasks,
        }
        for p in points
    ]
    text = render_table(rows, title)
    tail_speedups = [p.speedup for p in points if p.policy == "tail"]
    if tail_speedups:
        text += f"\n  geometric mean (tail): {geometric_mean(tail_speedups):.2f}x"
    return text


def render_fig5(points: list[Fig5Point]) -> str:
    rows = [
        {
            "app": p.app,
            "baseline": f"{p.baseline_speedup:.1f}x",
            "optimized": f"{p.optimized_speedup:.1f}x",
            "opt_gain": f"{p.optimization_gain:.2f}x",
        }
        for p in points
    ]
    return render_table(rows, "Fig. 5 — single GPU-task speedup over one CPU core")


def render_fig6(fractions: Mapping[str, Mapping[str, float]]) -> str:
    rows = []
    for app, frac in fractions.items():
        rows.append({"app": app, **{k: f"{v:.0%}" for k, v in frac.items()}})
    return render_table(rows, "Fig. 6 — GPU task execution-time breakdown")


def render_fig7(points: list[AblationPoint]) -> str:
    rows = [
        {
            "optimization": p.optimization,
            "app": p.app,
            "stage": p.affected_stage,
            "speedup": f"{p.speedup:.2f}x",
        }
        for p in points
    ]
    return render_table(rows, "Fig. 7 — effect of individual optimizations")
