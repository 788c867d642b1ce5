"""Fig. 3 — the tail-scheduling key idea (19 tasks, 2 CPU slots, GPU 6×).

Paper claim: GPU-first leaves the fast GPU idle while the final CPU tasks
straggle; forcing the tail onto the GPU shortens the job.
"""

from repro.experiments import figures, report


def test_fig3(benchmark):
    result = benchmark.pedantic(figures.fig3, rounds=1, iterations=1)
    print("\n" + report.render_fig3(result))
    # The paper's schedule saves roughly half a CPU-task time.
    assert result.tail_makespan < result.gpu_first_makespan
    assert result.gpu_first_makespan / result.tail_makespan > 1.1
    # Final two tasks forced onto the GPU, exactly as in the figure.
    final = [slot for task, slot, _s, _e in result.tail_schedule if task >= 18]
    assert final == ["gpu0", "gpu0"]


def test_fig3_sensitivity_to_speedup(benchmark):
    """Ablation: the tail win grows with the CPU/GPU gap."""

    def sweep():
        return {s: figures.fig3(gpu_speedup=s) for s in (2.0, 6.0, 12.0)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    gains = {
        s: r.gpu_first_makespan / r.tail_makespan for s, r in results.items()
    }
    print("\nFig. 3 sensitivity (speedup -> tail gain):",
          {s: f"{g:.2f}x" for s, g in gains.items()})
    assert gains[6.0] >= gains[2.0] * 0.95
