"""HeteroDoop reproduction — a MapReduce programming system for
accelerator clusters (Sabne, Sakdhnagool, Eigenmann; HPDC 2015), rebuilt
in pure Python.

The package mirrors the paper's architecture:

* :mod:`repro.minic` — the C-dialect frontend (the input language),
* :mod:`repro.directives` — ``#pragma mapreduce`` parsing (Table 1),
* :mod:`repro.compiler` — the source-to-source translator (§4),
* :mod:`repro.gpu` — the warp-level GPU simulator,
* :mod:`repro.kvstore` — global KV store, partitioning, aggregation,
* :mod:`repro.runtime` — the GPU task pipeline and driver (§5),
* :mod:`repro.hadoop` — the distributed substrate (HDFS block
  placement included),
* :mod:`repro.scheduling` — CPU-only, GPU-first and tail scheduling (§6),
* :mod:`repro.apps` — the eight Table 2 benchmarks,
* :mod:`repro.experiments` — regeneration of every table and figure.

Quick start::

    from repro.apps import get_app
    from repro.hadoop.local import LocalJobRunner

    app = get_app("WC")
    text = app.generate(1000, seed=7)
    result = LocalJobRunner(app, use_gpu=True).run(text)
    assert result.output == LocalJobRunner(app, use_gpu=False).run(text).output
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
