"""Per-task durations of every simulated job. GENERATED, do not edit.

One row per (app, paper cluster) that Table 2 runs (KM has no Cluster2
row: the paper marks it NA, its data exceeding an M2090's memory). A row
holds the four :class:`~repro.hadoop.job.JobConf` fields
:func:`repro.experiments.calibrate.simulated_task_times` measures: one
map task's CPU and GPU seconds and its output bytes, rescaled so the CPU
task lasts 60 s, and each reducer's compute seconds. :data:`TABLE2_TASKS`
holds Table 2's (map tasks, reduce tasks) for the same keys, so a
simulation needs neither the apps nor mini-C.
:func:`repro.scenarios.registry.simulated_job` is the one reader.

Regenerate with ``PYTHONPATH=src python -m tests.test_task_times``;
``tests/test_task_times.py`` recomputes every row and fails on drift.
"""

TASK_TIMES: dict[tuple[str, str], dict[str, float]] = {
    ("GR", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 43.39192901284544,
        "map_output_bytes": 253176.47508671574,
        "reduce_compute_seconds": 18.6,
    },
    ("GR", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 13.960996524267566,
        "map_output_bytes": 580938.7778018129,
        "reduce_compute_seconds": 18.6,
    },
    ("HS", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 13.803240805224917,
        "map_output_bytes": 603517.7224924576,
        "reduce_compute_seconds": 5.4,
    },
    ("HS", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 5.416609522517959,
        "map_output_bytes": 586612.4593287419,
        "reduce_compute_seconds": 5.4,
    },
    ("WC", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 10.578465671115435,
        "map_output_bytes": 14863572.356290767,
        "reduce_compute_seconds": 5.4,
    },
    ("WC", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 10.614618200411025,
        "map_output_bytes": 12626133.142306073,
        "reduce_compute_seconds": 5.4,
    },
    ("HR", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 6.0738999751573335,
        "map_output_bytes": 110169.0685213436,
        "reduce_compute_seconds": 4.8,
    },
    ("HR", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 5.964970031209564,
        "map_output_bytes": 93092.63201003247,
        "reduce_compute_seconds": 4.8,
    },
    ("LR", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 4.354175751855913,
        "map_output_bytes": 931564.6079632055,
        "reduce_compute_seconds": 8.4,
    },
    ("LR", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 4.9268266176657205,
        "map_output_bytes": 771178.0202761111,
        "reduce_compute_seconds": 8.4,
    },
    ("KM", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 3.653413593293387,
        "map_output_bytes": 11065416.141411282,
        "reduce_compute_seconds": 6.6,
    },
    ("CL", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 2.703160222234113,
        "map_output_bytes": 3706902.8664239994,
        "reduce_compute_seconds": 4.8,
    },
    ("CL", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 0.556012506904088,
        "map_output_bytes": 3055872.4769199993,
        "reduce_compute_seconds": 4.8,
    },
    ("BS", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 1.5376573788608872,
        "map_output_bytes": 3557009.7579897386,
        "reduce_compute_seconds": 0.0,
    },
    ("BS", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 0.6528745334464666,
        "map_output_bytes": 2889229.5246086745,
        "reduce_compute_seconds": 0.0,
    },
    ("II", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 17.192758273069057,
        "map_output_bytes": 131747709.2744131,
        "reduce_compute_seconds": 7.2,
    },
    ("II", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 10.388744634328349,
        "map_output_bytes": 117110115.47806652,
        "reduce_compute_seconds": 7.2,
    },
    ("RJ", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 34.707386716633906,
        "map_output_bytes": 27280075.565123506,
        "reduce_compute_seconds": 6.6,
    },
    ("RJ", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 36.536675980551536,
        "map_output_bytes": 29771050.63704555,
        "reduce_compute_seconds": 6.6,
    },
    ("TS", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 48.04501098448168,
        "map_output_bytes": 163180953.72626573,
        "reduce_compute_seconds": 6.0,
    },
    ("TS", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 51.226137078759514,
        "map_output_bytes": 190295640.8522739,
        "reduce_compute_seconds": 6.0,
    },
    ("PR", "Cluster1"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 22.40385082716191,
        "map_output_bytes": 67772328.13564034,
        "reduce_compute_seconds": 9.6,
    },
    ("PR", "Cluster2"): {
        "cpu_task_seconds": 60.0,
        "gpu_task_seconds": 19.942561308450767,
        "map_output_bytes": 63665667.795477614,
        "reduce_compute_seconds": 9.6,
    },
}

TABLE2_TASKS: dict[tuple[str, str], tuple[int, int]] = {
    ("GR", "Cluster1"): (7632, 16),
    ("GR", "Cluster2"): (2880, 16),
    ("HS", "Cluster1"): (4800, 8),
    ("HS", "Cluster2"): (640, 8),
    ("WC", "Cluster1"): (5760, 48),
    ("WC", "Cluster2"): (1024, 32),
    ("HR", "Cluster1"): (4800, 5),
    ("HR", "Cluster2"): (2560, 5),
    ("LR", "Cluster1"): (2560, 16),
    ("LR", "Cluster2"): (3840, 16),
    ("KM", "Cluster1"): (4800, 16),
    ("CL", "Cluster1"): (4800, 16),
    ("CL", "Cluster2"): (3200, 16),
    ("BS", "Cluster1"): (3600, 0),
    ("BS", "Cluster2"): (5120, 0),
    ("II", "Cluster1"): (5120, 32),
    ("II", "Cluster2"): (960, 16),
    ("RJ", "Cluster1"): (4480, 16),
    ("RJ", "Cluster2"): (896, 16),
    ("TS", "Cluster1"): (6144, 48),
    ("TS", "Cluster2"): (1152, 32),
    ("PR", "Cluster1"): (2880, 16),
    ("PR", "Cluster2"): (768, 16),
}
