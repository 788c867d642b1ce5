"""Cost model and configuration tests."""

import pytest

from repro.config import (
    CLUSTER1,
    CLUSTER2,
    GB,
    LaunchConfig,
    OptimizationFlags,
)
from repro.costmodel.cpu import CpuTaskModel
from repro.costmodel.io import IoModel
from repro.errors import ConfigError
from repro.minic.interpreter import ExecCounters


class TestClusterConfigs:
    def test_table3_cluster1(self):
        assert CLUSTER1.num_slaves == 48
        assert CLUSTER1.cpu.cores == 20
        assert CLUSTER1.gpus_per_node == 1
        assert CLUSTER1.hdfs_replication == 3
        assert CLUSTER1.max_map_slots_per_node == 20
        assert CLUSTER1.gpu.name == "Tesla K40"

    def test_table3_cluster2(self):
        assert CLUSTER2.num_slaves == 32
        assert CLUSTER2.cpu.cores == 12
        assert CLUSTER2.gpus_per_node == 3
        assert CLUSTER2.hdfs_replication == 1
        assert not CLUSTER2.has_disk  # in-memory system
        assert CLUSTER2.max_map_slots_per_node == 4

    def test_with_gpus_copy(self):
        two = CLUSTER2.with_gpus(2)
        assert two.gpus_per_node == 2
        assert CLUSTER2.gpus_per_node == 3  # original untouched

    def test_cpu_only_variant(self):
        assert CLUSTER1.cpu_only().gpus_per_node == 0

    def test_totals(self):
        assert CLUSTER1.total_map_slots == 48 * 20
        assert CLUSTER2.total_gpus == 96

    def test_invalid_configs_rejected(self):
        import dataclasses

        with pytest.raises(ConfigError):
            dataclasses.replace(CLUSTER1, num_slaves=0)
        with pytest.raises(ConfigError):
            dataclasses.replace(CLUSTER1, hdfs_replication=0)

    # A zero or NaN heartbeat interval would hang or poison the
    # simulator's event loop.
    @pytest.mark.parametrize("field, value", [
        ("heartbeat_interval_s", 0.0),
        ("heartbeat_interval_s", -0.6),
        ("heartbeat_interval_s", float("nan")),
        ("heartbeat_interval_s", float("inf")),
        ("hdfs_block_size", 0),
        ("hdfs_block_size", -1),
    ])
    def test_bad_simulator_inputs_rejected(self, field, value):
        import dataclasses

        with pytest.raises(ConfigError):
            dataclasses.replace(CLUSTER1, **{field: value})

    # Slot counts that used to fail only deep in a simulation: a
    # ZeroDivisionError in the reduce estimate, an event loop drained
    # with maps unfinished, or a per-TaskTracker HadoopError.
    @pytest.mark.parametrize("overrides, match", [
        ({"max_reduce_slots_per_node": 0}, "max_reduce_slots_per_node"),
        ({"max_reduce_slots_per_node": -1}, "max_reduce_slots_per_node"),
        ({"max_map_slots_per_node": -1}, "max_map_slots_per_node"),
        ({"max_map_slots_per_node": 0, "gpus_per_node": 0},
         "at least one map slot or GPU"),
    ], ids=["no-reduce-slot", "negative-reduce", "negative-map", "no-map-slot"])
    def test_unusable_slot_counts_rejected(self, overrides, match):
        import dataclasses

        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(CLUSTER1, **overrides)
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(CLUSTER2, **overrides).cpu_only()

    def test_gpu_only_nodes_and_cpu_only_baseline_are_legal(self):
        import dataclasses

        gpu_only = dataclasses.replace(CLUSTER1, max_map_slots_per_node=0)
        assert gpu_only.total_map_slots == 0 and gpu_only.total_gpus == 48
        assert CLUSTER1.cpu_only().total_gpus == 0
        with pytest.raises(ConfigError, match="at least one map slot"):
            gpu_only.cpu_only()


class TestLaunchConfig:
    def test_defaults_sane(self):
        launch = LaunchConfig()
        assert launch.threads % 32 == 0

    def test_non_warp_multiple_rejected(self):
        with pytest.raises(ConfigError):
            LaunchConfig(blocks=10, threads=100)

    def test_total_threads(self):
        assert LaunchConfig(blocks=4, threads=64).total_threads == 256


class TestOptimizationFlags:
    def test_baseline_all_off(self):
        base = OptimizationFlags.baseline()
        assert not any([base.use_texture, base.vectorize_map,
                        base.vectorize_combine, base.record_stealing,
                        base.kv_aggregation])

    def test_but_toggles_single_flag(self):
        flags = OptimizationFlags.all_on().but(use_texture=False)
        assert not flags.use_texture and flags.vectorize_map

    def test_but_unknown_flag_rejected(self):
        with pytest.raises(ConfigError):
            OptimizationFlags.all_on().but(warp_drive=True)

    def test_but_does_not_mutate_original(self):
        flags = OptimizationFlags.all_on()
        flags.but(use_texture=False)
        assert flags.use_texture


class TestIoModel:
    def test_local_read_faster_than_remote(self, cluster1_io):
        n = 64 * 1024 * 1024
        assert cluster1_io.hdfs_read_s(n, local=True) < \
            cluster1_io.hdfs_read_s(n, local=False)

    def test_replication_costs_more(self, cluster1_io):
        n = 10 * 1024 * 1024
        assert cluster1_io.hdfs_write_s(n, replication=3) > \
            cluster1_io.hdfs_write_s(n, replication=1)

    def test_cluster2_memory_disk_much_faster(self):
        io1 = IoModel.for_cluster(CLUSTER1)
        io2 = IoModel.for_cluster(CLUSTER2)
        n = 64 * 1024 * 1024
        assert io2.local_write_s(n) < io1.local_write_s(n) / 5

    def test_negative_size_rejected(self, cluster1_io):
        with pytest.raises(ConfigError):
            cluster1_io.hdfs_read_s(-1)


class TestCpuTaskModel:
    def model(self):
        return CpuTaskModel(CLUSTER1.cpu, IoModel.for_cluster(CLUSTER1))

    def test_compute_scales_with_work(self):
        m = self.model()
        light = ExecCounters(ops=1000)
        heavy = ExecCounters(ops=1_000_000)
        assert m.compute_s(heavy) > 100 * m.compute_s(light)

    def test_fp_ops_cost_extra(self):
        m = self.model()
        assert m.compute_s(ExecCounters(ops=100, fp_ops=100)) > \
            m.compute_s(ExecCounters(ops=100))

    def test_sort_superlinear(self):
        m = self.model()
        assert m.sort_s(20_000, 30) > 2.1 * m.sort_s(10_000, 30)

    def test_long_keys_sort_slower(self):
        m = self.model()
        assert m.sort_s(10_000, 64) > m.sort_s(10_000, 4)

    def test_task_timing_composition(self):
        m = self.model()
        timing = m.task_timing(
            split_bytes=1 << 20,
            map_counters=ExecCounters(ops=100_000),
            map_kv_pairs=5_000,
            key_length=30,
            combine_counters=ExecCounters(ops=20_000),
            output_bytes=1 << 18,
            map_only=False,
            replication=3,
        )
        # A CPU task charges five of the seven Fig. 6 categories; the
        # GPU-only two add exactly 0.0, so the total is bit-for-bit the
        # five-term left-to-right sum the goldens were recorded with.
        assert (timing.record_count, timing.aggregate) == (0.0, 0.0)
        assert timing.total == (
            timing.input_read + timing.map + timing.sort
            + timing.combine + timing.output_write
        )
        assert timing.combine > 0

    def test_map_only_writes_to_hdfs(self):
        m = self.model()
        kwargs = dict(
            split_bytes=1 << 20, map_counters=ExecCounters(ops=1000),
            map_kv_pairs=10, key_length=4, combine_counters=None,
            output_bytes=1 << 20, replication=3,
        )
        hdfs = m.task_timing(map_only=True, **kwargs)
        local = m.task_timing(map_only=False, **kwargs)
        assert hdfs.output_write > local.output_write
