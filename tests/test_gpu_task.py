"""Full GPU task pipeline tests (Fig. 1 / Fig. 6). Failed-task
containment is in ``tests/test_config_containment.py``."""

import pytest

from repro.config import CLUSTER1, OptimizationFlags, TESLA_M2090
from repro.apps import get_app
from repro.costmodel.io import IoModel
from repro.errors import GpuError, GpuOutOfMemory
from repro.gpu.device import GpuDevice
from repro.runtime.gpu_task import GpuTaskRunner
from repro.runtime.seqfile import SequenceFileReader


@pytest.fixture
def wc_runner(cluster1_io):
    app = get_app("WC")
    return GpuTaskRunner(
        app.translate_map(), app.translate_combine(),
        GpuDevice(CLUSTER1.gpu), cluster1_io, num_reducers=4,
    )


class TestPipeline:
    def test_breakdown_covers_all_stages(self, wc_runner):
        app = get_app("WC")
        result = wc_runner.run(app.generate(200, seed=1).encode())
        bd = result.breakdown
        assert bd.input_read > 0 and bd.map > 0 and bd.sort > 0
        assert bd.combine > 0 and bd.output_write > 0
        assert bd.total == pytest.approx(sum(bd.as_dict().values()))

    def test_device_memory_released_after_task(self, wc_runner):
        app = get_app("WC")
        wc_runner.run(app.generate(100, seed=1).encode())
        assert wc_runner.device.memory.used == 0

    def test_seqfile_output_parses(self, wc_runner):
        app = get_app("WC")
        result = wc_runner.run(app.generate(100, seed=1).encode())
        total = 0
        for part, image in result.seqfiles.items():
            pairs = SequenceFileReader(image).read_all()
            assert pairs == result.partition_output[part]
            total += len(pairs)
        assert total == result.output_pairs

    def test_combiner_shrinks_output(self, wc_runner):
        app = get_app("WC")
        result = wc_runner.run(app.generate(300, seed=1).encode())
        assert result.output_pairs < result.emitted_pairs

    def test_min_gpu_mem_enforced(self, cluster1_io):
        app = get_app("KM")  # declares 8 GB working-set floor
        runner = GpuTaskRunner(
            app.translate_map(), None, GpuDevice(TESLA_M2090), cluster1_io,
            num_reducers=16, min_gpu_mem=app.min_gpu_mem,
        )
        with pytest.raises(GpuOutOfMemory):
            runner.run(b"1.0 2.0\n")

    def test_aggregation_off_slows_sort(self, cluster1_io):
        app = get_app("WC")
        split = app.generate(400, seed=2).encode()
        on = GpuTaskRunner(app.translate_map(), app.translate_combine(),
                           GpuDevice(CLUSTER1.gpu), cluster1_io, 4)
        off_opt = OptimizationFlags.all_on().but(kv_aggregation=False)
        off = GpuTaskRunner(app.translate_map(off_opt),
                            app.translate_combine(off_opt),
                            GpuDevice(CLUSTER1.gpu), cluster1_io, 4)
        sort_on = on.run(split).breakdown.sort
        sort_off = off.run(split).breakdown.sort
        assert sort_off > sort_on  # Fig. 7e direction

    def test_map_translation_required(self, cluster1_io):
        app = get_app("WC")
        with pytest.raises(GpuError):
            GpuTaskRunner(app.translate_combine(), None,
                          GpuDevice(CLUSTER1.gpu), cluster1_io, 4)
