"""HDFS block placement: replication, distinct nodes, seeded draws."""

import random

import pytest

from repro.hadoop.simulate import SAMPLE_PLACEMENT_NODES, place_blocks


class TestPlaceBlocks:
    def test_one_placement_per_block(self):
        assert len(place_blocks(5, num_nodes=8, replication=3, seed=1)) == 5

    def test_replication_factor_respected(self):
        for replicas in place_blocks(20, num_nodes=8, replication=3, seed=1):
            assert len(replicas) == 3
            assert len(set(replicas)) == 3  # distinct nodes
            assert all(0 <= node < 8 for node in replicas)

    def test_replication_clamped_to_cluster(self):
        assert place_blocks(1, num_nodes=2, replication=5, seed=0) \
            in ([(0, 1)], [(1, 0)])

    def test_placement_deterministic_by_seed(self):
        assert place_blocks(30, 4, 2, seed=7) == place_blocks(30, 4, 2, seed=7)
        assert place_blocks(30, 4, 2, seed=7) != place_blocks(30, 4, 2, seed=8)

    @pytest.mark.parametrize("num_nodes", [48, SAMPLE_PLACEMENT_NODES,
                                           SAMPLE_PLACEMENT_NODES + 1, 1000])
    def test_one_rng_stream_shuffle_then_sample(self, num_nodes):
        # Up to the threshold every block shuffles a fresh node list;
        # above it every block samples from one shared tuple of node
        # ids, which ``sample`` reads only by length and drawn index, so
        # the draws equal sampling a fresh ``range``. Both come from one
        # Random(seed).
        for seed in (0, 1, 3, 7, 42):
            rng = random.Random(seed)
            expected = []
            for _ in range(50):
                if num_nodes > SAMPLE_PLACEMENT_NODES:
                    expected.append(tuple(rng.sample(range(num_nodes), 3)))
                else:
                    nodes = list(range(num_nodes))
                    rng.shuffle(nodes)
                    expected.append(tuple(nodes[:3]))
            assert place_blocks(50, num_nodes, 3, seed=seed) == expected

    def test_large_cluster_samples_distinct_nodes(self):
        placements = place_blocks(500, num_nodes=1000, replication=3, seed=5)
        assert all(len(set(r)) == 3 and all(0 <= n < 1000 for n in r)
                   for r in placements)
        # Uniform over the cluster: 1500 replicas land on many nodes.
        assert len({n for r in placements for n in r}) > 600

    def test_large_cluster_replicas_share_node_ids(self):
        # One int object per node id, however many blocks it holds: at
        # 1000 nodes ids above 256 are not CPython's cached small ints.
        placements = place_blocks(2000, num_nodes=1000, replication=3,
                                  seed=5)
        first: dict[int, int] = {}
        for replicas in placements:
            for node in replicas:
                assert first.setdefault(node, node) is node
        assert sum(n > 256 for n in first) > 600
