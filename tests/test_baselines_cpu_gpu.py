"""Tests for the CPU (Figure 7) and GPU (Figure 8) baseline engines."""

import numpy as np
import pytest

from repro.baselines import reference
from repro.baselines.cpu import (
    CPUHostSpec,
    GaloisEngine,
    LigraEngine,
    LigraPlusEngine,
    MTGLEngine,
    paper_cpu_host,
    scaled_cpu_host,
)
from repro.baselines.gpu import (
    CuShaEngine,
    MapGraphEngine,
    TOTEM_PARTITION_TABLE,
    TotemEngine,
)
from repro.errors import OutOfMemoryError
from repro.graphgen import generate_rmat
from repro.hardware.specs import GPUSpec
from repro.units import GB

CPU_ENGINES = [MTGLEngine, GaloisEngine, LigraEngine, LigraPlusEngine]


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(9, edge_factor=8, seed=44)


class TestCPUHost:
    def test_paper_shape(self):
        host = paper_cpu_host()
        assert host.num_threads == 16
        assert host.main_memory == 128 * GB

    def test_scaled(self):
        host = scaled_cpu_host(1024)
        assert host.main_memory == 128 * GB // 1024
        assert host.num_threads == 16


class TestCPUEngines:
    @pytest.mark.parametrize("engine_cls", CPU_ENGINES)
    def test_bfs_values_exact(self, engine_cls, graph):
        result = engine_cls().run_bfs(graph, 0)
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    @pytest.mark.parametrize("engine_cls", CPU_ENGINES)
    def test_pagerank_values_exact(self, engine_cls, graph):
        result = engine_cls().run_pagerank(graph, iterations=3)
        assert np.allclose(result.values["rank"],
                           reference.pagerank(graph, iterations=3))

    def test_mtgl_is_slowest(self, graph):
        times = {cls.name: cls().run_pagerank(graph, 5).elapsed_seconds
                 for cls in CPU_ENGINES}
        assert times["MTGL"] == max(times.values())

    def test_ligra_beats_galois(self, graph):
        start = int(np.argmax(graph.out_degrees()))
        assert (LigraEngine().run_bfs(graph, start).elapsed_seconds
                < GaloisEngine().run_bfs(graph, start).elapsed_seconds)

    def test_ligra_plus_needs_less_memory(self, graph):
        assert (LigraPlusEngine().memory_footprint(graph)
                < LigraEngine().memory_footprint(graph))

    def test_oom_on_tiny_host(self, graph):
        host = CPUHostSpec(main_memory=1024)
        with pytest.raises(OutOfMemoryError):
            LigraEngine(host).run_bfs(graph, 0)

    def test_cc_and_sssp_supported(self, graph):
        weighted = graph.with_random_weights(seed=2)
        engine = GaloisEngine()
        cc = engine.run_cc(graph)
        sssp = engine.run_sssp(weighted, 0)
        assert np.array_equal(
            cc.values["component"],
            reference.weakly_connected_components(graph))
        assert np.allclose(sssp.values["distance"],
                           reference.sssp_distances(weighted, 0),
                           rtol=1e-5, equal_nan=True)


class TestTotem:
    def test_values_exact(self, graph):
        result = TotemEngine().run_bfs(graph, 0)
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    def test_partition_from_table(self, graph):
        engine = TotemEngine()
        fraction = engine.resolve_partition(graph, "BFS",
                                            dataset_name="twitter")
        assert fraction == TOTEM_PARTITION_TABLE[("twitter", "BFS", 2)]

    def test_partition_auto_derived_from_memory(self, graph):
        # Device holds well under the graph's 8 B/edge GPU slice.
        tiny = TotemEngine(
            gpus=[GPUSpec(device_memory=graph.num_edges * 4)])
        fraction = tiny.resolve_partition(graph, "BFS")
        assert 0 < fraction < 0.95

    def test_explicit_partition_wins(self, graph):
        engine = TotemEngine(partition_ratio=0.42)
        assert engine.resolve_partition(graph, "BFS", "twitter") == 0.42

    def test_single_gpu_partition_differs(self, graph):
        one = TotemEngine(gpus=[GPUSpec()])
        assert one.resolve_partition(graph, "BFS", "twitter") \
            == TOTEM_PARTITION_TABLE[("twitter", "BFS", 1)]

    def test_needs_contiguous_main_memory(self, graph):
        host = CPUHostSpec(main_memory=1024)
        with pytest.raises(OutOfMemoryError):
            TotemEngine(host=host).run_bfs(graph, 0)

    def test_bigger_gpu_fraction_is_faster_for_pagerank(self, graph):
        slow = TotemEngine(partition_ratio=0.1).run_pagerank(graph, 5)
        fast = TotemEngine(partition_ratio=0.9).run_pagerank(graph, 5)
        assert fast.elapsed_seconds < slow.elapsed_seconds


class TestDeviceMemoryOnlyEngines:
    def test_cusha_values_exact(self, graph):
        result = CuShaEngine().run_bfs(graph, 0)
        assert np.array_equal(result.values["level"],
                              reference.bfs_levels(graph, 0))

    def test_cusha_pagerank_needs_more_memory_than_bfs(self, graph):
        engine = CuShaEngine()
        assert (engine.footprint(graph, "PageRank")
                > engine.footprint(graph, "BFS"))

    def test_cusha_oom_when_graph_exceeds_device(self, graph):
        engine = CuShaEngine(gpus=[GPUSpec(device_memory=1024)])
        with pytest.raises(OutOfMemoryError):
            engine.run_bfs(graph, 0)

    def test_mapgraph_less_space_efficient_than_cusha(self, graph):
        assert (MapGraphEngine().footprint(graph, "BFS")
                > CuShaEngine().footprint(graph, "BFS"))

    def test_two_gpus_double_capacity(self, graph):
        one = CuShaEngine(gpus=[GPUSpec()])
        two = CuShaEngine(gpus=[GPUSpec(), GPUSpec()])
        assert two.total_gpu_memory() == 2 * one.total_gpu_memory()
