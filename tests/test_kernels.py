"""Correctness tests: every GTS kernel against the reference algorithms.

Each kernel runs through the full engine (streaming, strategies, caching)
and must produce exactly the same values as the straightforward NumPy
implementation on the CSR graph.
"""

import numpy as np
import pytest

from repro.baselines import reference
from repro.core import (
    BCKernel,
    BFSKernel,
    DegreeKernel,
    GTSEngine,
    PageRankKernel,
    RWRKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.errors import ConfigurationError
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.graphgen.random_graphs import generate_ring, generate_star


def _run(db, machine, kernel, **kwargs):
    return GTSEngine(db, machine, **kwargs).run(kernel)


class TestBFS:
    def test_matches_reference(self, rmat_graph, rmat_db, machine):
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine, BFSKernel(start))
        expected = reference.bfs_levels(rmat_graph, start)
        assert np.array_equal(result.values["level"], expected)

    def test_unreachable_vertices_stay_unvisited(self, machine,
                                                 small_config):
        graph = generate_star(100)  # leaves have no out-edges
        db = build_database(graph, small_config)
        result = _run(db, machine, BFSKernel(start_vertex=5))
        levels = result.values["level"]
        assert levels[5] == 0
        assert (levels == -1).sum() == 99

    def test_ring_depth(self, machine, small_config):
        graph = generate_ring(50)
        db = build_database(graph, small_config)
        result = _run(db, machine, BFSKernel(0))
        assert result.values["level"].max() == 49
        assert result.num_rounds == 50

    def test_traversal_through_large_pages(self, machine, small_config):
        """A hub whose list spans several LPs must still expand fully."""
        graph = generate_star(4000)
        db = build_database(graph, small_config)
        assert db.num_large_pages >= 2
        result = _run(db, machine, BFSKernel(0))
        assert (result.values["level"] == 1).sum() == 3999

    def test_start_vertex_validated(self, rmat_db, machine):
        with pytest.raises(ConfigurationError):
            _run(rmat_db, machine, BFSKernel(start_vertex=10 ** 9))
        with pytest.raises(ConfigurationError):
            BFSKernel(start_vertex=-1)

    def test_rounds_match_reference_depth(self, rmat_graph, rmat_db,
                                          machine):
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine, BFSKernel(start))
        depth = reference.bfs_levels(rmat_graph, start).max()
        # One round per level that had a frontier.
        assert result.num_rounds == depth + 1


class TestPageRank:
    def test_matches_reference(self, rmat_graph, rmat_db, machine):
        result = _run(rmat_db, machine, PageRankKernel(iterations=10))
        expected = reference.pagerank(rmat_graph, iterations=10)
        assert np.allclose(result.values["rank"], expected, atol=1e-12)

    def test_custom_damping(self, rmat_graph, rmat_db, machine):
        result = _run(rmat_db, machine,
                      PageRankKernel(iterations=5, damping=0.5))
        expected = reference.pagerank(rmat_graph, iterations=5, damping=0.5)
        assert np.allclose(result.values["rank"], expected, atol=1e-12)

    def test_one_round_per_iteration(self, rmat_db, machine):
        result = _run(rmat_db, machine, PageRankKernel(iterations=7))
        assert result.num_rounds == 7

    def test_rank_mass_bounded(self, rmat_db, machine):
        result = _run(rmat_db, machine, PageRankKernel(iterations=10))
        total = result.values["rank"].sum()
        assert 0 < total <= 1.0 + 1e-9  # dangling mass leaks, never grows

    def test_large_page_vertex_divides_by_total_degree(self, machine,
                                                       small_config):
        graph = generate_star(4000)
        db = build_database(graph, small_config)
        result = _run(db, machine, PageRankKernel(iterations=3))
        expected = reference.pagerank(graph, iterations=3)
        assert np.allclose(result.values["rank"], expected, atol=1e-12)

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            PageRankKernel(iterations=0)
        with pytest.raises(ConfigurationError):
            PageRankKernel(damping=1.5)


class TestSSSP:
    def test_matches_reference_weighted(self, weighted_graph, weighted_db,
                                        machine):
        start = int(np.argmax(weighted_graph.out_degrees()))
        result = _run(weighted_db, machine, SSSPKernel(start))
        expected = reference.sssp_distances(weighted_graph, start)
        assert np.allclose(result.values["distance"], expected,
                           rtol=1e-5, equal_nan=True)

    def test_unweighted_equals_bfs_depth(self, rmat_graph, rmat_db,
                                         machine):
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine, SSSPKernel(start))
        levels = reference.bfs_levels(rmat_graph, start)
        dist = result.values["distance"]
        reachable = levels >= 0
        assert np.allclose(dist[reachable], levels[reachable])
        assert np.all(np.isinf(dist[~reachable]))

    def test_max_rounds_caps_execution(self, weighted_db, machine):
        result = _run(weighted_db, machine,
                      SSSPKernel(start_vertex=0, max_rounds=2))
        assert result.num_rounds <= 2

    def test_start_validated(self, weighted_db, machine):
        with pytest.raises(ConfigurationError):
            _run(weighted_db, machine, SSSPKernel(start_vertex=10 ** 9))

    def test_frontier_filter_matches_page_decoding(self, machine):
        """The next frontier keeps exactly the candidate pages that hold
        an improved vertex — what decoding each candidate page would
        give — on a graph with many large pages (hubs spanning runs)."""
        graph = generate_rmat(10, edge_factor=16, seed=5)
        graph = graph.with_random_weights(seed=5)
        db = build_database(graph, PageFormatConfig(
            2, 2, 512, weight_bytes=4))
        assert db.num_large_pages >= 20
        checked = []

        class CheckedSSSP(SSSPKernel):
            def finish_round(self, state, merged_next_pids):
                improved = state.dist < state.dist_prev
                expected = [pid for pid in merged_next_pids
                            if improved[db.page(int(pid)).vids()].any()]
                super().finish_round(state, merged_next_pids)
                np.testing.assert_array_equal(state.frontier_pids,
                                              expected)
                checked.append(len(expected))

        for start in (int(np.argmax(graph.out_degrees())), 1, 77):
            result = _run(db, machine, CheckedSSSP(start_vertex=start))
            np.testing.assert_allclose(
                result.values["distance"],
                reference.sssp_distances(graph, start), rtol=1e-6)
        assert len(checked) >= 10 and sum(checked) > 0


class TestWCC:
    def test_matches_reference(self, rmat_graph, machine, small_config):
        sym = rmat_graph.symmetrised()
        db = build_database(sym, small_config)
        result = _run(db, machine, WCCKernel())
        expected = reference.weakly_connected_components(rmat_graph)
        assert np.array_equal(result.values["component"], expected)

    def test_disconnected_components(self, machine, small_config):
        # Two separate rings: labels must not mix.
        from repro.graphgen import Graph
        ring = generate_ring(10)
        sources, targets = ring.edge_list()
        graph = Graph.from_edges(
            20,
            np.concatenate([sources, sources + 10]),
            np.concatenate([targets, targets + 10]))
        db = build_database(graph.symmetrised(), small_config)
        result = _run(db, machine, WCCKernel())
        labels = result.values["component"]
        assert np.all(labels[:10] == 0)
        assert np.all(labels[10:] == 10)

    def test_max_rounds_validated(self):
        with pytest.raises(ConfigurationError):
            WCCKernel(max_rounds=0)


class TestBC:
    def test_matches_reference_single_source(self, rmat_graph, rmat_db,
                                             machine):
        start = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine, BCKernel(sources=(start,)))
        expected = reference.betweenness_centrality(rmat_graph, (start,))
        assert np.allclose(result.values["centrality"], expected,
                           rtol=1e-9, atol=1e-9)

    def test_matches_reference_multi_source(self, rmat_graph, rmat_db,
                                            machine):
        degrees = rmat_graph.out_degrees()
        sources = tuple(int(v) for v in np.argsort(degrees)[-3:])
        result = _run(rmat_db, machine, BCKernel(sources=sources))
        expected = reference.betweenness_centrality(rmat_graph, sources)
        assert np.allclose(result.values["centrality"], expected,
                           rtol=1e-9, atol=1e-9)

    def test_diamond_path_counting(self, diamond_graph, machine,
                                   small_config):
        """0 -> {1,2} -> 3: each middle vertex carries half the paths."""
        db = build_database(diamond_graph, small_config)
        result = _run(db, machine, BCKernel(sources=(0,)))
        centrality = result.values["centrality"]
        assert centrality[1] == pytest.approx(0.5)
        assert centrality[2] == pytest.approx(0.5)
        assert centrality[0] == 0.0
        assert centrality[3] == 0.0

    def test_needs_a_source(self):
        with pytest.raises(ConfigurationError):
            BCKernel(sources=())

    def test_source_validated(self, rmat_db, machine):
        with pytest.raises(ConfigurationError):
            _run(rmat_db, machine, BCKernel(sources=(10 ** 9,)))


class TestRWR:
    def test_matches_reference(self, rmat_graph, rmat_db, machine):
        query = int(np.argmax(rmat_graph.out_degrees()))
        result = _run(rmat_db, machine,
                      RWRKernel(query_vertex=query, iterations=8))
        expected = reference.random_walk_with_restart(
            rmat_graph, query, iterations=8)
        assert np.allclose(result.values["proximity"], expected, atol=1e-12)

    def test_restart_mass_at_query(self, rmat_db, machine):
        result = _run(rmat_db, machine,
                      RWRKernel(query_vertex=3, iterations=5, restart=0.3))
        assert result.values["proximity"][3] >= 0.3

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            RWRKernel(iterations=0)
        with pytest.raises(ConfigurationError):
            RWRKernel(restart=2.0)


class TestDegree:
    def test_matches_graph_degrees(self, rmat_graph, rmat_db, machine):
        result = _run(rmat_db, machine, DegreeKernel())
        out_expected, in_expected = reference.degree_counts(rmat_graph)
        assert np.array_equal(result.values["out_degree"], out_expected)
        assert np.array_equal(result.values["in_degree"], in_expected)

    def test_single_pass(self, rmat_db, machine):
        result = _run(rmat_db, machine, DegreeKernel())
        assert result.num_rounds == 1

    def test_star_degrees(self, machine, small_config):
        graph = generate_star(1000)
        db = build_database(graph, small_config)
        result = _run(db, machine, DegreeKernel())
        assert result.values["out_degree"][0] == 999
        assert result.values["in_degree"][0] == 0
        assert result.values["in_degree"][1:].sum() == 999
