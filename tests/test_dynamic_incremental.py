"""Incremental recomputation: affected-PID seeding must reproduce the
full-rerun answer while streaming strictly fewer pages for localised
insert batches."""

import numpy as np
import pytest

from repro.core import BFSKernel, GTSEngine, WCCKernel
from repro.dynamic import (
    DynamicGraphDatabase,
    UpdateBatch,
    incremental_bfs,
    incremental_wcc,
    insert_seeds,
)
from repro.errors import UpdateError
from repro.format import PageFormatConfig, build_database
from repro.graphgen import Graph


def _path_db(small_config, num_vertices=32):
    vids = np.arange(num_vertices - 1)
    graph = Graph.from_edges(num_vertices, vids, vids + 1)
    return DynamicGraphDatabase(build_database(graph, small_config))


class TestSeeds:
    def test_insert_seeds_collects_sources(self):
        batches = [UpdateBatch().insert_edge(3, 4).insert_edge(7, 1),
                   UpdateBatch().insert_edge(3, 9).add_vertices(2)]
        assert sorted(insert_seeds(batches)) == [3, 7]

    def test_deletes_are_rejected(self):
        with pytest.raises(UpdateError, match="insert-only"):
            insert_seeds([UpdateBatch().delete_edge(0, 1)])
        with pytest.raises(UpdateError):
            incremental_bfs(None, np.zeros(4, dtype=np.int32),
                            [UpdateBatch().delete_edge(0, 1)])


class TestIncrementalBFS:
    def test_matches_full_rerun(self, rmat_db, machine):
        db = DynamicGraphDatabase(rmat_db)
        engine = GTSEngine(db, machine)
        start = int(np.argmax(db.out_degrees))
        full = engine.run(BFSKernel(start_vertex=start))

        rng = np.random.default_rng(11)
        n = db.num_vertices
        batch = UpdateBatch()
        for _ in range(10):
            batch.insert_edge(int(rng.integers(n)), int(rng.integers(n)))
        db.apply(batch)

        inc = engine.run(incremental_bfs(db, full.values["level"], [batch]))
        rerun = engine.run(BFSKernel(start_vertex=start))
        np.testing.assert_array_equal(
            inc.values["level"], rerun.values["level"])

    def test_streams_fewer_pages_for_local_batch(self, rmat_db, machine):
        db = DynamicGraphDatabase(rmat_db)
        engine = GTSEngine(db, machine)
        start = int(np.argmax(db.out_degrees))
        full = engine.run(BFSKernel(start_vertex=start))

        # A batch touching a handful of vertices (far under 10% of the
        # graph) must not trigger a whole-database restream.
        batch = UpdateBatch().insert_edge(0, 1).insert_edge(2, 3)
        db.apply(batch)
        assert len(batch.touched_vertices()) < 0.1 * db.num_vertices

        inc = engine.run(incremental_bfs(db, full.values["level"], [batch]))
        rerun = engine.run(BFSKernel(start_vertex=start))
        np.testing.assert_array_equal(
            inc.values["level"], rerun.values["level"])
        assert inc.pages_streamed < rerun.pages_streamed

    def test_shortcut_edge_propagates(self, small_config, machine):
        db = _path_db(small_config)
        engine = GTSEngine(db, machine)
        full = engine.run(BFSKernel(start_vertex=0))
        assert full.values["level"][31] == 31

        db.apply(UpdateBatch().insert_edge(0, 30))
        inc = engine.run(incremental_bfs(db, full.values["level"],
                                         [UpdateBatch().insert_edge(0, 30)]))
        assert inc.values["level"][30] == 1
        assert inc.values["level"][31] == 2
        # Untouched prefix keeps its old levels.
        np.testing.assert_array_equal(
            inc.values["level"][:30], full.values["level"][:30])

    def test_edge_into_new_vertex(self, small_config, machine):
        db = _path_db(small_config, num_vertices=6)
        engine = GTSEngine(db, machine)
        full = engine.run(BFSKernel(start_vertex=0))

        batch = UpdateBatch().add_vertices(1).insert_edge(2, 6)
        db.apply(batch)
        inc = engine.run(incremental_bfs(db, full.values["level"], [batch]))
        rerun = engine.run(BFSKernel(start_vertex=0))
        np.testing.assert_array_equal(
            inc.values["level"], rerun.values["level"])
        assert inc.values["level"][6] == 3


class TestIncrementalWCC:
    def test_matches_full_rerun(self, rmat_db, machine):
        db = DynamicGraphDatabase(rmat_db)
        engine = GTSEngine(db, machine)
        full = engine.run(WCCKernel())

        rng = np.random.default_rng(5)
        n = db.num_vertices
        batch = UpdateBatch()
        for _ in range(8):
            batch.insert_edge(int(rng.integers(n)), int(rng.integers(n)))
        db.apply(batch)

        inc = engine.run(
            incremental_wcc(db, full.values["component"], [batch]))
        rerun = engine.run(WCCKernel())
        np.testing.assert_array_equal(
            inc.values["component"], rerun.values["component"])

    def test_bridge_merges_components(self, small_config, machine):
        # Two disjoint 3-cycles; a bridge edge must unify their labels.
        sources = np.array([0, 1, 2, 3, 4, 5])
        targets = np.array([1, 2, 0, 4, 5, 3])
        graph = Graph.from_edges(6, sources, targets)
        db = DynamicGraphDatabase(build_database(graph, small_config))
        engine = GTSEngine(db, machine)
        full = engine.run(WCCKernel())
        assert full.values["component"][0] != full.values["component"][3]

        batch = UpdateBatch().insert_edge(2, 3)
        db.apply(batch)
        inc = engine.run(
            incremental_wcc(db, full.values["component"], [batch]))
        rerun = engine.run(WCCKernel())
        np.testing.assert_array_equal(
            inc.values["component"], rerun.values["component"])
        assert inc.values["component"][0] == inc.values["component"][3]


def _synchronous_relaxation(edges, values, seeds, candidate, can_relax):
    """Plain-Python BSP relaxation over an edge list: every read in a
    round sees the values the round started with.  Returns
    ``(values, rounds, edges traversed)``."""
    values = values.copy()
    neighbours = {}
    for source, target in edges:
        neighbours.setdefault(source, []).append(target)
    pending = {int(s) for s in seeds}
    rounds = traversed = 0
    while pending:
        rounds += 1
        start = values.copy()
        improved = set()
        for v in sorted(pending):
            if not can_relax(start[v]):
                continue
            for t in neighbours.get(v, ()):
                traversed += 1
                if candidate(start[v]) < start[t]:
                    values[t] = min(values[t], candidate(start[v]))
                    improved.add(t)
        pending = improved
    return values, rounds, traversed


class TestSynchronousRounds:
    """Rounds read a round-start snapshot (the BSP contract), so round
    and edge counts never depend on the order pages stream in."""

    #: A 400-vertex path, in pages of a few dozen vertices.
    PATH = [(v, v + 1) for v in range(399)]

    def _long_path(self, tiny_config):
        sources, targets = zip(*self.PATH)
        graph = Graph.from_edges(400, list(sources), list(targets))
        return DynamicGraphDatabase(build_database(graph, tiny_config))

    @pytest.fixture
    def tiny_config(self):
        return PageFormatConfig(page_id_bytes=2, slot_bytes=2,
                                page_size=512)

    def test_bfs_matches_synchronous_reference(self, tiny_config,
                                               machine):
        db = self._long_path(tiny_config)
        engine = GTSEngine(db, machine)
        full = engine.run(BFSKernel(start_vertex=0))
        inserts = [(0, 100), (5, 300), (100, 300)]
        batch = UpdateBatch()
        for source, target in inserts:
            batch.insert_edge(source, target)
        db.apply(batch)
        kernel = incremental_bfs(db, full.values["level"], [batch])
        inc = engine.run(kernel)
        inf = kernel._INF
        values, rounds, edges = _synchronous_relaxation(
            self.PATH + inserts, kernel._initial_values(db), kernel.seeds,
            lambda value: value + 1, lambda value: value < inf)
        assert (inc.num_rounds, inc.edges_traversed) == (rounds, edges)
        rerun = engine.run(BFSKernel(start_vertex=0))
        np.testing.assert_array_equal(inc.values["level"],
                                      rerun.values["level"])
        np.testing.assert_array_equal(
            np.where(values < inf, values, -1).astype(np.int32),
            rerun.values["level"])

    def test_wcc_matches_synchronous_reference(self, tiny_config,
                                               machine):
        db = self._long_path(tiny_config)
        engine = GTSEngine(db, machine)
        full = engine.run(WCCKernel())
        inserts = [(399, 2), (250, 7), (7, 0)]
        batch = UpdateBatch()
        for source, target in inserts:
            batch.insert_edge(source, target)
        db.apply(batch)
        kernel = incremental_wcc(db, full.values["component"], [batch])
        inc = engine.run(kernel)
        values, rounds, edges = _synchronous_relaxation(
            self.PATH + inserts, kernel._initial_values(db), kernel.seeds,
            lambda value: value, lambda value: True)
        assert (inc.num_rounds, inc.edges_traversed) == (rounds, edges)
        np.testing.assert_array_equal(inc.values["component"], values)
        rerun = engine.run(WCCKernel())
        np.testing.assert_array_equal(inc.values["component"],
                                      rerun.values["component"])
