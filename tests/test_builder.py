"""Tests for the edge-list → slotted-page builder and the database."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.format import PageFormatConfig, build_database
from repro.format.page import PageKind
from repro.graphgen import Graph, generate_erdos_renyi
from repro.graphgen.random_graphs import generate_star
from repro.units import KB


class TestPlacementInvariants:
    def test_validate_passes(self, rmat_db):
        assert rmat_db.validate()

    def test_every_vertex_covered_exactly_once(self, rmat_db):
        seen = set()
        for page in rmat_db.pages:
            if page.kind is PageKind.SMALL:
                for vid in page.vids():
                    assert vid not in seen
                    seen.add(int(vid))
            elif page.chunk_index == 0:
                assert page.vid not in seen
                seen.add(int(page.vid))
        assert seen == set(range(rmat_db.num_vertices))

    def test_every_edge_stored_once(self, rmat_graph, rmat_db):
        total = sum(page.num_edges for page in rmat_db.pages)
        assert total == rmat_graph.num_edges

    def test_vids_consecutive_within_pages(self, rmat_db):
        for page in rmat_db.pages:
            vids = page.vids()
            assert np.array_equal(vids,
                                  np.arange(vids[0], vids[0] + len(vids)))

    def test_pages_respect_capacity(self, rmat_db):
        for page in rmat_db.pages:
            assert page.used_bytes() <= rmat_db.config.page_size

    def test_adjacency_preserved(self, rmat_graph, rmat_db):
        """The database's adjacency equals the source CSR, vertex by
        vertex (large-page chunks concatenate in order)."""
        rebuilt = {}
        for page in rmat_db.pages:
            if page.kind is PageKind.SMALL:
                for i, vid in enumerate(page.vids()):
                    lo, hi = page.adj_indptr[i], page.adj_indptr[i + 1]
                    rebuilt.setdefault(int(vid), []).extend(
                        page.adj_vids[lo:hi])
            else:
                rebuilt.setdefault(int(page.vid), []).extend(page.adj_vids)
        for v in range(rmat_graph.num_vertices):
            assert rebuilt.get(v, []) == list(rmat_graph.neighbors(v))


class TestLargePages:
    def test_star_center_becomes_large_pages(self, small_config):
        star = generate_star(4000)
        db = build_database(star, small_config)
        assert db.num_large_pages >= 2
        large_vids = {page.vid for page in db.pages
                      if page.kind is PageKind.LARGE}
        assert large_vids == {0}

    def test_large_page_chunks_are_consecutive(self, small_config):
        star = generate_star(4000, center=100)
        db = build_database(star, small_config)
        lp_ids = [page.page_id for page in db.pages
                  if page.kind is PageKind.LARGE]
        assert lp_ids == list(range(lp_ids[0], lp_ids[0] + len(lp_ids)))

    def test_total_degree_recorded_on_every_chunk(self, small_config):
        star = generate_star(4000)
        db = build_database(star, small_config)
        for page in db.pages:
            if page.kind is PageKind.LARGE:
                assert page.total_degree == 3999

    def test_large_vertex_addressed_through_first_chunk(self, small_config):
        """Edges pointing at a large vertex use (first LP, slot 0)."""
        num_vertices = 4000
        sources = np.concatenate([
            np.full(num_vertices - 1, 0),
            np.asarray([1]),
        ])
        targets = np.concatenate([
            np.arange(1, num_vertices),
            np.asarray([0]),  # an edge back at the hub
        ])
        graph = Graph.from_edges(num_vertices, sources, targets)
        config = PageFormatConfig(2, 2, 2 * KB)
        db = build_database(graph, config)
        hub_first_lp = db.page_for_vertex(0)
        assert db.rvt.is_large(hub_first_lp)
        # Find vertex 1's record and check its single edge target.
        page = db.page(db.page_for_vertex(1))
        slot = 1 - page.start_vid
        lo = page.adj_indptr[slot]
        assert page.adj_pids[lo] == hub_first_lp
        assert page.adj_slots[lo] == 0

    def test_rvt_lp_range_marks_chunk_positions(self, small_config):
        star = generate_star(4000)
        db = build_database(star, small_config)
        for page in db.pages:
            if page.kind is PageKind.LARGE:
                assert db.rvt.lp_ranges[page.page_id] == page.chunk_index
            else:
                assert db.rvt.lp_ranges[page.page_id] == -1


class TestWeightedBuild:
    def test_weights_stored(self, weighted_graph, weighted_db):
        total = sum(
            float(page.adj_weights.sum()) for page in weighted_db.pages
            if page.adj_weights is not None and page.num_edges)
        assert total == pytest.approx(
            float(weighted_graph.weights.sum()), rel=1e-5)

    def test_unweighted_config_drops_weights(self, weighted_graph,
                                             small_config):
        db = build_database(weighted_graph, small_config)
        assert all(page.adj_weights is None for page in db.pages)


class TestDatabaseAccounting:
    def test_topology_bytes(self, rmat_db):
        assert rmat_db.topology_bytes() == \
            rmat_db.num_pages * rmat_db.config.page_size

    def test_fill_factor_reasonable(self, rmat_db):
        assert 0.5 < rmat_db.fill_factor() <= 1.0

    def test_page_for_vertex(self, rmat_db):
        for vid in (0, 5, rmat_db.num_vertices - 1):
            page = rmat_db.page(rmat_db.page_for_vertex(vid))
            assert vid in page.vids()

    def test_unknown_page_rejected(self, rmat_db):
        with pytest.raises(FormatError):
            rmat_db.page(10 ** 6)

    def test_statistics_keys(self, rmat_db):
        stats = rmat_db.statistics()
        assert stats["num_sp"] == rmat_db.num_small_pages
        assert stats["num_lp"] == rmat_db.num_large_pages
        assert stats["vertices"] == rmat_db.num_vertices

    def test_ra_subvector_bytes(self, rmat_db):
        sp = int(rmat_db.small_page_ids()[0])
        entry = rmat_db.directory[sp]
        assert rmat_db.ra_subvector_bytes(sp, 4) == entry.num_records * 4

    def test_attribute_vector_bytes(self, rmat_db):
        assert rmat_db.attribute_vector_bytes(4) == 4 * rmat_db.num_vertices

    def test_small_and_large_ids_partition_pages(self, rmat_db):
        ids = set(rmat_db.small_page_ids()) | set(rmat_db.large_page_ids())
        assert ids == set(range(rmat_db.num_pages))


class TestAddressingLimits:
    def test_too_many_pages_rejected(self):
        # A 1-byte page ID addresses only 256 pages.
        config = PageFormatConfig(page_id_bytes=1, slot_bytes=2,
                                  page_size=256)
        graph = generate_erdos_renyi(20000, avg_degree=4, seed=0)
        with pytest.raises(FormatError):
            build_database(graph, config)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_builder_round_trip_property(data):
    """Property: build + re-extract adjacency == source graph."""
    num_vertices = data.draw(st.integers(2, 200))
    num_edges = data.draw(st.integers(0, 500))
    rng_seed = data.draw(st.integers(0, 1000))
    rng = np.random.default_rng(rng_seed)
    sources = rng.integers(0, num_vertices, size=num_edges)
    targets = rng.integers(0, num_vertices, size=num_edges)
    graph = Graph.from_edges(num_vertices, sources, targets)
    config = PageFormatConfig(2, 2, 1 * KB)
    db = build_database(graph, config)
    db.validate()
    rebuilt = {}
    for page in db.pages:
        if page.kind is PageKind.SMALL:
            for i, vid in enumerate(page.vids()):
                lo, hi = page.adj_indptr[i], page.adj_indptr[i + 1]
                rebuilt.setdefault(int(vid), []).extend(page.adj_vids[lo:hi])
        else:
            rebuilt.setdefault(int(page.vid), []).extend(page.adj_vids)
    for v in range(num_vertices):
        assert rebuilt.get(v, []) == list(graph.neighbors(v))
