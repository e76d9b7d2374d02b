"""Tests for the micro-level parallelisation models (Section 6.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.micro import (
    MicroTechnique,
    WARP_SIZE,
    edge_centric_lane_steps,
    lane_steps,
    segment_lane_steps,
    vertex_centric_lane_steps,
)
from repro.errors import ConfigurationError


class TestTechniqueParsing:
    def test_parse_strings(self):
        assert MicroTechnique.parse("edge") is MicroTechnique.EDGE_CENTRIC
        assert MicroTechnique.parse("vertex") is MicroTechnique.VERTEX_CENTRIC
        assert MicroTechnique.parse("hybrid") is MicroTechnique.HYBRID

    def test_parse_passthrough(self):
        assert MicroTechnique.parse(
            MicroTechnique.HYBRID) is MicroTechnique.HYBRID

    def test_parse_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            MicroTechnique.parse("quantum")


class TestEdgeCentric:
    def test_one_full_warp_vertex(self):
        # Degree 32 occupies one warp for one step: 32 lane-steps + scan.
        steps = edge_centric_lane_steps(np.asarray([32]), num_records=1)
        assert steps == 32 + WARP_SIZE

    def test_partial_warp_rounds_up(self):
        # Degree 1 still burns a whole warp-step (ALU waste).
        steps = edge_centric_lane_steps(np.asarray([1]), num_records=1)
        assert steps == 32 + WARP_SIZE

    def test_scales_linearly_with_degree(self):
        small = edge_centric_lane_steps(np.asarray([64]), 1)
        large = edge_centric_lane_steps(np.asarray([640]), 1)
        assert (large - WARP_SIZE) == 10 * (small - WARP_SIZE)

    def test_inactive_records_only_pay_scan(self):
        steps = edge_centric_lane_steps(np.asarray([], dtype=np.int64),
                                        num_records=64)
        assert steps == 2 * WARP_SIZE  # two warps' scan


class TestVertexCentric:
    def test_warp_pays_its_max_degree(self):
        degrees = np.asarray([1] * 31 + [1000])
        steps = vertex_centric_lane_steps(degrees)
        assert steps == 32 * 1000

    def test_balanced_degrees_match_edge_centric(self):
        # All-equal degrees of 32: vertex and edge models coincide
        # (modulo the edge model's scan term).
        degrees = np.full(32, 32)
        vertex = vertex_centric_lane_steps(degrees)
        edge = edge_centric_lane_steps(degrees, 32)
        assert vertex == edge - WARP_SIZE

    def test_active_mask_zeroes_inactive(self):
        degrees = np.asarray([1000, 2])
        steps = vertex_centric_lane_steps(
            degrees, active_mask=np.asarray([False, True]))
        assert steps == 32 * 2

    def test_empty_page(self):
        assert vertex_centric_lane_steps(np.asarray([], dtype=int)) == 0.0

    def test_minimum_one_step_per_warp(self):
        steps = vertex_centric_lane_steps(np.zeros(5, dtype=int))
        assert steps == 32.0


class TestHybrid:
    def test_hybrid_is_min_of_both(self):
        degrees = np.asarray([1] * 31 + [1000])
        hybrid = lane_steps(MicroTechnique.HYBRID, degrees)
        edge = lane_steps(MicroTechnique.EDGE_CENTRIC, degrees)
        vertex = lane_steps(MicroTechnique.VERTEX_CENTRIC, degrees)
        assert hybrid == min(edge, vertex)

    def test_hybrid_prefers_edge_on_skewed_pages(self):
        degrees = np.asarray([1] * 31 + [1000])
        assert lane_steps("hybrid", degrees) == lane_steps("edge", degrees)

    def test_hybrid_can_prefer_vertex_on_sparse_pages(self):
        # A page of uniform degree-1 vertices: vertex-centric does 1 step
        # per warp; edge-centric pays per-record warp expansion.
        degrees = np.ones(320, dtype=int)
        assert (lane_steps("vertex", degrees)
                < lane_steps("edge", degrees))


class TestDispatch:
    def test_lane_steps_accepts_strings(self):
        degrees = np.asarray([4, 4])
        assert lane_steps("edge", degrees) > 0

    def test_active_mask_reduces_edge_work(self):
        degrees = np.asarray([100, 100])
        full = lane_steps("edge", degrees)
        half = lane_steps("edge", degrees, active_mask=[True, False])
        assert half < full


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
def test_both_models_cover_every_edge(degrees):
    """Property: no model can process E edges in fewer than E lane-steps."""
    degrees = np.asarray(degrees)
    total_edges = float(degrees.sum())
    assert vertex_centric_lane_steps(degrees) >= total_edges
    assert edge_centric_lane_steps(degrees, len(degrees)) >= total_edges


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
def test_hybrid_never_worse_than_either(degrees):
    degrees = np.asarray(degrees)
    hybrid = lane_steps("hybrid", degrees)
    assert hybrid <= lane_steps("edge", degrees) + 1e-9
    assert hybrid <= lane_steps("vertex", degrees) + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 300), min_size=0, max_size=40),
                min_size=1, max_size=12),
       st.sampled_from(["edge", "vertex", "hybrid"]),
       st.integers(0, 2 ** 32 - 1))
def test_segment_lane_steps_match_per_page_reference(pages, technique,
                                                     seed):
    """The per-page :func:`lane_steps` is the model; the segment form
    the kernels use must reproduce it bit for bit on every page of a
    flat page-major batch, with and without an active mask."""
    degrees = np.asarray([d for page in pages for d in page],
                         dtype=np.int64)
    indptr = np.zeros(len(pages) + 1, dtype=np.int64)
    np.cumsum([len(page) for page in pages], out=indptr[1:])
    active = np.random.default_rng(seed).random(len(degrees)) < 0.5
    for mask in (None, active):
        got = segment_lane_steps(technique, degrees, indptr, mask)
        want = [lane_steps(technique, degrees[lo:hi],
                           None if mask is None else mask[lo:hi])
                for lo, hi in zip(indptr[:-1], indptr[1:])]
        assert got.tolist() == [float(w) for w in want]
