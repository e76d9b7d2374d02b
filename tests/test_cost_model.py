"""Tests for the Section 5 analytic cost models."""

import pytest

from repro.core import PageRankKernel
from repro.core.cost_model import (
    CostInputs,
    LevelWork,
    bfs_like_cost,
    inputs_from_run,
    pagerank_like_cost,
)
from repro.errors import ConfigurationError
from repro.units import GB, MB


def _inputs(num_gpus=2, **overrides):
    values = dict(
        wa_bytes=4 * GB,
        ra_bytes=4 * GB,
        sp_bytes=100 * GB,
        lp_bytes=10 * GB,
        num_sp=1600,
        num_lp=160,
        num_gpus=num_gpus,
        chunk_bandwidth=16 * GB,
        stream_bandwidth=6 * GB,
        kernel_launch_overhead=5e-6,
    )
    values.update(overrides)
    return CostInputs(**values)


class TestEquation1:
    def test_wa_term_unaffected_by_gpus(self):
        """2|WA|/c1 does not shrink with N (the paper stresses this)."""
        slim = _inputs(num_gpus=1, sp_bytes=0, lp_bytes=0, ra_bytes=0,
                       num_sp=0, num_lp=0)
        wide = _inputs(num_gpus=8, sp_bytes=0, lp_bytes=0, ra_bytes=0,
                       num_sp=0, num_lp=0)
        assert pagerank_like_cost(slim) == pytest.approx(
            pagerank_like_cost(wide))

    def test_stream_term_divides_by_gpus(self):
        one = pagerank_like_cost(_inputs(num_gpus=1))
        two = pagerank_like_cost(_inputs(num_gpus=2))
        # Only the streaming + call terms halve; WA term is fixed.
        wa_term = 2 * 4 * GB / (16 * GB)
        assert (two - wa_term) == pytest.approx((one - wa_term) / 2)

    def test_sync_term_grows_with_gpus(self):
        def sync_cost(num_gpus):
            with_sync = pagerank_like_cost(
                _inputs(num_gpus=num_gpus, sync_seconds_per_gpu=0.01))
            without = pagerank_like_cost(_inputs(num_gpus=num_gpus))
            return with_sync - without
        assert sync_cost(4) == pytest.approx(2 * sync_cost(2))

    def test_drain_term_added_once(self):
        with_drain = _inputs(page_kernel_seconds=1.5)
        assert pagerank_like_cost(with_drain) == pytest.approx(
            pagerank_like_cost(_inputs()) + 1.5)

    def test_iterations_multiply(self):
        assert pagerank_like_cost(_inputs(), iterations=7) == pytest.approx(
            7 * pagerank_like_cost(_inputs()))

    def test_paper_arithmetic_rmat30(self):
        """Section 7.5: 114 GB x 10 iterations / 6 GB/s ~ 190 s."""
        inputs = _inputs(num_gpus=1, wa_bytes=0, ra_bytes=0,
                         sp_bytes=114 * GB, lp_bytes=0,
                         num_sp=0, num_lp=0)
        estimate = pagerank_like_cost(inputs, iterations=10)
        assert estimate == pytest.approx(190, rel=0.01)


class TestEquation2:
    def _level(self, mb=64, pages=1):
        return LevelWork(ra_bytes=0, sp_bytes=mb * MB, lp_bytes=0,
                         num_sp=pages, num_lp=0)

    def test_levels_sum(self):
        inputs = _inputs()
        one = bfs_like_cost(inputs, [self._level()])
        wa_term = 2 * 4 * GB / (16 * GB)
        three = bfs_like_cost(inputs, [self._level()] * 3)
        assert (three - wa_term) == pytest.approx(3 * (one - wa_term))

    def test_cache_hits_remove_transfers(self):
        inputs = _inputs()
        cold = bfs_like_cost(inputs, [self._level()], hit_rate=0.0)
        warm = bfs_like_cost(inputs, [self._level()], hit_rate=1.0)
        wa_term = 2 * 4 * GB / (16 * GB)
        # Only the kernel-call overhead remains beyond the WA term.
        assert warm == pytest.approx(wa_term, rel=1e-4)
        assert cold > warm

    def test_skew_inflates_time(self):
        inputs = _inputs()
        balanced = bfs_like_cost(inputs, [self._level()], d_skew=1.0)
        skewed = bfs_like_cost(inputs, [self._level()], d_skew=0.5)
        assert skewed > balanced

    def test_validates_skew_and_hit_rate(self):
        inputs = _inputs()
        with pytest.raises(ConfigurationError):
            bfs_like_cost(inputs, [self._level()], d_skew=0.0)
        with pytest.raises(ConfigurationError):
            bfs_like_cost(inputs, [self._level()], hit_rate=1.5)

    def test_accepts_single_level(self):
        inputs = _inputs()
        assert bfs_like_cost(inputs, self._level()) > 0


class TestInputsFromRun:
    def test_pulls_sizes_from_database(self, rmat_db, machine):
        inputs = inputs_from_run(rmat_db, machine, PageRankKernel())
        assert inputs.wa_bytes == 4 * rmat_db.num_vertices
        assert inputs.sp_bytes == (rmat_db.num_small_pages
                                   * rmat_db.config.page_size)
        assert inputs.num_gpus == machine.num_gpus

    def test_gpu_override(self, rmat_db, machine):
        inputs = inputs_from_run(rmat_db, machine, PageRankKernel(),
                                 num_gpus=7)
        assert inputs.num_gpus == 7

    def test_zero_gpus_rejected(self):
        with pytest.raises(ConfigurationError):
            _inputs(num_gpus=0)
