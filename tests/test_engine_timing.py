"""Discrete-event timing properties: the shapes behind the paper's
figures, asserted as inequalities on simulated elapsed time."""

import pytest

from repro.core import BFSKernel, GTSEngine, PageRankKernel
from repro.core.cost_model import inputs_from_run, pagerank_like_cost
from repro.format import build_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import HDD_SPEC, scaled_workstation


def _elapsed(db, machine, kernel, **kwargs):
    return GTSEngine(db, machine, **kwargs).run(kernel).elapsed_seconds


class TestStreamScaling:
    """Figure 10: more streams never hurt, and help a lot early."""

    def test_monotone_nonincreasing(self, rmat_db, machine):
        times = [
            _elapsed(rmat_db, machine, PageRankKernel(iterations=3),
                     num_streams=k)
            for k in (1, 2, 4, 8, 16, 32)
        ]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier * 1.001

    def test_first_doubling_near_halves(self, rmat_db, machine):
        one = _elapsed(rmat_db, machine, PageRankKernel(iterations=3),
                       num_streams=1)
        two = _elapsed(rmat_db, machine, PageRankKernel(iterations=3),
                       num_streams=2)
        assert two < 0.75 * one

    def test_bfs_also_improves(self, rmat_db, machine):
        one = _elapsed(rmat_db, machine, BFSKernel(0), num_streams=1)
        many = _elapsed(rmat_db, machine, BFSKernel(0), num_streams=32)
        assert many < one

    def test_more_than_32_streams_no_effect(self, rmat_db, machine):
        """CUDA caps concurrent kernels at 32 (Section 3.2)."""
        at_32 = _elapsed(rmat_db, machine, PageRankKernel(iterations=2),
                         num_streams=32)
        at_64 = _elapsed(rmat_db, machine, PageRankKernel(iterations=2),
                         num_streams=64)
        assert at_64 == pytest.approx(at_32)


class TestStorageOrdering:
    """Figure 9: in-memory < 2 SSDs < 1 SSD << 2 HDDs."""

    @pytest.fixture(scope="class")
    def cold_buffer(self, rmat_db):
        return int(0.2 * rmat_db.topology_bytes())

    def test_ordering(self, rmat_db, cold_buffer):
        kernel = PageRankKernel(iterations=3)
        in_memory = _elapsed(
            rmat_db, scaled_workstation(num_ssds=2), kernel)
        two_ssds = _elapsed(
            rmat_db, scaled_workstation(num_ssds=2), kernel,
            mm_buffer_bytes=cold_buffer)
        one_ssd = _elapsed(
            rmat_db, scaled_workstation(num_ssds=1), kernel,
            mm_buffer_bytes=cold_buffer)
        two_hdds = _elapsed(
            rmat_db, scaled_workstation(num_ssds=2, storage_spec=HDD_SPEC),
            kernel, mm_buffer_bytes=cold_buffer)
        assert in_memory < two_ssds < one_ssd < two_hdds

    def test_hdd_is_io_bound(self, rmat_db, cold_buffer):
        """HDD elapsed time approximates bytes / aggregate bandwidth."""
        machine = scaled_workstation(num_ssds=2, storage_spec=HDD_SPEC)
        result = GTSEngine(rmat_db, machine,
                           mm_buffer_bytes=cold_buffer).run(
            PageRankKernel(iterations=3))
        io_floor = result.storage_bytes_read / (2 * HDD_SPEC.read_bandwidth)
        assert result.elapsed_seconds >= io_floor
        assert result.elapsed_seconds < 3 * io_floor


class TestStrategyScaling:
    """Section 4: Strategy-P speeds up with GPUs; Strategy-S does not."""

    def test_strategy_p_speedup(self, rmat_db):
        kernel = PageRankKernel(iterations=3)
        one = _elapsed(rmat_db, scaled_workstation(num_gpus=1), kernel,
                       strategy="performance")
        two = _elapsed(rmat_db, scaled_workstation(num_gpus=2), kernel,
                       strategy="performance")
        four = _elapsed(rmat_db, scaled_workstation(num_gpus=4), kernel,
                        strategy="performance")
        assert two < 0.7 * one
        assert four < 0.7 * two

    def test_strategy_s_flat(self, rmat_db):
        kernel = PageRankKernel(iterations=3)
        times = [
            _elapsed(rmat_db, scaled_workstation(num_gpus=n), kernel,
                     strategy="scalability")
            for n in (1, 2, 4)
        ]
        assert max(times) < 1.2 * min(times)

    def test_strategy_p_not_slower_than_s(self, rmat_db, machine):
        kernel = PageRankKernel(iterations=3)
        p = _elapsed(rmat_db, machine, kernel, strategy="performance")
        s = _elapsed(rmat_db, machine, kernel, strategy="scalability")
        assert p <= s * 1.001


class TestCachingEffect:
    def test_cache_reduces_elapsed_time(self, rmat_db, machine):
        kernel_on = BFSKernel(0)
        kernel_off = BFSKernel(0)
        on = _elapsed(rmat_db, machine, kernel_on, enable_caching=True)
        off = _elapsed(rmat_db, machine, kernel_off, enable_caching=False)
        assert on <= off

    def test_bigger_cache_never_slower(self, rmat_db, machine):
        page = rmat_db.config.page_size
        times = [
            _elapsed(rmat_db, machine, BFSKernel(0), cache_bytes=pages * page)
            for pages in (0, 16, 64, 256)
        ]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier * 1.001

    def test_second_iteration_hits_cache(self, machine, small_config):
        """A graph small enough to cache entirely: iteration 2+ of
        PageRank streams nothing."""
        graph = generate_rmat(8, edge_factor=8, seed=1)
        db = build_database(graph, small_config)
        result = GTSEngine(db, machine).run(PageRankKernel(iterations=4))
        # 2 GPUs under Strategy-P: every page is a miss exactly once.
        assert result.cache_misses == db.num_pages
        assert result.cache_hits == 3 * db.num_pages


class TestCostModelAgreement:
    def test_eq1_tracks_des_for_streaming_pagerank(self, rmat_db, machine):
        """With caching off, Eq. 1's transfer-dominated estimate should
        land within 3x of the DES (same bandwidths, no pipeline model)."""
        result = GTSEngine(rmat_db, machine, enable_caching=False,
                           num_streams=32).run(PageRankKernel(iterations=1))
        inputs = inputs_from_run(rmat_db, machine, PageRankKernel())
        estimate = pagerank_like_cost(inputs, iterations=1)
        assert estimate / 3 < result.elapsed_seconds < estimate * 3

    def test_eq1_scales_with_iterations(self, rmat_db, machine):
        inputs = inputs_from_run(rmat_db, machine, PageRankKernel())
        assert pagerank_like_cost(inputs, iterations=10) == pytest.approx(
            10 * pagerank_like_cost(inputs, iterations=1))
