"""Unit tests for the vectorized execution plan and its satellites.

Covers the :mod:`repro.core.plan` arrays (global scatter index, batch
gathering, the topology-version plan cache), the steady-state cache
shortcut, the vectorized large-page-run index, and the typed errors of
the removed execution knob and of kernels without ``process_batch`` on
engine, CLI, and result-reporting surfaces.
"""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import DegreeKernel, GTSEngine, PageRankKernel
from repro.core.cache import PageCache
from repro.core.kernels import ALL_PAGES, Kernel, RoundPlan
from repro.core.plan import (
    PagePlan,
    RoundPlanCache,
    segment_sum,
    take_ranges,
    target_segments,
)
from repro.dynamic import DynamicGraphDatabase, UpdateBatch
from repro.errors import ConfigurationError
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.graphgen.io import write_edge_list
from repro.hardware.specs import scaled_workstation


@pytest.fixture
def db():
    graph = generate_rmat(8, edge_factor=8, seed=11)
    return build_database(graph, PageFormatConfig(2, 2, 1024))


@pytest.fixture
def machine():
    return scaled_workstation(num_gpus=2, num_ssds=2)


class TestPlanArrays:
    def test_global_scatter_matches_per_page(self, db):
        """The combined-key argsort must equal the concatenation of the
        per-page stable scatter argsorts, bit for bit."""
        plan = PagePlan(db)
        for pid in range(db.num_pages):
            page = db.page(pid)
            order, targets, starts = target_segments(page.adj_vids)
            lo, hi = plan.edge_indptr[pid], plan.edge_indptr[pid + 1]
            slo, shi = plan.seg_indptr[pid], plan.seg_indptr[pid + 1]
            np.testing.assert_array_equal(plan.order_local[lo:hi], order)
            np.testing.assert_array_equal(
                plan.seg_starts_local[slo:shi], starts)
            np.testing.assert_array_equal(
                plan.seg_targets[slo:shi], targets)

    def test_overflow_fallback_matches_combined_key(self, db):
        """The per-page fallback (combined key would overflow int64)
        builds the same arrays as the vectorized path."""
        fast = PagePlan(db)
        slow = PagePlan.__new__(PagePlan)
        slow.__dict__.update(fast.__dict__)

        class HugeV:
            num_vertices = 1 << 60
            num_pages = db.num_pages

        slow.num_pages = db.num_pages
        slow._build_scatter(HugeV)
        for name in ("order_local", "seg_starts_local", "seg_targets",
                     "seg_pids", "seg_counts", "seg_indptr"):
            np.testing.assert_array_equal(getattr(slow, name),
                                          getattr(fast, name), err_msg=name)

    def test_full_batch_equals_explicit_gather(self, db):
        """The zero-copy identity batch must agree with a forced gather
        of every page."""
        plan = PagePlan(db)
        identity = plan.full_batch()
        gathered = plan._gather(identity.pids)
        for name in ("pids", "rec_indptr", "degrees", "rec_vids",
                     "rec_divisor", "edge_indptr", "edge_rec", "adj_vids",
                     "adj_pids", "scatter_order", "seg_starts",
                     "seg_targets", "seg_pids", "seg_indptr"):
            np.testing.assert_array_equal(getattr(identity, name),
                                          getattr(gathered, name),
                                          err_msg=name)

    def test_dispatch_order_layout_after_updates(self):
        """Updates append small pages after large ones; the plan keeps
        its arrays in dispatch (SP-first) order, so the full batch is
        the plan's own arrays yet holds every page's data in that
        order, and partial gathers still find each page."""
        graph = generate_rmat(9, edge_factor=12, seed=4)
        dyn = DynamicGraphDatabase(build_database(
            graph, PageFormatConfig(2, 2, 512)))
        batch = UpdateBatch().add_vertices(40)
        for i in range(40):
            batch.insert_edge(graph.num_vertices + i, i)
        dyn.apply(batch)
        plan = PagePlan(dyn)
        order = np.concatenate([dyn.small_page_ids(),
                                dyn.large_page_ids()])
        assert not np.array_equal(order, np.arange(dyn.num_pages))
        full = plan.full_batch()
        assert full.adj_vids is plan.adj_vids
        np.testing.assert_array_equal(full.pids, order)
        np.testing.assert_array_equal(
            full.adj_vids,
            np.concatenate([dyn.page(int(pid)).adj_vids for pid in order]))
        gathered = plan._gather(order)
        for name in ("rec_vids", "adj_vids", "adj_pids", "scatter_order",
                     "seg_starts", "seg_targets", "seg_indptr"):
            np.testing.assert_array_equal(getattr(full, name),
                                          getattr(gathered, name),
                                          err_msg=name)
        tail = order[-3:]
        subset = plan.round_batch(tail)
        np.testing.assert_array_equal(
            subset.adj_vids,
            np.concatenate([dyn.page(int(pid)).adj_vids for pid in tail]))

    def test_round_batch_subset(self, db):
        plan = PagePlan(db)
        pids = np.asarray([0, 2, 3], dtype=np.int64)
        batch = plan.round_batch(pids)
        assert batch.num_pages == 3
        offset = 0
        for k, pid in enumerate(pids):
            page = db.page(int(pid))
            lo, hi = batch.rec_indptr[k], batch.rec_indptr[k + 1]
            np.testing.assert_array_equal(batch.rec_vids[lo:hi],
                                          page.vids())
            np.testing.assert_array_equal(batch.degrees[lo:hi],
                                          page.degrees())
            elo, ehi = batch.edge_indptr[k], batch.edge_indptr[k + 1]
            np.testing.assert_array_equal(batch.adj_vids[elo:ehi],
                                          page.adj_vids)
            offset += page.num_records
        assert batch.num_records == offset

    def test_take_ranges_and_segment_sum(self):
        np.testing.assert_array_equal(
            take_ranges([5, 0], [3, 2]), [5, 6, 7, 0, 1])
        assert len(take_ranges([], [])) == 0
        np.testing.assert_array_equal(
            segment_sum(np.asarray([1, 2, 3, 4]),
                        np.asarray([0, 2, 2, 4])),
            [3, 0, 7])

    def test_copy_bytes_cached_per_ra_width(self, db):
        plan = PagePlan(db)
        first = plan.copy_bytes(4)
        assert plan.copy_bytes(4) is first
        expected = np.asarray([db.page_bytes(pid) +
                               db.ra_subvector_bytes(pid, 4)
                               for pid in range(db.num_pages)])
        np.testing.assert_array_equal(first, expected)


class TestRoundPlanCache:
    def test_rebuilds_on_topology_version_bump(self, db):
        cache = RoundPlanCache()
        first = cache.get(db)
        assert cache.get(db) is first
        assert (cache.builds, cache.hits) == (1, 1)
        db.topology_version += 1
        second = cache.get(db)
        assert second is not first
        assert second.topology_version == db.topology_version
        assert cache.builds == 2

    def test_invalidate_forces_rebuild(self, db):
        cache = RoundPlanCache()
        first = cache.get(db)
        cache.invalidate()
        assert cache.get(db) is not first


class TestCacheSteadyStateShortcut:
    def _replay(self, policy, rounds, capacity=4, shortcut=False):
        cache = PageCache(capacity, policy=policy)
        results = []
        for pids in rounds:
            results.append(
                cache.resolve_round(list(pids), assume_distinct=shortcut))
        return cache, results

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_matches_generic_replay(self, policy):
        rounds = [list(range(10))] * 4 + [list(range(3, 13))]
        slow_cache, slow = self._replay(policy, rounds, shortcut=False)
        fast_cache, fast = self._replay(policy, rounds, shortcut=True)
        assert slow == fast
        assert slow_cache.hits == fast_cache.hits
        assert slow_cache.misses == fast_cache.misses
        assert list(slow_cache._pages) == list(fast_cache._pages)

    def test_not_taken_when_round_fits(self):
        cache = PageCache(16, policy="lru")
        first = cache.resolve_round(list(range(8)), assume_distinct=True)
        second = cache.resolve_round(list(range(8)), assume_distinct=True)
        assert first == [False] * 8
        assert second == [True] * 8


class TestLargePageRunIndex:
    def test_matches_bruteforce(self, machine):
        # Heavy-tailed RMAT with a small page size yields many LP runs.
        graph = generate_rmat(9, edge_factor=12, seed=4)
        db = build_database(graph, PageFormatConfig(2, 2, 512))
        engine = GTSEngine(db, machine)
        lp = np.asarray(db.large_page_ids(), dtype=np.int64)
        assert len(lp) > 0
        expected = {}
        for pid in lp.tolist():
            first = pid - int(db.rvt.lp_ranges[pid])
            expected.setdefault(first, []).append(pid)
        assert set(engine._lp_runs) == set(expected)
        for first, run in expected.items():
            np.testing.assert_array_equal(engine._lp_runs[first], run)


class _ComputeLessKernel(Kernel):
    """A kernel that never implemented the one compute method."""

    name = "compute-less"

    def init_state(self, db):
        return None

    def next_round(self, state):
        return RoundPlan(pids=ALL_PAGES)


class TestExecutionKnob:
    def test_batched_rejected_for_batchless_kernel(self, db, machine):
        """``supports_batch`` guards :meth:`GTSEngine.run`: a kernel
        without ``process_batch`` is a typed error under any accepted
        ``execution`` value."""
        assert not _ComputeLessKernel.supports_batch()
        for execution in ("auto", "batched"):
            engine = GTSEngine(db, machine, execution=execution)
            with pytest.raises(ConfigurationError, match="process_batch"):
                engine.run(_ComputeLessKernel())

    def test_paged_rejected(self, db, machine):
        with pytest.raises(ConfigurationError, match="paged"):
            GTSEngine(db, machine, execution="paged")

    def test_every_kernel_class_defines_process_batch(self):
        from repro.core import kernels
        for name in kernels.__all__:
            cls = getattr(kernels, name)
            if isinstance(cls, type) and issubclass(cls, Kernel) \
                    and cls is not Kernel:
                assert cls.supports_batch(), name

    def test_auto_prefers_batched(self, db, machine):
        result = GTSEngine(db, machine).run(PageRankKernel(iterations=2))
        assert result.execution == "batched"

    def test_unknown_mode_rejected(self, db, machine):
        with pytest.raises(ConfigurationError):
            GTSEngine(db, machine, execution="warp")

    def test_execution_reported_in_to_dict(self, db, machine):
        engine = GTSEngine(db, machine)
        assert engine.run(
            DegreeKernel()).to_dict()["execution"] == "batched"


class TestCLIExecutionFlag:
    @pytest.mark.parametrize("argv", [
        ["run", "--dataset", "rmat26"],
        ["profile", "--dataset", "rmat26"],
        ["query", "--url", "http://127.0.0.1:1", "--database", "g",
         "--algorithm", "bfs"],
    ], ids=["run", "profile", "query"])
    def test_execution_flag_removed(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--execution", "batched"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rejects_unknown_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "rmat26", "--execution", "warp"])

    def test_batched_run(self, tmp_path, capsys):
        graph = generate_rmat(7, edge_factor=4, seed=2)
        path = str(tmp_path / "g.txt")
        write_edge_list(graph, path)
        assert main(["run", "--edges", path, "--algorithm", "degree"]) == 0
        assert "Degree" in capsys.readouterr().out
