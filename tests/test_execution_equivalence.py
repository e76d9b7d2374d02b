"""Equivalence tests for the one round path.

Every round is one ``process_batch`` call followed by one booking pass,
so there is no second execution path left to compare against.  These
tests pin the path three other ways instead:

* **golden fingerprints** — every kernel under every engine
  configuration reproduces, bit for bit, the run recorded on the former
  per-page path (:mod:`tests.golden_runs`);
* **invariance properties** — host-side options (store mode, page-pool
  size, tracing, which booking branch a round takes) may move host
  counters but never values, simulated time or the compared statistics;
* **independent oracles** — outputs agree with
  :mod:`repro.baselines.reference`.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import reference
from repro.core import (
    BCKernel,
    BFSKernel,
    DegreeKernel,
    GTSEngine,
    KCoreKernel,
    PageRankKernel,
    RWRKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.format import PageFormatConfig, build_database
from repro.format.io import FileBackedDatabase, save_database
from repro.graphgen import Graph
from repro.hardware.specs import scaled_workstation
from repro.units import KB
from tests import golden_runs

with open(golden_runs.GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)

KERNELS = {
    "pagerank": lambda start: PageRankKernel(iterations=4),
    "bfs": lambda start: BFSKernel(start_vertex=start),
    "sssp": lambda start: SSSPKernel(start_vertex=start),
    "wcc": lambda start: WCCKernel(),
    "bc": lambda start: BCKernel(sources=(start, 0)),
    "rwr": lambda start: RWRKernel(query_vertex=start, iterations=4),
    "degree": lambda start: DegreeKernel(),
    "kcore": lambda start: KCoreKernel(k=2),
}

#: Kernels whose input must be symmetrised (undirected algorithms).
SYMMETRIC = {"wcc", "kcore"}

#: Counters every host-side option must leave untouched.
COMPARED = ("cache_hits", "cache_misses", "cache_hit_rate",
            "mm_buffer_hits", "mm_buffer_misses",
            "storage_bytes_read", "storage_pages_fetched",
            "pages_streamed", "bytes_to_gpu",
            "transfer_busy_seconds", "kernel_busy_seconds",
            "kernel_stream_seconds", "edges_traversed")


@pytest.fixture(scope="module")
def golden_dbs():
    return golden_runs.build_graphs()


@pytest.mark.parametrize("case", sorted(GOLDEN["entries"]))
def test_golden_fingerprint(case, golden_dbs, tmp_path_factory):
    """Every kernel x configuration reproduces the fingerprint recorded
    on the per-page path at the commit named in the golden file: value
    hashes, simulated time, counters and the fault ledger, exactly."""
    kernel_name, config_name = case.split("/")
    workdir = str(tmp_path_factory.mktemp("golden"))
    got = golden_runs.run_case(golden_dbs, kernel_name, config_name,
                               workdir)
    assert got == GOLDEN["entries"][case]


def _random_graph(data, weighted):
    num_vertices = data.draw(st.integers(2, 120))
    num_edges = data.draw(st.integers(0, 400))
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        num_vertices,
        rng.integers(0, num_vertices, size=num_edges),
        rng.integers(0, num_vertices, size=num_edges))
    if weighted:
        graph = graph.with_random_weights(seed=seed)
    return graph


def _draw_case(data):
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
    graph = _random_graph(data, weighted=kernel_name == "sssp")
    if kernel_name in SYMMETRIC:
        graph = graph.symmetrised()
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    return kernel_name, graph, start


def _assert_identical(expected, result, label=""):
    assert result.elapsed_seconds == expected.elapsed_seconds, label
    assert result.num_rounds == expected.num_rounds, label
    for key in expected.values:
        np.testing.assert_array_equal(result.values[key],
                                      expected.values[key],
                                      err_msg=str(label))
    expected_dict = expected.to_dict()
    result_dict = result.to_dict()
    for key in COMPARED:
        assert result_dict.get(key) == expected_dict.get(key), (label, key)
    for expected_round, this_round in zip(expected.rounds, result.rounds):
        assert (dataclasses.asdict(this_round)
                == dataclasses.asdict(expected_round)), label


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fast_booking_matches_per_call_booking_on_random_graphs(data):
    """Untraced rounds book through the vectorized fast path; traced
    rounds book every page through the per-call reference helpers.
    Across random graphs, kernels, strategies, GPU counts, caching and
    out-of-core main-memory buffers the two agree bit for bit."""
    kernel_name, graph, start = _draw_case(data)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    machine = scaled_workstation(
        num_gpus=data.draw(st.sampled_from([1, 2, 3])),
        num_ssds=data.draw(st.sampled_from([1, 2])))
    fraction = data.draw(st.sampled_from([None, 0.25, 0.5, 0.75]))
    options = dict(
        strategy=data.draw(st.sampled_from(["performance",
                                            "scalability"])),
        enable_caching=data.draw(st.booleans()),
        mm_buffer_bytes=(None if fraction is None else max(
            db.page_bytes(), int(db.topology_bytes() * fraction))))
    fast = GTSEngine(db, machine, **options).run(
        KERNELS[kernel_name](start))
    traced = GTSEngine(db, machine, tracing=True, **options).run(
        KERNELS[kernel_name](start))
    assert fast.execution == traced.execution == "batched"
    _assert_identical(traced, fast)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_store_mode_never_perturbs_results(data, tmp_path_factory):
    """File-backed stores (copy and mmap) with a page pool a quarter of
    the database, forcing constant eviction, are indistinguishable from
    the eager database: the store may only move host counters."""
    kernel_name, graph, start = _draw_case(data)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("matrix") / "db")
    save_database(db, prefix)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    baseline = GTSEngine(db, machine).run(KERNELS[kernel_name](start))
    pool_pages = max(1, db.num_pages // 4)
    for store_mode in ("copy", "mmap"):
        lazy = FileBackedDatabase(prefix, pool_pages=pool_pages,
                                  mode=store_mode)
        try:
            result = GTSEngine(lazy, machine).run(
                KERNELS[kernel_name](start))
            assert lazy.resident_pages() <= pool_pages
        finally:
            lazy.close()
        _assert_identical(baseline, result, store_mode)


def test_filling_buffer_takes_the_per_page_fetch_branch():
    """Out-of-core runs exercise the per-page fetch branch of the fast
    booking: with the buffer still filling, ``bulk_ready`` declines and
    each first-miss page gets one ``fetch`` call, yet the result matches
    the per-call reference booking of a traced run."""
    rng = np.random.default_rng(11)
    graph = Graph.from_edges(400, rng.integers(0, 400, size=3000),
                             rng.integers(0, 400, size=3000))
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    assert db.num_pages >= 8
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    calls = {"declined": 0, "fetch": 0}
    make_fetch = GTSEngine._make_fetch

    def counting_make_fetch(self, *args, **kwargs):
        fetch = make_fetch(self, *args, **kwargs)
        bulk = getattr(fetch, "bulk_ready", None)
        if bulk is None:
            return fetch

        def counted(pid):
            calls["fetch"] += 1
            return fetch(pid)

        def counted_bulk(miss_pids):
            ready = bulk(miss_pids)
            calls["declined"] += ready is None
            return ready

        counted.bulk_ready = counted_bulk
        return counted

    options = dict(enable_caching=False,
                   mm_buffer_bytes=db.topology_bytes() // 2)
    with mock.patch.object(GTSEngine, "_make_fetch", counting_make_fetch):
        fast = GTSEngine(db, machine, **options).run(
            PageRankKernel(iterations=4))
    traced = GTSEngine(db, machine, tracing=True, **options).run(
        PageRankKernel(iterations=4))
    _assert_identical(traced, fast)
    assert calls["declined"] >= 1
    assert calls["fetch"] > 0
    assert fast.mm_buffer_misses > 0


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_batched_kernels_match_reference(data):
    """Every served kernel agrees with the independent reference
    implementation (exact for integer outputs, ``allclose`` for
    floats)."""
    kernel_name = data.draw(st.sampled_from(
        ["pagerank", "bfs", "sssp", "wcc", "bc", "rwr", "degree"]))
    graph = _random_graph(data, weighted=kernel_name == "sssp")
    if kernel_name == "wcc":
        graph = graph.symmetrised()
    # SSSP needs the weights stored in the pages to match the oracle.
    weight_bytes = 4 if kernel_name == "sssp" else 0
    db = build_database(graph, PageFormatConfig(
        2, 2, 1 * KB, weight_bytes=weight_bytes))
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    result = GTSEngine(db, machine, execution="batched").run(
        KERNELS[kernel_name](start))
    assert result.execution == "batched"
    values = result.values
    if kernel_name == "pagerank":
        np.testing.assert_allclose(
            values["rank"], reference.pagerank(graph, iterations=4),
            rtol=1e-9, atol=1e-12)
    elif kernel_name == "bfs":
        np.testing.assert_array_equal(
            values["level"], reference.bfs_levels(graph, start))
    elif kernel_name == "sssp":
        np.testing.assert_allclose(
            values["distance"],
            reference.sssp_distances(graph, start), rtol=1e-6)
    elif kernel_name == "wcc":
        np.testing.assert_array_equal(
            values["component"],
            reference.weakly_connected_components(graph))
    elif kernel_name == "bc":
        np.testing.assert_allclose(
            values["centrality"],
            reference.betweenness_centrality(graph, sources=(start, 0)),
            rtol=1e-9, atol=1e-12)
    elif kernel_name == "rwr":
        np.testing.assert_allclose(
            values["proximity"],
            reference.random_walk_with_restart(graph, start, iterations=4),
            rtol=1e-9, atol=1e-12)
    else:
        out_degree, in_degree = reference.degree_counts(graph)
        np.testing.assert_array_equal(values["out_degree"], out_degree)
        np.testing.assert_array_equal(values["in_degree"], in_degree)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_io_merge_changes_plan_but_not_results(data, tmp_path_factory):
    """``io_merge`` is the one opt-in host knob allowed to move the
    simulated I/O plan; the algorithm output must stay bit-identical,
    and a merged run must book the same time traced or untraced."""
    kernel_name = data.draw(st.sampled_from(["pagerank", "bfs"]))
    graph = _random_graph(data, weighted=False)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("merge") / "db")
    save_database(db, prefix)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    lazy = FileBackedDatabase(prefix, pool_pages=max(1, db.num_pages))
    plain = GTSEngine(lazy, machine).run(KERNELS[kernel_name](start))
    merged = {}
    for tracing in (False, True):
        engine = GTSEngine(lazy, machine, tracing=tracing, io_merge=True)
        merged[tracing] = engine.run(KERNELS[kernel_name](start))
    for key in plain.values:
        np.testing.assert_array_equal(merged[False].values[key],
                                      plain.values[key])
    assert merged[True].elapsed_seconds == merged[False].elapsed_seconds
    for key in plain.values:
        np.testing.assert_array_equal(merged[True].values[key],
                                      merged[False].values[key])


def test_all_four_kernels_support_batch():
    for name, factory in KERNELS.items():
        assert factory(0).supports_batch(), name


def test_traced_runs_agree_with_untraced():
    """Tracing books through the per-call helpers instead of the
    inlined loops; the simulated clock must not notice."""
    graph = Graph.from_edges(
        50,
        np.random.default_rng(5).integers(0, 50, size=300),
        np.random.default_rng(6).integers(0, 50, size=300))
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    results = {}
    for tracing in (False, True):
        engine = GTSEngine(db, machine, tracing=tracing)
        results[tracing] = engine.run(PageRankKernel(iterations=3))
    _assert_identical(results[False], results[True])
