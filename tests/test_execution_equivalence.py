"""Property test: batched and paged execution are indistinguishable.

The vectorized fast path is only allowed to change *wall-clock*, never
behaviour: for any graph, kernel, strategy, and page store the two paths
must produce bit-identical algorithm output, simulated time, per-round
statistics, and cache counters.  Hypothesis drives random graphs and
configurations through both paths, including a file-backed database
whose page pool is small enough to force constant eviction and a
main-memory buffer smaller than the topology.  Both paths are also
checked against the independent reference implementations in
:mod:`repro.baselines.reference`.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import reference
from repro.core import (
    BFSKernel,
    GTSEngine,
    PageRankKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.format import PageFormatConfig, build_database
from repro.format.io import FileBackedDatabase, save_database
from repro.graphgen import Graph
from repro.hardware.specs import scaled_workstation
from repro.units import KB

KERNELS = {
    "pagerank": lambda start: PageRankKernel(iterations=4),
    "bfs": lambda start: BFSKernel(start_vertex=start),
    "sssp": lambda start: SSSPKernel(start_vertex=start),
    "wcc": lambda start: WCCKernel(),
}


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


def _run_pair(db, machine, strategy, kernel_name, start, caching,
              **engine_options):
    results = []
    for execution in ("paged", "batched"):
        engine = GTSEngine(db, machine, strategy=strategy,
                           enable_caching=caching, execution=execution,
                           **engine_options)
        results.append(engine.run(KERNELS[kernel_name](start)))
    return results


def _assert_identical(paged, batched):
    assert paged.execution == "paged"
    assert batched.execution == "batched"
    assert batched.elapsed_seconds == paged.elapsed_seconds
    assert batched.num_rounds == paged.num_rounds
    for key in paged.values:
        np.testing.assert_array_equal(batched.values[key],
                                      paged.values[key])
    paged_dict = paged.to_dict()
    batched_dict = batched.to_dict()
    for key in ("cache_hits", "cache_misses", "cache_hit_rate",
                "mm_buffer_hits", "mm_buffer_misses",
                "storage_bytes_read", "storage_pages_fetched",
                "pages_streamed", "bytes_to_gpu",
                "transfer_busy_seconds", "kernel_busy_seconds",
                "kernel_stream_seconds", "edges_traversed"):
        assert batched_dict.get(key) == paged_dict.get(key), key
    for round_paged, round_batched in zip(paged.rounds, batched.rounds):
        assert (dataclasses.asdict(round_batched)
                == dataclasses.asdict(round_paged))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_batched_matches_paged_on_random_graphs(data):
    """Includes out-of-core runs: a main-memory buffer smaller than the
    topology keeps filling during the first rounds, so the batched round
    cannot replay its misses in bulk and resolves them with one
    ``fetch`` per page before booking."""
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
    graph = _random_graph(data, weighted=kernel_name == "sssp")
    if kernel_name == "wcc":
        graph = graph.symmetrised()
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    machine = scaled_workstation(
        num_gpus=data.draw(st.sampled_from([1, 2, 3])),
        num_ssds=data.draw(st.sampled_from([1, 2])))
    strategy = data.draw(st.sampled_from(["performance", "scalability"]))
    caching = data.draw(st.booleans())
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    fraction = data.draw(st.sampled_from([None, 0.25, 0.5, 0.75]))
    mm_buffer_bytes = (None if fraction is None else max(
        db.page_bytes(), int(db.topology_bytes() * fraction)))
    paged, batched = _run_pair(db, machine, strategy, kernel_name, start,
                               caching, mm_buffer_bytes=mm_buffer_bytes)
    _assert_identical(paged, batched)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batched_matches_paged_under_pool_eviction(data, tmp_path_factory):
    """A file-backed page pool too small for the database must not
    perturb either path: the plan is built from one pass over the pages
    and the paged path re-reads through the pool, yet both must agree
    with each other bit for bit."""
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
    graph = _random_graph(data, weighted=kernel_name == "sssp")
    if kernel_name == "wcc":
        graph = graph.symmetrised()
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("pooled") / "db")
    save_database(db, prefix)
    pool_pages = max(1, db.num_pages // 4)
    lazy = FileBackedDatabase(prefix, pool_pages=pool_pages)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    paged, batched = _run_pair(lazy, machine, "performance", kernel_name,
                               start, True)
    _assert_identical(paged, batched)
    assert lazy.resident_pages() <= pool_pages


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_execution_and_store_mode_never_perturb_results(data,
                                                        tmp_path_factory):
    """The full host-side configuration matrix — (execution, store
    mode) — is indistinguishable from the eager paged baseline: host
    options may only move host counters, never simulated time, values,
    or the compared statistics."""
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
    graph = _random_graph(data, weighted=kernel_name == "sssp")
    if kernel_name == "wcc":
        graph = graph.symmetrised()
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    prefix = str(tmp_path_factory.mktemp("matrix") / "db")
    save_database(db, prefix)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    start = data.draw(st.integers(0, graph.num_vertices - 1))
    baseline = GTSEngine(db, machine, execution="paged").run(
        KERNELS[kernel_name](start))
    pool_pages = max(1, db.num_pages // 2)
    for execution in ("paged", "batched"):
        for store_mode in ("copy", "mmap"):
            lazy = FileBackedDatabase(prefix, pool_pages=pool_pages,
                                      mode=store_mode)
            try:
                result = GTSEngine(lazy, machine, execution=execution).run(
                    KERNELS[kernel_name](start))
            finally:
                lazy.close()
            combo = (execution, store_mode)
            assert result.elapsed_seconds == baseline.elapsed_seconds, combo
            assert result.num_rounds == baseline.num_rounds, combo
            for key in baseline.values:
                np.testing.assert_array_equal(
                    result.values[key], baseline.values[key],
                    err_msg=str(combo))
            result_dict = result.to_dict()
            baseline_dict = baseline.to_dict()
            for key in ("cache_hits", "cache_misses",
                        "mm_buffer_hits", "mm_buffer_misses",
                        "storage_bytes_read", "storage_pages_fetched",
                        "pages_streamed", "bytes_to_gpu",
                        "transfer_busy_seconds", "kernel_busy_seconds",
                        "kernel_stream_seconds", "edges_traversed"):
                assert result_dict.get(key) \
                    == baseline_dict.get(key), (combo, key)
            for base_round, this_round in zip(baseline.rounds,
                                              result.rounds):
                assert (dataclasses.asdict(this_round)
                        == dataclasses.asdict(base_round)), combo


def test_filling_buffer_takes_the_per_page_fetch_branch():
    """Out-of-core runs exercise the per-page fetch branch of the
    batched booking: with the buffer still filling, ``bulk_ready``
    declines and each first-miss page gets one ``fetch`` call, yet the
    result matches the paged path."""
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

    with mock.patch.object(GTSEngine, "_make_fetch", counting_make_fetch):
        paged, batched = _run_pair(
            db, machine, "performance", "pagerank", 0, False,
            mm_buffer_bytes=db.topology_bytes() // 2)
    _assert_identical(paged, batched)
    assert calls["declined"] >= 1
    assert calls["fetch"] > 0
    assert batched.mm_buffer_misses > 0


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_batched_kernels_match_reference(data):
    """Every batched kernel agrees with the independent reference
    implementation (exact for integer outputs, ``allclose`` for
    floats)."""
    kernel_name = data.draw(st.sampled_from(sorted(KERNELS)))
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
    if kernel_name == "pagerank":
        np.testing.assert_allclose(
            result.values["rank"],
            reference.pagerank(graph, iterations=4), rtol=1e-9, atol=1e-12)
    elif kernel_name == "bfs":
        np.testing.assert_array_equal(
            result.values["level"], reference.bfs_levels(graph, start))
    elif kernel_name == "sssp":
        np.testing.assert_allclose(
            result.values["distance"],
            reference.sssp_distances(graph, start), rtol=1e-6)
    else:
        np.testing.assert_array_equal(
            result.values["component"],
            reference.weakly_connected_components(graph))


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_io_merge_changes_plan_but_not_results(data, tmp_path_factory):
    """``io_merge`` is the one opt-in host knob allowed to move the
    simulated I/O plan; the algorithm output must stay bit-identical,
    and under merge paged and batched execution must still agree."""
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
    for execution in ("paged", "batched"):
        engine = GTSEngine(lazy, machine, execution=execution,
                           io_merge=True)
        merged[execution] = engine.run(KERNELS[kernel_name](start))
    expected = merged["paged"]
    for key in plain.values:
        np.testing.assert_array_equal(expected.values[key],
                                      plain.values[key])
    for execution, result in merged.items():
        assert result.elapsed_seconds \
            == expected.elapsed_seconds, execution
        for key in expected.values:
            np.testing.assert_array_equal(result.values[key],
                                          expected.values[key],
                                          err_msg=execution)


def test_all_four_kernels_support_batch():
    for name, factory in KERNELS.items():
        assert factory(0).supports_batch(), name


def test_traced_runs_agree_with_untraced():
    """Tracing disables the inlined booking loops; the simulated clock
    must not notice."""
    graph = Graph.from_edges(
        50,
        np.random.default_rng(5).integers(0, 50, size=300),
        np.random.default_rng(6).integers(0, 50, size=300))
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB))
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    results = {}
    for execution in ("paged", "batched"):
        for tracing in (False, True):
            engine = GTSEngine(db, machine, tracing=tracing,
                               execution=execution)
            results[(execution, tracing)] = engine.run(
                PageRankKernel(iterations=3))
    baseline = results[("paged", False)]
    for key, result in results.items():
        assert result.elapsed_seconds == baseline.elapsed_seconds, key
        np.testing.assert_array_equal(result.values["rank"],
                                      baseline.values["rank"])


