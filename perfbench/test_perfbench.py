"""Self-tests of the benchmark (not of the program it measures).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import tracer  # noqa: E402
from repro.core import (  # noqa: E402
    BFSKernel,
    GTSEngine,
    KCoreKernel,
    PageRankKernel,
    RWRKernel,
    WCCKernel,
)
from repro.core.kernels.base import Kernel  # noqa: E402
from repro.format.builder import build_database  # noqa: E402
from repro.format.config import PageFormatConfig  # noqa: E402
from repro.graphgen.rmat import generate_rmat  # noqa: E402
from repro.hardware.specs import scaled_workstation  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


@pytest.fixture(scope="module")
def small():
    graph = generate_rmat(9, edge_factor=8, seed=3)
    config = PageFormatConfig(page_id_bytes=2, slot_bytes=2, page_size=512)
    return graph, build_database(graph, config)


def _engine(db):
    return GTSEngine(db, scaled_workstation(num_gpus=2, num_ssds=2))


def test_wrappers_restore_the_original_functions():
    targets = tracer._targets()
    before = [(owner, attr, vars(owner).get(attr))
              for owner, attr, _, _ in targets]
    # Every owner is a class or module, and every span name wraps at
    # least one function the program defines.
    assert all(isinstance(owner, (type, types.ModuleType))
               for owner, _, _, _ in targets)
    assert {name for _, _, name, _ in targets} == {
        name for owner, attr, name, _ in targets
        if callable(vars(owner).get(attr))}
    batch_support = {cls: cls.supports_batch()
                     for cls in tracer._family(Kernel)}
    with tracer.Tracer():
        assert any(vars(owner).get(attr) is not original
                   for owner, attr, original in before)
        assert {cls: cls.supports_batch()
                for cls in tracer._family(Kernel)} == batch_support
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original


def test_traced_run_keeps_execution_and_fingerprint(small):
    _, db = small
    for kernel in (PageRankKernel(iterations=3), RWRKernel(query_vertex=1)):
        plain = _engine(db).run(kernel)
        with tracer.Tracer():
            traced = _engine(db).run(kernel)
        assert traced.execution == plain.execution
        assert traced.elapsed_seconds == plain.elapsed_seconds
        assert traced.num_rounds == plain.num_rounds


def test_self_times_sum_to_no_more_than_engine_run(small, tmp_path):
    _, db = small
    spans = tmp_path / "spans.json"
    with tracer.Tracer() as t:
        for i, kernel in enumerate((PageRankKernel(iterations=3),
                                    BFSKernel(0), RWRKernel(query_vertex=1))):
            t.default_query_id = "q%d" % i
            _engine(db).run(kernel)
    t.dump(str(spans))
    trace = json.loads(spans.read_text())
    runs = [s for s in trace["spans"] if s["name"] == "engine.run"]
    assert len(runs) == 3
    for span in runs:
        qid = span["query_id"]
        inside = sum(s["self"] for s in trace["spans"]
                     if s["query_id"] == qid)
        inside += sum(e["self"] for e in trace["folded"]
                      if e["query_id"] == qid)
        assert inside <= (span["end"] - span["start"]) + 1e-6
        layers = inside - span["self"]
        assert 0.0 <= layers <= span["end"] - span["start"]


def _fake_result():
    return {"setup_s": [1.0, 1.2, 1.1], "latency_ms": [5.0, 6.0, 7.0],
            "qps": 3.0,
            "update_ms": [2.0, 3.0], "peak_rss_mb": 100.0,
            "client_ms": {"q0": 5.0}, "stats": None}


def test_every_metric_has_a_name_and_a_unit(small, tmp_path):
    metrics = run.end_to_end(_fake_result())
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    spec_units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, (value, unit) in metrics.items():
        assert unit == spec_units[name]
        assert isinstance(value, float) and value > 0
    _, db = small
    spans = tmp_path / "spans.json"
    with tracer.Tracer() as t:
        t.default_query_id = "q0"
        _engine(db).run(PageRankKernel(iterations=2))
    t.dump(str(spans))
    layers = run.per_layer(_fake_result(), _fake_result(), str(spans))
    layers["bench.error_share"] = (0.0, "ratio")
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    spec_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (value, unit) in layers.items():
        assert unit == spec_units[name]
        assert isinstance(value, (int, float))


def test_every_seed_runs_the_same_population_of_queries():
    sources = np.repeat(np.arange(50), 3)
    runs = [inputs.query_list(seed, sources, 2) for seed in (1, 2)]
    assert len(runs[0]) == 2 * inputs.CYCLE
    assert runs[0] != runs[1]
    assert sorted(runs[0], key=str) == sorted(runs[1], key=str)
    pool = inputs.start_pool(sources)
    counts = {alg: count for alg, count in inputs.MIX}
    for alg in inputs.STARTED:
        starts = [s for a, s in runs[0] if a == alg]
        assert sorted(set(starts)) == pool[alg]
        assert all(starts.count(s) == 2 * inputs.CYCLE // 20 * counts[alg]
                   // inputs.POOL_STARTS for s in pool[alg])


def test_error_share_counts_an_injected_wrong_answer():
    key = ("bfs", 3)
    want = {key: ("batched", 1e-3, 4, 100)}
    queries = [{"ok": True, "key": key, "fingerprint": want[key]}
               for _ in range(4)]
    queries[2]["fingerprint"] = ("batched", 1e-3 + 1e-12, 4, 100)
    served.mark_mismatches(queries, want)
    assert sum(not q["ok"] for q in queries) == 1


@pytest.mark.parametrize("algorithm,kernel,key", [
    ("pagerank", PageRankKernel(iterations=10), "rank"),
    ("cc", WCCKernel(), "component"),
    ("kcore", KCoreKernel(k=2), "in_kcore"),
])
def test_oracle_accepts_the_engine_and_rejects_a_wrong_value(
        small, algorithm, kernel, key):
    graph, db = small
    values = _engine(db).run(kernel).values
    want = oracle.expected(graph, algorithm, None)
    assert oracle.values_match(want, values)
    wrong = dict(values)
    wrong[key] = np.array(values[key], copy=True)
    wrong[key][7] = (not wrong[key][7] if wrong[key].dtype == bool
                     else wrong[key][7] + 1)
    assert not oracle.values_match(want, wrong)
