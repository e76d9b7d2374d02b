"""The benchmark: one command for every end-to-end or per-layer metric.

    python3 perfbench/run.py --workload serve-read --seed 1 \\
        --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``serve-read`` — a ``repro serve`` process answering a seeded query
  mix from one closed-loop client;
* ``serve-rw`` — the same, with every third request a ``POST /update``;
* ``pagerank-rmat18`` — 10-iteration PageRank on the saved RMAT-18
  cell, one-shot in a child process (not gated by BENCHMARK.json: on a
  machine whose speed drifts, its spread exceeds the bounds).

``--trace 0`` measures with nothing installed in the program and prints
the end-to-end metrics.  ``--trace 1`` runs the workload twice with the
same seed, untraced then traced, checks that both passes took the same
execution path and produced the same simulated-time fingerprints, and
prints the per-layer metrics and the tracing overhead.  The last line
of standard output is the JSON result; progress goes to standard error.
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs  # noqa: E402

WORKLOADS = ("pagerank-rmat18", "serve-read", "serve-rw")
#: Set-ups per measured run; ``setup_s`` reports their median.
SETUPS = 3
#: Warm runs per second of ``--seconds``: the timed phase is a fixed
#: amount of work sized to take about ``--seconds`` on a 2-core machine,
#: so both sides of a comparison measure the same runs.
RUNS_PER_SECOND = 1.0
#: Update batches of the one-shot write probe.
ONESHOT_PROBE = 200
#: The RMAT-18 cell's simulated-time fingerprint (graph seed 7, default
#: engine): bit-identical simulated time is the program's invariant.
PAGERANK_FINGERPRINT = ("batched", 0.06332531653309484, 10, 41943040)


def _log(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.stderr.flush()


def pagerank_pass(seed, seconds, setups, work, spans_path=None):
    """One pass of ``pagerank-rmat18``; returns a dict of raw results."""
    data = inputs.rmat18_dir()
    result_path = os.path.join(work, "oneshot.json")
    command = [sys.executable, os.path.join(HERE, "oneshot.py"),
               "--data", data, "--work", work,
               "--runs", str(max(1, round(seconds * RUNS_PER_SECOND))),
               "--setups", str(setups), "--seed", str(seed),
               "--probe", str(ONESHOT_PROBE), "--out", result_path]
    if spans_path is not None:
        command += ["--spans", spans_path]
    with open(os.path.join(work, "oneshot.log"), "ab") as log:
        code = subprocess.run(command, cwd=inputs.ROOT, stdout=log,
                              stderr=log, timeout=170).returncode
    if code != 0:
        raise RuntimeError("one-shot child failed with code %d" % code)
    with open(result_path) as handle:
        out = json.load(handle)
    runs = out["runs"]
    warm = [r for r in runs if r["phase"] == "warm"]
    failures = collections.Counter()
    for run in runs:
        run["ok"] = (run.get("same_values", True)
                     and (run["execution"], run["elapsed_seconds"],
                          run["num_rounds"], run["edges_traversed"])
                     == PAGERANK_FINGERPRINT)
        failures["%s run fingerprint" % run["phase"]] += not run["ok"]
    ranks = np.load(os.path.join(work, "rank.npy"))
    want = np.load(os.path.join(data, "pagerank.npy"))
    failures["rank values"] += not np.allclose(ranks, want, rtol=1e-9,
                                               atol=1e-12)
    failures["updates"] += sum(not u["ok"] for u in out["updates"])
    good = [r for r in warm if r["ok"]]
    busy = sum(r["latency_ms"] for r in warm) / 1000.0
    return {
        "setup_s": out["setup_s"],
        "latency_ms": [r["latency_ms"] for r in good],
        "qps": len(good) / busy if busy > 0 else 0.0,
        "update_ms": [u["latency_ms"] for u in out["updates"] if u["ok"]],
        "peak_rss_mb": out["peak_rss_mb"],
        "attempted": len(runs) + 1 + len(out["updates"]),
        "failures": +failures,
        "fingerprints": {
            r["query_id"]: (r["execution"], r["elapsed_seconds"],
                            r["num_rounds"], r["edges_traversed"])
            for r in runs},
        "client_ms": {r["query_id"]: r["latency_ms"] for r in warm},
        "stats": None,
    }


def run_pass(workload, seed, seconds, setups, work, spans_path=None):
    os.makedirs(work, exist_ok=True)
    if workload == "pagerank-rmat18":
        return pagerank_pass(seed, seconds, setups, work, spans_path)
    import served
    return served.run_pass(workload, seed, seconds, setups, work,
                           spans_path)


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(result):
    """``{name: (value, unit)}`` for the untraced metrics."""
    lat = result["latency_ms"]
    updates = result["update_ms"]
    return {
        "setup_s": (_pct(result["setup_s"], 50), "s"),
        "query_qps": (result["qps"], "1/s"),
        "query_p50_ms": (_pct(lat, 50), "ms"),
        "query_p95_ms": (_pct(lat, 95), "ms"),
        "update_p50_ms": (_pct(updates, 50), "ms"),
        "update_p90_ms": (_pct(updates, 90), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def per_layer(base, traced, spans_path):
    """Per-layer metrics of the traced pass, plus tracing overhead."""
    from tracer import layer_metrics, self_times
    with open(spans_path) as handle:
        trace = json.load(handle)
    metrics = layer_metrics(trace, traced["client_ms"], traced["stats"])
    untraced_p50 = _pct(base["latency_ms"], 50)
    overhead = _pct(traced["latency_ms"], 50) - untraced_p50
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["trace.overhead_share"] = (
        overhead / untraced_p50 if untraced_p50 else 0.0, "ratio")
    metrics["trace.spans"] = (len(trace["spans"]), "count")
    with open(spans_path[:-len(".json")] + "-self.json", "w") as handle:
        json.dump(self_times(trace), handle, indent=1, sort_keys=True)
    return metrics


def same_path(base, traced):
    """Requests both passes ran whose execution or simulated-time
    fingerprint differ (each is a failure)."""
    common = set(base["fingerprints"]) & set(traced["fingerprints"])
    return sum(base["fingerprints"][k] != traced["fingerprints"][k]
               for k in common), len(common)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs.require_source()
    tag = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                    os.getpid())
    out_dir = os.path.join(HERE, ".out")
    work = os.path.join(out_dir, tag)
    try:
        if args.trace == 0:
            result = run_pass(args.workload, args.seed, args.seconds,
                              SETUPS, work)
            metrics = end_to_end(result)
            attempted = result["attempted"]
            failures = result["failures"]
        else:
            spans_path = os.path.join(out_dir, tag + "-spans.json")
            _log("untraced pass")
            base = run_pass(args.workload, args.seed, args.seconds, 1,
                            os.path.join(work, "untraced"))
            _log("traced pass")
            traced = run_pass(args.workload, args.seed, args.seconds, 1,
                              os.path.join(work, "traced"), spans_path)
            mismatched, compared = same_path(base, traced)
            _log("%d requests compared between passes, %d differ"
                 % (compared, mismatched))
            attempted = (base["attempted"] + traced["attempted"]
                         + compared)
            failures = base["failures"] + traced["failures"]
            failures["traced vs untraced"] += mismatched
            metrics = per_layer(base, traced, spans_path)
            metrics["bench.error_share"] = (
                sum(failures.values()) / attempted, "ratio")
    except BaseException:
        _log("kept %s for inspection" % work)
        raise
    shutil.rmtree(work, ignore_errors=True)
    failed = sum(failures.values())
    for name, (value, unit) in sorted(metrics.items()):
        _log("%-28s %14.6g %s" % (name, value, unit))
    for reason, count in sorted(failures.items()):
        if count:
            _log("FAILED %d: %s" % (count, reason))
    _log("error_share %.6g (%d of %d failed)"
         % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    _log("done in %.1f s" % (time.perf_counter() - start))
    sys.exit(code)
