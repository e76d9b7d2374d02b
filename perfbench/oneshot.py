"""Child process of the ``pagerank-rmat18`` workload.

Runs the one-shot path the way ``python -m repro run --db`` would, with
the 256-page pool the served path also uses: open the saved database
with ``open_dynamic_database``, build a default ``GTSEngine`` and run
10-iteration PageRank, cold once per set-up and then ``--runs`` times
warm on one engine.  Between the warm runs it commits the seeded update
batches, one at a time, to a second copy (the write probe).  It writes
timings, fingerprints and its own peak RSS to ``--out``; the
benchmark's oracle data stays in the parent, out of this process's
memory.

    python3 perfbench/oneshot.py --data DIR --work DIR --runs 15 \\
        --setups 3 --seed 1 --probe 200 --out result.json \\
        [--spans spans.json]
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402


def _close(db):
    for handle in (db, getattr(db, "_base", None)):
        if handle is not None and hasattr(handle, "close"):
            handle.close()


def _fingerprint(result):
    return {"execution": result.execution,
            "elapsed_seconds": result.elapsed_seconds,
            "num_rounds": result.num_rounds,
            "edges_traversed": result.edges_traversed}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    inputs.require_source()
    import numpy as np

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer().install()
    from repro.core import GTSEngine, PageRankKernel
    from repro.dynamic import UpdateBatch, open_dynamic_database
    from repro.hardware.specs import scaled_workstation

    out = {"setup_s": [], "runs": [], "updates": []}
    db = engine = None
    for k in range(args.setups):
        if engine is not None:
            engine.close()
            _close(db)
            db = engine = None
            gc.collect()
        prefix = inputs.fresh_copy(args.data,
                                   os.path.join(args.work, "setup%d" % k))
        if tracer is not None:
            tracer.default_query_id = "cold%d" % k
        start = time.perf_counter()
        db = open_dynamic_database(prefix, pool_pages=256)
        engine = GTSEngine(db, scaled_workstation(num_gpus=2, num_ssds=2))
        result = engine.run(PageRankKernel(iterations=10),
                            dataset_name=prefix)
        out["setup_s"].append(time.perf_counter() - start)
        out["runs"].append(dict(_fingerprint(result), phase="cold",
                                query_id="cold%d" % k))
    # The write probe commits to its own copy, so the PageRank runs keep
    # their recorded fingerprint; its batches are spread between the
    # runs so they sample the machine across the whole timed phase.
    probe = open_dynamic_database(
        inputs.fresh_copy(args.data, os.path.join(args.work, "probe")),
        pool_pages=256)
    batches = inputs.update_batches(args.seed, probe.num_vertices,
                                    args.probe)
    per_run = -(-len(batches) // args.runs)
    first = None
    for index in range(args.runs):
        query_id = "r%d" % index
        if tracer is not None:
            tracer.default_query_id = query_id
        start = time.perf_counter()
        result = engine.run(PageRankKernel(iterations=10),
                            dataset_name=prefix)
        latency = time.perf_counter() - start
        ranks = result.values["rank"]
        if first is None:
            first = ranks
            np.save(os.path.join(args.work, "rank.npy"), ranks)
        out["runs"].append(dict(
            _fingerprint(result), phase="warm", query_id=query_id,
            latency_ms=1000.0 * latency,
            same_values=bool(np.array_equal(ranks, first))))
        for ops in batches[index * per_run:(index + 1) * per_run]:
            version = probe.topology_version
            start = time.perf_counter()
            report = probe.apply(UpdateBatch.from_dict({"ops": ops}))
            out["updates"].append({
                "latency_ms": 1000.0 * (time.perf_counter() - start),
                "ok": (report.inserted_edges == len(ops)
                       and report.topology_version == version + 1)})
    engine.close()
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                          .ru_maxrss / 1024.0)
    _close(db)
    _close(probe)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
