"""Wall-clock benchmark: batched round execution and the zero-copy
mmap store.

Unlike the ``bench_fig*`` harnesses, which report *simulated* seconds,
this script measures real host wall-clock of
:class:`repro.core.engine.GTSEngine` runs and of the store's open path.
It is both the acceptance artifact (``BENCH_wallclock.json`` at the
repo root, produced by a full run) and a CI smoke gate (``--quick``).
The history benchmark name stays ``wallclock_batched_vs_paged`` so the
record trajectory continues across the removal of the per-page path.

Protocol
--------
The database is built once and shared.  Each kernel gets one engine
and ``1 + repeats`` runs: the first is reported as *cold* (it pays the
one-time :class:`PagePlan` build), the rest as *warm*.  Cold numbers
are reported separately rather than mixed in, because the plan build
amortises across every later run on the same topology.  Every warm run
must reproduce the cold run's simulated time and output exactly.

A further ``store_modes`` cell measures the zero-copy store on a saved
copy of the dataset (8 KiB pages — wide enough that vectorized decode,
not per-page Python overhead, dominates): a full eager
:func:`load_database` versus a ``mode="mmap"`` open plus a complete page
scan (what a cold query actually pays before its first round).  Gated
by ``--min-mmap-speedup``.

The two stores' runs are also checked for bit-identical simulated time
and algorithm output — a speedup that changes answers is a bug, not a
win.

``--quick`` caches the built databases under
``benchmarks/.dataset_cache/`` (keyed by generator parameters and page
size) so repeated CI cells and local reruns skip the RMAT build.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick   # CI
"""

import argparse
import datetime
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.core import GTSEngine
from repro.core.kernels.bfs import BFSKernel
from repro.core.kernels.pagerank import PageRankKernel
from repro.core.kernels.sssp import SSSPKernel
from repro.core.kernels.wcc import WCCKernel
from repro.format import PageFormatConfig, build_database
from repro.format.io import FileBackedDatabase, load_database, save_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "BENCH_wallclock.json")
DEFAULT_HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")
DATASET_CACHE = os.path.join(ROOT, "benchmarks", ".dataset_cache")
#: Page size for the store cell: large pages amortise the
#: per-page decode overhead, so the cell measures byte movement and
#: parse vectorization rather than Python call dispatch.
STORE_CELL_PAGE_SIZE = 8192


def make_kernel(name, iterations):
    if name == "pagerank":
        return PageRankKernel(iterations=iterations)
    if name == "bfs":
        return BFSKernel(start_vertex=0)
    if name == "sssp":
        return SSSPKernel(start_vertex=0)
    if name == "wcc":
        return WCCKernel()
    raise SystemExit("unknown kernel %r" % name)


def summarize_samples(wall):
    """Cold/warm split plus distribution statistics over the warm
    repeats (best-of-warm stays the headline; p50/p95 expose run-to-run
    spread instead of hiding it behind the single best sample)."""
    warm = wall[1:] or wall
    ordered = sorted(warm)
    from repro.obs.metrics import Histogram
    return {
        "cold_seconds": round(wall[0], 4),
        "warm_seconds": [round(w, 4) for w in wall[1:]],
        "best_seconds": round(min(warm), 4),
        "mean_seconds": round(sum(warm) / len(warm), 4),
        "p50_seconds": round(Histogram._quantile(ordered, 0.50), 4),
        "p95_seconds": round(Histogram._quantile(ordered, 0.95), 4),
    }


def run_kernel(db, machine, kernel_name, iterations, repeats):
    """One engine, ``1 + repeats`` runs; returns (timings, results)."""
    engine = GTSEngine(db, machine)
    wall = []
    results = []
    for _ in range(1 + repeats):
        kernel = make_kernel(kernel_name, iterations)
        start = time.perf_counter()
        results.append(engine.run(kernel))
        wall.append(time.perf_counter() - start)
    return summarize_samples(wall), results


def check_repeatable(kernel_name, results):
    """Warm runs (plan cached) must agree bit-for-bit with the cold run
    on simulated time and answers."""
    problems = []
    cold = results[0]
    for warm in results[1:]:
        if warm.elapsed_seconds != cold.elapsed_seconds:
            problems.append("elapsed_seconds %r != %r" % (
                warm.elapsed_seconds, cold.elapsed_seconds))
        if warm.num_rounds != cold.num_rounds:
            problems.append("num_rounds %d != %d" % (
                warm.num_rounds, cold.num_rounds))
        for key in cold.values:
            if not np.array_equal(warm.values[key], cold.values[key]):
                problems.append("values[%r] differ" % key)
    for problem in problems:
        print("REPEATABILITY FAILURE (%s): %s" % (kernel_name, problem),
              file=sys.stderr)
    return not problems


def dataset_prefix(args, page_size, cache):
    """A saved ``<prefix>.meta.json``/``.pages`` pair for the requested
    RMAT dataset, built on demand.

    With ``cache`` (the ``--quick`` default) the pair lives under
    ``benchmarks/.dataset_cache/`` keyed by every parameter that shapes
    the bytes, so repeated quick runs skip both the generator and the
    page build.  Without it the pair goes to a fresh temp directory.
    """
    key = "rmat_s%d_f%d_seed%d_ps%d" % (
        args.scale, args.edge_factor, args.seed, page_size)
    if cache:
        directory = os.path.join(DATASET_CACHE, key)
    else:
        directory = os.path.join(tempfile.mkdtemp(prefix="bench_wc_"), key)
    prefix = os.path.join(directory, "db")
    if (os.path.exists(prefix + ".meta.json")
            and os.path.exists(prefix + ".pages")):
        print("  dataset cache hit: %s" % prefix)
        return prefix
    os.makedirs(directory, exist_ok=True)
    graph = generate_rmat(args.scale, edge_factor=args.edge_factor,
                          seed=args.seed)
    config = PageFormatConfig(page_id_bytes=4, slot_bytes=2,
                              page_size=page_size)
    save_database(build_database(graph, config), prefix)
    return prefix


def bench_store_modes(prefix, repeats):
    """Cold-open cell: eager :func:`load_database` versus an mmap open
    plus a full page scan, plus a bit-identity check between runs over
    the two stores."""
    eager_wall, mmap_wall = [], []
    num_pages = None
    for _ in range(1 + repeats):
        start = time.perf_counter()
        eager_db = load_database(prefix)
        eager_wall.append(time.perf_counter() - start)
        num_pages = eager_db.num_pages
    for _ in range(1 + repeats):
        start = time.perf_counter()
        db = FileBackedDatabase(prefix, pool_pages=num_pages, mode="mmap")
        db.prefetch(range(num_pages))
        mmap_wall.append(time.perf_counter() - start)
        db.close()
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    eager_result = GTSEngine(eager_db, machine).run(
        PageRankKernel(iterations=3))
    mapped = FileBackedDatabase(prefix, pool_pages=num_pages, mode="mmap")
    mmap_result = GTSEngine(mapped, machine).run(
        PageRankKernel(iterations=3))
    identical = (
        eager_result.elapsed_seconds == mmap_result.elapsed_seconds
        and all(np.array_equal(eager_result.values[k],
                               mmap_result.values[k])
                for k in eager_result.values))
    mmap_dict = mmap_result.to_dict()
    mapped.close()
    eager_times = summarize_samples(eager_wall)
    mmap_times = summarize_samples(mmap_wall)
    return {
        "protocol": "eager load_database vs mmap open + full page scan "
                    "(1 cold + N warm samples each)",
        "page_size": STORE_CELL_PAGE_SIZE,
        "num_pages": int(num_pages),
        "eager_load": eager_times,
        "mmap_open_scan": mmap_times,
        "speedup_cold": round(eager_times["cold_seconds"]
                              / mmap_times["cold_seconds"], 2),
        "speedup_best": round(eager_times["best_seconds"]
                              / mmap_times["best_seconds"], 2),
        "mmap_hits": mmap_dict["mmap_hits"],
        "mmap_misses": mmap_dict["mmap_misses"],
        "simulated_elapsed_seconds": eager_result.elapsed_seconds,
        "bit_identical": bool(identical),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="wall-clock benchmark of batched execution and the "
                    "mmap store")
    parser.add_argument("--scale", type=int, default=18,
                        help="RMAT scale (default 18)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--iterations", type=int, default=10,
                        help="PageRank iterations (default 10)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="warm runs per mode (default 3)")
    parser.add_argument("--kernels", default="pagerank",
                        help="comma list: pagerank,bfs,sssp,wcc")
    parser.add_argument("--min-mmap-speedup", type=float, default=None,
                        metavar="X",
                        help="fail if the mmap open+scan is not at least "
                             "X times faster than the eager load "
                             "(default: report only; CI passes 3.0)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        metavar="JSONL",
                        help="append a schema-versioned record to this "
                             "benchmark-history log (see repro.obs."
                             "history); '' disables the append")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: scale 13, 2 repeats, 5 iterations")
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 13)
        args.repeats = min(args.repeats, 2)
        args.iterations = min(args.iterations, 5)

    print("building RMAT%d (edge_factor=%d, seed=%d)..."
          % (args.scale, args.edge_factor, args.seed))
    # The kernel cells keep their original in-memory database and page
    # size (history records stay comparable); --quick routes through the
    # on-disk dataset cache so reruns skip the generator.
    if args.quick:
        db = load_database(dataset_prefix(args, 2048, cache=True))
    else:
        graph = generate_rmat(args.scale, edge_factor=args.edge_factor,
                              seed=args.seed)
        db = build_database(graph, PageFormatConfig(
            page_id_bytes=4, slot_bytes=2, page_size=2048))
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    print("  %d vertices, %d edges, %d pages"
          % (db.num_vertices, db.num_edges, db.num_pages))

    kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    report = {
        "benchmark": "wallclock_batched_vs_paged",
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "dataset": {
            "generator": "rmat", "scale": args.scale,
            "edge_factor": args.edge_factor, "seed": args.seed,
            "num_vertices": int(db.num_vertices),
            "num_edges": int(db.num_edges),
            "num_pages": int(db.num_pages),
        },
        "machine": "scaled_workstation(num_gpus=2, num_ssds=2)",
        "protocol": {
            "repeats": args.repeats,
            "timing": "1 cold + N warm runs per kernel on one engine",
        },
        "quick": args.quick,
        "kernels": {},
    }

    ok = True
    for kernel_name in kernels:
        print("== %s ==" % kernel_name)
        times, results = run_kernel(db, machine, kernel_name,
                                    args.iterations, args.repeats)
        print("  batched cold %.2fs  warm %s" % (
            times["cold_seconds"], times["warm_seconds"]))
        repeatable = check_repeatable(kernel_name, results)
        ok = ok and repeatable
        report["kernels"][kernel_name] = {
            "iterations": (args.iterations
                           if kernel_name == "pagerank" else None),
            "batched": times,
            "simulated_elapsed_seconds": results[0].elapsed_seconds,
            "bit_identical": repeatable,
        }

    print("== store modes (page_size=%d) ==" % STORE_CELL_PAGE_SIZE)
    store_prefix = dataset_prefix(args, STORE_CELL_PAGE_SIZE,
                                  cache=args.quick)
    store_cell = bench_store_modes(store_prefix, args.repeats)
    ok = ok and store_cell["bit_identical"]
    print("  eager cold %.2fs best %.2fs | mmap cold %.2fs best %.2fs "
          "| speedup %.2fx best (%.2fx cold)"
          % (store_cell["eager_load"]["cold_seconds"],
             store_cell["eager_load"]["best_seconds"],
             store_cell["mmap_open_scan"]["cold_seconds"],
             store_cell["mmap_open_scan"]["best_seconds"],
             store_cell["speedup_best"], store_cell["speedup_cold"]))
    report["store_modes"] = store_cell

    store_cell["min_speedup_gate"] = args.min_mmap_speedup
    mmap_ok = True
    if args.min_mmap_speedup is not None:
        mmap_ok = store_cell["speedup_best"] >= args.min_mmap_speedup
        store_cell["gate"] = "passed" if mmap_ok else "failed"
    else:
        store_cell["gate"] = "report only"

    report["gate_passed"] = bool(ok and mmap_ok)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print("wrote %s" % args.out)
    if args.history:
        from repro.obs.history import append_history
        append_history(
            args.history, report["benchmark"], report,
            meta={"quick": args.quick, "scale": args.scale,
                  "edge_factor": args.edge_factor, "seed": args.seed,
                  "iterations": args.iterations,
                  "repeats": args.repeats, "kernels": args.kernels},
            generated=report["generated"])
        print("appended history record to %s" % args.history)
    if not ok:
        print("FAIL: a repeated run or the store mode changed results",
              file=sys.stderr)
        return 1
    if not mmap_ok:
        print("FAIL: mmap open+scan speedup %.2fx below gate %.2fx"
              % (store_cell["speedup_best"], args.min_mmap_speedup),
              file=sys.stderr)
        return 1
    print("gate passed: results repeatable and store-invariant (mmap %s)"
          % store_cell["gate"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
