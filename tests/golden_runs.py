"""Golden fingerprints of whole engine runs: kernels x configurations.

Every entry records what one :meth:`GTSEngine.run` produced — the
sha256 of each value array, the exact simulated time, the round, edge,
page and byte counts, the cache and buffer counters and the fault
ledger — for one kernel of :mod:`repro.core.kernels` under one engine
configuration.  ``tests/test_execution_equivalence.py`` replays every
entry and requires an exact match, so a refactor of the kernels or the
round loop cannot move a value bit or a simulated nanosecond unnoticed.

The checked-in file was recorded on the per-page execution path at the
commit it names; regenerate it only when a change is *meant* to move
the fingerprints::

    PYTHONPATH=src python -m tests.golden_runs --out tests/data/golden_runs.json
"""

import argparse
import hashlib
import json
import os
import subprocess
import tempfile

import numpy as np

from repro.core import (
    BCKernel,
    BFSKernel,
    CrossEdgesKernel,
    DegreeKernel,
    EgonetKernel,
    GTSEngine,
    InducedSubgraphKernel,
    KCoreKernel,
    NeighborhoodKernel,
    PageRankKernel,
    RadiusKernel,
    RWRKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.faults import FaultPlan
from repro.format import PageFormatConfig, build_database
from repro.format.io import FileBackedDatabase, save_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "golden_runs.json")

#: Small pages give the RMAT graphs both small and large pages.
PAGE_CONFIG = PageFormatConfig(page_id_bytes=2, slot_bytes=2,
                               page_size=512, weight_bytes=4)

#: Survivable rates (SSD, copy and stall classes) under the default
#: retry policy.
FAULT_PLAN = FaultPlan(ssd_transient_rate=0.03, ssd_corrupt_rate=0.01,
                       copy_error_rate=0.02, stall_rate=0.03,
                       stall_seconds=2e-4, seed=5)


def build_graphs():
    """``{"directed": db, "symmetric": db}`` — WCC and KCore read the
    symmetrised graph, every other kernel the directed weighted one."""
    graph = generate_rmat(9, edge_factor=8, seed=21)
    directed = graph.with_random_weights(seed=3)
    symmetric = graph.symmetrised().with_random_weights(seed=4)
    return {
        "directed": build_database(directed, PAGE_CONFIG, name="golden"),
        "symmetric": build_database(symmetric, PAGE_CONFIG,
                                    name="golden-sym"),
    }


def kernels(db):
    """``{name: (graph key, kernel factory)}`` for all 13 kernels."""
    hub = int(np.argmax(db.out_degrees))
    num_vertices = db.num_vertices
    vids = np.arange(num_vertices)
    member = (vids * 7919) % 5 < 2
    return {
        "pagerank": ("directed", lambda: PageRankKernel(iterations=4)),
        "bfs": ("directed", lambda: BFSKernel(start_vertex=hub)),
        "sssp": ("directed", lambda: SSSPKernel(start_vertex=hub)),
        "wcc": ("symmetric", lambda: WCCKernel()),
        "bc": ("directed", lambda: BCKernel(sources=(hub, 1, 7))),
        "rwr": ("directed",
                lambda: RWRKernel(query_vertex=hub, iterations=4)),
        "degree": ("directed", lambda: DegreeKernel()),
        "kcore": ("symmetric", lambda: KCoreKernel(k=4)),
        "neighborhood": ("directed",
                         lambda: NeighborhoodKernel(query_vertex=hub,
                                                    hops=2)),
        "cross_edges": ("directed",
                        lambda: CrossEdgesKernel(partition=vids % 3)),
        "radius": ("directed",
                   lambda: RadiusKernel(num_sketches=4, max_hops=5,
                                        seed=2)),
        "induced": ("directed",
                    lambda: InducedSubgraphKernel(member,
                                                  collect_edges=True)),
        "egonet": ("directed",
                   lambda: EgonetKernel(ego_vertex=hub,
                                        collect_edges=True)),
    }


def configs(db):
    """``{name: engine keyword arguments}``; ``store="mmap"`` asks for
    a zero-copy file-backed copy of the database."""
    quarter = max(db.page_bytes(), db.topology_bytes() // 4)
    return {
        "performance_2gpu": {},
        "scalability": {"strategy": "scalability"},
        "1gpu_nocache": {"num_gpus": 1, "enable_caching": False},
        "mmap": {"store": "mmap"},
        "mm_buffer_25": {"mm_buffer_bytes": quarter},
        "mm_buffer_25_io_merge": {"mm_buffer_bytes": quarter,
                                  "io_merge": True},
        "validate": {"validate_simulation": True},
        "faults": {"mm_buffer_bytes": quarter, "enable_caching": False,
                   "faults": FAULT_PLAN},
    }


def _digest(array):
    array = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(("%s%r" % (array.dtype.str, array.shape)).encode())
    h.update(array.tobytes())
    return h.hexdigest()


def fingerprint(result):
    """The golden record of one :class:`RunResult`."""
    faults = None
    if result.fault_stats is not None:
        # ``fallback_rounds`` counts a path choice, not a fault.
        faults = {key: repr(value)
                  for key, value in sorted(result.fault_stats.items())
                  if key != "fallback_rounds"}
    return {
        "values": {key: _digest(value)
                   for key, value in sorted(result.values.items())},
        "elapsed_seconds": repr(result.elapsed_seconds),
        "num_rounds": result.num_rounds,
        "edges_traversed": result.edges_traversed,
        "pages_streamed": result.pages_streamed,
        "bytes_streamed": result.bytes_streamed,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "mm_buffer_hits": result.mm_buffer_hits,
        "mm_buffer_misses": result.mm_buffer_misses,
        "storage_bytes_read": result.storage_bytes_read,
        "fault_stats": faults,
    }


def run_case(dbs, kernel_name, config_name, workdir):
    """Fingerprint one (kernel, config) cell."""
    graph_key, factory = kernels(dbs["directed"])[kernel_name]
    db = dbs[graph_key]
    options = dict(configs(db)[config_name])
    machine = scaled_workstation(num_gpus=options.pop("num_gpus", 2),
                                 num_ssds=2)
    store = options.pop("store", None)
    if store is not None:
        prefix = os.path.join(workdir, graph_key)
        if not os.path.exists(prefix + ".meta.json"):
            save_database(db, prefix)
        db = FileBackedDatabase(prefix, pool_pages=max(1, db.num_pages // 4),
                                mode=store)
    try:
        return fingerprint(GTSEngine(db, machine, **options).run(factory()))
    finally:
        if store is not None:
            db.close()


def generate():
    dbs = build_graphs()
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for kernel_name in kernels(dbs["directed"]):
            for config_name in configs(dbs["directed"]):
                out["%s/%s" % (kernel_name, config_name)] = run_case(
                    dbs, kernel_name, config_name, workdir)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    payload = {"commit": commit, "entries": generate()}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
