"""Seeded benchmark inputs: saved databases, query lists, update batches.

Graph files depend only on generator parameters, never on the workload
seed, so they are built once per checkout under ``perfbench/.cache``
and reused by every run; ``setup_s`` then times opening a saved
database, not generating one.  Every run works on a fresh copy.
"""

import json
import os
import random
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")

#: The seed the benchmark uses unless told otherwise, and the seed held
#: out while a change is written (a claimed gain must also hold on it).
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: The ROADMAP's RMAT-18 wall-clock cell.
RMAT18 = {"scale": 18, "edge_factor": 16, "seed": 7, "page_size": 2048}
#: The served graph: the weighted ``rmat27`` registry dataset.
SERVED_DATASET = "rmat27"

#: Query mix per block of 20 queries (bfs 30%, sssp 20%, rwr 15%,
#: bc 10%, pagerank 10%, cc 5%, degree 5%, kcore 5%).
MIX = (("bfs", 6), ("sssp", 4), ("rwr", 3), ("bc", 2), ("pagerank", 2),
       ("cc", 1), ("degree", 1), ("kcore", 1))
ALGORITHMS = tuple(name for name, _ in MIX)
#: Algorithms whose result depends on the start vertex.
STARTED = ("bfs", "sssp", "rwr", "bc")
#: Size of the fixed start pool of each started algorithm.
POOL_STARTS = 6
#: Queries per cycle: as many blocks as a pool has starts, so every
#: start comes up a whole number of times.  A run is whole cycles, so
#: every seed measures the same population of queries.
CYCLE = 20 * POOL_STARTS
UPDATE_EDGES = 32
#: Bytes of delta overlay before a served update compacts.  One batch
#: of 32 inserts adds 256 B, so compaction fires every 20th batch: 3
#: times in a cycle of serve-rw (60 updates).  A compaction with its
#: durable base save takes about a second; 3 of 60 updates stay above
#: update_p90_ms instead of deciding it.  With every 4th batch,
#: compaction took most of the run.
COMPACT_THRESHOLD = 5120


def require_source():
    """Exit with an error when the checkout has no program to measure."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perfbench: no src/repro under %s; run from the "
                         "root of a full checkout\n" % ROOT)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _build(directory, make):
    """Build into a temporary sibling and rename, so an interrupted
    build never leaves a half-written cache entry."""
    if os.path.isdir(directory):
        return directory
    os.makedirs(CACHE, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=CACHE, prefix=".build-")
    try:
        make(tmp)
        os.rename(tmp, directory)
    except FileExistsError:
        shutil.rmtree(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return directory


def rmat18_dir():
    """``db.*`` for the RMAT-18 cell plus the reference PageRank."""
    from repro.baselines import reference
    from repro.format.builder import build_database
    from repro.format.config import PageFormatConfig
    from repro.format.io import save_database
    from repro.graphgen.rmat import generate_rmat

    def make(tmp):
        graph = generate_rmat(RMAT18["scale"],
                              edge_factor=RMAT18["edge_factor"],
                              seed=RMAT18["seed"])
        config = PageFormatConfig(page_id_bytes=4, slot_bytes=2,
                                  page_size=RMAT18["page_size"])
        save_database(build_database(graph, config),
                      os.path.join(tmp, "db"))
        np.save(os.path.join(tmp, "pagerank.npy"),
                reference.pagerank(graph, iterations=10))

    return _build(os.path.join(
        CACHE, "rmat_s%(scale)d_f%(edge_factor)d_seed%(seed)d_ps%(page_size)d"
        % RMAT18), make)


def served_dir():
    """``db.*`` for the served graph, its edge arrays (the oracle's copy
    of the topology, independent of the page decoder) and the one-shot
    digest of every pool query."""
    from repro.bench.datasets import dataset_database, dataset_graph
    from repro.format.io import save_database

    def make(tmp):
        import oracle
        graph = dataset_graph(SERVED_DATASET, weighted=True)
        save_database(dataset_database(SERVED_DATASET, weighted=True),
                      os.path.join(tmp, "db"))
        sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                            np.diff(graph.indptr))
        np.savez(os.path.join(tmp, "edges.npz"),
                 num_vertices=graph.num_vertices, sources=sources,
                 targets=graph.targets, weights=graph.weights)
        digest = oracle.one_shot_digest(os.path.join(tmp, "db"),
                                        pool_queries(sources))
        with open(os.path.join(tmp, "digest.json"), "w") as handle:
            json.dump([[alg, start, list(fp)]
                       for (alg, start), fp in digest.items()], handle)

    return _build(os.path.join(CACHE, "%s_weighted_pool%d"
                               % (SERVED_DATASET, POOL_STARTS)), make)


def fresh_copy(directory, dest):
    """Copy ``directory``'s saved database to ``dest``; returns the prefix
    (the write-ahead log is never copied: each run starts from the base)."""
    os.makedirs(dest, exist_ok=True)
    for suffix in (".meta.json", ".pages"):
        shutil.copyfile(os.path.join(directory, "db" + suffix),
                        os.path.join(dest, "db" + suffix))
    return os.path.join(dest, "db")


def load_digest(directory):
    with open(os.path.join(directory, "digest.json")) as handle:
        return {(alg, start): tuple(fp)
                for alg, start, fp in json.load(handle)}


def load_edges(directory):
    data = np.load(os.path.join(directory, "edges.npz"))
    return (int(data["num_vertices"]), data["sources"], data["targets"],
            data["weights"])


def start_pool(sources):
    """Starts per started algorithm, seeded once among vertices with
    out-degree > 0.  The pool is part of the workload, like the graph:
    every workload seed draws from the same population of query costs,
    and its one-shot digest is computed once per cache build."""
    rng = random.Random("start-pool")
    candidates = sorted(set(int(v) for v in np.unique(sources)))
    return {alg: sorted(rng.sample(candidates, POOL_STARTS))
            for alg in STARTED}


def pool_queries(sources):
    """Every distinct ``(algorithm, start or None)`` a query list holds."""
    pool = start_pool(sources)
    return [(alg, start) for alg in ALGORITHMS
            for start in (pool[alg] if alg in STARTED else (None,))]


def query_list(seed, sources, cycles):
    """The client's ``(algorithm, start or None)`` sequence: ``cycles``
    cycles of shuffled blocks of 20 that each hold the exact mix.  Each
    pool is walked in seeded order, one start after another, so a cycle
    runs every start equally often.  Which queries a run holds depends
    only on ``cycles``; the seed picks their order."""
    pool = start_pool(sources)
    rng = random.Random("queries-%d" % seed)
    block = [alg for alg, count in MIX for _ in range(count)]
    walks = {alg: [] for alg in STARTED}
    queries = []
    for _ in range(cycles * CYCLE // len(block)):
        order = list(block)
        rng.shuffle(order)
        for alg in order:
            start = None
            if alg in STARTED:
                if not walks[alg]:
                    walks[alg] = rng.sample(pool[alg], POOL_STARTS)
                start = walks[alg].pop()
            queries.append((alg, start))
    return queries


def check_queries(seed, sources):
    """One seeded ``(algorithm, start)`` per algorithm for the values
    check against the oracle."""
    rng = random.Random("checks-%d" % seed)
    candidates = sorted(set(int(v) for v in np.unique(sources)))
    return [(alg, rng.choice(candidates) if alg in STARTED else None)
            for alg in ALGORITHMS]


def update_batches(seed, num_vertices, count):
    """``count`` batches of weighted edge inserts, as ``ops`` lists.

    Weights are float32 values so the stored weight equals the oracle's.
    """
    rng = random.Random("updates-%d" % seed)
    return [[["+", rng.randrange(num_vertices), rng.randrange(num_vertices),
              float(np.float32(rng.uniform(1.0, 10.0)))]
             for _ in range(UPDATE_EDGES)]
            for _ in range(count)]
