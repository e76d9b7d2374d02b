"""Expected outputs for the benchmark's correctness checks.

Values come from ``repro.baselines.reference`` where it has the
algorithm, and from the small fixpoint oracles below where the served
kernel's convention differs from the reference's: the service runs
``cc`` and ``kcore`` on the directed topology as stored, so their
expected values are directed min-label propagation and peeling by
out-degree minus removed in-edges.
"""

import numpy as np

from repro.baselines import reference
from repro.graphgen.graph import Graph


def graph_from_edges(num_vertices, sources, targets, weights, batches=()):
    """The base edge arrays plus every inserted edge of ``batches``."""
    extra = [op for ops in batches for op in ops]
    if extra:
        sources = np.concatenate([sources, [op[1] for op in extra]])
        targets = np.concatenate([targets, [op[2] for op in extra]])
        weights = np.concatenate([weights, np.asarray(
            [op[3] for op in extra], dtype=weights.dtype)])
    return Graph.from_edges(num_vertices, sources, targets,
                            weights=weights)


def directed_min_labels(graph):
    """Smallest vertex id that reaches each vertex (itself included)."""
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                        graph.out_degrees())
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    while True:
        new = labels.copy()
        np.minimum.at(new, graph.targets, labels[sources])
        if np.array_equal(new, labels):
            return labels
        labels = new


def kcore_peel(graph, k):
    """(members, residual degree) of peeling by out-degree < k, where a
    removed vertex takes one unit from each of its out-neighbours."""
    out_degree = graph.out_degrees().astype(np.int64)
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                        out_degree)
    removed = out_degree < k
    while True:
        lost = np.bincount(graph.targets[removed[sources]],
                           minlength=graph.num_vertices)
        residual = out_degree - lost
        newly = ~removed & (residual < k)
        if not newly.any():
            return ~removed, residual
        removed |= newly


def expected(graph, algorithm, start):
    """``{value key: array}`` the served algorithm must return."""
    if algorithm == "bfs":
        return {"level": reference.bfs_levels(graph, start)}
    if algorithm == "sssp":
        return {"distance": reference.sssp_distances(graph, start)}
    if algorithm == "pagerank":
        return {"rank": reference.pagerank(graph, iterations=10)}
    if algorithm == "rwr":
        return {"proximity": reference.random_walk_with_restart(
            graph, query_vertex=start, iterations=10)}
    if algorithm == "bc":
        return {"centrality": reference.betweenness_centrality(
            graph, sources=(start,))}
    if algorithm == "cc":
        return {"component": directed_min_labels(graph)}
    if algorithm == "degree":
        out_degree, in_degree = reference.degree_counts(graph)
        return {"out_degree": out_degree, "in_degree": in_degree}
    if algorithm == "kcore":
        members, residual = kcore_peel(graph, 2)
        return {"in_kcore": members, "residual_degree": residual}
    raise ValueError("no oracle for %r" % algorithm)


#: Value keys the kernels keep in float32 (SSSP distances sum float32
#: weights), checked to a float32-sized relative tolerance.
FLOAT32_KEYS = frozenset({"distance"})


def values_match(want, got):
    """True when every expected vector is present and agrees: exactly
    for integer and boolean vectors, to 1e-9 relative for float64
    vectors (sums may run in another order) and 1e-5 for float32 ones."""
    for key, expected_values in want.items():
        if key not in got:
            return False
        values = np.asarray(got[key], dtype=expected_values.dtype)
        if values.shape != expected_values.shape:
            return False
        if expected_values.dtype.kind == "f":
            rtol = 1e-5 if key in FLOAT32_KEYS else 1e-9
            if not np.allclose(values, expected_values, rtol=rtol,
                               atol=1e-12, equal_nan=True):
                return False
        elif not np.array_equal(values, expected_values):
            return False
    return True


def one_shot_digest(prefix, queries):
    """Fingerprint of each ``(algorithm, start)`` from an in-process
    one-shot run on the saved base graph, with the service's engine
    defaults (the served reply must match it)."""
    from repro.core import GTSEngine
    from repro.format.io import load_database
    from repro.hardware.specs import scaled_workstation
    from repro.service.service import ALGORITHMS, ENGINE_OPTIONS

    db = load_database(prefix)
    options = dict(ENGINE_OPTIONS)
    out = {}
    for algorithm, start in queries:
        resolved = (start if start is not None
                    else int(np.argmax(db.out_degrees)))
        params = {} if start is None else {"start": start}
        engine = GTSEngine(
            db, scaled_workstation(num_gpus=options["num_gpus"],
                                   num_ssds=options["num_ssds"]),
            strategy=options["strategy"],
            num_streams=options["num_streams"],
            micro_technique=options["micro_technique"],
            enable_caching=options["enable_caching"],
            cache_policy=options["cache_policy"],
            execution=options["execution"],
            io_merge=options["io_merge"])
        result = engine.run(ALGORITHMS[algorithm][0](params, resolved))
        engine.close()
        out[(algorithm, start)] = (result.execution,
                                   result.elapsed_seconds,
                                   result.num_rounds,
                                   result.edges_traversed)
    return out
