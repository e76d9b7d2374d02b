"""Single-Source Shortest Path kernel (BFS-like family, Appendix D).

Level-synchronous Bellman–Ford: each round relaxes the out-edges of every
vertex whose distance improved in the previous round, and the next round's
``nextPIDSet`` is the set of pages holding vertices whose tentative
distance an update may have lowered.  Reads use the distance snapshot
committed at the end of the previous round (``dist_prev``), so updates are
commutative mins and results are independent of page/GPU order.

WA is the distance vector (4 bytes per vertex, Table 4).  Edge weights
come from the slotted pages (the database must be built from a weighted
graph with ``weight_bytes > 0`` in its format config); unweighted
databases fall back to unit weights, making SSSP coincide with BFS depth.
"""

import numpy as np

from repro.core.kernels.base import BatchWork, Kernel, RoundPlan
from repro.errors import ConfigurationError

INFINITY = np.float32(np.inf)


class _SSSPState:
    def __init__(self, db, start_vertex):
        self.db = db
        self.dist = np.full(db.num_vertices, INFINITY, dtype=np.float32)
        self.dist[start_vertex] = 0.0
        # Snapshot read within a round (BSP semantics).
        self.dist_prev = self.dist.copy()
        self.frontier = np.zeros(db.num_vertices, dtype=bool)
        self.frontier[start_vertex] = True
        self.frontier_pids = np.asarray(
            [db.page_for_vertex(start_vertex)], dtype=np.int64)
        self.round_index = 0


class SSSPKernel(Kernel):
    """Level-synchronous single-source shortest paths."""

    name = "SSSP"
    traversal = True
    wa_bytes_per_vertex = 4       # distance vector (Table 4)
    ra_bytes_per_vertex = 0
    cycles_per_lane_step = 40.0   # compare + atomicMin on floats

    def __init__(self, start_vertex=0, max_rounds=None):
        if start_vertex < 0:
            raise ConfigurationError("start vertex must be nonnegative")
        self.start_vertex = start_vertex
        #: Safety valve for graphs with negative cycles; None = no limit
        #: (weights produced by our generators are positive).
        self.max_rounds = max_rounds

    def init_state(self, db):
        if self.start_vertex >= db.num_vertices:
            raise ConfigurationError(
                "start vertex %d outside graph of %d vertices"
                % (self.start_vertex, db.num_vertices))
        return _SSSPState(db, self.start_vertex)

    def next_round(self, state):
        if len(state.frontier_pids) == 0:
            return None
        if self.max_rounds is not None and state.round_index >= self.max_rounds:
            return None
        return RoundPlan(pids=state.frontier_pids,
                         description="relaxation round %d" % state.round_index)

    def finish_round(self, state, merged_next_pids):
        state.round_index += 1
        improved = state.dist < state.dist_prev
        state.frontier = improved
        state.dist_prev = state.dist.copy()
        if merged_next_pids is None:
            merged_next_pids = np.empty(0, dtype=np.int64)
        # Keep only pages that address an improved vertex; next_pids
        # over-approximate (a candidate may lose the min race to a
        # better one).  Both sides use the addressing page (the first
        # large page for a large vertex), so no page is decoded here.
        if len(merged_next_pids):
            merged_next_pids = np.intersect1d(
                merged_next_pids,
                state.db.vertex_page[np.flatnonzero(improved)])
        state.frontier_pids = merged_next_pids

    def results(self, state):
        return {"distance": state.dist.copy()}

    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        active = state.frontier[batch.rec_vids]
        edge_active, sources, targets = batch.advance(active)
        if batch.adj_weights is not None:
            weights = batch.adj_weights[edge_active]
        else:
            weights = np.ones(len(targets), dtype=np.float32)
        candidates = state.dist_prev[sources] + weights
        # "Better" against the round-start distances (no write has
        # happened yet); the min-combine is order-free.
        better = candidates < state.dist_prev[targets]
        np.minimum.at(state.dist, targets[better], candidates[better])
        next_pids = np.unique(batch.adj_pids[edge_active][better])
        return BatchWork.frontier(batch, ctx, active, edge_active,
                                  next_pids)
