"""Kernel protocol: what the GTS engine requires of a graph algorithm.

The engine (Algorithm 1) is algorithm-agnostic; a kernel supplies:

* **attribute specs** — how many bytes per vertex its WA and RA vectors
  occupy at the paper's field widths (Table 4 accounting), and whether it
  is *traversal* (BFS-like) or *full-scan* (PageRank-like);
* **round control** — :meth:`Kernel.next_round` returns the next
  :class:`RoundPlan` (a set of page IDs, or :data:`ALL_PAGES`), or ``None``
  when the algorithm converged; this is how level-by-level BFS, fixed
  iteration counts (PageRank), fixpoints (WCC) and multi-phase algorithms
  (BC's forward + backward sweeps) all fit one engine loop;
* **one compute method** — :meth:`Kernel.process_batch` processes a whole
  round's :class:`~repro.core.plan.RoundBatch` (its pages as flat
  page-major record and edge arrays) and returns a :class:`BatchWork`
  with per-page lane-steps, edges and active records for the timing
  model, plus the pages to visit next level.  It is written with
  Gunrock-style operators: *advance* (gather per-edge contributions from
  the active records), *reduce* (add/min/or per (page, target) segment)
  and *filter* (the next frontier).  Appendix B's two GPU kernels
  (K_SP and K_LP) survive only as record data: a large-page chunk is one
  record whose ``rec_divisor`` is the vertex's total degree.

Kernels follow BSP snapshot semantics: within a round they read only
values committed by previous rounds and apply commutative updates (min
for BFS/SSSP/WCC levels and labels, add for PageRank ranks, applied in
page-major order), so neither page order nor GPU placement changes the
result — the property behind the engine's strategy-equivalence tests.
"""

import dataclasses
from typing import Optional

import numpy as np

from repro.core.micro import MicroTechnique, segment_lane_steps

#: Sentinel round plan meaning "stream every page" (Algorithm 1's
#: ``ALL_PAGES`` constant for PageRank-like algorithms).
ALL_PAGES = "ALL_PAGES"


@dataclasses.dataclass
class RoundPlan:
    """What the engine should stream in the next round."""

    #: Either :data:`ALL_PAGES` or an iterable of page IDs.
    pids: object
    description: str = ""


@dataclasses.dataclass
class BatchWork:
    """Work accounting for a whole round processed as one batch.

    The per-page arrays are aligned with the :class:`RoundBatch`'s page
    order; the engine books each page's copy and kernel on the simulated
    machine from them and sums them into :class:`RoundStats`.
    """

    #: Per-page lane-steps (float64, the simulated kernel's work).
    lane_steps: np.ndarray
    #: Per-page edges traversed this round (int64).
    edges_traversed: np.ndarray
    #: Per-page active record counts (int64).
    active_vertices: np.ndarray
    #: Sorted unique page IDs discovered for the next round, or None for
    #: full-scan kernels.
    next_pids: Optional[np.ndarray] = None

    @classmethod
    def full_scan(cls, batch, ctx):
        """Work of a round in which every record of every page is
        active (the PageRank-like kernels)."""
        return cls(lane_steps=ctx.segment_lane_steps(batch),
                   edges_traversed=batch.edges_per_page(),
                   active_vertices=batch.records_per_page())

    @classmethod
    def frontier(cls, batch, ctx, active, edge_active, next_pids=None):
        """Work of a round that expands only the ``active`` records
        (per record; ``edge_active`` is the same mask per edge)."""
        return cls(lane_steps=ctx.segment_lane_steps(batch, active),
                   edges_traversed=batch.edge_segment_sum(edge_active),
                   active_vertices=batch.segment_sum(active),
                   next_pids=next_pids)


class KernelContext:
    """Engine-provided context handed to every kernel invocation."""

    def __init__(self, micro_technique=MicroTechnique.EDGE_CENTRIC):
        self.micro_technique = MicroTechnique.parse(micro_technique)

    def segment_lane_steps(self, batch, active_mask=None):
        """Per-page lane-steps for a whole :class:`RoundBatch`.

        Full-scan rounds (no active mask) memoise the result on the
        batch per technique: lane-steps depend only on the batch's
        immutable degrees and record layout, so PageRank/WCC-style
        kernels recompute them zero times after the first round.
        """
        if active_mask is None:
            memo = getattr(batch, "_lane_steps_memo", None)
            if memo is None:
                memo = {}
                batch._lane_steps_memo = memo
            steps = memo.get(self.micro_technique)
            if steps is None:
                steps = segment_lane_steps(
                    self.micro_technique, batch.degrees, batch.rec_indptr)
                memo[self.micro_technique] = steps
            return steps
        return segment_lane_steps(
            self.micro_technique, batch.degrees, batch.rec_indptr,
            active_mask)


class Kernel:
    """Base class for GTS graph-algorithm kernels."""

    #: Human-readable algorithm name ("BFS", "PageRank", ...).
    name = "abstract"
    #: True for BFS-like traversal kernels (use nextPIDSet + caching).
    traversal = False
    #: Bytes per vertex of WA at the paper's field widths (Table 4).
    wa_bytes_per_vertex = 0
    #: Bytes per vertex of RA streamed alongside pages (0 if none).
    ra_bytes_per_vertex = 0
    #: Cost of one lane-step in GPU cycles — the algorithm-intensity knob
    #: that separates Table 1's BFS and PageRank rows.
    cycles_per_lane_step = 1.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def init_state(self, db):
        """Allocate WA/RA vectors and any bookkeeping; returns the state."""
        raise NotImplementedError

    def next_round(self, state):
        """Return the next :class:`RoundPlan`, or None when finished."""
        raise NotImplementedError

    def finish_round(self, state, merged_next_pids):
        """Bulk-synchronisation hook: merge per-GPU nextPIDSets, swap
        double-buffered vectors, test convergence.  ``merged_next_pids``
        is the round's ``BatchWork.next_pids`` (a sorted ``int64``
        array, possibly empty) or None for full-scan kernels."""

    def results(self, state):
        """Extract the output vectors as a ``{name: ndarray}`` dict."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def process_batch(self, batch, state, ctx):
        """Process a whole round's :class:`~repro.core.plan.RoundBatch`
        in one shot, updating ``state`` in place; returns
        :class:`BatchWork`.

        The engine calls it exactly once per round.  Every read of a
        value the round also writes must see the round-start value (the
        BSP contract), and every floating-point reduction must apply
        its updates in the batch's page-major order, so results never
        depend on how pages were scheduled.
        """
        raise NotImplementedError(
            "%s does not implement process_batch" % type(self).__name__)

    @classmethod
    def supports_batch(cls):
        """Whether this kernel overrides :meth:`process_batch`."""
        return cls.process_batch is not Kernel.process_batch

    # ------------------------------------------------------------------
    # Memory accounting (drives WABuf sizing and O.O.M. behaviour)
    # ------------------------------------------------------------------
    def wa_bytes(self, num_vertices):
        """Total WA footprint at paper field widths (Table 4 numbers)."""
        return num_vertices * self.wa_bytes_per_vertex

    def ra_bytes(self, num_vertices):
        """Total RA footprint (streamed, not resident)."""
        return num_vertices * self.ra_bytes_per_vertex

    def __repr__(self):
        return "%s()" % type(self).__name__

