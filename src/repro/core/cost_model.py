"""Analytic cost models of Section 5.

These closed-form estimates mirror the paper's Equations 1 and 2 and serve
two purposes here: they sanity-check the discrete-event engine (tests
assert the DES lands near the analytic estimate in regimes where the
equations hold), and they support cost-based reasoning in examples.

Equation 1 (PageRank-like, Strategy-P, no storage I/O)::

    2|WA|/c1 + (|RA| + |SP| + |LP|) / (c2 * N)
      + t_call((S + L) / N) + t_kernel(SP_1 + LP_1) + t_sync(N)

Equation 2 (BFS-like)::

    2|WA|/c1 + sum over levels l of (
        (|RA_l| + |SP_l| + |LP_l|) / (c2 * N * d_skew) * (1 - r_hit)
        + t_call((S_l + L_l) / (N * d_skew)) )

``d_skew`` is the per-level workload balance across GPUs (1 = balanced,
1/N = all pages on one GPU) and ``r_hit`` the page-cache hit rate.
"""

import dataclasses

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class CostInputs:
    """Hardware and workload quantities shared by both models."""

    wa_bytes: int
    ra_bytes: int
    sp_bytes: int
    lp_bytes: int
    num_sp: int
    num_lp: int
    num_gpus: int
    chunk_bandwidth: float      # c1
    stream_bandwidth: float     # c2
    kernel_launch_overhead: float
    #: Simulated execution time of one average page kernel (used for the
    #: Eq. 1 pipeline-drain term t_kernel(SP_1 + LP_1)).
    page_kernel_seconds: float = 0.0
    #: Per-GPU synchronisation overhead t_sync (Eq. 1); grows with N.
    sync_seconds_per_gpu: float = 0.0

    def __post_init__(self):
        if self.num_gpus < 1:
            raise ConfigurationError("need at least one GPU")


def pagerank_like_cost(inputs, iterations=1):
    """Equation 1, optionally multiplied out over ``iterations``.

    WA is copied in and out once per iteration (nextPR must return to the
    host for the prevPR swap), matching Algorithm 1's per-round sync.
    """
    n = inputs.num_gpus
    wa_term = 2.0 * inputs.wa_bytes / inputs.chunk_bandwidth
    stream_term = ((inputs.ra_bytes + inputs.sp_bytes + inputs.lp_bytes)
                   / (inputs.stream_bandwidth * n))
    call_term = (inputs.kernel_launch_overhead
                 * (inputs.num_sp + inputs.num_lp) / n)
    drain_term = inputs.page_kernel_seconds
    sync_term = inputs.sync_seconds_per_gpu * n
    per_iteration = wa_term + stream_term + call_term + drain_term + sync_term
    return per_iteration * iterations


@dataclasses.dataclass(frozen=True)
class LevelWork:
    """Per-level workload of a BFS-like run (one entry per level)."""

    ra_bytes: int
    sp_bytes: int
    lp_bytes: int
    num_sp: int
    num_lp: int


def bfs_like_cost(inputs, levels, d_skew=1.0, hit_rate=0.0):
    """Equation 2 over a sequence of :class:`LevelWork` entries."""
    if not 0.0 < d_skew <= 1.0:
        raise ConfigurationError("d_skew must be in (0, 1]")
    if not 0.0 <= hit_rate <= 1.0:
        raise ConfigurationError("hit_rate must be in [0, 1]")
    n = inputs.num_gpus
    total = 2.0 * inputs.wa_bytes / inputs.chunk_bandwidth
    for level in _as_levels(levels):
        transfer = ((level.ra_bytes + level.sp_bytes + level.lp_bytes)
                    / (inputs.stream_bandwidth * n * d_skew))
        total += transfer * (1.0 - hit_rate)
        total += (inputs.kernel_launch_overhead
                  * (level.num_sp + level.num_lp) / (n * d_skew))
    return total


def _as_levels(levels):
    if isinstance(levels, LevelWork):
        return (levels,)
    return tuple(levels)


def inputs_from_run(db, machine, kernel, num_gpus=None,
                    page_kernel_seconds=0.0, sync_seconds_per_gpu=0.0):
    """Build :class:`CostInputs` from a database, machine spec and kernel.

    A convenience for tests and examples: pulls |WA|, |RA|, |SP|, |LP|
    and the hardware rates from the same objects the engine uses.
    """
    page_size = db.config.page_size
    return CostInputs(
        wa_bytes=kernel.wa_bytes(db.num_vertices),
        ra_bytes=kernel.ra_bytes(db.num_vertices),
        sp_bytes=db.num_small_pages * page_size,
        lp_bytes=db.num_large_pages * page_size,
        num_sp=db.num_small_pages,
        num_lp=db.num_large_pages,
        num_gpus=num_gpus or machine.num_gpus,
        chunk_bandwidth=machine.pcie.chunk_bandwidth,
        stream_bandwidth=machine.pcie.stream_bandwidth,
        kernel_launch_overhead=machine.gpus[0].kernel_launch_overhead,
        page_kernel_seconds=page_kernel_seconds,
        sync_seconds_per_gpu=sync_seconds_per_gpu,
    )
