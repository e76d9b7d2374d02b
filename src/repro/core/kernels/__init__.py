"""Graph-algorithm kernels for the GTS engine.

Each kernel is written once, as :meth:`Kernel.process_batch` over a
whole round's :class:`~repro.core.plan.RoundBatch` — Gunrock-style
*advance* (per-edge contributions of the active records), *reduce*
(add/min/or per (page, target) segment) and *filter* (the next
frontier).  Appendix B's small-page and large-page GPU kernels (K_SP,
K_LP) are the same code: a large-page chunk is one record whose
``rec_divisor`` is its vertex's total degree.  Attribute vectors stay
split into *updatable* (WA — resident in device memory) and *read-only*
(RA — streamed alongside topology pages).

The paper's two algorithm families are both represented:

* **BFS-like** (traversal: stream only ``nextPIDSet`` pages per level) —
  :class:`BFSKernel`, :class:`SSSPKernel`, :class:`BCKernel`,
  :class:`KCoreKernel`, :class:`NeighborhoodKernel`,
  :class:`EgonetKernel`.
* **PageRank-like** (linear scans of the whole topology per iteration) —
  :class:`PageRankKernel`, :class:`RWRKernel`, :class:`WCCKernel`,
  :class:`DegreeKernel`, :class:`CrossEdgesKernel`,
  :class:`RadiusKernel`, :class:`InducedSubgraphKernel`.
"""

from repro.core.kernels.base import (
    ALL_PAGES,
    BatchWork,
    Kernel,
    KernelContext,
    RoundPlan,
)
from repro.core.kernels.bfs import BFSKernel
from repro.core.kernels.pagerank import PageRankKernel
from repro.core.kernels.sssp import SSSPKernel
from repro.core.kernels.wcc import WCCKernel
from repro.core.kernels.bc import BCKernel
from repro.core.kernels.rwr import RWRKernel
from repro.core.kernels.degree import DegreeKernel
from repro.core.kernels.kcore import KCoreKernel
from repro.core.kernels.neighborhood import NeighborhoodKernel
from repro.core.kernels.cross_edges import CrossEdgesKernel
from repro.core.kernels.radius import RadiusKernel
from repro.core.kernels.induced import EgonetKernel, InducedSubgraphKernel

__all__ = [
    "Kernel",
    "KernelContext",
    "BatchWork",
    "RoundPlan",
    "ALL_PAGES",
    "BFSKernel",
    "PageRankKernel",
    "SSSPKernel",
    "WCCKernel",
    "BCKernel",
    "RWRKernel",
    "DegreeKernel",
    "KCoreKernel",
    "NeighborhoodKernel",
    "CrossEdgesKernel",
    "RadiusKernel",
    "InducedSubgraphKernel",
    "EgonetKernel",
]
