"""GraphDatabase: a built slotted-page store plus its metadata.

This is what the GTS engine streams from.  It owns:

* the pages themselves (``SmallPage`` / ``LargePage`` objects),
* a page directory (sizes and kinds, for storage accounting),
* the RVT (record-ID → vertex-ID mapping, kept in main memory),
* per-vertex metadata the kernels need (total out-degree; the page a
  vertex lives in, which seeds ``nextPIDSet`` for BFS-like algorithms).

The ``num_small_pages`` / ``num_large_pages`` statistics are the #SP / #LP
columns of the paper's Table 3.
"""

import dataclasses

import numpy as np

from repro.errors import FormatError
from repro.format.page import PageKind


@dataclasses.dataclass(frozen=True)
class PageDirectoryEntry:
    """Directory row describing one page without holding its data."""

    page_id: int
    kind: str              # "SP" or "LP"
    start_vid: int
    num_records: int
    num_edges: int
    used_bytes: int


class GraphDatabase:
    """A slotted-page graph database (see :mod:`repro.format.builder`)."""

    def __init__(self, pages, directory, rvt, config, num_vertices,
                 num_edges, out_degrees, vertex_page, name=None):
        self.pages = pages
        self.directory = directory
        self.rvt = rvt
        self.config = config
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.out_degrees = np.asarray(out_degrees, dtype=np.int64)
        #: For every vertex, the page under which other vertices address it
        #: (its small page, or the first of its large pages).
        self.vertex_page = np.asarray(vertex_page, dtype=np.int64)
        self.name = name or "graph"
        #: Monotone counter bumped whenever the topology mutates (the
        #: dynamic layer increments it per applied batch and per
        #: compaction); engines compare it against the value seen at
        #: construction to invalidate page-derived indexes.
        self.topology_version = 0
        self._small_page_ids = np.array(
            [e.page_id for e in directory if e.kind == "SP"], dtype=np.int64)
        self._large_page_ids = np.array(
            [e.page_id for e in directory if e.kind == "LP"], dtype=np.int64)
        #: Optional :class:`~repro.obs.host.HostProfiler` attached by
        #: the engine for the duration of a profiled run; ``None``
        #: keeps the page hot path free of profiling work.
        self.host_profiler = None
        #: Optional :class:`~repro.core.cache.SharedPageCache` attached
        #: by the service (or ``GTSEngine(shared_cache=...)``); consulted
        #: only by the file-backed loader's miss path, so eager
        #: databases carry the attribute but never touch it.
        self.shared_cache = None

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    @property
    def num_pages(self):
        return len(self.pages)

    @property
    def num_small_pages(self):
        """#SP — the paper's Table 3 statistic."""
        return len(self._small_page_ids)

    @property
    def num_large_pages(self):
        """#LP — the paper's Table 3 statistic."""
        return len(self._large_page_ids)

    def small_page_ids(self):
        return self._small_page_ids

    def large_page_ids(self):
        return self._large_page_ids

    def page(self, page_id):
        if page_id < 0 or page_id >= len(self.pages):
            raise FormatError("unknown page ID %d" % page_id)
        return self.pages[page_id]

    def is_small(self, page_id):
        return self.pages[page_id].kind is PageKind.SMALL

    def page_for_vertex(self, vid):
        """Page ID containing ``vid`` — seeds BFS's initial ``nextPIDSet``."""
        return int(self.vertex_page[vid])

    # ------------------------------------------------------------------
    # Cross-query shared cache (service layer)
    # ------------------------------------------------------------------
    def attach_shared_cache(self, cache):
        """Attach a :class:`~repro.core.cache.SharedPageCache`.

        Idempotent; the cache outlives any single run.  Eager databases
        accept the attachment for API symmetry but never consult it
        (their pages are already decoded and resident).
        """
        self.shared_cache = cache

    def detach_shared_cache(self):
        """Detach the shared cache (runs fall back to their own I/O)."""
        self.shared_cache = None

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def topology_bytes(self):
        """Total on-storage size: every page occupies exactly ``page_size``."""
        return self.num_pages * self.config.page_size

    def page_bytes(self, page_id=None):
        """On-storage size of one page (all pages are fixed-size)."""
        return self.config.page_size

    def used_bytes(self):
        """Sum of actually-used bytes across pages (excludes padding)."""
        return sum(entry.used_bytes for entry in self.directory)

    def fill_factor(self):
        """Used bytes over allocated bytes; a builder-quality metric."""
        total = self.topology_bytes()
        return self.used_bytes() / total if total else 0.0

    # ------------------------------------------------------------------
    # Attribute-vector sizing (Table 4)
    # ------------------------------------------------------------------
    def attribute_vector_bytes(self, bytes_per_vertex):
        """Size of one attribute vector at the paper's field width."""
        return self.num_vertices * bytes_per_vertex

    def ra_subvector_bytes(self, page_id, bytes_per_vertex):
        """Size of the RA subvector streamed alongside one page.

        For a small page, this covers the page's consecutive VID range.
        For a large page it is a single vertex's value (Section 3.4: "RA_j
        for LP is a subvector of a single attribute value").
        """
        entry = self.directory[page_id]
        return entry.num_records * bytes_per_vertex

    # ------------------------------------------------------------------
    # Consistency checking (used by tests and the builder's callers)
    # ------------------------------------------------------------------
    def validate(self):
        """Check structural invariants; raises :class:`FormatError` on bugs.

        Invariants: directory matches pages; VID coverage is exact and
        consecutive; every adjacency physical ID translates through the RVT
        to the pre-materialised logical VID; edge counts add up.
        """
        if len(self.directory) != len(self.pages):
            raise FormatError("directory and page list lengths differ")
        covered = 0
        total_edges = 0
        for entry, page in zip(self.directory, self.pages):
            if entry.page_id != page.page_id:
                raise FormatError("directory out of order")
            if entry.kind == "SP":
                covered += entry.num_records
            elif entry.kind == "LP" and page.chunk_index == 0:
                covered += 1
            total_edges += page.num_edges
            translated = self.rvt.translate(page.adj_pids, page.adj_slots)
            if not np.array_equal(translated, page.adj_vids):
                raise FormatError(
                    "RVT translation mismatch in page %d" % page.page_id)
        if covered != self.num_vertices:
            raise FormatError(
                "pages cover %d vertices, expected %d"
                % (covered, self.num_vertices))
        if total_edges != self.num_edges:
            raise FormatError(
                "pages hold %d edges, expected %d"
                % (total_edges, self.num_edges))
        return True

    def statistics(self):
        """Summary dict used by the Table 3 bench and examples."""
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "p": self.config.page_id_bytes,
            "q": self.config.slot_bytes,
            "page_size": self.config.page_size,
            "num_sp": self.num_small_pages,
            "num_lp": self.num_large_pages,
            "topology_bytes": self.topology_bytes(),
            "fill_factor": self.fill_factor(),
        }

    def __repr__(self):
        return "GraphDatabase(%s: V=%d, E=%d, SP=%d, LP=%d)" % (
            self.name, self.num_vertices, self.num_edges,
            self.num_small_pages, self.num_large_pages)
