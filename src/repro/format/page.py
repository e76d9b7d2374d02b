"""Slotted pages: the fixed-size on-storage units GTS streams to GPUs.

Two page kinds exist (Section 2, Figure 1):

* :class:`SmallPage` — many low-degree vertices.  Each vertex occupies one
  slot (``VID``, ``OFF``) at the back of the page and one record
  (``ADJLIST_SZ``, ``ADJLIST``) at the front.
* :class:`LargePage` — one chunk of a single high-degree vertex's adjacency
  list.  A vertex whose list does not fit in one page is split over a run of
  consecutive large pages.

Adjacency entries are *physical record IDs*: ``(ADJ_PID, ADJ_OFF)`` pairs
pointing at the page and slot where the neighbour lives.  Kernels translate
them back to logical vertex IDs through the RVT (Appendix A).

Pages carry their data as NumPy arrays for kernel execution, and can be
serialized to / parsed from the exact byte layout (records growing forward,
slots growing backward) so that storage accounting and round-trip tests
operate on the real format.
"""

import enum
import struct
import sys

import numpy as np

from repro.errors import FormatError


class PageKind(enum.Enum):
    """Discriminates small pages from large pages."""

    SMALL = "SP"
    LARGE = "LP"


def _check_fits(name, value, width_bytes):
    if value < 0 or value >= (1 << (8 * width_bytes)):
        raise FormatError(
            "%s value %d does not fit in %d byte(s)" % (name, value, width_bytes)
        )


def _decode_le(data, offsets, width):
    """Vectorized little-endian integer decode.

    Reads ``width`` bytes starting at every position in ``offsets`` from
    the ``uint8`` array ``data`` and assembles them as unsigned
    little-endian integers — exactly what ``int.from_bytes`` computes in
    the per-byte reference parsers, for any of the format's odd field
    widths (the widest field, a 6-byte VID, fits int64 comfortably).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if not len(offsets):
        return np.empty(0, dtype=np.int64)
    columns = offsets[:, None] + np.arange(width, dtype=np.int64)
    weights = np.int64(256) ** np.arange(width, dtype=np.int64)
    return data[columns].astype(np.int64) @ weights


def _decode_f32(data, offsets):
    """Vectorized ``struct.unpack('<f', ...)`` over ``uint8`` data."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if not len(offsets):
        return np.empty(0, dtype=np.float32)
    rows = data[offsets[:, None] + np.arange(4, dtype=np.int64)]
    raw = np.ascontiguousarray(rows).view(np.uint32).ravel()
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        raw = raw.byteswap()
    return raw.view(np.float32)


def _as_page_u8(data, page_size):
    """``data`` (bytes or a uint8 view over a mapping) as a uint8 array."""
    if isinstance(data, np.ndarray):
        u8 = data
    else:
        u8 = np.frombuffer(data, dtype=np.uint8)
    if len(u8) != page_size:
        raise FormatError("serialized page has wrong size")
    return u8


class SmallPage:
    """A slotted page holding several low-degree vertices.

    Parameters
    ----------
    page_id:
        This page's ID in the database's page numbering.
    start_vid:
        Logical ID of the first vertex stored here.  Vertex IDs are
        consecutive within a page (Section 2), so slot ``i`` holds vertex
        ``start_vid + i``.
    adj_indptr:
        ``int64`` array of length ``num_records + 1``; record ``i``'s
        adjacency entries occupy ``adj_pids[indptr[i]:indptr[i+1]]``.
    adj_pids / adj_slots:
        Physical IDs of neighbours (page ID and slot number halves).
    adj_vids:
        Pre-translated logical neighbour IDs.  Semantically this is derived
        data — kernels conceptually compute it through the RVT — but it is
        materialised once at build time so NumPy kernels stay vectorised.
    adj_weights:
        Optional ``float32`` edge weights aligned with the adjacency arrays.
    config:
        The :class:`~repro.format.config.PageFormatConfig` this page obeys.
    """

    kind = PageKind.SMALL

    def __init__(self, page_id, start_vid, adj_indptr, adj_pids, adj_slots,
                 adj_vids, config, adj_weights=None):
        self.page_id = page_id
        self.start_vid = start_vid
        self.adj_indptr = np.asarray(adj_indptr, dtype=np.int64)
        self.adj_pids = np.asarray(adj_pids, dtype=np.int64)
        self.adj_slots = np.asarray(adj_slots, dtype=np.int64)
        self.adj_vids = np.asarray(adj_vids, dtype=np.int64)
        self.adj_weights = (
            None if adj_weights is None else np.asarray(adj_weights, dtype=np.float32)
        )
        self.config = config
        if len(self.adj_pids) != self.adj_indptr[-1]:
            raise FormatError("adjacency arrays inconsistent with indptr")

    # ------------------------------------------------------------------
    @property
    def num_records(self):
        """Number of vertices (slots / records) stored in this page."""
        return len(self.adj_indptr) - 1

    @property
    def num_edges(self):
        """Total adjacency entries stored in this page."""
        return int(self.adj_indptr[-1])

    def vids(self):
        """Logical vertex IDs stored here, in slot order."""
        return np.arange(self.start_vid, self.start_vid + self.num_records,
                         dtype=np.int64)

    def degrees(self):
        """Per-record adjacency list sizes (``ADJLIST_SZ`` values)."""
        return np.diff(self.adj_indptr)

    def used_bytes(self):
        """Bytes of page space consumed by records plus slots."""
        cfg = self.config
        records = (
            self.num_records * cfg.adjlist_size_bytes
            + self.num_edges * cfg.adjacency_entry_bytes
        )
        slots = self.num_records * cfg.slot_entry_bytes
        return records + slots

    # ------------------------------------------------------------------
    # Byte serialization (records forward, slots backward)
    # ------------------------------------------------------------------
    def to_bytes(self):
        """Serialize to the on-storage layout, padded to ``page_size``.

        Raises :class:`FormatError` if the contents overflow the page or any
        field exceeds its configured width.
        """
        cfg = self.config
        if self.used_bytes() > cfg.page_size:
            raise FormatError(
                "page %d contents (%d B) overflow page size %d B"
                % (self.page_id, self.used_bytes(), cfg.page_size)
            )
        buf = bytearray(cfg.page_size)
        degrees = self.degrees()
        # Records grow forward from offset 0.
        cursor = 0
        offsets = []
        for i in range(self.num_records):
            offsets.append(cursor)
            degree = int(degrees[i])
            _check_fits("ADJLIST_SZ", degree, cfg.adjlist_size_bytes)
            buf[cursor:cursor + cfg.adjlist_size_bytes] = degree.to_bytes(
                cfg.adjlist_size_bytes, "little")
            cursor += cfg.adjlist_size_bytes
            lo, hi = int(self.adj_indptr[i]), int(self.adj_indptr[i + 1])
            for j in range(lo, hi):
                pid = int(self.adj_pids[j])
                slot = int(self.adj_slots[j])
                _check_fits("ADJ_PID", pid, cfg.page_id_bytes)
                _check_fits("ADJ_OFF", slot, cfg.slot_bytes)
                buf[cursor:cursor + cfg.page_id_bytes] = pid.to_bytes(
                    cfg.page_id_bytes, "little")
                cursor += cfg.page_id_bytes
                buf[cursor:cursor + cfg.slot_bytes] = slot.to_bytes(
                    cfg.slot_bytes, "little")
                cursor += cfg.slot_bytes
                if cfg.weight_bytes:
                    weight = 0.0 if self.adj_weights is None else float(
                        self.adj_weights[j])
                    buf[cursor:cursor + 4] = struct.pack("<f", weight)
                    cursor += cfg.weight_bytes
        # Slots grow backward from the end of the page.
        back = cfg.page_size
        for i in range(self.num_records):
            vid = self.start_vid + i
            _check_fits("VID", vid, cfg.vid_bytes)
            back -= cfg.slot_entry_bytes
            buf[back:back + cfg.vid_bytes] = int(vid).to_bytes(
                cfg.vid_bytes, "little")
            buf[back + cfg.vid_bytes:back + cfg.slot_entry_bytes] = int(
                offsets[i]).to_bytes(cfg.offset_bytes, "little")
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data, page_id, num_records, config):
        """Parse a serialized small page back into arrays.

        ``num_records`` comes from page metadata (the database knows how
        many slots each page holds); the byte layout itself is headerless,
        matching the original format.
        """
        cfg = config
        if len(data) != cfg.page_size:
            raise FormatError("serialized page has wrong size")
        # Read slots from the back.
        back = cfg.page_size
        vids = []
        offsets = []
        for _ in range(num_records):
            back -= cfg.slot_entry_bytes
            vid = int.from_bytes(data[back:back + cfg.vid_bytes], "little")
            off = int.from_bytes(
                data[back + cfg.vid_bytes:back + cfg.slot_entry_bytes], "little")
            vids.append(vid)
            offsets.append(off)
        if vids and vids != list(range(vids[0], vids[0] + num_records)):
            raise FormatError("slot VIDs are not consecutive")
        start_vid = vids[0] if vids else 0
        indptr = [0]
        pids = []
        slots = []
        weights = [] if cfg.weight_bytes else None
        for off in offsets:
            cursor = off
            degree = int.from_bytes(
                data[cursor:cursor + cfg.adjlist_size_bytes], "little")
            cursor += cfg.adjlist_size_bytes
            for _ in range(degree):
                pid = int.from_bytes(
                    data[cursor:cursor + cfg.page_id_bytes], "little")
                cursor += cfg.page_id_bytes
                slot = int.from_bytes(
                    data[cursor:cursor + cfg.slot_bytes], "little")
                cursor += cfg.slot_bytes
                pids.append(pid)
                slots.append(slot)
                if cfg.weight_bytes:
                    weights.append(struct.unpack("<f", data[cursor:cursor + 4])[0])
                    cursor += cfg.weight_bytes
            indptr.append(len(pids))
        # adj_vids must be re-derived through an RVT by the caller; fill a
        # placeholder so the object is structurally complete.
        placeholder_vids = np.full(len(pids), -1, dtype=np.int64)
        return cls(page_id, start_vid, indptr, pids, slots, placeholder_vids,
                   cfg, adj_weights=weights)

    @classmethod
    def from_buffer(cls, data, page_id, num_records, config):
        """Vectorized :meth:`from_bytes` over a ``uint8`` buffer view.

        Accepts ``bytes`` or a NumPy ``uint8`` view (e.g. a slice of a
        memory-mapped pages file) and decodes without Python-level
        per-edge loops.  Every output array is freshly materialised —
        nothing aliases ``data`` — so callers may hand in short-lived
        views over a mapping that can later be closed.
        """
        cfg = config
        u8 = _as_page_u8(data, cfg.page_size)
        # Slots from the back: slot i lives at page_size-(i+1)*entry.
        slot_pos = (
            cfg.page_size
            - (np.arange(num_records, dtype=np.int64) + 1) * cfg.slot_entry_bytes
        )
        vids = _decode_le(u8, slot_pos, cfg.vid_bytes)
        offsets = _decode_le(u8, slot_pos + cfg.vid_bytes, cfg.offset_bytes)
        if num_records and not np.array_equal(
                vids, vids[0] + np.arange(num_records, dtype=np.int64)):
            raise FormatError("slot VIDs are not consecutive")
        start_vid = int(vids[0]) if num_records else 0
        if num_records and int(offsets.max()) + cfg.adjlist_size_bytes > cfg.page_size:
            raise FormatError("record offset overruns page")
        degrees = _decode_le(u8, offsets, cfg.adjlist_size_bytes)
        indptr = np.zeros(num_records + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        num_edges = int(indptr[-1])
        entry = cfg.adjacency_entry_bytes
        if num_edges:
            rec_of_edge = np.repeat(
                np.arange(num_records, dtype=np.int64), degrees)
            within = np.arange(num_edges, dtype=np.int64) - indptr[rec_of_edge]
            base = offsets[rec_of_edge] + cfg.adjlist_size_bytes + within * entry
            if int(base.max()) + entry > cfg.page_size:
                raise FormatError("adjacency record overruns page")
            pids = _decode_le(u8, base, cfg.page_id_bytes)
            slots = _decode_le(u8, base + cfg.page_id_bytes, cfg.slot_bytes)
            weights = (
                _decode_f32(u8, base + cfg.page_id_bytes + cfg.slot_bytes)
                if cfg.weight_bytes else None
            )
        else:
            pids = np.empty(0, dtype=np.int64)
            slots = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.float32) if cfg.weight_bytes else None
        placeholder_vids = np.full(num_edges, -1, dtype=np.int64)
        return cls(page_id, start_vid, indptr, pids, slots, placeholder_vids,
                   cfg, adj_weights=weights)


class LargePage:
    """One chunk of a single high-degree vertex's adjacency list.

    Attributes mirror :class:`SmallPage` where they overlap; the differences
    are that exactly one vertex is represented, ``ADJLIST_SZ`` counts only
    the entries stored *in this page*, and ``chunk_index`` records this
    page's position in the vertex's run of large pages.
    """

    kind = PageKind.LARGE

    def __init__(self, page_id, vid, chunk_index, adj_pids, adj_slots,
                 adj_vids, config, adj_weights=None, total_degree=None):
        self.page_id = page_id
        self.vid = vid
        self.chunk_index = chunk_index
        self.adj_pids = np.asarray(adj_pids, dtype=np.int64)
        self.adj_slots = np.asarray(adj_slots, dtype=np.int64)
        self.adj_vids = np.asarray(adj_vids, dtype=np.int64)
        self.adj_weights = (
            None if adj_weights is None else np.asarray(adj_weights, dtype=np.float32)
        )
        self.config = config
        #: The vertex's degree across *all* of its large pages; the PageRank
        #: LP kernel divides by this (Appendix B.2 uses ``v.ADJLIST_SZ`` of
        #: the whole vertex).
        self.total_degree = (
            total_degree if total_degree is not None else len(self.adj_pids)
        )

    @property
    def start_vid(self):
        """The single vertex stored here (mirrors ``SmallPage.start_vid``)."""
        return self.vid

    @property
    def num_records(self):
        return 1

    @property
    def num_edges(self):
        return len(self.adj_pids)

    def vids(self):
        """The single vertex as a one-element array (SP-compatible)."""
        return np.asarray([self.vid], dtype=np.int64)

    def degrees(self):
        return np.asarray([self.num_edges], dtype=np.int64)

    def used_bytes(self):
        cfg = self.config
        return (
            cfg.slot_entry_bytes
            + cfg.adjlist_size_bytes
            + self.num_edges * cfg.adjacency_entry_bytes
        )

    def to_bytes(self):
        """Serialize with the same record/slot layout as a small page."""
        cfg = self.config
        if self.used_bytes() > cfg.page_size:
            raise FormatError(
                "large page %d overflows page size" % self.page_id)
        buf = bytearray(cfg.page_size)
        cursor = 0
        _check_fits("ADJLIST_SZ", self.num_edges, cfg.adjlist_size_bytes)
        buf[cursor:cursor + cfg.adjlist_size_bytes] = self.num_edges.to_bytes(
            cfg.adjlist_size_bytes, "little")
        cursor += cfg.adjlist_size_bytes
        for j in range(self.num_edges):
            pid = int(self.adj_pids[j])
            slot = int(self.adj_slots[j])
            _check_fits("ADJ_PID", pid, cfg.page_id_bytes)
            _check_fits("ADJ_OFF", slot, cfg.slot_bytes)
            buf[cursor:cursor + cfg.page_id_bytes] = pid.to_bytes(
                cfg.page_id_bytes, "little")
            cursor += cfg.page_id_bytes
            buf[cursor:cursor + cfg.slot_bytes] = slot.to_bytes(
                cfg.slot_bytes, "little")
            cursor += cfg.slot_bytes
            if cfg.weight_bytes:
                weight = 0.0 if self.adj_weights is None else float(
                    self.adj_weights[j])
                buf[cursor:cursor + 4] = struct.pack("<f", weight)
                cursor += cfg.weight_bytes
        back = cfg.page_size - cfg.slot_entry_bytes
        _check_fits("VID", self.vid, cfg.vid_bytes)
        buf[back:back + cfg.vid_bytes] = int(self.vid).to_bytes(
            cfg.vid_bytes, "little")
        buf[back + cfg.vid_bytes:back + cfg.slot_entry_bytes] = (0).to_bytes(
            cfg.offset_bytes, "little")
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data, page_id, chunk_index, config, total_degree=None):
        """Parse a serialized large page back into arrays."""
        cfg = config
        if len(data) != cfg.page_size:
            raise FormatError("serialized page has wrong size")
        back = cfg.page_size - cfg.slot_entry_bytes
        vid = int.from_bytes(data[back:back + cfg.vid_bytes], "little")
        cursor = 0
        degree = int.from_bytes(
            data[cursor:cursor + cfg.adjlist_size_bytes], "little")
        cursor += cfg.adjlist_size_bytes
        pids = []
        slots = []
        weights = [] if cfg.weight_bytes else None
        for _ in range(degree):
            pids.append(int.from_bytes(
                data[cursor:cursor + cfg.page_id_bytes], "little"))
            cursor += cfg.page_id_bytes
            slots.append(int.from_bytes(
                data[cursor:cursor + cfg.slot_bytes], "little"))
            cursor += cfg.slot_bytes
            if cfg.weight_bytes:
                weights.append(struct.unpack("<f", data[cursor:cursor + 4])[0])
                cursor += cfg.weight_bytes
        placeholder_vids = np.full(len(pids), -1, dtype=np.int64)
        return cls(page_id, vid, chunk_index, pids, slots, placeholder_vids,
                   cfg, adj_weights=weights, total_degree=total_degree)

    @classmethod
    def from_buffer(cls, data, page_id, chunk_index, config, total_degree=None):
        """Vectorized :meth:`from_bytes` over a ``uint8`` buffer view."""
        cfg = config
        u8 = _as_page_u8(data, cfg.page_size)
        back = cfg.page_size - cfg.slot_entry_bytes
        vid = int(_decode_le(u8, np.asarray([back]), cfg.vid_bytes)[0])
        degree = int(_decode_le(u8, np.asarray([0]), cfg.adjlist_size_bytes)[0])
        entry = cfg.adjacency_entry_bytes
        if cfg.adjlist_size_bytes + degree * entry > cfg.page_size:
            raise FormatError("adjacency record overruns page")
        base = (cfg.adjlist_size_bytes
                + np.arange(degree, dtype=np.int64) * entry)
        pids = _decode_le(u8, base, cfg.page_id_bytes)
        slots = _decode_le(u8, base + cfg.page_id_bytes, cfg.slot_bytes)
        if cfg.weight_bytes:
            weights = _decode_f32(u8, base + cfg.page_id_bytes + cfg.slot_bytes)
        else:
            weights = None
        placeholder_vids = np.full(degree, -1, dtype=np.int64)
        return cls(page_id, vid, chunk_index, pids, slots, placeholder_vids,
                   cfg, adj_weights=weights, total_degree=total_degree)
