"""The CuART struct-of-arrays device layout.

Section 3.2.1: "we map the index structure into several buffers instead
of just one ... one buffer per node type.  [It] allows the implementation
to determine the transaction read size before initiating the actual
memory request ... combined with a guaranteed alignment of at least 16
bytes".

Buffers (NumPy arrays standing in for device allocations):

===============  =========================================================
``N4``/``N16``   ``keys (n, cap) u8``, ``children (n, cap) u64`` packed
                 links, ``counts (n,) u8``
``N48``          ``child_index (n, 256) u8`` (0xFF = empty),
                 ``children (n, 48) u64``
``N256``         ``children (n, 256) u64`` (0 = empty)
all inner nodes  ``prefix (n, 15) u8`` stored window, ``prefix_len (n,)``
                 full skipped length (optimistic path compression)
``leaf8/16/32``  ``keys (n, cap) u8``, ``key_lens (n,) u8``,
                 ``values (n,) u64`` — *lexicographically ordered*
===============  =========================================================

A layout is built from a :class:`repro.art.bulk.BulkPlan` — the ART of a
sorted key set as arrays — either handed over directly (the end-to-end
engine never builds host nodes) or derived from a host tree.  Leaves are
written in plan (key) order, which is what makes range queries "trivial
because it is only required to transmit both the start and the end index
within the leaf arrays".  Once mapped, the buffers are a complete copy
of the index: :meth:`CuartLayout.get`, :meth:`CuartLayout.live_rows` and
:meth:`CuartLayout.verify` read nothing else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.art.bulk import BulkPlan, concat_rows, encode_items, plan_from_matrix
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    CUART_MAX_PREFIX,
    CUART_NODE_BYTES,
    LEAF_CAPACITY,
    LEAF_TYPE_CODES,
    LINK_DYNLEAF,
    LINK_INDEX_BITS,
    LINK_INDEX_MASK,
    LINK_TYPE_NAMES,
    LINK_EMPTY,
    LINK_HOST,
    LINK_LEAF8,
    LINK_LEAF16,
    LINK_LEAF32,
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    MAX_SHORT_KEY,
    N48_EMPTY_SLOT,
    NIL_VALUE,
    NODE_TYPE_CODES,
)
from repro.errors import KeyTooLongError, StaleLayoutError
from repro.util.packing import pack_link, pack_links


class LongKeyStrategy(enum.Enum):
    """How the device layout copes with keys longer than the largest
    fixed leaf (section 3.2.3)."""

    #: raise :class:`KeyTooLongError` at mapping time — the caller must
    #: route long keys elsewhere (strategy (a), handled by
    #: :mod:`repro.host.hybrid`: long keys never reach the device).
    ERROR = "error"
    #: strategy (b): keep long leaves in host memory; the device stores a
    #: ``LINK_HOST`` link and lookups return a "resolve on CPU" signal.
    HOST_LINK = "host_link"
    #: strategy (c), what GRT does: a dynamically-sized device leaf heap,
    #: compared with a variable-length loop on-device.
    DYNAMIC = "dynamic"


@dataclass
class _NodeBuffers:
    """Per-type SoA arrays for one inner-node type."""

    keys: np.ndarray | None  # (n, cap) u8, only N4/N16
    children: np.ndarray  # (n, cap|48|256) u64
    child_index: np.ndarray | None  # (n, 256) u8, only N48
    counts: np.ndarray  # (n,) int16
    prefix: np.ndarray  # (n, CUART_MAX_PREFIX) u8
    prefix_len: np.ndarray  # (n,) int32


@dataclass
class _LeafBuffers:
    """Per-size SoA arrays for one fixed leaf type."""

    keys: np.ndarray  # (n, cap) u8
    key_lens: np.ndarray  # (n,) int32
    values: np.ndarray  # (n,) u64


@dataclass
class _DynLeafHeap:
    """Device heap for strategy (c): records ``[len u16][value u64][key]``
    packed back to back, addressed by byte offset."""

    heap: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    offsets: list[int] = field(default_factory=list)

    HEADER = 10  # 2-byte length + 8-byte value


class CuartLayout:
    """The mapped, device-resident CuART index.

    Build once from a :class:`~repro.art.bulk.BulkPlan` or a populated
    host tree (pipeline stage 2 of section 4.1); afterwards the kernels
    in :mod:`repro.cuart.lookup`, :mod:`repro.cuart.update`,
    :mod:`repro.cuart.delete` and :mod:`repro.cuart.insert` operate on
    the buffers only.  A tree-built layout goes stale when its tree
    changes structurally, a plan-built one when its owner calls
    :meth:`invalidate`; :meth:`check_fresh` guards both.
    """

    def __init__(
        self,
        source: AdaptiveRadixTree | BulkPlan,
        *,
        long_keys: LongKeyStrategy = LongKeyStrategy.ERROR,
        single_leaf_size: int | None = None,
        spare: float = 0.0,
        prefix_window: int = CUART_MAX_PREFIX,
    ) -> None:
        """``single_leaf_size`` (8, 16 or 32) forces every leaf into one
        fixed buffer — the paper's *initial* design ("we replaced the
        dynamically sized leaf buffer by a fixed size leaf, which can
        store up to 32 byte keys") before it switched to the 8/16/32
        split; kept as an ablation knob (see benchmarks/ablations).

        ``spare`` over-allocates every buffer by that fraction (plus a
        small fixed floor) so the device-side insert engine
        (:mod:`repro.cuart.insert`, the paper's §5.1 "more sophisticated
        buffer management") has node and leaf slots to allocate from
        without a host re-map.

        ``prefix_window`` sets the per-node stored-prefix bytes (the
        paper frees GRT's type byte to reach 15).  Smaller windows
        shrink node records but push more verification onto optimistic
        leaf checks; the prefix-window ablation bench sweeps this.
        """
        if single_leaf_size is not None and single_leaf_size not in (8, 16, 32):
            raise KeyTooLongError(
                f"single_leaf_size must be 8, 16 or 32, got {single_leaf_size}"
            )
        if spare < 0:
            raise StaleLayoutError(f"spare must be non-negative, got {spare}")
        if not 1 <= prefix_window <= 255:
            raise KeyTooLongError(
                f"prefix_window must be 1..255, got {prefix_window}"
            )
        self.prefix_window = prefix_window
        #: per-record transaction sizes for this window (16-byte padded);
        #: equals :data:`repro.constants.CUART_NODE_BYTES` at the default
        self.node_record_bytes = _record_bytes(prefix_window)
        self.single_leaf_size = single_leaf_size
        self.long_keys = long_keys
        self.spare = spare
        if isinstance(source, BulkPlan):
            plan = source
            self._source = None
            self._source_version = 0
        else:
            plan = _tree_plan(source)
            self._source = source
            self._source_version = source.version
        #: set by :meth:`invalidate`: the owner's content moved past
        #: these buffers (a populate awaiting its re-map).
        self._invalidated = False
        #: device-side mutations (updates/deletes) since mapping.
        self.device_mutations = 0
        #: device-side structural inserts since mapping.
        self.device_inserts = 0
        #: root tables that must be patched when a node is relocated by
        #: growth (registered by RootTable).
        self.attached_tables: list = []

        long_rows = _long_rows(plan, single_leaf_size)
        if long_rows.size and long_keys is LongKeyStrategy.ERROR:
            klen = int(plan.lens[long_rows[0]])
            raise KeyTooLongError(
                f"key of {klen} bytes exceeds the {MAX_SHORT_KEY}-byte "
                "fixed-leaf maximum and long_keys=ERROR "
                "(see LongKeyStrategy / repro.host.hybrid)",
                key_len=klen, max_len=MAX_SHORT_KEY,
                strategy=long_keys.name,
            )
        counts = _plan_counts(plan, single_leaf_size, long_rows, long_keys)
        if spare > 0:
            floor = 8
            for c in NODE_TYPE_CODES + LEAF_TYPE_CODES:
                counts[c] = counts[c] + max(int(counts[c] * spare), floor)
        self._alloc(counts)
        #: host-memory leaves for :attr:`LongKeyStrategy.HOST_LINK`.
        self.host_leaves: list[tuple[bytes, int]] = []
        #: free leaf slots per leaf type, filled by device-side deletes
        #: ("the leaf index is pushed into a list of free leaves which can
        #: be used for future inserts", section 3.3).
        self.free_leaves: dict[int, list[int]] = {c: [] for c in LEAF_TYPE_CODES}
        #: node rows recycled by growth (old, smaller node records).
        self.free_nodes: dict[int, list[int]] = {c: [] for c in NODE_TYPE_CODES}
        self._next_node = {c: 0 for c in NODE_TYPE_CODES}
        self._next_leaf = {c: 0 for c in LEAF_TYPE_CODES}
        self._dyn_cursor = 0
        #: deepest traversal level (node visits, leaf included); used by
        #: the range-query transaction accounting.
        self.max_levels = 0
        self.root_link = self._build_from_plan(plan, long_rows)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _alloc(self, counts: dict) -> None:
        P = self.prefix_window
        self.nodes: dict[int, _NodeBuffers] = {}
        for code, cap in ((LINK_N4, 4), (LINK_N16, 16)):
            n = counts[code]
            self.nodes[code] = _NodeBuffers(
                keys=np.zeros((n, cap), dtype=np.uint8),
                children=np.zeros((n, cap), dtype=np.uint64),
                child_index=None,
                counts=np.zeros(n, dtype=np.int16),
                prefix=np.zeros((n, P), dtype=np.uint8),
                prefix_len=np.zeros(n, dtype=np.int32),
            )
        n = counts[LINK_N48]
        self.nodes[LINK_N48] = _NodeBuffers(
            keys=None,
            children=np.zeros((n, 48), dtype=np.uint64),
            child_index=np.full((n, 256), N48_EMPTY_SLOT, dtype=np.uint8),
            counts=np.zeros(n, dtype=np.int16),
            prefix=np.zeros((n, P), dtype=np.uint8),
            prefix_len=np.zeros(n, dtype=np.int32),
        )
        n = counts[LINK_N256]
        self.nodes[LINK_N256] = _NodeBuffers(
            keys=None,
            children=np.zeros((n, 256), dtype=np.uint64),
            child_index=None,
            counts=np.zeros(n, dtype=np.int16),
            prefix=np.zeros((n, P), dtype=np.uint8),
            prefix_len=np.zeros(n, dtype=np.int32),
        )
        self.leaves: dict[int, _LeafBuffers] = {}
        for code in LEAF_TYPE_CODES:
            n = counts[code]
            self.leaves[code] = _LeafBuffers(
                keys=np.zeros((n, LEAF_CAPACITY[code]), dtype=np.uint8),
                key_lens=np.zeros(n, dtype=np.int32),
                values=np.zeros(n, dtype=np.uint64),
            )
        self.dyn = _DynLeafHeap(
            heap=np.zeros(counts.get("dyn_bytes", 0), dtype=np.uint8)
        )

    def _build_from_plan(self, plan: BulkPlan, long_rows: np.ndarray) -> int:
        """Batched build from a :class:`repro.art.bulk.BulkPlan`; returns
        the packed root link.

        Every buffer is filled with whole-array writes: leaves straight
        from the plan's sorted key matrix (per-type cumulative position =
        the in-order index, so the leaf buffers come out lexicographically
        sorted), inner nodes per level and type with fancy-index scatters.
        Node indices are assigned in pre-order — sorting the groups by
        ``(lo, depth)`` — the order a depth-first mapping of the same
        tree visits them.  Keys longer than the fixed leaves (the plan's
        ``long_rows``) go to host memory or the dynamic heap, in key
        order.
        """
        mat = plan.mat
        lens = plan.lens
        n = plan.n
        if n == 0:
            return pack_link(LINK_EMPTY, 0)
        W = mat.shape[1]
        # -- leaves ----------------------------------------------------
        lcode = _leaf_codes(lens, self.single_leaf_size)
        fixed = np.ones(n, dtype=bool)
        fixed[long_rows] = False
        leaf_idx = np.empty(n, dtype=np.int64)
        for code in LEAF_TYPE_CODES:
            sel = fixed & (lcode == code)
            cnt = int(sel.sum())
            leaf_idx[sel] = np.arange(cnt, dtype=np.int64)
            self._next_leaf[code] = cnt
            if cnt:
                buf = self.leaves[code]
                w = min(W, LEAF_CAPACITY[code])
                buf.keys[:cnt, :w] = mat[sel, :w]
                buf.key_lens[:cnt] = lens[sel]
                buf.values[:cnt] = plan.values[sel]
        leaf_links = pack_links(lcode, leaf_idx)
        for row in long_rows.tolist():
            leaf_links[row] = self._map_long_leaf(
                plan.key(row), int(plan.values[row])
            )
        levels = plan.levels
        if not levels:  # single-key tree: the root is that leaf
            self.max_levels = 1
            return int(leaf_links[0])
        # -- pre-order node index assignment ---------------------------
        all_lo = np.concatenate([lv.lo for lv in levels])
        all_dep = np.concatenate([lv.depth for lv in levels])
        all_tc = np.concatenate([lv.type_code for lv in levels])
        order = np.lexsort((all_dep, all_lo))
        pre_idx = np.empty(all_tc.size, dtype=np.int64)
        pre_tc = all_tc[order]
        for code in NODE_TYPE_CODES:
            sel = pre_tc == code
            cnt = int(sel.sum())
            pre_idx[sel] = np.arange(cnt, dtype=np.int64)
            self._next_node[code] = cnt
        gidx = np.empty(all_tc.size, dtype=np.int64)
        gidx[order] = pre_idx
        bounds = np.cumsum([lv.lo.size for lv in levels])[:-1]
        level_idx = np.split(gidx, bounds)
        level_links = [
            pack_links(lv.type_code, li)
            for lv, li in zip(levels, level_idx)
        ]
        # -- per-level, per-type batched fills --------------------------
        P = self.prefix_window
        colsP = np.arange(P, dtype=np.int64)
        for li, lv in enumerate(levels):
            idx = level_idx[li]
            clink = np.empty(lv.child_byte.size, dtype=np.uint64)
            lm = lv.child_is_leaf
            clink[lm] = leaf_links[lv.child_ref[lm]]
            im = ~lm
            if im.any():
                clink[im] = level_links[li + 1][lv.child_ref[im]]
            cols = lv.depth[:, None] + colsP[None, :]
            valid = cols < lv.split[:, None]
            pref = mat[lv.lo[:, None], np.minimum(cols, W - 1)]
            pref[~valid] = 0
            plen = lv.split - lv.depth
            pidx = idx[lv.child_parent]
            for code in NODE_TYPE_CODES:
                gsel = lv.type_code == code
                if not gsel.any():
                    continue
                buf = self.nodes[code]
                rows = idx[gsel]
                buf.prefix[rows] = pref[gsel]
                buf.prefix_len[rows] = plen[gsel]
                buf.counts[rows] = lv.fanout[gsel]
                csel = gsel[lv.child_parent]
                prow = pidx[csel]
                cbyte = lv.child_byte[csel]
                cslot = lv.child_slot[csel]
                if code in (LINK_N4, LINK_N16):
                    buf.keys[prow, cslot] = cbyte
                    buf.children[prow, cslot] = clink[csel]
                elif code == LINK_N48:
                    buf.child_index[prow, cbyte] = cslot
                    buf.children[prow, cslot] = clink[csel]
                else:  # N256
                    buf.children[prow, cbyte] = clink[csel]
        self.max_levels = len(levels) + 1
        return int(level_links[0][0])

    def _map_long_leaf(self, key: bytes, value: int) -> int:
        """A key beyond the fixed leaves: host memory (strategy (b)) or
        a ``[len u16][value u64][key]`` record on the dynamic heap (c)."""
        if self.long_keys is LongKeyStrategy.HOST_LINK:
            self.host_leaves.append((key, value))
            return pack_link(LINK_HOST, len(self.host_leaves) - 1)
        off = self._dyn_cursor
        rec = len(key).to_bytes(2, "little") + value.to_bytes(8, "little") + key
        self.dyn.heap[off : off + len(rec)] = np.frombuffer(rec, np.uint8)
        self.dyn.offsets.append(off)
        self._dyn_cursor += len(rec)
        return pack_link(LINK_DYNLEAF, off)

    # ------------------------------------------------------------------
    # bookkeeping / accounting
    # ------------------------------------------------------------------
    def check_fresh(self) -> None:
        """Raise :class:`StaleLayoutError` if the source tree changed
        structurally after this layout was mapped, or its owner called
        :meth:`invalidate`."""
        if self._invalidated:
            raise StaleLayoutError(
                "index content changed since mapping; re-map the layout "
                "(call map_to_device)"
            )
        if self._source is not None and (
            self._source.version != self._source_version
        ):
            raise StaleLayoutError(
                "host tree changed since mapping; re-map the layout "
                "(structural inserts cannot be reflected in-place)",
                mapped_version=self._source_version,
                tree_version=self._source.version,
            )

    def invalidate(self) -> None:
        """Declare these buffers behind their owner's content: every
        kernel then raises :class:`StaleLayoutError` until a re-map."""
        self._invalidated = True

    # ------------------------------------------------------------------
    # device-side allocation (insert engine, §5.1 buffer management)
    # ------------------------------------------------------------------
    def alloc_leaf(self, code: int) -> int | None:
        """Claim a leaf slot: recycled free-list entries first ("a list
        of free leaves which can be used for future inserts", §3.3),
        then the spare-capacity cursor.  ``None`` when exhausted."""
        if self.free_leaves[code]:
            return self.free_leaves[code].pop()
        nxt = self._next_leaf[code]
        if nxt < len(self.leaves[code].values):
            self._next_leaf[code] = nxt + 1
            return nxt
        return None

    def alloc_leaves(self, code: int, count: int) -> np.ndarray:
        """Claim up to ``count`` leaf slots in one call, in exactly the
        order ``count`` repeated :meth:`alloc_leaf` calls would return
        them (free-list entries popped from the tail first, then the
        spare cursor).  Returns the claimed indices; shorter than
        ``count`` when capacity runs out."""
        out: list[int] = []
        fl = self.free_leaves[code]
        take = min(len(fl), count)
        if take:
            out.extend(fl[-1 : -take - 1 : -1])
            del fl[-take:]
        need = count - take
        if need:
            nxt = self._next_leaf[code]
            avail = min(need, len(self.leaves[code].values) - nxt)
            if avail > 0:
                out.extend(range(nxt, nxt + avail))
                self._next_leaf[code] = nxt + avail
        return np.asarray(out, dtype=np.int64)

    def alloc_node(self, code: int) -> int | None:
        """Claim an inner-node slot (growth allocations)."""
        if self.free_nodes[code]:
            return self.free_nodes[code].pop()
        nxt = self._next_node[code]
        if nxt < len(self.nodes[code].counts):
            self._next_node[code] = nxt + 1
            return nxt
        return None

    def spare_leaf_slots(self, code: int) -> int:
        return (
            len(self.leaves[code].values) - self._next_leaf[code]
            + len(self.free_leaves[code])
        )

    def spare_node_slots(self, code: int) -> int:
        return (
            len(self.nodes[code].counts) - self._next_node[code]
            + len(self.free_nodes[code])
        )

    def grow_leaf_buffer(self, code: int, min_extra: int = 1) -> int:
        """Extend one per-type leaf buffer in place (capacity-pressure
        recovery, the §5.1 "sophisticated buffer management").

        Rows are appended to the SoA arrays, so existing rows keep their
        indices and every packed link into this buffer stays valid — a
        device ``cudaMalloc`` + copy, never a relocation, and therefore
        no re-map.  Grows by at least ``min_extra`` rows and at most a
        doubling.  Returns the number of rows added.
        """
        buf = self.leaves[code]
        n = len(buf.values)
        extra = max(min_extra, max(n, 8))
        buf.keys = np.vstack(
            [buf.keys, np.zeros((extra, buf.keys.shape[1]), dtype=np.uint8)]
        )
        buf.key_lens = np.concatenate(
            [buf.key_lens, np.zeros(extra, dtype=buf.key_lens.dtype)]
        )
        buf.values = np.concatenate(
            [buf.values, np.zeros(extra, dtype=np.uint64)]
        )
        return extra

    def grow_node_buffer(self, code: int, min_extra: int = 1) -> int:
        """Extend one per-type inner-node buffer in place; same
        index-stability contract as :meth:`grow_leaf_buffer`."""
        buf = self.nodes[code]
        n = len(buf.counts)
        extra = max(min_extra, max(n, 8))
        if buf.keys is not None:
            buf.keys = np.vstack(
                [buf.keys, np.zeros((extra, buf.keys.shape[1]), dtype=np.uint8)]
            )
        buf.children = np.vstack(
            [buf.children,
             np.zeros((extra, buf.children.shape[1]), dtype=np.uint64)]
        )
        if buf.child_index is not None:
            buf.child_index = np.vstack(
                [buf.child_index,
                 np.full((extra, 256), N48_EMPTY_SLOT, dtype=np.uint8)]
            )
        buf.counts = np.concatenate(
            [buf.counts, np.zeros(extra, dtype=buf.counts.dtype)]
        )
        buf.prefix = np.vstack(
            [buf.prefix,
             np.zeros((extra, buf.prefix.shape[1]), dtype=np.uint8)]
        )
        buf.prefix_len = np.concatenate(
            [buf.prefix_len, np.zeros(extra, dtype=buf.prefix_len.dtype)]
        )
        return extra

    def relocated(self, old_link: int, new_link: int) -> None:
        """Patch attached root tables after a node moved (growth)."""
        for table in self.attached_tables:
            table.links[table.links == np.uint64(old_link)] = np.uint64(new_link)

    def invalidate_range_cache(self) -> None:
        """Drop the sorted-leaf snapshot; device inserts append leaves
        out of lexicographic buffer order, so the next range query must
        rebuild (and from then on carries a row indirection)."""
        if hasattr(self, "_range_key_cache"):
            del self._range_key_cache

    def mark_synced(self) -> None:
        """Declare the source tree and this layout content-equivalent
        again.

        An owner that mirrors device-side writes into the source tree
        (:class:`repro.cuart.partition.PartitionedIndex`) bumps the tree
        version, which :meth:`check_fresh` would otherwise reject.  Only
        call when both sides index the same key set.
        """
        self._source_version = self._source.version

    def node_count(self, code: int) -> int:
        if code in NODE_TYPE_CODES:
            return len(self.nodes[code].counts)
        return len(self.leaves[code].values)

    def live_populations(self) -> dict:
        """Current device buffer occupancy, O(#types): per node/leaf type,
        the number of live records (allocated minus recycled) and the
        free-list depth.  The observability layer publishes these as
        gauges after every write batch."""
        return {
            "nodes": {
                c: self._next_node[c] - len(self.free_nodes[c])
                for c in NODE_TYPE_CODES
            },
            "leaves": {
                c: self._next_leaf[c] - len(self.free_leaves[c])
                for c in LEAF_TYPE_CODES
            },
            "free_nodes": {
                c: len(self.free_nodes[c]) for c in NODE_TYPE_CODES
            },
            "free_leaves": {
                c: len(self.free_leaves[c]) for c in LEAF_TYPE_CODES
            },
        }

    def device_bytes(self) -> int:
        """Total device memory of all buffers (16-byte-aligned records)."""
        total = 0
        for code in NODE_TYPE_CODES + LEAF_TYPE_CODES:
            total += self.node_count(code) * self.node_record_bytes[code]
        total += self.dyn.heap.nbytes
        return total

    def leaf_value_location(self, code: int, index: int) -> int:
        """Stable scalar id of one leaf's value slot (used by the update
        engine's hash table as the conflict-resolution key)."""
        return pack_link(code, index)

    # ------------------------------------------------------------------
    # reading the content back (the layout is the index's only copy)
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> int | None:
        """Scalar exact lookup: one thread of the lookup kernel, walked on
        the host over the same buffers (optimistic prefixes, full-key
        compare at the leaf).  ``None`` for a miss."""
        link = int(self.root_link)
        depth = 0
        klen = len(key)
        window = self.prefix_window
        nodes = self.nodes
        while True:
            code = link >> LINK_INDEX_BITS
            idx = link & LINK_INDEX_MASK
            if LINK_N4 <= code <= LINK_N256:
                buf = nodes[code]
                plen = buf.prefix_len.item(idx)
                if plen:
                    seen = plen if plen < window else window
                    if buf.prefix[idx, :seen].tobytes() != (
                        key[depth : depth + seen]
                    ):
                        return None
                    depth += plen
                if depth >= klen:
                    return None
                byte = key[depth]
                depth += 1
                if code == LINK_N48:
                    slot = buf.child_index.item(idx, byte)
                    if slot == N48_EMPTY_SLOT:
                        return None
                    link = buf.children.item(idx, slot)
                elif code == LINK_N256:
                    link = buf.children.item(idx, byte)
                else:
                    slot = buf.keys[idx].tobytes().find(
                        _BYTES[byte], 0, buf.counts.item(idx)
                    )
                    if slot < 0:
                        return None
                    link = buf.children.item(idx, slot)
                if not link:
                    return None
            elif code in LEAF_CAPACITY:
                buf = self.leaves[code]
                if buf.key_lens.item(idx) != klen or (
                    buf.keys[idx, :klen].tobytes() != key
                ):
                    return None
                value = buf.values.item(idx)
                return None if value == NIL_VALUE else value
            elif code == LINK_HOST:
                hk, hv = self.host_leaves[idx]
                return hv if hk == key else None
            elif code == LINK_DYNLEAF:
                stored, value = self._dyn_record(idx)
                return value if stored == key and value != NIL_VALUE else None
            else:
                return None

    def resolve_host(self, host_refs: np.ndarray, keys) -> dict:
        """CPU half of a lookup on :attr:`LongKeyStrategy.HOST_LINK`
        leaves: ``{row: value or None}`` for the rows whose traversal
        ended at a host link."""
        out = {}
        for i in np.flatnonzero(host_refs >= 0).tolist():
            hk, hv = self.host_leaves[int(host_refs[i])]
            out[i] = hv if hk == keys[i] else None
        return out

    def _dyn_record(self, off: int) -> tuple[bytes, int]:
        heap = self.dyn.heap
        klen = int(heap[off]) | (int(heap[off + 1]) << 8)
        value = int.from_bytes(heap[off + 2 : off + 10].tobytes(), "little")
        return heap[off + 10 : off + 10 + klen].tobytes(), value

    def live_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored ``(key, value)`` as ``(mat, lens, values)`` rows in
        buffer order: fixed-leaf rows with ``key_len > 0`` (deletes and
        free-list pushes zero the length), live dynamic-heap records and
        host leaves."""
        parts = []
        for code in LEAF_TYPE_CODES:
            buf = self.leaves[code]
            live = np.flatnonzero(buf.key_lens > 0)
            parts.append((buf.keys[live], buf.key_lens[live], buf.values[live]))
        extra = [self._dyn_record(off) for off in self.dyn.offsets]
        extra = [(k, v) for k, v in extra if v != NIL_VALUE]
        extra += self.host_leaves
        parts.append(encode_items([k for k, _ in extra], [v for _, v in extra]))
        return concat_rows(parts)

    def children(self, link: int) -> list[tuple[int, int]]:
        """Linked ``(byte, child link)`` pairs of one mapped inner node,
        as the lookup kernel sees them (cleared links skipped)."""
        code, idx = link >> LINK_INDEX_BITS, link & LINK_INDEX_MASK
        buf = self.nodes[code]
        kids = buf.children[idx].tolist()
        if code == LINK_N256:
            pairs = enumerate(kids)
        elif code == LINK_N48:
            ci = buf.child_index[idx]
            pairs = ((b, kids[ci[b]]) for b in
                     np.flatnonzero(ci != N48_EMPTY_SLOT).tolist())
        else:
            pairs = zip(buf.keys[idx].tolist(), kids[: buf.counts[idx]])
        return [(b, c) for b, c in pairs if c]

    def verify(self) -> list[str]:
        """Structural self-check of the buffers alone; returns the list of
        problems found (empty when sound).

        * every reachable node and leaf is reached exactly once, and each
          reachable leaf is a live row (or one a root-table-dispatched
          delete cleared in place, parent link left standing);
        * every live row is reachable, and a lookup of its key hits;
        * N4/N16 hold distinct key bytes and no link beyond ``counts``;
          N48 ``child_index`` and ``children`` agree one-to-one; N48 and
          N256 ``counts`` equal their linked children;
        * free-list rows are unreachable and cleared.
        """
        problems: list[str] = []
        seen: set = set()
        stack = [int(self.root_link)] if self.root_link else []
        while stack:
            link = stack.pop()
            code, idx = link >> LINK_INDEX_BITS, link & LINK_INDEX_MASK
            name = f"{LINK_TYPE_NAMES.get(code, code)}[{idx}]"
            if link in seen:
                problems.append(f"{name} reached twice")
                continue
            seen.add(link)
            if code in NODE_TYPE_CODES + LEAF_TYPE_CODES and (
                idx >= self.node_count(code)
            ):
                problems.append(f"dangling link to {name}")
            elif code in NODE_TYPE_CODES:
                bad = self._node_problem(code, idx)
                if bad:
                    problems.append(f"{name}: {bad}")
                stack.extend(c for _, c in self.children(link))
        for code in NODE_TYPE_CODES:
            buf = self.nodes[code]
            for idx in self.free_nodes[code]:
                if pack_link(code, idx) in seen or buf.counts[idx] or (
                    buf.children[idx].any()
                ):
                    problems.append(f"free {LINK_TYPE_NAMES[code]}[{idx}] "
                                    "reachable or not cleared")
        for code in LEAF_TYPE_CODES:
            buf = self.leaves[code]
            name = LINK_TYPE_NAMES[code]
            free = self.free_leaves[code]
            live = buf.key_lens > 0
            cleared = ~live & (buf.values == np.uint64(NIL_VALUE))
            if len(set(free)) != len(free) or not cleared[free].all():
                problems.append(f"{name} free list repeats or holds a "
                                "live row")
            reached = np.zeros(live.size, dtype=bool)
            reached[[ln & LINK_INDEX_MASK for ln in seen
                     if ln >> LINK_INDEX_BITS == code]] = True
            if (reached[free].any() or (reached & ~live & ~cleared).any()
                    or (live & ~reached).any()):
                problems.append(f"{name} rows reachable but free or never "
                                "written, or live but unreachable")
        mat, lens, _ = self.live_rows()
        if lens.size and not problems:
            from repro.cuart.lookup import lookup_batch

            res = lookup_batch(self, mat, lens)
            if (~res.hits & (res.host_refs < 0)).any():
                problems.append("a live key does not look up")
        return problems

    def _node_problem(self, code: int, idx: int) -> str | None:
        buf = self.nodes[code]
        cnt = int(buf.counts[idx])
        kids = buf.children[idx]
        if code in (LINK_N4, LINK_N16):
            if kids[cnt:].any() or len(set(buf.keys[idx, :cnt].tolist())) != cnt:
                return f"counts={cnt} misses a link or repeats a key byte"
            return None
        linked = int(np.count_nonzero(kids))
        if code == LINK_N48:
            ci = buf.child_index[idx]
            slots = ci[ci != N48_EMPTY_SLOT].astype(np.int64)
            if (slots.max(initial=0) >= 48 or slots.size != linked
                    or np.unique(slots).size != linked
                    or not kids[np.minimum(slots, 47)].all()):
                return "child_index disagrees with children"
        return None if cnt == linked else f"counts={cnt} but {linked} linked"

    # convenience accessors used by kernels -----------------------------
    @property
    def n4(self) -> _NodeBuffers:
        return self.nodes[LINK_N4]

    @property
    def n16(self) -> _NodeBuffers:
        return self.nodes[LINK_N16]

    @property
    def n48(self) -> _NodeBuffers:
        return self.nodes[LINK_N48]

    @property
    def n256(self) -> _NodeBuffers:
        return self.nodes[LINK_N256]


#: one-byte ``bytes`` per value, for the scalar walk's key search.
_BYTES = [bytes((b,)) for b in range(256)]


def _tree_plan(tree: AdaptiveRadixTree) -> BulkPlan:
    """The plan of ``tree``: the one :func:`~repro.art.bulk.bulk_load`
    left on it while still fresh, else one built from its items (the ART
    of a key set is unique — node type by fanout, full path compression
    — so both describe the same structure).  Cached on the tree until
    its next mutation."""
    plan = tree._bulk_plan
    if plan is None or plan.version != tree.version:
        items = list(tree.items())
        plan = plan_from_matrix(
            *encode_items([k for k, _ in items], [v for _, v in items])
        )
        plan.version = tree.version
        tree._bulk_plan = plan
    return plan


def _leaf_codes(lens: np.ndarray, single_leaf_size: int | None) -> np.ndarray:
    """Fixed-leaf type per key length (8/16/32), or the forced single
    size of the ablation."""
    if single_leaf_size is not None:
        lens = np.full(lens.size, single_leaf_size)
    return np.where(
        lens <= 8, LINK_LEAF8, np.where(lens <= 16, LINK_LEAF16, LINK_LEAF32)
    ).astype(np.uint8)


def _long_rows(plan: BulkPlan, single_leaf_size: int | None) -> np.ndarray:
    """Plan rows whose key exceeds the fixed leaves, in key order."""
    return np.flatnonzero(plan.lens > (single_leaf_size or MAX_SHORT_KEY))


def _plan_counts(
    plan: BulkPlan,
    single_leaf_size: int | None,
    long_rows: np.ndarray,
    long_keys: LongKeyStrategy,
) -> dict:
    """Per-type record counts straight from a plan's arrays."""
    counts: dict = {c: 0 for c in NODE_TYPE_CODES + LEAF_TYPE_CODES}
    counts["dyn_bytes"] = 0
    for lv in plan.levels:
        bc = np.bincount(lv.type_code, minlength=8)
        for c in NODE_TYPE_CODES:
            counts[c] += int(bc[c])
    bc = np.bincount(
        _leaf_codes(np.delete(plan.lens, long_rows), single_leaf_size),
        minlength=8,
    )
    for c in LEAF_TYPE_CODES:
        counts[c] = int(bc[c])
    if long_keys is LongKeyStrategy.DYNAMIC:
        counts["dyn_bytes"] = int(
            (_DynLeafHeap.HEADER + plan.lens[long_rows]).sum()
        )
    return counts


def _record_bytes(prefix_window: int) -> dict:
    """Per-type transaction sizes for a given stored-prefix window,
    padded to 16-byte alignment like :data:`CUART_NODE_BYTES`."""

    def pad16(n: int) -> int:
        return (n + 15) & ~15

    header = 4 + prefix_window + 1
    return {
        LINK_N4: pad16(header + 4 + 4 * 8),
        LINK_N16: pad16(header + 16 + 16 * 8),
        LINK_N48: pad16(header + 256 + 48 * 8),
        LINK_N256: pad16(header + 256 * 8),
        LINK_LEAF8: CUART_NODE_BYTES[LINK_LEAF8],
        LINK_LEAF16: CUART_NODE_BYTES[LINK_LEAF16],
        LINK_LEAF32: CUART_NODE_BYTES[LINK_LEAF32],
    }
