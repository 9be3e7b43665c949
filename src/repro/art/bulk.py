"""Bulk-loading: build an ART bottom-up from sorted keys.

Stage 1 of the paper's pipeline ("populating the ART index", §4.1)
dominates setup time when done with repeated root-to-leaf inserts.  For
a *sorted, distinct, prefix-free* key sequence the tree is determined
directly: find the common prefix (the node's compressed path), partition
by the next byte (the node's children), recurse — every node is
allocated exactly once at its final size, with no growth churn.

This implementation is array-native: the whole key set is bulk-encoded
into one padded matrix (:func:`repro.util.keys.encode_key_batch`),
sorted and validated with whole-array comparisons, and the tree levels
are discovered by a breadth-first frontier sweep whose per-level work is
a handful of NumPy operations — Python-object cost is paid only once per
actually-created node.  The result is byte-for-byte the same logical
tree the incremental path produces (property-tested).

The sweep itself builds no node objects: it emits a :class:`BulkPlan`,
the tree's structure as parallel arrays.  :func:`bulk_load` is that plan
plus node construction; the device mapper
(:class:`repro.cuart.layout.CuartLayout`) fills its SoA buffers from a
plan with batched array writes, so an index that lives on the device
never needs the host nodes at all (:func:`plan_from_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.art.nodes import Leaf, Node4, Node16, Node48, Node256
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    NIL_VALUE,
)
from repro.errors import KeyEncodingError, KeyPrefixError, ReproError
from repro.util.keys import encode_key_batch


@dataclass
class PlanLevel:
    """One tree level of a :class:`BulkPlan`: all inner nodes at the same
    distance from the root, as parallel arrays over the node groups and
    their child edges (edges sorted by ``(parent, byte)`` — children of
    one node are a contiguous ascending run)."""

    lo: np.ndarray  # (G,) first sorted key row of each node's range
    depth: np.ndarray  # (G,) key bytes consumed above the node
    split: np.ndarray  # (G,) branch column; prefix spans [depth, split)
    fanout: np.ndarray  # (G,)
    type_code: np.ndarray  # (G,) packed-link node type (by fanout)
    child_byte: np.ndarray  # (C,) branch byte
    child_parent: np.ndarray  # (C,) owning group index in this level
    child_is_leaf: np.ndarray  # (C,) bool
    child_ref: np.ndarray  # (C,) sorted key row (leaf) / next-level group
    child_slot: np.ndarray  # (C,) slot within the parent node


@dataclass
class BulkPlan:
    """The ART of a sorted, distinct, prefix-free key set, as arrays only.

    Built by :func:`plan_from_matrix` with no host node objects;
    :func:`bulk_load` turns one into a tree and the device mapper
    (:class:`repro.cuart.layout.CuartLayout`) into SoA buffers.
    ``version`` ties a plan left on a tree by :func:`bulk_load` to the
    tree state it describes (any later mutation invalidates it);
    free-standing plans keep ``-1``.
    """

    mat: np.ndarray  # (n, W) sorted, zero-padded key matrix
    lens: np.ndarray  # (n,) key lengths, sorted-row order
    values: np.ndarray  # (n,) uint64 values, sorted-row order
    levels: list[PlanLevel]
    version: int = -1

    @property
    def n(self) -> int:
        return self.lens.size

    def key(self, row: int) -> bytes:
        return self.mat[row, : int(self.lens[row])].tobytes()

    def get(self, key: bytes) -> Optional[int]:
        """Value stored for ``key`` (binary search), or ``None``.  Rows
        of a prefix-free key set are distinct once zero-padded, so the
        padded bytes alone order them."""
        n, W = self.mat.shape
        if n == 0 or len(key) > W:
            return None
        rows = np.ascontiguousarray(self.mat).view(np.dtype((np.void, W)))
        i = int(np.searchsorted(rows[:, 0], np.void(key.ljust(W, b"\0"))))
        if i < n and self.key(i) == key:
            return int(self.values[i])
        return None


def empty_plan() -> BulkPlan:
    return plan_from_matrix(*concat_rows([]))


def bulk_load(
    keys: Sequence[bytes], values: Sequence[int] | None = None
) -> AdaptiveRadixTree:
    """Build a tree from ``keys`` (will be sorted; must be distinct and
    prefix-free).  ``values`` default to each key's position in the
    *given* order.

    >>> t = bulk_load([b"beta", b"alpha"])
    >>> t.search(b"alpha")
    1
    """
    keys_list = list(keys)
    if values is None:
        values_list = list(range(len(keys_list)))
    else:
        values_list = list(values)
    m = min(len(keys_list), len(values_list))
    keys_list = keys_list[:m]
    values_list = values_list[:m]
    tree = AdaptiveRadixTree()
    if m == 0:
        return tree
    plan, order = _plan_rows(*encode_items(keys_list, values_list), False)
    skeys = list(map(keys_list.__getitem__, order.tolist()))
    leaf_objs = np.fromiter(
        map(Leaf, skeys, plan.values.tolist()), dtype=object, count=m
    )
    tree.root = _build_nodes(plan.levels, leaf_objs, skeys)
    tree._size = m
    tree._version += 1
    plan.version = tree._version
    tree._bulk_plan = plan
    return tree


def plan_from_matrix(
    mat: np.ndarray, lens: np.ndarray, values: np.ndarray,
    *, last_wins: bool = False,
) -> BulkPlan:
    """Sort, validate and sweep encoded rows (zero-padded ``mat``,
    ``lens``, uint64 ``values``, e.g. from :func:`encode_items`) into a
    plan.  A key that is a proper prefix of another raises
    :class:`KeyPrefixError`; duplicate keys raise :class:`ReproError`
    unless ``last_wins``, which keeps the later row (repeated inserts)."""
    return _plan_rows(mat, lens, values, last_wins)[0]


def concat_rows(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack ``(mat, lens, values)`` row sets of any widths into one,
    zero-padding every matrix to the widest."""
    parts = list(parts)
    W = max((m.shape[1] for m, _, _ in parts), default=1)
    mat = np.zeros((sum(m.shape[0] for m, _, _ in parts), W), dtype=np.uint8)
    at = 0
    for m, _, _ in parts:
        mat[at : at + m.shape[0], : m.shape[1]] = m
        at += m.shape[0]
    lens = np.concatenate([np.zeros(0, np.int64), *(p[1] for p in parts)])
    vals = np.concatenate([np.zeros(0, np.uint64), *(p[2] for p in parts)])
    return mat, lens.astype(np.int64), vals.astype(np.uint64)


def sort_rows(mat: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of zero-padded key rows: memcmp on the
    padded bytes, length as tiebreak (padded ties are prefix pairs —
    shorter first keeps the classic "prefix precedes extension" order).
    Equal keys keep their input order."""
    void = np.ascontiguousarray(mat).view(np.dtype((np.void, mat.shape[1])))[:, 0]
    order = np.argsort(lens, kind="stable")
    return order[np.argsort(void[order], kind="stable")]


def encode_items(
    keys: Sequence[bytes], values: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate and encode pairs into ``(mat, lens, values)`` rows; a bad
    key or value raises the tree's own :class:`KeyEncodingError`."""
    if not keys:
        return concat_rows([])
    check_key = AdaptiveRadixTree._check_key
    check_key(keys[0])
    vals = _checked_values(values)
    try:
        mat, lens = encode_key_batch(keys)
    except KeyEncodingError:
        for k in keys:  # the canonical per-key error, with context
            check_key(k)
        raise
    return mat, lens, vals


def _plan_rows(mat, lens, vals, last_wins: bool):
    """Sort, validate and sweep; returns the plan and, per plan row, the
    input row it came from."""
    order = sort_rows(mat, lens)
    smat = mat[order]
    slens = lens[order]
    dup = _validate_sorted(smat, slens, allow_duplicates=last_wins)
    if dup is not None:
        keep = np.append(~dup, True)  # the last of each equal run
        order = order[keep]
        smat = smat[keep]
        slens = slens[keep]
    plan = BulkPlan(
        mat=smat, lens=slens, values=vals[order],
        levels=_sweep_levels(smat, int(slens.size)),
    )
    return plan, order


def _checked_values(values_list: list) -> np.ndarray:
    """Vectorized value validation; falls back to the canonical per-item
    check (same exceptions as the incremental path) on any anomaly."""
    check = AdaptiveRadixTree._check_value
    try:
        vals = np.fromiter(values_list, dtype=np.uint64, count=len(values_list))
    except (OverflowError, ValueError, TypeError):
        for v in values_list:
            check(v)
        raise  # unreachable: some value must have failed the check
    ok_types = set(map(type, values_list)) == {int}
    if not ok_types or bool((vals == np.uint64(NIL_VALUE)).any()):
        for v in values_list:
            check(v)
    return vals


def _row_key(smat: np.ndarray, slens: np.ndarray, i: int) -> bytes:
    return smat[i, : int(slens[i])].tobytes()


def _validate_sorted(
    smat: np.ndarray, slens: np.ndarray, *, allow_duplicates: bool
) -> Optional[np.ndarray]:
    """Reject prefix pairs (and duplicates unless allowed) — both are
    adjacent after the lexicographic sort, so two whole-array
    comparisons cover the set.  Returns the ``(n-1,)`` mask of rows equal
    to their successor when duplicates are allowed and present."""
    if slens.size < 2:
        return None
    W = smat.shape[1]
    pl = slens[:-1]
    agree = (smat[1:] == smat[:-1]) | (np.arange(W)[None, :] >= pl[:, None])
    is_prefix = agree.all(axis=1)
    dup = is_prefix & (slens[1:] == pl)
    if dup.any() and not allow_duplicates:
        i = int(np.flatnonzero(dup)[0])
        raise ReproError(
            f"duplicate key {_row_key(smat, slens, i + 1)!r} in bulk load"
        )
    pref = is_prefix & (slens[1:] > pl)
    if pref.any():
        i = int(np.flatnonzero(pref)[0])
        raise KeyPrefixError(
            f"{_row_key(smat, slens, i)!r} is a proper prefix of "
            f"{_row_key(smat, slens, i + 1)!r}"
        )
    return dup if dup.any() else None


def _sweep_levels(smat: np.ndarray, m: int) -> list[PlanLevel]:
    """Breadth-first frontier sweep over the sorted key matrix.

    Every frontier group is a run of ≥2 sorted rows sharing ``depth``
    consumed bytes; its branch column is the first column where the
    run's extremes differ (sorted input: the extremes bound the group),
    and the child runs are delimited by value changes in that column.
    """
    levels: list[PlanLevel] = []
    if m < 2:
        return levels
    los = np.zeros(1, dtype=np.int64)
    his = np.full(1, m, dtype=np.int64)
    deps = np.zeros(1, dtype=np.int64)
    while los.size:
        G = los.size
        split = np.argmax(smat[los] != smat[his - 1], axis=1).astype(np.int64)
        sizes = his - los
        ends = np.cumsum(sizes)
        starts = ends - sizes
        total = int(ends[-1])
        # ragged expansion: all member rows of all groups, in group order
        row_idx = np.repeat(los - starts, sizes) + np.arange(
            total, dtype=np.int64
        )
        branch = smat[row_idx, np.repeat(split, sizes)]
        gid = np.repeat(np.arange(G, dtype=np.int64), sizes)
        startm = np.empty(total, dtype=bool)
        startm[0] = True
        startm[1:] = (gid[1:] != gid[:-1]) | (branch[1:] != branch[:-1])
        cpos = np.flatnonzero(startm)
        child_lo = row_idx[cpos]
        child_sizes = np.diff(np.append(cpos, total))
        child_byte = branch[cpos]
        child_parent = gid[cpos]
        fanout = np.bincount(child_parent, minlength=G)
        is_leaf = child_sizes == 1
        inner = ~is_leaf
        child_ref = np.empty(cpos.size, dtype=np.int64)
        child_ref[is_leaf] = child_lo[is_leaf]
        child_ref[inner] = np.arange(int(inner.sum()), dtype=np.int64)
        slot = (
            np.arange(cpos.size, dtype=np.int64)
            - (np.cumsum(fanout) - fanout)[child_parent]
        )
        tcode = np.where(
            fanout <= 4,
            LINK_N4,
            np.where(
                fanout <= 16,
                LINK_N16,
                np.where(fanout <= 48, LINK_N48, LINK_N256),
            ),
        ).astype(np.uint8)
        levels.append(
            PlanLevel(
                lo=los, depth=deps, split=split, fanout=fanout,
                type_code=tcode, child_byte=child_byte,
                child_parent=child_parent, child_is_leaf=is_leaf,
                child_ref=child_ref, child_slot=slot,
            )
        )
        deps = split[child_parent[inner]] + 1
        los = child_lo[inner]
        his = los + child_sizes[inner]
    return levels


def _build_nodes(
    levels: list[PlanLevel], leaf_objs: np.ndarray, skeys: list
):
    """Construct the host node objects bottom-up (children exist before
    their parent), filling each node's internal arrays directly; returns
    the root."""
    if not levels:  # single key: the root is that leaf
        return leaf_objs[0]
    node_arrays: list = [None] * len(levels)
    for li in range(len(levels) - 1, -1, -1):
        lv = levels[li]
        C = lv.child_byte.size
        child_objs = np.empty(C, dtype=object)
        leaf_m = lv.child_is_leaf
        child_objs[leaf_m] = leaf_objs[lv.child_ref[leaf_m]]
        inner_m = ~leaf_m
        if inner_m.any():
            child_objs[inner_m] = node_arrays[li + 1][lv.child_ref[inner_m]]
        ends_l = np.cumsum(lv.fanout).tolist()
        cb = lv.child_byte.tolist()
        co = child_objs.tolist()
        tc_l = lv.type_code.tolist()
        G = lv.lo.size
        cbn = lv.child_byte
        built: list = []
        append = built.append
        a = 0
        for lo_g, dep_g, spl_g, t, b in zip(
            lv.lo.tolist(), lv.depth.tolist(), lv.split.tolist(), tc_l,
            ends_l,
        ):
            prefix = skeys[lo_g][dep_g:spl_g] if spl_g > dep_g else b""
            if t == LINK_N4 or t == LINK_N16:
                # bypass __init__ (N4/N16 dominate by far): the fresh
                # empty lists it builds would be immediately replaced
                cls = Node4 if t == LINK_N4 else Node16
                node = cls.__new__(cls)
                node.prefix = prefix
                node.keys = cb[a:b]
                node.children = co[a:b]
            elif t == LINK_N48:
                node = Node48(prefix)
                ci = node.child_index
                ch = node.children
                for s in range(b - a):
                    ci[cb[a + s]] = s
                    ch[s] = co[a + s]
                node._count = b - a
            else:
                # scatter the (byte, child) run with one fancy index
                # instead of a per-edge Python loop (full nodes carry
                # up to 256 edges each)
                node = Node256(prefix)
                ch_arr = np.full(256, None, dtype=object)
                ch_arr[cbn[a:b]] = child_objs[a:b]
                node.children = ch_arr.tolist()
                node._count = b - a
            append(node)
            a = b
        node_arrays[li] = np.fromiter(built, dtype=object, count=G)
    return node_arrays[0][0]
