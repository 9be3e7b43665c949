"""Shared fixtures: small reproducible trees and query batches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.cuart.layout import CuartLayout
from repro.util.keys import encode_int, keys_to_matrix


def int_keys(values, width=8):
    return [encode_int(int(v), width) for v in values]


def make_tree(pairs) -> AdaptiveRadixTree:
    t = AdaptiveRadixTree()
    for k, v in pairs:
        t.insert(k, v)
    return t


@pytest.fixture(scope="module")
def medium_keys():
    """2000 distinct pseudo-random 8-byte keys."""
    rng = np.random.default_rng(42)
    vals = np.unique(rng.integers(1, 2**63 - 1, size=2600, dtype=np.int64))[:2000]
    return int_keys(vals)


@pytest.fixture(scope="module")
def medium_tree(medium_keys):
    return make_tree((k, i) for i, k in enumerate(medium_keys))


@pytest.fixture()
def medium_layout(medium_tree):
    return CuartLayout(medium_tree)


def batch_of(keys, width=None):
    return keys_to_matrix(list(keys), width=width)


def apply_op(model: dict, kind: str, payload) -> None:
    """One stream op on a plain dict: updates and deletes of absent keys
    are no-ops, inserts upsert, reads change nothing."""
    if kind == "update":
        if payload[0] in model:
            model[payload[0]] = payload[1]
    elif kind == "delete":
        model.pop(payload, None)
    elif kind == "insert":
        model[payload[0]] = payload[1]


def replay_on_dict(initial, stream) -> dict:
    """The independent oracle: a mixed stream applied to a plain dict."""
    model = dict(initial)
    for kind, payload in stream:
        apply_op(model, kind, payload)
    return model


def assert_device_matches(eng, model: dict, probes=()) -> None:
    """Read the device, never the engine's own bookkeeping: every layout
    passes its structural check, and a device lookup of every model key
    (plus ``probes``, e.g. deleted keys) equals the dict."""
    shards = getattr(eng, "shards", None) or [eng]
    for shard in shards:
        assert shard.layout.verify() == []
    keys = sorted(set(model) | set(probes))
    assert list(eng.lookup(keys)) == [model.get(k) for k in keys], (
        "device lookups diverged from the dict oracle"
    )
