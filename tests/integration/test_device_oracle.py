"""Every write path against an independent oracle that reads the device.

The engine keeps no host copy of its index: the device layout is the
only one.  So the checks here never ask the engine about itself — each
compares with a plain dict, and the final sweep looks every key up
through the device kernels after :meth:`CuartLayout.verify` has walked
the buffers.

* The N48 regression: a delete unlinking an N48 child, then one insert
  batch with a fresh key on the deleted byte and another on a new byte.
  The unlink used to leave ``child_index`` pointing at the freed slot,
  so both inserts claimed it and one row vanished from the device.
* A differential fuzz over the three serving paths (mixed executor,
  ``ServerCore``, sharded executor), each with and without the
  memtable, crossed with batch sizes and key pools sized to put an N16,
  N48 or N256 at the root.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.host.engine import CuartEngine
from repro.host.memtable import MemtableConfig
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.sharding import (
    ShardedEngine,
    ShardedMixedExecutor,
    ShardingConfig,
)
from repro.serve.core import ServerCore, VirtualClock
from tests.conftest import apply_op, assert_device_matches


def _distinct_keys(rng, n: int, width: int = 8) -> list[bytes]:
    keys: dict = {}
    while len(keys) < n:
        k = bytes(rng.integers(0, 256, size=width, dtype=np.uint8))
        keys[k] = None
    return list(keys)


def _n48_case(seed: int):
    rng = np.random.default_rng(seed)
    keys = _distinct_keys(rng, int(rng.integers(17, 49)))
    eng = CuartEngine(batch_size=64)
    eng.populate([(k, i + 1) for i, k in enumerate(keys)])
    eng.map_to_device()
    model = {k: i + 1 for i, k in enumerate(keys)}
    gone = [keys[int(i)] for i in rng.choice(
        len(keys), size=int(rng.integers(1, 4)), replace=False)]
    eng.delete(gone)
    for k in gone:
        del model[k]
    fresh: list = []
    while len(fresh) < int(rng.integers(2, 7)):
        if rng.random() < 0.5:
            first = gone[int(rng.integers(len(gone)))][:1]
        else:
            first = bytes([int(rng.integers(256))])
        k = first + bytes(rng.integers(0, 256, size=7, dtype=np.uint8))
        if k not in model and k not in fresh:
            fresh.append(k)
    batch = [(k, 1_000 + j) for j, k in enumerate(fresh)]
    eng.insert(batch)
    model.update(batch)
    return eng, model, keys + fresh


def test_n48_delete_then_insert_keeps_every_row():
    for seed in range(300):
        eng, model, probes = _n48_case(seed)
        got = list(eng.lookup(probes))
        assert got == [model.get(k) for k in probes], f"seed {seed}"
        assert eng.layout.verify() == [], f"seed {seed}"


RACY = MemtableConfig(segment_ops=8, max_debt=1)
PATHS = ["executor", "server", "sharded"]


def _stream(rng, pool: list, n_ops: int) -> list:
    stream = []
    for i in range(n_ops):
        k = pool[int(rng.integers(len(pool)))]
        r = float(rng.random())
        if r < 0.35:
            stream.append(("lookup", k))
        elif r < 0.55:
            stream.append(("update", (k, 10_000 + i)))
        elif r < 0.75:
            stream.append(("delete", k))
        else:
            stream.append(("insert", (k, 20_000 + i)))
    return stream


def _serve(path: str, memtable, batch_size: int, initial, stream):
    if path == "sharded":
        eng = ShardedEngine(
            sharding=ShardingConfig(n_shards=3), batch_size=batch_size
        )
    else:
        eng = CuartEngine(batch_size=batch_size)
    eng.populate(initial)
    eng.map_to_device()
    if path == "executor":
        runner = MixedWorkloadExecutor(eng, memtable=memtable)
    elif path == "server":
        runner = ServerCore(
            eng, clock=VirtualClock(), max_batch=batch_size,
            memtable=memtable,
        )
    else:
        runner = ShardedMixedExecutor(eng, memtable=memtable)
    results, _ = runner.run(stream)
    return eng, results


@pytest.mark.parametrize("absorb", [False, True], ids=["sync", "memtable"])
@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    batch_size=st.sampled_from([4, 16, 64]),
    pool_size=st.sampled_from([16, 48, 256]),
    seed=st.integers(0, 2**16),
)
def test_every_path_matches_a_dict(path, absorb, batch_size, pool_size, seed):
    rng = np.random.default_rng(seed)
    pool = _distinct_keys(rng, pool_size)
    initial = [(k, i + 1) for i, k in enumerate(pool[: pool_size // 2])]
    stream = _stream(rng, pool, 240)
    eng, results = _serve(
        path, RACY if absorb else None, batch_size, initial, stream
    )
    model = dict(initial)
    want = []
    for kind, payload in stream:
        if kind == "lookup":
            want.append(model.get(payload))
        apply_op(model, kind, payload)
    assert results == want
    assert_device_matches(eng, model, probes=pool)
