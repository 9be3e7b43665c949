"""Heavier randomized lifecycles: interleaved device updates, deletes
and inserts against a sequential oracle, with structural verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import NIL_VALUE
from repro.cuart.delete import delete_batch
from repro.cuart.insert import InsertEngine
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import lookup_batch
from repro.cuart.update import UpdateEngine
from repro.util.keys import keys_to_matrix
from repro.workloads import build_tree, random_keys

from tests.conftest import make_tree


def read_all(layout, keys, table=None):
    mat, lens = keys_to_matrix(keys)
    res = lookup_batch(layout, mat, lens, root_table=table)
    return [None if int(v) == NIL_VALUE else int(v) for v in res.values]


class TestInterleavedBatches:
    def test_update_delete_update_sequence(self):
        keys = random_keys(500, 8, seed=161)
        lay = CuartLayout(build_tree(keys))
        upd = UpdateEngine(lay, hash_slots=1 << 10)
        model = {k: i for i, k in enumerate(keys)}

        # round 1: update a slice
        mat, lens = keys_to_matrix(keys[:100])
        upd.apply(mat, lens, np.arange(1000, 1100).astype(np.uint64))
        model.update({k: 1000 + i for i, k in enumerate(keys[:100])})
        # round 2: delete an overlapping slice
        mat, lens = keys_to_matrix(keys[50:150])
        delete_batch(lay, mat, lens, hash_slots=1 << 10)
        for k in keys[50:150]:
            model.pop(k)
        # round 3: update across live and dead keys
        mat, lens = keys_to_matrix(keys[120:200])
        res = upd.apply(mat, lens, np.arange(2000, 2080).astype(np.uint64))
        for i, k in enumerate(keys[120:200]):
            if k in model:
                model[k] = 2000 + i
        # deleted keys must not resurrect through updates
        assert res.found[:30].sum() == 0  # keys 120..149 are deleted

        got = read_all(lay, keys)
        assert got == [model.get(k) for k in keys]

    def test_mixed_update_and_delete_in_one_batch(self):
        keys = random_keys(200, 8, seed=162)
        lay = CuartLayout(build_tree(keys))
        upd = UpdateEngine(lay, hash_slots=1 << 9)
        mat, lens = keys_to_matrix(keys[:50])
        deletes = np.zeros(50, dtype=bool)
        deletes[::2] = True
        upd.apply(mat, lens, np.arange(50).astype(np.uint64), deletes=deletes)
        got = read_all(lay, keys[:50])
        for i in range(50):
            assert got[i] == (None if i % 2 == 0 else i)

    def test_insert_after_delete_reuses_space(self):
        keys = random_keys(300, 8, seed=163)
        lay = CuartLayout(build_tree(keys), spare=0.0)
        mat, lens = keys_to_matrix(keys[:40])
        delete_batch(lay, mat, lens, hash_slots=1 << 9)
        freed = sum(len(v) for v in lay.free_leaves.values())
        assert freed > 0
        fresh = [k for k in random_keys(freed, 8, seed=164)
                 if k not in set(keys)][:freed]
        eng = InsertEngine(lay, hash_slots=1 << 9)
        mat, lens = keys_to_matrix(fresh)
        res = eng.apply(mat, lens, np.arange(len(fresh)).astype(np.uint64))
        # the recycled slots (and only those) could host the new keys
        assert res.n_inserted > 0
        assert res.n_inserted <= freed


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 5))
def test_engine_storm_against_model(seed, rounds):
    """Multi-round random CRUD through the engine vs a dict, verifying
    the host tree's structural invariants each round."""
    from repro.host.engine import CuartEngine

    rng = np.random.default_rng(seed)
    keys = random_keys(250, 6, seed=seed)
    eng = CuartEngine(batch_size=128, spare=0.5)
    eng.populate((k, i) for i, k in enumerate(keys))
    eng.map_to_device()
    model = {k: i for i, k in enumerate(keys)}
    pool = list(keys)

    for _ in range(rounds):
        op = rng.choice(3)
        sample = [pool[int(i)] for i in rng.integers(0, len(pool), size=20)]
        if op == 0:
            vals = [int(v) for v in rng.integers(0, 2**30, size=20)]
            found = eng.update(list(zip(sample, vals)))
            for k, v, f in zip(sample, vals, found):
                if f:
                    model[k] = v
        elif op == 1:
            found = eng.delete(sample)
            for k, f in zip(sample, found):
                if f:
                    model.pop(k, None)
        else:
            fresh = bytes(rng.integers(0, 256, size=6).astype(np.uint8))
            if not any(
                fresh != o and (fresh.startswith(o) or o.startswith(fresh))
                for o in model
            ):
                eng.insert([(fresh, 99)])
                model[fresh] = 99
                pool.append(fresh)
        assert eng.layout.verify() == []
    probes = sorted(set(pool))
    assert eng.lookup(probes) == [model.get(k) for k in probes]
