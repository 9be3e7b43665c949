"""Cross-module integration tests: the three implementations must agree
with each other and with a dict model through full lifecycles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import NIL_VALUE
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import lookup_batch
from repro.cuart.update import UpdateEngine
from repro.errors import HashTableFullError
from repro.grt.kernel import grt_lookup_batch
from repro.grt.layout import GrtLayout
from repro.host.engine import CuartEngine, GrtEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.util.keys import keys_to_matrix
from repro.workloads import (
    QueryMix,
    btc_like_keys,
    build_tree,
    lookup_queries,
    mixed_queries,
    random_keys,
)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("kind", ["random", "btc"])
    def test_host_cuart_grt_agree(self, kind):
        if kind == "random":
            keys = random_keys(2500, 12, seed=91)
        else:
            keys = btc_like_keys(2500, seed=91)
        tree = build_tree(keys)
        cu = CuartLayout(tree)
        gr = GrtLayout(tree)
        probes = lookup_queries(keys, 1500, hit_rate=0.7, seed=92)
        mat, lens = keys_to_matrix(probes)
        a = lookup_batch(cu, mat, lens)
        b = grt_lookup_batch(gr, mat, lens)
        assert (a.values == b.values).all()
        for q, v in zip(probes[:200], a.values[:200]):
            host = tree.search(q)
            got = None if int(v) == NIL_VALUE else int(v)
            assert got == host


class TestEngineLifecycle:
    def test_full_crud_lifecycle_matches_dict(self):
        keys = random_keys(1200, 8, seed=93)
        model = {k: i for i, k in enumerate(keys)}
        eng = CuartEngine(batch_size=256, spare=0.5, root_table_depth=2)
        eng.populate(model.items())
        eng.map_to_device()

        # updates
        ups = [(keys[i], 10_000 + i) for i in range(0, 400, 3)]
        eng.update(ups)
        model.update(ups)
        # deletions
        dels = keys[700:760]
        eng.delete(dels)
        for k in dels:
            model.pop(k)
        # inserts (device path + possible remap)
        news = [k for k in random_keys(150, 8, seed=94) if k not in model]
        eng.insert([(k, 70_000 + i) for i, k in enumerate(news)])
        model.update({k: 70_000 + i for i, k in enumerate(news)})

        # everything agrees
        probe = list(model) + dels
        got = eng.lookup(probe)
        assert got == [model.get(k) for k in probe]
        # device layout structurally sound
        assert eng.layout.verify() == []
        # a final remap preserves content exactly
        eng.map_to_device()
        got2 = eng.lookup(probe)
        assert got2 == got

    def test_mixed_stream_then_verify(self):
        keys = random_keys(800, 8, seed=95)
        eng = CuartEngine(batch_size=128, spare=0.25)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        stream = mixed_queries(keys, 600, QueryMix(), seed=96)
        MixedWorkloadExecutor(eng).run(stream)
        assert eng.layout.verify() == []
        # engine still serves correct answers for survivors
        deleted = {p for kind, p in stream if kind == "delete"}
        survivors = [k for k in keys if k not in deleted][:100]
        got = eng.lookup(survivors)
        assert all(v is not None for v in got)

    def test_serialize_after_mutations(self, tmp_path):
        from repro.cuart.serialize import load_layout, save_layout

        keys = random_keys(600, 8, seed=97)
        eng = CuartEngine(batch_size=128, spare=0.5)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        eng.update([(keys[0], 123)])
        eng.delete([keys[1]])
        eng.insert([(b"\xfb" * 8, 456)])
        path = tmp_path / "mutated.npz"
        save_layout(eng.layout, path)
        loaded = load_layout(path)
        mat, lens = keys_to_matrix([keys[0], keys[1], b"\xfb" * 8], width=8)
        res = lookup_batch(loaded, mat, lens)
        assert int(res.values[0]) == 123
        assert int(res.values[1]) == NIL_VALUE
        assert int(res.values[2]) == 456


class TestFailureInjection:
    def test_update_hash_table_overflow_raises(self):
        keys = random_keys(600, 8, seed=98)
        tree = build_tree(keys)
        layout = CuartLayout(tree)
        eng = UpdateEngine(layout, hash_slots=256)  # 600 distinct > 256
        mat, lens = keys_to_matrix(keys)
        with pytest.raises(HashTableFullError):
            eng.apply(mat, lens, np.arange(600).astype(np.uint64))

    def test_insert_capacity_exhaustion_is_clean(self):
        from repro.cuart.insert import InsertEngine

        keys = random_keys(400, 8, seed=99)
        tree = build_tree(keys)
        layout = CuartLayout(tree, spare=0.0)  # no headroom at all
        eng = InsertEngine(layout, hash_slots=1 << 10)
        news = [k for k in random_keys(100, 8, seed=100) if k not in set(keys)]
        mat, lens = keys_to_matrix(news, width=8)
        res = eng.apply(mat, lens, np.arange(len(news)).astype(np.uint64))
        assert res.n_inserted == 0
        assert res.n_deferred == len(news)
        # the layout still answers the original keys perfectly
        omat, olens = keys_to_matrix(keys)
        check = lookup_batch(layout, omat, olens)
        assert check.values.tolist() == list(range(len(keys)))

    def test_engine_survives_total_defer_via_remap(self):
        eng = CuartEngine(batch_size=128, spare=0.0)
        eng.populate([(b"left0001", 1), (b"right002", 2)])
        eng.map_to_device()
        out = eng.insert([(b"middle03", 3)])
        assert out.summary["remapped"]
        assert eng.lookup([b"left0001", b"middle03"]) == [1, 3]


@settings(max_examples=15, deadline=None)
@given(
    st.dictionaries(st.binary(min_size=4, max_size=4), st.integers(0, 2**30),
                    min_size=2, max_size=60),
    st.data(),
)
def test_engine_matches_dict_model_property(pairs, data):
    eng = CuartEngine(batch_size=128, spare=0.5)
    eng.populate(pairs.items())
    eng.map_to_device()
    model = dict(pairs)
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["update", "delete", "insert"]),
                st.binary(min_size=4, max_size=4),
                st.integers(0, 2**30),
            ),
            max_size=20,
        )
    )
    for kind, key, value in ops:
        if kind == "update":
            found = eng.update([(key, value)])
            if found[0]:
                model[key] = value
        elif kind == "delete":
            found = eng.delete([key])
            if found[0]:
                model.pop(key, None)
        else:
            eng.insert([(key, value)])
            model[key] = value
    probes = sorted(set(model) | {k for _, k, _ in ops})
    assert eng.lookup(probes) == [model.get(k) for k in probes]
