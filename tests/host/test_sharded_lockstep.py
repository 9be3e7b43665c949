"""Lockstep oracle tests for the key-space-sharded engine.

The :class:`~repro.host.sharding.ShardedEngine` splits the key space
over N simulated devices; deterministic routing makes every same-key
conflict shard-local, so the sharded execution of any mixed stream must
be serial-equivalent to a single engine applying the same stream.  These
tests pin that claim all the way down to **byte-identical canonical
serialization**: since each shard owns its own device layout, both sides
are re-serialized through a fresh single engine built from their sorted
``items()`` and the resulting ``save_layout`` archives are compared
byte for byte.  Adversarial cross-shard read-after-write /
write-after-write bursts, per-shard fault injection under the retry
policy, and the ``n_shards=1`` degenerate case are covered.
"""

from __future__ import annotations

import pytest

from repro.cuart.serialize import save_layout
from repro.gpusim.faults import FaultConfig
from repro.host.engine import CuartEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.resilience import ResiliencePolicy
from repro.host.sharding import (
    ShardedEngine,
    ShardedMixedExecutor,
    ShardingConfig,
)
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import random_keys
from tests.conftest import assert_device_matches, replay_on_dict
from tests.cuart.test_write_path_lockstep import _assert_layouts_equal

SEEDS = [3, 17, 91]


def _items(keys):
    return [(k, i + 1) for i, k in enumerate(keys)]


def _sharded(keys, n_shards, *, mode="hash", batch_size=64, **kwargs):
    eng = ShardedEngine(
        sharding=ShardingConfig(n_shards=n_shards, mode=mode),
        batch_size=batch_size,
        **kwargs,
    )
    eng.populate(_items(keys))
    eng.map_to_device()
    return eng


def _single(keys, *, batch_size=64, **kwargs):
    eng = CuartEngine(batch_size=batch_size, **kwargs)
    eng.populate(_items(keys))
    eng.map_to_device()
    return eng


def _canonical_engine(eng) -> CuartEngine:
    """Re-serialize any engine's surviving content through one fresh
    single engine: identical content => identical layout => identical
    bytes on disk (the canonicalization the rebalance path relies on)."""
    canon = CuartEngine(batch_size=64)
    canon.populate(eng.items())
    canon.map_to_device()
    return canon


def _assert_canonical_bytes_identical(a, b, tmp_path):
    ca, cb = _canonical_engine(a), _canonical_engine(b)
    _assert_layouts_equal(ca.layout, cb.layout)
    pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
    save_layout(ca.layout, pa)
    save_layout(cb.layout, pb)
    assert pa.read_bytes() == pb.read_bytes(), (
        "canonical serialized layouts are not byte-identical"
    )


def _run_pair(keys, stream, n_shards, *, tmp_path):
    sharded = _sharded(keys, n_shards)
    single = _single(keys)
    got, rep = ShardedMixedExecutor(sharded).run(stream)
    want, _ = MixedWorkloadExecutor(single).run(stream)
    assert got == want, "per-op results diverged from single-engine oracle"
    _assert_canonical_bytes_identical(sharded, single, tmp_path)
    model = replay_on_dict(_items(keys), stream)
    assert_device_matches(sharded, model, probes=keys)
    assert_device_matches(single, model, probes=keys)
    return sharded, rep


class TestCanonicalLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_mixed_stream(self, seed, tmp_path):
        keys = random_keys(512, 12, seed=seed)
        mix = QueryMix(lookups=0.5, updates=0.35, deletes=0.15)
        stream = mixed_queries(keys, 900, mix, seed=seed + 1)
        _, rep = _run_pair(keys, stream, 4, tmp_path=tmp_path)
        assert rep.operations == 900

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_shard_count_invariance(self, n_shards, tmp_path):
        keys = random_keys(512, 12, seed=11)
        mix = QueryMix(lookups=0.4, updates=0.4, deletes=0.2)
        stream = mixed_queries(keys, 700, mix, seed=12)
        _run_pair(keys, stream, n_shards, tmp_path=tmp_path)

    def test_range_mode_matches_hash_mode_content(self, tmp_path):
        keys = random_keys(512, 12, seed=21)
        mix = QueryMix(lookups=0.5, updates=0.4, deletes=0.1)
        stream = mixed_queries(keys, 600, mix, seed=22)
        by_hash = _sharded(keys, 4, mode="hash")
        by_range = _sharded(keys, 4, mode="range")
        rh, _ = ShardedMixedExecutor(by_hash).run(stream)
        rr, _ = ShardedMixedExecutor(by_range).run(stream)
        assert rh == rr
        _assert_canonical_bytes_identical(by_hash, by_range, tmp_path)


class TestAdversarialCrossShardBursts:
    """Hot keys living on *different* shards, hammered with interleaved
    RAW/WAW bursts: per-key order must hold even though the stream keeps
    ping-ponging between shards (conflicts are shard-local by routing)."""

    def _hot_keys_on_distinct_shards(self, eng, keys, n=4):
        picked, seen = [], set()
        for k in keys:
            sid = eng.router.shard_of(k)
            if sid not in seen:
                seen.add(sid)
                picked.append(k)
            if len(picked) == n:
                break
        assert len(picked) == n, "need keys spanning n distinct shards"
        return picked

    def test_cross_shard_raw_waw_burst(self, tmp_path):
        keys = random_keys(256, 12, seed=31)
        probe = _sharded(keys, 4)
        hot = self._hot_keys_on_distinct_shards(probe, keys, n=4)
        stream = []
        for round_ in range(40):
            for j, k in enumerate(hot):
                stream.append(("update", (k, round_ * 100 + j)))
                stream.append(("lookup", k))           # RAW across shards
                stream.append(("update", (k, round_ * 100 + j + 50)))  # WAW
                stream.append(("lookup", hot[(j + 1) % len(hot)]))
        _run_pair(keys, stream, 4, tmp_path=tmp_path)

    def test_cross_shard_delete_reinsert_burst(self, tmp_path):
        keys = random_keys(256, 12, seed=41)
        probe = _sharded(keys, 4)
        hot = self._hot_keys_on_distinct_shards(probe, keys, n=4)
        stream = []
        for round_ in range(25):
            for j, k in enumerate(hot):
                stream.append(("delete", k))
                stream.append(("lookup", k))            # must miss
                stream.append(("insert", (k, round_ * 10 + j)))
                stream.append(("lookup", k))            # must hit again
        _, rep = _run_pair(keys, stream, 4, tmp_path=tmp_path)
        assert rep.misses >= 25 * len(hot)

    def test_duplicate_key_burst_last_writer_wins(self, tmp_path):
        keys = random_keys(256, 12, seed=51)
        probe = _sharded(keys, 4)
        hot = self._hot_keys_on_distinct_shards(probe, keys, n=2)
        stream = []
        for i in range(120):
            stream.append(("update", (hot[i % 2], i)))
        stream += [("lookup", hot[0]), ("lookup", hot[1])]
        sharded, _ = _run_pair(keys, stream, 4, tmp_path=tmp_path)
        assert sharded.lookup(hot)[:] == [118, 119]


class TestFaultSoak:
    def test_faulty_shards_match_fault_free_oracle(self, tmp_path):
        """1% uniform fault rate, independently seeded per shard, under
        the default retry policy: every op still lands exactly once and
        the surviving content is byte-identical to a fault-free run."""
        keys = random_keys(512, 12, seed=61)
        mix = QueryMix(lookups=0.5, updates=0.35, deletes=0.15)
        stream = mixed_queries(keys, 900, mix, seed=62)

        faulty = _sharded(
            keys, 4,
            faults=FaultConfig.uniform(0.01, seed=321),
            resilience=ResiliencePolicy(),
        )
        oracle = _single(keys)
        got, rep = ShardedMixedExecutor(faulty).run(stream)
        want, _ = MixedWorkloadExecutor(oracle).run(stream)

        injected = [s._injector.total_injected for s in faulty.shards]
        assert sum(injected) > 0, "the soak never injected a fault"
        # per-shard seeds are offset, so the streams are independent
        seeds = {s._injector.config.seed for s in faulty.shards}
        assert len(seeds) == faulty.n_shards
        assert rep.ops_by_status.get("FAILED", 0) == 0
        assert got == want
        _assert_canonical_bytes_identical(faulty, oracle, tmp_path)
        model = replay_on_dict(_items(keys), stream)
        assert_device_matches(faulty, model, probes=keys)
        assert_device_matches(oracle, model, probes=keys)


class TestSingleShardDegenerate:
    def test_one_shard_is_byte_identical_to_plain_engine(self, tmp_path):
        """``n_shards=1`` routes everything to shard 0: no canonical
        re-serialization needed — the shard's own mapped layout must be
        byte-for-byte the plain engine's."""
        keys = random_keys(512, 12, seed=71)
        mix = QueryMix(lookups=0.5, updates=0.35, deletes=0.15)
        stream = mixed_queries(keys, 800, mix, seed=72)
        sharded = _sharded(keys, 1)
        single = _single(keys)
        got, _ = ShardedMixedExecutor(sharded).run(stream)
        want, _ = MixedWorkloadExecutor(single).run(stream)
        assert got == want
        shard = sharded.shards[0]
        _assert_layouts_equal(shard.layout, single.layout)
        pa, pb = tmp_path / "sharded.npz", tmp_path / "single.npz"
        save_layout(shard.layout, pa)
        save_layout(single.layout, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_rebalance_preserves_canonical_bytes(self, tmp_path):
        """A rebalance migrates partitions mid-stream; content before
        and after must canonicalize to the same bytes as the oracle."""
        keys = random_keys(512, 12, seed=81)
        mix = QueryMix(lookups=0.3, updates=0.6, deletes=0.1)
        stream = mixed_queries(keys, 600, mix, seed=82)
        half = len(stream) // 2
        sharded = _sharded(keys, 4, mode="range")
        single = _single(keys)
        got1, _ = ShardedMixedExecutor(sharded).run(stream[:half])
        sharded.rebalance()
        got2, _ = ShardedMixedExecutor(sharded).run(stream[half:])
        want, _ = MixedWorkloadExecutor(single).run(stream)
        assert got1 + got2 == want
        _assert_canonical_bytes_identical(sharded, single, tmp_path)
