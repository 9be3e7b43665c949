"""Seeded inputs and the dict oracle for the three benchmark workloads.

Every input is generated here from ``--seed`` before any timed section;
the program under test only ever receives the generated keys and ops.
The oracle is a plain ``dict`` that replays each stream serially in
arrival order: it shares no code with the engine, so it catches a fault
that checking the engine against itself (or against its own host-tree
mirror) cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.workloads.btc import btc_like_keys
from repro.workloads.ycsb import ycsb_keyspace, ycsb_stream

#: lookup_btc: live BTC-like 32-byte keys in the index, and keys of the
#: same generator that are never inserted (the absent lookups).
LOOKUP_LIVE = 1 << 17
LOOKUP_ABSENT = 1 << 14
#: lookups per round: eight engine-default batches of 32 Ki.
LOOKUP_BATCH = 1 << 15
LOOKUP_ROUND = 8 * LOOKUP_BATCH
#: share of each round's lookups that target absent keys.
LOOKUP_ABSENT_SHARE = 1 / 8

#: serve_ycsb_a: 8-byte record ids, YCSB-A ops per round, and the one
#: open-loop Poisson rate (ops per virtual second) they are offered at.
SERVE_RECORDS = 1 << 18
SERVE_ROUND = 8192
SERVE_OFFERED_QPS = 100_000.0

#: churn_btc: live BTC-like keys, ops per round and the op mix.
CHURN_LIVE = 1 << 16
CHURN_ROUND = 3072
CHURN_MIX = {"lookup": 0.4, "update": 0.2, "delete": 0.2, "insert": 0.2}
#: share of inserts that reuse a recently deleted key's first 31 bytes
#: (the delete -> insert pattern that exercises free-list reuse and the
#: parent-slot bookkeeping of the node the deleted key hung off).
CHURN_NEAR_DELETE = 0.5
CHURN_RECENT = 64

_ALNUM = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


@dataclass
class Inputs:
    """One run's generated inputs and their oracle answers."""

    workload: str
    #: initial ``(key, value)`` items the servable index is built from.
    items: list
    #: measured ops, one list per round: for ``lookup_btc`` a list of
    #: engine batches (key lists), otherwise ``(kind, payload)`` pairs.
    rounds: list
    #: per round, the oracle's value for each lookup in stream order.
    expected: list
    #: final sweep: every live key and every deleted/absent key, with
    #: the value (``None`` = absent) the device must return for each.
    sweep_keys: list
    sweep_expected: list
    #: serve_ycsb_a only: per round, virtual inter-arrival gaps (µs).
    gaps: list = field(default_factory=list)

    @property
    def measured_ops(self) -> int:
        if self.workload == "lookup_btc":
            return sum(len(batch) for r in self.rounds for batch in r)
        return sum(len(r) for r in self.rounds)

    def head(self, n_rounds: int) -> "Inputs":
        """The first ``n_rounds`` rounds alone (the warm-up pass)."""
        return replace(self, rounds=self.rounds[:n_rounds],
                       expected=self.expected[:n_rounds],
                       gaps=self.gaps[:n_rounds])


def replay(items, ops):
    """Serial dict replay: returns ``(expected lookup values, final
    dict, keys ever deleted)``.  Updates only touch present keys;
    inserts of present keys overwrite (the engine's insert-as-update)."""
    state = dict(items)
    expected = []
    deleted = set()
    for kind, payload in ops:
        if kind == "lookup":
            expected.append(state.get(payload))
        elif kind == "update":
            key, value = payload
            if key in state:
                state[key] = value
        elif kind == "delete":
            if state.pop(payload, None) is not None:
                deleted.add(payload)
        elif kind == "insert":
            key, value = payload
            state[key] = value
            deleted.discard(key)
        else:
            raise ValueError(f"unknown op {kind!r}")
    return expected, state, deleted


def _values(rng, n: int) -> list:
    return rng.integers(0, 1 << 62, size=n, dtype=np.int64).tolist()


def lookup_btc(seed: int, n_rounds: int, *, live: int = LOOKUP_LIVE,
               absent: int = LOOKUP_ABSENT,
               round_ops: int = LOOKUP_ROUND) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    universe = btc_like_keys(live + absent, seed=int(rng.integers(1 << 31)))
    order = rng.permutation(len(universe))
    live_keys = [universe[i] for i in order[:live]]
    absent_keys = [universe[i] for i in order[live:]]
    items = list(zip(live_keys, _values(rng, live)))
    value_of = dict(items)
    n_absent = int(round_ops * LOOKUP_ABSENT_SHARE)
    rounds, expected = [], []
    for _ in range(n_rounds):
        picks = [live_keys[i] for i in
                 rng.integers(0, live, size=round_ops - n_absent)]
        picks += [absent_keys[i] for i in
                  rng.integers(0, absent, size=n_absent)]
        keys = [picks[i] for i in rng.permutation(round_ops)]
        rounds.append([keys[i:i + LOOKUP_BATCH]
                       for i in range(0, round_ops, LOOKUP_BATCH)])
        expected.append([value_of.get(k) for k in keys])
    return Inputs(
        "lookup_btc", items, rounds, expected,
        sweep_keys=live_keys + absent_keys,
        sweep_expected=[value_of[k] for k in live_keys] + [None] * absent,
    )


def serve_ycsb_a(seed: int, n_rounds: int, *, records: int = SERVE_RECORDS,
                 round_ops: int = SERVE_ROUND) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    keys = ycsb_keyspace(records)
    items = list(zip(keys, _values(rng, records)))
    stream = ycsb_stream(
        "A", records, n_rounds * round_ops,
        seed=int(rng.integers(1 << 31)),
    )
    gaps = rng.exponential(1e6 / SERVE_OFFERED_QPS,
                           size=len(stream)).tolist()
    return _split(
        "serve_ycsb_a", items, stream, round_ops,
        gaps=[gaps[i:i + round_ops] for i in range(0, len(gaps), round_ops)],
    )


def churn_btc(seed: int, n_rounds: int, *, live: int = CHURN_LIVE,
              round_ops: int = CHURN_ROUND) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    n_ops = n_rounds * round_ops
    n_fresh = int(n_ops * CHURN_MIX["insert"]) + round_ops
    universe = btc_like_keys(live + n_fresh, seed=int(rng.integers(1 << 31)))
    order = rng.permutation(len(universe))
    live_keys = [universe[i] for i in order[:live]]
    fresh = [universe[i] for i in order[live:]]
    items = list(zip(live_keys, _values(rng, live)))
    known = set(universe)
    kinds = list(CHURN_MIX)
    draws = rng.choice(len(kinds), size=n_ops, p=list(CHURN_MIX.values()))
    values = iter(_values(rng, n_ops))
    pool = list(live_keys)  # keys live at this point of the stream
    recent: list = []
    next_fresh = 0
    stream = []
    for d in draws:
        kind = kinds[d]
        if kind == "lookup":
            stream.append((kind, pool[int(rng.integers(len(pool)))]))
        elif kind == "update":
            key = pool[int(rng.integers(len(pool)))]
            stream.append((kind, (key, next(values))))
        elif kind == "delete":
            j = int(rng.integers(len(pool)))
            key = pool[j]
            pool[j] = pool[-1]
            pool.pop()
            recent.append(key)
            del recent[:-CHURN_RECENT]
            stream.append((kind, key))
        else:
            key = None
            if recent and rng.random() < CHURN_NEAR_DELETE:
                base = recent[int(rng.integers(len(recent)))]
                for c in rng.integers(0, len(_ALNUM), size=8):
                    cand = base[:-1] + _ALNUM[c:c + 1]
                    if cand not in known:
                        key = cand
                        break
            if key is None:
                key = fresh[next_fresh]
                next_fresh += 1
            known.add(key)
            pool.append(key)
            stream.append((kind, (key, next(values))))
    return _split("churn_btc", items, stream, round_ops)


def _split(name, items, stream, round_ops, *, gaps=()) -> Inputs:
    expected_all, final, deleted = replay(items, stream)
    rounds, expected = [], []
    pos = 0
    for i in range(0, len(stream), round_ops):
        ops = stream[i:i + round_ops]
        n_lookups = sum(1 for kind, _ in ops if kind == "lookup")
        rounds.append(ops)
        expected.append(expected_all[pos:pos + n_lookups])
        pos += n_lookups
    gone = sorted(deleted)
    return Inputs(
        name, items, rounds, expected,
        sweep_keys=list(final) + gone,
        sweep_expected=list(final.values()) + [None] * len(gone),
        gaps=list(gaps),
    )


WORKLOADS = {
    "lookup_btc": lookup_btc,
    "serve_ycsb_a": serve_ycsb_a,
    "churn_btc": churn_btc,
}
