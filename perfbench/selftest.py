#!/usr/bin/env python3
"""Self-test of the benchmark's checker and of its determinism.

Usage (from the repository root)::

    python3 perfbench/selftest.py

It asserts that

* a corrupted lookup result and a row lost from the device layout are
  each counted as exactly one failed op (and that the same inputs,
  uncorrupted, count none);
* two runs at one seed, in processes with different string-hash seeds,
  give identical simulated metrics, ``device_mb`` and per-layer counts.

Inputs are scaled down so the whole test takes well under a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7

#: scaled-down inputs: (generator keyword arguments, rounds).
SMALL = {
    "lookup_btc": (dict(live=4096, absent=512, round_ops=2048), 2),
    "serve_ycsb_a": (dict(records=4096, round_ops=1024), 2),
    "churn_btc": (dict(live=4096, round_ops=1024), 3),
}

#: per-layer metrics that must repeat exactly: every count, and the
#: simulated stage seconds (host self times and trace.* do not).
_TIMED = ("self_s", "trace.")


def _small(workload: str):
    from workloads import WORKLOADS

    kwargs, n_rounds = SMALL[workload]
    return WORKLOADS[workload](SEED, n_rounds, **kwargs)


class _Corrupted:
    """A lookup result with its first hit's value off by one."""

    def __init__(self, res) -> None:
        self.n_failed = res.n_failed
        self._values = res.to_list()
        hit = next(i for i, v in enumerate(self._values) if v is not None)
        self._values[hit] += 1

    def to_list(self) -> list:
        return self._values


class _CorruptFirst:
    """Engine proxy whose first lookup batch comes back corrupted."""

    def __init__(self, eng) -> None:
        self._eng = eng
        self._fresh = True

    def submit(self, kind, payloads):
        res = self._eng.submit(kind, payloads)
        if self._fresh:
            self._fresh = False
            return _Corrupted(res)
        return res

    def drain(self):
        return self._eng.drain()


def check_checker() -> None:
    import run

    inp = _small("lookup_btc")
    assert run.run_lookup(run.build(inp), inp).failed == 0
    phase = run.run_lookup(_CorruptFirst(run.build(inp)), inp)
    assert phase.failed == 1 and phase.intact, phase

    inp = _small("churn_btc")
    eng = run.build(inp)
    phase = run.run_churn(eng, inp)
    assert phase.failed == 0 and phase.intact, phase
    assert run.sweep(eng, inp) == (0, True)
    # lose one live row from the device behind the oracle's back
    live = next(k for k, v in zip(inp.sweep_keys, inp.sweep_expected)
                if v is not None)
    eng.delete([live])
    assert run.sweep(eng, inp) == (1, True)
    print("checker: corrupted result and lost row each count one failed op")


def child(workload: str) -> None:
    """One scaled-down untraced + traced run; prints its repeatable
    figures as JSON."""
    import run

    inp = _small(workload)
    res = run.untraced(inp)
    tr = run.traced(inp, res["wall_s"])
    figures = {k: v for k, (v, _) in res["metrics"].items()
               if k in ("sim_ops_per_s", "device_mb")}
    figures.update({k: v for k, (v, _) in tr["metrics"].items()
                    if not any(t in k for t in _TIMED)})
    print(json.dumps({"failed": res["failed"] + tr["failed"],
                      "figures": figures}))


def check_determinism() -> None:
    for workload in SMALL:
        docs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, str(HERE / "selftest.py"), "--child",
                 workload],
                env=env, capture_output=True, text=True, timeout=300,
                check=True,
            ).stdout
            docs.append(json.loads(out.strip().splitlines()[-1]))
        a, b = docs
        assert a["failed"] == b["failed"] == 0, (workload, a, b)
        diff = {k: (a["figures"][k], b["figures"].get(k))
                for k in a["figures"] if a["figures"][k] != b["figures"][k]}
        assert not diff and a["figures"].keys() == b["figures"].keys(), \
            (workload, diff)
        print(f"determinism: {workload}: {len(a['figures'])} figures "
              "repeat exactly")


def main(argv) -> int:
    sys.path.insert(0, str(HERE))
    import run

    run._import_program()
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    check_checker()
    check_determinism()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
