#!/usr/bin/env python3
"""End-to-end benchmark of the CuART reproduction, on two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup_btc --seed 1 --seconds 15 --trace 0

Workloads (``perfbench/README.md`` has the make-up and the why):

* ``lookup_btc``   point lookups on a BTC-like 32-byte-key index,
  engine-default batches through ``CuartEngine.submit``/``drain``;
* ``serve_ycsb_a`` YCSB-A offered one op at a time to ``ServerCore`` on
  a virtual clock at one fixed open-loop Poisson rate;
* ``churn_btc``    delete/insert churn on a BTC-like index through
  ``MixedWorkloadExecutor`` with the host memtable.

A run generates its inputs and the dict oracle's answers from
``--seed``, warms the code paths up on a throw-away index, builds the
servable index several times (``setup_s`` is the median), then runs a
fixed amount of work: ``--seconds`` rounds, each about a second long on
a 2-vCPU x86 host.  Every lookup is checked against the oracle, and a
final sweep looks every live and every deleted key up through the device
path.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a second,
traced pass over the same inputs).
"""

from __future__ import annotations

import os

# one single-threaded process: pin native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import gc
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: timed index builds per run, after one warm-up build; ``setup_s`` is
#: their median.
SETUP_REPEATS = 11
#: rounds of the warm-up pass (churn needs two to reach a compaction).
WARMUP_ROUNDS = {"lookup_btc": 1, "serve_ycsb_a": 1, "churn_btc": 2}
MIB = float(1 << 20)
#: probe seconds at the reference speed: the probe's typical time on
#: the 2-vCPU x86 host the bounds were measured on (see :func:`probe`).
PROBE_REF_S = 0.8e-3
_WRITE = object()  # expected-value placeholder for a write op


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program's sources are missing ({SRC}/repro)")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def rss_bytes() -> int:
    """Resident set size of this process, after handing every free heap
    page back to the system: without the trim, how much freed memory
    the allocator keeps depends on the order of earlier frees, and
    churn_btc's growth read anywhere from 54 to 91 MiB."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: read RSS as it stands
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


_PROBE_ARRAY = np.arange(1 << 12, dtype=np.uint64)
_PROBE_DICT = {i.to_bytes(8, "big"): i for i in range(2048)}
#: timed passes of the probe job; :func:`probe` reports their median.
PROBE_PASSES = 3
#: timed passes of the probe after each timed build: a build is one
#: sample, not one of a hundred chunks, so it gets a longer reading of
#: the process's speed.
SETUP_PROBE_PASSES = 21


def _probe_job() -> int:
    total = 0
    for key, value in _PROBE_DICT.items():
        total += value + len(key + b"\x00")
    for _ in range(64):
        total += int(np.sort(_PROBE_ARRAY[::-1][:512])[0])
    return total


def probe(passes: int = PROBE_PASSES) -> float:
    """Wall seconds of a fixed reference job, under a millisecond of
    dict, bytes and small-array work that shares no code with the
    program: a reading of how fast this process runs right now.  One
    untimed pass first brings the job's data back into cache, so how
    much of the cache the program's last chunk evicted does not count;
    then the median of ``passes`` timed passes."""
    perf = time.perf_counter
    _probe_job()
    times = []
    for _ in range(passes):
        t0 = perf()
        _probe_job()
        times.append(perf() - t0)
    return statistics.median(times)


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """Wall seconds rescaled to what they would have been with the
    process running at the speed where :func:`probe` takes
    :data:`PROBE_REF_S`."""
    return seconds * PROBE_REF_S / probe_s


class Chunks:
    """Per-chunk ops and wall seconds, each chunk followed (outside its
    timing) by one :func:`probe`.  The traced pass does not probe: its
    figures are raw wall time."""

    def __init__(self, probing: bool) -> None:
        self.items: list = []
        self._probe = probe if probing else (lambda: PROBE_REF_S)

    def add(self, ops: int, seconds: float) -> None:
        self.items.append((ops, seconds, self._probe()))

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class Phase:
    """What one pass over the measured rounds produced."""

    #: each chunk of like work: one engine batch (lookup_btc),
    #: :data:`SERVE_CHUNK` offered ops (serve_ycsb_a), or the ops between
    #: two memtable compactions (churn_btc).
    chunks: Chunks
    #: simulated device makespan (StreamScheduler) of the whole phase.
    makespan_s: float
    #: ops whose result disagreed with the oracle or came back FAILED
    #: or SHED.
    failed: int
    #: False when the program returned the wrong number of results or
    #: left an op unfinished — a fault no per-op count can express.
    intact: bool = True
    #: churn_btc's first and last chunks are partial cycles (before the
    #: first compaction; the forced end-of-stream drain).
    partial_ends: bool = False

    @property
    def wall_s(self) -> float:
        """Host wall seconds of the measured phase (checking excluded)."""
        return sum(t for _, t, _ in self.chunks.items)

    def _whole(self) -> list:
        items = self.chunks.items
        if self.partial_ends and len(items) > 2:
            items = items[1:-1]
        return [(n, t, p) for n, t, p in items if n]

    def ops_per_s(self) -> float:
        """Median over chunks of ops per wall second, each chunk rescaled
        to the reference speed by the probe that followed it."""
        return statistics.median(
            n / at_reference_speed(t, p) for n, t, p in self._whole())

    def raw_ops_per_s(self) -> float:
        """The same median without the rescaling (diagnostics)."""
        return statistics.median(n / t for n, t, _ in self._whole())


def mismatches(got, expected) -> int:
    return sum(1 for g, e in zip(got, expected) if g != e)


# -- the three measured phases --------------------------------------------


def run_lookup(eng, inp, probing: bool = True) -> Phase:
    perf = time.perf_counter
    chunks, failed, intact = Chunks(probing), 0, True
    for batches, expected in zip(inp.rounds, inp.expected):
        got = []
        for keys in batches:
            t0 = perf()
            res = eng.submit("lookup", keys)
            values = res.to_list()
            chunks.add(len(keys), perf() - t0)
            got.extend(values)
            failed += res.n_failed
        intact &= len(got) == len(expected)
        failed += mismatches(got, expected)
    t0 = perf()
    stats = eng.drain()
    chunks.add(0, perf() - t0)
    return Phase(chunks, stats.makespan_s, failed, intact)


#: offered ops per serve_ycsb_a chunk.
SERVE_CHUNK = 2048


def run_serve(eng, inp, probing: bool = True) -> Phase:
    from repro.host.results import OpStatus
    from repro.serve import ServerCore, VirtualClock

    perf = time.perf_counter
    bad = (int(OpStatus.FAILED), int(OpStatus.SHED))
    t0 = perf()
    clock = VirtualClock()
    core = ServerCore(eng, clock=clock)
    next_deadline, poll, offer = core.next_deadline_us, core.poll, core.offer
    chunks, failed, waiting = Chunks(probing), 0, []
    arrival = 0.0
    last = len(inp.rounds) - 1
    for r, (ops, gaps, expected) in enumerate(
            zip(inp.rounds, inp.gaps, inp.expected)):
        offered = []
        exp = iter(expected)
        for (kind, payload), gap in zip(ops, gaps):
            arrival += gap
            # open loop: fire every batch-close deadline due before this
            # arrival, then advance the virtual clock to it
            while True:
                due = next_deadline()
                if due is None or due > arrival:
                    break
                clock.advance(max(due - clock.now_us(), 0.0))
                poll()
            clock.advance(arrival - clock.now_us())
            offered.append((offer(kind, payload),
                            next(exp) if kind == "lookup" else _WRITE))
            if len(offered) % SERVE_CHUNK == 0:
                chunks.add(SERVE_CHUNK, perf() - t0)
                t0 = perf()
        if r == last:
            core.flush()
        chunks.add(len(offered) % SERVE_CHUNK, perf() - t0)
        still = []
        for op, want in waiting + offered:
            if not op.done:
                still.append((op, want))
            elif op.status in bad or (want is not _WRITE
                                      and op.value != want):
                failed += 1
        waiting = still
        t0 = perf()  # checking is not measured
    makespan = core.report.stream_overlap["makespan_s"]
    return Phase(chunks, makespan, failed + len(waiting), not waiting)


def run_churn(eng, inp, probing: bool = True) -> Phase:
    from repro.host.memtable import MemtableConfig
    from repro.host.mixed import MixedWorkloadExecutor

    perf = time.perf_counter
    ex = MixedWorkloadExecutor(eng, memtable=MemtableConfig())
    chunks = Chunks(probing)
    mark = {"t": perf(), "ops": 0, "compactions": 0}

    def stream():
        # a chunk closes each time the executor's memtable (public,
        # created at the start of run) reports one more compaction
        for ops in inp.rounds:
            for op in ops:
                done = ex.memtable.compactions
                if done != mark["compactions"]:
                    chunks.add(mark["ops"], perf() - mark["t"])
                    mark.update(t=perf(), ops=0, compactions=done)
                mark["ops"] += 1
                yield op

    results, rep = ex.run(stream())
    chunks.add(mark["ops"], perf() - mark["t"])
    expected = [v for exp in inp.expected for v in exp]
    by = rep.ops_by_status
    failed = mismatches(results, expected) + by.get("FAILED", 0) \
        + by.get("SHED", 0)
    return Phase(chunks, rep.stream_overlap["makespan_s"], failed,
                 len(results) == len(expected), partial_ends=True)


PHASES = {
    "lookup_btc": run_lookup,
    "serve_ycsb_a": run_serve,
    "churn_btc": run_churn,
}


# -- setup, sweep and the two passes --------------------------------------


def build(inp):
    """The servable index: ``populate`` + ``map_to_device``."""
    from repro import CuartEngine

    eng = CuartEngine()
    eng.populate(inp.items)
    eng.map_to_device()
    return eng


def sweep(eng, inp) -> tuple:
    """Look every live and every deleted key up through the device path
    (the lookup kernels over the device layout, never ``contains()`` or
    the host tree); returns ``(failed, intact)``."""
    got = eng.lookup(inp.sweep_keys)
    values = got.to_list()
    return (got.n_failed + mismatches(values, inp.sweep_expected),
            len(values) == len(inp.sweep_expected))


def untraced(inp) -> dict:
    perf = time.perf_counter
    phase_fn = PHASES[inp.workload]
    rss0 = rss_bytes()
    # first-pass costs (lazy imports, the first compaction and re-map)
    # are paid on a throw-away index, so the timed builds and the
    # measured pass run warm code paths
    phase_fn(build(inp), inp.head(WARMUP_ROUNDS[inp.workload]))
    setups = []
    for _ in range(SETUP_REPEATS):
        eng = None
        gc.collect()
        t0 = perf()
        eng = build(inp)
        setups.append(at_reference_speed(perf() - t0,
                                         probe(SETUP_PROBE_PASSES)))
    phase = phase_fn(eng, inp)
    host_mb = (rss_bytes() - rss0) / MIB
    failed, intact = sweep(eng, inp)
    ops = inp.measured_ops
    return {
        "attempted": ops + len(inp.sweep_keys),
        "failed": phase.failed + failed,
        "intact": phase.intact and intact and phase.makespan_s > 0,
        "wall_s": phase.wall_s,
        "phase": phase,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (phase.ops_per_s(), "ops/s"),
            "sim_ops_per_s": (ops / phase.makespan_s, "ops/s"),
            "device_mb": (eng.layout.device_bytes() / MIB, "MiB"),
            "host_mb": (host_mb, "MiB"),
        },
    }


def traced(inp, untraced_wall: float) -> dict:
    """A second pass over the same inputs, one setup plus the measured
    phase, with every layer's entry points wrapped (``layers.py``)."""
    from layers import LayerClock
    from repro.obs.critical_path import attribute_stats

    perf = time.perf_counter
    gc.collect()
    clock = LayerClock()
    with clock:
        t0 = perf()
        eng = build(inp)
        setup_s = perf() - t0
        phase = PHASES[inp.workload](eng, inp, probing=False)
    # checking between rounds is outside the traced phase
    wall = setup_s + phase.wall_s
    failed, intact = sweep(eng, inp)

    stats = None
    for window in clock.windows:
        if stats is None:
            stats = window
        else:
            stats.add_window(window)
    stages = attribute_stats(stats).stage_s if stats is not None else {}
    reg = eng.metrics
    counters = reg.snapshot()["counters"]

    def total(name: str) -> float:
        v = counters.get(name, 0)
        return float(sum(v.values()) if isinstance(v, dict) else v)

    def p99(name: str) -> float:
        s = reg.value(name)
        return float(s["p99"]) if s and s.get("count") else 0.0

    flushes = counters.get("coalescer_flushes_total", {})
    absorbed = total("memtable_absorbed_total")
    rows = total("memtable_compacted_rows_total")
    ops = inp.measured_ops
    own = clock.self_s
    cut = clock.coalesced_batches
    metrics = {
        "keys.self_s": (own["keys"], "s"),
        "lookup.self_s": (own["lookup"], "s"),
        "gpusim.self_s": (own["gpusim"], "s"),
        "gpusim.tx_per_op": (clock.kernel_tx / ops, "tx/op"),
        "gpusim.bytes_per_op": (clock.kernel_bytes / ops, "B/op"),
        "gpusim.kernel_s": (stages.get("kernel", 0.0), "s"),
        "gpusim.h2d_s": (stages.get("h2d", 0.0), "s"),
        "gpusim.d2h_s": (stages.get("d2h", 0.0), "s"),
        "batching.self_s": (own["batching"], "s"),
        "batching.batches": (cut, "count"),
        "batching.ops_per_batch": (
            clock.coalesced_ops / cut if cut else 0.0, "ops/batch"),
        "batching.flushes_deadline": (
            flushes.get("reason=deadline", 0), "count"),
        "batching.flushes_size": (
            flushes.get("reason=size-full", 0), "count"),
        "serve.self_s": (own["serve"], "s"),
        "serve.queue_wait_p99_us": (p99("server_queue_wait_us"), "us"),
        "serve.latency_p99_us": (p99("server_slo_latency_us"), "us"),
        "overlay.self_s": (own["overlay"], "s"),
        "overlay.forwarded": (
            total("server_forwarded_total")
            + total("mixed_forwarded_total"), "count"),
        "memtable.absorb_self_s": (own["memtable.absorb"], "s"),
        "memtable.compact_self_s": (own["memtable.compact"], "s"),
        "memtable.absorbed_ratio": (
            max(1.0 - rows / absorbed, 0.0) if absorbed else 0.0, "ratio"),
        "memtable.compactions": (total("memtable_compactions_total"),
                                 "count"),
        "memtable.compacted_rows": (rows, "count"),
        "mixed.self_s": (own["mixed"], "s"),
        "engine.self_s": (own["engine"], "s"),
        "engine.batches": (total("engine_batches_total"), "count"),
        "update.self_s": (own["update"], "s"),
        "hashtable.tx": (total("hashtable_transactions_total"), "count"),
        "hashtable.probe_steps": (total("hashtable_probe_steps_total"),
                                  "count"),
        "hashtable.dedup_losers": (total("write_dedup_losers_total"),
                                   "count"),
        "insert.self_s": (own["insert"], "s"),
        "delete.self_s": (own["delete"], "s"),
        "insert.deferred": (total("insert_deferred_total"), "count"),
        "layout.self_s": (own["layout"], "s"),
        "layout.remaps": (eng.layout_epoch - 1, "count"),
        "art.self_s": (own["art"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - sum(own.values()), "s"),
        "trace.overhead": (phase.wall_s / untraced_wall, "ratio"),
    }
    return {
        "attempted": ops + len(inp.sweep_keys),
        "failed": phase.failed + failed,
        "intact": phase.intact and intact,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(PHASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measured rounds (about one second each)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    _import_program()
    from workloads import WORKLOADS

    inp = WORKLOADS[args.workload](args.seed, args.seconds)
    # the generated inputs live as long as the run; frozen, they are
    # left out of the collector's scans, which otherwise traversed them
    # in every full collection the program's own allocations set off
    # (half of lookup_btc's build time, and more the longer the run)
    gc.collect()
    gc.freeze()
    res = untraced(inp)
    phase = res["phase"]
    probe_ms = statistics.median(p for _, _, p in phase.chunks.items) * 1e3
    print(f"{args.workload} seed={args.seed}: {len(phase.chunks)} chunks in "
          f"{phase.wall_s:.2f} s; ops/s {phase.raw_ops_per_s():.1f} as "
          f"measured, {phase.ops_per_s():.1f} at reference speed; "
          f"probe median {probe_ms:.3f} ms", file=sys.stderr)
    if args.trace:
        tr = traced(inp, res["wall_s"])
        # both passes ran the same ops and were checked alike
        res = {
            "attempted": res["attempted"] + tr["attempted"],
            "failed": res["failed"] + tr["failed"],
            "intact": res["intact"] and tr["intact"],
            "metrics": tr["metrics"],
        }
    doc = {
        "correct": res["intact"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
