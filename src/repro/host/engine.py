"""End-to-end engines — the public facade of the reproduction.

A :class:`CuartEngine` (or the baseline :class:`GrtEngine`) executes the
paper's three benchmark stages (section 4.1): it populates the index,
maps it into the device layout, and then serves batched queries.  The
CuART engine keeps no host tree: populate builds the node-free bulk
plan (:func:`repro.art.bulk.plan_from_matrix`), mapping turns it into
the device buffers, and from then on those buffers are the only copy of
the index — membership probes, degraded CPU serving and re-maps all
read them.  Every
query batch runs the *real* vectorized kernels (results are exact) while
its transaction log flows through the simulated device's cost model and
the host pipeline model, producing the end-to-end throughput estimates
reported by the benchmarks.

The serving path is array-native end to end: the whole query stream is
bulk-encoded into one key matrix, batches are views of it, results are
scattered back with single fancy-index assignments, and the Python-object
conversion of lookup results is deferred until a caller actually consumes
them.  An optional hot-key LRU result cache (:mod:`repro.host.cache`)
short-circuits repeat lookups under skewed traffic.

Every public operation returns a :class:`repro.host.results.BatchResult`
carrying per-query :class:`~repro.host.results.OpStatus` codes.  With a
:class:`~repro.host.resilience.ResiliencePolicy` configured (via
:class:`~repro.host.config.EngineConfig`), device faults injected by
:mod:`repro.gpusim.faults` are retried with backoff, recovered from
(hash-table growth, re-map, device-buffer growth) or degraded to the CPU
path — callers observe ``RETRIED`` / ``DEGRADED_CPU`` statuses instead
of catching exceptions.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from operator import itemgetter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.art.bulk import (
    BulkPlan,
    bulk_load,
    concat_rows,
    encode_items,
    plan_from_matrix,
    sort_rows,
)
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    LEAF_TYPE_CODES,
    LINK_TYPE_NAMES,
    MAX_SHORT_KEY,
    NIL_VALUE,
    NODE_TYPE_CODES,
)
from repro.cuart.cpu_lookup import cpu_lookup_flat
from repro.cuart.delete import delete_batch
from repro.cuart.hashtable import make_conflict_table
from repro.cuart.insert import InsertEngine
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import lookup_batch
from repro.cuart.range_query import prefix_query, range_query
from repro.cuart.root_table import RootTable
from repro.cuart.update import UpdateEngine
from repro.errors import (
    DeviceFault,
    HashTableFullError,
    ReproError,
    StaleLayoutError,
)
from repro.grt.kernel import grt_lookup_batch
from repro.grt.layout import GrtLayout
from repro.grt.update import grt_update_batch
from repro.gpusim.cost_model import CostModel
from repro.gpusim.faults import FaultInjector
from repro.gpusim.memory import allocation_guard
from repro.gpusim.pcie import link_for_device
from repro.gpusim.streams import StreamOverlapStats, StreamScheduler, launch_kernel
from repro.gpusim.trace import kernel_span_args
from repro.gpusim.transactions import TransactionLog
from repro.host.batching import QueryBatch, coalesce_encoded, split_batch
from repro.host.cache import HotKeyCache
from repro.host.config import EngineConfig
from repro.host.dispatcher import DispatchConfig, pipeline_throughput
from repro.host.resilience import ResilientDispatcher
from repro.host.results import (
    BatchResult,
    OpStatus,
    status_codes,
    values_to_list,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.flightrec import NULL_FLIGHT_RECORDER
from repro.obs.tracing import NULL_TRACER
from repro.util.keys import keys_to_matrix

__all__ = [
    "BatchResult",
    "CuartEngine",
    "EngineConfig",
    "EngineReport",
    "GrtEngine",
    "OpStatus",
]


@dataclass
class EngineReport:
    """Simulated performance of the last operation."""

    operation: str
    queries: int
    batches: int
    #: average simulated kernel seconds per batch.
    kernel_s_per_batch: float
    #: simulated kernel-only throughput.
    kernel_mops: float
    #: simulated end-to-end throughput through the host pipeline.
    end_to_end_mops: float
    #: which roofline bound the kernel hit.
    binding_constraint: str
    #: which pipeline stage bound the end-to-end rate.
    pipeline_bottleneck: str
    transactions_per_query: float
    bytes_per_query: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.operation}: {self.end_to_end_mops:8.1f} MOps/s end-to-end "
            f"({self.kernel_mops:8.1f} kernel-only, "
            f"{self.transactions_per_query:.2f} tx/query, "
            f"bound by {self.binding_constraint}/{self.pipeline_bottleneck})"
        )


#: below this many keys :meth:`CuartEngine.peek` walks the buffers per
#: key instead of paying one batched CPU lookup's fixed cost.
_PEEK_BATCH_MIN = 32


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


class _EngineBase:
    """Shared pipeline bookkeeping for both engines."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        api: str = "cuda",
        **kwargs,
    ) -> None:
        if config is None:
            config = EngineConfig(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either config=EngineConfig(...) or individual "
                "keyword arguments, not both"
            )
        self.config = config
        self.device = config.device
        self.cpu = config.cpu
        self.batch_size = config.batch_size
        self.host_threads = config.host_threads
        self.api = api
        self.cost_model = CostModel(config.device)
        self.last_report: Optional[EngineReport] = None
        #: shared observability surface (repro.obs): pass one registry /
        #: tracer to correlate engine, executor, cache and write-engine
        #: metrics; the defaults are a private registry and the free
        #: no-op tracer.
        self.metrics = (
            config.metrics if config.metrics is not None else MetricsRegistry()
        )
        self.tracer = config.tracer if config.tracer is not None else NULL_TRACER
        #: per-op flight recorder (repro.obs.flightrec); the null
        #: singleton keeps the disabled path allocation-free.
        self.flight = (
            config.flight_recorder
            if config.flight_recorder is not None
            else NULL_FLIGHT_RECORDER
        )
        #: StreamEvents of the most recent ``submit`` call (the flight
        #: recorder maps records onto device sub-batches through this).
        self.last_events: list = []
        m = self.metrics
        self._m_queries = m.counter(
            "engine_queries_total", "queries served, by operation",
            labels=("op",),
        )
        self._m_batches = m.counter(
            "engine_batches_total", "device batches dispatched, by operation",
            labels=("op",),
        )
        self._m_op_latency = m.histogram(
            "engine_op_latency_us",
            "measured host wall-clock per query, by operation",
            labels=("op",),
        )
        self._m_kernel_us = m.histogram(
            "gpusim_kernel_us",
            "simulated kernel time per device batch, by operation",
            labels=("op",),
        )
        #: the PCIe link feeding the simulated device (always modeled;
        #: the fault injector additionally guards its transfers).
        self._pcie = link_for_device(config.device.name)
        #: pipelined dispatch clock — the async ``submit``/``drain``
        #: surface accounts every batch here.  The GRT baseline's
        #: synchronous API pins it to one stream regardless of config.
        self.streams = StreamScheduler(
            config.streams if api == "cuda" else 1, metrics=self.metrics
        )

    @contextmanager
    def _timed_op(self, op: str, n: int):
        """Span + per-query latency accounting around one public op."""
        t0 = time.perf_counter()
        with self.tracer.span(f"engine.{op}", {"n": n}):
            yield
        if n > 0:
            dt_us = (time.perf_counter() - t0) * 1e6
            self._m_op_latency.labels(op=op).observe(dt_us / n, n)

    @property
    def device_health(self):
        """Circuit-breaker state (:class:`repro.host.resilience.DeviceHealth`)
        of this engine's device, or ``None`` when no resilience policy is
        configured.  The serving front-end layers its admission control
        on this: an open circuit shrinks the effective queue bound so
        backpressure engages before degraded CPU serving piles up
        latency."""
        d = getattr(self, "_dispatcher", None)
        return d.health if d is not None else None

    def publish_tree_stats(self):
        """Publish the index's ART shape (node/leaf populations,
        prefix-length histogram, depth) into the metrics registry as
        ``art_*`` gauges, computed from :meth:`items` when called.
        O(index) — call at snapshot time, not per batch.  Returns the
        :class:`~repro.art.stats.TreeStats`."""
        from repro.art.stats import collect_stats, publish_stats

        items = self.items()
        tree = bulk_load([k for k, _ in items], [v for _, v in items])
        stats = collect_stats(tree.root)
        publish_stats(self.metrics, stats)
        return stats

    def populate(self, items: Iterable[tuple[bytes, int]]) -> None:
        """Add ``(key, value)`` pairs to the index (stage 1); duplicate
        keys collapse last-wins, like repeated inserts."""
        items = list(items)
        with self._timed_op("populate", len(items)):
            self._populate(items)

    # -- shared batching ---------------------------------------------------
    def _coalesce_stream(self, keys: Sequence[bytes]):
        """Bulk-encode one query stream and slice it into batch views.

        This is the single shared width-scan / encode / batch block that
        every batched operation (lookup, update, insert, delete, for both
        engines) dispatches through.
        """
        mat, lens = self._encode(keys)
        return coalesce_encoded(mat, lens, self.batch_size), mat.shape[1]

    def _encode(self, keys: Sequence[bytes]):
        with self.tracer.span("encode", {"n": len(keys)}):
            return keys_to_matrix(keys)

    # -- async dispatch ----------------------------------------------------
    def submit(self, kind: str, payloads: Sequence) -> BatchResult:
        """Asynchronously dispatch one coalesced op-class batch.

        The pipelined counterpart of calling :meth:`lookup` /
        :meth:`update` / :meth:`delete` / :meth:`insert` directly: the
        operation executes eagerly (results are exact and immediately
        available), while its simulated timeline — PCIe staging, kernel,
        return DMA — is accounted against the double-buffered
        :class:`~repro.gpusim.streams.StreamScheduler`, so batch *i+1*'s
        host→device staging overlaps batch *i*'s kernel.  Call
        :meth:`drain` to close the submit window and read the overlap
        statistics.  ``payloads`` are keys for ``lookup``/``delete`` and
        ``(key, value)`` pairs for ``update``/``insert``.
        """
        op = getattr(self, kind, None)
        if kind not in ("lookup", "update", "delete", "insert") or op is None:
            raise ReproError(
                f"cannot submit {kind!r} batches to {type(self).__name__}"
            )
        result = op(payloads)
        rep = self.last_report
        events: list = []
        if rep is not None and rep.operation == kind and rep.batches > 0:
            if kind in ("update", "insert"):
                width = max((len(k) for k, _ in payloads), default=1)
                width += 8  # the value word rides with each key
            else:
                width = max((len(k) for k in payloads), default=1)
            per_batch_q = max(rep.queries // rep.batches, 1)
            h2d_s, d2h_s = self._pcie.batch_transfer_times(per_batch_q, width)
            for _ in range(rep.batches):
                events.append(self.streams.submit(
                    kind, h2d_s=h2d_s, kernel_s=rep.kernel_s_per_batch,
                    d2h_s=d2h_s,
                ))
        self.last_events = events
        return result

    def drain(self) -> StreamOverlapStats:
        """Close the current submit window: wait (in simulated time) for
        every in-flight batch and return the accumulated
        :class:`~repro.gpusim.streams.StreamOverlapStats`."""
        return self.streams.drain()

    # -- reporting ---------------------------------------------------------
    def _report(
        self, operation: str, queries: int, batches: int, logs: list[TransactionLog],
        key_bytes: int,
    ) -> EngineReport:
        total_tx = sum(log.total_transactions for log in logs)
        total_bytes = sum(log.total_bytes for log in logs)
        timings = [self.cost_model.kernel_time(log) for log in logs]
        self._m_queries.labels(op=operation).inc(queries)
        self._m_batches.labels(op=operation).inc(batches)
        if timings:
            mk = self._m_kernel_us.labels(op=operation)
            for t in timings:
                mk.observe(t.total_s * 1e6)
            if self.tracer.enabled:
                # one synthetic gpu-sim span per batch, placed inside the
                # dispatching host span, so the chrome trace shows the
                # simulated kernel time beneath the host pipeline
                for log, t in zip(logs, timings):
                    self.tracer.emit_simulated(
                        f"sim:{operation}", t.total_s, kernel_span_args(log, t)
                    )
        if timings:
            kernel_s = float(np.mean([t.total_s for t in timings]))
        else:  # empty operation: charge the bare launch overhead
            kernel_s = self.device.launch_overhead_s
        per_batch_q = max(queries // max(batches, 1), 1)
        kernel_mops = per_batch_q / kernel_s / 1e6
        cfg = DispatchConfig(
            batch_size=self.batch_size,
            host_threads=self.host_threads,
            key_bytes=key_bytes,
            api=self.api,
        )
        pipe = pipeline_throughput(kernel_s, cfg, self.device, self.cpu)
        report = EngineReport(
            operation=operation,
            queries=queries,
            batches=batches,
            kernel_s_per_batch=kernel_s,
            kernel_mops=kernel_mops,
            end_to_end_mops=pipe.throughput_mops,
            binding_constraint=timings[0].binding_constraint if timings else "-",
            pipeline_bottleneck=pipe.bottleneck.name,
            transactions_per_query=total_tx / max(queries, 1),
            bytes_per_query=total_bytes / max(queries, 1),
        )
        self.last_report = report
        return report


class CuartEngine(_EngineBase):
    """The paper's system: CuART layout + kernels + async CUDA pipeline.

    >>> eng = CuartEngine()
    >>> eng.populate([(b'key-a\\x00', 1), (b'key-b\\x00', 2)])
    >>> eng.map_to_device()
    >>> eng.lookup([b'key-a\\x00', b'missing\\x00'])
    [1, None]
    """

    def __init__(
        self, config: Optional[EngineConfig] = None, **kwargs
    ) -> None:
        """Accepts either a prebuilt :class:`EngineConfig` or its fields
        as keyword arguments (see :class:`repro.host.config.EngineConfig`
        for every knob).

        ``spare`` over-allocates the device buffers so :meth:`insert`
        can place new keys without an immediate re-map (the §5.1
        device-side insert path).  ``cache_size`` > 0 enables the
        hot-key LRU result cache (:class:`repro.host.cache.HotKeyCache`).
        ``faults`` + ``resilience`` activate the fault-injection /
        retry-degrade stack (:mod:`repro.gpusim.faults`,
        :mod:`repro.host.resilience`)."""
        super().__init__(config, api="cuda", **kwargs)
        config = self.config
        self.root_table_depth = config.root_table_depth
        self.long_keys = config.long_keys
        self.hash_slots = config.hash_slots
        self.hash_table = config.hash_table
        self.spare = config.spare
        self.layout: Optional[CuartLayout] = None
        self.root_table: Optional[RootTable] = None
        self.cache: Optional[HotKeyCache] = (
            HotKeyCache(config.cache_size, metrics=self.metrics)
            if config.cache_size else None
        )
        # fault-tolerance plumbing: a deterministic injector (mechanism)
        # and a retry/degrade dispatcher (policy), both optional
        faults = config.faults
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults, metrics=self.metrics)
            if faults is not None and faults.enabled else None
        )
        self._dispatcher: Optional[ResilientDispatcher] = (
            ResilientDispatcher(
                config.resilience, metrics=self.metrics, tracer=self.tracer,
                flight=self.flight,
            )
            if config.resilience is not None else None
        )
        #: content not yet on the device: a populate awaiting
        #: map_to_device (the layout, if any, is invalidated meanwhile).
        self._plan: Optional[BulkPlan] = None
        #: degraded writes ran on the host-resident buffers while the
        #: device was unreachable; re-map as soon as it is healthy.
        self._needs_remap = False
        self._init_buffer_gauges()

    def _init_buffer_gauges(self) -> None:
        # device-buffer shape gauges, refreshed after every write batch
        m = self.metrics
        self._g_nodes = m.gauge(
            "device_nodes_live", "live inner-node records per type",
            labels=("type",),
        )
        self._g_leaves = m.gauge(
            "device_leaves_live", "live leaf records per type",
            labels=("type",),
        )
        self._g_free = m.gauge(
            "device_free_list_depth", "recycled slots awaiting reuse",
            labels=("type",),
        )
        self._m_growths = m.counter(
            "device_buffer_growths_total",
            "in-place device buffer growths (capacity-pressure recovery)",
            labels=("buffer",),
        )
        self._m_recoveries = m.counter(
            "resilience_recoveries_total",
            "successful recovery interventions, by kind",
            labels=("kind",),
        )
        self._gauge_children = None
        #: monotonic device-layout version: bumped every time a freshly
        #: mapped layout is adopted (map / remap / recovery).  The
        #: memtable's snapshot epoch tracks compaction installs; this
        #: tracks wholesale layout swaps — together they version every
        #: way the device state can move under a reader.
        self.layout_epoch = 0
        self._g_layout_epoch = m.gauge(
            "device_layout_epoch",
            "monotonic version of the adopted device layout",
        )
        # kernel engines are layout-bound; cached so repeated update /
        # insert / delete calls reuse one conflict hash table instead of
        # re-allocating it per call (see AtomicMaxHashTable.reset).  Keyed
        # by (class, host): host=True engines run without the fault
        # injector, on the host-resident buffers (degraded serving).
        self._kernels: dict = {}
        self._delete_table = None

    # -- stage 1: populate / content -----------------------------------------
    def _populate(self, items: list) -> None:
        """Validate, encode and plan the pairs — merged over the current
        content, the new pairs winning — without building host nodes.
        A mapped layout is invalidated until :meth:`map_to_device`."""
        if not items:
            return
        rows = encode_items([k for k, _ in items], [v for _, v in items])
        self._plan = plan_from_matrix(
            *concat_rows([self._content_rows(), rows]), last_wins=True
        )
        if self.layout is not None:
            self.layout.invalidate()

    def _content_rows(self):
        """The index content as ``(mat, lens, values)`` rows."""
        if self._plan is not None:
            p = self._plan
            return p.mat, p.lens, p.values
        if self.layout is not None:
            return self.layout.live_rows()
        return concat_rows([])

    def __len__(self) -> int:
        return int(self._content_rows()[1].size)

    def items(self) -> list[tuple[bytes, int]]:
        """Every live ``(key, value)`` pair in key order, read from the
        device layout (or from a populate still awaiting its map)."""
        mat, lens, values = self._content_rows()
        order = sort_rows(mat, lens).tolist()
        lens_l = lens.tolist()
        vals_l = values.tolist()
        return [(mat[i, : lens_l[i]].tobytes(), vals_l[i]) for i in order]

    def contains(self, key: bytes) -> bool:
        """Membership of one key against the index content — cheap
        enough for the executors' per-key store-to-load forwarding
        probes: a scalar walk of the flat layout (see :meth:`peek`)."""
        if self._plan is not None:
            return self._plan.get(key) is not None
        return self.layout is not None and self.layout.get(key) is not None

    def peek(self, keys: Sequence[bytes]) -> list[Optional[int]]:
        """Values of ``keys`` (``None`` for a miss) read on the host from
        the flat layout: no device batch is dispatched or reported.

        A few keys walk the buffers one by one
        (:meth:`repro.cuart.layout.CuartLayout.get`); more run one
        :func:`cpu_lookup_flat` pass, whose fixed cost a handful of
        scalar walks undercut."""
        if self._plan is not None:
            return [self._plan.get(k) for k in keys]
        layout = self.layout
        if layout is None:
            return [None] * len(keys)
        if len(keys) < _PEEK_BATCH_MIN:
            return [layout.get(k) for k in keys]
        res = cpu_lookup_flat(layout, *keys_to_matrix(keys))
        return values_to_list(
            res.values, layout.resolve_host(res.host_refs, keys)
        )

    # -- stage 2: map -------------------------------------------------------
    def _next_plan(self) -> BulkPlan:
        """What the next mapping builds: the pending populate, else the
        live content of the current layout."""
        if self._plan is not None:
            return self._plan
        return plan_from_matrix(*self._content_rows())

    def _map_once(
        self, plan: Optional[BulkPlan] = None, *, guard: bool = True
    ) -> CuartLayout:
        """One mapping pass: build the device layout from ``plan`` (by
        default :meth:`_next_plan`) and charge its allocation against the
        fault injector (``guard=False``: a host-side build while the
        device is unreachable)."""
        layout = CuartLayout(
            self._next_plan() if plan is None else plan,
            long_keys=self.long_keys, spare=self.spare,
        )
        if guard:
            allocation_guard(
                layout.device_bytes(), "mapped layout",
                injector=self._injector, op="map",
            )
        return layout

    def _adopt_layout(self, layout: CuartLayout) -> None:
        self.layout = layout
        self._plan = None
        if self.root_table_depth is not None:
            self.root_table = RootTable(layout, k=self.root_table_depth)
        else:
            self.root_table = None
        self._kernels = {}
        self._needs_remap = False
        self.layout_epoch += 1
        self._g_layout_epoch.set(self.layout_epoch)
        if self.cache is not None:
            self.cache.clear()
        self._refresh_device_gauges()

    def map_to_device(self) -> None:
        """Map the index content into fresh device buffers (stage 2),
        rebuilding the compacted root table if configured.

        With resilience configured, transient allocation faults are
        retried; mapping never degrades (there is no CPU fallback for
        not having device buffers)."""
        self._map(self._next_plan())

    def _map(self, plan: BulkPlan) -> None:
        with self.tracer.span("engine.map_to_device", {"keys": plan.n}):
            if self._dispatcher is not None:
                layout, _ = self._dispatcher.run(
                    "map", lambda: self._map_once(plan), degrade=False
                )
            else:
                layout = self._map_once(plan)
            self._adopt_layout(layout)

    def _refresh_device_gauges(self) -> None:
        """Publish the device buffers' live populations and free-list
        depths (O(#types) — called after every write batch, so the label
        children are resolved once and cached)."""
        layout = self.layout
        if layout is None:
            return
        pop = layout.live_populations()
        cached = self._gauge_children
        if cached is None:
            cached = self._gauge_children = {
                section: {
                    code: family.labels(type=LINK_TYPE_NAMES[code])
                    for code in pop[section]
                }
                for section, family in (
                    ("nodes", self._g_nodes),
                    ("leaves", self._g_leaves),
                    ("free_nodes", self._g_free),
                    ("free_leaves", self._g_free),
                )
            }
        for section, children in cached.items():
            for code, n in pop[section].items():
                children[code].set(n)

    def _require_layout(self) -> CuartLayout:
        if self.layout is None:
            raise ReproError("call map_to_device() after populating")
        if (
            self._needs_remap
            and self._dispatcher is not None
            and self._dispatcher.health.healthy
        ):
            # degraded writes left the device behind; catch it up now
            # that the device is (believed) healthy again
            self.map_to_device()
        return self.layout

    # -- resilience plumbing -------------------------------------------------
    def _recover(self, exc: ReproError) -> bool:
        """Recovery callback for non-transient dispatch errors: re-map on
        a stale layout, grow the conflict hash table on genuine capacity
        pressure.  Returns True when the dispatch should be repeated."""
        try:
            if isinstance(exc, StaleLayoutError):
                self._adopt_layout(self._map_once())
                self._m_recoveries.labels(kind="remap").inc()
                return True
            if isinstance(exc, HashTableFullError):
                need = int(exc.context.get("occupied") or 0) + int(
                    exc.context.get("requested") or 0
                )
                new_slots = max(self.hash_slots * 2, _next_pow2(need))
                if new_slots > self._dispatcher.policy.max_hash_slots:
                    return False
                self.hash_slots = new_slots
                self._kernels = {}
                self._delete_table = None
                self._m_growths.labels(buffer="hash-table").inc()
                self._m_recoveries.labels(kind="hash-grow").inc()
                return True
        except DeviceFault:
            return False  # the recovery itself hit a fault: give up
        return False

    def _probe_device(self, op: str) -> bool:
        """While the circuit is open, periodically probe the device; on
        success, re-map if needed and close the circuit."""
        disp = self._dispatcher
        if not disp.due_probe():
            return False
        disp.record_probe()
        try:
            launch_kernel("probe", 1, injector=self._injector)
            if self._needs_remap:
                self._adopt_layout(self._map_once())
        except DeviceFault:
            return False
        disp.health.recover()
        self._m_recoveries.labels(kind="probe").inc()
        return True

    def _device_batch(self, op: str, call, *, n: int, h2d_bytes: int):
        """Dispatch one guarded device batch under the resilience policy.

        Returns ``(kernel_result, attempts)``; ``kernel_result`` is
        ``None`` when the batch must be served by the CPU path (retries
        exhausted, or circuit open and the probe failed).  Without a
        resilience policy, faults propagate to the caller.
        """
        injector = self._injector
        disp = self._dispatcher
        if disp is None and injector is None:
            # fast path: no faults to guard against, no policy to consult
            return call(), 1

        def guarded():
            # both PCIe guards fire before the kernel (the return DMA
            # descriptor is reserved at launch) so a fault always
            # precedes any device mutation — a retry replays the
            # identical batch against unchanged state, which keeps
            # non-idempotent kernels (delete, insert) exactly-once
            if injector is not None:
                self._pcie.transfer(
                    h2d_bytes, direction="h2d", injector=injector, op=op
                )
                self._pcie.transfer(
                    8 * n, direction="d2h", injector=injector, op=op
                )
            return call()

        if disp is None:
            return guarded(), 1
        if not disp.health.healthy and not self._probe_device(op):
            return None, 0
        return disp.run(op, guarded, recover=self._recover)

    # -- degraded (CPU) serving ----------------------------------------------
    def _host_layout(self) -> CuartLayout:
        """The layout the CPU path serves from: a populate still waiting
        for its map is built host-side first (the device catches up on
        recovery)."""
        if self._plan is not None:
            self._adopt_layout(self._map_once(guard=False))
            self._needs_remap = True
        return self.layout

    def _degraded(self, op: str, kernel, batch: QueryBatch):
        """Run one write batch's kernel on the host-resident buffers, with
        no fault injector: the layout stays the only copy of the index,
        and the device re-maps from it once healthy."""
        self._dispatcher.note_degraded(op)
        self._host_layout()
        self._needs_remap = True
        return kernel(batch, True)

    def _tracking(self, n: int):
        """Per-row ``(attempts, degraded)`` vectors; both None without a
        resilience policy (the lazy-status fast path)."""
        if self._dispatcher is None:
            return None, None
        return np.ones(n, dtype=np.int32), np.zeros(n, dtype=bool)

    @staticmethod
    def _status(found, attempts, degraded):
        if attempts is None:
            return None
        return status_codes(found, attempts=attempts, degraded=degraded)

    def _write_batches(
        self, op: str, kernel, batches, logs, attempts, degraded,
        value_bytes: int,
    ):
        """Dispatch write batches under the resilience policy, yielding
        ``(batch, result, on_device)`` with logs, attempts and degraded
        flags booked.  Capacity pressure the growth recovery could not
        absorb halves a batch (fewer distinct keys contend for the
        conflict table) down to single rows, which degrade; a degraded
        batch runs ``kernel`` on the host-resident buffers."""
        disp = self._dispatcher
        queue = deque(batches)
        while queue:
            batch = queue.popleft()
            try:
                res, att = self._device_batch(
                    op, lambda b=batch: kernel(b), n=batch.size,
                    h2d_bytes=batch.keys_mat.nbytes
                    + value_bytes * batch.size,
                )
            except HashTableFullError:
                if disp is None:
                    raise
                if batch.size > 1:
                    queue.extendleft(reversed(split_batch(batch)))
                    continue
                if not disp.policy.allow_degrade:
                    raise
                res, att = None, 0
            on_device = res is not None
            if on_device:
                logs.append(res.log)
            else:
                res = self._degraded(op, kernel, batch)
                degraded[batch.origin] = True
            if attempts is not None:
                attempts[batch.origin] = att
            yield batch, res, on_device

    # -- stage 3: queries ----------------------------------------------------
    def _lookup_dispatch(self, keys: Sequence[bytes], encoded=None):
        """Run one lookup stream through the kernels (CPU-serving the
        batches the resilience layer degrades); returns the raw value
        vector, host-leaf resolutions, device batch count, width, logs
        and the per-query attempt/degraded vectors.  ``encoded`` passes
        an already-encoded ``(mat, lens)`` pair for the same keys to
        skip a second encoding pass."""
        if encoded is None:
            batches, width = self._coalesce_stream(keys)
        else:
            mat, lens = encoded
            batches = coalesce_encoded(mat, lens, self.batch_size)
            width = mat.shape[1]
        values = np.full(len(keys), np.uint64(NIL_VALUE), dtype=np.uint64)
        refs = np.full(len(keys), -1, dtype=np.int64)
        # attempt/degraded tracking only exists under a resilience policy;
        # the fast path returns None vectors (BatchResult defaults apply)
        attempts, degraded = self._tracking(len(keys))
        logs = []
        n_dev_batches = 0
        for batch in batches:
            def call(b=batch):
                # resolve layout / root table at call time: a mid-stream
                # recovery re-map must be visible to the retry
                return lookup_batch(
                    self.layout, b.keys_mat, b.key_lens,
                    root_table=self.root_table, injector=self._injector,
                )
            res, att = self._device_batch(
                "lookup", call, n=batch.size, h2d_bytes=batch.keys_mat.nbytes
            )
            if res is None:
                # degraded: the same kernel on the CPU, over the flat
                # layout (§4.2 — it is the better CPU structure too)
                self._dispatcher.note_degraded("lookup")
                res = cpu_lookup_flat(
                    self._host_layout(), batch.keys_mat, batch.key_lens
                )
                degraded[batch.origin] = True
            else:
                logs.append(res.log)
                n_dev_batches += 1
            values[batch.origin] = res.values
            refs[batch.origin] = res.host_refs
            if attempts is not None:
                attempts[batch.origin] = att
        # long keys stored via HOST_LINK: the CPU resolves the host-leaf
        # signals (rare rows only)
        overrides = self.layout.resolve_host(refs, keys)
        return values, overrides, n_dev_batches, width, logs, attempts, degraded

    def lookup(self, keys: Sequence[bytes]) -> BatchResult:
        """Batched exact lookups; the result lists values (``None`` for
        misses) and carries per-query :class:`OpStatus` codes.

        Long keys stored via :attr:`LongKeyStrategy.HOST_LINK` come back
        after the CPU resolves the device's host-leaf signals.  With the
        result cache enabled, hot keys are served from the host LRU and
        only cold keys reach the kernels.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        with self._timed_op("lookup", len(keys)):
            return self._lookup(keys)

    @staticmethod
    def _lookup_result(values, overrides, attempts, degraded) -> BatchResult:
        found = values != np.uint64(NIL_VALUE)
        for pos, val in overrides.items():
            found[pos] = val is not None
        if attempts is None and degraded is None:
            # fast path: nothing retried or degraded, status is lazy
            return BatchResult(
                "lookup", found=found, values=values, overrides=overrides,
            )
        status = status_codes(found, attempts=attempts, degraded=degraded)
        return BatchResult(
            "lookup", found=found, values=values, overrides=overrides,
            status=status, attempts=attempts,
        )

    def _lookup(self, keys) -> BatchResult:
        layout = self._require_layout()
        if self._dispatcher is None:
            # no resilience: surface staleness immediately (the kernels
            # check too; this keeps the error at the call site).  With a
            # dispatcher the kernel-level check routes through recovery.
            layout.check_fresh()
        if self.cache is None:
            values, overrides, n_batches, width, logs, attempts, degraded = (
                self._lookup_dispatch(keys)
            )
            self._report("lookup", len(keys), n_batches, logs, width)
            return self._lookup_result(values, overrides, attempts, degraded)
        # Hot-key cache path: hot keys repeat by definition, so dedupe
        # the stream first and probe the LRU once per *distinct* key;
        # only cold distinct keys reach the kernels.  A dict over the
        # raw bytes keys beats encoding the whole stream: bytes objects
        # cache their hash, so a repeat costs one dict probe and the
        # encoder only ever sees the cold distinct keys.
        idx_of: dict = {}
        setdef = idx_of.setdefault
        inverse = np.array(
            [setdef(k, len(idx_of)) for k in keys], dtype=np.int64
        )
        uniq_keys = list(idx_of)
        if len(keys) > len(uniq_keys):
            # repeats collapsed by the in-call dedup are cache hits: the
            # hot-key tier (this dict plus the LRU) serves them without
            # touching the device; routed through the cache's accounting
            # API so registry, stats view and BENCH JSON always agree
            self.cache.record_dedup_hits(len(keys) - len(uniq_keys))
        values = np.full(len(uniq_keys), np.uint64(NIL_VALUE), dtype=np.uint64)
        track = self._dispatcher is not None
        attempts_u = np.ones(len(uniq_keys), dtype=np.int32) if track else None
        degraded_u = np.zeros(len(uniq_keys), dtype=bool) if track else None
        overrides: dict[int, Optional[int]] = {}
        miss_pos: list[int] = []
        get = self.cache.get
        for j, k in enumerate(uniq_keys):
            hit, val = get(k)
            if not hit:
                miss_pos.append(j)
            elif type(val) is int:
                values[j] = val
            elif val is not None:
                overrides[j] = val
        n_batches, width, logs = 0, 1, []
        if miss_pos:
            miss_keys = [uniq_keys[j] for j in miss_pos]
            mvals, movr, n_batches, width, logs, m_att, m_deg = (
                self._lookup_dispatch(miss_keys)
            )
            pos_arr = np.asarray(miss_pos)
            values[pos_arr] = mvals
            if track:
                attempts_u[pos_arr] = m_att
                degraded_u[pos_arr] = m_deg
            put = self.cache.put
            for k, v in zip(miss_keys, values_to_list(mvals, movr)):
                put(k, v)
            for p, val in movr.items():
                overrides[miss_pos[p]] = val
        out_vals = values[inverse]
        out_ovr: dict[int, Optional[int]] = {}
        for j, val in overrides.items():
            for pos in np.flatnonzero(inverse == j):
                out_ovr[int(pos)] = val
        self._report("lookup", len(keys), n_batches, logs, width)
        return self._lookup_result(
            out_vals, out_ovr,
            attempts_u[inverse] if track else None,
            degraded_u[inverse] if track else None,
        )

    def _write_engine(self, cls, host: bool = False):
        """The layout-bound :class:`UpdateEngine` / :class:`InsertEngine`,
        rebuilt after a re-map or a hash-table growth (both drop the
        cache).  ``host`` selects the injector-free degraded copy."""
        layout = self.layout
        engine = self._kernels.get((cls, host))
        if engine is None or engine.layout is not layout:
            engine = self._kernels[(cls, host)] = cls(
                layout, root_table=self.root_table,
                hash_slots=self.hash_slots, hash_table=self.hash_table,
                metrics=self.metrics,
                injector=None if host else self._injector,
            )
        return engine

    def update(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        """Batched value updates (section 3.4); the result lists found
        flags and carries per-query :class:`OpStatus` codes.

        Within a batch, later items win conflicts on the same key (the
        paper's thread-index priority).
        """
        items = list(items) if not isinstance(items, (list, tuple)) else items
        with self._timed_op("update", len(items)):
            return self._update(items)

    def _update(self, items) -> BatchResult:
        self._require_layout()
        keys = list(map(itemgetter(0), items))
        values = np.fromiter(
            map(itemgetter(1), items), dtype=np.uint64, count=len(items)
        )
        batches, width = self._coalesce_stream(keys)
        found = np.zeros(len(items), dtype=bool)
        attempts, degraded = self._tracking(len(items))
        logs: list = []

        def kernel(b, host=False):
            return self._write_engine(UpdateEngine, host).apply(
                b.keys_mat, b.key_lens, values[b.origin]
            )

        for batch, res, _ in self._write_batches(
            "update", kernel, batches, logs, attempts, degraded, 8
        ):
            found[batch.origin] = res.found
        cache = self.cache
        if cache is not None:
            for (k, v), hit in zip(items, found.tolist()):
                if hit:
                    cache.update_if_cached(k, v)
        self._report("update", len(items), len(logs), logs, width)
        self._refresh_device_gauges()
        return BatchResult(
            "update", found=found, attempts=attempts,
            status=self._status(found, attempts, degraded),
        )

    def insert(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        """Batched inserts: device-side where the buffers allow it
        (section 5.1 path via :class:`repro.cuart.insert.InsertEngine`),
        a re-map for the structurally hard remainder.

        The result's :attr:`BatchResult.summary` carries
        ``{"device_inserted", "updated", "deferred", "remapped"}``.
        With resilience configured, capacity-exhausted buffers are grown
        in place and only the deferred rows are re-dispatched before
        falling back to a re-map.  The re-map builds from the layout's
        live leaves overlaid with every item of the call (the last item
        per key wins), so no item is lost whichever rows deferred.
        """
        items = list(items) if not isinstance(items, (list, tuple)) else items
        with self._timed_op("insert", len(items)):
            return self._insert(items)

    def _grow_for_pressure(self) -> bool:
        """Capacity-pressure recovery: grow every exhausted device
        buffer in place (§5.1 "sophisticated buffer management").
        Returns True when at least one buffer grew."""
        layout = self.layout
        disp = self._dispatcher
        grew = False
        exhausted = [
            (code, True) for code in LEAF_TYPE_CODES
            if layout.spare_leaf_slots(code) == 0
        ] + [
            (code, False) for code in NODE_TYPE_CODES
            if layout.spare_node_slots(code) == 0
        ]
        for code, is_leaf in exhausted:
            name = LINK_TYPE_NAMES[code]

            def grow(code=code, is_leaf=is_leaf, name=name):
                extra = max(layout.node_count(code), 8)
                allocation_guard(
                    extra * layout.node_record_bytes[code], f"{name} buffer",
                    injector=self._injector, op="insert",
                )
                if is_leaf:
                    return layout.grow_leaf_buffer(code)
                return layout.grow_node_buffer(code)

            added, _ = disp.run("grow", grow)
            if added is not None:
                grew = True
                self._m_growths.labels(buffer=name).inc()
                self._m_recoveries.labels(kind="buffer-grow").inc()
        return grew

    def _insert(self, items) -> BatchResult:
        self._require_layout()
        keys = list(map(itemgetter(0), items))
        values = np.fromiter(
            map(itemgetter(1), items), dtype=np.uint64, count=len(items)
        )
        mat, lens = self._encode(keys)
        width = mat.shape[1]
        logs: list = []
        n_ins = n_upd = 0
        disp = self._dispatcher
        attempts, degraded = self._tracking(len(items))
        def_mask = np.zeros(len(items), dtype=bool)

        def kernel(b, host=False):
            return self._write_engine(InsertEngine, host).apply(
                b.keys_mat, b.key_lens, values[b.origin]
            )

        for batch, res, on_device in self._write_batches(
            "insert", kernel, coalesce_encoded(mat, lens, self.batch_size),
            logs, attempts, degraded, 8,
        ):
            n_ins += res.n_inserted
            n_upd += res.n_updated
            def_mask[batch.origin] = res.deferred
            if on_device and res.n_deferred and disp is not None \
                    and self._grow_for_pressure():
                # partial replay: only the deferred rows re-dispatch
                # against the grown buffers (dedup winners et al. stay)
                rows = np.flatnonzero(res.deferred)
                sub = QueryBatch(
                    keys_mat=batch.keys_mat[rows],
                    key_lens=batch.key_lens[rows],
                    origin=batch.origin[rows],
                )
                prior = attempts[sub.origin]
                for b2, res2, _ in self._write_batches(
                    "insert", kernel, [sub], logs, attempts, degraded, 8
                ):
                    n_ins += res2.n_inserted
                    n_upd += res2.n_updated
                    def_mask[b2.origin] = res2.deferred
                attempts[sub.origin] += prior
        cache = self.cache
        if cache is not None:
            for k in keys:
                # deferred rows are invisible to the kernels until the
                # re-map, so refresh from the device on next lookup
                cache.invalidate(k)
        n_def = int(def_mask.sum())
        remapped = False
        if n_def:
            # the re-map's content: live leaves overlaid with every item
            # of this call — not only the deferred rows, since a
            # same-key duplicate's loser is deferred too and the last
            # item must still win
            plan = plan_from_matrix(
                *concat_rows([self.layout.live_rows(), (mat, lens, values)]),
                last_wins=True,
            )
            if disp is not None and not disp.health.healthy:
                # device unreachable: build on the host, upload on recovery
                self._adopt_layout(self._map_once(plan, guard=False))
                self._needs_remap = True
            else:
                self._map(plan)
                remapped = True
        self._report("insert", len(items), max(len(logs), 1), logs, width)
        self._refresh_device_gauges()
        found = np.ones(len(items), dtype=bool)
        return BatchResult(
            "insert", found=found, attempts=attempts,
            status=self._status(found, attempts, degraded),
            summary={
                "device_inserted": n_ins,
                "updated": n_upd,
                "deferred": n_def,
                "remapped": remapped,
            },
        )

    def delete(self, keys: Sequence[bytes]) -> BatchResult:
        """Batched device-side deletions (section 3.3); the result lists
        deleted flags and carries per-query :class:`OpStatus` codes."""
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        with self._timed_op("delete", len(keys)):
            return self._delete(keys)

    def _delete(self, keys) -> BatchResult:
        self._require_layout()
        batches, width = self._coalesce_stream(keys)
        deleted = np.zeros(len(keys), dtype=bool)
        attempts, degraded = self._tracking(len(keys))
        logs: list = []

        def kernel(b, host=False):
            if self._delete_table is None:
                # share the updater's conflict table when sizes match:
                # batches run serially and both sides reset between
                # uses, so one allocation serves every write class
                shared = getattr(
                    self._kernels.get((UpdateEngine, False)), "_table", None
                )
                if (shared is not None
                        and shared.slots == self.hash_slots
                        and shared.variant == self.hash_table):
                    self._delete_table = shared
                else:
                    self._delete_table = make_conflict_table(
                        self.hash_slots, variant=self.hash_table
                    )
            return delete_batch(
                self.layout, b.keys_mat, b.key_lens,
                root_table=self.root_table, hash_slots=self.hash_slots,
                hash_table=self.hash_table, table=self._delete_table,
                metrics=self.metrics,
                injector=None if host else self._injector,
            )

        for batch, res, _ in self._write_batches(
            "delete", kernel, batches, logs, attempts, degraded, 0
        ):
            deleted[batch.origin] = res.deleted
        cache = self.cache
        if cache is not None:
            for k, hit in zip(keys, deleted.tolist()):
                if hit:
                    cache.update_if_cached(k, None)
        self._report("delete", len(keys), len(logs), logs, width)
        self._refresh_device_gauges()
        return BatchResult(
            "delete", found=deleted, attempts=attempts,
            status=self._status(deleted, attempts, degraded),
        )

    # -- persistence ---------------------------------------------------------
    def save(self, path) -> None:
        """Persist the mapped device buffers (``.npz``); see
        :mod:`repro.cuart.serialize`."""
        from repro.cuart.serialize import save_layout

        save_layout(self._require_layout(), path)

    @classmethod
    def load(cls, path, **engine_kwargs) -> "CuartEngine":
        """Rebuild an engine from a saved layout.

        The device buffers load directly and are adopted as they are —
        no populate, no mapping pass; a configured ``root_table_depth``
        gets its compacted root table built over them.
        """
        from repro.cuart.serialize import load_layout

        layout = load_layout(path)
        engine = cls(long_keys=layout.long_keys, **engine_kwargs)
        engine._adopt_layout(layout)
        return engine

    def range(self, lo: bytes, hi: bytes) -> list[tuple[bytes, int]]:
        """Inclusive range query over the ordered leaf buffers."""
        layout = self._require_layout()
        res = range_query(layout, lo, hi)
        self._report("range", max(len(res), 1), 1, [res.log], MAX_SHORT_KEY)
        return list(zip(res.keys, (int(v) for v in res.values)))

    def prefix(self, prefix: bytes) -> list[tuple[bytes, int]]:
        """Prefix query over the ordered leaf buffers."""
        layout = self._require_layout()
        res = prefix_query(layout, prefix)
        self._report("prefix", max(len(res), 1), 1, [res.log], MAX_SHORT_KEY)
        return list(zip(res.keys, (int(v) for v in res.values)))


class GrtEngine(_EngineBase):
    """The baseline: GRT single-buffer layout with synchronous dispatch.

    Shares :class:`EngineConfig` with :class:`CuartEngine`; the
    CuART-only knobs (root table, long keys, spare, cache, faults,
    resilience) are ignored here."""

    def __init__(
        self, config: Optional[EngineConfig] = None, **kwargs
    ) -> None:
        super().__init__(config, api="sync", **kwargs)
        #: the host ART the GRT layout is mapped from.
        self.tree = AdaptiveRadixTree()
        self.layout: Optional[GrtLayout] = None

    def _populate(self, items: list) -> None:
        """Empty trees take the vectorized bulk load (duplicate keys
        collapse last-wins); anything it rejects falls back to per-item
        inserts, which raise the canonical error."""
        if items and len(self.tree) == 0:
            try:
                self.tree = bulk_load(*zip(*dict(items).items()))
                return
            except (ReproError, TypeError, ValueError):
                pass
        for k, v in items:
            self.tree.insert(k, v)

    def __len__(self) -> int:
        return len(self.tree)

    def items(self) -> list[tuple[bytes, int]]:
        return list(self.tree.items())

    def contains(self, key: bytes) -> bool:
        return self.tree.search(key) is not None

    def peek(self, keys: Sequence[bytes]) -> list[Optional[int]]:
        return [self.tree.search(k) for k in keys]

    def map_to_device(self) -> None:
        self.layout = GrtLayout(self.tree)

    def _require_layout(self) -> GrtLayout:
        if self.layout is None:
            raise ReproError("call map_to_device() after populating")
        return self.layout

    def lookup(self, keys: Sequence[bytes]) -> BatchResult:
        layout = self._require_layout()
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        batches, width = self._coalesce_stream(keys)
        values = np.full(len(keys), np.uint64(NIL_VALUE), dtype=np.uint64)
        logs = []
        for batch in batches:
            res = grt_lookup_batch(layout, batch.keys_mat, batch.key_lens)
            logs.append(res.log)
            values[batch.origin] = res.values
        self._report("lookup", len(keys), len(batches), logs, width)
        found = values != np.uint64(NIL_VALUE)
        return BatchResult("lookup", found=found, values=values)

    def update(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        layout = self._require_layout()
        items = list(items) if not isinstance(items, (list, tuple)) else items
        keys = list(map(itemgetter(0), items))
        values = np.fromiter(
            map(itemgetter(1), items), dtype=np.uint64, count=len(items)
        )
        batches, width = self._coalesce_stream(keys)
        found = np.zeros(len(items), dtype=bool)
        logs = []
        for batch in batches:
            res = grt_update_batch(
                layout, batch.keys_mat, batch.key_lens, values[batch.origin]
            )
            logs.append(res.log)
            found[batch.origin] = res.found
        self._report("update", len(items), len(batches), logs, width)
        return BatchResult("update", found=found)

    def range(self, lo: bytes, hi: bytes) -> list[tuple[bytes, int]]:
        """Inclusive range via the in-order buffer scan (the GRT paper's
        point-and-range evaluation)."""
        from repro.grt.range import grt_range_query

        layout = self._require_layout()
        res = grt_range_query(layout, lo, hi)
        self._report("range", max(len(res), 1), 1, [res.log], MAX_SHORT_KEY)
        return list(zip(res.keys, (int(v) for v in res.values)))
