"""Per-layer self time, measured from outside the program.

The traced run wraps the public entry points of each layer's module and
keeps, per layer, the time spent inside its entry points minus the time
of nested layers (self time).  Module-level functions are patched in
every loaded ``repro`` module that bound them by name (``from x import
f`` copies the binding: ``repro.host.engine.keys_to_matrix`` must be
wrapped, not only ``repro.util.keys.keys_to_matrix``).  Nothing inside
``src/`` is edited; :meth:`LayerClock.uninstall` restores every binding.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

_INHERITED = object()

#: layer -> entry points, as ``module:attr`` (function) or
#: ``module:Class.method``.  Order is reporting order.
LAYERS = {
    "keys": ["repro.util.keys:keys_to_matrix"],
    "lookup": ["repro.cuart.lookup:lookup_batch"],
    "gpusim": [
        "repro.gpusim.cost_model:CostModel.kernel_time",
        "repro.gpusim.streams:StreamScheduler.submit",
        "repro.gpusim.streams:StreamScheduler.drain",
        "repro.host.dispatcher:pipeline_throughput",
    ],
    "batching": [
        "repro.host.batching:OpClassCoalescer.add",
        "repro.host.batching:OpClassCoalescer.drain",
        "repro.host.batching:OpClassCoalescer.flush_due",
        "repro.host.batching:OpClassCoalescer.pending_kinds",
        "repro.host.batching:OpClassCoalescer.peek_oldest",
        "repro.host.batching:OpClassCoalescer.queue_len",
        "repro.host.batching:coalesce_encoded",
        "repro.host.batching:split_batch",
    ],
    "serve": [
        "repro.serve.core:ServerCore.offer",
        "repro.serve.core:ServerCore.poll",
        "repro.serve.core:ServerCore.flush",
        "repro.serve.core:ServerCore.next_deadline_us",
    ],
    "overlay": [
        "repro.host.overlay:WriteOverlay." + m for m in (
            "base_exists", "resolve_read", "read", "note_update",
            "note_delete", "note_insert", "snapshot", "forget",
            "forget_exists", "clear",
        )
    ],
    # the memtable's foreground path (absorb, pin/release, the debt
    # check) and its background merge-compaction are separate layers
    "memtable.absorb": [
        "repro.host.memtable:Memtable.absorb_update",
        "repro.host.memtable:Memtable.absorb_delete",
        "repro.host.memtable:Memtable.absorb_insert",
        "repro.host.memtable:Memtable.pin",
        "repro.host.memtable:Memtable.should_compact",
        "repro.host.memtable:MemtableSnapshot.release",
    ],
    "memtable.compact": ["repro.host.memtable:Memtable.compact"],
    "mixed": ["repro.host.mixed:MixedWorkloadExecutor.run"],
    "engine": [
        "repro.host.engine:CuartEngine." + m for m in (
            "populate", "map_to_device", "lookup", "update", "insert",
            "delete", "submit", "drain", "contains",
        )
    ],
    "update": ["repro.cuart.update:UpdateEngine.apply"],
    "insert": ["repro.cuart.insert:InsertEngine.apply"],
    "delete": ["repro.cuart.delete:delete_batch"],
    "layout": ["repro.cuart.layout:CuartLayout.__init__"],
    "art": [
        "repro.art.bulk:bulk_load",
        "repro.art.tree:AdaptiveRadixTree.insert",
        "repro.art.tree:AdaptiveRadixTree.delete",
        "repro.art.tree:AdaptiveRadixTree.search",
    ],
}


class LayerClock:
    """Self-time accounting over patched entry points.

    Counts that only the arguments or results of an entry point carry
    are gathered on the way through: transactions and bytes of every
    simulated kernel log, the stream windows each drain closes, and the
    batches the coalescer cuts.
    """

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.kernel_tx = 0
        self.kernel_bytes = 0
        self.windows: list = []
        self.coalesced_batches = 0
        self.coalesced_ops = 0
        self._stack: list = []
        self._undo: list = []

    # -- observers of arguments / results --------------------------------

    def _observe(self, spec: str):
        if spec.endswith("CostModel.kernel_time"):
            def seen(args, result):
                log = args[1]
                self.kernel_tx += log.total_transactions
                self.kernel_bytes += log.total_bytes
            return seen
        if spec.endswith("StreamScheduler.drain"):
            return lambda args, result: self.windows.append(result)
        if spec.split(":")[1] in (
            "OpClassCoalescer.add", "OpClassCoalescer.drain",
            "OpClassCoalescer.flush_due",
        ):
            def cut(args, result):
                for _, ops in result:
                    self.coalesced_batches += 1
                    self.coalesced_ops += len(ops)
            return cut
        return None

    def _wrap(self, layer: str, fn, observe):
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                self_s[layer] += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", "timed")
        return timed

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        for layer, specs in LAYERS.items():
            for spec in specs:
                mod_name, attr = spec.split(":")
                mod = importlib.import_module(mod_name)
                observe = self._observe(spec)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    # inherited methods (CuartEngine.populate lives on
                    # its base) are shadowed on the class itself
                    orig = next(k.__dict__[meth] for k in cls.__mro__
                                if meth in k.__dict__)
                    self._undo.append(
                        (cls, meth, cls.__dict__.get(meth, _INHERITED)))
                    setattr(cls, meth, self._wrap(layer, orig, observe))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(layer, orig, observe)
                for name, other in list(sys.modules.items()):
                    if name.split(".")[0] != "repro" or other is None:
                        continue
                    if getattr(other, attr, None) is orig:
                        self._undo.append((other, attr, orig))
                        setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if orig is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def __enter__(self) -> "LayerClock":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
