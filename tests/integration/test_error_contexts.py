"""Structured error context through the public API.

Every error the engine raises must carry machine-readable context
(``exc.context``) naming the op, the offending input and the saturated
buffer — and render it into the message — so operators can act on a
traceback without a debugger.
"""

from __future__ import annotations

import pytest

from repro.constants import MAX_SHORT_KEY, NIL_VALUE
from repro.cuart.layout import CuartLayout, LongKeyStrategy
from repro.cuart.lookup import lookup_batch
from repro.errors import (
    HashTableFullError,
    KeyEncodingError,
    KeyTooLongError,
    SimulationError,
    StaleLayoutError,
    TransientKernelError,
)
from repro.gpusim.faults import FaultConfig
from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine
from repro.util.keys import keys_to_matrix
from tests.conftest import int_keys, make_tree


def _mapped_engine(n=32, **kwargs):
    eng = CuartEngine(**kwargs)
    keys = int_keys(range(n))
    eng.populate([(k, i) for i, k in enumerate(keys)])
    eng.map_to_device()
    return eng, keys


class TestKeyTooLong:
    def test_map_time_context(self):
        eng = CuartEngine(long_keys=LongKeyStrategy.ERROR)
        long_key = b"x" * (MAX_SHORT_KEY + 3) + b"\x00"
        eng.populate([(long_key, 1)])
        with pytest.raises(KeyTooLongError) as ei:
            eng.map_to_device()
        ctx = ei.value.context
        assert ctx["key_len"] == len(long_key)
        assert ctx["max_len"] == MAX_SHORT_KEY
        assert ctx["strategy"] == "ERROR"
        # context renders into the human-readable message too
        assert "key_len=" in str(ei.value)


class TestStaleLayout:
    def test_versions_in_context(self):
        # the engine keeps no host tree, so staleness-by-version lives on
        # a layout mapped from a tree that then changes behind its back
        keys = int_keys(range(32))
        tree = make_tree((k, i) for i, k in enumerate(keys))
        layout = CuartLayout(tree)
        mapped_version = tree.version
        tree.insert(int_keys([10_000])[0], 1)
        with pytest.raises(StaleLayoutError) as ei:
            lookup_batch(layout, *keys_to_matrix(keys[:4]))
        ctx = ei.value.context
        assert ctx["mapped_version"] == mapped_version
        assert ctx["tree_version"] == tree.version
        assert ctx["tree_version"] > ctx["mapped_version"]
        assert ei.value.transient is False


class TestHashTableFull:
    def test_genuine_capacity_pressure_names_the_buffer(self):
        # 8 slots cannot dedup hundreds of distinct keys; without a
        # resilience policy the capacity error must surface structured
        eng, keys = _mapped_engine(n=500, hash_slots=8)
        with pytest.raises(HashTableFullError) as ei:
            eng.update([(k, 1) for k in keys])
        ctx = ei.value.context
        assert ctx["buffer"] == "hash-table"
        assert ctx["slots"] == 8
        assert ctx["occupied"] <= 8
        assert ctx["requested"] >= 1
        assert ei.value.transient is False  # genuine, not injected


class TestKeyEncoding:
    def test_non_bytes_key(self):
        eng = CuartEngine()
        with pytest.raises(KeyEncodingError) as ei:
            eng.populate([("not-bytes", 1)])
        assert ei.value.context["got"] == "str"

    def test_empty_key(self):
        eng = CuartEngine()
        with pytest.raises(KeyEncodingError) as ei:
            eng.populate([(b"", 1)])
        assert ei.value.context["key_len"] == 0

    def test_non_int_value(self):
        eng = CuartEngine()
        with pytest.raises(KeyEncodingError) as ei:
            eng.populate([(b"k\x00", "v")])
        assert ei.value.context["got"] == "str"

    def test_out_of_range_value(self):
        eng = CuartEngine()
        with pytest.raises(KeyEncodingError) as ei:
            eng.populate([(b"k\x00", NIL_VALUE)])
        assert ei.value.context["value"] == NIL_VALUE


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, bad",
        [
            ({"batch_size": 0}, 0),
            ({"host_threads": -1}, -1),
            ({"hash_slots": 100}, 100),
            ({"spare": -0.5}, -0.5),
            ({"cache_size": -1}, -1),
            ({"root_table_depth": 7}, 7),
        ],
    )
    def test_bad_value_lands_in_context(self, kwargs, bad):
        with pytest.raises(SimulationError) as ei:
            EngineConfig(**kwargs)
        assert ei.value.context["value"] == bad
        # the engine's kwargs form routes through the same validation
        with pytest.raises(SimulationError):
            CuartEngine(**kwargs)

    def test_unknown_kwarg_is_typeerror(self):
        # benchmarks feature-detect by catching TypeError; keep it
        with pytest.raises(TypeError):
            CuartEngine(no_such_option=1)

    def test_config_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            CuartEngine(EngineConfig(), batch_size=64)


class TestFaultsWithoutResilience:
    def test_device_fault_propagates_with_context(self):
        # injection configured but no policy: the pre-PR-4 contract is
        # that the fault surfaces at the call site, fully annotated
        eng, keys = _mapped_engine(
            faults=FaultConfig(kernel_abort_rate=1.0, seed=5)
        )
        with pytest.raises(TransientKernelError) as ei:
            eng.lookup(keys[:4])
        ctx = ei.value.context
        assert ctx["fault"] == "kernel_abort"
        assert ctx["op"] == "lookup"
        assert ei.value.transient
