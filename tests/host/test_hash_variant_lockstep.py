"""Cross-variant lockstep: the bucketed conflict table is a pure device
cost optimization, so an engine configured with it must be outwardly
indistinguishable from the linear one — same results on the same seeded
mixed stream, byte-identical mapped layouts, same behaviour under fault
injection and under hash-table-full recovery.  Only the charged device
costs may differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.faults import FaultConfig
from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.resilience import ResiliencePolicy
from repro.obs.metrics import MetricsRegistry
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import dense_keys
from tests.conftest import assert_device_matches, int_keys, replay_on_dict

N_OPS = 20_000
N_KEYS = 1_500


def _run(variant, *, faults=None, resilience=None):
    keys = dense_keys(N_KEYS)
    eng = CuartEngine(EngineConfig(
        batch_size=256, hash_table=variant,
        faults=faults, resilience=resilience,
    ))
    eng.populate([(k, i) for i, k in enumerate(keys)])
    eng.map_to_device()
    stream = mixed_queries(keys, N_OPS, QueryMix(), seed=11)
    results, report = MixedWorkloadExecutor(eng).run(stream)
    return eng, results, report


def _assert_saved_layouts_identical(eng_a, eng_b, tmp_path):
    keys = dense_keys(N_KEYS)
    model = replay_on_dict(
        [(k, i) for i, k in enumerate(keys)],
        mixed_queries(keys, N_OPS, QueryMix(), seed=11),
    )
    assert_device_matches(eng_a, model, probes=keys)
    assert_device_matches(eng_b, model, probes=keys)
    eng_a.map_to_device()
    eng_b.map_to_device()
    pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
    eng_a.save(pa)
    eng_b.save(pb)
    with np.load(pa) as za, np.load(pb) as zb:
        assert sorted(za.files) == sorted(zb.files)
        for name in za.files:
            assert np.array_equal(za[name], zb[name]), name


class TestMixedStreamLockstep:
    @pytest.fixture(scope="class")
    def pair(self):
        return _run("linear"), _run("bucketed")

    def test_results_identical(self, pair):
        (_, lin_results, _), (_, buc_results, _) = pair
        assert len(lin_results) == len(buc_results) > 0
        assert lin_results == buc_results

    def test_accounting_identical(self, pair):
        (_, _, lin_rep), (_, _, buc_rep) = pair
        assert lin_rep.hits == buc_rep.hits
        assert lin_rep.misses == buc_rep.misses
        assert lin_rep.update_misses == buc_rep.update_misses
        assert lin_rep.delete_misses == buc_rep.delete_misses

    def test_layouts_byte_identical(self, pair, tmp_path):
        (lin_eng, _, _), (buc_eng, _, _) = pair
        assert lin_eng.items() == buc_eng.items()
        _assert_saved_layouts_identical(lin_eng, buc_eng, tmp_path)


class TestFaultReplayLockstep:
    @pytest.mark.parametrize("variant", ["linear", "bucketed"])
    def test_faulty_run_matches_fault_free_oracle(self, variant, tmp_path):
        faulty_eng, faulty_results, report = _run(
            variant,
            faults=FaultConfig.uniform(0.01, seed=321),
            resilience=ResiliencePolicy(),
        )
        oracle_eng, oracle_results, _ = _run(variant)
        # the injector fired and the retries replayed exactly-once
        assert faulty_eng._injector.total_injected > 0
        assert report.ops_by_status.get("FAILED", 0) == 0
        assert faulty_results == oracle_results
        _assert_saved_layouts_identical(faulty_eng, oracle_eng, tmp_path)


class TestHashGrowRecovery:
    @pytest.mark.parametrize("variant", ["linear", "bucketed"])
    def test_full_table_grows_and_batch_succeeds(self, variant):
        # 8 slots cannot dedup 500 distinct keys: the resilience layer
        # must x2-grow the table (same recovery path for both layouts)
        # until the batch fits, then serve it correctly
        metrics = MetricsRegistry()
        eng = CuartEngine(EngineConfig(
            hash_slots=8, hash_table=variant,
            resilience=ResiliencePolicy(), metrics=metrics,
        ))
        keys = int_keys(range(1, 501))
        eng.populate([(k, i) for i, k in enumerate(keys)])
        eng.map_to_device()
        res = eng.update([(k, 7_000 + i) for i, k in enumerate(keys)])
        assert res.found_array.all()
        assert eng.hash_slots >= 512
        assert metrics.value(
            "resilience_recoveries_total", kind="hash-grow"
        ) >= 1
        got = eng.lookup(keys)
        assert got.to_list() == [7_000 + i for i in range(len(keys))]


class TestConfigAndMetrics:
    def test_unknown_variant_rejected(self):
        with pytest.raises(SimulationError) as ei:
            EngineConfig(hash_table="quadratic")
        assert ei.value.context["value"] == "quadratic"
        with pytest.raises(SimulationError):
            CuartEngine(hash_table="quadratic")

    @pytest.mark.parametrize("variant", ["linear", "bucketed"])
    def test_hashtable_counters_exported(self, variant):
        metrics = MetricsRegistry()
        eng = CuartEngine(EngineConfig(
            hash_table=variant, metrics=metrics,
        ))
        keys = int_keys(range(1, 201))
        eng.populate([(k, i) for i, k in enumerate(keys)])
        eng.map_to_device()
        eng.update([(k, 1) for k in keys])
        for name in ("hashtable_transactions_total",
                     "hashtable_probe_groups_total",
                     "hashtable_probe_steps_total",
                     "hashtable_atomics_total"):
            assert metrics.value(name, variant=variant) > 0, name
        load = metrics.value("hashtable_load_factor", variant=variant)
        assert load["count"] >= 1
        assert 0.0 <= load["max"] <= 1.0

    def test_bucketed_exports_fewer_transactions(self):
        # same workload, both variants: the exported counter series
        # itself must show the coalescing win
        totals = {}
        for variant in ("linear", "bucketed"):
            metrics = MetricsRegistry()
            eng = CuartEngine(EngineConfig(
                hash_slots=256, hash_table=variant, metrics=metrics,
            ))
            keys = int_keys(range(1, 201))
            eng.populate([(k, i) for i, k in enumerate(keys)])
            eng.map_to_device()
            eng.update([(k, 9) for k in keys] * 8)  # duplicate-heavy
            totals[variant] = metrics.value(
                "hashtable_transactions_total", variant=variant
            )
        assert totals["bucketed"] < totals["linear"]
