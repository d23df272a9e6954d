import json
from collections import Counter

import numpy as np
import pytest

from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.engine import (
    cumulative_regret,
    oracle_placement,
    run_simulation,
    slot_step,
)
from hybridcache.errors import LengthMismatch, UnknownPolicy
from hybridcache.policy import Placement
from hybridcache.workload import generate_trace


def placement_of(ids, capacity):
    return Placement(
        cached=frozenset(ids), used_capacity=float(len(ids)), capacity=capacity
    )


class TestSlotStep:
    def test_partial_hits(self):
        hits, total = slot_step(placement_of({1}, 2), Counter([1, 1, 2, 3]))
        assert (hits, total) == (2, 4)

    def test_empty_cache(self):
        hits, total = slot_step(placement_of(set(), 2), Counter([1, 2]))
        assert hits == 0

    def test_full_coverage(self):
        hits, total = slot_step(placement_of({1, 2, 3}, 3), Counter([1, 2, 3, 3]))
        assert hits == total == 4


class TestOraclePlacement:
    SIZES = {i: 1.0 for i in range(1, 10)}

    def test_single_hot_file(self):
        p, ratio = oracle_placement(Counter([1, 1, 1]), self.SIZES, 1)
        assert p.cached == {1}
        assert ratio == 1.0

    def test_count_then_id_ties(self):
        p, ratio = oracle_placement(Counter([1, 1, 2, 3]), self.SIZES, 2)
        assert p.cached == {1, 2}
        assert ratio == 0.75

    def test_zero_capacity(self):
        _, ratio = oracle_placement(Counter([1, 2]), self.SIZES, 0)
        assert ratio == 0.0


class TestCumulativeRegret:
    def test_zero_when_equal(self):
        out = cumulative_regret([0.5, 0.7], [0.5, 0.7])
        assert np.all(out == 0.0)

    def test_prefix_sum(self):
        out = cumulative_regret([0.0, 1.0], [1.0, 1.0])
        assert out.tolist() == [1.0, 1.0]

    def test_non_decreasing(self):
        rng = np.random.default_rng(5)
        a, o = rng.random(50), rng.random(50)
        out = cumulative_regret(a, o)
        assert np.all(np.diff(out) >= 0)
        assert out[-1] >= 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cumulative_regret([0.1], [0.1, 0.2])


@pytest.fixture(scope="module")
def workload():
    catalog = build_catalog(
        CatalogConfig(library_size=30, w_snm=0.6, horizon=80), seed=51
    )
    trace = generate_trace(catalog, 80, 40, 0.6, 0.8, seed=52)
    return catalog, trace


class TestRunSimulation:
    def test_everything_cached(self, workload):
        catalog, trace = workload
        metrics = run_simulation(catalog, trace, "hybrid", 1000, seed=1)
        assert metrics.summary["mean_hit_ratio"] == 1.0
        assert metrics.summary["final_regret"] == 0.0

    def test_unknown_policy(self, workload):
        catalog, trace = workload
        with pytest.raises(UnknownPolicy):
            run_simulation(catalog, trace, "fifo", 10, seed=1)

    @pytest.mark.parametrize("policy", ["hybrid", "popular", "random"])
    def test_achieved_never_beats_oracle(self, workload, policy):
        catalog, trace = workload
        metrics = run_simulation(catalog, trace, policy, 10, seed=2)
        for rec in metrics.per_slot:
            assert rec.hit_ratio <= rec.oracle_hit_ratio + 1e-12

    @pytest.mark.parametrize("policy", ["hybrid", "popular", "random"])
    def test_deterministic_metrics(self, workload, policy):
        catalog, trace = workload

        def serialize(metrics):
            return json.dumps(
                {
                    "per_slot": [
                        (r.hit_ratio, r.oracle_hit_ratio, r.regret_increment)
                        for r in metrics.per_slot
                    ],
                    "regret": metrics.cumulative_regret.tolist(),
                    "summary": metrics.summary,
                },
                sort_keys=True,
            )

        a = run_simulation(catalog, trace, policy, 8, seed=3)
        b = run_simulation(catalog, trace, policy, 8, seed=3)
        assert serialize(a) == serialize(b)

    def test_regret_vector_invariants(self, workload):
        catalog, trace = workload
        metrics = run_simulation(catalog, trace, "random", 6, seed=4)
        regret = metrics.cumulative_regret
        assert np.all(np.diff(regret) >= 0)
        assert regret[-1] == pytest.approx(metrics.summary["final_regret"])
        for rec, inc in zip(metrics.per_slot, np.diff(np.insert(regret, 0, 0))):
            assert rec.regret_increment == pytest.approx(inc)

    def test_hit_plus_miss_conservation(self, workload):
        catalog, trace = workload
        metrics = run_simulation(catalog, trace, "popular", 10, seed=5)
        # every slot has exactly R events; ratios are hits / R
        for rec in metrics.per_slot:
            hits = rec.hit_ratio * 40
            assert hits == pytest.approx(round(hits))
