import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.errors import BadInput, ColdStart, NeedsIntegerSizes, UnknownPolicy
from hybridcache.policy import (
    BanditState,
    exact_knapsack,
    greedy_knapsack,
    hybrid_select,
    hybrid_ucb_index,
    hybrid_update,
    make_policy,
    popular_place,
    random_place,
)
from hybridcache.popularity import AllocationEstimate, PopularitySnapshot


def brute_force_best(values, sizes, capacity):
    """Independent oracle: enumerate all 2^n subsets, summing in id order."""
    n = len(values)
    best = 0.0
    for mask in itertools.product([0, 1], repeat=n):
        size = sum(s for m, s in zip(mask, sizes) if m)
        if size > capacity:
            continue
        value = sum(v for m, v in zip(mask, values) if m)
        best = max(best, value)
    return best


class TestGreedyKnapsack:
    def test_unit_sizes(self):
        p = greedy_knapsack([0.5, 0.4, 0.3], [1, 1, 1], 2)
        assert p.cached == {1, 2}
        assert p.used_capacity == 2

    def test_density_suboptimality(self):
        # greedy takes density 0.5 item and leaves no room for the 0.6
        p = greedy_knapsack([0.6, 0.5], [3, 1], 3)
        assert p.cached == {2}

    def test_zero_capacity(self):
        assert greedy_knapsack([0.5], [1], 0).cached == frozenset()

    def test_equal_density_lower_id_first(self):
        p = greedy_knapsack([0.5, 0.5, 0.5], [1, 1, 1], 2, ids=[7, 3, 5])
        assert p.cached == {3, 5}
        # densities tie at 0.5: id 1 (size 1) goes first, id 2 no longer fits
        p = greedy_knapsack([1.0, 0.5], [2, 1], 2, ids=[2, 1])
        assert p.cached == {1}

    def test_fill_continues_past_misfit(self):
        # densities 0.2, 0.1, 0.1: id 2 does not fit after id 1, id 3 does
        p = greedy_knapsack([0.6, 0.5, 0.1], [3, 5, 1], 4)
        assert p.cached == {1, 3}
        assert p.used_capacity == 4

    def test_bad_input(self):
        with pytest.raises(BadInput):
            greedy_knapsack([-0.1], [1], 2)
        with pytest.raises(BadInput):
            greedy_knapsack([0.5], [0], 2)


class TestExactKnapsack:
    def test_beats_greedy_on_density_trap(self):
        p = exact_knapsack([0.6, 0.5], [3, 1], 3)
        assert p.cached == {1}

    def test_singleton(self):
        assert exact_knapsack([0.4], [2], 2).cached == {1}

    def test_non_integer_sizes(self):
        with pytest.raises(NeedsIntegerSizes):
            exact_knapsack([0.5], [1.5], 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            # dyadic values keep float sums exact across both solvers
            values = (rng.integers(0, 1024, size=n) / 1024).tolist()
            sizes = rng.integers(1, 6, size=n).tolist()
            capacity = int(rng.integers(0, 3 * n))
            p = exact_knapsack(values, sizes, capacity)
            objective = sum(
                values[cid - 1] for cid in sorted(p.cached)
            )
            assert objective == brute_force_best(values, sizes, capacity)

    def test_equals_greedy_for_uniform_sizes(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            values = (rng.integers(0, 1024, size=n) / 1024).tolist()
            capacity = int(rng.integers(0, n + 3))
            exact = exact_knapsack(values, [1] * n, capacity)
            greedy = greedy_knapsack(values, [1] * n, capacity)
            obj = lambda p: sum(values[c - 1] for c in sorted(p.cached))
            assert obj(exact) == obj(greedy)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(
        CatalogConfig(library_size=12, w_snm=0.5, horizon=50), seed=31
    )


def snapshot(catalog, freq):
    """A history snapshot over the catalog from an {id: frequency} dict."""
    out = np.zeros(len(catalog.items) + 1)
    for cid, f in freq.items():
        out[cid] = f
    return PopularitySnapshot(slot=1, freq=out)


class TestBaselines:
    def test_random_all_fit(self, catalog):
        p = random_place(catalog, 100, np.random.default_rng(1))
        assert len(p.cached) == 12

    def test_random_zero_capacity(self, catalog):
        p = random_place(catalog, 0, np.random.default_rng(1))
        assert p.cached == frozenset()

    def test_random_deterministic(self, catalog):
        a = random_place(catalog, 5, np.random.default_rng(3))
        b = random_place(catalog, 5, np.random.default_rng(3))
        assert a.cached == b.cached
        # pinned: one permutation draw per placement, indexing ids 1..F
        assert a.cached == {1, 3, 8, 11, 12}

    def test_popular_top_two(self, catalog):
        snap = snapshot(catalog, {1: 0.5, 2: 0.3, 3: 0.2})
        p = popular_place(catalog, snap, 2)
        assert {1, 2} <= p.cached
        assert 3 not in p.cached

    def test_popular_empty_history_falls_back(self, catalog, caplog):
        snap = snapshot(catalog, {})
        with caplog.at_level("WARNING"):
            p = popular_place(catalog, snap, 3, rng=np.random.default_rng(4))
        assert len(p.cached) == 3
        assert "empty history" in caplog.text

    def test_popular_all_fit(self, catalog):
        snap = snapshot(catalog, {1: 1.0})
        assert len(popular_place(catalog, snap, 100).cached) == 12


class TestUcbIndex:
    def test_hand_evaluated_bonus(self):
        # beta * B * x = 2 * 1 * 0.5 = 1, ln t = 1, one pull
        state = BanditState(influence=0.5, pulls=1, mean_reward=0.3,
                            weighted_reward=1.0)
        idx = hybrid_ucb_index(state, math.e, exploration_beta=2.0)
        assert idx == pytest.approx(1.3)

    def test_zero_bonus_at_t1(self):
        state = BanditState(influence=0.5, pulls=3, mean_reward=0.4,
                            weighted_reward=0.8)
        assert hybrid_ucb_index(state, 1) == pytest.approx(0.4)

    def test_bonus_vanishes_with_pulls(self):
        state = BanditState(influence=0.5, pulls=10**9, mean_reward=0.4,
                            weighted_reward=0.8)
        assert hybrid_ucb_index(state, 100) == pytest.approx(0.4, abs=1e-3)

    def test_cold_start(self):
        with pytest.raises(ColdStart):
            hybrid_ucb_index(BanditState(influence=0.5), 10)

    def test_strictly_decreasing_in_pulls(self):
        prev = None
        for pulls in (1, 2, 5, 20, 100):
            state = BanditState(influence=0.7, pulls=pulls, mean_reward=0.3,
                                weighted_reward=0.6)
            idx = hybrid_ucb_index(state, 50)
            if prev is not None:
                assert idx < prev
            prev = idx

    def test_ordering_matches_means_when_symmetric(self):
        means = [0.1, 0.7, 0.4, 0.9]
        states = [
            BanditState(influence=0.5, pulls=4, mean_reward=m,
                        weighted_reward=0.5)
            for m in means
        ]
        indices = [hybrid_ucb_index(s, 20) for s in states]
        assert np.argsort(indices).tolist() == np.argsort(means).tolist()


class TestHybridUpdate:
    def test_running_mean_arithmetic(self):
        state = BanditState(influence=0.5, pulls=4, mean_reward=0.4)
        hybrid_update(state, observed=0.9, slot_max=0.9)
        assert state.pulls == 5
        assert state.mean_reward == pytest.approx(0.5)

    def test_normalization_ceiling(self):
        state = BanditState(influence=0.5)
        hybrid_update(state, observed=0.3, slot_max=0.3)
        assert state.weighted_reward == 1.0

    def test_empty_slot_convention(self):
        state = BanditState(influence=0.5, pulls=1, mean_reward=0.6)
        hybrid_update(state, observed=0.0, slot_max=0.0)
        assert state.weighted_reward == 0.0
        assert state.mean_reward == pytest.approx(0.3)

    def test_mean_equals_arithmetic_mean_exactly(self):
        observations = [0.25, 0.5, 0.125, 0.75, 0.0, 1.0, 0.375, 0.625]
        state = BanditState(influence=0.5)
        for obs in observations:
            hybrid_update(state, obs, slot_max=1.0)
        assert state.pulls == len(observations)
        # integer-denominator observations keep the comparison exact
        assert state.mean_reward == sum(observations) / len(observations)


class TestHybridSelect:
    def _states(self, entries):
        return {
            f: BanditState(influence=x, pulls=n, mean_reward=m,
                           weighted_reward=w)
            for f, (n, m, w, x) in entries.items()
        }

    def test_cold_start_priority_and_tie(self):
        states = self._states({10: (0, 0, 0, 0.5), 11: (0, 0, 0, 0.5)})
        alloc = AllocationEstimate.from_snm(1.0)
        p = hybrid_select(
            states, [10, 11], irm_ranking=(), alloc=alloc, capacity=1,
            sizes={10: 1.0, 11: 1.0}, t=3,
        )
        assert p.cached == {10}

    def test_warm_top_by_index(self):
        states = self._states({
            10: (5, 0.9, 0.9, 0.5),
            11: (5, 0.1, 0.9, 0.5),
            12: (5, 0.5, 0.9, 0.5),
        })
        alloc = AllocationEstimate.from_snm(1.0)
        p = hybrid_select(
            states, [10, 11, 12], irm_ranking=(), alloc=alloc, capacity=2,
            sizes={10: 1.0, 11: 1.0, 12: 1.0}, t=10,
        )
        indices = {f: hybrid_ucb_index(states[f], 10) for f in (10, 11, 12)}
        expected = set(sorted(indices, key=lambda f: -indices[f])[:2])
        assert p.cached == expected == {10, 12}

    def test_zero_snm_share_pure_irm(self):
        states = self._states({10: (3, 0.9, 0.9, 0.5)})
        alloc = AllocationEstimate.from_snm(0.0)
        ranking = ((1, 0.6), (2, 0.3), (3, 0.1))
        p = hybrid_select(
            states, [10], irm_ranking=ranking, alloc=alloc, capacity=2,
            sizes={10: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, t=5,
        )
        assert p.cached == {1, 2}

    def test_leftover_snm_share_rolls_to_irm(self):
        states = self._states({10: (0, 0, 0, 0.5)})
        alloc = AllocationEstimate.from_snm(0.75)
        ranking = ((1, 0.6), (2, 0.3))
        p = hybrid_select(
            states, [10], irm_ranking=ranking, alloc=alloc, capacity=4,
            sizes={10: 1.0, 1: 1.0, 2: 1.0}, t=5,
        )
        assert p.cached == {10, 1, 2}

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        capacity=st.integers(min_value=0, max_value=30),
        w_snm=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_violated(self, seed, capacity, w_snm):
        rng = np.random.default_rng(seed)
        snm_ids = list(range(100, 100 + int(rng.integers(1, 12))))
        irm_ids = list(range(1, 1 + int(rng.integers(0, 12))))
        states = {
            f: BanditState(
                influence=float(rng.uniform(0.01, 1.0)),
                pulls=int(rng.integers(0, 4)),
                mean_reward=float(rng.uniform(0, 1)),
                weighted_reward=float(rng.uniform(0, 1)),
            )
            for f in snm_ids
        }
        sizes = {f: float(rng.integers(1, 4)) for f in snm_ids + irm_ids}
        ranking = tuple((cid, float(rng.uniform(0, 1))) for cid in irm_ids)
        p = hybrid_select(
            states, snm_ids, ranking, AllocationEstimate.from_snm(w_snm),
            capacity, sizes, t=int(rng.integers(1, 50)),
        )
        assert p.used_capacity <= capacity + 1e-9
        assert sum(sizes[f] for f in p.cached) == pytest.approx(p.used_capacity)


def test_make_policy_unknown():
    catalog = build_catalog(
        CatalogConfig(library_size=6, w_snm=0.5, horizon=20), seed=42
    )
    with pytest.raises(UnknownPolicy):
        make_policy("lru", catalog, 3)
