import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog_helpers import array_catalog
from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.errors import BadInput, NeedsIntegerSizes, UnknownPolicy
from hybridcache.policy import (
    BanditState,
    Fill,
    PopularPolicy,
    WEIGHT_FLOOR,
    RandomPolicy,
    _top_n,
    exact_knapsack,
    hybrid_select,
    hybrid_ucb_index,
    hybrid_update,
    make_policy,
)
from hybridcache.workload import generate_trace


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


def greedy_item_by_item(values, sizes, capacity):
    """Reference density greedy: by value over size, lower id on ties,
    each id admitted that still fits (ids 1..n)."""
    order = sorted(range(len(values)), key=lambda i: (-(values[i] / sizes[i]), i))
    return fill_item_by_item([i + 1 for i in order], [sizes[i] for i in order], capacity)


class TestExactKnapsack:
    def test_beats_greedy_on_density_trap(self):
        value = exact_knapsack([0.6, 0.5], [3, 1], 3)
        assert type(value) is float and value == 0.6

    def test_singleton(self):
        assert exact_knapsack([0.4], [2], 2) == 0.4
        assert exact_knapsack([0.4], [2], 1) == 0.0

    def test_empty(self):
        assert exact_knapsack([], [], 5) == 0.0

    def test_non_integer_sizes(self):
        for size in (1.5, float("inf"), float("nan")):
            with pytest.raises(NeedsIntegerSizes):
                exact_knapsack([0.5], [size], 2)

    def test_bad_input(self):
        with pytest.raises(BadInput, match="same length"):
            exact_knapsack([0.5, 0.5], [1], 2)
        with pytest.raises(BadInput, match="non-negative"):
            exact_knapsack([-0.1], [1], 2)
        with pytest.raises(BadInput, match="positive"):
            exact_knapsack([0.5], [0], 2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values(self, value):
        with pytest.raises(BadInput, match="finite"):
            exact_knapsack([value, 1.0], [1, 1], 1)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0])
    def test_capacity_not_finite_or_negative(self, capacity):
        with pytest.raises(BadInput):
            exact_knapsack([0.5], [1], capacity)

    def test_capacity_has_the_fill_slack(self):
        # 3 fits in 2.9999999995 plus the slack, as it does for the fills
        values, sizes = [0.5, 0.25, 0.125, 0.0625], [1, 1, 1, 2]
        assert exact_knapsack(values, sizes, 2.9999999995) == 0.875
        assert exact_knapsack(values, sizes, 2.999999998) == 0.75

    def test_table_ends_at_the_sizes_sum(self):
        # a capacity past every size sum caches everything, with no
        # table of that many cells
        values, sizes = [0.5, 0.25, 0.125], [3, 1, 2]
        assert exact_knapsack(values, sizes, 1e300) == 0.875
        assert exact_knapsack(values, sizes, 6) == 0.875
        assert exact_knapsack(values, sizes, 5) == 0.75

    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            # dyadic values keep float sums exact across both solvers
            values = (rng.integers(0, 1024, size=n) / 1024).tolist()
            sizes = rng.integers(1, 6, size=n).tolist()
            capacity = int(rng.integers(0, 3 * n))
            best = brute_force_best(values, sizes, capacity)
            assert exact_knapsack(values, sizes, capacity) == best

    def test_equals_greedy_for_uniform_sizes(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            values = (rng.integers(0, 1024, size=n) / 1024).tolist()
            capacity = int(rng.integers(0, n + 3))
            chosen, _ = greedy_item_by_item(values, [1] * n, capacity)
            greedy = sum(values[c - 1] for c in chosen)
            assert exact_knapsack(values, [1] * n, capacity) == greedy


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(
        CatalogConfig(library_size=12, w_snm=0.5, horizon=50), seed=31
    )


def random_place(catalog, capacity, seed):
    return RandomPolicy(catalog, capacity, np.random.default_rng(seed)).place(1)


def popular_place(catalog, counts, capacity):
    """A popular policy's placement after one slot of {id: count} requests."""
    policy = PopularPolicy(catalog, capacity, np.random.default_rng(4))
    tally = np.zeros(catalog.id_space, dtype=np.int64)
    for cid, n in counts.items():
        tally[cid] = n
    policy.update(None, tally)
    return policy.place(2)


class TestBaselines:
    def test_random_all_fit(self, catalog):
        p = random_place(catalog, 100, 1)
        assert len(p.cached) == 12

    def test_random_zero_capacity(self, catalog):
        p = random_place(catalog, 0, 1)
        assert p.cached.tolist() == []

    def test_random_deterministic(self, catalog):
        a = random_place(catalog, 5, 3)
        b = random_place(catalog, 5, 3)
        assert a.cached.tolist() == b.cached.tolist()
        # pinned: one permutation draw per placement, indexing ids 1..F
        assert a.cached.tolist() == [1, 3, 8, 11, 12]

    def test_popular_top_two(self, catalog):
        p = popular_place(catalog, {1: 5, 2: 3, 3: 2}, 2)
        assert {1, 2} <= set(p.cached.tolist())
        assert 3 not in p.cached

    def test_popular_empty_history_falls_back(self, catalog, caplog):
        policy = PopularPolicy(catalog, 3, np.random.default_rng(4))
        with caplog.at_level("WARNING"):
            p = policy.place(1)
        assert len(p.cached) == 3
        assert "empty history" in caplog.text

    def test_popular_all_fit(self, catalog):
        p = popular_place(catalog, {1: 1}, 100)
        assert len(p.cached) == 12


def uniform_catalog(n, size):
    return array_catalog([size] * n)


# uniform sizes, and capacities that are mostly not multiples of them
UNIFORM_SIZES = st.sampled_from([0.1, 1.0, 2.5, 7.0])
CAPACITIES = st.one_of(st.just(0.0), st.floats(0.0, 60.0))


class TestUniformFills:
    """At uniform sizes the baselines skip the general fill; same result."""

    @given(
        # few distinct small counts: many ties and zeros
        counts=st.lists(st.integers(0, 3), min_size=1, max_size=40),
        size=UNIFORM_SIZES,
        capacity=CAPACITIES,
    )
    @settings(max_examples=300, deadline=None)
    def test_popular_top_n_equals_greedy(self, counts, size, capacity):
        catalog = uniform_catalog(len(counts), size)
        tally = np.array([0] + counts, dtype=np.int64)
        if not tally.any():
            tally[1] = 1
        freq = tally / tally.sum()
        policy = PopularPolicy(catalog, capacity, np.random.default_rng(0))
        policy.update(None, tally)
        got = policy.place(2)
        chosen, used = greedy_item_by_item(
            freq[catalog.ids].tolist(), catalog.sizes.tolist(), capacity
        )
        assert got.cached.tolist() == sorted(chosen)
        assert got.used_capacity == used

    @given(
        n=st.integers(1, 40),
        size=UNIFORM_SIZES,
        capacity=CAPACITIES,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_prefix_equals_fill(self, n, size, capacity, seed):
        catalog = uniform_catalog(n, size)
        rng = np.random.default_rng(seed)
        got = RandomPolicy(catalog, capacity, rng).place(1)
        reference = np.random.default_rng(seed)
        order = reference.permutation(n)
        chosen, used = fill_item_by_item(
            catalog.ids[order].tolist(), catalog.sizes[order].tolist(), capacity
        )
        assert got.cached.tolist() == sorted(chosen)
        assert got.used_capacity == used
        # one permutation draw per placement, as in the general path
        assert rng.random() == reference.random()


class TestLeanPaths:
    """The per-slot shortcuts give what the general code gives."""

    @pytest.mark.parametrize(
        # enough slots to cross several chunk boundaries: chunks of 1, 2,
        # 4, ... rows, at most 8192 (F=2), 109 (F=150) and 3 (F=5000)
        "n_ids, capacity, slots", [(2, 1.0, 70), (150, 10.0, 400), (5000, 40.0, 12)]
    )
    def test_random_run_equals_sequential_permutations(self, n_ids, capacity, slots):
        catalog = uniform_catalog(n_ids, 1.0)
        policy = RandomPolicy(catalog, capacity, np.random.default_rng(77))
        reference = np.random.default_rng(77)
        n = int(capacity)
        for t in range(1, slots + 1):
            got = policy.place(t)
            want = np.sort(reference.permutation(n_ids)[:n] + 1)
            assert got.cached.tolist() == want.tolist(), t
            assert got.used_capacity == float(n)
            assert got.cached.dtype == np.int64 and not got.cached.flags.writeable

    def test_random_run_at_unequal_sizes_equals_sequential_fills(self):
        catalog = array_catalog(np.array([1.0, 2.5, 0.5, 3.0, 1.0, 2.0, 4.0]))
        policy = RandomPolicy(catalog, 5.0, np.random.default_rng(5))
        reference = np.random.default_rng(5)
        for t in range(1, 40):
            order = reference.permutation(7)
            chosen, used = fill_item_by_item(
                (order + 1).tolist(), catalog.sizes[order].tolist(), 5.0
            )
            got = policy.place(t)
            assert got.cached.tolist() == sorted(chosen), t
            assert got.used_capacity == used

    @given(
        # few distinct small values: heavy ties and zeros
        values=st.lists(st.integers(0, 3), max_size=60),
        as_float=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_top_n_equals_stable_descending_argsort(self, values, as_float, data):
        values = np.array(values, dtype=float if as_float else np.int64)
        n = data.draw(st.integers(0, len(values) + 2))
        want = np.sort(np.argsort(-values, kind="stable")[:n])
        got = _top_n(values, n)
        assert got.tolist() == want.tolist()

    @given(
        m=st.integers(0, 1100),
        distinct=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        capacity=st.integers(0, 60),
        w_snm=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_hybrid_top_k_equals_rank_first(self, m, distinct, seed, capacity, w_snm):
        # many ids and few distinct keys on both sides: the uniform path's
        # top-k sets against the rank-first path's ranked prefixes
        rng = np.random.default_rng(seed)
        n_ids = 3 * m + 2
        chosen = np.sort(rng.choice(n_ids, size=2 * m, replace=False)) + 1
        snm = rng.random(2 * m) < 0.5
        candidates, irm_ids = chosen[snm], chosen[~snm]
        irm_counts = rng.integers(0, distinct, size=len(irm_ids))
        state = BanditState.fresh(np.append(0.0, rng.uniform(0.01, 1.0, n_ids)))
        # index ties: never cached (inf) and few distinct means
        state.pulls[1:] = rng.integers(0, 2, n_ids)
        state.mean[1:] = rng.integers(0, distinct, n_ids) / 2
        state.weight[1:] = 1.0
        state.influence[1:] = 0.5
        args = (state, candidates, irm_ids, irm_counts, w_snm)
        uniform = hybrid_select(*args, Fill(unit_sizes(n_ids), capacity), t=7)
        scan = Fill(np.append(unit_sizes(n_ids), 2.0), capacity)
        general = hybrid_select(*args, scan, t=7)
        assert uniform.cached.tolist() == general.cached.tolist()
        assert uniform.used_capacity == general.used_capacity

    @given(
        m=st.integers(0, 60),
        size=UNIFORM_SIZES,
        capacity=CAPACITIES,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefix_fill_equals_fill(self, m, size, capacity, seed):
        fill = Fill(np.full(60, size), capacity)
        order = np.random.default_rng(seed).permutation(m) + 1
        chosen, used = fill_item_by_item(order.tolist(), [size] * m, capacity)
        got, got_used = fill.admit(order, capacity)
        assert (got.tolist(), got_used) == (chosen, used)
        assert chosen == order[: len(chosen)].tolist()
        full = fill_item_by_item(list(range(1, 61)), [size] * 60, capacity)
        assert (fill.count, fill.used) == (len(full[0]), full[1])

    @given(
        size=UNIFORM_SIZES,
        capacity=CAPACITIES,
        w_snm=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_hybrid_uniform_fill_equals_general_fill(self, size, capacity, w_snm, seed):
        rng = np.random.default_rng(seed)
        n_ids = int(rng.integers(2, 80))
        ids = np.arange(1, n_ids + 1)
        snm = rng.random(n_ids) < 0.5
        state = BanditState.fresh(np.append(0.0, rng.uniform(0.01, 1.0, n_ids)))
        # a third never cached; few distinct means, so the index ties
        state.pulls[1:] = rng.integers(0, 3, n_ids)
        state.mean[1:] = rng.integers(0, 3, n_ids) / 2
        state.weight[1:] = rng.uniform(0.0, 1.0, n_ids)
        candidates = ids[snm & (rng.random(n_ids) < 0.7)]
        irm_ids, counts = ids[~snm], rng.integers(0, 4, int((~snm).sum()))
        t = int(rng.integers(1, 100))
        # one more id, in no order, of another size: the general scan
        scan = Fill(np.append(np.full(n_ids, size), size + 1.0), capacity)
        assert scan.count is None
        general = hybrid_select(state, candidates, irm_ids, counts, w_snm, scan, t)
        fill = Fill(np.full(n_ids, size), capacity)
        uniform = hybrid_select(state, candidates, irm_ids, counts, w_snm, fill, t)
        assert uniform.cached.tolist() == general.cached.tolist()
        assert uniform.used_capacity == general.used_capacity
        assert uniform.cached.dtype == np.int64


# unequal sizes, so the baselines take their general fills
UNEQUAL_SIZES = st.lists(
    st.one_of(st.integers(1, 5).map(float), st.floats(0.05, 5.0)),
    min_size=2, max_size=30,
).filter(lambda sizes: min(sizes) < max(sizes))


class TestUnequalSizes:
    """At unequal sizes each baseline is its greedy fill."""

    @given(sizes=UNEQUAL_SIZES, capacity=CAPACITIES, seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_random_equals_fill_of_permutation(self, sizes, capacity, seed):
        catalog = array_catalog(sizes)
        rng = np.random.default_rng(seed)
        got = RandomPolicy(catalog, capacity, rng).place(1)
        reference = np.random.default_rng(seed)
        order = reference.permutation(len(sizes))
        chosen, used = fill_item_by_item(
            catalog.ids[order].tolist(), catalog.sizes[order].tolist(), capacity
        )
        assert got.cached.tolist() == sorted(chosen)
        assert got.used_capacity == used
        assert rng.random() == reference.random()

    @given(data=st.data(), sizes=UNEQUAL_SIZES, capacity=CAPACITIES)
    @settings(max_examples=200, deadline=None)
    def test_popular_equals_greedy_of_frequencies(self, data, sizes, capacity):
        catalog = array_catalog(sizes)
        counts = data.draw(st.lists(st.integers(0, 3), min_size=len(sizes),
                                    max_size=len(sizes)))
        tally = np.array([0] + counts, dtype=np.int64)
        if not tally.any():
            tally[1] = 1
        policy = PopularPolicy(catalog, capacity, np.random.default_rng(0))
        policy.update(None, tally)
        got = policy.place(2)
        freq = tally[catalog.ids] / tally.sum()
        chosen, used = greedy_item_by_item(freq.tolist(), catalog.sizes.tolist(), capacity)
        assert got.cached.tolist() == sorted(chosen)
        assert got.used_capacity == used

    @pytest.mark.parametrize(
        "sizes, counts, capacity, cached, used",
        [
            # density first: id 2 leaves no room for the more requested id 1
            ([3.0, 1.0], {1: 6, 2: 5}, 3, [2], 1.0),
            ([3.0, 1.0], {1: 6, 2: 5}, 0, [], 0.0),
            # densities tie at 1/3: id 1 goes first, id 2 no longer fits
            ([1.0, 2.0], {1: 1, 2: 2}, 2, [1], 1.0),
            # id 2 does not fit after id 1, id 3 still does
            ([3.0, 5.0, 1.0], {1: 6, 2: 5, 3: 1}, 4, [1, 3], 4.0),
        ],
    )
    def test_popular_hand_cases(self, sizes, counts, capacity, cached, used):
        got = popular_place(array_catalog(sizes), counts, capacity)
        assert got.cached.tolist() == cached
        assert got.used_capacity == used

    @pytest.mark.parametrize(
        "sizes", [[1.0] * 9, [3.0, 1.0, 2.5, 1.0, 4.0, 2.0, 1.5, 1.0, 2.0]]
    )
    def test_popular_fallback_is_a_random_policy(self, sizes):
        catalog = array_catalog(sizes)
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        got = PopularPolicy(catalog, 6.0, rng).place(1)
        want = RandomPolicy(catalog, 6.0, reference).place(1)
        assert got.cached.tolist() == want.cached.tolist()
        assert got.used_capacity == want.used_capacity
        assert rng.bit_generator.state == reference.bit_generator.state


def bandit(entries):
    """A bandit state from {id: (pulls, mean, weight, influence)}."""
    state = BanditState.fresh(np.zeros(max(entries, default=0) + 1))
    for f, (pulls, mean, weight, influence) in entries.items():
        state.pulls[f] = pulls
        state.mean[f] = mean
        state.weight[f] = weight
        state.influence[f] = influence
    return state


def index_of(state, f, t, **kwargs):
    return float(hybrid_ucb_index(state, np.array([f]), t, **kwargs)[0])


class TestUcbIndex:
    def test_hand_evaluated_bonus(self):
        # beta * B * x = 2 * 1 * 0.5 = 1, ln t = 1, one pull
        state = bandit({1: (1, 0.3, 1.0, 0.5)})
        assert index_of(state, 1, math.e, exploration_beta=2.0) == pytest.approx(1.3)

    def test_zero_bonus_at_t1(self):
        state = bandit({1: (3, 0.4, 0.8, 0.5)})
        assert index_of(state, 1, 1) == pytest.approx(0.4)

    def test_bonus_vanishes_with_pulls(self):
        state = bandit({1: (10**9, 0.4, 0.8, 0.5)})
        assert index_of(state, 1, 100) == pytest.approx(0.4, abs=1e-3)

    def test_cold_start(self):
        # a never-cached content ranks before any warmed-up one
        state = bandit({1: (0, 0.0, 0.0, 0.5), 2: (3, 0.4, 0.8, 0.5)})
        indices = hybrid_ucb_index(state, np.array([2, 1]), 10)
        assert np.isfinite(indices[0])
        assert indices[1] == np.inf

    def test_t_below_one(self):
        with pytest.raises(ValueError):
            hybrid_ucb_index(bandit({1: (1, 0.4, 0.8, 0.5)}), np.array([1]), 0)

    def test_strictly_decreasing_in_pulls(self):
        pulls = (1, 2, 5, 20, 100)
        state = bandit({i: (n, 0.3, 0.6, 0.7) for i, n in enumerate(pulls, 1)})
        indices = hybrid_ucb_index(state, np.arange(1, len(pulls) + 1), 50)
        assert np.all(np.diff(indices) < 0)

    def test_ordering_matches_means_when_symmetric(self):
        means = [0.1, 0.7, 0.4, 0.9]
        state = bandit({i: (4, m, 0.5, 0.5) for i, m in enumerate(means, 1)})
        indices = hybrid_ucb_index(state, np.arange(1, 5), 20)
        assert np.argsort(indices).tolist() == np.argsort(means).tolist()

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(1, 10**6),
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
                st.floats(0.01, 1.0),
            ),
            min_size=1,
            max_size=30,
        ),
        t=st.integers(1, 10**6),
        beta=st.floats(0.01, 10.0),
    )
    def test_equals_closed_form_bit_for_bit(self, rows, t, beta):
        state = bandit(dict(enumerate(rows, start=1)))
        ids = np.arange(1, len(rows) + 1)
        got = hybrid_ucb_index(state, ids, t, beta)
        for f, (pulls, mean, weight, influence) in zip(ids, rows):
            want = mean + math.sqrt(
                beta * max(weight, WEIGHT_FLOOR) * influence * math.log(t) / pulls
            )
            assert float(got[f - 1]) == want


class TestHybridUpdate:
    def test_running_mean_arithmetic(self):
        state = bandit({1: (4, 0.4, 0.0, 0.5)})
        hybrid_update(state, np.array([1]), [0.9])
        assert state.pulls[1] == 5
        assert state.mean[1] == pytest.approx(0.5)

    def test_normalization_ceiling(self):
        state = bandit({1: (0, 0.0, 0.0, 0.5)})
        hybrid_update(state, np.array([1]), [0.3])
        assert state.weight[1] == 1.0

    def test_weights_relative_to_slot_max(self):
        state = bandit({1: (0, 0.0, 0.0, 0.5), 2: (2, 0.5, 0.0, 0.5)})
        hybrid_update(state, np.array([1, 2]), [0.125, 0.5])
        assert state.weight[1:].tolist() == [0.25, 1.0]
        assert state.pulls[1:].tolist() == [1, 3]
        assert state.mean[1:].tolist() == [0.125, 0.5]

    def test_empty_slot_convention(self):
        state = bandit({1: (1, 0.6, 0.0, 0.5)})
        hybrid_update(state, np.array([1]), [0.0])
        assert state.weight[1] == 0.0
        assert state.mean[1] == pytest.approx(0.3)

    def test_negative_reward_rejected(self):
        state = bandit({1: (1, 0.6, 0.0, 0.5)})
        with pytest.raises(ValueError):
            hybrid_update(state, np.array([1]), [-0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward_rejected_before_any_change(self, bad):
        state = BanditState.fresh([0.0, 0.5, 0.5])
        state.pulls[2], state.mean[2], state.weight[2] = 3, 0.25, 0.5
        with pytest.raises(ValueError, match="finite"):
            hybrid_update(state, np.array([1, 2]), [0.5, bad])
        assert state.pulls.tolist() == [0, 0, 3]
        assert state.mean.tolist() == [0.0, 0.0, 0.25]
        assert state.weight.tolist() == [0.0, 0.0, 0.5]

    def test_mean_equals_arithmetic_mean_exactly(self):
        observations = [0.25, 0.5, 0.125, 0.75, 0.0, 1.0, 0.375, 0.625]
        state = bandit({1: (0, 0.0, 0.0, 0.5)})
        for obs in observations:
            hybrid_update(state, np.array([1]), [obs])
        assert state.pulls[1] == len(observations)
        # integer-denominator observations keep the comparison exact
        assert state.mean[1] == sum(observations) / len(observations)


def ids(*values):
    return np.array(values, dtype=np.int64)


def unit_sizes(n):
    return np.ones(n)


def ranked(*ranking):
    """(irm_ids, irm_counts) whose ids by descending count are ranking."""
    ranking = np.array(ranking, dtype=np.int64)
    irm_ids = np.sort(ranking)
    counts = np.empty(len(ranking), dtype=np.int64)
    counts[np.searchsorted(irm_ids, ranking)] = np.arange(len(ranking), 0, -1)
    return irm_ids, counts


class TestHybridSelect:
    def test_cold_start_priority_and_tie(self):
        state = bandit({10: (0, 0, 0, 0.5), 11: (0, 0, 0, 0.5)})
        p = hybrid_select(
            state, ids(10, 11), *ranked(), w_snm=1.0,
            fill=Fill(unit_sizes(11), 1), t=3,
        )
        assert p.cached.tolist() == [10]

    def test_warm_top_by_index(self):
        state = bandit({
            10: (5, 0.9, 0.9, 0.5),
            11: (5, 0.1, 0.9, 0.5),
            12: (5, 0.5, 0.9, 0.5),
        })
        p = hybrid_select(
            state, ids(10, 11, 12), *ranked(), w_snm=1.0,
            fill=Fill(unit_sizes(12), 2), t=10,
        )
        indices = {f: index_of(state, f, 10) for f in (10, 11, 12)}
        expected = set(sorted(indices, key=lambda f: -indices[f])[:2])
        assert p.cached.tolist() == sorted(expected) == [10, 12]

    def test_zero_snm_share_pure_irm(self):
        state = bandit({10: (3, 0.9, 0.9, 0.5)})
        p = hybrid_select(
            state, ids(10), *ranked(1, 2, 3), w_snm=0.0,
            fill=Fill(unit_sizes(10), 2), t=5,
        )
        assert p.cached.tolist() == [1, 2]

    def test_leftover_snm_share_rolls_to_irm(self):
        state = bandit({10: (0, 0, 0, 0.5)})
        p = hybrid_select(
            state, ids(10), *ranked(1, 2), w_snm=0.75,
            fill=Fill(unit_sizes(10), 4), t=5,
        )
        assert p.cached.tolist() == [1, 2, 10]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        capacity=st.integers(min_value=0, max_value=30),
        w_snm=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_violated(self, seed, capacity, w_snm):
        rng = np.random.default_rng(seed)
        snm_ids = np.arange(100, 100 + int(rng.integers(1, 12)))
        irm_ids = np.arange(1, 1 + int(rng.integers(0, 12)))
        state = bandit({
            int(f): (
                int(rng.integers(0, 4)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0.01, 1.0)),
            )
            for f in snm_ids
        })
        sizes = rng.integers(1, 4, size=snm_ids[-1]).astype(float)
        ranking = rng.permutation(irm_ids)
        p = hybrid_select(
            state, snm_ids, *ranked(*ranking), w_snm, Fill(sizes, capacity),
            t=int(rng.integers(1, 50)),
        )
        assert p.used_capacity <= capacity + 1e-9
        assert sum(sizes[f - 1] for f in p.cached) == pytest.approx(p.used_capacity)


def select_both_ways(candidates, irm_ranking, w_snm, capacity, t=5):
    """hybrid_select at unit sizes, and by the path that ranks before it fills.

    The second adds one id of size 2 past every id used, so its fill has
    unequal sizes and takes the general path.
    """
    n_ids = int(max(candidates.max(initial=0), irm_ranking.max(initial=0)))
    rng = np.random.default_rng(n_ids)
    state = BanditState.fresh(np.append(0.0, rng.uniform(0.01, 1.0, n_ids)))
    # some never cached (index inf), few distinct means: ties on both sides
    state.pulls[1:] = rng.integers(0, 3, n_ids)
    state.mean[1:] = rng.integers(0, 3, n_ids) / 2
    state.weight[1:] = rng.uniform(0.0, 1.0, n_ids)
    args = (state, candidates, *ranked(*irm_ranking), w_snm)
    uniform = hybrid_select(*args, Fill(unit_sizes(n_ids), capacity), t)
    general = hybrid_select(*args, Fill(np.append(unit_sizes(n_ids), 2.0), capacity), t)
    assert uniform.cached.tolist() == general.cached.tolist()
    assert uniform.used_capacity == general.used_capacity
    return uniform


class TestHybridRankOnlyWhenShort:
    """At C=10 and w_snm=0.5 the SNM share is 5 units, the IRM share 5."""

    @pytest.mark.parametrize(
        "n_candidates, n_irm, capacity, n_snm_cached",
        [
            (5, 9, 10, 5),  # the candidates exactly fill the SNM share
            (6, 9, 10, 5),  # one more than fits
            (0, 9, 10, 0),  # no candidates: the IRM side takes it all
            (6, 9, 0, 0),  # C=0
            (8, 2, 10, 8),  # 3 units of IRM room roll back: every one fits
            (9, 2, 10, 8),  # the rollover leaves one out
        ],
    )
    def test_equals_ranking_first(self, n_candidates, n_irm, capacity, n_snm_cached):
        candidates = np.arange(100, 100 + n_candidates)
        irm_ranking = np.arange(n_irm, 0, -1)
        p = select_both_ways(candidates, irm_ranking, 0.5, capacity)
        assert np.isin(p.cached, candidates).sum() == n_snm_cached
        assert p.used_capacity == min(capacity, n_candidates + n_irm)

    @pytest.mark.parametrize("n_candidates, n_irm", [(5, 9), (0, 9)])
    def test_no_index_when_every_candidate_fits(self, n_candidates, n_irm):
        state = BanditState.fresh(np.ones(120))
        with mock.patch(
            "hybridcache.policy.hybrid_ucb_index", side_effect=AssertionError("ranked")
        ):
            p = hybrid_select(
                state, np.arange(100, 100 + n_candidates), *ranked(*range(1, n_irm + 1)),
                0.5, Fill(unit_sizes(119), 10), t=5,
            )
        assert np.isin(np.arange(100, 100 + n_candidates), p.cached).all()

    @pytest.mark.parametrize("sizes", [unit_sizes(12), np.append(unit_sizes(11), 2.0)])
    def test_t_below_one_even_when_every_candidate_fits(self, sizes):
        state = bandit({10: (0, 0, 0, 0.5), 11: (2, 0.5, 0.5, 0.5)})
        with pytest.raises(ValueError, match="t must be >= 1"):
            hybrid_select(state, ids(10, 11), *ranked(1), 0.5, Fill(sizes, 10), t=0)


def fill_item_by_item(ordered_ids, sizes, capacity):
    """Reference fill: try every id in order, admit each that still fits."""
    chosen, used, limit = [], 0.0, capacity + 1e-9
    for cid, s in zip(ordered_ids, sizes):
        if used + s <= limit:
            chosen.append(cid)
            used += s
    return chosen, used


class TestFill:
    def test_continues_past_first_misfit(self):
        fill = Fill(np.array([9.0, 9.0, 9.0, 2.0, 3.0, 1.0, 5.0]), 3.5)
        chosen, used = fill.admit(ids(4, 5, 6, 7), 3.5)
        assert (chosen.tolist(), used) == ([4, 6], 3.0)

    @given(
        sizes=st.lists(
            st.one_of(st.integers(1, 5).map(float), st.floats(0.05, 5.0)),
            min_size=1, max_size=40,
        ),
        capacity=st.floats(0.0, 40.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_item_by_item_loop(self, sizes, capacity, seed):
        sizes = np.array(sizes, dtype=float)  # sizes[id - 1]
        order = np.random.default_rng(seed).permutation(len(sizes)) + 1
        chosen, used = Fill(sizes, capacity).admit(order, capacity)
        assert chosen.dtype == np.int64
        assert (chosen.tolist(), used) == fill_item_by_item(
            order.tolist(), sizes[order - 1].tolist(), capacity
        )


# sizes[id - 1] of 1..30 ids: all one size, or unequal
SIZES = st.one_of(
    UNIFORM_SIZES.flatmap(lambda size: st.lists(st.just(size), min_size=1, max_size=30)),
    UNEQUAL_SIZES,
)
# few distinct keys: ties, zeros and never-cached (inf) UCB indices
KEYS = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf])


class TestFillTop:
    """Fill.top is the ranked fill: ids by descending key, ties to the lower id."""

    @given(data=st.data(), sizes=SIZES, capacity=CAPACITIES)
    @settings(max_examples=300, deadline=None)
    def test_equals_item_by_item_over_the_ranking(self, data, sizes, capacity):
        sizes = np.array(sizes)
        chosen_ids = data.draw(st.sets(st.integers(1, len(sizes))))
        id_array = np.array(sorted(chosen_ids), dtype=np.int64)
        keys = np.array(data.draw(st.lists(KEYS, min_size=len(id_array),
                                           max_size=len(id_array))))
        share = data.draw(st.one_of(st.just(capacity), st.floats(0.0, capacity)))
        got, used = Fill(sizes, capacity).top(id_array, lambda: keys, share)
        ranking = sorted(range(len(id_array)), key=lambda i: (-keys[i], id_array[i]))
        ranked_ids = id_array[ranking]
        want, want_used = fill_item_by_item(
            ranked_ids.tolist(), sizes[ranked_ids - 1].tolist(), share
        )
        assert got.tolist() == sorted(want)
        assert used == want_used
        assert got.dtype == np.int64

    @pytest.mark.parametrize(
        "n_ids, share, calls",
        [
            (0, 5, 0),  # no ids
            (4, 5, 0),  # every id fits with room to spare
            (5, 5, 0),  # every id fits exactly
            (6, 5, 1),  # one is left out: ranked once
            (6, 0, 1),  # none fits
        ],
    )
    def test_keys_read_at_uniform_sizes_only_when_some_id_is_left_out(
        self, n_ids, share, calls
    ):
        keys = mock.Mock(return_value=np.arange(n_ids, dtype=float))
        chosen, used = Fill(unit_sizes(10), 10).top(np.arange(1, n_ids + 1), keys, share)
        assert keys.call_count == calls
        assert (len(chosen), used) == (min(n_ids, share), float(min(n_ids, share)))
        # keys ascend with the id: the highest ids are kept
        assert chosen.tolist() == list(range(n_ids - len(chosen) + 1, n_ids + 1))

    @pytest.mark.parametrize("share", [0, 5, 20])
    def test_keys_read_once_at_unequal_sizes(self, share):
        keys = mock.Mock(return_value=np.zeros(4))
        Fill(np.append(unit_sizes(9), 2.0), 20).top(np.arange(1, 5), keys, share)
        assert keys.call_count == 1


class TestCapacityRule:
    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0])
    def test_fill_rejects_capacity(self, capacity):
        with pytest.raises(BadInput):
            Fill(np.ones(3), capacity)

    @pytest.mark.parametrize(
        "size, capacity, count", [(0.1, 0.3, 3), (1.0, 2.9999999995, 3), (2.5, 7.4, 2)]
    )
    def test_count_is_the_fill_of_the_library(self, size, capacity, count):
        fill = Fill(np.full(9, size), capacity)
        chosen, used = fill_item_by_item(list(range(1, 10)), [size] * 9, capacity)
        assert (fill.count, fill.used) == (len(chosen), used)
        assert fill.count == count

    def test_no_count_at_unequal_sizes(self):
        fill = Fill(np.array([1.0, 2.0, 1.0]), 2.0)
        assert fill.count is None and fill.used is None
        chosen, used = fill.admit(ids(2, 1, 3), 2.0)
        assert (chosen.tolist(), used) == ([2], 2.0)


def test_make_policy_unknown():
    catalog = build_catalog(
        CatalogConfig(library_size=6, w_snm=0.5, horizon=20), seed=42
    )
    with pytest.raises(UnknownPolicy):
        make_policy("lru", catalog, 3, np.random.default_rng(0))


@pytest.mark.parametrize("t", [1, 2, 9, 40])
def test_each_policy_reads_only_the_slots_before_t(t):
    """Fed slots 1..t-1 through update, a policy keeps exactly their counts.

    The hybrid keeps the IRM ids' request counts and the (SNM, IRM) split
    of the last alloc_window slots, popular the request count of every
    id and their total; random keeps nothing it was fed, so it places as
    one that was fed no tally.
    """
    catalog = build_catalog(
        CatalogConfig(library_size=30, w_snm=0.6, horizon=40), seed=7
    )
    trace = generate_trace(catalog, 40, 25, 0.6, 0.8, seed=8)
    tallies = [
        np.bincount(ids, minlength=catalog.id_space) for ids in trace.events_by_slot()
    ][: t - 1]
    counts = np.bincount(trace.ids[: trace.offsets[t - 1]], minlength=catalog.id_space)

    def fed(name, tallies):
        policy = make_policy(name, catalog, 8.0, np.random.default_rng(3), alloc_window=5)
        for slot, tally in enumerate(tallies, start=1):
            policy.update(policy.place(slot), tally)
        return policy

    hybrid = fed("hybrid", tallies)
    assert hybrid.irm_counts.tolist() == counts[catalog.irm_ids].tolist()
    split = [
        (int(c[catalog.snm_ids].sum()), int(c[catalog.irm_ids].sum()))
        for c in tallies
    ]
    assert list(hybrid.estimator._counts) == split[-5:]
    popular = fed("popular", tallies)
    assert popular.counts.tolist() == counts.tolist()
    assert popular.total == int(trace.offsets[t - 1])
    unfed = np.zeros(catalog.id_space, dtype=np.int64)
    random_fed, random_unfed = fed("random", tallies), fed("random", [unfed] * (t - 1))
    assert random_fed.place(t).cached.tolist() == random_unfed.place(t).cached.tolist()
