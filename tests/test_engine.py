import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import engine_reference
import hybridcache.engine as engine
import hybridcache.policy as policy_mod
import hybridcache.workload as workload_mod
from catalog_helpers import array_catalog
from hybridcache.cli import ExperimentConfig, make_workload
from hybridcache.catalog import (
    CatalogConfig,
    build_catalog,
    load_catalog,
    save_catalog,
)
from hybridcache.engine import (
    cumulative_regret,
    oracle_placement,
    run_simulation,
    slot_step,
)
from hybridcache.errors import HybridCacheError
from hybridcache.policy import POLICY_NAMES, Placement
from hybridcache.workload import RequestTrace, generate_trace, load_trace, save_trace


def placement_of(ids, capacity):
    return Placement(
        cached=np.array(sorted(ids), dtype=np.int64),
        used_capacity=float(len(ids)),
        capacity=capacity,
    )


def tally_of(ids, n_items=9):
    """A slot's per-id request counts; position = content id."""
    return np.bincount(np.asarray(ids, dtype=np.int64), minlength=n_items + 1)


def trace_of(*slots):
    """A trace whose slot t requests the ids in slots[t - 1]."""
    return RequestTrace.from_events(
        len(slots), [(t, cid) for t, ids in enumerate(slots, start=1) for cid in ids]
    )


def catalog_of(sizes):
    """An all-IRM catalog whose id i has size sizes[i - 1]."""
    return array_catalog(sizes)


def best_by_enumeration(counts, sizes, capacity):
    """The most requests a cache within capacity serves, over all 2^n subsets."""
    n = len(counts)
    masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    fits = masks @ np.asarray(sizes) <= capacity
    return int((masks @ np.asarray(counts))[fits].max())


def tallies_of(*slots):
    """A chunk's tallies: row r is tally_of(slots[r])."""
    return np.stack([tally_of(ids) for ids in slots])


class TestSlotStep:
    def test_partial_hits(self):
        hits = slot_step([placement_of({1}, 2)], tallies_of([1, 1, 2, 3]))
        assert hits.tolist() == [2]

    def test_empty_cache(self):
        hits = slot_step([placement_of(set(), 2)], tallies_of([1, 2]))
        assert hits.tolist() == [0]

    def test_full_coverage(self):
        hits = slot_step([placement_of({1, 2, 3}, 3)], tallies_of([1, 2, 3, 3]))
        assert hits.tolist() == [4]

    def test_each_row_served_by_its_own_cache(self):
        placements = [
            placement_of({1}, 2), placement_of(set(), 2), placement_of({1, 2, 3}, 3)
        ]
        hits = slot_step(placements, tallies_of([1, 1, 2, 3], [1, 2], [1, 2, 3, 3]))
        assert hits.dtype == np.int64
        assert hits.tolist() == [2, 0, 4]


class TestOraclePlacement:
    UNIT = catalog_of([1.0] * 9)

    def test_single_hot_file(self):
        assert oracle_placement(trace_of([1, 1, 1]), self.UNIT, 1).tolist() == [3]

    def test_count_then_id_ties(self):
        assert oracle_placement(trace_of([1, 1, 2, 3]), self.UNIT, 2).tolist() == [3]

    def test_zero_capacity(self):
        assert oracle_placement(trace_of([1, 2]), self.UNIT, 0).tolist() == [0]

    def test_capacity_beyond_library(self):
        assert oracle_placement(trace_of([1, 2, 9, 9]), self.UNIT, 50).tolist() == [4]

    def test_non_uniform_sizes_run_the_knapsack(self):
        # id 1 (size 2) is requested 3 times, ids 2 and 3 (size 1) twice
        # each: a top-2 by count would stop at 3 hits, the knapsack gets 4
        catalog = catalog_of([2, 1, 1])
        trace = trace_of([1, 1, 1, 2, 2, 3, 3])
        assert oracle_placement(trace, catalog, 2).tolist() == [4]

    @given(
        counts=st.lists(st.integers(0, 20), min_size=1, max_size=12),
        size=st.integers(1, 3),
        capacity=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_top_k_equals_knapsack_objective(self, counts, size, capacity):
        # uniform integer sizes: the top-k sum is the knapsack optimum
        catalog = catalog_of([size] * len(counts))
        best = best_by_enumeration(counts, [size] * len(counts), capacity)
        ids = range(1, len(counts) + 1)
        trace = trace_of([cid for cid in ids for _ in range(counts[cid - 1])])
        assert oracle_placement(trace, catalog, capacity).tolist() == [best]

    def test_capacity_past_every_size_caches_every_request(self):
        # the knapsack's table stops at the slot's size sum, not at C
        catalog = catalog_of([3, 1, 2, 5, 1, 4, 2, 1, 3])
        trace = trace_of([1, 1, 4, 9], [], [2, 3, 3, 5, 6, 7, 8, 8, 8])
        got = oracle_placement(trace, catalog, 1e15)
        assert got.dtype == np.int64
        assert got.tolist() == np.diff(trace.offsets).tolist() == [4, 0, 9]


@given(
    slots=st.lists(st.lists(st.integers(1, 9), max_size=12), min_size=1, max_size=8),
    size=st.sampled_from([0.1, 1.0, 2.5, 7.0]),
    capacity=st.one_of(st.just(0.0), st.floats(0.0, 80.0)),
)
@settings(max_examples=300, deadline=None)
# 0.1 + 0.1 + 0.1 is 0.30000000000000004, within 0.3 plus the slack
@example(slots=[[1, 2, 3, 3]], size=0.1, capacity=0.3)
def test_oracle_series_equals_per_slot_top_k(slots, size, capacity):
    # slots may be empty, and capacity may exceed the distinct ids
    catalog = catalog_of([size] * 9)
    # k: the most ids that fit by the policies' rule, their sizes added
    # one by one to a sum of at most capacity + 1e-9
    k, used = 0, 0.0
    while k < 9 and used + size <= capacity + 1e-9:
        k, used = k + 1, used + size
    want = [sorted(tally_of(ids), reverse=True)[:k] for ids in slots]
    got = oracle_placement(trace_of(*slots), catalog, capacity)
    assert got.dtype == np.int64
    assert got.tolist() == [int(sum(top)) for top in want]


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
        with pytest.raises(HybridCacheError, match="achieved has 1 slots, oracle 2"):
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
        with pytest.raises(HybridCacheError, match="unknown policy 'fifo'"):
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


class TestSlotRecords:
    """RunMetrics.per_slot holds one record per slot, read by field name
    (cli.cmd_run's per_slot.csv, the benchmark's run digest)."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_named_float_fields(self, workload, policy):
        catalog, trace = workload
        metrics = run_simulation(catalog, trace, policy, 10, seed=2)
        regret = np.diff(metrics.cumulative_regret, prepend=0.0)
        assert len(metrics.per_slot) == trace.horizon
        for rec, increment in zip(metrics.per_slot, regret):
            values = (rec.hit_ratio, rec.oracle_hit_ratio, rec.regret_increment)
            assert [type(v) for v in values] == [float] * 3
            assert rec.regret_increment == max(0.0, rec.oracle_hit_ratio - rec.hit_ratio)
            assert rec.regret_increment == pytest.approx(increment)

    @pytest.mark.parametrize(
        "field", ["hit_ratio", "oracle_hit_ratio", "regret_increment", "other"]
    )
    def test_immutable(self, workload, field):
        catalog, trace = workload
        rec = run_simulation(catalog, trace, "popular", 10, seed=2).per_slot[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, 0.5)


def test_a_trace_with_no_event_runs():
    catalog = build_catalog(CatalogConfig(library_size=6, w_snm=0.5, horizon=3), seed=3)
    trace = RequestTrace.from_events(3, [])
    for policy in POLICY_NAMES:
        metrics = run_simulation(catalog, trace, policy, 2, seed=1)
        assert [(r.hit_ratio, r.oracle_hit_ratio, r.regret_increment)
                for r in metrics.per_slot] == [(0.0, 0.0, 0.0)] * 3
        assert metrics.summary["mean_hit_ratio"] == 0.0


def generated_at(sizes, library_size=12):
    """A generated catalog with its sizes replaced, and a 40-slot trace.

    sizes is one size for every content, or a list of one per content.
    """
    catalog = build_catalog(
        CatalogConfig(library_size=library_size, w_snm=0.5, horizon=40), seed=5
    )
    catalog = dataclasses.replace(catalog, sizes=np.full(library_size, sizes, dtype=float))
    return catalog, generate_trace(catalog, 40, 20, 0.5, 0.8, seed=6)


# capacities at which a fill admits one more id than capacity // size or
# floor(capacity) would count: the oracle must fit ids by the same rule
ORACLE_BOUND_CASES = {
    "uniform-0.1-at-0.3": (lambda: generated_at(0.1), 0.3),
    "generated-1.0-at-3": (lambda: generated_at(1.0), 2.9999999995),
    "knapsack-at-3": (
        lambda: generated_at([1, 1, 1, 2, 1, 1], library_size=6),
        2.9999999995,
    ),
}


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("case", ORACLE_BOUND_CASES)
def test_no_slot_beats_the_oracle(policy, case):
    make, capacity = ORACLE_BOUND_CASES[case]
    catalog, trace = make()
    metrics = run_simulation(catalog, trace, policy, capacity, seed=7)
    for t, rec in enumerate(metrics.per_slot, start=1):
        assert rec.hit_ratio <= rec.oracle_hit_ratio, t


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("stray", [7, 9, 0])
def test_unknown_content_rejected_before_any_policy_runs(policy, stray):
    catalog = build_catalog(CatalogConfig(library_size=6, w_snm=0.5, horizon=2), seed=3)
    trace = RequestTrace(
        horizon=2,
        ids=np.array([1, 2, stray], dtype=np.int32),
        offsets=np.array([0, 2, 3]),
    )
    with mock.patch.object(engine, "make_policy", wraps=engine.make_policy) as made:
        with pytest.raises(HybridCacheError, match="id outside the catalog's 1..6"):
            run_simulation(catalog, trace, policy, 3, seed=1)
    made.assert_not_called()


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("sizes", [1.0, [1, 1, 1, 2, 1, 1]], ids=["uniform", "unequal"])
@pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_capacity_rejected(policy, sizes, capacity):
    catalog, trace = generated_at(sizes, library_size=6)
    with pytest.raises(HybridCacheError, match="capacity must be finite and >= 0"):
        run_simulation(catalog, trace, policy, capacity, seed=1)


def placements_of(catalog, trace, policy, capacity, seed):
    """The cached id sets of every slot of one run, in slot order."""
    placements = []
    original = engine.make_policy

    def recording(*args, **kwargs):
        made = original(*args, **kwargs)
        place = made.place

        def placed(t):
            placement = place(t)
            placements.append(placement.cached.tolist())
            return placement

        made.place = placed
        return made

    with mock.patch.object(engine, "make_policy", recording):
        run_simulation(catalog, trace, policy, capacity, seed=seed)
    return placements


@pytest.mark.parametrize("policy", POLICY_NAMES)
@given(
    t=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**16),
    capacity=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=15, deadline=None)
def test_no_lookahead(workload, policy, t, seed, capacity):
    """Changing any event at slots >= t leaves the placements up to t alone.

    A policy places at the start of slot t, so slot t's own requests must
    not reach it either.
    """
    catalog, trace = workload
    rng = np.random.default_rng(seed)
    n_items = len(catalog.ids)
    altered = RequestTrace.from_events(
        trace.horizon,
        tuple(
            (slot, cid) if slot < t else (slot, int(rng.integers(1, n_items + 1)))
            for slot, cid in trace.events
            # also drop some of the later events, so later slot sizes change
            if slot < t or rng.random() < 0.8
        ),
    )
    before = placements_of(catalog, trace, policy, capacity, seed)
    after = placements_of(catalog, altered, policy, capacity, seed)
    assert len(before) == len(after) == trace.horizon
    assert after[:t] == before[:t]


def run_digest(metrics):
    """sha256 over a run's summary, per-slot records and regret curve."""
    blob = json.dumps(
        {
            "summary": metrics.summary,
            "per_slot": [
                [r.hit_ratio, r.oracle_hit_ratio, r.regret_increment]
                for r in metrics.per_slot
            ],
            "cumulative_regret": metrics.cumulative_regret.tolist(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# Pinned before the uniform-size fast paths existed. The benchmark's
# golden digests cover uniform sizes only; these cover the knapsack
# oracle and the general greedy and random fills.
NON_UNIFORM_DIGESTS = {
    "hybrid": "ce887d64c2fea809d37112c95954217d04a7fa352c3240c22ebe43328f6d664d",
    "popular": "a5636ab0af2576a67bcc5217b4f553217ca953950893d1ad605101da6b755a36",
    "random": "6d7e02dc4c17cb87a4c1d2cdb5fae58bba66da8fd53e09acbe1bc0737bdba3aa",
}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_pinned_runs_at_non_uniform_sizes(tmp_path, policy):
    built = build_catalog(
        CatalogConfig(library_size=24, w_snm=0.5, horizon=40), seed=61
    )
    sizes = np.random.default_rng(63).integers(1, 4, size=24)
    save_catalog(dataclasses.replace(built, sizes=sizes), tmp_path / "catalog.csv")
    catalog = load_catalog(tmp_path / "catalog.csv")
    assert catalog.sizes.min() < catalog.sizes.max()
    trace = generate_trace(catalog, 40, 30, 0.5, 0.8, seed=62)
    metrics = run_simulation(catalog, trace, policy, 7.5, seed=64)
    assert run_digest(metrics) == NON_UNIFORM_DIGESTS[policy]


# Pinned before the hybrid skipped its UCB ranking when its cache holds
# every live SNM candidate: the CLI's reference workload (F=150, R=100,
# w_snm=0.8) over 200 slots. The hybrid ranks in 184 of the 200 slots at
# C=10 and in 15 at C=40, so both sides of that choice are covered.
UNIFORM_HYBRID_DIGESTS = {
    10.0: "808580c146c6a0251aa41032d975ba3a1fa9adeed99635814372b71fe4164a26",
    40.0: "33635988729c476ceee7c26123a49a2c9974cd6bb73d6f59dec29415aac001f1",
}


@pytest.mark.parametrize("capacity", sorted(UNIFORM_HYBRID_DIGESTS))
def test_pinned_hybrid_runs_at_uniform_sizes(capacity):
    catalog, trace = make_workload(ExperimentConfig(horizon=200), 150, seed=1000)
    metrics = run_simulation(catalog, trace, "hybrid", capacity, seed=1000)
    assert run_digest(metrics) == UNIFORM_HYBRID_DIGESTS[capacity]


def fold_workload(kind):
    """(catalog, trace, capacity) of a hybrid run that ranks its candidates."""
    if kind == "long":
        # id 19 is live and cached from slot 1 and id 20 arrives at slot
        # 1050, the first slot that ranks: the default bound has folded
        # slots 1..1024 by then
        catalog = array_catalog([1.0] * 20, {19: (1, 1100, 50.0), 20: (1050, 51, 50.0)})
        return catalog, generate_trace(catalog, 1100, 30, 0.3, 0.8, seed=5), 2.0
    catalog = build_catalog(CatalogConfig(library_size=24, w_snm=0.5, horizon=40), seed=61)
    if kind == "unequal":
        sizes = np.random.default_rng(63).integers(1, 4, size=24).astype(float)
        catalog = dataclasses.replace(catalog, sizes=sizes)
    return catalog, generate_trace(catalog, 40, 30, 0.5, 0.8, seed=62), 7.5


@pytest.mark.parametrize("kind", ["uniform", "unequal", "long"])
def test_queued_fold_changes_no_run(kind):
    """A hybrid run, and every index it reads, is the same whether its
    bandit queue folds at every update (MAX_QUEUED = 1), every third or
    at the default bound."""
    catalog, trace, capacity = fold_workload(kind)
    index = policy_mod.hybrid_ucb_index
    runs = []
    for bound in (1, 3, policy_mod.MAX_QUEUED):
        reads = []  # (slot, ids, index) of each index read

        def spy(state, ids, t, beta):
            got = index(state, ids, t, beta)
            reads.append((t, ids.tobytes(), got.tobytes()))
            return got

        with mock.patch.object(policy_mod, "MAX_QUEUED", bound), \
                mock.patch.object(policy_mod, "hybrid_ucb_index", spy):
            metrics = run_simulation(catalog, trace, "hybrid", capacity, seed=64)
        runs.append((run_digest(metrics), reads))
    assert runs[0][1], "no slot ranks its candidates"
    assert runs[0] == runs[1] == runs[2]
    if kind == "long":
        assert runs[0][1][0][0] == 1050


def test_no_index_read_for_no_candidates():
    """At unequal sizes the hybrid reads no index in a slot with no live
    SNM item, so it neither folds nor ranks there."""
    catalog, trace, capacity = fold_workload("unequal")
    empty = [t for t in range(1, trace.horizon + 1) if not len(catalog.active_snm_ids(t))]
    assert empty, "every slot has a live SNM item"
    index = policy_mod.hybrid_ucb_index
    sizes = []

    def spy(state, ids, t, beta):
        sizes.append(len(ids))
        return index(state, ids, t, beta)

    with mock.patch.object(policy_mod, "hybrid_ucb_index", spy):
        run_simulation(catalog, trace, "hybrid", capacity, seed=64)
    assert sizes and min(sizes) > 0


RUN_SEED = 7


def served(catalog, trace, policy, capacity):
    """What run_simulation served, slot by slot, in a run seeded RUN_SEED.

    Returns (hits, fed, chunks): the hits slot_step returned for the
    run's slots, joined in slot order; the (placement, tally) of every
    update call; and the number of slots in each of the run's chunks.
    """
    hits, fed, chunks = [], [], []
    make, step = engine.make_policy, engine.slot_step

    def made(*args, **kwargs):
        policy = make(*args, **kwargs)
        update = policy.update

        def updated(placement, tally):
            fed.append((placement, tally))
            update(placement, tally)

        policy.update = updated
        return policy

    def stepped(placements, tallies):
        out = step(placements, tallies)
        # the oracle's knapsack placements are served too, but never fed
        if fed and placements[-1] is fed[-1][0]:
            hits.extend(out.tolist())
            chunks.append(len(placements))
        return out

    with mock.patch.object(engine, "make_policy", made), \
            mock.patch.object(engine, "slot_step", stepped):
        run_simulation(catalog, trace, policy, capacity, seed=RUN_SEED)
    return hits, fed, chunks


def assert_served_as_slot_by_slot(catalog, trace, policy, capacity, cap):
    """The chunked run against the per-slot reference loop; returns the chunks."""
    hits, fed, chunks = served(catalog, trace, policy, capacity)
    assert len(fed) == trace.horizon
    for t, (slot_ids, (placement, tally)) in enumerate(
        zip(trace.events_by_slot(), fed), start=1
    ):
        assert not tally.flags.writeable, t
        counted = np.bincount(slot_ids, minlength=catalog.id_space)
        assert tally.tolist() == counted.tolist(), t
        assert hits[t - 1] == tally[placement.cached].sum(), t
    reference = engine_reference.slot_hits(catalog, trace, policy, capacity, RUN_SEED)
    assert hits == reference.tolist()
    # each chunk keeps within both caps, unless it is a single slot
    assert sum(chunks) == trace.horizon
    bounds = np.cumsum([0] + chunks)
    events = np.diff(trace.offsets[bounds])
    for n, n_events in zip(chunks, events):
        assert n == 1 or (n * catalog.id_space <= cap and n_events <= cap)
    return chunks


def scattered(per_slot, n_ids, seed):
    """A trace of per_slot[t - 1] uniform ids in 1..n_ids at each slot t."""
    rng = np.random.default_rng(seed)
    return trace_of(*(rng.integers(1, n_ids + 1, n).tolist() for n in per_slot))


CAP = engine.CHUNK_CELLS


def library_beyond_the_cap():
    catalog = catalog_of(np.ones(CAP + 5))
    return catalog, scattered([30, 0, 25, 40], CAP + 5, seed=1)


def slot_beyond_the_cap():
    return catalog_of(np.ones(9)), scattered([3, CAP + 7, 2], 9, seed=2)


def uneven_horizon():
    # 151 cells a slot: 434 slots a chunk, so 1000 slots are 434 + 434 + 132
    return catalog_of(np.ones(150)), scattered([3] * 1000, 150, seed=3)


CHUNK_EDGE_CASES = {
    "id-space-beyond-the-cap": (library_beyond_the_cap, [1, 1, 1, 1]),
    "slot-beyond-the-cap": (slot_beyond_the_cap, [1, 1, 1]),
    "uneven-horizon": (uneven_horizon, [434, 434, 132]),
}


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("case", CHUNK_EDGE_CASES)
def test_chunk_edges_serve_as_slot_by_slot(policy, case):
    make, want_chunks = CHUNK_EDGE_CASES[case]
    catalog, trace = make()
    chunks = assert_served_as_slot_by_slot(catalog, trace, policy, 12, CAP)
    assert chunks == want_chunks


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_loaded_trace_ending_early_serves_as_slot_by_slot(tmp_path, workload, policy):
    catalog, trace = workload
    early = trace_of(*[list(ids) for ids in trace.events_by_slot()[:30]])
    save_trace(early, tmp_path / "trace.csv")
    loaded = load_trace(tmp_path / "trace.csv", catalog, 80)
    assert loaded.horizon == 80 and loaded.offsets[30] == loaded.offsets[-1]
    # 31 cells a slot, so 50 slots a chunk: the first ends in 20 empty
    # slots, and the second holds only empty ones
    with mock.patch.object(engine, "CHUNK_CELLS", 31 * 50):
        chunks = assert_served_as_slot_by_slot(catalog, loaded, policy, 6, 31 * 50)
    assert chunks == [50, 30]


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("cap", [1, 31, 100, 1000])
def test_small_chunks_serve_as_slot_by_slot(workload, policy, cap):
    # cap 1 and 31: a slot per chunk; 100: two slots by their 80 events;
    # 1000: 25 slots by events, under the 32 the cells allow
    catalog, trace = workload
    with mock.patch.object(engine, "CHUNK_CELLS", cap):
        chunks = assert_served_as_slot_by_slot(catalog, trace, policy, 8, cap)
    assert max(chunks) == {1: 1, 31: 1, 100: 2, 1000: 25}[cap]


@given(
    data=st.data(),
    n_ids=st.sampled_from([1, 3, 40, 70_000]),
    # a chunk of one slot or event, of a few, and the default
    cap=st.sampled_from([1, 7, 64, engine.CHUNK_CELLS]),
    per_slot=st.lists(st.integers(0, 12), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_each_tally_row_counts_its_slot(data, n_ids, cap, per_slot):
    ids = st.integers(1, n_ids) | st.sampled_from([1, n_ids])
    trace = trace_of(*([data.draw(ids) for _ in range(n)] for n in per_slot))
    slots = iter(trace.events_by_slot())
    with mock.patch.object(engine, "CHUNK_CELLS", cap), \
            mock.patch.object(workload_mod, "CHUNK_CELLS", cap):
        for t0, tallies in engine._tally_chunks(trace, n_ids + 1):
            assert tallies.dtype == np.int64 and not tallies.flags.writeable
            assert len(tallies) == 1 or tallies.size <= cap
            for t, tally in enumerate(tallies, start=t0):
                counted = np.bincount(next(slots), minlength=n_ids + 1)
                assert tally.tolist() == counted.tolist(), t
    assert t == trace.horizon


@pytest.mark.parametrize("sizes", [1.0, [1, 1, 1, 2, 1, 1]], ids=["uniform", "knapsack"])
def test_runs_over_one_trace_count_it_once(sizes):
    catalog, trace = generated_at(sizes, library_size=6)
    run_simulation(catalog, trace, "hybrid", 3, seed=7)
    table = trace.slot_counts
    with mock.patch.object(workload_mod, "_key_counts", side_effect=AssertionError):
        for policy in POLICY_NAMES:
            run_simulation(catalog, trace, policy, 3, seed=8)
    assert trace.slot_counts is table


def test_runs_sharing_a_catalog_place_as_each_alone():
    # both hybrids read the catalog's one kept live set; the second runs
    # 300 slots behind, so each call leaves the span the last one served
    config = ExperimentConfig()
    catalog, trace = make_workload(config, 150, 1000)
    tallies = np.concatenate([t for _, t in engine._tally_chunks(trace, catalog.id_space)])
    capacities, lag = (10.0, 40.0), 300

    def placed(catalog, order):
        policies = [policy_mod.HybridPolicy(catalog, c) for c in capacities]
        cached = [[] for _ in capacities]
        for k, t in order:
            placement = policies[k].place(t)
            policies[k].update(placement, tallies[t - 1])
            cached[k].append(placement.cached.tolist())
        return cached

    slots = range(1, trace.horizon + 1)
    together = placed(catalog, [
        (k, t - k * lag) for t in range(1, trace.horizon + lag + 1) for k in (0, 1)
        if t - k * lag in slots
    ])
    for k in (0, 1):
        alone = placed(make_workload(config, 150, 1000)[0], [(k, t) for t in slots])
        assert together[k] == alone[k], capacities[k]


def test_trace_after_a_run_equals_the_trace_before():
    # the run leaves the catalog's kept live set at its last slot's span
    catalog = make_workload(ExperimentConfig(), 150, 1000)[0]
    args = (600, 100, 0.8, 0.8, 7)
    before = generate_trace(catalog, *args)
    run_simulation(catalog, before, "hybrid", 10.0, seed=1000)
    after = generate_trace(catalog, *args)
    assert after.ids.tolist() == before.ids.tolist()
    assert after.offsets.tolist() == before.offsets.tolist()
    assert after.fallback_count == before.fallback_count


@pytest.mark.parametrize("cap", [1, 50])
def test_knapsack_oracle_in_small_chunks(cap):
    catalog, trace = generated_at([1, 1, 1, 2, 1, 1], library_size=6)
    want = []
    for slot_ids in trace.events_by_slot():
        tally = np.bincount(slot_ids, minlength=catalog.id_space)
        ids = np.flatnonzero(tally)
        want.append(best_by_enumeration(tally[ids], catalog.sizes[ids - 1], 3))
    with mock.patch.object(engine, "CHUNK_CELLS", cap):
        assert oracle_placement(trace, catalog, 3).tolist() == want


# make_workload, then every policy at C=10 and C=40 over the reference setup
NO_MASKED_ARRAYS = """
import sys
from hybridcache.cli import ExperimentConfig, make_workload
from hybridcache.engine import run_simulation
from hybridcache.policy import POLICY_NAMES
catalog, trace = make_workload(ExperimentConfig(), 150, 1000)
for capacity in (10.0, 40.0):
    for policy in POLICY_NAMES:
        run_simulation(catalog, trace, policy, capacity, 1000)
sys.exit("numpy.ma" in sys.modules)
"""


def test_a_run_imports_no_masked_arrays():
    # numpy.ma costs about 1 MB of memory; np.unique and np.union1d import it
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
