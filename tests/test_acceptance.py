"""End-to-end acceptance suite.

Runs the full experiment grid (library-size and capacity sweeps, 10
seeds, all three policies at T=600) once per session and checks every
acceptance criterion against it, printing one PASS/FAIL line each.
Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import time
from collections import defaultdict

import numpy as np
import pytest

from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.cli import ExperimentConfig, make_workload, main
from hybridcache.engine import run_simulation
from hybridcache.policy import (
    BanditState,
    Fill,
    exact_knapsack,
    hybrid_update,
)
from hybridcache.popularity import estimate_allocation
from hybridcache.workload import (
    ParetoVolume,
    generate_trace,
    sample_pareto_volume,
    zipf_pmf,
)

SEEDS = tuple(range(1000, 1010))
POLICIES = ("hybrid", "popular", "random")
LIBRARY_SIZES = (50, 70, 90, 110, 130, 150)
CAPACITIES = (10.0, 20.0, 30.0, 40.0)
SWEEP_CAPACITY = 40.0


def criterion(number, description, ok):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def nearly_monotone(seq, direction, slack=0.01):
    """Monotone allowing one adjacent-pair violation of at most `slack`."""
    diffs = [b - a for a, b in zip(seq, seq[1:])]
    if direction == "non_increasing":
        violations = [d for d in diffs if d > 1e-12]
    else:
        violations = [-d for d in diffs if d < -1e-12]
    return len(violations) <= 1 and all(v <= slack for v in violations)


@pytest.fixture(scope="session")
def sweep_data():
    """All sweep runs: {(axis, value, policy, seed): metrics-like dict}."""
    config = ExperimentConfig()
    results = {}
    point_seconds = {}
    for library_size in LIBRARY_SIZES:
        start = time.monotonic()
        for seed in SEEDS:
            catalog, trace = make_workload(config, library_size, seed)
            for policy in POLICIES:
                m = run_simulation(
                    catalog, trace, policy, SWEEP_CAPACITY, seed=seed,
                    exploration_beta=config.exploration_beta,
                )
                results[("library_size", library_size, policy, seed)] = {
                    "mean_hit_ratio": m.summary["mean_hit_ratio"],
                    "final_regret": m.summary["final_regret"],
                    "regret": m.cumulative_regret,
                }
            if library_size == 150:
                for capacity in CAPACITIES[:-1]:
                    for policy in POLICIES:
                        m = run_simulation(
                            catalog, trace, policy, capacity, seed=seed,
                            exploration_beta=config.exploration_beta,
                        )
                        results[("capacity", capacity, policy, seed)] = {
                            "mean_hit_ratio": m.summary["mean_hit_ratio"],
                            "final_regret": m.summary["final_regret"],
                            "regret": m.cumulative_regret,
                        }
        point_seconds[library_size] = time.monotonic() - start
    for policy, seed in itertools.product(POLICIES, SEEDS):
        results[("capacity", SWEEP_CAPACITY, policy, seed)] = results[
            ("library_size", 150, policy, seed)
        ]
    return results, point_seconds


def seed_mean(results, axis, value, policy, key):
    return float(
        np.mean([results[(axis, value, policy, s)][key] for s in SEEDS])
    )


def test_criterion_1_policy_ordering(sweep_data):
    results, point_seconds = sweep_data
    ok = True
    for axis, value in (("capacity", 40.0), ("library_size", 90)):
        hybrid = seed_mean(results, axis, value, "hybrid", "mean_hit_ratio")
        popular = seed_mean(results, axis, value, "popular", "mean_hit_ratio")
        random_ = seed_mean(results, axis, value, "random", "mean_hit_ratio")
        ok &= hybrid > popular > random_
        ok &= hybrid >= popular * 1.10
        ok &= hybrid >= random_ * 1.25
    # full 10-seed point (workload generation + all three policies)
    ok &= point_seconds[150] < 60.0
    ok &= point_seconds[90] < 60.0
    criterion(
        1,
        "hybrid > popular > random at F=150 and F=90 (C=40, 10 seeds), "
        "with >=10%/>=25% relative margins, each point under 60 s",
        ok,
    )


def test_criterion_2_library_size_trend(sweep_data):
    results, _ = sweep_data
    curve = [
        seed_mean(results, "library_size", f, "hybrid", "mean_hit_ratio")
        for f in LIBRARY_SIZES
    ]
    criterion(
        2,
        f"hybrid hit ratio non-increasing over library sizes "
        f"{LIBRARY_SIZES}: {[round(x, 4) for x in curve]}",
        nearly_monotone(curve, "non_increasing"),
    )


def test_criterion_3_capacity_trend(sweep_data):
    results, _ = sweep_data
    ok = True
    curves = {}
    for policy in POLICIES:
        curve = [
            seed_mean(results, "capacity", c, policy, "mean_hit_ratio")
            for c in CAPACITIES
        ]
        curves[policy] = [round(x, 4) for x in curve]
        ok &= nearly_monotone(curve, "non_decreasing")
    criterion(
        3,
        f"all policies non-decreasing in capacity {CAPACITIES}: {curves}",
        ok,
    )


def test_criterion_4_regret(sweep_data):
    results, _ = sweep_data
    ok = True
    points = [("library_size", f) for f in LIBRARY_SIZES] + [
        ("capacity", c) for c in CAPACITIES
    ]
    for axis, value in points:
        hybrid = seed_mean(results, axis, value, "hybrid", "final_regret")
        random_ = seed_mean(results, axis, value, "random", "final_regret")
        ok &= hybrid < random_
    # sublinearity proxy on the seed-averaged hybrid regret curve
    halves = {}
    for axis, value in (("capacity", 40.0), ("library_size", 90)):
        curve = np.mean(
            [results[(axis, value, "hybrid", s)]["regret"] for s in SEEDS],
            axis=0,
        )
        early = curve[299] / 300
        late = (curve[599] - curve[299]) / 300
        halves[(axis, value)] = (round(early, 5), round(late, 5))
        # an identically-zero curve (perfect play) is trivially sublinear
        ok &= late < early or (early == 0.0 and late == 0.0)
    criterion(
        4,
        "hybrid regret below random at every swept point; per-slot regret "
        f"(early, late) {halves} decreasing",
        ok,
    )


def test_criterion_5_knapsack_oracle():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 16))
        # dyadic values keep float sums exact in both solvers
        values = (rng.integers(0, 1 << 16, size=n) / (1 << 10)).tolist()
        sizes = rng.integers(1, 8, size=n).tolist()
        capacity = int(rng.integers(0, int(1.5 * n) + 1))
        best = 0.0
        for mask in itertools.product([0, 1], repeat=n):
            if sum(s for m, s in zip(mask, sizes) if m) > capacity:
                continue
            best = max(best, sum(v for m, v in zip(mask, values) if m))
        ok &= exact_knapsack(values, sizes, capacity) == best
        # uniform sizes: the greedy fill by value, ties by lower id, is exact
        ids = np.arange(1, n + 1)
        order = ids[np.lexsort((ids, -np.array(values)))]
        k = min(capacity, n)
        chosen, _ = Fill(np.ones(n), k).admit(order, k)
        greedy = sum(values[c - 1] for c in sorted(chosen.tolist()))
        ok &= greedy == exact_knapsack(values, [1] * n, k)
    criterion(
        5,
        "exact knapsack matches 2^n enumeration on 200 instances (n<=15); "
        "greedy matches exact under uniform sizes",
        ok,
    )


def test_criterion_6_distributions():
    ok = True
    for n in (1, 10, 150):
        for delta in (0.0, 0.8, 1.5):
            ok &= abs(zipf_pmf(n, delta).sum() - 1.0) < 1e-9
    model = ParetoVolume(beta=2.0, n_min=1.0)
    us = np.random.default_rng(9).random(1_000_000)
    draws = np.fromiter(
        (sample_pareto_volume(model, u) for u in us), dtype=float, count=len(us)
    )
    mean_ok = abs(draws.mean() - 2.0) / 2.0 < 0.02
    ok &= mean_ok
    # 1e5 IRM requests: empirical frequencies vs the pmf
    catalog = build_catalog(
        CatalogConfig(library_size=150, w_snm=0.0, horizon=100), seed=61
    )
    trace = generate_trace(catalog, 100, 1000, 0.0, 0.8, seed=62)
    counts = np.zeros(150)
    for _, cid in trace.events:
        counts[cid - 1] += 1
    tv = 0.5 * np.abs(counts / counts.sum() - zipf_pmf(150, 0.8)).sum()
    ok &= tv < 0.02
    criterion(
        6,
        f"zipf pmf normalized; Pareto mean {draws.mean():.4f} within 2% of "
        f"2.0; trace total variation {tv:.4f} < 0.02",
        ok,
    )


def test_criterion_7_allocation_estimator():
    ok = True
    observed = {}
    for target in (0.2, 0.5, 0.8):
        catalog = build_catalog(
            CatalogConfig(library_size=100, w_snm=target, horizon=600),
            seed=71,
        )
        trace = generate_trace(catalog, 600, 100, target, 0.8, seed=72)
        is_snm = np.isin(trace.ids, catalog.snm_ids)
        n_snm = np.diff(np.append(0, np.cumsum(is_snm))[trace.offsets])
        n_irm = np.diff(trace.offsets) - n_snm
        counts = list(zip(n_snm.tolist(), n_irm.tolist()))
        estimate = estimate_allocation(counts, smoothing=0.0)
        adjusted = target - trace.stats.fallback_count / trace.stats.total_requests
        observed[target] = (round(estimate, 4), round(adjusted, 4))
        ok &= abs(estimate - adjusted) <= 0.05
    criterion(
        7,
        f"unsmoothed full-horizon W_S estimate within 0.05 of the "
        f"fallback-adjusted target: {observed}",
        ok,
    )


def test_criterion_8_exact_arithmetic(tmp_path):
    ok = True
    # running mean == arithmetic mean of fed observations
    rng = np.random.default_rng(81)
    observations = (rng.integers(0, 64, size=32) / 64).tolist()
    state = BanditState.fresh([0.0, 0.5])
    total = 0.0
    for i, obs in enumerate(observations, start=1):
        hybrid_update(state, [1], [obs])
        total += obs
    ok &= state.pulls[1] == len(observations)
    ok &= abs(state.mean[1] - total / len(observations)) < 1e-15

    # capacity never violated under fuzzing across policies; the
    # Placement constructor raises on any violation
    catalog, trace = make_workload(
        ExperimentConfig(horizon=40, requests_per_slot=20), 30, 83
    )
    for policy in POLICIES:
        for capacity in (0, 1, 7, 13):
            m = run_simulation(catalog, trace, policy, capacity, seed=84)
            ok &= all(r.hit_ratio <= 1.0 for r in m.per_slot)

    # identical config + seed reproduce byte-identical sweep CSVs
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "horizon = 25\nlibrary_size = 20\nrequests_per_slot = 10\n"
        "seeds = 1,2\npolicies = hybrid,random\n"
    )
    for sub in ("a", "b"):
        rc = main(
            ["sweep", "--config", str(cfg_file), "--axis", "capacity",
             "--values", "3,6", "--out", str(tmp_path / sub)]
        )
        ok &= rc == 0
    ok &= (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep.csv"
    ).read_bytes()
    criterion(
        8,
        "running mean exact; capacity safe under fuzzing; result CSVs "
        "byte-identical across repeated runs",
        ok,
    )


# The IRM-only analytic check: seeds 4000-4009, held out from the seeds
# 3000-3009 that the slack below was measured on. A band is Z_BAND
# standard errors of the ten-seed mean, from the test's own seeds.
IRM_SEEDS = tuple(range(4000, 4010))
Z_BAND = 4.0
# the most the learners may fall short of the top-C Zipf mass: on seeds
# 3000-3009 popular fell 0.0026 short at C=40 and hybrid 0.0021
LEARNER_SLACK = 0.005


@pytest.mark.parametrize("capacity", [10.0, 40.0])
def test_irm_only_hit_ratios_match_the_analytic_values(capacity):
    """With w_snm=0 the library is static Zipf (F=150, R=100, T=600).

    Random caching hits C/F of requests in expectation. A cache of the C
    most popular contents hits their Zipf mass, which no static cache
    beats in expectation; popular and hybrid learn that ranking, so they
    sit at it or a little below.
    """
    config = ExperimentConfig(w_snm=0.0)
    ratios = defaultdict(list)
    for seed in IRM_SEEDS:
        catalog, trace = make_workload(config, 150, seed)
        for policy in POLICIES:
            m = run_simulation(catalog, trace, policy, capacity, seed=seed,
                               exploration_beta=config.exploration_beta)
            ratios[policy].append(m.summary["mean_hit_ratio"])
    top_c_mass = float(zipf_pmf(150, config.zipf_delta)[: int(capacity)].sum())
    for policy, samples in ratios.items():
        mean = float(np.mean(samples))
        band = Z_BAND * float(np.std(samples, ddof=1)) / np.sqrt(len(samples))
        if policy == "random":
            target = capacity / 150
            assert abs(mean - target) <= band, (policy, mean, target, band)
        else:
            low, high = top_c_mass - LEARNER_SLACK - band, top_c_mass + band
            assert low <= mean <= high, (policy, mean, top_c_mass, band)
