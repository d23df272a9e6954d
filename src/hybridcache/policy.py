"""Cache placement policies: knapsack fills, baselines, and the hybrid
UCB policy that splits capacity between static and shot-like content.

The hybrid policy reserves floor(w_irm * C) units for IRM content
(filled by popularity rank) and the rest for SNM content: never-cached
candidates are admitted first, then the remainder by descending UCB
index. Capacity a side cannot use rolls over to the other side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .catalog import Catalog, Regime, feature_influence
from .errors import BadInput, ColdStart, NeedsIntegerSizes, UnknownPolicy
from .popularity import AllocationEstimate, PopularitySnapshot

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Placement:
    """A 0/1 cache decision: the set of cached ids under capacity C."""

    cached: frozenset
    used_capacity: float
    capacity: float

    def __post_init__(self):
        if self.used_capacity > self.capacity + 1e-9:
            raise ValueError(
                f"used {self.used_capacity} exceeds capacity {self.capacity}"
            )


def _fill(ordered_ids, sizes, capacity) -> tuple:
    """Admit ids in the given order, skipping any that no longer fit."""
    chosen = []
    used = 0.0
    for cid in ordered_ids:
        s = sizes[cid]
        if used + s <= capacity + 1e-9:
            chosen.append(cid)
            used += s
    return chosen, used


def _check_knapsack_input(values, sizes):
    if len(values) != len(sizes):
        raise BadInput("values and sizes must have the same length")
    if any(v < 0 for v in values):
        raise BadInput("values must be non-negative")
    if any(s <= 0 for s in sizes):
        raise BadInput("sizes must be positive")


def greedy_knapsack(
    values: Sequence[float],
    sizes: Sequence[float],
    capacity: float,
    ids: Optional[Sequence[int]] = None,
) -> Placement:
    """Density-greedy 0/1 knapsack: admit by value/size, skip misfits.

    Deterministic; ties broken by lower id.
    """
    _check_knapsack_input(values, sizes)
    if capacity < 0:
        raise BadInput("capacity must be >= 0")
    if ids is None:
        ids = list(range(1, len(values) + 1))
    size_of = dict(zip(ids, sizes))
    order = [
        cid
        for _, cid in sorted((-v / s, cid) for v, s, cid in zip(values, sizes, ids))
    ]
    chosen, used = _fill(order, size_of, capacity)
    return Placement(cached=frozenset(chosen), used_capacity=used, capacity=capacity)


def exact_knapsack(
    values: Sequence[float],
    sizes: Sequence[float],
    capacity: float,
    ids: Optional[Sequence[int]] = None,
) -> Placement:
    """Optimal 0/1 knapsack by dynamic programming over capacity.

    Requires integer sizes. Ties among optimal subsets are broken by
    the lexicographically smallest sorted id tuple (zero-value items
    are never included).
    """
    _check_knapsack_input(values, sizes)
    if capacity < 0:
        raise BadInput("capacity must be >= 0")
    if any(not float(s).is_integer() for s in sizes):
        raise NeedsIntegerSizes("exact_knapsack requires integer sizes")
    if ids is None:
        ids = list(range(1, len(values) + 1))
    cap = int(math.floor(capacity))
    int_sizes = [int(s) for s in sizes]

    order = sorted(range(len(ids)), key=lambda i: ids[i])
    if len(set(int_sizes)) <= 1 and int_sizes:
        # uniform sizes: optimum is the top-k by value, lowest id first
        k = cap // int_sizes[0]
        ranked = sorted(order, key=lambda i: (-values[i], ids[i]))[:k]
        chosen = sorted(ids[i] for i in ranked if values[i] > 0)
        used = float(sum(int_sizes[0] for _ in chosen))
        return Placement(cached=frozenset(chosen), used_capacity=used, capacity=capacity)

    # states: capacity used -> (total value, sorted id tuple)
    best = {0: (0.0, ())}
    for i in order:
        cid, v, s = ids[i], values[i], int_sizes[i]
        if v == 0:
            continue
        updates = {}
        for used, (val, chosen) in best.items():
            u2 = used + s
            if u2 > cap:
                continue
            cand = (val + v, chosen + (cid,))
            cur = updates.get(u2, best.get(u2))
            if (
                cur is None
                or cand[0] > cur[0]
                or (cand[0] == cur[0] and cand[1] < cur[1])
            ):
                updates[u2] = cand
        best.update(updates)
    used_best, (_, chosen_best) = min(
        best.items(), key=lambda kv: (-kv[1][0], kv[1][1])
    )
    return Placement(
        cached=frozenset(chosen_best),
        used_capacity=float(used_best),
        capacity=capacity,
    )


def random_place(catalog: Catalog, capacity: float, rng: np.random.Generator) -> Placement:
    """Uniformly shuffled admission until capacity is exhausted."""
    if capacity < 0:
        raise BadInput("capacity must be >= 0")
    ids = [it.id for it in catalog.items]
    order = [ids[i] for i in rng.permutation(len(ids))]
    sizes = {it.id: it.size for it in catalog.items}
    chosen, used = _fill(order, sizes, capacity)
    return Placement(cached=frozenset(chosen), used_capacity=used, capacity=capacity)


def popular_place(
    catalog: Catalog,
    history: PopularitySnapshot,
    capacity: float,
    rng: Optional[np.random.Generator] = None,
) -> Placement:
    """Cache the historically most requested contents, regime-agnostic."""
    if not history.freq:
        logger.warning("popular_place: empty history, falling back to random")
        if rng is None:
            rng = np.random.default_rng(0)
        return random_place(catalog, capacity, rng)
    ids = [it.id for it in catalog.items]
    values = [history.freq.get(cid, 0.0) for cid in ids]
    sizes = [it.size for it in catalog.items]
    return greedy_knapsack(values, sizes, capacity, ids=ids)


@dataclass
class BanditState:
    """Per-SNM-content learning state for the hybrid policy."""

    influence: float  # static feature scalar in (0, 1]
    pulls: int = 0
    mean_reward: float = 0.0
    weighted_reward: float = 0.0


def hybrid_ucb_index(
    state: BanditState,
    t: int,
    exploration_beta: float = 2.0,
    weight_floor: float = 0.01,
) -> float:
    """Mean reward plus the exploration bonus for a warmed-up content.

    index = mean + sqrt(beta * max(B, floor) * x * ln t / pulls)
    """
    if state.pulls < 1:
        raise ColdStart("index undefined before the first caching of a content")
    if t < 1:
        raise ValueError("t must be >= 1")
    bonus = math.sqrt(
        exploration_beta
        * max(state.weighted_reward, weight_floor)
        * state.influence
        * math.log(t)
        / state.pulls
    )
    return state.mean_reward + bonus


def hybrid_update(state: BanditState, observed: float, slot_max: float) -> None:
    """Fold one slot's observed reward into a content's learning state.

    The reward weight (weighted_reward) is the observation normalized by
    the slot's best cached content; the running mean is the arithmetic
    mean of all observations fed so far.
    """
    if observed < 0 or slot_max < observed:
        raise ValueError("need 0 <= observed <= slot_max")
    state.weighted_reward = observed / slot_max if slot_max > 0 else 0.0
    state.pulls += 1
    state.mean_reward = (
        state.mean_reward * (state.pulls - 1) + observed
    ) / state.pulls


def hybrid_select(
    states: dict,
    candidates: Sequence[int],
    irm_ranking: Sequence[tuple],
    alloc: AllocationEstimate,
    capacity: float,
    sizes: dict,
    t: int,
    exploration_beta: float = 2.0,
    weight_floor: float = 0.01,
) -> Placement:
    """One slot's placement for the hybrid policy.

    irm_ranking is the IRM ids with their popularity, already sorted
    by descending popularity (ties by lower id).
    """
    irm_share = math.floor(alloc.w_irm * capacity)
    snm_share = capacity - irm_share

    cold = sorted(f for f in candidates if states[f].pulls == 0)
    warm = sorted(
        (f for f in candidates if states[f].pulls > 0),
        key=lambda f: (
            -hybrid_ucb_index(states[f], t, exploration_beta, weight_floor),
            f,
        ),
    )
    snm_order = cold + warm
    snm_chosen, snm_used = _fill(snm_order, sizes, snm_share)

    # unused SNM share rolls over to the IRM fill, and any capacity the
    # IRM side cannot use rolls back to the remaining SNM candidates,
    # so the cache is never left idle while candidates exist
    irm_order = [cid for cid, _ in irm_ranking]
    irm_chosen, irm_used = _fill(irm_order, sizes, capacity - snm_used)
    spare = capacity - snm_used - irm_used
    if spare > 0:
        chosen = set(snm_chosen)
        rest = [f for f in snm_order if f not in chosen]
        extra, extra_used = _fill(rest, sizes, spare)
        snm_chosen += extra
        snm_used += extra_used

    return Placement(
        cached=frozenset(snm_chosen) | frozenset(irm_chosen),
        used_capacity=snm_used + irm_used,
        capacity=capacity,
    )


@dataclass(frozen=True)
class PolicyContext:
    """Per-slot inputs the engine hands to a policy before placement."""

    slot: int
    alloc: AllocationEstimate
    snm_candidates: tuple
    irm_ranking: tuple  # (content_id, popularity), descending popularity
    history_popularity: PopularitySnapshot
    rng: np.random.Generator = field(compare=False, default=None)


class RandomPolicy:
    name = "random"

    def __init__(self, catalog: Catalog, capacity: float):
        self.catalog = catalog
        self.capacity = capacity

    def place(self, ctx: PolicyContext) -> Placement:
        return random_place(self.catalog, self.capacity, ctx.rng)

    def update(self, ctx, placement, counts):
        pass


class PopularPolicy:
    name = "popular"

    def __init__(self, catalog: Catalog, capacity: float):
        self.catalog = catalog
        self.capacity = capacity

    def place(self, ctx: PolicyContext) -> Placement:
        return popular_place(
            self.catalog, ctx.history_popularity, self.capacity, rng=ctx.rng
        )

    def update(self, ctx, placement, counts):
        pass


class HybridPolicy:
    """Capacity-split UCB learner over SNM content, popularity fill for IRM."""

    name = "hybrid"

    def __init__(
        self,
        catalog: Catalog,
        capacity: float,
        exploration_beta: float = 2.0,
        weight_floor: float = 0.01,
        influence_floor: float = 0.01,
    ):
        self.capacity = capacity
        self.exploration_beta = exploration_beta
        self.weight_floor = weight_floor
        self.sizes = {it.id: it.size for it in catalog.items}
        self.states = {
            it.id: BanditState(
                influence=feature_influence(it.features, floor=influence_floor)
            )
            for it in catalog.items
            if it.regime is Regime.SNM
        }

    def place(self, ctx: PolicyContext) -> Placement:
        return hybrid_select(
            self.states,
            ctx.snm_candidates,
            ctx.irm_ranking,
            ctx.alloc,
            self.capacity,
            self.sizes,
            ctx.slot,
            self.exploration_beta,
            self.weight_floor,
        )

    def update(self, ctx: PolicyContext, placement: Placement, counts) -> None:
        """Feed each cached SNM content its share of the slot's SNM requests."""
        snm_total = sum(c for cid, c in counts.items() if cid in self.states)
        observed = {
            f: counts.get(f, 0) / snm_total if snm_total > 0 else 0.0
            for f in placement.cached
            if f in self.states
        }
        slot_max = max(observed.values(), default=0.0)
        for f in sorted(observed):
            hybrid_update(self.states[f], observed[f], slot_max)


POLICY_NAMES = ("hybrid", "popular", "random")


def make_policy(name: str, catalog: Catalog, capacity: float, exploration_beta: float = 2.0):
    if name == "hybrid":
        return HybridPolicy(catalog, capacity, exploration_beta=exploration_beta)
    if name == "popular":
        return PopularPolicy(catalog, capacity)
    if name == "random":
        return RandomPolicy(catalog, capacity)
    raise UnknownPolicy(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
