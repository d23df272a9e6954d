"""Cache placement policies: knapsack fills, baselines, and the hybrid
UCB policy that splits capacity between static and shot-like content.

The hybrid policy reserves floor((1 - w_snm) * C) units for IRM content
(filled by popularity rank) and the rest for SNM content: never-cached
candidates are admitted first, then the remainder by descending UCB
index. Capacity a side cannot use rolls over to the other side.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog, feature_influences
from .errors import EmptyWindow, HybridCacheError
from .popularity import AllocationEstimator

logger = logging.getLogger(__name__)

# the least reward weight in the UCB exploration bonus
WEIGHT_FLOOR = 0.01
# the most ids one chunk of the random policy's permutations holds
CHUNK_IDS = 2**14
# the only slack of the capacity rule: a set of ids fits in a capacity C
# when their sizes sum to at most C + FIT_SLACK (see Fill)
FIT_SLACK = 1e-9
INT64_MAX = np.iinfo(np.int64).max
# the most slots of bandit updates a HybridPolicy queues before it folds
# them, which bounds the queue of a long run whose index is never read
MAX_QUEUED = 1024


def check_capacity(capacity) -> None:
    """Raise HybridCacheError unless capacity is a finite number >= 0."""
    if not (math.isfinite(capacity) and capacity >= 0):
        raise HybridCacheError(f"capacity must be finite and >= 0, not {capacity!r}")


@dataclass(frozen=True, eq=False, slots=True)
class Placement:
    """A 0/1 cache decision: the cached ids under capacity C.

    cached is a read-only int64 array of distinct ids, ascending.
    """

    cached: np.ndarray
    used_capacity: float
    capacity: float

    def __post_init__(self):
        self.cached.flags.writeable = False
        if self.used_capacity > self.capacity + FIT_SLACK:
            # a policy bug, not bad input: it keeps its traceback in the CLI
            raise ValueError(
                f"used {self.used_capacity} exceeds capacity {self.capacity}"
            )


class Fill:
    """The capacity rule of every policy and the oracle, over one catalog.

    A set of ids fits in a share of the capacity when their sizes, added
    in order, sum to at most the share plus FIT_SLACK. sizes[id - 1] is
    the size of an id. admit fills in a given order, top by a ranking.
    At uniform sizes a fill admits the prefix of its order that fits and
    nothing past it, since the first misfit's size is the smallest left;
    so its length and used capacity are read from the running sums of the
    one size (unit_sums, as np.cumsum adds them, up to the first past the
    capacity). count and used are those of a fill of the whole library
    within the capacity: known once, at uniform sizes only (else None).
    """

    def __init__(self, sizes: np.ndarray, capacity):
        check_capacity(capacity)
        self.sizes = sizes
        self.capacity = capacity
        self.unit_sums = self.count = self.used = None
        if sizes.min() == sizes.max():
            sums = sizes.cumsum()
            end = sums.searchsorted(capacity + FIT_SLACK, side="right") + 1
            self.unit_sums = sums[:end].tolist()
            self.count, self.used = self._prefix(len(sizes), capacity)

    def _prefix(self, available: int, share) -> tuple:
        n = min(available, bisect.bisect_right(self.unit_sums, share + FIT_SLACK))
        return n, self.unit_sums[n - 1] if n else 0.0

    def admit(self, order: np.ndarray, share) -> tuple:
        """(admitted ids, used capacity) of the ids in order within share.

        The prefix that fits whole is admitted at once from the running
        sums (np.cumsum adds in order, as an item-by-item scan would). Past
        the first misfit the scan admits each id that still fits, and stops
        once the smallest remaining size no longer fits.
        """
        sizes = self.sizes[order - 1]
        limit = share + FIT_SLACK
        sums = sizes.cumsum()
        n = int(sums.searchsorted(limit, side="right"))
        chosen = order[:n].tolist()
        used = float(sums[n - 1]) if n else 0.0
        rest = sizes[n + 1:]
        smallest = rest.min() if len(rest) else np.inf
        if used + smallest <= limit:
            for cid, s in zip(order[n + 1:].tolist(), rest.tolist()):
                if used + smallest > limit:
                    break
                if used + s <= limit:
                    chosen.append(cid)
                    used += s
        return np.array(chosen, dtype=np.int64), used

    def top(self, ids: np.ndarray, keys, share) -> tuple:
        """(admitted ids ascending, used capacity) of a ranked fill within share.

        The ascending ids are admitted by descending keys(), ties to the
        lower id; keys() returns one key per id, and share is at most the
        capacity. At uniform sizes the fill's length n does not depend on
        the ranking, so the ids of the n largest keys are taken (_top_n)
        and keys is called only when not every id fits. At unequal sizes
        the ids are ranked, then admitted. keys is never called for no ids.
        """
        if not len(ids):
            return ids, 0.0
        if self.unit_sums is not None:
            n, used = self._prefix(len(ids), share)
            if n < len(ids):
                ids = ids[_top_n(keys(), n)]
            return ids, used
        chosen, used = self.admit(ids[np.lexsort((ids, -keys()))], share)
        chosen.sort()
        return chosen, used


def _top_n(values: np.ndarray, n: int) -> np.ndarray:
    """Positions of the n largest values, ties to the lower position, ascending.

    The same set as the first n of a stable descending sort, found with
    one np.partition instead of a full sort: every position at or above
    the n-th largest value, less the last ones tied at it when more than
    n pass.
    """
    if n >= len(values):
        return np.arange(len(values))
    if n == 0:
        return np.arange(0)
    kth = np.partition(values, len(values) - n)[len(values) - n]
    passed = values >= kth
    chosen = passed.nonzero()[0]
    surplus = len(chosen) - n
    if surplus:
        passed[(values == kth).nonzero()[0][-surplus:]] = False
        chosen = passed.nonzero()[0]
    return chosen


def exact_knapsack(
    values: Sequence[float], sizes: Sequence[float], capacity: float
) -> float:
    """The optimal value of the 0/1 knapsack, by dynamic programming over capacity.

    Requires integer sizes. best[u] is the most value that fits in u
    units; each item is folded in by one np.maximum over the cells it
    reaches, from a right-hand side built before the write, so it counts
    once. The table stops at the sizes' sum, past which every item fits.
    """
    values = np.asarray(values, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if len(values) != len(sizes):
        raise HybridCacheError("values and sizes must have the same length")
    if not (np.isfinite(values).all() and (values >= 0).all()):
        raise HybridCacheError("values must be finite and non-negative")
    if (sizes <= 0).any():
        raise HybridCacheError("sizes must be positive")
    check_capacity(capacity)
    if not (np.isfinite(sizes).all() and (sizes == np.floor(sizes)).all()):
        raise HybridCacheError("exact_knapsack requires integer sizes")
    cells = int(min(math.floor(capacity + FIT_SLACK), sizes.sum())) + 1
    best = np.zeros(cells)
    for v, s in zip(values.tolist(), sizes.tolist()):
        if s < cells:
            s = int(s)
            np.maximum(best[s:], best[:-s] + v, out=best[s:])
    return float(best[-1])


@dataclass
class BanditState:
    """The hybrid policy's learning state: arrays indexed by content id.

    influence is each content's static feature scalar in (0, 1] (0 for
    ids that are never learned), pulls the number of slots it was cached,
    mean the running mean of its observed rewards, and weight its last
    reward normalized by the slot's best cached content.
    """

    influence: np.ndarray
    pulls: np.ndarray
    mean: np.ndarray
    weight: np.ndarray

    @classmethod
    def fresh(cls, influence) -> "BanditState":
        """A never-updated state over the given per-id influences."""
        influence = np.asarray(influence, dtype=float)
        n = len(influence)
        return cls(
            influence=influence,
            pulls=np.zeros(n, dtype=np.int64),
            mean=np.zeros(n),
            weight=np.zeros(n),
        )


def hybrid_ucb_index(
    state: BanditState,
    ids: np.ndarray,
    t: int,
    exploration_beta: float = 2.0,
) -> np.ndarray:
    """Mean reward plus the exploration bonus of each content in ids.

    index = mean + sqrt(beta * max(B, WEIGHT_FLOOR) * x * ln t / pulls), taken
    element-wise in this operation order, so each entry equals the scalar
    formula evaluated with math. A never-cached content (pulls == 0) has
    an infinite index, so it ranks before every warmed-up one.
    """
    if t < 1:
        raise HybridCacheError("t must be >= 1")
    pulls = state.pulls[ids]
    bonus = np.sqrt(
        exploration_beta
        * np.maximum(state.weight[ids], WEIGHT_FLOOR)
        * state.influence[ids]
        * math.log(t)
        / np.maximum(pulls, 1)
    )
    return np.where(pulls > 0, state.mean[ids] + bonus, np.inf)


def hybrid_update(state: BanditState, ids: np.ndarray, observed) -> None:
    """Fold one slot's observed rewards into the cached contents' state.

    observed[i] is the reward of ids[i], and ids holds no id twice. Each
    reward weight is the observation normalized by the slot's largest
    one; each running mean is the arithmetic mean of all observations fed
    so far.
    """
    observed = np.asarray(observed, dtype=float)
    slot_max = observed.max(initial=0.0)
    # min and max propagate a NaN, which fails both comparisons
    if not (observed.min(initial=0.0) >= 0 and slot_max < math.inf):
        raise HybridCacheError("observed rewards must be finite and >= 0")
    state.weight[ids] = observed / slot_max if slot_max > 0 else 0.0
    before = state.pulls[ids]
    pulls = before + 1
    state.pulls[ids] = pulls
    state.mean[ids] = (state.mean[ids] * before + observed) / pulls


def hybrid_select(
    index,
    candidates: np.ndarray,
    irm_ids: np.ndarray,
    irm_counts: np.ndarray,
    w_snm: float,
    fill: Fill,
) -> Placement:
    """One slot's placement for the hybrid policy.

    candidates is the live SNM ids and irm_ids the IRM ids, each
    ascending; irm_counts[i] is the request count of irm_ids[i]; w_snm is
    the SNM share of fill.capacity; index(ids) is one key per id. IRM ids
    are admitted by descending count and SNM candidates by descending
    index, ties by lower id on both sides, so never-cached candidates
    (infinite UCB index) go first.

    Each fill is one Fill.top, so at uniform sizes index is called only
    when a share cannot hold all of its candidates.
    """
    capacity = fill.capacity
    irm_share = math.floor((1.0 - w_snm) * capacity)
    snm_share = capacity - irm_share
    snm_chosen, snm_used = fill.top(candidates, lambda: index(candidates), snm_share)

    # unused SNM share rolls over to the IRM fill, and any capacity the
    # IRM side cannot use rolls back to the remaining SNM candidates,
    # so the cache is never left idle while candidates exist
    irm_chosen, irm_used = fill.top(irm_ids, lambda: irm_counts, capacity - snm_used)
    spare = capacity - snm_used - irm_used
    if spare > 0 and len(snm_chosen) < len(candidates):
        rest = candidates[~np.isin(candidates, snm_chosen)]
        extra, extra_used = fill.top(rest, lambda: index(rest), spare)
        snm_chosen = np.concatenate((snm_chosen, extra))
        snm_used += extra_used

    cached = np.concatenate((snm_chosen, irm_chosen))
    cached.sort()
    return Placement(cached, used_capacity=snm_used + irm_used, capacity=capacity)


class RandomPolicy:
    """Uniformly shuffled admission each slot; reads nothing but the run's rng.

    Each slot draws one permutation of the library and admits ids in its
    order until capacity is exhausted. At uniform sizes the cache is the
    prefix of the permutation that fits, whose length is known once per
    run.

    The permutations are drawn a chunk of slots at a time, as rows of
    one rng.permuted call, which reads the stream as that many
    rng.permutation calls do. A chunk starts at one row and doubles up
    to CHUNK_IDS ids, so the first placement leaves the rng where one
    permutation would.
    """

    def __init__(self, catalog: Catalog, capacity: float, rng: np.random.Generator):
        self.catalog = catalog
        self.capacity = capacity
        self.rng = rng
        self.fill = Fill(catalog.sizes, capacity)
        self._placements = self._draw()

    def _draw(self):
        """The placements of successive slots, one chunk of rows at a time."""
        fill, capacity = self.fill, self.capacity
        library = np.arange(len(self.catalog.sizes))
        rows, most = 1, max(1, CHUNK_IDS // len(library))
        while True:
            orders = self.rng.permuted(np.tile(library, (rows, 1)), axis=1)
            if fill.count is None:
                for order in orders:
                    chosen, used = fill.admit(order + 1, capacity)
                    yield Placement(np.sort(chosen), used, capacity)
            else:
                n, used = fill.count, fill.used
                chosen = orders[:, :n] + 1
                chosen.sort(axis=1)
                for cached in chosen:
                    yield Placement(cached, used, capacity)
            rows = min(2 * rows, most)

    def place(self, t: int) -> Placement:
        return next(self._placements)

    def update(self, placement: Placement, tally: np.ndarray) -> None:
        pass


class PopularPolicy:
    """The most requested contents per unit of size of the slots before t.

    Reads the per-content request counts it keeps from the tallies fed
    to update. Before any request it places as a RandomPolicy on the
    run's rng. The cache is the density-greedy fill: ids are admitted by
    request frequency over size, ties by lower id, each that still fits:
    one Fill.top of the library.

    At equal sizes the cache is the top Fill.count ids by (count, lower
    id), the order of frequency over size, so it is ranked on the integer
    counts. Counts only grow, so the last placement is returned again
    unless an uncached id now outranks a cached one: the keep test
    compares the least cached count (low) with the greatest uncached one
    (high), and at high == low the highest cached id at low with the
    lowest uncached id at high. Only a placement that changes is ranked.
    """

    def __init__(self, catalog: Catalog, capacity: float, rng: np.random.Generator):
        self.catalog = catalog
        self.capacity = capacity
        self.fallback = RandomPolicy(catalog, capacity, rng)
        self.fill = self.fallback.fill
        self.counts = np.zeros(catalog.id_space, dtype=np.int64)  # position = id
        self.total = 0
        # the last ranked placement and the ids outside it, read only at
        # equal sizes
        self._kept = None
        self._outside = np.append(False, np.ones(len(catalog.ids), dtype=bool))

    def place(self, t: int) -> Placement:
        if self.total == 0:
            logger.warning("popular policy: empty history at slot %d, "
                           "falling back to random", t)
            return self.fallback.place(t)
        if self.fill.count is None:
            keys = self.counts[1:] / self.total / self.catalog.sizes  # position = id - 1
        elif self._kept is None or not self._kept_is_top():
            keys = self.counts[1:]
        else:
            return self._kept
        chosen, used = self.fill.top(self.catalog.ids, lambda: keys, self.capacity)
        if self._kept is not None:
            self._outside[self._kept.cached] = True
        self._outside[chosen] = False
        self._kept = Placement(chosen, used_capacity=used, capacity=self.capacity)
        return self._kept

    def _kept_is_top(self) -> bool:
        """Whether no uncached id outranks a kept one by (count, lower id)."""
        counts, cached = self.counts, self._kept.cached
        in_counts = counts[cached]
        # an empty cache, and one of the whole library, are always kept
        low = in_counts.min(initial=INT64_MAX)
        high = counts.max(where=self._outside, initial=-1)
        if high < low:
            return True
        if high > low:
            return False
        # tied: the cache holds the lower ids
        last_in = cached[in_counts == low][-1]
        first_out = ((counts == high) & self._outside).argmax()
        return first_out > last_in

    def update(self, placement: Placement, tally: np.ndarray) -> None:
        self.counts += tally
        self.total += int(tally.sum())


class HybridPolicy:
    """Capacity-split UCB learner over SNM content, popularity fill for IRM.

    Reads what it keeps from the tallies fed to update: the IRM ids'
    request counts (the IRM ranking), the windowed IRM/SNM split (the
    capacity split, even while the window is empty) and its bandit
    state; and, at slot t, the catalog's SNM ids live at t.

    update queues each slot's bandit observations; fold applies them to
    state in slot order through hybrid_update, bit for bit as eager
    updates, so state is current only after a fold. place's index folds
    before it reads state, which at uniform sizes happens only when the
    SNM share cannot hold every candidate, and update folds a queue of
    MAX_QUEUED slots.
    """

    def __init__(
        self,
        catalog: Catalog,
        capacity: float,
        exploration_beta: float = 2.0,
        alloc_window: int = 10,
        alloc_smoothing: float = 0.3,
    ):
        self.catalog = catalog
        self.capacity = capacity
        self.exploration_beta = exploration_beta
        self.estimator = AllocationEstimator(
            window=alloc_window, smoothing=alloc_smoothing
        )
        self.irm_ids = catalog.irm_ids
        self.irm_counts = np.zeros(len(self.irm_ids), dtype=np.int64)  # irm_ids order
        influence = np.zeros(catalog.id_space)
        influence[catalog.snm_ids] = feature_influences(catalog.snm_features)
        self.state = BanditState.fresh(influence)
        self._pending = []  # the queued slots' (ids, observed), oldest first
        self.fill = Fill(catalog.sizes, capacity)

    def fold(self) -> None:
        """Apply the queued bandit updates in slot order and empty the queue."""
        pending, self._pending = self._pending, []
        for ids, observed in pending:
            hybrid_update(self.state, ids, observed)

    def place(self, t: int) -> Placement:
        if t < 1:
            raise HybridCacheError("t must be >= 1")
        try:
            w_snm = self.estimator.estimate()
        except EmptyWindow:
            w_snm = 0.5

        def index(ids):
            self.fold()
            return hybrid_ucb_index(self.state, ids, t, self.exploration_beta)

        return hybrid_select(
            index, self.catalog.active_snm_ids(t), self.irm_ids, self.irm_counts,
            w_snm, self.fill,
        )

    def update(self, placement: Placement, tally: np.ndarray) -> None:
        """Fold the slot's tally into the counts and the split; queue the bandit's.

        tally[id] is the slot's request count of an id. Each cached SNM
        content is fed its share of the slot's SNM requests, queued until
        the next fold.
        """
        irm_tally = tally[self.irm_ids]
        self.irm_counts += irm_tally
        n_irm = int(irm_tally.sum())
        n_snm = int(tally.sum()) - n_irm
        self.estimator.observe(n_snm, n_irm)
        cached = placement.cached[self.catalog.snm_by_id[placement.cached]]
        # with no SNM request every cached SNM content observes 0
        self._pending.append((cached, tally[cached] / max(n_snm, 1)))
        if len(self._pending) >= MAX_QUEUED:
            self.fold()


POLICY_NAMES = ("hybrid", "popular", "random")


def make_policy(
    name: str,
    catalog: Catalog,
    capacity: float,
    rng: np.random.Generator,
    exploration_beta: float = 2.0,
    alloc_window: int = 10,
    alloc_smoothing: float = 0.3,
):
    """The named policy; rng is the run's generator, drawn from by the baselines."""
    if name == "hybrid":
        return HybridPolicy(catalog, capacity, exploration_beta, alloc_window, alloc_smoothing)
    if name == "popular":
        return PopularPolicy(catalog, capacity, rng)
    if name == "random":
        return RandomPolicy(catalog, capacity, rng)
    raise HybridCacheError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
