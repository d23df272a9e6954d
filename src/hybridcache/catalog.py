"""Content catalog: items, fine-grained features, and the IRM/SNM split.

The library is partitioned into static-popularity (IRM) content and
temporary shot-like (SNM) content. Each item carries a normalized
feature vector (size, bandwidth, value, category weight by default)
that the hybrid policy folds into its exploration bonus.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyFeatures,
    LibraryTooSmall,
    RangeDegenerate,
    TraceParseError,
)


class Regime(enum.Enum):
    IRM = "IRM"
    SNM = "SNM"


class FeatureRole(enum.Enum):
    """Whether a larger feature value hurts (cost) or helps (benefit) caching."""

    COST = "cost"
    BENEFIT = "benefit"


# Default schema: size and transmission bandwidth are costs (smaller
# content frees room for more items), content value and category weight
# are benefits.
DEFAULT_FEATURE_ROLES = (
    FeatureRole.COST,
    FeatureRole.COST,
    FeatureRole.BENEFIT,
    FeatureRole.BENEFIT,
)


@dataclass(frozen=True)
class SnmDynamics:
    """Lifecycle of a temporary (SNM) content: one rectangular request pulse."""

    arrival_slot: int
    lifespan: int
    volume: float

    def __post_init__(self):
        if self.arrival_slot < 1:
            raise ValueError("arrival_slot must be >= 1")
        if self.lifespan < 1:
            raise ValueError("lifespan must be >= 1")
        if self.volume <= 0:
            raise ValueError("volume must be positive")


@dataclass(frozen=True)
class ContentItem:
    id: int
    size: float
    regime: Regime
    features: tuple
    snm: Optional[SnmDynamics] = None

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"item {self.id}: size must be positive")
        if any(not (0.0 <= x <= 1.0) for x in self.features):
            raise ValueError(f"item {self.id}: features must lie in [0, 1]")
        if (self.snm is not None) != (self.regime is Regime.SNM):
            raise ValueError(
                f"item {self.id}: snm dynamics present iff regime is SNM"
            )


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Catalog:
    """The content library. Ids are dense in 1..F; item order is free.

    The per-content arrays below are built once per catalog, in
    ascending id order, and are read-only because every caller shares
    them.
    """

    items: tuple

    def __post_init__(self):
        ids = [it.id for it in self.items]
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise ValueError("item ids must be unique and dense in [1, N]")

    @cached_property
    def _by_id(self) -> tuple:
        return tuple(sorted(self.items, key=lambda it: it.id))

    @cached_property
    def ids(self) -> np.ndarray:
        """All ids, 1..F."""
        return _frozen(np.arange(1, len(self.items) + 1), np.int64)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Item sizes; position id - 1 holds the size of that id."""
        return _frozen([it.size for it in self._by_id], float)

    @cached_property
    def uniform_size(self) -> Optional[float]:
        """The one size every item has, or None when sizes differ."""
        sizes = self.sizes
        if len(sizes) and sizes.min() == sizes.max():
            return float(sizes[0])
        return None

    @cached_property
    def irm_ids(self) -> np.ndarray:
        """IRM ids in ascending order; position defines the Zipf rank."""
        return _frozen(
            [it.id for it in self._by_id if it.regime is Regime.IRM], np.int64
        )

    @cached_property
    def _snm_items(self) -> tuple:
        return tuple(it for it in self._by_id if it.regime is Regime.SNM)

    @cached_property
    def snm_ids(self) -> np.ndarray:
        """SNM ids in ascending order; the snm_* arrays follow this order."""
        return _frozen([it.id for it in self._snm_items], np.int64)

    @cached_property
    def snm_arrival(self) -> np.ndarray:
        return _frozen([it.snm.arrival_slot for it in self._snm_items], np.int64)

    @cached_property
    def snm_expiry(self) -> np.ndarray:
        """First slot after each SNM item's window: arrival + lifespan."""
        return _frozen(
            [it.snm.arrival_slot + it.snm.lifespan for it in self._snm_items],
            np.int64,
        )

    @cached_property
    def snm_volume(self) -> np.ndarray:
        return _frozen([it.snm.volume for it in self._snm_items], float)

    @cached_property
    def snm_features(self) -> np.ndarray:
        """The SNM items' feature vectors, one row per item."""
        return _frozen([it.features for it in self._snm_items], float)

    def snm_active_mask(self, slot: int) -> np.ndarray:
        """Which SNM items (in snm_ids order) are live at the slot.

        An item is live inside the half-open window [arrival, arrival + lifespan).
        """
        return (self.snm_arrival <= slot) & (slot < self.snm_expiry)

    def active_snm_ids(self, slot: int) -> np.ndarray:
        """Ids of the SNM items live at the slot, ascending."""
        return self.snm_ids[self.snm_active_mask(slot)]


def normalize_features(raw: Sequence[float], ranges: Sequence[tuple]) -> tuple:
    """Map raw feature values onto [0, 1] by per-feature linear ranges.

    Values outside a range are clamped.
    """
    if len(raw) != len(ranges):
        raise ValueError("raw and ranges must have the same length")
    out = []
    for value, (lo, hi) in zip(raw, ranges):
        if hi <= lo:
            raise RangeDegenerate(f"range ({lo}, {hi}) has max <= min")
        out.append(min(1.0, max(0.0, (value - lo) / (hi - lo))))
    return tuple(out)


def feature_influence(
    features: Sequence[float],
    roles: Sequence[FeatureRole] = DEFAULT_FEATURE_ROLES,
    floor: float = 0.01,
) -> float:
    """Collapse a normalized feature vector into a scalar in (0, 1].

    Cost features contribute 1 - x (cheap content scores high), benefit
    features contribute x. The floor keeps the UCB exploration bonus
    strictly positive even for the worst-featured content.
    """
    if len(features) == 0:
        raise EmptyFeatures("feature vector is empty")
    if not (0.0 < floor <= 0.1):
        raise ValueError("floor must lie in (0, 0.1]")
    if len(roles) != len(features):
        raise ValueError("roles and features must have the same length")
    total = 0.0
    for x, role in zip(features, roles):
        total += x if role is FeatureRole.BENEFIT else 1.0 - x
    return max(floor, total / len(features))


def feature_influences(features: np.ndarray, floor: float = 0.01) -> np.ndarray:
    """feature_influence of each row of a feature matrix, as one array.

    The columns follow DEFAULT_FEATURE_ROLES. They are added in role order
    onto zeros, as feature_influence adds a vector's entries onto 0.0, so
    each entry equals feature_influence of its row bit for bit.
    """
    if not (0.0 < floor <= 0.1):
        raise ValueError("floor must lie in (0, 0.1]")
    total = np.zeros(len(features))
    for x, role in zip(features.T, DEFAULT_FEATURE_ROLES):
        total += x if role is FeatureRole.BENEFIT else 1.0 - x
    return np.maximum(floor, total / len(DEFAULT_FEATURE_ROLES))


@dataclass(frozen=True)
class CatalogConfig:
    """Generation laws for a synthetic catalog.

    Raw feature draws are uniform over the configured ranges and then
    normalized; the category feature is a uniform choice among the
    configured per-category benefit weights.
    """

    library_size: int = 150
    w_snm: float = 0.8
    horizon: int = 600
    item_size: float = 1.0
    size_range: tuple = (1.0, 100.0)
    bandwidth_range: tuple = (1.0, 50.0)
    value_range: tuple = (0.0, 1.0)
    category_weights: tuple = (0.2, 0.4, 0.6, 0.8, 1.0)
    lifespan_range: tuple = (20, 80)
    pareto_beta: float = 2.0
    pareto_n_min: float = 1.0


def build_catalog(config: CatalogConfig, seed: int) -> Catalog:
    """Build a deterministic synthetic catalog from generation laws.

    Ids 1..N_I are IRM (id order defines the Zipf rank); ids
    N_I+1..F are SNM with arrival slots uniform on [1, horizon],
    lifespans uniform on the configured range and Pareto volumes.
    """
    from .workload import ParetoVolume, sample_pareto_volume

    if config.library_size < 2:
        raise LibraryTooSmall(f"library_size={config.library_size} < 2")
    if not (0.0 <= config.w_snm <= 1.0):
        raise ValueError("w_snm must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    n_snm = round(config.w_snm * config.library_size)
    n_irm = config.library_size - n_snm
    volume_law = ParetoVolume(beta=config.pareto_beta, n_min=config.pareto_n_min)

    ranges = (
        config.size_range,
        config.bandwidth_range,
        config.value_range,
        (0.0, 1.0),
    )
    items = []
    for content_id in range(1, config.library_size + 1):
        raw = (
            rng.uniform(*config.size_range),
            rng.uniform(*config.bandwidth_range),
            rng.uniform(*config.value_range),
            float(rng.choice(config.category_weights)),
        )
        features = normalize_features(raw, ranges)
        if content_id <= n_irm:
            regime, snm = Regime.IRM, None
        else:
            regime = Regime.SNM
            snm = SnmDynamics(
                arrival_slot=int(rng.integers(1, config.horizon + 1)),
                lifespan=int(rng.integers(*config.lifespan_range, endpoint=True)),
                volume=sample_pareto_volume(volume_law, float(rng.random())),
            )
        items.append(
            ContentItem(
                id=content_id,
                size=config.item_size,
                regime=regime,
                features=features,
                snm=snm,
            )
        )
    return Catalog(items=tuple(items))


CATALOG_HEADER = [
    "id", "regime", "size",
    "f_size", "f_bandwidth", "f_value", "f_category",
    "arrival", "lifespan", "volume",
]


def save_catalog(catalog: Catalog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CATALOG_HEADER)
        for it in catalog.items:
            row = [it.id, it.regime.value, repr(float(it.size))]
            row += [repr(float(x)) for x in it.features]
            if it.snm is not None:
                row += [it.snm.arrival_slot, it.snm.lifespan, repr(it.snm.volume)]
            else:
                row += ["", "", ""]
            writer.writerow(row)


def load_catalog(path) -> Catalog:
    items = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CATALOG_HEADER:
            raise TraceParseError("bad catalog header", line=1)
        for lineno, row in enumerate(reader, start=2):
            try:
                regime = Regime(row[1])
                snm = None
                if regime is Regime.SNM:
                    snm = SnmDynamics(
                        arrival_slot=int(row[7]),
                        lifespan=int(row[8]),
                        volume=float(row[9]),
                    )
                items.append(
                    ContentItem(
                        id=int(row[0]),
                        size=float(row[2]),
                        regime=regime,
                        features=tuple(float(x) for x in row[3:7]),
                        snm=snm,
                    )
                )
            except (ValueError, IndexError) as exc:
                raise TraceParseError(str(exc), line=lineno) from exc
    return Catalog(items=tuple(items))
