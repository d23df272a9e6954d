"""The per-content catalog builder, kept as the oracle for build_catalog.

This is the builder that drew each content with its own rng calls: three
uniform features and a category index, then, for an SNM content, an
arrival, a lifespan and a volume uniform. hybridcache.catalog.build_catalog
reads the same values from one block of raw words and must give the same
catalog, array for array.
"""

from __future__ import annotations

import numpy as np

from hybridcache.catalog import (
    CATEGORY_WEIGHTS,
    FEATURE_BENEFIT,
    FEATURE_RANGES,
    LIFESPAN_RANGE,
    Catalog,
    CatalogConfig,
    ParetoVolume,
    normalize_features,
    sample_pareto_volume,
)
from hybridcache.errors import HybridCacheError


def build_catalog(config: CatalogConfig, seed: int) -> Catalog:
    """Build a deterministic synthetic catalog from its settings and fixed laws.

    Ids 1..N_I are IRM (id order defines the Zipf rank); ids
    N_I+1..F are SNM with arrival slots uniform on [1, horizon],
    lifespans uniform on LIFESPAN_RANGE and Pareto volumes.
    """
    if config.library_size < 2:
        raise HybridCacheError(f"library_size={config.library_size} < 2")
    if not (0.0 <= config.w_snm <= 1.0):
        raise HybridCacheError("w_snm must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    n = config.library_size
    n_irm = n - round(config.w_snm * n)
    volume_law = ParetoVolume(beta=config.pareto_beta, n_min=config.pareto_n_min)

    # one content's draws at a time, in this order
    raw = np.empty((n, len(FEATURE_BENEFIT)))
    arrival = np.zeros(n, dtype=np.int64)
    lifespan = np.zeros(n, dtype=np.int64)
    volume = np.zeros(n)
    # numpy's integers() would truncate a fractional horizon
    if n_irm < n and int(config.horizon) != config.horizon:
        raise ValueError("horizon must be a whole number")
    size, bandwidth, value, _ = FEATURE_RANGES
    for row in range(n):
        raw[row] = (
            rng.uniform(*size),
            rng.uniform(*bandwidth),
            rng.uniform(*value),
            # indexed by one bounded draw, as rng.choice draws, at a fraction of its cost
            CATEGORY_WEIGHTS[rng.integers(0, len(CATEGORY_WEIGHTS))],
        )
        if row >= n_irm:
            arrival[row] = rng.integers(1, config.horizon + 1)
            lifespan[row] = rng.integers(*LIFESPAN_RANGE, endpoint=True)
            volume[row] = sample_pareto_volume(volume_law, float(rng.random()))
    return Catalog(
        sizes=np.ones(n),
        features=normalize_features(raw, FEATURE_RANGES),
        snm=np.arange(n) >= n_irm,
        arrival=arrival,
        lifespan=lifespan,
        volume=volume,
    )
