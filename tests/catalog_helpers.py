"""Hand-built catalogs for tests."""

import numpy as np

from hybridcache.catalog import Catalog


def array_catalog(sizes, pulses=None):
    """A catalog whose id i has size sizes[i - 1] and every feature 0.5.

    pulses maps each SNM id to its (arrival, lifespan, volume); every
    other id is IRM.
    """
    n = len(sizes)
    snm = np.zeros(n, dtype=bool)
    window = np.zeros((n, 3))
    for cid, pulse in (pulses or {}).items():
        snm[cid - 1] = True
        window[cid - 1] = pulse
    arrival, lifespan, volume = window.T
    return Catalog(
        sizes=sizes,
        features=np.full((n, 4), 0.5),
        snm=snm,
        arrival=arrival,
        lifespan=lifespan,
        volume=volume,
    )
