"""The per-slot trace generator, kept as the oracle for generate_trace.

This is the generator that drew each slot with its own rng calls: one
class draw, then one rng.choice for the slot's IRM requests and one for
its SNM requests. hybridcache.workload.generate_trace draws whole chunks
of slots at once and must give the same trace, array for array.
"""

from __future__ import annotations

import numpy as np

from hybridcache.catalog import Catalog
from hybridcache.workload import RequestTrace, zipf_pmf


def generate_trace(
    catalog: Catalog,
    horizon: int,
    requests_per_slot: int,
    w_snm: float,
    delta: float,
    seed: int,
) -> RequestTrace:
    """Generate a slotted request trace over the catalog.

    Each of the R requests in a slot is SNM with probability w_snm,
    IRM otherwise. IRM requests are i.i.d. Zipf over the IRM items;
    SNM requests are drawn from the currently active SNM items with
    probability proportional to their pulse rates. Slots with no
    active SNM item fall back to IRM draws (counted in fallback_count), so
    every slot carries exactly R events.
    """
    if horizon < 1 or requests_per_slot < 1:
        raise ValueError("horizon and requests_per_slot must be >= 1")

    rng = np.random.default_rng(seed)
    irm_ids = catalog.irm_ids
    zipf = zipf_pmf(len(irm_ids), delta) if len(irm_ids) else None
    # an SNM item's pulse rate is volume / lifespan inside its window
    snm_rates = catalog.snm_volume / (catalog.snm_expiry - catalog.snm_arrival)

    drawn = []  # each slot's IRM draws, then its SNM draws
    fallback = 0
    for slot in range(1, horizon + 1):
        # live inside the half-open window [arrival, arrival + lifespan)
        active = (catalog.snm_arrival <= slot) & (slot < catalog.snm_expiry)
        is_snm = rng.random(requests_per_slot) < w_snm
        n_snm = int(is_snm.sum())
        n_irm = requests_per_slot - n_snm
        if n_snm and not active.any():
            fallback += n_snm
            n_irm += n_snm
            n_snm = 0
        if n_irm:
            if zipf is None:
                # all-SNM catalog with an empty slot: fall back to a
                # uniform draw over the whole library
                slot_irm = rng.choice(catalog.ids, size=n_irm)
            else:
                slot_irm = rng.choice(irm_ids, size=n_irm, p=zipf)
            drawn.append(slot_irm)
        if n_snm:
            rates = snm_rates[active]
            probs = rates / rates.sum()
            drawn.append(rng.choice(catalog.snm_ids[active], size=n_snm, p=probs))

    return RequestTrace(
        horizon=horizon,
        ids=np.concatenate(drawn).astype(np.int32),
        # every slot carries exactly R events
        offsets=np.arange(0, (horizon + 1) * requests_per_slot, requests_per_slot),
        fallback_count=fallback,
    )
