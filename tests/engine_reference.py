"""The per-slot serving loop, kept as the oracle for run_simulation's chunks.

This is the loop that tallied each slot with its own np.bincount and
read the slot's hits from that tally before feeding it to the policy.
hybridcache.engine.run_simulation tallies a chunk of slots with one
bincount and reads the chunk's hits after its slots, and must give the
same hits, slot for slot.
"""

from __future__ import annotations

import numpy as np

from hybridcache.catalog import Catalog
from hybridcache.policy import make_policy
from hybridcache.workload import RequestTrace


def slot_hits(
    catalog: Catalog, trace: RequestTrace, policy_name: str, capacity: float, seed: int
) -> np.ndarray:
    """The hits of a fresh policy in every slot, an int64 array indexed t - 1.

    The policy is made as run_simulation makes it (default learning
    parameters, the run's rng from seed), and served slot by slot.
    """
    policy = make_policy(policy_name, catalog, capacity, np.random.default_rng(seed))
    hits = np.zeros(trace.horizon, dtype=np.int64)
    for t, slot_ids in enumerate(trace.events_by_slot(), start=1):
        placement = policy.place(t)
        tally = np.bincount(slot_ids, minlength=catalog.id_space)
        hits[t - 1] = tally[placement.cached].sum()
        policy.update(placement, tally)
    return hits
