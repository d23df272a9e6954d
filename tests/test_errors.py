"""Every rejected argument to a public call raises HybridCacheError.

The CLI exits 2 on that class, so a bad setting that passes validate
and is rejected deeper down still ends in exit 2 with no traceback.
"""

import math

import numpy as np
import pytest

from catalog_helpers import array_catalog
from hybridcache.engine import run_simulation
from hybridcache.errors import HybridCacheError
from hybridcache.policy import BanditState, hybrid_ucb_index, hybrid_update
from hybridcache.popularity import AllocationEstimator
from hybridcache.workload import RequestTrace, choice_cdf, generate_trace, zipf_pmf


def unit_catalog():
    return array_catalog([1.0, 1.0, 1.0])


REJECTED = {
    "zipf-negative-delta": (
        lambda: zipf_pmf(3, -1.0), "delta must be finite and >= 0"
    ),
    "trace-w-snm-above-1": (
        lambda: generate_trace(unit_catalog(), 10, 5, 2.0, 0.8, seed=1),
        r"w_snm must lie in \[0, 1\]",
    ),
    "trace-falling-offsets": (
        lambda: RequestTrace(
            horizon=2, ids=np.array([1, 2, 3], np.int32), offsets=np.array([0, 4, 3])
        ),
        "never decreasing",
    ),
    "events-slot-0": (
        lambda: RequestTrace.from_events(3, ((0, 1),)),
        r"event slots must lie in \[1, 3\]",
    ),
    "cdf-negative-entry": (
        lambda: choice_cdf(np.array([0.6, -0.1, 0.5])),
        "probabilities must be non-negative",
    ),
    "estimator-window-0": (
        lambda: AllocationEstimator(window=0), "window must be >= 1"
    ),
    "update-negative-reward": (
        lambda: hybrid_update(BanditState.fresh([1.0, 1.0]), np.array([1]), [-1.0]),
        "observed rewards must be finite and >= 0",
    ),
    "ucb-at-t-0": (
        lambda: hybrid_ucb_index(BanditState.fresh([1.0, 1.0]), np.array([1]), 0),
        "t must be >= 1",
    ),
    "catalog-nan-size": (
        lambda: array_catalog([1.0, math.nan]),
        "content 2: size must be positive and finite",
    ),
    "run-horizon-0": (
        lambda: run_simulation(
            unit_catalog(),
            RequestTrace(horizon=0, ids=np.zeros(0, np.int32), offsets=np.array([0])),
            "hybrid",
            2,
            seed=1,
        ),
        "trace horizon must be >= 1",
    ),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_argument_raises_hybridcache_error(call, message):
    with pytest.raises(HybridCacheError, match=message):
        call()
