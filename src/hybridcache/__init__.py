"""Trace-driven edge-cloud caching simulator with a hybrid bandit policy."""

from .catalog import (
    Catalog,
    CatalogConfig,
    ParetoVolume,
    build_catalog,
    feature_influences,
    normalize_features,
    sample_pareto_volume,
)
from .engine import RunMetrics, cumulative_regret, run_simulation
from .policy import (
    BanditState,
    HybridPolicy,
    Placement,
    exact_knapsack,
    hybrid_ucb_index,
    hybrid_update,
    make_policy,
)
from .popularity import AllocationEstimator
from .workload import RequestTrace, generate_trace, zipf_pmf

__version__ = "0.1.0"
