import numpy as np
import pytest

from hybridcache.catalog import CatalogConfig, Regime, build_catalog
from hybridcache.errors import EmptyWindow
from hybridcache.popularity import (
    AllocationEstimate,
    AllocationEstimator,
    PopularitySnapshot,
    estimate_allocation,
)
from hybridcache.workload import generate_trace


class TestEstimateAllocation:
    def test_window_ratio(self):
        est = estimate_allocation([(80, 20)])
        assert est.w_snm == pytest.approx(0.8)
        assert est.w_irm == pytest.approx(0.2)

    def test_boundary_all_irm(self):
        est = estimate_allocation([(0, 50)])
        assert est.w_snm == 0.0
        assert est.w_irm == 1.0

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            estimate_allocation([(0, 0), (0, 0)])

    def test_smoothing_zero_is_raw_ratio(self):
        est = estimate_allocation([(30, 70)], smoothing=0.0, prior=0.9)
        assert est.w_snm == pytest.approx(0.3)

    def test_smoothing_one_keeps_prior(self):
        est = estimate_allocation([(30, 70)], smoothing=1.0, prior=0.9)
        assert est.w_snm == pytest.approx(0.9)

    def test_proportions_sum_exactly(self):
        est = estimate_allocation([(1, 3)], smoothing=0.3, prior=0.5)
        assert est.w_irm + est.w_snm == 1.0


class TestAllocationEstimator:
    def test_windowing_drops_old_slots(self):
        est = AllocationEstimator(window=2, smoothing=0.0)
        est.observe(100, 0)
        est.observe(0, 100)
        est.observe(0, 100)
        assert est.estimate().w_snm == 0.0

    def test_tracks_target_on_synthetic_traces(self):
        for target in (0.2, 0.5, 0.8):
            cat = build_catalog(
                CatalogConfig(library_size=50, w_snm=target, horizon=200),
                seed=21,
            )
            trace = generate_trace(cat, 200, 100, target, 0.8, seed=22)
            regime = {it.id: it.regime for it in cat.items}
            counts = []
            for events in trace.events_by_slot():
                n_snm = sum(1 for c in events if regime[c] is Regime.SNM)
                counts.append((n_snm, len(events) - n_snm))
            est = estimate_allocation(counts, smoothing=0.0)
            adjusted = target - trace.stats.fallback_count / trace.stats.total_requests
            assert est.w_snm == pytest.approx(adjusted, abs=0.05)


class TestAllocationEstimateType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AllocationEstimate(w_irm=0.5, w_snm=0.6)

    def test_snapshot_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PopularitySnapshot(slot=1, freq=np.array([0.0, 0.5, 0.6]))
