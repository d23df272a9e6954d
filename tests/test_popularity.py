import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.errors import EmptyWindow
from hybridcache.policy import make_policy
from hybridcache.popularity import (
    AllocationEstimator,
    PopularitySnapshot,
    estimate_allocation,
)
from hybridcache.workload import generate_trace


class TestEstimateAllocation:
    def test_window_ratio(self):
        assert estimate_allocation([(80, 20)]) == pytest.approx(0.8)

    def test_boundary_all_irm(self):
        assert estimate_allocation([(0, 50)]) == 0.0

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            estimate_allocation([(0, 0), (0, 0)])

    def test_smoothing_zero_is_raw_ratio(self):
        est = estimate_allocation([(30, 70)], smoothing=0.0, prior=0.9)
        assert est == pytest.approx(0.3)

    def test_smoothing_one_keeps_prior(self):
        est = estimate_allocation([(30, 70)], smoothing=1.0, prior=0.9)
        assert est == pytest.approx(0.9)

    def test_rejects_a_share_outside_unit_interval(self):
        # a prior outside [0, 1] carries the blend outside it
        for prior in (1.5, -0.2, float("nan")):
            with pytest.raises(ValueError):
                estimate_allocation([(1, 1)], smoothing=1.0, prior=prior)


class TestAllocationEstimator:
    def test_windowing_drops_old_slots(self):
        est = AllocationEstimator(window=2, smoothing=0.0)
        est.observe(100, 0)
        est.observe(0, 100)
        est.observe(0, 100)
        assert est.estimate() == 0.0

    def test_tracks_target_on_synthetic_traces(self):
        for target in (0.2, 0.5, 0.8):
            cat = build_catalog(
                CatalogConfig(library_size=50, w_snm=target, horizon=200),
                seed=21,
            )
            trace = generate_trace(cat, 200, 100, target, 0.8, seed=22)
            is_snm = np.isin(trace.ids, cat.snm_ids)
            n_snm = np.diff(np.append(0, np.cumsum(is_snm))[trace.offsets])
            n_irm = np.diff(trace.offsets) - n_snm
            counts = list(zip(n_snm.tolist(), n_irm.tolist()))
            est = estimate_allocation(counts, smoothing=0.0)
            adjusted = target - trace.stats.fallback_count / trace.stats.total_requests
            assert est == pytest.approx(adjusted, abs=0.05)

    @given(
        window=st.integers(1, 5),
        smoothing=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
        # many all-zero slots, so windows empty and fill again
        slots=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)) | st.just((0, 0)),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_running_sums_equal_the_window_estimate(self, window, smoothing, slots):
        est = AllocationEstimator(window=window, smoothing=smoothing)
        prior = None
        for seen, (n_snm, n_irm) in enumerate(slots, start=1):
            est.observe(n_snm, n_irm)
            history = list(est._counts)
            assert history == slots[max(0, seen - window):seen]
            try:
                want = estimate_allocation(history, smoothing=smoothing, prior=prior)
            except EmptyWindow:
                with pytest.raises(EmptyWindow):
                    est.estimate()
                continue
            assert est.estimate() == want
            prior = want

    @pytest.mark.parametrize("smoothing", [1.5, -0.1, float("nan")])
    def test_bad_smoothing_raises_at_construction(self, smoothing):
        with pytest.raises(ValueError, match="smoothing"):
            AllocationEstimator(window=3, smoothing=smoothing)
        catalog = build_catalog(CatalogConfig(library_size=6, w_snm=0.5, horizon=5), seed=1)
        with pytest.raises(ValueError, match="smoothing"):
            make_policy("hybrid", catalog, 2.0, np.random.default_rng(0),
                        alloc_smoothing=smoothing)


class TestPopularitySnapshot:
    def test_snapshot_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PopularitySnapshot(slot=1, freq=np.array([0.0, 0.5, 0.6]))
