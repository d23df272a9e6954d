import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.errors import EmptyWindow
from hybridcache.policy import make_policy
from hybridcache.popularity import AllocationEstimator, PopularitySnapshot
from hybridcache.workload import generate_trace


def window_share(history, smoothing, prior):
    """The reference estimate: re-sum the window, then blend with prior.

    None stands for an empty window.
    """
    total_snm = sum(s for s, _ in history)
    total_irm = sum(i for _, i in history)
    if total_snm + total_irm == 0:
        return None
    raw = total_snm / (total_snm + total_irm)
    if prior is None:
        return raw
    return smoothing * prior + (1.0 - smoothing) * raw


def estimates(counts, window=1, smoothing=0.0):
    """Feed each slot's counts to a fresh estimator; its estimate after each."""
    est = AllocationEstimator(window=window, smoothing=smoothing)
    out = []
    for n_snm, n_irm in counts:
        est.observe(n_snm, n_irm)
        out.append(est.estimate())
    return out


class TestAllocationEstimator:
    def test_window_ratio(self):
        assert estimates([(80, 20)]) == [pytest.approx(0.8)]

    def test_boundary_all_irm(self):
        assert estimates([(0, 50)]) == [0.0]

    def test_empty_window(self):
        est = AllocationEstimator(window=2, smoothing=0.0)
        est.observe(0, 0)
        est.observe(0, 0)
        with pytest.raises(EmptyWindow):
            est.estimate()

    def test_smoothing_zero_is_raw_ratio(self):
        # the first estimate (0.9) is the second one's prior
        assert estimates([(90, 10), (30, 70)], smoothing=0.0) == [
            pytest.approx(0.9), pytest.approx(0.3)]

    def test_smoothing_one_keeps_prior(self):
        assert estimates([(90, 10), (30, 70)], smoothing=1.0) == [
            pytest.approx(0.9), pytest.approx(0.9)]

    @pytest.mark.parametrize("counts", [(-1, 3), (3, -1), (float("nan"), 1)])
    def test_rejects_a_share_outside_unit_interval(self, counts):
        # a negative or NaN count carries the window's share outside [0, 1]
        est = AllocationEstimator(window=1, smoothing=0.5)
        est.observe(*counts)
        with pytest.raises(ValueError, match=r"w_snm must lie in \[0, 1\]"):
            est.estimate()

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
            est = AllocationEstimator(window=200, smoothing=0.0)
            for counts in zip(n_snm.tolist(), n_irm.tolist()):
                est.observe(*counts)
            adjusted = target - trace.fallback_count / len(trace.ids)
            assert est.estimate() == pytest.approx(adjusted, abs=0.05)

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
            want = window_share(history, smoothing, prior)
            if want is None:
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
