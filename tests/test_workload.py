import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcache.catalog import (
    Catalog,
    CatalogConfig,
    ContentItem,
    Regime,
    SnmDynamics,
    build_catalog,
)
from hybridcache.errors import (
    BadUniform,
    EmptyLibrary,
    TraceParseError,
    UnknownContent,
)
from hybridcache.workload import (
    ParetoVolume,
    RequestTrace,
    generate_trace,
    load_trace,
    sample_pareto_volume,
    save_trace,
    zipf_pmf,
)


class TestZipfPmf:
    def test_n3_delta1(self):
        pmf = zipf_pmf(3, 1.0)
        assert pmf == pytest.approx([0.5455, 0.2727, 0.1818], abs=1e-4)

    def test_delta0_uniform(self):
        assert zipf_pmf(4, 0.0) == pytest.approx([0.25] * 4)

    def test_normalization(self):
        for delta in (0.0, 0.8, 2.5):
            assert abs(zipf_pmf(150, delta).sum() - 1.0) < 1e-9

    def test_empty_library(self):
        with pytest.raises(EmptyLibrary):
            zipf_pmf(0, 1.0)

    @given(
        n=st.integers(min_value=1, max_value=500),
        delta=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    def test_non_increasing_in_rank(self, n, delta):
        pmf = zipf_pmf(n, delta)
        assert np.all(np.diff(pmf) <= 1e-15)


class TestParetoVolume:
    def test_inverse_cdf(self):
        model = ParetoVolume(beta=2.0, n_min=1.0)
        assert sample_pareto_volume(model, 0.75) == pytest.approx(2.0)

    def test_support_lower_bound(self):
        model = ParetoVolume(beta=2.0, n_min=1.0)
        assert sample_pareto_volume(model, 0.0) == 1.0

    def test_bad_uniform(self):
        model = ParetoVolume(beta=2.0, n_min=1.0)
        for u in (-0.1, 1.0, 1.5):
            with pytest.raises(BadUniform):
                sample_pareto_volume(model, u)

    def test_shape_must_exceed_one(self):
        with pytest.raises(ValueError):
            ParetoVolume(beta=1.0, n_min=1.0)

    def test_mean_and_cdf(self):
        # analytic mean beta*n_min/(beta-1) = 2; KS distance vs the
        # closed-form CDF
        model = ParetoVolume(beta=2.0, n_min=1.0)
        rng = np.random.default_rng(42)
        us = rng.random(1_000_000)
        draws = np.array([sample_pareto_volume(model, u) for u in us])
        assert draws.min() >= model.n_min
        assert draws.mean() == pytest.approx(2.0, rel=0.02)
        draws.sort()
        cdf = 1.0 - (model.n_min / draws) ** model.beta
        empirical = np.arange(1, len(draws) + 1) / len(draws)
        assert np.abs(empirical - cdf).max() < 0.01


@pytest.fixture(scope="module")
def small_catalog():
    return build_catalog(
        CatalogConfig(library_size=20, w_snm=0.5, horizon=100), seed=11
    )


class TestGenerateTrace:
    def test_snm_share_concentration(self):
        cat = build_catalog(
            CatalogConfig(library_size=150, w_snm=0.8, horizon=600), seed=1
        )
        trace = generate_trace(cat, 600, 100, w_snm=0.8, delta=0.8, seed=2)
        adjusted = 0.8 - trace.stats.fallback_count / trace.stats.total_requests
        assert trace.stats.snm_share == pytest.approx(adjusted, abs=0.03)
        assert 0.77 - trace.stats.fallback_count / 60000 <= trace.stats.snm_share <= 0.83

    def test_pure_irm_boundary(self, small_catalog):
        trace = generate_trace(
            small_catalog, 50, 20, w_snm=0.0, delta=1.0, seed=3
        )
        irm = set(small_catalog.irm_ids)
        assert all(cid in irm for _, cid in trace.events)

    def test_determinism(self, small_catalog):
        a = generate_trace(small_catalog, 30, 10, 0.5, 0.8, seed=4)
        b = generate_trace(small_catalog, 30, 10, 0.5, 0.8, seed=4)
        assert a.events == b.events

    def test_snm_draws_follow_pulse_rates(self):
        # id 2 is live in slots 1..10 at rate 30/10, id 3 in 6..15 at
        # rate 10/10; slots 16..20 have no live SNM item and fall back
        def snm(cid, arrival, lifespan, volume):
            return ContentItem(
                id=cid, size=1.0, regime=Regime.SNM, features=(0.5,),
                snm=SnmDynamics(arrival, lifespan, volume),
            )

        irm = ContentItem(id=1, size=1.0, regime=Regime.IRM, features=(0.5,))
        cat = Catalog(items=(irm, snm(2, 1, 10, 30.0), snm(3, 6, 10, 10.0)))
        trace = generate_trace(cat, 20, 200, w_snm=1.0, delta=0.8, seed=12)
        slots = trace.events_by_slot()
        assert set(slots[4]) == {2}  # slot 5: before id 3 arrives
        assert set(slots[5]) == {2, 3}  # slot 6: id 3's arrival
        assert set(slots[10]) == {3}  # slot 11: id 2's window has closed
        assert set(slots[15]) == {1}  # slot 16: fallback to IRM
        both = [cid for slot in slots[5:10] for cid in slot]
        assert both.count(2) / len(both) == pytest.approx(0.75, abs=0.05)
        assert trace.stats.fallback_count == 5 * 200

    def test_exactly_r_events_per_slot(self, small_catalog):
        trace = generate_trace(small_catalog, 40, 7, 0.5, 0.8, seed=5)
        for slot_events in trace.events_by_slot():
            assert len(slot_events) == 7

    def test_irm_frequencies_match_pmf(self):
        # all-IRM catalog: 1e5 requests, total variation vs the pmf
        cat = build_catalog(
            CatalogConfig(library_size=50, w_snm=0.0, horizon=100), seed=6
        )
        trace = generate_trace(cat, 100, 1000, w_snm=0.0, delta=0.8, seed=7)
        pmf = zipf_pmf(50, 0.8)
        counts = np.zeros(50)
        for _, cid in trace.events:
            counts[cid - 1] += 1
        freq = counts / counts.sum()
        tv = 0.5 * np.abs(freq - pmf).sum()
        assert tv < 0.02

    def test_empty_catalog(self):
        from hybridcache.catalog import Catalog

        with pytest.raises(EmptyLibrary):
            generate_trace(Catalog(items=()), 10, 5, 0.5, 0.8, seed=1)


class TestTraceIO:
    def test_round_trip(self, small_catalog, tmp_path):
        trace = generate_trace(small_catalog, 20, 5, 0.5, 0.8, seed=8)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path, small_catalog)
        assert loaded.events == trace.events
        assert loaded.horizon == trace.horizon

    def test_malformed_row_reports_line(self, small_catalog, tmp_path):
        path = tmp_path / "bad.csv"
        cases = (
            ("1,2\nabc,5\n", 3),
            ("2,1\n0,2\n3,1\n1,3\n-1,4\n", 3),  # slot below 1
            ("1,2\n-1,4\n", 3),
            ("2,1\n3,1\n1,3\n", 4),  # slot lower than the row before
        )
        for rows, line in cases:
            path.write_text("slot,content_id\n" + rows)
            with pytest.raises(TraceParseError) as exc:
                load_trace(path, small_catalog)
            assert exc.value.line == line, rows

    def test_unknown_content(self, small_catalog, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("slot,content_id\n1,9999\n")
        with pytest.raises(UnknownContent):
            load_trace(path, small_catalog)
