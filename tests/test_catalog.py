import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridcache.catalog import (
    Catalog,
    CatalogConfig,
    ContentItem,
    FeatureRole,
    Regime,
    SnmDynamics,
    build_catalog,
    feature_influence,
    load_catalog,
    normalize_features,
    save_catalog,
)
from hybridcache.errors import EmptyFeatures, LibraryTooSmall, RangeDegenerate

COST = FeatureRole.COST
BENEFIT = FeatureRole.BENEFIT


class TestNormalizeFeatures:
    def test_midpoint(self):
        assert normalize_features((5,), ((0, 10),)) == (0.5,)

    def test_endpoints(self):
        assert normalize_features((0, 10), ((0, 10), (0, 10))) == (0.0, 1.0)

    def test_three_features(self):
        out = normalize_features((2, 8, 3), ((0, 4), (0, 16), (1, 5)))
        assert out == (0.5, 0.5, 0.5)

    def test_clamping(self):
        assert normalize_features((-1, 20), ((0, 10), (0, 10))) == (0.0, 1.0)

    def test_degenerate_range(self):
        with pytest.raises(RangeDegenerate):
            normalize_features((1,), ((3, 3),))

    def test_idempotent_on_unit_range(self):
        vals = (0.0, 0.25, 0.9, 1.0)
        once = normalize_features(vals, [(0, 1)] * 4)
        assert normalize_features(once, [(0, 1)] * 4) == once


class TestFeatureInfluence:
    def test_cost_benefit_mean(self):
        roles = (COST, COST, BENEFIT, BENEFIT)
        x = feature_influence((0.2, 0.3, 0.9, 0.6), roles, floor=0.01)
        assert x == pytest.approx(0.75)

    def test_worst_case_clamps_to_floor(self):
        roles = (COST, COST, BENEFIT, BENEFIT)
        assert feature_influence((1, 1, 0, 0), roles, floor=0.01) == 0.01

    def test_midpoint_symmetry(self):
        for roles in [(COST, BENEFIT), (BENEFIT, COST), (COST, COST)]:
            assert feature_influence((0.5, 0.5), roles) == pytest.approx(0.5)

    def test_empty_features(self):
        with pytest.raises(EmptyFeatures):
            feature_influence((), ())

    def test_monotone_in_roles(self):
        roles = (COST, BENEFIT)
        base = feature_influence((0.5, 0.5), roles)
        # raising a benefit feature cannot lower the influence
        assert feature_influence((0.5, 0.7), roles) >= base
        # raising a cost feature cannot raise it
        assert feature_influence((0.7, 0.5), roles) <= base


class TestBuildCatalog:
    def test_paper_proportions(self):
        cat = build_catalog(CatalogConfig(library_size=150, w_snm=0.8), seed=1)
        assert len(cat.snm_ids) == 120
        assert len(cat.irm_ids) == 30

    def test_all_irm_boundary(self):
        cat = build_catalog(CatalogConfig(library_size=10, w_snm=0.0), seed=1)
        assert len(cat.snm_ids) == 0
        assert all(it.regime is Regime.IRM for it in cat.items)

    def test_determinism(self):
        cfg = CatalogConfig(library_size=40, w_snm=0.5)
        a, b = build_catalog(cfg, seed=7), build_catalog(cfg, seed=7)
        assert a == b

    def test_library_too_small(self):
        with pytest.raises(LibraryTooSmall):
            build_catalog(CatalogConfig(library_size=1), seed=1)

    def test_partition_and_item_invariants(self):
        cfg = CatalogConfig(library_size=60, w_snm=0.7)
        cat = build_catalog(cfg, seed=3)
        assert len(cat.irm_ids) + len(cat.snm_ids) == 60
        for it in cat.items:
            assert all(0.0 <= x <= 1.0 for x in it.features)
            assert it.size > 0
            assert (it.snm is not None) == (it.regime is Regime.SNM)
            if it.snm is not None:
                assert it.snm.volume >= cfg.pareto_n_min
                assert 1 <= it.snm.arrival_slot <= cfg.horizon


class TestCatalogType:
    def test_ids_must_be_dense(self):
        item = ContentItem(id=2, size=1.0, regime=Regime.IRM, features=(0.5,))
        with pytest.raises(ValueError):
            Catalog(items=(item,))

    def test_snm_requires_dynamics(self):
        with pytest.raises(ValueError):
            ContentItem(id=1, size=1.0, regime=Regime.SNM, features=(0.5,))

    def test_active_window_half_open(self):
        irm = ContentItem(id=1, size=1.0, regime=Regime.IRM, features=(0.5,))
        snm = ContentItem(
            id=2, size=1.0, regime=Regime.SNM, features=(0.5,),
            snm=SnmDynamics(arrival_slot=10, lifespan=20, volume=40.0),
        )
        cat = Catalog(items=(irm, snm))
        assert cat.active_snm_ids(9) == []
        assert cat.active_snm_ids(10) == [2]
        assert cat.active_snm_ids(29) == [2]
        assert cat.active_snm_ids(30) == []

    @given(data=st.data())
    def test_active_ids_match_window_definition(self, data):
        windows = data.draw(
            st.lists(
                st.none() | st.tuples(st.integers(1, 60), st.integers(1, 30)),
                min_size=1,
                max_size=25,
            )
        )
        items = [
            ContentItem(id=cid, size=1.0, regime=Regime.IRM, features=(0.5,))
            if window is None
            else ContentItem(
                id=cid, size=1.0, regime=Regime.SNM, features=(0.5,),
                snm=SnmDynamics(window[0], window[1], volume=1.0),
            )
            for cid, window in enumerate(windows, start=1)
        ]
        cat = Catalog(items=tuple(data.draw(st.permutations(items))))
        edges = {0, 1, 200}  # 200 lies past every window
        for a, n in filter(None, windows):
            edges |= {a - 1, a, a + n - 1, a + n}
        for slot in sorted(edges):
            expected = []
            for it in sorted(items, key=lambda it: it.id):
                if it.snm is None:
                    continue
                arrival, lifespan = it.snm.arrival_slot, it.snm.lifespan
                if arrival <= slot < arrival + lifespan:
                    expected.append(it.id)
            assert cat.active_snm_ids(slot) == expected, slot


class TestCatalogIO:
    def test_round_trip(self, tmp_path):
        cat = build_catalog(CatalogConfig(library_size=30, w_snm=0.6), seed=5)
        path = tmp_path / "catalog.csv"
        save_catalog(cat, path)
        assert load_catalog(path) == cat

    def test_byte_identical_serialization(self, tmp_path):
        cfg = CatalogConfig(library_size=25, w_snm=0.4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_catalog(build_catalog(cfg, seed=9), p1)
        save_catalog(build_catalog(cfg, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()
