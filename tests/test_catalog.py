import bisect
import dataclasses
import functools
import hashlib
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import catalog_reference
from catalog_helpers import array_catalog
from hybridcache.catalog import (
    CATEGORY_WEIGHTS,
    LIFESPAN_RANGE,
    Catalog,
    CatalogConfig,
    _float,
    _stream_draws,
    build_catalog,
    feature_influences,
    load_catalog,
    normalize_features,
    save_catalog,
)
from hybridcache.errors import HybridCacheError, TraceParseError
from hybridcache.policy import HybridPolicy


def same_catalog(a, b):
    """Whether two catalogs hold equal arrays of equal dtypes."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        and getattr(a, f.name).dtype == getattr(b, f.name).dtype
        for f in dataclasses.fields(Catalog)
        if f.init
    )


class TestNormalizeFeatures:
    """normalize_features maps each column of a raw matrix by its range."""

    def test_midpoint(self):
        assert normalize_features([[5]], ((0, 10),)).tolist() == [[0.5]]

    def test_endpoints(self):
        out = normalize_features([[0, 10]], ((0, 10), (0, 10)))
        assert out.tolist() == [[0.0, 1.0]]

    def test_three_features(self):
        raw = [[2, 8, 3], [0, 16, 5]]
        out = normalize_features(raw, ((0, 4), (0, 16), (1, 5)))
        assert out.tolist() == [[0.5, 0.5, 0.5], [0.0, 1.0, 1.0]]

    def test_clamping(self):
        raw = [[-1, 20], [11, -0.5]]
        out = normalize_features(raw, ((0, 10), (0, 10)))
        assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_degenerate_range(self):
        with pytest.raises(HybridCacheError, match="has max <= min"):
            normalize_features([[1, 1]], ((0, 1), (3, 3)))
        with pytest.raises(HybridCacheError, match="has max <= min"):
            normalize_features([[1]], ((4, 3),))

    def test_idempotent_on_unit_range(self):
        vals = [[0.0, 0.25, 0.9, 1.0], [0.5, 0.1, 0.0, 0.3]]
        once = normalize_features(vals, [(0, 1)] * 4)
        assert normalize_features(once, [(0, 1)] * 4).tolist() == once.tolist()

    @given(
        raw=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
        lo=st.floats(-100, 100),
        width=st.floats(1e-3, 100),
    )
    def test_equals_the_scalar_clamp(self, raw, lo, width):
        # bit for bit, as build_catalog's pinned bytes need
        hi = lo + width
        out = normalize_features(np.array(raw)[:, None], ((lo, hi),))
        want = [min(1.0, max(0.0, (x - lo) / (hi - lo))) for x in raw]
        assert out[:, 0].tolist() == want


def feature_influence(features):
    """Reference influence of one row, one float at a time.

    Size and bandwidth are costs and contribute 1 - x; value and
    category weight are benefits and contribute x. The mean is floored
    at 0.01.
    """
    total = 0.0
    for x, benefit in zip(features, (False, False, True, True)):
        total += x if benefit else 1.0 - x
    return max(0.01, total / len(features))


def influence(*row):
    return float(feature_influences(np.array([row]))[0])


class TestFeatureInfluence:
    def test_cost_benefit_mean(self):
        assert influence(0.2, 0.3, 0.9, 0.6) == pytest.approx(0.75)

    def test_worst_case_clamps_to_floor(self):
        assert influence(1, 1, 0, 0) == 0.01

    def test_midpoint_symmetry(self):
        assert influence(0.5, 0.5, 0.5, 0.5) == pytest.approx(0.5)

    def test_monotone_in_roles(self):
        base = influence(0.5, 0.5, 0.5, 0.5)
        # raising a benefit feature cannot lower the influence
        assert influence(0.5, 0.5, 0.7, 0.5) >= base
        assert influence(0.5, 0.5, 0.5, 0.7) >= base
        # raising a cost feature cannot raise it
        assert influence(0.7, 0.5, 0.5, 0.5) <= base
        assert influence(0.5, 0.7, 0.5, 0.5) <= base


def built_and_loaded(tmp_path):
    built = build_catalog(CatalogConfig(library_size=40, w_snm=0.6), seed=17)
    path = tmp_path / "catalog.csv"
    save_catalog(built, path)
    return built, load_catalog(path)


class TestFeatureInfluences:
    """The array form equals feature_influence row by row, bit for bit."""

    def test_catalog_rows(self, tmp_path):
        for catalog in built_and_loaded(tmp_path):
            rows = catalog.features[catalog.snm_ids - 1].tolist()
            want = [feature_influence(row) for row in rows]
            got = feature_influences(catalog.snm_features)
            assert got.tolist() == want
            hybrid = HybridPolicy(catalog, 5)
            assert hybrid.state.influence[catalog.snm_ids].tolist() == want

    @given(
        rows=st.lists(
            st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=20
        ),
    )
    def test_any_rows(self, rows):
        got = feature_influences(np.array(rows))
        assert got.tolist() == [feature_influence(r) for r in rows]


class TestBuildCatalog:
    def test_paper_proportions(self):
        cat = build_catalog(CatalogConfig(library_size=150, w_snm=0.8), seed=1)
        assert len(cat.snm_ids) == 120
        assert len(cat.irm_ids) == 30

    def test_all_irm_boundary(self):
        cat = build_catalog(CatalogConfig(library_size=10, w_snm=0.0), seed=1)
        assert len(cat.snm_ids) == 0
        assert not cat.snm.any()

    def test_determinism(self):
        cfg = CatalogConfig(library_size=40, w_snm=0.5)
        a, b = build_catalog(cfg, seed=7), build_catalog(cfg, seed=7)
        assert same_catalog(a, b)
        assert not same_catalog(a, build_catalog(cfg, seed=8))

    def test_library_too_small(self):
        with pytest.raises(HybridCacheError, match="library_size=1 < 2"):
            build_catalog(CatalogConfig(library_size=1), seed=1)

    def test_partition_and_item_invariants(self):
        cfg = CatalogConfig(library_size=60, w_snm=0.7)
        cat = build_catalog(cfg, seed=3)
        assert len(cat.irm_ids) + len(cat.snm_ids) == 60
        assert cat.ids.tolist() == list(range(1, 61))
        # ids 1..N_I are IRM, the rest SNM
        assert cat.snm.tolist() == [False] * 18 + [True] * 42
        assert ((cat.features >= 0) & (cat.features <= 1)).all()
        assert (cat.sizes > 0).all()
        assert (cat.snm_volume >= cfg.pareto_n_min).all()
        assert ((1 <= cat.snm_arrival) & (cat.snm_arrival <= cfg.horizon)).all()
        lo, hi = LIFESPAN_RANGE
        lifespans = cat.snm_expiry - cat.snm_arrival
        assert ((lo <= lifespans) & (lifespans <= hi)).all()
        irm = ~cat.snm
        assert not (cat.arrival[irm].any() or cat.lifespan[irm].any()
                    or cat.volume[irm].any())


@functools.lru_cache(maxsize=None)
def law_catalog(build, w_snm):
    """A 5000-content catalog, large enough that each law shows its whole range."""
    return build(CatalogConfig(library_size=5000, w_snm=w_snm), seed=11)


def uniform_feature(column):
    """A check that a feature column is a uniform draw over the column's
    range, normalized by that same range: it covers [0, 1) and no clamp
    leaves a value at 1."""

    def check(cat):
        x = cat.features[:, column]
        assert ((0 <= x) & (x < 1)).all()
        assert x.min() < 0.01 and x.max() > 0.99
        assert abs(x.mean() - 0.5) < 0.02

    return check


def unit_sizes(cat):
    assert (cat.sizes == 1.0).all()


def category_choice(cat):
    # the weights lie in [0, 1], their own normalized values
    values, counts = np.unique(cat.features[:, 3], return_counts=True)
    assert values.tolist() == list(CATEGORY_WEIGHTS)
    share = len(cat.sizes) / len(CATEGORY_WEIGHTS)
    assert (abs(counts - share) < 0.15 * share).all()


def lifespan_law(cat):
    assert not cat.lifespan[~cat.snm].any()
    lifespans = cat.lifespan[cat.snm]
    if lifespans.size:
        assert (lifespans.min(), lifespans.max()) == LIFESPAN_RANGE


class TestFixedLaws:
    """Each generation law that CatalogConfig does not set holds in a built catalog."""

    LAWS = {
        "item-size": unit_sizes,
        "size": uniform_feature(0),
        "bandwidth": uniform_feature(1),
        "value": uniform_feature(2),
        "category": category_choice,
        "lifespan": lifespan_law,
    }

    @pytest.mark.parametrize("w_snm", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
    @pytest.mark.parametrize(
        "build", [build_catalog, catalog_reference.build_catalog], ids=["bulk", "reference"]
    )
    def test_law_holds(self, build, law, w_snm):
        law(law_catalog(build, w_snm))

    def test_config_holds_only_the_run_settings(self):
        names = [f.name for f in dataclasses.fields(CatalogConfig)]
        assert names == ["library_size", "w_snm", "horizon", "pareto_beta", "pareto_n_min"]


def irm_fields(n=3):
    """The fields of an all-IRM catalog of n contents, as lists."""
    return dict(
        sizes=[1.0] * n, features=[[0.5] * 4] * n, snm=[False] * n,
        arrival=[0] * n, lifespan=[0] * n, volume=[0.0] * n,
    )


def snm_fields(arrival=5, lifespan=10, volume=2.0):
    """The fields of a catalog whose id 2 is SNM with this pulse."""
    fields = irm_fields()
    fields.update(
        snm=[False, True, False],
        arrival=[0, arrival, 0],
        lifespan=[0, lifespan, 0],
        volume=[0.0, volume, 0.0],
    )
    return fields


class TestCatalogType:
    def test_ids_must_be_dense(self, tmp_path):
        # a catalog's ids are its positions; ids come in only through files
        path = tmp_path / "catalog.csv"
        save_catalog(Catalog(**irm_fields(2)), path)
        text = path.read_text().replace("\n1,IRM", "\n3,IRM")
        path.write_text(text)
        with pytest.raises(TraceParseError, match="line 2: content 3"):
            load_catalog(path)

    def test_snm_requires_dynamics(self):
        Catalog(**snm_fields())
        for pulse in ({"arrival": 0}, {"lifespan": 0}, {"volume": 0.0}):
            with pytest.raises(ValueError, match="content 2"):
                Catalog(**snm_fields(**pulse))
        # and an IRM content has none
        for name, value in (("arrival", 1), ("lifespan", 1), ("volume", 1.0)):
            fields = irm_fields()
            fields[name] = [0, 0, value]
            with pytest.raises(ValueError, match="content 3: an IRM content"):
                Catalog(**fields)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("sizes", 0.0), ("sizes", -1.0), ("sizes", np.nan), ("sizes", np.inf),
            ("volume", np.nan), ("volume", np.inf), ("volume", -2.0),
            ("features", [0.5, 1.5, 0.5, 0.5]), ("features", [0.5, -0.1, 0.5, 0.5]),
            ("features", [0.5, np.nan, 0.5, 0.5]),
            # the int64 cast would truncate these
            ("arrival", 2.5), ("lifespan", 3.7), ("arrival", np.nan),
            ("arrival", np.inf), ("lifespan", np.nan), ("lifespan", -np.inf),
        ],
    )
    def test_rejects_a_bad_value(self, name, value):
        fields = snm_fields()
        fields[name] = [fields[name][0], value, fields[name][2]]
        with pytest.raises(ValueError, match="content 2"):
            Catalog(**fields)

    @pytest.mark.parametrize("name", ["sizes", "snm", "arrival", "features"])
    def test_rejects_a_short_array(self, name):
        fields = irm_fields()
        fields[name] = fields[name][:2]
        with pytest.raises(ValueError, match="must have shape"):
            Catalog(**fields)

    def test_empty_library(self):
        with pytest.raises(HybridCacheError, match="catalog is empty"):
            Catalog(**irm_fields(0))

    def test_arrays_are_read_only_copies(self):
        sizes = np.ones(3)
        cat = Catalog(**{**irm_fields(), "sizes": sizes})
        sizes[0] = 5.0
        assert cat.sizes.tolist() == [1.0, 1.0, 1.0]
        for f in dataclasses.fields(Catalog):
            if isinstance(getattr(cat, f.name), np.ndarray):
                assert not getattr(cat, f.name).flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            cat.sizes = sizes

    def test_rejects_a_window_end_past_int64(self):
        top = 2**63 - 1
        cat = Catalog(**snm_fields(arrival=top - 10, lifespan=10))
        assert cat.snm_changes == (top - 10, top)
        assert cat.active_snm_ids(top - 1).tolist() == [2]
        assert cat.active_snm_ids(top).tolist() == []
        # arrival + lifespan would wrap to a negative window end
        for arrival, lifespan in ((top, 1), (top - 9, 10), (1, top)):
            with pytest.raises(HybridCacheError, match=r"content 2: arrival \+ lifespan"):
                Catalog(**snm_fields(arrival=arrival, lifespan=lifespan))

    @pytest.mark.parametrize("name, value", [
        ("arrival", 1e19), ("lifespan", 2.0**63), ("arrival", -(2.0**64)),
        # numpy holds a Python int past int64 among small ones as a float64
        ("lifespan", 2**63),
    ])
    def test_rejects_a_whole_number_outside_int64(self, name, value):
        # the int64 cast would turn each into -2**63 (a float with a
        # RuntimeWarning), which then fails a check for another reason
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                HybridCacheError, match=f"content 2: {name} must lie in the int64 range"
            ):
                Catalog(**snm_fields(**{name: value}))

    def test_rejects_an_unsigned_number_past_int64(self):
        # the int64 cast would wrap it to -2**63 without a warning
        fields = snm_fields()
        fields["lifespan"] = np.array([0, 2**63, 0], dtype=np.uint64)
        with pytest.raises(
            HybridCacheError, match="content 2: lifespan must lie in the int64 range"
        ):
            Catalog(**fields)

    def test_accepts_the_greatest_whole_float_in_int64(self):
        arrival = 2**63 - 1024  # the float64 just below 2**63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cat = Catalog(**snm_fields(arrival=float(arrival), lifespan=10.0))
        assert cat.snm_changes == (arrival, arrival + 10)

    def test_active_window_half_open(self):
        cat = array_catalog([1.0, 1.0], {2: (10, 20, 40.0)})
        assert cat.active_snm_ids(9).tolist() == []
        assert cat.active_snm_ids(10).tolist() == [2]
        assert cat.active_snm_ids(29).tolist() == [2]
        assert cat.active_snm_ids(30).tolist() == []

    def test_one_array_per_span_between_changes(self):
        # id 2 lives in slots 10..29, id 3 in 30..34: one slot both ends and starts
        cat = array_catalog([1.0] * 3, {2: (10, 20, 40.0), 3: (30, 5, 1.0)})
        assert cat.snm_changes == (10, 30, 35)
        # (slot, its live ids, whether the previous call's array is returned)
        calls = [(-1, [], False), (9, [], True), (10, [2], False), (29, [2], True),
                 (30, [3], False), (34, [3], True), (35, [], False), (10**12, [], True)]
        previous = None
        for slot, expected, same in calls:
            got = cat.active_snm_ids(slot)
            assert got.tolist() == expected, slot
            assert (got is previous) == same, slot
            previous = got
        no_snm = array_catalog([1.0, 1.0])
        assert no_snm.snm_changes == ()
        first = no_snm.active_snm_ids(7)
        assert no_snm.active_snm_ids(-(10**12)) is first
        assert no_snm.active_snm_ids(10**12) is first

    @given(
        windows=st.lists(
            st.none() | st.tuples(st.integers(1, 60), st.integers(1, 30)),
            min_size=1,
            max_size=25,
        )
    )
    def test_active_ids_match_window_definition(self, windows):
        pulses = {
            cid: (*window, 1.0)
            for cid, window in enumerate(windows, start=1)
            if window is not None
        }
        cat = array_catalog([1.0] * len(windows), pulses)

        def expected(slot):
            return [
                cid for cid, (arrival, lifespan, _) in sorted(pulses.items())
                if arrival <= slot < arrival + lifespan
            ]

        edges = {0, 1, 200}  # 200 lies past every window
        for a, n in filter(None, windows):
            edges |= {a - 1, a, a + n - 1, a + n}
        assert cat.snm_changes == tuple(sorted(
            {a for a, _ in filter(None, windows)} | {a + n for a, n in filter(None, windows)}
        ))
        for slot in sorted(edges):
            assert cat.active_snm_ids(slot).tolist() == expected(slot), slot
        # slot by slot, a new array appears exactly where the live set changes
        previous = cat.active_snm_ids(-1)
        for slot in range(201):
            got = cat.active_snm_ids(slot)
            assert got.tolist() == expected(slot), slot
            assert (got is not previous) == (slot in cat.snm_changes), slot
            previous = got


def live_scan(catalog, t):
    """The SNM ids live at t, by an explicit scan of every window."""
    return catalog.snm_ids[(catalog.snm_arrival <= t) & (t < catalog.snm_expiry)]


def hand_handoff_catalog():
    """id 2 lives in slots 3..7, id 4 in slot 5 alone, and id 3 from slot 8, where id 2 expires."""
    return array_catalog([1.0] * 4, {2: (3, 5, 4.0), 3: (8, 4, 2.0), 4: (5, 1, 1.0)})


LIVE_SET_CATALOGS = {
    "built": lambda: build_catalog(CatalogConfig(library_size=30, w_snm=0.6, horizon=60), 3),
    "no-snm": lambda: build_catalog(CatalogConfig(library_size=10, w_snm=0.0, horizon=60), 3),
    "horizon-1": lambda: build_catalog(CatalogConfig(library_size=10, w_snm=0.5, horizon=1), 3),
    "handoff": hand_handoff_catalog,
    "built-5000": lambda: build_catalog(CatalogConfig(library_size=5000, w_snm=0.8), 1000),
}


class TestActiveSnmIds:
    """The catalog's kept live set equals a fresh scan at every slot."""

    @pytest.mark.parametrize("case", LIVE_SET_CATALOGS)
    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_equals_the_scan(self, case, order):
        catalog = LIVE_SET_CATALOGS[case]()
        horizon = int(catalog.snm_expiry.max(initial=1))
        slots = np.arange(-1, horizon + 101)
        if order == "shuffled":
            slots = np.random.default_rng(5).permutation(slots)
        for t in slots.tolist():
            got = catalog.active_snm_ids(t)
            assert got.tolist() == live_scan(catalog, t).tolist(), t
            assert not got.flags.writeable

    def test_a_new_array_only_at_a_change(self):
        catalog = hand_handoff_catalog()
        previous, fresh = None, []
        for t in range(1, 21):
            got = catalog.active_snm_ids(t)
            assert not got.flags.writeable
            if got is not previous:
                fresh.append(t)
            previous = got
        # the spans 1..2, 3..4, 5, 6..7, 8..11 and 12..20
        assert fresh == [1, 3, 5, 6, 8, 12]

    def test_memory_stays_by_the_snm_count_at_a_huge_horizon(self):
        horizon = 3 * 2**30
        catalog = build_catalog(CatalogConfig(library_size=40, w_snm=0.5, horizon=horizon), 9)
        changes = catalog.snm_changes
        assert len(changes) <= 2 * len(catalog.snm_ids)
        rng = np.random.default_rng(2)
        slots = {-1, 0, 1, horizon, horizon + 100, *rng.integers(1, horizon, 200).tolist()}
        slots.update(c + d for c in changes for d in (-1, 0, 1))
        tracemalloc.start()
        try:
            for ordered in (sorted(slots), rng.permutation(sorted(slots)).tolist()):
                for t in ordered:
                    assert catalog.active_snm_ids(t).tolist() == live_scan(catalog, t).tolist()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# a move from one slot to the next call's: the next slot, a jump forward
# across several spans, the same slot again, or a move back
SLOT_MOVES = st.one_of(st.just(1), st.integers(2, 40), st.just(0), st.integers(-60, -1))


class TestLiveSetWalk:
    """The live set stepped by arrivals and expiries equals the scan."""

    @given(
        windows=st.lists(
            st.none() | st.tuples(st.integers(1, 40), st.integers(1, 12)),
            min_size=1,
            max_size=25,
        ),
        start=st.integers(-2, 50),
        moves=st.lists(SLOT_MOVES, max_size=60),
    )
    # id 2 ends at slot 5 where id 3 starts, id 4 lives in slot 5 alone,
    # and the jump from 1 to 12 passes both of their windows
    @example(windows=[None, (3, 2), (5, 4), (5, 1)], start=1, moves=[11, 0, -7, 1, 1, 30])
    def test_walk_equals_the_scan_at_every_call(self, windows, start, moves):
        pulses = {
            cid: (*window, 1.0)
            for cid, window in enumerate(windows, start=1)
            if window is not None
        }
        catalog = array_catalog([1.0] * len(windows), pulses)
        slots = itertools.accumulate(moves, initial=start)
        previous, previous_span = None, None
        for t in slots:
            got = catalog.active_snm_ids(t)
            assert got.tolist() == live_scan(catalog, t).tolist(), t
            assert not got.flags.writeable
            span = bisect.bisect_right(catalog.snm_changes, t)
            assert (got is not previous) == (span != previous_span), t
            previous, previous_span = got, span


class TestCatalogIO:
    def test_round_trip(self, tmp_path):
        cat = build_catalog(CatalogConfig(library_size=30, w_snm=0.6), seed=5)
        path = tmp_path / "catalog.csv"
        save_catalog(cat, path)
        assert same_catalog(load_catalog(path), cat)

    def test_byte_identical_serialization(self, tmp_path):
        cfg = CatalogConfig(library_size=25, w_snm=0.4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_catalog(build_catalog(cfg, seed=9), p1)
        save_catalog(build_catalog(cfg, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(data=st.data())
    def test_rows_in_any_id_order(self, tmp_path_factory, data):
        cat = build_catalog(CatalogConfig(library_size=12, w_snm=0.5), seed=4)
        path = tmp_path_factory.mktemp("io") / "catalog.csv"
        save_catalog(cat, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(data.draw(st.permutations(rows))))
        assert same_catalog(load_catalog(path), cat)


# sha256 of save_catalog's bytes, pinned while the catalog was still a
# tuple of per-item objects; the last config also sets the horizon and
# the Pareto volume law.
PINNED_CATALOGS = [
    ((150, 0.8, 1000), {},
     "1095657d3d315e4cbfa1b9b9dc72b1113a12ef7314f64309d554fe3e039e6fe4"),
    ((5000, 0.8, 1000), {},
     "39968eef50aa7170ca4fb655ac60686f0cbb10778c5b2744480f12c70ceda38b"),
    ((40, 0.0, 7), {},
     "8ac38e6590b2ded0e9dfbe94c7e206d8a1c0dfe257ea7a3adbcac7715ca66832"),
    ((40, 1.0, 7), {},
     "409381146d243eb7851429fc794d3434b67258dfd0e2ed7bffab6759ede71a57"),
    ((24, 0.5, 61), {},
     "858440821f9dd056a3ba9c257f9f6a77324cefd7738d07b8f1ef976258be031e"),
    ((30, 0.6, 5), dict(horizon=50, pareto_beta=1.5, pareto_n_min=4.0),
     "c3a8c543758b08be6b0f83d89ab54074230ea5c5832cc635f812c023c1f1fff0"),
]


@pytest.mark.parametrize(
    "point, laws, digest", PINNED_CATALOGS,
    ids=[f"F{f}-w{w}-seed{s}" for (f, w, s), _, _ in PINNED_CATALOGS],
)
def test_saved_catalog_bytes_are_pinned(tmp_path, point, laws, digest):
    library_size, w_snm, seed = point
    config = CatalogConfig(library_size=library_size, w_snm=w_snm, **laws)
    path = tmp_path / "catalog.csv"
    save_catalog(build_catalog(config, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # save -> load -> save writes the same bytes
    again = tmp_path / "again.csv"
    save_catalog(load_catalog(path), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "edits, line, reason",
    [
        # a bad value before a malformed row, and after one
        ({3: (2, "nan"), 6: (9, "")}, 3, "size"),
        ({3: (2, "x"), 6: (2, "nan")}, 3, "could not convert"),
        # an out-of-range id and a repeated one, in either order
        ({4: (0, "99"), 7: (0, "2")}, 4, "outside 1..8"),
        ({4: (0, "2"), 7: (0, "99")}, 4, "repeated"),
        ({5: (7, "3")}, 5, "IRM row"),
        # a number not written as save_catalog writes it
        ({3: (0, "1_0"), 6: (2, "x")}, 3, "'1_0' to int"),
        ({4: (0, " 1.0 ")}, 4, "' 1.0 ' to int"),
        ({6: (7, "+3")}, 6, "'+3' to int"),
        ({7: (8, "1e3")}, 7, "'1e3' to int"),
        ({6: (9, "1_0")}, 6, "'1_0' to float"),
        ({2: (2, " 1.0 ")}, 2, "' 1.0 ' to float"),
        # an SNM window end past int64, by its arrival or by its lifespan
        ({6: (7, str(2**63 - 1))}, 6, "arrival + lifespan must not exceed"),
        ({8: (8, str(2**63 - 1)), 9: (2, "nan")}, 8, "arrival + lifespan must not exceed"),
        # a bad header, and a regime written in another case
        ({1: (0, "ID")}, 1, "bad catalog header"),
        ({2: (1, "irm")}, 2, "regime 'irm' is neither IRM nor SNM"),
    ],
)
def test_first_bad_catalog_row_wins(tmp_path, edits, line, reason):
    # ids 1..4 are IRM, 5..8 SNM
    path = tmp_path / "catalog.csv"
    save_catalog(build_catalog(CatalogConfig(library_size=8, w_snm=0.5), seed=2), path)
    rows = [row.split(",") for row in path.read_text().splitlines()]
    for at, (field, value) in edits.items():
        rows[at - 1][field] = value
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(TraceParseError, match=f"line {line}: .*{re.escape(reason)}"):
        load_catalog(path)


@given(st.floats())
def test_every_float_repr_loads(x):
    got = _float(repr(x))
    assert got == x or (math.isnan(got) and math.isnan(x))


def built_or_raised(build, config, seed):
    """The catalog build(config, seed) gives, or the class of what it raises."""
    try:
        return build(config, seed=seed)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc)


class TestBuildMatchesReference:
    """build_catalog gives the per-content builder's catalog, array for array."""

    @pytest.mark.parametrize(
        "library_size, w_snm, horizon",
        list(itertools.product(
            (2, 3, 7, 150, 5000), (0.0, 0.5, 0.8, 1.0), (1, 600, 3 * 2**30)
        )),
    )
    def test_grid(self, library_size, w_snm, horizon):
        # at horizon 3 * 2**30 about a quarter of arrival draws are rejected
        config = CatalogConfig(library_size=library_size, w_snm=w_snm, horizon=horizon)
        seed = library_size + horizon % 1000
        expected = catalog_reference.build_catalog(config, seed=seed)
        assert same_catalog(build_catalog(config, seed=seed), expected)

    LAWS = {
        "span-2": dict(horizon=2),
        "span-2**32": dict(horizon=2**32),
        "heavy-tail": dict(pareto_beta=1.1, pareto_n_min=0.5),
        "pinned-custom-laws": PINNED_CATALOGS[-1][1],
    }

    @pytest.mark.parametrize("laws", LAWS.values(), ids=LAWS.keys())
    @pytest.mark.parametrize("library_size, w_snm", [(7, 0.5), (150, 0.8), (150, 1.0)])
    def test_laws(self, library_size, w_snm, laws):
        config = CatalogConfig(library_size=library_size, w_snm=w_snm, **laws)
        expected = catalog_reference.build_catalog(config, seed=library_size)
        assert same_catalog(build_catalog(config, seed=library_size), expected)

    INVALID_LAWS = {
        "horizon-0": dict(horizon=0),
        "horizon-negative": dict(horizon=-3),
        "horizon-nan": dict(horizon=math.nan),
        "horizon-infinite": dict(horizon=math.inf),
        "pareto-beta-1": dict(pareto_beta=1.0),
        "pareto-beta-below-1": dict(pareto_beta=0.5),
        "pareto-beta-nan": dict(pareto_beta=math.nan),
        "pareto-n-min-0": dict(pareto_n_min=0.0),
        "pareto-n-min-negative": dict(pareto_n_min=-1.0),
        "pareto-n-min-infinite": dict(pareto_n_min=math.inf),
        "library-size-0": dict(library_size=0),
        "library-size-1": dict(library_size=1),
        "library-size-float": dict(library_size=10.0),
        "w-snm-above-1": dict(w_snm=1.5),
        "w-snm-nan": dict(w_snm=math.nan),
    }

    @pytest.mark.parametrize("w_snm", [0.0, 0.5])
    @pytest.mark.parametrize("laws", INVALID_LAWS.values(), ids=INVALID_LAWS.keys())
    def test_invalid_laws_raise_as_the_reference(self, laws, w_snm):
        # a law no content draws from builds: horizon 0 with w_snm 0
        config = CatalogConfig(**{"library_size": 10, "w_snm": w_snm, **laws})
        expected = built_or_raised(catalog_reference.build_catalog, config, seed=3)
        got = built_or_raised(build_catalog, config, seed=3)
        if isinstance(expected, Catalog):
            assert isinstance(got, Catalog) and same_catalog(got, expected)
        else:
            assert got is expected

    @pytest.mark.parametrize("field, laws", [
        ("horizon", dict(horizon=2**32 + 1)),
    ])
    def test_span_above_2_to_the_32_is_rejected(self, field, laws):
        # numpy draws such a span from whole 64-bit words
        with pytest.raises(ValueError, match=field):
            build_catalog(CatalogConfig(library_size=10, w_snm=0.5, **laws), seed=3)
        # no content draws from it without SNM content
        config = CatalogConfig(library_size=10, w_snm=0.0, **laws)
        expected = catalog_reference.build_catalog(config, seed=3)
        assert same_catalog(build_catalog(config, seed=3), expected)

    # a law numpy would take but no caller means: a fractional horizon
    # (numpy truncates it)
    UNMEANT_LAWS = {
        "horizon-fractional": dict(horizon=600.5),
    }

    @pytest.mark.parametrize("w_snm", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("laws", UNMEANT_LAWS.values(), ids=UNMEANT_LAWS.keys())
    @pytest.mark.parametrize(
        "build", [build_catalog, catalog_reference.build_catalog], ids=["bulk", "reference"]
    )
    def test_unmeant_laws_are_rejected(self, build, laws, w_snm):
        config = CatalogConfig(**{"library_size": 10, "w_snm": w_snm, **laws})
        (field,) = laws
        # only SNM contents draw from the horizon
        if w_snm > 0:
            with pytest.raises(ValueError, match=field):
                build(config, seed=3)
        else:
            assert same_catalog(build(config, seed=3), build_catalog(
                dataclasses.replace(config, **{field: getattr(CatalogConfig(), field)}),
                seed=3,
            ))

    @pytest.mark.parametrize(
        "build", [build_catalog, catalog_reference.build_catalog], ids=["bulk", "reference"]
    )
    def test_whole_float_horizon_builds(self, build):
        config = CatalogConfig(library_size=40, w_snm=0.5)
        whole = dataclasses.replace(config, horizon=600.0)
        assert same_catalog(build(whole, seed=5), build(config, seed=5))

    def test_stream_draws_match_scalar_calls(self):
        # a plan of whole words (span 1 here) and bounded draws, whose
        # span 3 * 2**30 rejects a quarter of its 32-bit values
        spans = np.random.default_rng(17).choice([1, 2, 5, 600, 3 * 2**30, 2**32], 3000)
        bounded = spans > 1
        rng = np.random.default_rng(23)
        expected = [rng.integers(0, s) if s > 1 else rng.bit_generator.random_raw()
                    for s in spans.tolist()]
        got = _stream_draws(np.random.default_rng(23).bit_generator, bounded, spans)
        assert got.tolist() == expected
        # without retries the plan would read one word per double and one
        # per two bounded draws; the scalar calls read past that
        planned = np.random.default_rng(23).bit_generator
        planned.random_raw(int((~bounded).sum() + (bounded.sum() + 1) // 2))
        assert planned.state["state"] != rng.bit_generator.state["state"]
