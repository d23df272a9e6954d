import hashlib
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trace_reference
from catalog_helpers import array_catalog
from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.errors import (
    BadUniform,
    EmptyLibrary,
    TraceParseError,
    UnknownContent,
)
from hybridcache.workload import (
    CHUNK_DOUBLES,
    ParetoVolume,
    RequestTrace,
    choice_cdf,
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

    @pytest.mark.parametrize("delta", [-0.5, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            zipf_pmf(3, delta)

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

    def test_pinned_draws(self, small_catalog):
        # pins the order of the rng calls and the id dtype
        trace = generate_trace(small_catalog, 30, 10, 0.5, 0.8, seed=4)
        digest = hashlib.sha256(trace.ids.tobytes()).hexdigest()
        assert digest == (
            "8582b8f63efb1f1600471e1a6328f3243dfee93bee9764861c3f17606f24ca15"
        )
        assert trace.ids.dtype == np.int32
        assert trace.offsets.tolist() == list(range(0, 310, 10))

    def test_snm_draws_follow_pulse_rates(self):
        # id 2 is live in slots 1..10 at rate 30/10, id 3 in 6..15 at
        # rate 10/10; slots 16..20 have no live SNM item and fall back
        cat = array_catalog([1.0] * 3, {2: (1, 10, 30.0), 3: (6, 10, 10.0)})
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
        # the catalog itself rejects an empty library
        with pytest.raises(EmptyLibrary):
            generate_trace(array_catalog([]), 10, 5, 0.5, 0.8, seed=1)


def pulse_catalog():
    """The hand-built catalog of test_snm_draws_follow_pulse_rates."""
    return array_catalog([1.0] * 3, {2: (1, 10, 30.0), 3: (6, 10, 10.0)})


def built(library_size, w_snm, horizon, seed=1):
    return build_catalog(
        CatalogConfig(library_size=library_size, w_snm=w_snm, horizon=horizon),
        seed=seed,
    )


def assert_same_trace(catalog, *args):
    trace = generate_trace(catalog, *args)
    expected = trace_reference.generate_trace(catalog, *args)
    assert trace.ids.dtype == expected.ids.dtype
    assert trace.ids.tobytes() == expected.ids.tobytes()
    assert trace.offsets.tolist() == expected.offsets.tolist()
    assert trace.stats == expected.stats
    assert trace.horizon == expected.horizon
    return trace


class TestBulkDraws:
    """generate_trace gives the per-slot generator's trace, array for array."""

    # (catalog, (horizon, R, w_snm, delta, seed), what the case must cover);
    # each built catalog's pulses end before the trace's horizon, so its
    # last slots fall back
    CASES = {
        "fallback": (lambda: built(24, 0.3, 40), (120, 100, 0.8, 0.8, 5), "fallback"),
        "several-chunks": (lambda: built(150, 0.8, 600), (600, 2000, 0.8, 0.8, 2), "chunks"),
        "r1-irm-only": (lambda: built(7, 0.5, 50), (60, 1, 0.0, 0.8, 3), None),
        "r1-snm-only": (lambda: built(7, 0.5, 50), (60, 1, 1.0, 0.8, 3), "fallback"),
        # no IRM content: IRM requests draw bounded integers
        "all-snm-half": (lambda: built(12, 1.0, 40), (120, 50, 0.5, 0.8, 4), "fallback"),
        "all-snm-full": (lambda: built(12, 1.0, 40), (120, 50, 1.0, 0.8, 4), "fallback"),
        "pulse-catalog": (pulse_catalog, (20, 200, 1.0, 0.8, 12), "fallback"),
        "pulse-catalog-mixed": (pulse_catalog, (20, 7, 0.6, 1.3, 9), "fallback"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_per_slot_draws(self, case):
        make_catalog, args, covers = self.CASES[case]
        trace = assert_same_trace(make_catalog(), *args)
        horizon, r = args[:2]
        if covers == "fallback":
            assert trace.stats.fallback_count > 0
        if covers == "chunks":
            assert horizon * 2 * r > 3 * CHUNK_DOUBLES

    @given(
        library_size=st.integers(2, 40),
        catalog_w_snm=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        catalog_horizon=st.integers(1, 30),
        horizon=st.integers(1, 40),
        r=st.integers(1, 60),
        w_snm=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        delta=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_slot_draws_anywhere(
        self, library_size, catalog_w_snm, catalog_horizon, horizon, r, w_snm,
        delta, seed,
    ):
        catalog = built(library_size, catalog_w_snm, catalog_horizon, seed=seed)
        assert_same_trace(catalog, horizon, r, w_snm, delta, seed)

    def test_memory_stays_near_the_ids(self):
        # no T x 2R array of uniforms: at R=2000 that alone is 18 MiB
        catalog = built(150, 0.8, 600)
        tracemalloc.start()
        try:
            trace = generate_trace(catalog, 600, 2000, 0.8, 0.8, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace.ids.nbytes + 4 * 2**20


class TestChoiceCdf:
    @pytest.mark.parametrize(
        "p, reason",
        [
            ([0.5, math.nan, 0.5], "NaN"),
            ([0.6, -0.1, 0.5], "non-negative"),
            ([0.5, 0.5 + 2e-8], "sum to"),
            ([0.5, 0.5 - 2e-8], "sum to"),
            ([0.5, math.inf], "sum to"),
        ],
    )
    def test_rejects_what_choice_rejects(self, p, reason):
        p = np.array(p)
        with pytest.raises(ValueError, match=reason):
            choice_cdf(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)

    def test_accepts_a_sum_within_tolerance(self):
        p = np.array([0.5, 0.5 + 1e-9])
        cdf = choice_cdf(p)
        assert cdf[-1] == 1.0
        np.random.default_rng(0).choice(2, p=p)


class TestGenerateTraceInputs:
    @pytest.mark.parametrize("w_snm", [1.5, math.nan, -0.2, math.inf])
    def test_rejects_w_snm(self, small_catalog, w_snm):
        with pytest.raises(ValueError, match="w_snm"):
            generate_trace(small_catalog, 10, 5, w_snm, 0.8, seed=1)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0])
    def test_rejects_delta(self, small_catalog, delta):
        with pytest.raises(ValueError, match="delta"):
            generate_trace(small_catalog, 10, 5, 0.5, delta, seed=1)

    @pytest.mark.parametrize("delta", [math.inf, -1.0])
    def test_rejects_delta_without_irm_content(self, delta):
        # an all-SNM catalog has no Zipf law for delta to reach
        catalog = built(12, 1.0, 40)
        assert len(catalog.irm_ids) == 0
        with pytest.raises(ValueError, match="delta"):
            generate_trace(catalog, 10, 5, 0.5, delta, seed=1)


class TestTraceIO:
    HORIZON = 10  # the run horizon the hand-written traces are read against

    def test_round_trip(self, small_catalog, tmp_path):
        trace = generate_trace(small_catalog, 20, 5, 0.5, 0.8, seed=8)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path, small_catalog, trace.horizon)
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
                load_trace(path, small_catalog, self.HORIZON)
            assert exc.value.line == line, rows

    def test_unknown_content(self, small_catalog, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("slot,content_id\n1,9999\n")
        with pytest.raises(UnknownContent):
            load_trace(path, small_catalog, self.HORIZON)

    def test_saved_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(RequestTrace.from_events(3, ((1, 4), (1, 12), (3, 7))), path)
        assert path.read_bytes() == b"slot,content_id\r\n1,4\r\n1,12\r\n3,7\r\n"

    @pytest.mark.parametrize(
        "rows, error, line",
        [
            ("1,2\n1,99\n1,3\n0,1\n", UnknownContent, 3),
            ("1,2\n0,1\n1,3\n1,99\n", TraceParseError, 3),
            ("1,2\n3,99\n2,1\n", UnknownContent, 3),
            ("3,2\n2,99\n", TraceParseError, 3),
            ("1,2\n0,1\nabc\n", TraceParseError, 3),
            ("1,2\n1,99\n1,2,7\n", UnknownContent, 3),
            ("1,2\n1,2,7\n1,99\n", TraceParseError, 3),
            ("1,2\n11,1\n1,99\n", TraceParseError, 3),  # past the horizon
            ("1,2\n1,99\n11,1\n", UnknownContent, 3),
            ("1,2\n1000000000000000,3\n", TraceParseError, 3),
        ],
    )
    def test_first_bad_row_wins(self, small_catalog, tmp_path, rows, error, line):
        path = tmp_path / "bad.csv"
        path.write_text("slot,content_id\n" + rows)
        with pytest.raises(error) as exc:
            load_trace(path, small_catalog, self.HORIZON)
        assert f"line {line}:" in str(exc.value)

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("1,2,7\n", 2),  # a third field
            ("1,2\n1\n", 3),  # a single field
            ("1,2\n\n1,3\n", 3),  # a blank line
            ("1,2\n1,3\n\n", 4),  # a trailing blank line
            ("1,2\n#1,3\n", 3),  # not a comment
            ('1,2\n"1",3\n', 3),  # a quoted field
            ("1,2\n 1,3\n", 3),  # a space
            ("1,2\n+1,3\n", 3),  # a plus sign
            ("1,2\n1,1_0\n", 3),  # a digit separator
            ("1,2\n1,99999999999999999999\n", 3),  # past int64
        ],
    )
    def test_rejects_malformed_row(self, small_catalog, tmp_path, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("slot,content_id\n" + rows)
        with pytest.raises(TraceParseError) as exc:
            load_trace(path, small_catalog, self.HORIZON)
        assert exc.value.line == line

    @pytest.mark.parametrize("text", ["", "slot,id\n1,2\n", "slot,content_id,x\n"])
    def test_bad_header(self, small_catalog, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(TraceParseError) as exc:
            load_trace(path, small_catalog, self.HORIZON)
        assert exc.value.line == 1

    def test_no_events(self, small_catalog, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("slot,content_id\n")
        with pytest.raises(TraceParseError) as exc:
            load_trace(path, small_catalog, self.HORIZON)
        assert exc.value.line == 2

    def test_accepts_lf_and_no_final_newline(self, small_catalog, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_text("slot,content_id\n1,2\n3,4")
        trace = load_trace(path, small_catalog, 3)
        assert trace.events == ((1, 2), (3, 4))
        assert trace.offsets.tolist() == [0, 1, 1, 2]

    @pytest.mark.parametrize(
        "body, line",
        [
            (b"1,2\r\r\n", 2),  # loadtxt would end the line at the first CR
            (b"1,2\n3,4\r\r\n5,6\n", 3),
            (b"1,2\r\n1,3\r5,6\r\n", 3),
            (b"1,2\r\n\r\n", 3),  # a blank CRLF line
            (b"1,2\r3,4\n\n", 2),  # a split row and a blank line: as many rows as lines
        ],
    )
    def test_rejects_stray_cr(self, small_catalog, tmp_path, body, line):
        # a row ends in LF or CRLF; any other CR is part of the row
        path = tmp_path / "bad.csv"
        path.write_bytes(b"slot,content_id\r\n" + body)
        with pytest.raises(TraceParseError) as exc:
            load_trace(path, small_catalog, self.HORIZON)
        assert exc.value.line == line

    def test_accepts_final_unterminated_cr(self, small_catalog, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"slot,content_id\r\n1,2\r\n3,4\r")
        trace = load_trace(path, small_catalog, 3)
        assert trace.ids.tolist() == [2, 4]
        assert trace.offsets.tolist() == [0, 1, 1, 2]

    @given(
        counts=st.lists(st.integers(0, 4), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_keeps_csr(self, small_catalog, counts, data):
        # a trace file needs a row; the slots after it may all be empty
        counts[0] += 1
        events = tuple(
            (slot, data.draw(st.integers(1, len(small_catalog.ids))))
            for slot, n in enumerate(counts, start=1)
            for _ in range(n)
        )
        trace = RequestTrace.from_events(len(counts), events)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            save_trace(trace, path)
            loaded = load_trace(path, small_catalog, trace.horizon)
        assert loaded.horizon == trace.horizon
        assert loaded.ids.dtype == np.int32
        assert loaded.ids.tolist() == trace.ids.tolist()
        assert loaded.offsets.tolist() == trace.offsets.tolist()


class TestTraceRows:
    def test_csr_matches_events(self):
        # slot 2 and the trailing slot 5 carry no event
        events = ((1, 4), (1, 2), (3, 7), (3, 7), (3, 1), (4, 9))
        trace = RequestTrace.from_events(5, events)
        assert trace.ids.dtype == np.int32
        assert not trace.ids.flags.writeable
        assert trace.ids.tolist() == [cid for _, cid in events]
        assert trace.offsets.tolist() == [0, 2, 2, 5, 6, 6]
        assert trace.events == events
        slots = [s.tolist() for s in trace.events_by_slot()]
        assert slots == [[4, 2], [], [7, 7, 1], [9], []]

    def test_events_share_one_int_per_slot(self, small_catalog):
        # slots past 256 are not CPython's cached small ints
        trace = generate_trace(small_catalog, 300, 3, 0.5, 0.8, seed=3)
        slots = [slot for slot, _ in trace.events]
        assert slots == [t for t in range(1, 301) for _ in range(3)]
        assert len({id(slot) for slot in slots[256 * 3:]}) == 300 - 256

    @pytest.mark.parametrize(
        "events",
        [((2, 1), (1, 1)), ((0, 1),), ((4, 1),)],
        ids=["unsorted", "below-1", "past-horizon"],
    )
    def test_bad_slots_rejected(self, events):
        with pytest.raises(ValueError):
            RequestTrace.from_events(3, events)

    def test_id_below_one_rejected(self):
        with pytest.raises(ValueError):
            RequestTrace.from_events(3, ((1, 0),))

    @pytest.mark.parametrize(
        "horizon, offsets",
        [
            # slot 1 is [1], slot 2 is [2]: id 3 lies in no slot
            (2, [0, 1, 2]),
            # the slots start past id 1
            (2, [1, 2, 3]),
            # the last slot runs past the ids
            (2, [0, 2, 4]),
            (2, [0, 3]),
            (2, [0, 1, 2, 3]),
            (2, [[0, 1, 3]]),
            # from 0 to 3, but slot 2 would end before it starts
            (2, [0, 4, 3]),
            (2, [0.0, 1.0, 3.0]),
            (-1, []),
        ],
        ids=[
            "short-of-the-ids", "not-from-0", "past-the-ids", "too-few", "too-many",
            "2-d", "decreasing", "float", "negative-horizon",
        ],
    )
    def test_offsets_must_span_the_ids(self, horizon, offsets):
        ids = np.array([1, 2, 3], np.int32)
        with pytest.raises(ValueError, match="offsets must be horizon \\+ 1 integers"):
            RequestTrace(horizon=horizon, ids=ids, offsets=np.array(offsets))

    @pytest.mark.parametrize(
        "ids",
        [np.array([1.0, 2.0, 3.0]), np.array([[1, 2, 3]], np.int32), [1, 2, 3]],
        ids=["float", "2-d", "list"],
    )
    def test_ids_must_be_a_1d_integer_array(self, ids):
        with pytest.raises(ValueError, match="1-D integer array"):
            RequestTrace(horizon=2, ids=ids, offsets=np.array([0, 1, 3]))

    def test_empty_trace_accepted(self):
        trace = RequestTrace(horizon=0, ids=np.zeros(0, np.int32), offsets=np.array([0]))
        assert trace.events == ()
