"""Request trace generation: Zipf draws for IRM, rate pulses for SNM.

All randomness goes through numpy's default_rng (PCG64), so a trace is
fully reproducible from (catalog, config, seed) on any platform.

A trace is drawn a chunk of slots at a time: one rng.random call gives
the uniforms that the per-slot calls rng.random(R) (the classes) and
rng.choice(ids, n, p) (the IRM, then the SNM contents) would read, 2R
per slot, since choice searches rng.random(n) in p's CDF. A catalog
with no IRM content is the exception; see generate_trace.
"""

from __future__ import annotations

import bisect
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .catalog import Catalog
from .errors import HybridCacheError, TraceParseError


def zipf_pmf(n: int, delta: float) -> np.ndarray:
    """Rank-based Zipf probabilities p[f] proportional to (f+1)^-delta.

    Index 0 is rank 1 (the most popular content).
    """
    if n < 1:
        raise HybridCacheError("zipf_pmf needs n >= 1")
    if not (math.isfinite(delta) and delta >= 0):
        raise HybridCacheError("delta must be finite and >= 0")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-delta)
    return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class RequestTrace:
    """A slotted request trace held as compressed sparse rows.

    ids is a read-only int32 array of content ids in event order; slot
    t's ids are ids[offsets[t - 1]:offsets[t]], so offsets has
    horizon + 1 integer entries, from 0 up to len(ids), never decreasing.
    fallback_count is the number of SNM draws that generate_trace served
    from IRM because no SNM item was live; a trace read from a file has
    None, since its ids cannot give that count back.
    """

    horizon: int
    ids: np.ndarray
    offsets: np.ndarray
    fallback_count: Optional[int] = None

    def __post_init__(self):
        ids, offsets = self.ids, np.asarray(self.offsets)
        if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
            raise HybridCacheError("trace ids must be a 1-D integer array")
        if not (self.horizon >= 0 and offsets.shape == (self.horizon + 1,)
                and offsets.dtype.kind in "iu" and offsets[0] == 0
                and offsets[-1] == len(ids) and (offsets[1:] >= offsets[:-1]).all()):
            raise HybridCacheError("trace offsets must be horizon + 1 integers rising "
                                   f"from 0 to the {len(ids)} ids, never decreasing")
        ids.flags.writeable = False

    @classmethod
    def from_events(cls, horizon: int, events) -> "RequestTrace":
        """Build a trace from (slot, content_id) pairs, slots ascending."""
        pairs = np.asarray(events, dtype=np.int64).reshape(-1, 2)
        slots, ids = pairs[:, 0], pairs[:, 1]
        if len(slots) and (slots[0] < 1 or slots[-1] > horizon):
            raise HybridCacheError(f"event slots must lie in [1, {horizon}]")
        if (slots[1:] < slots[:-1]).any():
            raise HybridCacheError("event slots must be non-decreasing")
        if (ids < 1).any():
            raise HybridCacheError("content ids must be >= 1")
        offsets = np.searchsorted(slots, np.arange(1, horizon + 2))
        return cls(horizon=horizon, ids=ids.astype(np.int32), offsets=offsets)

    @property
    def events(self) -> tuple:
        """The (slot, content_id) pairs in event order, built on each call."""
        counts = np.diff(self.offsets).tolist()
        # every event of a slot shares one int object for the slot
        slots = chain.from_iterable(map(repeat, range(1, self.horizon + 1), counts))
        return tuple(zip(slots, self.ids.tolist()))

    def events_by_slot(self) -> list:
        """Per-slot id arrays (views into ids), index t-1 for slot t."""
        return np.split(self.ids, self.offsets[1:-1])

    def chunk_bounds(self, id_space: int, cap: int):
        """Yield (start, stop) for successive chunks of the slots.

        A chunk is the slots start + 1 .. stop; it spans at most cap cells
        ((stop - start) * id_space) and holds at most cap events, and one
        slot at least.
        """
        bounds = self.offsets.tolist()
        most_rows = max(1, cap // id_space)
        start = 0
        while start < self.horizon:
            # the last slot index whose events end within cap events
            by_events = bisect.bisect_right(bounds, bounds[start] + cap) - 1
            stop = max(start + 1, min(start + most_rows, by_events))
            yield start, stop
            start = stop

    @cached_property
    def id_range(self) -> tuple:
        """(least id, greatest id) of the trace as ints; (1, 0) if it has no event."""
        if not len(self.ids):
            return 1, 0
        return int(self.ids.min()), int(self.ids.max())

    @cached_property
    def slot_counts(self) -> tuple:
        """Each slot's distinct requested ids and their request counts.

        Returns (starts, ids, counts): slot t requests the ascending ids
        ids[starts[t - 1]:starts[t]], counts[i] times the id ids[i].
        starts is int64 with horizon + 1 entries; ids and counts are
        int32. The arrays are read-only; built on first use and shared
        by every run over the trace.

        The trace is counted a chunk of slots at a time (chunk_bounds,
        at most CHUNK_CELLS cells and events): an event's key is its id
        plus its row in the chunk times the id space. _key_counts counts
        a chunk's keys by a bincount when the chunk has no more cells
        than events, else by a sort, so the cost goes by the events, not
        by the library size.
        """
        id_space = self.id_range[1] + 1
        offsets = self.offsets.tolist()
        none = np.zeros(0, dtype=np.int64)  # a trace may have no slot
        cells, counts = [none], [none]
        for start, stop in self.chunk_bounds(id_space, CHUNK_CELLS):
            rows = np.arange(0, (stop - start) * id_space, id_space, dtype=np.int32)
            # added in place: one chunk-sized array less at the memory peak
            keys = rows.repeat(np.diff(self.offsets[start:stop + 1]))
            keys += self.ids[offsets[start]:offsets[stop]]
            found, n = _key_counts(keys, len(rows) * id_space <= len(keys))
            cells.append(found + start * id_space)
            counts.append(n)
        # a cell is t - 1 times the id space plus the id, ascending
        cells = np.concatenate(cells)
        firsts = np.arange(0, (self.horizon + 1) * id_space, id_space)
        starts = cells.searchsorted(firsts)
        ids = cells - firsts[:-1].repeat(np.diff(starts))
        table = starts, ids.astype(np.int32), np.concatenate(counts).astype(np.int32)
        for array in table:
            array.flags.writeable = False
        return table

    @cached_property
    def ranked_count_sums(self) -> tuple:
        """Each slot's request counts in descending order, as running sums.

        Returns (starts, sums). Slot t has one sum per distinct id it
        requests, sums[starts[t - 1]:starts[t]], so the requests to its k
        most requested ids are sums[starts[t - 1] + k - 1]. Built on first
        use from slot_counts, whose starts it shares, and shared by every
        run over the trace: one sort of all the (slot, count) pairs, by
        slot, then count descending.
        """
        starts, _, counts = self.slot_counts
        per_slot = np.diff(starts)
        top = int(counts.max(initial=0)) + 1
        order = np.arange(self.horizon).repeat(per_slot) * top
        order += top - 1 - counts
        order.sort()
        sums = (top - 1 - order % top).cumsum()
        # restart the running sum at each slot's first id
        sums -= np.append(0, sums)[starts[:-1]].repeat(per_slot)
        return starts, sums


def _key_counts(keys: np.ndarray, binned: bool) -> tuple:
    """(distinct keys ascending, their counts) of non-negative int keys.

    If binned, one bincount tallies every value up to the largest key and
    its nonzero cells are read: the choice for keys that outnumber those
    values. Else the keys are sorted in place, so each run of one key is
    a distinct key and its length the count. Both return int64 arrays.
    """
    if binned:
        tally = np.bincount(keys)
        found = tally.nonzero()[0]
        return found, tally[found]
    keys.sort()
    # where a run of one key starts, and where the last one ends
    edges = np.empty(len(keys) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    edges = edges.nonzero()[0]
    return keys[edges[:-1]].astype(np.int64), np.diff(edges)


# the most tally cells, and the most events, of one chunk of slots (see
# RequestTrace.chunk_bounds)
CHUNK_CELLS = 2**16
# the most doubles one rng.random call draws (1 MiB); a chunk is as many
# whole slots as fit, and at least one
CHUNK_DOUBLES = 2**17
# Generator.choice's tolerance on the sum of its probabilities
_SUM_ATOL = np.sqrt(np.finfo(np.float64).eps)
# the buckets of a bucket table per CDF value, rounded up to a power of two
BUCKETS = 16


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that Generator.choice(a, size, p) searches its uniforms in.

    Raises HybridCacheError for the probabilities choice rejects: a NaN, a
    negative entry, or a sum off 1 by more than sqrt(float64 eps).
    """
    total = p.sum()
    if np.isnan(total):
        raise HybridCacheError("probabilities contain NaN")
    if (p < 0).any():
        raise HybridCacheError("probabilities must be non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise HybridCacheError(f"probabilities sum to {total!r}, not 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def bucket_table(cdf: np.ndarray) -> np.ndarray:
    """The guide table that search_cdf reads to answer most keys at once.

    [0, 1) is cut into m = BUCKETS * 2**ceil(log2 len(cdf)) equal
    buckets. Entry b is the number of CDF values <= b/m when no CDF value
    lies in [b/m, (b + 1)/m), which is then searchsorted's answer for
    every key in the bucket, and -1 otherwise (at most len(cdf) entries).
    Since m is a power of two, every edge b/m is exact.
    """
    m = BUCKETS << (len(cdf) - 1).bit_length()
    below = cdf.searchsorted(np.arange(m + 1) / m)
    return np.where(below[1:] == below[:-1], below[:-1], -1)


def search_cdf(cdf: np.ndarray, u: np.ndarray,
               table: Optional[np.ndarray] = None) -> np.ndarray:
    """cdf.searchsorted(u, side="right") for a 1-D array of keys in [0, 1).

    With cdf's bucket_table, a key's bucket is int(u * m), which is exact
    since m is a power of two, and only the keys in a -1 bucket are
    searched.
    """
    if table is None:
        return cdf.searchsorted(u, side="right")
    found = table[(u * len(table)).astype(np.intp)]
    missed = found < 0
    found[missed] = cdf.searchsorted(u[missed], side="right")
    return found


def _table_if_worth_it(cdf: np.ndarray, keys: int) -> Optional[np.ndarray]:
    """cdf's bucket_table if keys, the most keys it serves, are at least
    2 * BUCKETS per CDF value (about twice its buckets), else None."""
    return bucket_table(cdf) if keys >= 2 * BUCKETS * len(cdf) else None


def generate_trace(
    catalog: Catalog,
    horizon: int,
    requests_per_slot: int,
    w_snm: float,
    delta: float,
    seed: int,
) -> RequestTrace:
    """Generate a slotted request trace over the catalog.

    Each of the R requests in a slot is SNM with probability w_snm,
    IRM otherwise. IRM requests are i.i.d. Zipf over the IRM items;
    SNM requests are drawn from the currently active SNM items with
    probability proportional to their pulse rates; their CDF is rebuilt
    only when Catalog.active_snm_ids hands out a new live set, not once
    per slot. Slots with no active SNM item fall back to IRM draws
    (counted in the trace's fallback_count), so every slot carries
    exactly R events; a slot's IRM ids come first.

    The trace is the one that per-slot rng calls give: rng.random(R)
    for the classes, then rng.choice(ids, n, p) for the IRM and for the
    SNM requests. choice searches rng.random(n) in p's CDF with
    side="right", so every slot reads exactly 2R uniforms, and a chunk
    of slots draws its uniforms in one rng.random call and searches
    them itself (search_cdf). The Zipf CDF gets a bucket_table when
    horizon * R, the most keys it serves, is at least 2 * BUCKETS per
    CDF value, and a live set's CDF when R, the most keys of one slot,
    is; a table that serves fewer keys costs more to build than its
    lookups save. A catalog with no IRM content draws a slot's IRM
    requests uniformly over the library with rng.choice(ids, n), which
    reads bounded integers between the slot's class and SNM uniforms,
    so such a catalog draws one slot at a time in that order.
    """
    if horizon < 1 or requests_per_slot < 1:
        raise HybridCacheError("horizon and requests_per_slot must be >= 1")
    if not (math.isfinite(w_snm) and 0.0 <= w_snm <= 1.0):
        raise HybridCacheError("w_snm must lie in [0, 1]")
    if not (math.isfinite(delta) and delta >= 0):
        raise HybridCacheError("delta must be finite and >= 0")

    rng = np.random.default_rng(seed)
    r = requests_per_slot
    irm_ids = catalog.irm_ids
    zipf_cdf = choice_cdf(zipf_pmf(len(irm_ids), delta)) if len(irm_ids) else None
    if zipf_cdf is not None:
        zipf_table = _table_if_worth_it(zipf_cdf, horizon * r)
    # an SNM item's pulse rate is volume / lifespan inside its window, by id
    rates_by_id = np.zeros(catalog.id_space)
    rates_by_id[catalog.snm_ids] = catalog.snm_volume / (
        catalog.snm_expiry - catalog.snm_arrival
    )
    # live SNM items per slot: those arrived by t less those expired by t
    slots = np.arange(1, horizon + 1)
    arrival = catalog.snm_arrival[catalog.snm_arrival_order]
    expiry = catalog.snm_expiry[catalog.snm_expiry_order]
    live = arrival.searchsorted(slots, side="right") - expiry.searchsorted(slots, side="right")

    ids = np.empty((horizon, r), dtype=np.int32)
    rows = max(1, CHUNK_DOUBLES // (2 * r)) if zipf_cdf is not None else 1
    position = np.arange(r)
    fallback = 0
    live_ids = None  # the live SNM ids that cdf was built for
    for start in range(0, horizon, rows):
        stop = min(start + rows, horizon)
        block = ids[start:stop]
        if zipf_cdf is not None:
            # each row: a slot's class uniforms, then its content uniforms
            u = rng.random((stop - start, 2 * r))
        else:
            # one slot: its IRM draws come between these and its SNM uniforms
            u = np.empty((1, 2 * r))
            u[0, :r] = rng.random(r)
        n_snm = (u[:, :r] < w_snm).sum(axis=1)
        empty = live[start:stop] == 0
        fallback += int(n_snm[empty].sum())
        n_snm[empty] = 0
        n_irm = r - n_snm
        if zipf_cdf is not None:
            irm = position < n_irm[:, None]
            block[irm] = irm_ids[search_cdf(zipf_cdf, u[:, r:][irm], zipf_table)]
        else:
            if n_irm[0]:
                block[0, :n_irm[0]] = rng.choice(catalog.ids, size=n_irm[0])
            u[0, r + n_irm[0]:] = rng.random(n_snm[0])
        for i in np.flatnonzero(n_snm).tolist():
            active = catalog.active_snm_ids(start + i + 1)
            if active is not live_ids:
                live_ids, rates = active, rates_by_id[active]
                cdf = choice_cdf(rates / rates.sum())
                table = _table_if_worth_it(cdf, r)
            k = n_irm[i]
            block[i, k:] = live_ids[search_cdf(cdf, u[i, r + k:], table)]

    return RequestTrace(
        horizon=horizon,
        ids=ids.reshape(-1),
        # every slot carries exactly R events
        offsets=np.arange(0, (horizon + 1) * r, r),
        fallback_count=fallback,
    )


TRACE_HEADER = "slot,content_id"
# a body row: two decimal integers; their int64 range is checked apart
_ROW = re.compile(rb"(-?[0-9]+),(-?[0-9]+)")
_INT64 = range(-(2**63), 2**63)


def save_trace(trace: RequestTrace, path) -> None:
    """Write the header and `slot,content_id` rows with CRLF line ends.

    These are the bytes csv.writer writes; each slot's rows are joined
    from a per-id table of row tails.
    """
    top = trace.id_range[1]
    cells = np.array([f",{cid}\r\n" for cid in range(top + 1)], dtype=object)
    rows = cells[trace.ids].tolist()
    offsets = trace.offsets.tolist()
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + "\r\n")
        for slot in range(1, trace.horizon + 1):
            start, end = offsets[slot - 1], offsets[slot]
            if start < end:
                # "t" + "t".join([",a\r\n", ",b\r\n"]) == "t,a\r\nt,b\r\n"
                prefix = str(slot)
                fh.write(prefix + prefix.join(rows[start:end]))


def _read_rows(path, body: bytes):
    """The body's (slot, id) rows as an (n, 2) int64 array.

    Also returns the line number of the first malformed row (None if
    every row is well formed); the array then holds the rows before it.
    A row ends in LF or CRLF and is malformed unless it is two decimal
    int64 values joined by a comma: a blank line, a third field or a
    quoted field is malformed. Rows are parsed by loadtxt; the row-by-row
    scan below runs only when loadtxt declines, to find the bad line.
    """
    # the scans run a MiB at a time, so no body-sized mask is built
    octets = np.frombuffer(body, dtype=np.uint8)
    n_lines = int(sum(
        np.count_nonzero(octets[i:i + 2**20] == ord("\n"))
        for i in range(0, len(octets), 2**20)
    )) + (not body.endswith(b"\n"))
    # loadtxt skips blank lines, allows spaces and signs and ends a line
    # at a lone CR, so it parses only a body made of the characters of
    # well-formed rows whose every CR ends a line (a final one may end
    # the file), and its rows are checked against the line count
    before, after = octets[:-1], octets[1:]
    lone_cr = any(
        ((before[i:i + 2**20] == ord("\r")) & (after[i:i + 2**20] != ord("\n"))).any()
        for i in range(0, len(before), 2**20)
    )
    if not lone_cr and not body.translate(None, b"0123456789,-\r\n"):
        try:
            with warnings.catch_warnings():
                # a body of blank lines is "no data" to loadtxt
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    path, delimiter=",", dtype=np.int64, comments=None,
                    skiprows=1, ndmin=2,
                )
        except ValueError:
            pass
        else:
            if rows.shape == (n_lines, 2):
                return rows, None
    rows = []
    for line in body.split(b"\n", n_lines)[:n_lines]:
        m = _ROW.fullmatch(line.removesuffix(b"\r"))
        row = m and tuple(map(int, m.groups()))
        if not row or not all(v in _INT64 for v in row):
            return np.array(rows, dtype=np.int64).reshape(-1, 2), len(rows) + 2
        rows.append(row)
    return np.array(rows, dtype=np.int64), None


def load_trace(path, catalog: Catalog, horizon: int) -> RequestTrace:
    """Load a trace CSV of a run over the given horizon.

    Every id must be in the catalog, and slots must lie in [1, horizon]
    and be non-decreasing from row to row. The trace spans the horizon,
    so slots after the last row are kept as empty slots. Errors name
    the 1-based line of the first bad row in file order.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    if header.removesuffix(b"\n").removesuffix(b"\r") != TRACE_HEADER.encode():
        raise TraceParseError("bad trace header", line=1)
    if not body:
        raise TraceParseError("no events", line=2)
    rows, malformed = _read_rows(path, body)
    slots, ids = rows[:, 0], rows[:, 1]
    bad = (slots < 1) | (slots > horizon)
    bad |= (ids < 1) | (ids >= catalog.id_space)
    bad[1:] |= slots[1:] < slots[:-1]
    if bad.any():
        row = int(bad.argmax())
        lineno = row + 2
        slot, cid = int(slots[row]), int(ids[row])
        if slot < 1:
            raise TraceParseError(f"slot {slot} is below 1", line=lineno)
        if slot > horizon:
            raise TraceParseError(
                f"slot {slot} is past the horizon {horizon}", line=lineno
            )
        if row and slot < slots[row - 1]:
            raise TraceParseError(
                f"slot {slot} follows slot {slots[row - 1]}", line=lineno
            )
        raise TraceParseError(f"content id {cid} not in catalog", line=lineno)
    if malformed is not None:
        raise TraceParseError("a row must be two integers: slot,content_id",
                              line=malformed)
    return RequestTrace.from_events(horizon, rows)
