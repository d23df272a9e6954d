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

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .catalog import Catalog
from .errors import BadUniform, EmptyLibrary, TraceParseError, UnknownContent


def zipf_pmf(n: int, delta: float) -> np.ndarray:
    """Rank-based Zipf probabilities p[f] proportional to (f+1)^-delta.

    Index 0 is rank 1 (the most popular content).
    """
    if n < 1:
        raise EmptyLibrary("zipf_pmf needs n >= 1")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError("delta must be finite and >= 0")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-delta)
    return weights / weights.sum()


@dataclass(frozen=True)
class ParetoVolume:
    """Pareto law for SNM total request volumes: shape beta, scale n_min."""

    beta: float
    n_min: float

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must exceed 1 (finite mean)")
        if self.n_min <= 0:
            raise ValueError("n_min must be positive")


def sample_pareto_volume(model: ParetoVolume, u: float) -> float:
    """Inverse-CDF draw: v = n_min * (1 - u)^(-1/beta), v >= n_min."""
    if not (0.0 <= u < 1.0):
        raise BadUniform(f"u={u} outside [0, 1)")
    return model.n_min * (1.0 - u) ** (-1.0 / model.beta)


@dataclass(frozen=True)
class TraceStats:
    """Generation-side bookkeeping, most notably the IRM fallback count."""

    total_requests: int
    snm_intended: int
    snm_served: int
    fallback_count: int

    @property
    def snm_share(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.snm_served / self.total_requests


@dataclass(frozen=True, eq=False)
class RequestTrace:
    """A slotted request trace held as compressed sparse rows.

    ids is a read-only int32 array of content ids in event order; slot
    t's ids are ids[offsets[t - 1]:offsets[t]], so offsets has
    horizon + 1 integer entries, from 0 up to len(ids), never decreasing.
    """

    horizon: int
    ids: np.ndarray
    offsets: np.ndarray
    stats: Optional[TraceStats] = None

    def __post_init__(self):
        ids, offsets = self.ids, np.asarray(self.offsets)
        if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
            raise ValueError("trace ids must be a 1-D integer array")
        if not (self.horizon >= 0 and offsets.shape == (self.horizon + 1,)
                and offsets.dtype.kind in "iu" and offsets[0] == 0
                and offsets[-1] == len(ids) and (offsets[1:] >= offsets[:-1]).all()):
            raise ValueError("trace offsets must be horizon + 1 integers rising "
                             f"from 0 to the {len(ids)} ids, never decreasing")
        ids.flags.writeable = False

    @classmethod
    def from_events(cls, horizon: int, events) -> "RequestTrace":
        """Build a trace from (slot, content_id) pairs, slots ascending."""
        pairs = np.asarray(events, dtype=np.int64).reshape(-1, 2)
        slots, ids = pairs[:, 0], pairs[:, 1]
        if len(slots) and (slots[0] < 1 or slots[-1] > horizon):
            raise ValueError(f"event slots must lie in [1, {horizon}]")
        if (slots[1:] < slots[:-1]).any():
            raise ValueError("event slots must be non-decreasing")
        if (ids < 1).any():
            raise ValueError("content ids must be >= 1")
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

    @cached_property
    def ranked_count_sums(self) -> tuple:
        """Each slot's request counts in descending order, as running sums.

        Returns (starts, sums). Slot t has one sum per distinct id it
        requests, sums[starts[t - 1]:starts[t]], so the requests to its k
        most requested ids are sums[starts[t - 1] + k - 1]. Built on first
        use and shared by every run over the trace.
        """
        per_slot = []
        for slot_ids in self.events_by_slot():
            counts = np.bincount(slot_ids)
            per_slot.append(np.sort(counts[counts > 0])[::-1].cumsum())
        starts = np.zeros(self.horizon + 1, dtype=np.int64)
        np.cumsum([len(s) for s in per_slot], out=starts[1:])
        return starts, np.concatenate(per_slot)


# the most doubles one rng.random call draws (1 MiB); a chunk is as many
# whole slots as fit, and at least one
CHUNK_DOUBLES = 2**17
# Generator.choice's tolerance on the sum of its probabilities
_SUM_ATOL = np.sqrt(np.finfo(np.float64).eps)


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that Generator.choice(a, size, p) searches its uniforms in.

    Raises ValueError for the probabilities choice rejects: a NaN, a
    negative entry, or a sum off 1 by more than sqrt(float64 eps).
    """
    total = p.sum()
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities must be non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


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
    probability proportional to their pulse rates. Slots with no
    active SNM item fall back to IRM draws (counted in the stats), so
    every slot carries exactly R events; a slot's IRM ids come first.

    The trace is the one that per-slot rng calls give: rng.random(R)
    for the classes, then rng.choice(ids, n, p) for the IRM and for the
    SNM requests. choice searches rng.random(n) in p's CDF with
    side="right", so every slot reads exactly 2R uniforms, and a chunk
    of slots draws its uniforms in one rng.random call and searches
    them itself. A catalog with no IRM content draws a slot's IRM
    requests uniformly over the library with rng.choice(ids, n), which
    reads bounded integers between the slot's class and SNM uniforms,
    so such a catalog draws one slot at a time in that order.
    """
    if horizon < 1 or requests_per_slot < 1:
        raise ValueError("horizon and requests_per_slot must be >= 1")
    if not (math.isfinite(w_snm) and 0.0 <= w_snm <= 1.0):
        raise ValueError("w_snm must lie in [0, 1]")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError("delta must be finite and >= 0")

    rng = np.random.default_rng(seed)
    r = requests_per_slot
    irm_ids, snm_ids = catalog.irm_ids, catalog.snm_ids
    zipf_cdf = choice_cdf(zipf_pmf(len(irm_ids), delta)) if len(irm_ids) else None
    # an SNM item's pulse rate is volume / lifespan inside its window
    snm_rates = catalog.snm_volume / (catalog.snm_expiry - catalog.snm_arrival)
    # live SNM items per slot: those arrived by t less those expired by t
    slots = np.arange(1, horizon + 1)
    live = np.searchsorted(np.sort(catalog.snm_arrival), slots, side="right")
    live -= np.searchsorted(np.sort(catalog.snm_expiry), slots, side="right")

    ids = np.empty((horizon, r), dtype=np.int32)
    rows = max(1, CHUNK_DOUBLES // (2 * r)) if zipf_cdf is not None else 1
    position = np.arange(r)
    snm_intended = 0
    fallback = 0
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
        snm_intended += int(n_snm.sum())
        empty = live[start:stop] == 0
        fallback += int(n_snm[empty].sum())
        n_snm[empty] = 0
        n_irm = r - n_snm
        if zipf_cdf is not None:
            irm = position < n_irm[:, None]
            block[irm] = irm_ids[zipf_cdf.searchsorted(u[:, r:][irm], side="right")]
        else:
            if n_irm[0]:
                block[0, :n_irm[0]] = rng.choice(catalog.ids, size=n_irm[0])
            u[0, r + n_irm[0]:] = rng.random(n_snm[0])
        for i in np.flatnonzero(n_snm):
            active = catalog.snm_active_mask(start + i + 1)
            rates = snm_rates[active]
            cdf = choice_cdf(rates / rates.sum())
            k = n_irm[i]
            block[i, k:] = snm_ids[active][cdf.searchsorted(u[i, r + k:], side="right")]

    stats = TraceStats(
        total_requests=horizon * r,
        snm_intended=snm_intended,
        snm_served=snm_intended - fallback,
        fallback_count=fallback,
    )
    return RequestTrace(
        horizon=horizon,
        ids=ids.reshape(-1),
        # every slot carries exactly R events
        offsets=np.arange(0, (horizon + 1) * r, r),
        stats=stats,
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
    top = int(trace.ids.max(initial=0))
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
    n_lines = body.count(b"\n") + (not body.endswith(b"\n"))
    # loadtxt skips blank lines, allows spaces and signs and ends a line
    # at a lone CR, so it parses only a body made of the characters of
    # well-formed rows whose every CR ends a line (a final one may end
    # the file), and its rows are checked against the line count
    octets = np.frombuffer(body, dtype=np.uint8)
    before, after = octets[:-1], octets[1:]
    lone_cr = any(  # a MiB at a time, so no body-sized mask is built
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
        raise UnknownContent(f"line {lineno}: content id {cid} not in catalog")
    if malformed is not None:
        raise TraceParseError("a row must be two integers: slot,content_id",
                              line=malformed)
    return RequestTrace.from_events(horizon, rows)
