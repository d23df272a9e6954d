"""Content catalog: per-content arrays, features and the IRM/SNM split.

The library is partitioned into static-popularity (IRM) content and
temporary (SNM) content, whose requests come in one rectangular pulse
as in the shot-noise model. Each content carries a normalized feature
vector (size, bandwidth, value, category weight) that the hybrid
policy folds into its exploration bonus.
"""

from __future__ import annotations

import bisect
import csv
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .errors import HybridCacheError, TraceParseError

# Whether a larger value of each feature column helps caching (benefit)
# or hurts it (cost): size and transmission bandwidth are costs (smaller
# content frees room for more items), content value and category weight
# are benefits.
FEATURE_BENEFIT = (False, False, True, True)
# the least feature influence, which keeps the UCB exploration bonus
# strictly positive even for the worst-featured content
INFLUENCE_FLOOR = 0.01

# The fixed generation laws of every content. Each content has size 1.
# Its raw size, bandwidth and value features are uniform over the first
# three ranges and its category weight is a uniform choice among
# CATEGORY_WEIGHTS; each feature is then normalized by its range. An SNM
# content's lifespan is uniform on LIFESPAN_RANGE, both ends included.
FEATURE_RANGES = ((1.0, 100.0), (1.0, 50.0), (0.0, 1.0), (0.0, 1.0))
CATEGORY_WEIGHTS = (0.2, 0.4, 0.6, 0.8, 1.0)
LIFESPAN_RANGE = (20, 80)


CatalogRow = namedtuple("CatalogRow", "id size")


def _frozen(values, dtype=None) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


_INT64_MAX = np.iinfo(np.int64).max


def _whole(name: str, values) -> np.ndarray:
    """values as an array, each checked to be a whole number in the int64 range.

    The int64 cast would truncate a fraction, turn a NaN or an infinity
    into an arbitrary number and wrap a number outside its range.
    """
    values = np.asarray(values)
    if values.dtype.kind == "i":
        return values
    if values.dtype.kind == "u":
        outside = values > _INT64_MAX
    else:
        as_float = values.astype(float)
        bad = ~np.isfinite(as_float) | (as_float != np.trunc(as_float))
        if bad.any():
            raise HybridCacheError(
                f"content {int(bad.argmax()) + 1}: {name} must be a whole number"
            )
        # -2**63 and 2**63 are exact in float64; the int64 range is [-2**63, 2**63)
        outside = (as_float < -(2.0**63)) | (as_float >= 2.0**63)
    if outside.any():
        raise HybridCacheError(
            f"content {int(outside.argmax()) + 1}: {name} must lie in the int64 range"
        )
    return values


def _row_checks(sizes, features, snm, arrival, lifespan, volume) -> tuple:
    """(bad-row mask, message) for each check a content must pass."""
    return (
        (~(np.isfinite(sizes) & (sizes > 0)), "size must be positive and finite"),
        (~((features >= 0) & (features <= 1)).all(axis=1),
         "features must lie in [0, 1]"),
        (snm & (arrival < 1), "arrival must be >= 1"),
        (snm & (lifespan < 1), "lifespan must be >= 1"),
        # the window end arrival + lifespan is an int64, which would wrap
        (snm & (lifespan > _INT64_MAX - np.maximum(arrival, 0)),
         "arrival + lifespan must not exceed 2**63 - 1"),
        (snm & ~(np.isfinite(volume) & (volume > 0)),
         "volume must be positive and finite"),
        (~snm & ((arrival != 0) | (lifespan != 0) | (volume != 0)),
         "an IRM content has no arrival, lifespan or volume"),
    )


# the fields a Catalog is made from, and their dtypes
_FIELDS = dict(sizes=float, features=float, snm=bool,
               arrival=np.int64, lifespan=np.int64, volume=float)


@dataclass(frozen=True, eq=False)
class Catalog:
    """The content library as read-only arrays in id order.

    Ids are 1..F, and position id - 1 of each array holds that id's
    entry. features is F x 4, in the column order of CATALOG_HEADER.
    snm marks the SNM contents; an SNM content's requests come from slot
    arrival on, for lifespan slots, volume requests in all. arrival,
    lifespan and volume are 0 on IRM rows. The arrays after them are
    derived from them on construction.
    """

    sizes: np.ndarray
    features: np.ndarray
    snm: np.ndarray
    arrival: np.ndarray
    lifespan: np.ndarray
    volume: np.ndarray
    id_space: int = field(init=False)  # F + 1, the length of an id-indexed array
    ids: np.ndarray = field(init=False)  # 1..F
    snm_by_id: np.ndarray = field(init=False)  # snm indexed by id; [0] is False
    irm_ids: np.ndarray = field(init=False)  # ascending; position = Zipf rank
    snm_ids: np.ndarray = field(init=False)  # ascending; snm_* follow this order
    snm_arrival: np.ndarray = field(init=False)
    snm_expiry: np.ndarray = field(init=False)  # arrival + lifespan
    snm_volume: np.ndarray = field(init=False)
    snm_features: np.ndarray = field(init=False)
    # ascending, distinct: each slot where an SNM item arrives or expires
    snm_changes: tuple = field(init=False)
    # positions in the snm_* arrays by arrival and by expiry, both stable sorts
    snm_arrival_order: np.ndarray = field(init=False)
    snm_expiry_order: np.ndarray = field(init=False)
    # [k]: the arrivals and the expiries at or before the first slot of span k,
    # where span k starts at snm_changes[k - 1] and span 0 comes before them all
    _edges: tuple = field(init=False, repr=False)
    # (first, stop, ids, span, mask): active_snm_ids' result over the slots
    # first..stop - 1, the index of that span and its live set as an id mask
    _live: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name, dtype in _FIELDS.items():
            values = getattr(self, name)
            if dtype is np.int64:
                values = _whole(name, values)
            object.__setattr__(self, name, _frozen(values, dtype))
        n, snm = self.sizes.size, self.snm
        if n == 0:
            raise HybridCacheError("catalog is empty")
        for name in _FIELDS:
            shape = (n, len(FEATURE_BENEFIT)) if name == "features" else (n,)
            if getattr(self, name).shape != shape:
                raise HybridCacheError(f"{name} must have shape {shape}")
        for bad, message in _row_checks(*(getattr(self, f) for f in _FIELDS)):
            if bad.any():
                raise HybridCacheError(f"content {int(bad.argmax()) + 1}: {message}")
        ids = np.arange(1, n + 1)
        derived = {
            "ids": ids,
            "snm_by_id": np.append(False, snm),
            "irm_ids": ids[~snm],
            "snm_ids": ids[snm],
            "snm_arrival": self.arrival[snm],
            "snm_expiry": (self.arrival + self.lifespan)[snm],
            "snm_volume": self.volume[snm],
            "snm_features": self.features[snm],
        }
        changes = np.concatenate((derived["snm_arrival"], derived["snm_expiry"]))
        changes.sort()
        distinct = np.ones(len(changes), dtype=bool)
        distinct[1:] = changes[1:] != changes[:-1]
        changes = changes[distinct]
        edges = []
        for name in ("arrival", "expiry"):
            slots = derived[f"snm_{name}"]
            order = derived[f"snm_{name}_order"] = np.argsort(slots, kind="stable")
            edges.append(_frozen(np.append(0, slots[order].searchsorted(changes, "right"))))
        for name, values in derived.items():
            object.__setattr__(self, name, _frozen(values))
        object.__setattr__(self, "snm_changes", tuple(changes.tolist()))
        object.__setattr__(self, "_edges", tuple(edges))
        object.__setattr__(self, "_live", (0, 0, None, None, None))
        object.__setattr__(self, "id_space", n + 1)

    @property
    def items(self) -> tuple:
        """(id, size) rows in id order, derived from the arrays.

        perfbench/checks.py reads them; the simulator reads the arrays.
        """
        return tuple(map(CatalogRow, self.ids.tolist(), self.sizes.tolist()))

    def active_snm_ids(self, slot: int) -> np.ndarray:
        """Ids of the SNM items live at the slot: a read-only array, ascending.

        An item is live inside the half-open window [arrival, arrival + lifespan).
        The live set changes only at a slot in snm_changes, so every slot of
        the span between two of them gets the same array, and the set is
        recomputed only when slot leaves the span last served. A move to a
        later span applies the arrivals, then the expiries, between the two
        spans to the kept id mask, so an item that both arrives and expires
        in between ends up not live. The first call and a move to an earlier
        span restart from span 0, before every change, where nothing is live.
        """
        first, stop, ids, span, mask = self._live
        if not first <= slot < stop:
            changes = self.snm_changes
            i = bisect.bisect_right(changes, slot)
            first = changes[i - 1] if i else -math.inf
            stop = changes[i] if i < len(changes) else math.inf
            if span is None or i < span:
                mask, span = np.zeros(self.id_space, dtype=bool), 0
            arrived, expired = self._edges
            snm_ids = self.snm_ids
            mask[snm_ids[self.snm_arrival_order[arrived[span]:arrived[i]]]] = True
            mask[snm_ids[self.snm_expiry_order[expired[span]:expired[i]]]] = False
            ids = mask.nonzero()[0]
            ids.flags.writeable = False
            object.__setattr__(self, "_live", (first, stop, ids, i, mask))
        return ids


def normalize_features(raw: np.ndarray, ranges: Sequence[tuple]) -> np.ndarray:
    """Map each column of a raw feature matrix onto [0, 1] by its range.

    Column j is mapped linearly from ranges[j] = (lo, hi); values outside
    a range are clamped, as min(1.0, max(0.0, x)) clamps a float.
    """
    lo, hi = np.array(ranges, dtype=float).T
    if (hi <= lo).any():
        raise HybridCacheError(f"a range in {ranges} has max <= min")
    unit = (raw - lo) / (hi - lo)
    unit = np.where(unit > 0.0, unit, 0.0)
    return np.where(unit < 1.0, unit, 1.0)


def feature_influences(features: np.ndarray) -> np.ndarray:
    """Collapse each row of a normalized feature matrix into a scalar in (0, 1].

    A cost column contributes 1 - x (cheap content scores high), a
    benefit column x; the row's mean is floored at INFLUENCE_FLOOR. The
    columns are added in order onto zeros, so each entry is the sum a
    scalar loop over the row would give, bit for bit.
    """
    total = np.zeros(len(features))
    for x, benefit in zip(features.T, FEATURE_BENEFIT):
        total += x if benefit else 1.0 - x
    return np.maximum(INFLUENCE_FLOOR, total / len(FEATURE_BENEFIT))


@dataclass(frozen=True)
class CatalogConfig:
    """The settings of a synthetic catalog; its other laws are fixed above."""

    library_size: int = 150
    w_snm: float = 0.8
    horizon: int = 600
    pareto_beta: float = 2.0
    pareto_n_min: float = 1.0


@dataclass(frozen=True)
class ParetoVolume:
    """Pareto law for SNM total request volumes: shape beta, scale n_min."""

    beta: float
    n_min: float

    def __post_init__(self):
        if self.beta <= 1:
            raise HybridCacheError("beta must exceed 1 (finite mean)")
        if self.n_min <= 0:
            raise HybridCacheError("n_min must be positive")


def sample_pareto_volume(model: ParetoVolume, u: float) -> float:
    """Inverse-CDF draw: v = n_min * (1 - u)^(-1/beta), v >= n_min."""
    if not (0.0 <= u < 1.0):
        raise HybridCacheError(f"u={u} outside [0, 1)")
    return model.n_min * (1.0 - u) ** (-1.0 / model.beta)


def _arrival_span(horizon) -> int:
    """The span of the arrival law on 1..horizon, which must lie in 1..2**32.

    horizon must be a whole number: int() raises first for a NaN
    (ValueError) or an infinity (OverflowError), as numpy's integers()
    does. numpy draws a span above 2**32 from whole 64-bit words, which
    the catalog's draw plan does not read.
    """
    # ValueError, not HybridCacheError: the checks raise the classes that
    # numpy's integers() raises, as the per-content reference builder
    # does, and the CLI's validate rejects such a horizon before a build
    span = int(horizon)
    if span != horizon:
        raise ValueError("horizon must be a whole number")
    if span < 1:
        raise ValueError("horizon must be >= 1")
    if span > 2**32:
        raise ValueError("horizon spans more than 2**32 values")
    return span


def _stream_draws(bit_generator, bounded: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """What a plan of scalar Generator draws reads, from one block of raw words.

    The plan lists the draws in call order: a double where bounded is
    False, else a bounded integer of span spans[i] in 2..2**32. PCG64
    gives a double from one whole 64-bit word w, as (w >> 11) * 2**-53.
    A bounded draw reads a buffered 32-bit value u: the low half of a
    fresh word, then at the next bounded draw the high half of that word,
    whatever doubles come between. It returns (u * s) >> 32 unless
    Lemire's test (u * s) mod 2**32 < (2**32 - s) mod s rejects u; then
    it reads the next 32-bit value. Returns, per draw, the word a double
    reads or the offset a bounded draw returns, as uint64.
    """
    n = len(bounded)
    spans = spans.astype(np.uint64)
    thresholds = (2**32 - spans) % spans
    reads = bounded.astype(np.int64)  # the 32-bit values each draw reads
    doubles = ~bounded
    n_doubles = int(doubles.sum())
    words = bit_generator.random_raw(n_doubles + (n - n_doubles + 1) // 2)
    out = np.empty(n, dtype=np.uint64)
    # the stream before draw `start`: 32-bit values read, doubles read,
    # and the word whose high half is buffered when the values are odd
    start, size, values_before, doubles_before, buffered = 0, n, 0, 0, -1
    # A rejection shifts every later read, so a pass derives the draws
    # up to the first one and the next pass resumes there with a retry;
    # each pass spans twice the run of draws the last one kept.
    while start < n:
        stop = min(start + size, n)
        r, is_double = reads[start:stop], doubles[start:stop]
        values = values_before + np.cumsum(r) - r
        n_dbl = doubles_before + np.cumsum(is_double) - is_double
        # a double reads the word after those its predecessors opened
        word = n_dbl + (values + 1) // 2
        at = np.flatnonzero(~is_double)
        last = values[at] + r[at] - 1  # the value that gives the result
        opened = n_dbl[at] + last // 2
        carried = np.append(buffered, opened[:-1])
        # an odd value in a draw's first read is the previous draw's high half
        odd = last % 2 == 1
        word[at] = np.where(odd & (r[at] == 1), carried, opened)
        short = int(word.max()) + 1 - len(words)
        if short > 0:  # only retries read past the block
            words = np.append(words, bit_generator.random_raw(short + len(words) // 8))
        w = words[word]
        u = np.where(odd, w[at] >> 32, w[at] & 0xFFFFFFFF)
        scaled = u * spans[start:stop][at]
        w[at] = scaled >> 32
        rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < thresholds[start:stop][at])
        if rejected.size:
            j = rejected[0]
            keep = at[j]
            out[start:start + keep] = w[:keep]
            reads[start + keep] += 1
            values_before, doubles_before = int(values[keep]), int(n_dbl[keep])
            buffered = int(carried[j])
            start, size = start + keep, 2 * keep + 64
        else:
            out[start:stop] = w
            values_before = int(values[-1] + r[-1])
            doubles_before = int(n_dbl[-1] + is_double[-1])
            buffered = int(opened[-1]) if at.size else buffered
            start, size = stop, 2 * size
    return out


# The draws of one content, in the order the generation laws read the
# stream: size, bandwidth and value uniforms and a category index, then,
# for an SNM content only, an arrival, a lifespan and a volume uniform.
_BOUNDED_DRAW = np.array([False, False, False, True, True, True, False])
_CATEGORY, _ARRIVAL, _LIFESPAN, _VOLUME = 3, 4, 5, 6


def build_catalog(config: CatalogConfig, seed: int) -> Catalog:
    """Build a deterministic synthetic catalog from its settings and fixed laws.

    Ids 1..N_I are IRM (id order defines the Zipf rank); ids
    N_I+1..F are SNM with arrival slots uniform on [1, horizon],
    lifespans uniform on LIFESPAN_RANGE and Pareto volumes.

    The catalog is the one that per-content rng calls give: for each
    content in id order, rng.uniform for size, bandwidth and value, and
    rng.integers(0, K) to pick one of the K category weights; then, for
    an SNM content, rng.integers(1, horizon + 1), rng.integers(lo, hi,
    endpoint=True) and rng.random() for its Pareto volume. Each of
    those calls reads a fixed slice of the PCG64 stream (see
    _stream_draws), so one block of raw words gives every value, bit
    for bit; a span of 1 (horizon 1) reads nothing. The horizon is
    checked only where a content draws from it, with the error class
    its rng call raises; a fractional horizon, which numpy would
    truncate, raises ValueError.
    """
    if config.library_size < 2:
        raise HybridCacheError(f"library_size={config.library_size} < 2")
    if not (0.0 <= config.w_snm <= 1.0):
        raise HybridCacheError("w_snm must lie in [0, 1]")

    n = config.library_size
    n_irm = n - round(config.w_snm * n)
    volume_law = ParetoVolume(beta=config.pareto_beta, n_min=config.pareto_n_min)
    # each bounded draw's low bound and span
    lows = np.zeros(len(_BOUNDED_DRAW), dtype=np.int64)
    spans = np.ones(len(_BOUNDED_DRAW), dtype=np.int64)
    lows[_ARRIVAL], lows[_LIFESPAN] = 1, LIFESPAN_RANGE[0]
    spans[_CATEGORY] = len(CATEGORY_WEIGHTS)
    spans[_LIFESPAN] = LIFESPAN_RANGE[1] - LIFESPAN_RANGE[0] + 1
    # which draws each content makes, in call order
    plan = np.zeros((n, len(_BOUNDED_DRAW)), dtype=bool)
    plan[:, :_ARRIVAL] = True
    if n_irm < n:
        spans[_ARRIVAL] = _arrival_span(config.horizon)
        plan[n_irm:, _ARRIVAL] = spans[_ARRIVAL] > 1
        plan[n_irm:, _LIFESPAN:] = True

    rng = np.random.default_rng(seed)
    drawn = np.flatnonzero(plan)
    kind = drawn % len(_BOUNDED_DRAW)
    # a draw that is not made reads 0: a double of 0, or a bounded draw's low bound
    result = np.zeros(plan.shape, dtype=np.uint64)
    result.reshape(-1)[drawn] = _stream_draws(
        rng.bit_generator, _BOUNDED_DRAW[kind], spans[kind]
    )
    unit = (result[:, ~_BOUNDED_DRAW] >> 11) * 2.0**-53  # random() of each word
    raw = np.empty((n, len(FEATURE_BENEFIT)))
    # uniform(low, high) of the first three features, as numpy computes it
    for j, (low, high) in enumerate(FEATURE_RANGES[:_CATEGORY]):
        raw[:, j] = low + (high - low) * unit[:, j]
    raw[:, _CATEGORY] = np.array(CATEGORY_WEIGHTS)[result[:, _CATEGORY].astype(np.intp)]
    snm = np.arange(n) >= n_irm
    pulse = [np.where(snm, result[:, j].astype(np.int64) + lows[j], 0)
             for j in (_ARRIVAL, _LIFESPAN)]
    volume = np.zeros(n)
    # Python's float ** per content: numpy's power can differ in the last bit
    volume[snm] = [sample_pareto_volume(volume_law, u) for u in unit[snm, -1].tolist()]
    return Catalog(
        sizes=np.ones(n),
        features=normalize_features(raw, FEATURE_RANGES),
        snm=snm,
        arrival=pulse[0],
        lifespan=pulse[1],
        volume=volume,
    )


CATALOG_HEADER = [
    "id", "regime", "size",
    "f_size", "f_bandwidth", "f_value", "f_category",
    "arrival", "lifespan", "volume",
]


def save_catalog(catalog: Catalog, path) -> None:
    """Write the header and one row per content, in id order, by csv.writer.

    Floats are written as their repr; IRM rows leave arrival, lifespan
    and volume empty.
    """
    snm = catalog.snm.tolist()
    pulse = [
        [v if s else "" for v, s in zip(values.tolist(), snm)]
        for values in (catalog.arrival, catalog.lifespan, catalog.volume)
    ]
    regime = ["SNM" if s else "IRM" for s in snm]
    columns = [catalog.ids.tolist(), regime, catalog.sizes.tolist(),
               *catalog.features.T.tolist(), *pulse]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CATALOG_HEADER)
        writer.writerows(zip(*columns))


# a parsed body row: its id, then the Catalog fields
_ROW = np.dtype([("id", np.int64)] + [
    (name, dtype, (len(FEATURE_BENEFIT),) if name == "features" else ())
    for name, dtype in _FIELDS.items()
])


# _number and _parse_row raise ValueError, as int() and float() do:
# load_catalog catches it and raises TraceParseError with the line
def _number(kind, pattern: re.Pattern, text: str):
    """kind(text) if text fully matches pattern; ValueError otherwise."""
    if not pattern.fullmatch(text):
        raise ValueError(f"could not convert {text!r} to {kind.__name__}")
    return kind(text)


# save_catalog writes decimal ints, and floats as repr writes them
_int = partial(_number, int, re.compile(r"-?[0-9]+"))
_float = partial(_number, float, re.compile(
    r"-?(?:(?:0|[1-9][0-9]*)\.(?:0|[0-9]*[1-9])|[1-9](?:\.[0-9]*[1-9])?e[-+][0-9]{2,3}|inf)|nan"
))


def _parse_row(row: list) -> tuple:
    """A body row as a _ROW tuple; ValueError if it is malformed."""
    if len(row) != len(CATALOG_HEADER):
        raise ValueError(f"a row has {len(CATALOG_HEADER)} fields, this one {len(row)}")
    cid, regime, size, *features, arrival, lifespan, volume = row
    if regime not in ("IRM", "SNM"):
        raise ValueError(f"regime {regime!r} is neither IRM nor SNM")
    if regime == "IRM" and (arrival or lifespan or volume):
        raise ValueError("an IRM row leaves arrival, lifespan and volume empty")
    snm = regime == "SNM"
    pulse = (_int(arrival), _int(lifespan), _float(volume)) if snm else (0, 0, 0.0)
    return _int(cid), _float(size), tuple(map(_float, features)), snm, *pulse


def load_catalog(path) -> Catalog:
    """Load a catalog CSV whose rows may come in any id order.

    Rejected, with the 1-based line of the first bad row in file order:
    a bad header, a file with no rows, a row that is not ten fields of
    the right types written as save_catalog writes them (so no plus sign,
    space, underscore or exponent in an int), an IRM row with arrival,
    lifespan or volume filled, an id outside 1..F (F rows) or repeated,
    and any value a Catalog rejects, such as a size or volume that is not
    positive and finite.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CATALOG_HEADER:
        raise TraceParseError("bad catalog header", line=1)
    n = len(rows) - 1
    if n == 0:
        raise TraceParseError("no contents", line=2)
    # the rows before the first malformed one
    table, malformed = np.zeros(n, dtype=_ROW), None
    for i, row in enumerate(rows[1:]):
        try:
            table[i] = _parse_row(row)
        except (ValueError, OverflowError) as exc:  # an int past int64
            table, malformed = table[:i], str(exc)
            break
    ids = table["id"]
    order = np.argsort(ids, kind="stable")
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    checks = (
        ((ids < 1) | (ids > n), f"id is outside 1..{n}"),
        (repeated, "id is repeated"),
        *_row_checks(*(table[name] for name in _FIELDS)),
    )
    bad = [(int(b.argmax()), message) for b, message in checks if b.any()]
    if bad:
        row, message = min(bad)
        raise TraceParseError(f"content {ids[row]}: {message}", line=row + 2)
    if malformed is not None:
        raise TraceParseError(malformed, line=len(table) + 2)
    return Catalog(**{name: table[name][order] for name in _FIELDS})
