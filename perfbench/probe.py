"""Instrumentation around hybridcache's public functions.

A Probe patches each function at the name its caller looks up (a module
attribute such as ``hybridcache.cli.run_simulation`` or a class
attribute such as ``Catalog.active_snm_ids``) and restores every patch
on exit, so nothing under src/ changes.

Every probe records each ``run_simulation`` call (its inputs, result,
host seconds and placements) for the output check, and counts the
popular policy's "empty history" log records instead of printing them.
A tracing probe also records a span at every layer boundary: name,
start, end, parent span and run id, kept in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import logging
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import hybridcache.catalog as catalog_mod
import hybridcache.cli as cli_mod
import hybridcache.engine as engine_mod
import hybridcache.popularity as popularity_mod
import hybridcache.workload as workload_mod
from hybridcache.errors import EmptyWindow

POLICY_LOGGER = "hybridcache.policy"
FALLBACK_MESSAGE = "empty history"

# (owner, attribute, span name) for plain call boundaries; run_simulation,
# make_policy, sweep_results and the estimator are wrapped specially below.
SPANNED = (
    (cli_mod, "make_workload", "cli.make_workload"),
    (cli_mod, "build_catalog", "catalog.build_catalog"),
    (cli_mod, "generate_trace", "workload.generate_trace"),
    (cli_mod, "save_catalog", "catalog.save_catalog"),
    (cli_mod, "save_trace", "workload.save_trace"),
    (cli_mod, "load_trace", "workload.load_trace"),
    (cli_mod, "aggregate_results", "cli.aggregate_results"),
    (cli_mod, "read_sweep_csv", "cli.read_sweep_csv"),
    (cli_mod, "cmd_generate", "cli.cmd_generate"),
    (cli_mod, "cmd_run", "cli.cmd_run"),
    (cli_mod, "cmd_sweep", "cli.cmd_sweep"),
    (cli_mod, "cmd_report", "cli.cmd_report"),
    (cli_mod.ExperimentConfig, "hash", "cli.config_hash"),
    # cmd_run imports load_catalog from the catalog module at call time
    (catalog_mod, "load_catalog", "catalog.load_catalog"),
    (catalog_mod.Catalog, "active_snm_ids", "catalog.active_snm_ids"),
    (workload_mod.RequestTrace, "events_by_slot", "workload.events_by_slot"),
    (engine_mod, "slot_step", "engine.slot_step"),
    (engine_mod, "oracle_placement", "engine.oracle_placement"),
    (engine_mod, "exact_knapsack", "policy.exact_knapsack"),
    (engine_mod, "cumulative_regret", "engine.cumulative_regret"),
    (engine_mod, "PopularitySnapshot", "popularity.snapshot"),
    (popularity_mod.AllocationEstimator, "observe", "popularity.observe"),
)


# per-layer time metric -> (span name, total or self time)
LAYER_TIMES = {
    "engine.run_simulation.self_s": ("engine.run_simulation", "self"),
    "engine.slot_step.s": ("engine.slot_step", "total"),
    "engine.oracle_placement.s": ("engine.oracle_placement", "total"),
    "policy.exact_knapsack.s": ("policy.exact_knapsack", "total"),
    "policy.update.hybrid.s": ("policy.update.hybrid", "total"),
    "catalog.build_s": ("catalog.build_catalog", "total"),
    "catalog.active_snm_ids.s": ("catalog.active_snm_ids", "total"),
    "catalog.load_catalog.s": ("catalog.load_catalog", "total"),
    "workload.generate_trace.s": ("workload.generate_trace", "total"),
    "workload.save_trace.s": ("workload.save_trace", "total"),
    "workload.load_trace.s": ("workload.load_trace", "total"),
    "workload.events_by_slot.s": ("workload.events_by_slot", "total"),
    "popularity.estimate.s": ("popularity.estimate", "total"),
    "popularity.observe.s": ("popularity.observe", "total"),
    "popularity.snapshot.s": ("popularity.snapshot", "total"),
    "cli.sweep_results.self_s": ("cli.sweep_results", "self"),
    "cli.aggregate_results.s": ("cli.aggregate_results", "total"),
    "cli.cmd_run.self_s": ("cli.cmd_run", "self"),
    "policy.place.hybrid.s": ("policy.place.hybrid", "total"),
    "policy.place.popular.s": ("policy.place.popular", "total"),
    "policy.place.random.s": ("policy.place.random", "total"),
}


@dataclass
class RunRecord:
    """One run_simulation call as the output check needs it."""

    policy: str
    capacity: float
    seed: int
    catalog: object
    trace: object
    start: float = 0.0  # perf_counter() at the call and at its return
    end: float = 0.0
    result: object = None
    error: str = ""
    placements: list = field(default_factory=list)


class _FallbackCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__()
        self.counts = counts

    def emit(self, record):
        if FALLBACK_MESSAGE in record.getMessage():
            self.counts["policy.popular.random_fallbacks"] += 1
        else:
            logging.lastResort.handle(record)


class Probe:
    """Records runs (always) and spans (when tracing) for one pass."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.runs: list = []
        self.counts: Counter = Counter()
        self.spans: list = []  # [name, start_ns, end_ns, parent index, run id]
        self._stack: list = []
        self._run_id = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self._run_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _spanned_generator(self, name, fn):
        # The span runs from the first resume to exhaustion, so the
        # consumer's work between rows (cmd_sweep writing one CSV line)
        # counts towards it.
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    # -- always-on wrappers ------------------------------------------------

    def _run_simulation(self, fn):
        def wrapper(catalog, trace, policy_name, capacity, seed, **kwargs):
            record = RunRecord(policy_name, capacity, seed, catalog, trace)
            self.runs.append(record)
            self._run_id = len(self.runs)
            index = self._open("engine.run_simulation") if self.tracing else -1
            record.start = perf_counter()
            try:
                record.result = fn(
                    catalog, trace, policy_name, capacity, seed, **kwargs
                )
            except Exception as exc:
                record.error = repr(exc)
                raise
            finally:
                record.end = perf_counter()
                if self.tracing:
                    self._close(index)
                self._run_id = 0
            return record.result

        return wrapper

    def _make_policy(self, fn):
        def wrapper(name, *args, **kwargs):
            policy = fn(name, *args, **kwargs)
            place, update = policy.place, policy.update
            if self.tracing:
                place = self._spanned(f"policy.place.{name}", place)
                update = self._spanned(f"policy.update.{name}", update)
            placements = self.runs[-1].placements if self.runs else []

            def placed(ctx):
                placement = place(ctx)
                placements.append(placement)
                return placement

            policy.place = placed
            policy.update = update
            return policy

        return wrapper

    def _estimate(self, fn):
        def wrapper(estimator):
            try:
                return fn(estimator)
            except EmptyWindow:
                self.counts["popularity.empty_window"] += 1
                raise

        return self._spanned("popularity.estimate", wrapper)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the program for the duration of the block."""
        patches = []

        def patch(owner, attr, wrapper):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        logger = logging.getLogger(POLICY_LOGGER)
        handler = _FallbackCounter(self.counts)
        propagate = logger.propagate
        try:
            simulate = self._run_simulation(engine_mod.run_simulation)
            patch(engine_mod, "run_simulation", simulate)
            patch(cli_mod, "run_simulation", simulate)
            patch(engine_mod, "make_policy", self._make_policy(engine_mod.make_policy))
            if self.tracing:
                estimator = popularity_mod.AllocationEstimator
                patch(estimator, "estimate", self._estimate(estimator.estimate))
                for owner, attr, name in SPANNED:
                    patch(owner, attr, self._spanned(name, owner.__dict__[attr]))
                sweep = self._spanned_generator("cli.sweep_results", cli_mod.sweep_results)
                patch(cli_mod, "sweep_results", sweep)
            logger.addHandler(handler)
            logger.propagate = False
            yield self
        finally:
            logger.removeHandler(handler)
            logger.propagate = propagate
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_times(probe: Probe) -> dict:
    """Per-layer busy seconds (total or self) of one traced pass."""
    total = defaultdict(int)
    child = defaultdict(int)  # span index -> time covered by its children
    for name, start, end, parent, _ in probe.spans:
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_ns = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(probe.spans):
        self_ns[name] += end - start - child[index]

    return {
        metric: (self_ns if kind == "self" else total)[span] / 1e9
        for metric, (span, kind) in LAYER_TIMES.items()
    }


def layer_counts(probe: Probe) -> dict:
    """Exact counts of one pass; they repeat exactly for a given seed."""
    calls = Counter(span[0] for span in probe.spans)
    events = sum(len(r.trace.events) for r in probe.runs)
    slots = sum(len(r.placements) for r in probe.runs)
    traces = {id(r.trace): len(r.trace.events) for r in probe.runs}
    return {
        "engine.run_simulation.calls": len(probe.runs),
        "engine.slots": slots,
        "engine.events": events,
        "policy.place.calls": sum(
            n for name, n in calls.items() if name.startswith("policy.place.")
        ),
        "policy.popular.random_fallbacks": probe.counts[
            "policy.popular.random_fallbacks"
        ],
        "catalog.active_snm_ids.calls": calls["catalog.active_snm_ids"],
        "workload.events": sum(traces.values()),
        "popularity.empty_window": probe.counts["popularity.empty_window"],
        "cli.config_hash.calls": calls["cli.config_hash"],
        "trace.spans": len(probe.spans),
    }


def layer_outcomes(probe: Probe) -> dict:
    """Useful outcomes per attempt: cache fill and hit ratio per policy."""
    used = defaultdict(float)
    offered = defaultdict(float)
    hits = defaultdict(float)
    served = defaultdict(int)
    for r in probe.runs:
        for p in r.placements:
            used[r.policy] += p.used_capacity
            offered[r.policy] += p.capacity
        if r.result is not None:
            n = len(r.trace.events)
            hits[r.policy] += r.result.summary["mean_hit_ratio"] * n
            served[r.policy] += n
    out = {}
    for policy in ("hybrid", "popular", "random"):
        out[f"policy.fill_ratio.{policy}"] = (
            used[policy] / offered[policy] if offered[policy] else 0.0
        )
        out[f"policy.hit_ratio.{policy}"] = (
            hits[policy] / served[policy] if served[policy] else 0.0
        )
    return out


def slot_intervals_us(probe: Probe) -> list:
    """Microseconds between successive place calls within each run."""
    starts = defaultdict(list)
    for name, start, _, _, run in probe.spans:
        if name.startswith("policy.place."):
            starts[run].append(start)
    gaps = []
    for series in starts.values():
        gaps.extend((b - a) / 1e3 for a, b in zip(series, series[1:]))
    return gaps


def slot_percentiles(gaps: list) -> dict:
    if not gaps:
        return {"engine.slot_us.p50": 0.0, "engine.slot_us.p99": 0.0}
    return {
        "engine.slot_us.p50": statistics.median(gaps),
        "engine.slot_us.p99": _percentile(gaps, 99),
    }
