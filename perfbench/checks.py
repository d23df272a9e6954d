"""Output check behind the failed-run count.

Every run is checked against invariants that hold for any seed, and,
where a pinned entry exists in golden.json for the (workload, seed,
horizon) triple, against sha256 digests of its outputs. A run that
raised, broke an invariant or missed its digest counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_digest(result) -> str:
    """Digest of one run's per-slot records, regret curve and summary."""
    blob = json.dumps(
        {
            "summary": result.summary,
            "per_slot": [
                [r.hit_ratio, r.oracle_hit_ratio, r.regret_increment]
                for r in result.per_slot
            ],
            "cumulative_regret": np.asarray(result.cumulative_regret).tolist(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _slot_counts(trace) -> np.ndarray:
    slots = np.fromiter((s for s, _ in trace.events), dtype=np.int64)
    if len(slots) and slots.min() < 1:
        return np.array([-1])
    return np.bincount(slots, minlength=trace.horizon + 1)[1:]


def run_problems(record, horizon: int, requests_per_slot: int, counts_of) -> list:
    """Invariant violations of one run; empty when the run is sound."""
    if record.error:
        return [f"raised {record.error}"]
    result = record.result
    problems = []
    counts = counts_of(record.trace)
    if len(counts) != horizon or np.any(counts != requests_per_slot):
        problems.append(f"trace does not carry {requests_per_slot} events in each of {horizon} slots")
    if len(result.per_slot) != horizon:
        problems.append(f"{len(result.per_slot)} slot records, expected {horizon}")
    if any(r.hit_ratio > r.oracle_hit_ratio for r in result.per_slot):
        problems.append("a slot's hit ratio exceeds its oracle ratio")
    regret = np.asarray(result.cumulative_regret, dtype=float)
    if np.any(np.diff(regret) < 0):
        problems.append("cumulative regret decreases")
    if len(regret) and regret[-1] != result.summary["final_regret"]:
        problems.append("final regret differs from the regret curve")
    if len(record.placements) != horizon:
        problems.append(f"{len(record.placements)} placements, expected {horizon}")
    sizes = {it.id: it.size for it in record.catalog.items}
    for t, p in enumerate(record.placements, start=1):
        used = sum(sizes[c] for c in p.cached)
        if used > record.capacity + 1e-9 or p.used_capacity > record.capacity + 1e-9:
            problems.append(f"slot {t}: placement uses {used} > capacity {record.capacity}")
            break
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_key(seed: int, horizon: int) -> str:
    return f"seed={seed},horizon={horizon}"


def check_pass(workload, seed, horizon, probe, files, golden) -> tuple:
    """Check one pass. Returns (attempted, failed, messages, digests)."""
    cache = {}

    def counts_of(trace):
        if id(trace) not in cache:
            cache[id(trace)] = _slot_counts(trace)
        return cache[id(trace)]

    expected = max(workload.runs_per_pass, len(probe.runs))
    failed_runs = set(range(len(probe.runs), expected))
    messages = [f"run {i}: never ran" for i in sorted(failed_runs)]
    for i, record in enumerate(probe.runs):
        for problem in run_problems(
            record, horizon, workload.requests_per_slot, counts_of
        ):
            failed_runs.add(i)
            messages.append(f"run {i} ({record.policy}, C={record.capacity}): {problem}")

    digests = {
        "runs": [run_digest(r.result) if r.result is not None else "" for r in probe.runs],
        "files": {name: sha256_file(path) for name, path in sorted(files.items())},
    }
    pinned = golden.get(workload.name, {}).get(golden_key(seed, horizon))
    if pinned is not None:
        for i, (got, want) in enumerate(zip(digests["runs"], pinned["runs"])):
            if got != want:
                failed_runs.add(i)
                messages.append(f"run {i}: digest differs from golden.json")
        if digests["files"] != pinned["files"]:
            # a wrong output file fails every run that fed it
            failed_runs.update(range(expected))
            changed = sorted(
                k for k in set(digests["files"]) | set(pinned["files"])
                if digests["files"].get(k) != pinned["files"].get(k)
            )
            messages.append(f"output files differ from golden.json: {changed}")
    return expected, len(failed_runs), messages, digests


def counts_mismatch(first: dict, second: dict) -> list:
    """Names of exact counts that did not repeat between two passes."""
    return sorted(k for k in first if first[k] != second.get(k))

