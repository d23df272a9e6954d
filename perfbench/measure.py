"""Measurement loop, metrics and provenance of one benchmark run.

A run first replays a pinned smoke pass (seed 1000, 20 slots) whose
digests are in golden.json, so an output change is caught whatever the
seed. It then runs whole passes of the workload until the next pass
would end after --seconds (at least MIN_PASSES). Before each pass it
times the set-up at least SETUP_REPEATS times and for at least
SETUP_SECONDS, so that set-up and passes sample the same stretch of a
machine whose speed drifts over minutes. With tracing off it reports the end-to-end
metrics; with tracing on it alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.

Every end-to-end time is in reference seconds (see refclock.py): host
time scaled by the speed the machine had while it passed, which the
reference kernel measures four times a second. The host seconds of each
pass are kept in the record beside them. Per-layer times are host
seconds of traced passes, which run without the reference kernel.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import probe as probes
import refclock
from workloads import FULL_HORIZON, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 1000
SMOKE_HORIZON = 20
SETUP_REPEATS = 2
SETUP_SECONDS = 0.5
MIN_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if ".slot_us." in name:
        return "us"
    if "_ratio." in name:
        return "ratio"
    return "count"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)


def run_pass(workload, seed, horizon, tracing, golden, tally, clock):
    """Run and check one pass; returns (reference s, host s, probe, digests)."""
    probe = probes.Probe(tracing)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    try:
        with probe.installed():
            start = clock.now()
            try:
                files = workload.run(workload, seed, horizon, workdir)
            except Exception:
                # a failing pass is counted below, never fatal
                tally.messages.append(traceback.format_exc())
            end = perf_counter()
            clock.tick()
        wall, host = clock.seconds(start, end), end - start
        attempted, failed, messages, digests = checks.check_pass(
            workload, seed, horizon, probe, files, golden
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally.attempted += attempted
    tally.failed += failed
    tally.messages.extend(f"{workload.name} seed={seed}: {m}" for m in messages)
    return wall, host, probe, digests


def measure(workload, seed, seconds, tracing, horizon=FULL_HORIZON, golden=None):
    """One benchmark run. Returns (result line, full record, spans)."""
    golden = checks.load_golden() if golden is None else golden
    tally = Tally()
    clock = refclock.ReferenceClock()
    run_pass(workload, DEFAULT_SEED, SMOKE_HORIZON, False, golden, tally, clock)

    setup = []
    plain, traced = [], []
    spans = []
    begin = perf_counter()
    while True:
        timed = []
        with clock.ticking():
            while len(timed) < SETUP_REPEATS or sum(timed) < SETUP_SECONDS:
                start = clock.now()
                inputs = workload.setup(seed, horizon)
                timed.append(clock.since(start))
                del inputs
        setup += timed
        tracing_now = tracing and len(plain) > len(traced)
        # spans of a traced pass must not hold the reference kernel
        with clock.ticking(on=not tracing_now):
            wall, host, probe, _ = run_pass(
                workload, seed, horizon, tracing_now, golden, tally, clock
            )
        if tracing_now:
            traced.append({
                "wall_s": wall,
                "host_s": host,
                "times": probes.layer_times(probe),
                "counts": probes.layer_counts(probe),
                "outcomes": probes.layer_outcomes(probe),
                "slot_gaps_us": probes.slot_intervals_us(probe),
            })
            spans = probe.spans
        else:
            sim_s = sum(clock.seconds(r.start, r.end) for r in probe.runs)
            events = sum(len(r.trace.events) for r in probe.runs)
            plain.append({
                "wall_s": wall,
                "host_s": host,
                "sim_s": sim_s,
                "events": events,
                "events_per_s": events / sim_s if sim_s else 0.0,
            })
        del probe
        done = len(plain) + len(traced)
        elapsed = perf_counter() - begin
        if done >= MIN_PASSES and elapsed + elapsed / done > seconds:
            break

    median = statistics.median
    if tracing:
        times = traced[0]["times"]
        metrics = {name: median(p["times"][name] for p in traced) for name in times}
        metrics.update(traced[0]["counts"])
        metrics.update(traced[0]["outcomes"])
        for other in traced[1:]:
            for name in checks.counts_mismatch(traced[0]["counts"], other["counts"]):
                tally.messages.append(f"count {name} did not repeat between passes")
        gaps = [g for p in traced for g in p["slot_gaps_us"]]
        metrics.update(probes.slot_percentiles(gaps))
        metrics["trace.overhead_s"] = (
            median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain)
        )
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "wall_s": median(p["wall_s"] for p in plain),
            "setup_s": median(setup),
            "events_per_s": median(p["events_per_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    correct = tally.failed == 0 and not tally.messages
    line = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "provenance": provenance(seed),
        "result": line,
        "failed_runs": tally.failed / tally.attempted,
        "setup_s": setup,
        "passes": plain,
        "traced_passes": [
            {k: v for k, v in p.items() if k != "slot_gaps_us"} for p in traced
        ],
        "messages": tally.messages,
    }
    return line, record, spans


def write_outputs(record, spans, seed, tracing) -> Path:
    """Write the full record, and the spans of the last traced pass."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{seed}-trace{int(tracing)}"
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            fh.write('["name", "start_ns", "end_ns", "parent", "run"]\n')
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return path


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    src = ROOT / "src"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))
        ),
    }


def pin() -> int:
    """Rewrite golden.json from the current program.

    Only for a change whose outputs are meant to differ; every pinned
    pass must still meet the invariants.
    """
    golden = {}
    tally = Tally()
    clock = refclock.ReferenceClock()
    for workload in WORKLOADS.values():
        for horizon in (SMOKE_HORIZON, FULL_HORIZON):
            _, _, _, digests = run_pass(
                workload, DEFAULT_SEED, horizon, False, {}, tally, clock
            )
            key = checks.golden_key(DEFAULT_SEED, horizon)
            golden.setdefault(workload.name, {})[key] = digests
    if tally.failed or tally.messages:
        print("\n".join(tally.messages), file=sys.stderr)
        return 1
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDEN_PATH}")
    return 0
