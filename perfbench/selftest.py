"""The benchmark's own self-test: ``python3 perfbench/run.py --self-test``.

- A smoke run of every workload at SMOKE_HORIZON slots, traced and
  untraced, prints every metric named in BENCHMARK.json with its unit,
  meets the pinned digests and reports no failed run.
- The exact counts of two traced smoke runs are equal.
- The reference clock leaves no interval timer or SIGALRM handler.
- A run whose first simulation returns a perturbed slot record, and one
  whose first simulation raises, are both counted in the failed runs,
  and the benchmark still finishes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import signal

import hybridcache.cli as cli
import hybridcache.engine as engine
import hybridcache.popularity as popularity

import checks
import measure
import probe as probes
from workloads import WORKLOADS


@contextlib.contextmanager
def perturbed_first_run(raise_error: bool):
    """Corrupt the first run_simulation result, or make it raise."""
    original = engine.run_simulation
    calls = []

    def run(*args, **kwargs):
        calls.append(1)
        result = original(*args, **kwargs)
        if len(calls) > 1:
            return result
        if raise_error:
            raise RuntimeError("perturbed run")
        first = result.per_slot[0]
        bad = dataclasses.replace(first, hit_ratio=first.oracle_hit_ratio + 0.25)
        return dataclasses.replace(result, per_slot=(bad,) + result.per_slot[1:])

    engine.run_simulation = cli.run_simulation = run
    try:
        yield
    finally:
        engine.run_simulation = cli.run_simulation = original


def _smoke(workload, tracing, golden):
    line, _, _ = measure.measure(
        workload, measure.DEFAULT_SEED, 0, tracing,
        horizon=measure.SMOKE_HORIZON, golden=golden,
    )
    return line


def _counts(line) -> dict:
    return {k: v["value"] for k, v in line["metrics"].items() if v["unit"] == "count"}


def main(spec_path) -> int:
    spec = json.loads(spec_path.read_text())
    golden = checks.load_golden()
    failures = []

    def expect(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
        if not ok:
            failures.append(name)

    expect("BENCHMARK.json lists every workload",
           [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    for name, workload in WORKLOADS.items():
        counts = []
        for tracing, group in ((False, "end_to_end"), (True, "per_layer")):
            line = _smoke(workload, tracing, golden)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(f"{name} trace={int(tracing)} prints every {group} metric",
                   got == want, f"missing {sorted(set(want) - set(got))}, "
                   f"extra {sorted(set(got) - set(want))}, "
                   f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
            values = [v["value"] for v in line["metrics"].values()]
            expect(f"{name} trace={int(tracing)} values are finite",
                   all(isinstance(v, (int, float)) and math.isfinite(v) for v in values))
            expect(f"{name} trace={int(tracing)} is correct with no failed run",
                   line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                   json.dumps({k: line[k] for k in ("correct", "attempted", "failed")}))
            if tracing:
                counts.append(_counts(line))
        counts.append(_counts(_smoke(workload, True, golden)))
        expect(f"{name} exact counts repeat", counts[0] == counts[1],
               str(checks.counts_mismatch(counts[0], counts[1])))

    workload = WORKLOADS["paper-sweep"]
    for raise_error, what in ((False, "a perturbed output"), (True, "a raising run")):
        with perturbed_first_run(raise_error):
            line = _smoke(workload, False, golden)
        expect(f"{what} is counted in failed_runs",
               line["failed"] >= 1 and not line["correct"],
               json.dumps({k: line[k] for k in ("correct", "attempted", "failed")}))

    patched = [(owner, attr) for owner, attr, _ in probes.SPANNED] + [
        (engine, "run_simulation"), (cli, "run_simulation"), (engine, "make_policy"),
        (cli, "sweep_results"), (popularity.AllocationEstimator, "estimate"),
    ]
    expect("probes restore every patched name",
           all("<locals>" not in getattr(o, a).__qualname__ for o, a in patched))
    expect("the reference clock stops its timer and restores SIGALRM",
           signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
           and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
