"""Experiment orchestration: generate workloads, run policies, sweep
library size or capacity, and aggregate results.

Configuration is a flat key=value file; every key can be overridden by
an environment variable with the HYBRIDCACHE_ prefix (uppercased key)
and by command-line flags, in that order of precedence.

Exit codes: 0 success, 2 rejected input (HybridCacheError: a setting, a
file row or an argument), 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .catalog import CatalogConfig, _float, _int, build_catalog, save_catalog
from .engine import run_simulation
from .errors import HybridCacheError, TraceParseError
from .policy import POLICY_NAMES
from .workload import generate_trace, load_trace, save_trace

ENV_PREFIX = "HYBRIDCACHE_"
SWEEP_AXES = ("library_size", "capacity")
SWEEP_HEADER = [
    "axis", "value", "policy", "seed",
    "mean_hit_ratio", "final_regret", "config_hash",
]
REPORT_HEADER = [
    "value", "policy", "n_seeds",
    "mean_hit_ratio", "stderr_hit_ratio",
    "mean_final_regret", "stderr_final_regret", "improvement_over",
]

# catalog and trace draw from separated seed streams
TRACE_SEED_OFFSET = 7919


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: int = 600
    library_size: int = 150
    capacity: float = 40.0
    w_snm: float = 0.8
    zipf_delta: float = 0.8
    pareto_beta: float = 2.0
    pareto_n_min: float = 1.0
    requests_per_slot: int = 100
    exploration_beta: float = 2.0
    alloc_window: int = 10
    alloc_smoothing: float = 0.3
    seeds: tuple = tuple(range(1000, 1010))
    policies: tuple = ("hybrid", "popular", "random")
    sweep_axis: str = "capacity"
    sweep_values: tuple = (10.0, 20.0, 30.0, 40.0)
    out: str = "results"

    def validate(self) -> "ExperimentConfig":
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise HybridCacheError(f"{f.name} must be a finite number")
        if self.horizon < 1:
            raise HybridCacheError("horizon must be >= 1")
        if self.horizon > 2**32:
            # build_catalog draws SNM arrivals from at most 2**32 slots
            raise HybridCacheError("horizon must be <= 2**32")
        if self.library_size < 2:
            raise HybridCacheError("library_size must be >= 2")
        if self.capacity < 0:
            raise HybridCacheError("capacity must be >= 0")
        if not (0.0 <= self.w_snm <= 1.0):
            raise HybridCacheError("w_snm must lie in [0, 1]")
        if self.zipf_delta < 0:
            raise HybridCacheError("zipf_delta must be >= 0")
        if self.pareto_beta <= 1:
            raise HybridCacheError("pareto_beta must exceed 1")
        if self.pareto_n_min <= 0:
            raise HybridCacheError("pareto_n_min must be positive")
        if self.requests_per_slot < 1:
            raise HybridCacheError("requests_per_slot must be >= 1")
        if self.exploration_beta <= 0:
            raise HybridCacheError("exploration_beta must be positive")
        if self.alloc_window < 1:
            raise HybridCacheError("alloc_window must be >= 1")
        if not (0.0 <= self.alloc_smoothing <= 1.0):
            raise HybridCacheError("alloc_smoothing must lie in [0, 1]")
        if not self.seeds:
            raise HybridCacheError("seeds must be non-empty")
        if any(seed < 0 for seed in self.seeds):
            raise HybridCacheError("seeds must be >= 0")
        if len(set(self.seeds)) < len(self.seeds):
            raise HybridCacheError("seeds must not repeat")
        if not self.policies:
            raise HybridCacheError("policies must be non-empty")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise HybridCacheError(f"policies: unknown policy {p!r}")
        if len(set(self.policies)) < len(self.policies):
            raise HybridCacheError("policies must not repeat")
        if self.sweep_axis not in SWEEP_AXES:
            raise HybridCacheError(f"sweep_axis must be one of {SWEEP_AXES}")
        if not self.sweep_values:
            raise HybridCacheError("sweep_values must be non-empty")
        if not all(math.isfinite(v) for v in self.sweep_values):
            raise HybridCacheError("sweep_values must be finite numbers")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise HybridCacheError("sweep_values must be strictly increasing")
        if self.sweep_axis == "library_size" and any(
            v < 2 or not float(v).is_integer() for v in self.sweep_values
        ):
            raise HybridCacheError("library_size sweep values must be whole numbers >= 2")
        if self.sweep_axis == "capacity" and any(v < 0 for v in self.sweep_values):
            raise HybridCacheError("sweep_values must be >= 0 on the capacity axis")
        return self

    def hash(self) -> str:
        d = dataclasses.asdict(self)
        d.pop("out")  # the output path is not part of the experiment
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _parse_value(name: str, text: str):
    """A setting's value, of the type of its ExperimentConfig default.

    A tuple setting is a comma-separated list of its first item's type.
    """
    default, text = getattr(ExperimentConfig, name), text.strip()
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(x.strip()) for x in text.split(","))
        return type(default)(text)
    except ValueError as exc:
        raise HybridCacheError(f"{name}: cannot parse {text!r}") from exc


def load_config(path=None, env=None, overrides=None) -> ExperimentConfig:
    """Build a config from file, environment, and explicit overrides."""
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    values = {}
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise HybridCacheError(f"{path}:{lineno}: expected key = value")
                key, _, text = line.partition("=")
                key = key.strip()
                if key not in names:
                    raise HybridCacheError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _parse_value(key, text)
    env = os.environ if env is None else env
    for key in names:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            values[key] = _parse_value(key, raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    return ExperimentConfig(**values).validate()


def make_workload(config: ExperimentConfig, library_size: int, seed: int):
    """Build the (catalog, trace) pair for one seed of one sweep point."""
    catalog = build_catalog(
        CatalogConfig(
            library_size=library_size,
            w_snm=config.w_snm,
            horizon=config.horizon,
            pareto_beta=config.pareto_beta,
            pareto_n_min=config.pareto_n_min,
        ),
        seed=seed,
    )
    trace = generate_trace(
        catalog,
        horizon=config.horizon,
        requests_per_slot=config.requests_per_slot,
        w_snm=config.w_snm,
        delta=config.zipf_delta,
        seed=seed + TRACE_SEED_OFFSET,
    )
    return catalog, trace


def cmd_generate(config: ExperimentConfig) -> int:
    catalog, trace = make_workload(config, config.library_size, config.seeds[0])
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_catalog(catalog, outdir / "catalog.csv")
    save_trace(trace, outdir / "trace.csv")
    print(f"config_hash={config.hash()}")
    print(f"wrote {outdir / 'catalog.csv'} and {outdir / 'trace.csv'}")
    return 0


def _runs(config: ExperimentConfig, points):
    """Run every policy at each (value, seed, (catalog, trace), capacity) point.

    Yields (value, seed, policy, metrics) in run order.
    """
    config_hash = config.hash()
    for value, seed, (catalog, trace), capacity in points:
        for policy in config.policies:
            yield value, seed, policy, run_simulation(
                catalog,
                trace,
                policy,
                capacity,
                seed=seed,
                exploration_beta=config.exploration_beta,
                alloc_window=config.alloc_window,
                alloc_smoothing=config.alloc_smoothing,
                config_hash=config_hash,
            )


def cmd_run(config: ExperimentConfig, catalog_path=None, trace_path=None) -> int:
    if catalog_path is not None and trace_path is None:
        raise HybridCacheError("trace: --trace is required with --catalog")
    if trace_path is not None and catalog_path is None:
        raise HybridCacheError("catalog: --catalog is required with --trace")
    fixed = None
    if catalog_path is not None:
        from .catalog import load_catalog

        catalog = load_catalog(catalog_path)
        trace = load_trace(trace_path, catalog, config.horizon)
        # the slot of the trace's last row: offsets[t] counts rows up to slot t
        last = int(trace.offsets.searchsorted(trace.offsets[-1]))
        if last < config.horizon:
            print(
                f"warning: the trace ends at slot {last}; the run spans the "
                f"horizon {config.horizon}, so slots {last + 1}.."
                f"{config.horizon} have no requests",
                file=sys.stderr,
            )
        fixed = (catalog, trace)
    points = (
        (None, seed, fixed or make_workload(config, config.library_size, seed), config.capacity)
        for seed in config.seeds
    )
    runs = _runs(config, points)
    # the first build runs before any output file opens, so a rejected
    # build leaves none
    first = next(runs)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)

    summaries = []
    with open(outdir / "per_slot.csv", "w", newline="") as fh:
        fh.write("seed,policy,slot,hit_ratio,oracle_hit_ratio,"
                 "regret_increment,cumulative_regret\n")
        for _, seed, policy, metrics in itertools.chain([first], runs):
            summaries.append(metrics.summary)
            for t, rec in enumerate(metrics.per_slot, start=1):
                fh.write(
                    f"{seed},{policy},{t},{rec.hit_ratio!r},"
                    f"{rec.oracle_hit_ratio!r},{rec.regret_increment!r},"
                    f"{metrics.cumulative_regret[t - 1]!r}\n"
                )
    config_hash = summaries[0]["config_hash"]
    with open(outdir / "metrics.json", "w") as fh:
        json.dump(
            {"config_hash": config_hash, "runs": summaries}, fh, indent=2
        )
    print(f"config_hash={config_hash}")
    for s in summaries:
        print(
            f"policy={s['policy']} seed={s['seed']} "
            f"mean_hit_ratio={s['mean_hit_ratio']:.4f} "
            f"final_regret={s['final_regret']:.3f}"
        )
    return 0


def _sweep_points(config: ExperimentConfig):
    """Yield (axis value, seed, (catalog, trace), capacity) in run order."""
    if config.sweep_axis == "library_size":
        for value in config.sweep_values:
            for seed in config.seeds:
                workload = make_workload(config, int(value), seed)
                yield value, seed, workload, config.capacity
    else:
        for seed in config.seeds:
            workload = make_workload(config, config.library_size, seed)
            for value in config.sweep_values:
                yield value, seed, workload, value


def sweep_results(config: ExperimentConfig):
    """Run the configured sweep; yields one result row per run.

    A library-size sweep regenerates the workload per point; a
    capacity sweep holds each seed's workload fixed and varies C.
    """
    for value, seed, policy, m in _runs(config, _sweep_points(config)):
        yield {
            "axis": config.sweep_axis,
            "value": value,
            "policy": policy,
            "seed": seed,
            "mean_hit_ratio": m.summary["mean_hit_ratio"],
            "final_regret": m.summary["final_regret"],
            "config_hash": m.summary["config_hash"],
        }


def cmd_sweep(config: ExperimentConfig) -> int:
    rows = sweep_results(config)
    first = next(rows)  # its build runs before the output file opens
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, SWEEP_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)
    print(f"config_hash={config.hash()}")
    print(f"wrote {path}")
    return 0


def _sweep_row_problem(row: dict, first: dict, seen: set) -> str:
    """Why a parsed sweep.csv row is not one that cmd_sweep writes, or "".

    first is the file's first row (this row, if it is the first) and
    seen holds the (value, policy, seed) of the rows before this one.
    """
    if row["axis"] not in SWEEP_AXES:
        return f"axis {row['axis']!r} is not one of {SWEEP_AXES}"
    for key in ("axis", "config_hash"):
        if row[key] != first[key]:
            return f"{key} {row[key]!r} differs from the first row's {first[key]!r}"
    if row["policy"] not in POLICY_NAMES:
        return f"policy {row['policy']!r} is not one of {POLICY_NAMES}"
    for key in ("value", "mean_hit_ratio", "final_regret"):
        if not math.isfinite(row[key]):
            return f"{key} must be finite"
    value = row["value"]
    if row["axis"] == "capacity" and value < 0:
        return "a capacity value must be >= 0"
    if row["axis"] == "library_size" and not (value >= 2 and value.is_integer()):
        return "a library_size value must be a whole number >= 2"
    if not 0.0 <= row["mean_hit_ratio"] <= 1.0:
        return "mean_hit_ratio must lie in [0, 1]"
    if row["final_regret"] < 0:
        return "final_regret must be >= 0"
    if row["seed"] < 0:
        return "seed must be >= 0"
    if (value, row["policy"], row["seed"]) in seen:
        return "value, policy and seed repeat an earlier row"
    return ""


def read_sweep_csv(path) -> list:
    """The rows of a sweep.csv; TraceParseError names the file line where
    the first bad row starts.

    No line may be blank. A row must have the header's fields, an axis
    of SWEEP_AXES and a policy of POLICY_NAMES, a finite value, a finite
    hit ratio in [0, 1], a finite regret >= 0 and a seed >= 0, each
    number written as cmd_sweep writes it (a float as repr writes it, the
    seed in decimal digits). The rows must be one sweep: the first row's
    axis and config_hash, each (value, policy, seed) once, and values the
    axis takes (a capacity >= 0, a whole library size >= 2).
    """
    rows, seen = [], set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceParseError("empty results file", line=1)
        if header != SWEEP_HEADER:
            raise TraceParseError("bad results header", line=1)
        # a row starts on the file line after the last one read, since a
        # quoted field may hold a line end
        start = 2
        for parts in reader:
            lineno, start = start, reader.line_num + 1
            if not parts:
                raise TraceParseError("blank line", line=lineno)
            if len(parts) != len(SWEEP_HEADER):
                raise TraceParseError(
                    f"expected {len(SWEEP_HEADER)} fields, got {len(parts)}",
                    line=lineno,
                )
            try:
                row = {
                    "axis": parts[0],
                    "value": _float(parts[1]),
                    "policy": parts[2],
                    "seed": _int(parts[3]),
                    "mean_hit_ratio": _float(parts[4]),
                    "final_regret": _float(parts[5]),
                    "config_hash": parts[6],
                }
            except ValueError as exc:
                raise TraceParseError(str(exc), line=lineno) from exc
            problem = _sweep_row_problem(row, rows[0] if rows else row, seen)
            if problem:
                raise TraceParseError(problem, line=lineno)
            rows.append(row)
            seen.add((row["value"], row["policy"], row["seed"]))
    if not rows:
        raise TraceParseError("results file has no data rows", line=2)
    return rows


def aggregate_results(rows: list) -> list:
    """Seed-average each (axis value, policy); add hybrid improvements."""
    groups = {}
    for row in rows:
        groups.setdefault((row["value"], row["policy"]), []).append(row)

    def stats(samples):
        n = len(samples)
        mean = sum(samples) / n
        if n > 1:
            var = sum((x - mean) ** 2 for x in samples) / (n - 1)
            stderr = math.sqrt(var / n)
        else:
            stderr = 0.0
        return mean, stderr

    out = []
    for (value, policy), group in sorted(groups.items()):
        hr_mean, hr_se = stats([r["mean_hit_ratio"] for r in group])
        rg_mean, rg_se = stats([r["final_regret"] for r in group])
        out.append({
            "value": value,
            "policy": policy,
            "n_seeds": len(group),
            "mean_hit_ratio": hr_mean,
            "stderr_hit_ratio": hr_se,
            "mean_final_regret": rg_mean,
            "stderr_final_regret": rg_se,
            "improvement_over": "",
        })
    # the hybrid's gain over each other policy at its value, in policy order
    hybrid = {entry["value"]: entry for entry in out if entry["policy"] == "hybrid"}
    gains = {}
    for entry in out:
        ours, base = hybrid.get(entry["value"]), entry["mean_hit_ratio"]
        if ours is not None and ours is not entry and base != 0:
            gain = (ours["mean_hit_ratio"] - base) / base
            gains.setdefault(entry["value"], []).append(f"{entry['policy']}:{gain:+.2%}")
    for value, entry in hybrid.items():
        entry["improvement_over"] = ";".join(gains.get(value, ()))
    return out


def cmd_report(input_path, out) -> int:
    rows = read_sweep_csv(input_path)
    agg = aggregate_results(rows)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, REPORT_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(agg)
    print(f"{'value':>8} {'policy':>8} {'hit_ratio':>12} {'regret':>12}  improvement")
    for entry in agg:
        print(
            f"{entry['value']:>8.4g} {entry['policy']:>8} "
            f"{entry['mean_hit_ratio']:>8.4f}±{entry['stderr_hit_ratio']:.4f} "
            f"{entry['mean_final_regret']:>8.2f}±{entry['stderr_final_regret']:.2f}"
            f"  {entry['improvement_over']}"
        )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridcache",
        description="Edge-cloud caching simulator: hybrid bandit policy, "
        "baselines, and sweep harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="single seed (replaces the list)")
        p.add_argument("--horizon", type=int)
        p.add_argument("--library-size", type=int, dest="library_size")
        p.add_argument("--capacity", type=float)
        p.add_argument("--w-snm", type=float, dest="w_snm")
        p.add_argument("--beta", type=float, dest="exploration_beta",
                       help="UCB exploration constant")
        p.add_argument("--delta", type=float, dest="zipf_delta")
        p.add_argument("--requests-per-slot", type=int, dest="requests_per_slot")

    p_gen = sub.add_parser("generate", help="emit catalog and trace CSVs")
    common(p_gen)

    p_run = sub.add_parser("run", help="run policies over one workload")
    common(p_run)
    p_run.add_argument("--policy", help="run a single policy")
    p_run.add_argument("--catalog", help="load an existing catalog CSV")
    p_run.add_argument("--trace", help="load an existing trace CSV")

    p_sweep = sub.add_parser("sweep", help="sweep library size or capacity")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, dest="sweep_axis")
    p_sweep.add_argument(
        "--values",
        help="comma-separated sweep values",
    )

    p_rep = sub.add_parser("report", help="aggregate a sweep results CSV")
    p_rep.add_argument("input", help="sweep results CSV")
    p_rep.add_argument("--out", default="results")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "policy", None) is not None:
        overrides["policies"] = (args.policy,)
    if getattr(args, "values", None) is not None:
        overrides["sweep_values"] = _parse_value("sweep_values", args.values)
    return load_config(path=args.config, overrides=overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.input, args.out)
        config = _config_from_args(args)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "run":
            return cmd_run(config, args.catalog, args.trace)
        return cmd_sweep(config)  # argparse admits no other command
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except HybridCacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
