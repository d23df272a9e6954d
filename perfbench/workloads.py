"""The benchmark's workloads, each driven through hybridcache's public API.

Every pass runs all three policies on inputs made from the seed alone.
A pass returns the output files it left in its work directory, so the
output check can digest them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import hybridcache.cli as cli
import hybridcache.engine as engine

POLICIES = ("hybrid", "popular", "random")
FULL_HORIZON = 600
W_SNM = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    library_size: int
    requests_per_slot: int
    capacities: tuple
    run: Callable  # (workload, seed, horizon, workdir) -> {file name: path}

    @property
    def runs_per_pass(self) -> int:
        return len(self.capacities) * len(POLICIES)

    def config(self, seed: int, horizon: int) -> cli.ExperimentConfig:
        return cli.ExperimentConfig(
            horizon=horizon,
            library_size=self.library_size,
            capacity=self.capacities[-1],
            w_snm=W_SNM,
            requests_per_slot=self.requests_per_slot,
            seeds=(seed,),
            sweep_values=self.capacities,
        ).validate()

    def flags(self, seed: int, horizon: int) -> list:
        return [
            "--seed", str(seed),
            "--horizon", str(horizon),
            "--library-size", str(self.library_size),
            "--requests-per-slot", str(self.requests_per_slot),
            "--w-snm", str(W_SNM),
        ]

    def setup(self, seed: int, horizon: int):
        """The set-up users pay per seed: build_catalog plus generate_trace."""
        config = self.config(seed, horizon)
        return cli.make_workload(config, self.library_size, seed)


def _cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hybridcache {argv[0]} exited with code {code}")


def _paper_sweep(w: Workload, seed: int, horizon: int, workdir) -> dict:
    values = ",".join(str(c) for c in w.capacities)
    _cli(["sweep", *w.flags(seed, horizon), "--axis", "capacity",
          "--values", values, "--out", str(workdir)])
    _cli(["report", str(workdir / "sweep.csv"), "--out", str(workdir)])
    return {name: workdir / name for name in ("sweep.csv", "report.csv")}


def _request_heavy(w: Workload, seed: int, horizon: int, workdir) -> dict:
    flags = [*w.flags(seed, horizon), "--out", str(workdir)]
    _cli(["generate", *flags])
    _cli(["run", *flags, "--capacity", str(w.capacities[-1]),
          "--catalog", str(workdir / "catalog.csv"),
          "--trace", str(workdir / "trace.csv")])
    names = ("catalog.csv", "trace.csv", "per_slot.csv", "metrics.json")
    return {name: workdir / name for name in names}


def _library_heavy(w: Workload, seed: int, horizon: int, workdir) -> dict:
    config = w.config(seed, horizon)
    catalog, trace = cli.make_workload(config, w.library_size, seed)
    for policy in POLICIES:
        engine.run_simulation(
            catalog,
            trace,
            policy,
            config.capacity,
            seed,
            exploration_beta=config.exploration_beta,
            alloc_window=config.alloc_window,
            alloc_smoothing=config.alloc_smoothing,
            config_hash=config.hash(),
        )
    return {}


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-sweep",
            library_size=150,
            requests_per_slot=100,
            capacities=(10.0, 20.0, 30.0, 40.0),
            run=_paper_sweep,
        ),
        Workload(
            name="request-heavy",
            library_size=150,
            requests_per_slot=2000,
            capacities=(40.0,),
            run=_request_heavy,
        ),
        Workload(
            name="library-heavy",
            library_size=5000,
            requests_per_slot=100,
            capacities=(40.0,),
            run=_library_heavy,
        ),
    )
}
