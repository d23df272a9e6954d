"""The benchmark probe patches program names by lookup; they must exist.

perfbench/probe.py wraps each name it instruments by reading it from
its owner's __dict__, so renaming or deleting one would otherwise break
only the traced benchmark run, not the test suite. The same holds for
the trace attributes that perfbench reads to count events, the catalog
rows it reads sizes from, and the run results and placements that
perfbench/checks.py checks.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridcache.cli as cli
import hybridcache.engine as engine
from hybridcache.catalog import CatalogConfig, build_catalog
from hybridcache.policy import POLICY_NAMES, PopularPolicy
from hybridcache.popularity import AllocationEstimator
from hybridcache.workload import generate_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Import perfbench/<name>.py without putting perfbench/ on the path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


PATCHED_SPECIALLY = (
    (engine, "make_policy"),
    (engine, "run_simulation"),
    (cli, "run_simulation"),
    (cli, "sweep_results"),
    (AllocationEstimator, "estimate"),
)


def test_every_spanned_name_is_an_own_attribute():
    probe = load_perfbench("probe")
    assert probe.SPANNED
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in probe.SPANNED
        if attr not in vars(owner)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "owner, attr", PATCHED_SPECIALLY, ids=[f"{o.__name__}.{a}" for o, a in PATCHED_SPECIALLY]
)
def test_specially_patched_name_is_an_own_attribute(owner, attr):
    assert attr in vars(owner)


def test_trace_attributes_read_by_the_benchmark():
    catalog = build_catalog(CatalogConfig(library_size=20, w_snm=0.5, horizon=10), seed=1)
    trace = generate_trace(catalog, 10, 6, 0.5, 0.8, seed=2)
    assert trace.horizon == 10
    assert len(trace.events) == len(trace.ids) == 60
    slots = np.repeat(np.arange(1, trace.horizon + 1), np.diff(trace.offsets))
    assert [s for s, _ in trace.events] == slots.tolist()
    assert [cid for _, cid in trace.events] == trace.ids.tolist()


def test_catalog_attributes_read_by_the_benchmark():
    # perfbench/checks.py reads catalog.items as rows with .id and .size
    catalog = build_catalog(CatalogConfig(library_size=20, w_snm=0.5, horizon=10), seed=1)
    catalog = dataclasses.replace(catalog, sizes=np.full(20, 2.5))
    rows = catalog.items
    assert [row.id for row in rows] == catalog.ids.tolist()
    assert [row.size for row in rows] == catalog.sizes.tolist()


# a tracing probe also wraps place, update and the estimator in spans
@pytest.mark.parametrize(
    "policy, tracing",
    [
        pytest.param(policy, tracing, id=policy + ("-traced" if tracing else ""))
        for tracing in (False, True)
        for policy in POLICY_NAMES
    ],
)
def test_benchmark_check_passes_a_run(policy, tracing):
    probes = load_perfbench("probe")
    checks = load_perfbench("checks")
    catalog = build_catalog(
        CatalogConfig(library_size=20, w_snm=0.5, horizon=10), seed=1
    )
    trace = generate_trace(catalog, 10, 6, 0.5, 0.8, seed=2)
    with probes.Probe(tracing).installed() as probe:
        engine.run_simulation(catalog, trace, policy, 4.0, seed=3)
    (record,) = probe.runs
    assert len(record.placements) == trace.horizon
    assert checks.run_problems(record, 10, 6, checks._slot_counts) == []
    if tracing:
        spanned = {span[0] for span in probe.spans}
        assert {f"policy.place.{policy}", f"policy.update.{policy}"} <= spanned
        assert ("popularity.estimate" in spanned) == (policy == "hybrid")


def test_popular_fallback_record_is_counted_by_the_probe(caplog):
    # probe.py counts policy.popular.random_fallbacks by this logger and text
    probes = load_perfbench("probe")
    catalog = build_catalog(CatalogConfig(library_size=20, w_snm=0.5, horizon=10), seed=1)
    policy = PopularPolicy(catalog, 4.0, np.random.default_rng(3))
    with caplog.at_level("WARNING", logger=probes.POLICY_LOGGER):
        policy.place(1)
    (record,) = caplog.records
    assert record.name == probes.POLICY_LOGGER
    assert probes.FALLBACK_MESSAGE in record.getMessage()
    trace = generate_trace(catalog, 10, 6, 0.5, 0.8, seed=2)
    with probes.Probe(False).installed() as probe:
        engine.run_simulation(catalog, trace, "popular", 4.0, seed=3)
    assert probe.counts["policy.popular.random_fallbacks"] == 1


def test_per_slot_csv_equals_the_pinned_digest(tmp_path):
    # cli.cmd_run writes per_slot.csv from the run's per-slot records by
    # field name; golden.json pins its bytes for the smoke pass
    workloads = load_perfbench("workloads")
    checks = load_perfbench("checks")
    workload = workloads.WORKLOADS["request-heavy"]
    files = workload.run(workload, 1000, 20, tmp_path)
    pinned = checks.load_golden()[workload.name][checks.golden_key(1000, 20)]["files"]
    for name in ("per_slot.csv", "metrics.json"):
        assert checks.sha256_file(files[name]) == pinned[name], name


@pytest.fixture
def perfbench_scripts(monkeypatch, tmp_path):
    """perfbench's modules imported as perfbench/run.py imports them, from
    its own directory, and dropped again afterwards; work files go to
    tmp_path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        measure = importlib.import_module("measure")
        monkeypatch.setattr(measure, "OUT_DIR", tmp_path)
        yield importlib.import_module
    finally:
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]


def test_self_test_fails_a_perturbed_record_by_its_output_check(perfbench_scripts):
    # the self-test's "a perturbed output is counted in failed_runs" step
    # copies the first slot record with dataclasses.replace; the output
    # check must fail it, not an exception raised while perturbing it
    selftest = perfbench_scripts("selftest")
    measure = perfbench_scripts("measure")
    checks = perfbench_scripts("checks")
    workload = perfbench_scripts("workloads").WORKLOADS["paper-sweep"]
    with selftest.perturbed_first_run(False):
        line, record, _ = measure.measure(
            workload, measure.DEFAULT_SEED, 0, False,
            horizon=measure.SMOKE_HORIZON, golden=checks.load_golden(),
        )
    assert line["failed"] >= 1 and not line["correct"]
    messages = record["messages"]
    assert any("a slot's hit ratio exceeds its oracle ratio" in m for m in messages)
    assert not any("raised" in m or "Traceback" in m for m in messages), messages
