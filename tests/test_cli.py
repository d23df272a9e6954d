import json

import pytest

from hybridcache.cli import (
    ExperimentConfig,
    aggregate_results,
    load_config,
    main,
    read_sweep_csv,
)
from hybridcache.errors import ConfigError, TraceParseError

SMALL = [
    "--horizon", "30",
    "--library-size", "20",
    "--capacity", "5",
    "--requests-per-slot", "20",
]


class TestConfig:
    def test_defaults_match_paper_setup(self):
        cfg = ExperimentConfig().validate()
        assert cfg.horizon == 600
        assert cfg.library_size == 150
        assert cfg.w_snm == 0.8
        assert cfg.exploration_beta == 2.0
        assert len(cfg.seeds) == 10

    def test_file_then_env_then_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nhorizon = 50\ncapacity = 7\n")
        cfg = load_config(
            path=path,
            env={"HYBRIDCACHE_CAPACITY": "9"},
            overrides={"w_snm": 0.5},
        )
        assert cfg.horizon == 50
        assert cfg.capacity == 9.0
        assert cfg.w_snm == 0.5

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("horzon = 50\n")
        with pytest.raises(ConfigError):
            load_config(path=path, env={})

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="w_snm"):
            ExperimentConfig(w_snm=1.5).validate()
        with pytest.raises(ConfigError, match="sweep_values"):
            ExperimentConfig(sweep_values=(3.0, 2.0)).validate()
        with pytest.raises(ConfigError, match="sweep_axis"):
            ExperimentConfig(sweep_axis="delta").validate()

    def test_hash_is_stable_and_sensitive(self):
        a = ExperimentConfig().hash()
        assert a == ExperimentConfig().hash()
        assert a != ExperimentConfig(capacity=30.0).hash()


class TestGenerate:
    def test_emits_files_with_row_contract(self, tmp_path):
        out = tmp_path / "gen"
        rc = main(["generate", *SMALL, "--w-snm", "0.8", "--out", str(out)])
        assert rc == 0
        trace_rows = (out / "trace.csv").read_text().splitlines()
        assert len(trace_rows) == 1 + 30 * 20
        catalog_rows = (out / "catalog.csv").read_text().splitlines()[1:]
        assert len(catalog_rows) == 20
        assert sum(1 for r in catalog_rows if ",SNM," in r) == 16

    def test_deterministic_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", *SMALL, "--out", str(out1)])
        main(["generate", *SMALL, "--out", str(out2)])
        for name in ("catalog.csv", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestRun:
    def test_metrics_schema(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["run", *SMALL, "--policy", "hybrid", "--seed", "5",
             "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert "config_hash" in payload
        (summary,) = payload["runs"]
        assert {"mean_hit_ratio", "final_regret", "policy", "seed"} <= set(summary)
        per_slot = (out / "per_slot.csv").read_text().splitlines()
        assert len(per_slot) == 1 + 30

    def test_zero_capacity_zero_hits(self, tmp_path):
        out = tmp_path / "zero"
        main(["run", *SMALL, "--capacity", "0", "--policy", "random",
              "--seed", "5", "--out", str(out)])
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["runs"][0]["mean_hit_ratio"] == 0.0

    def test_runs_from_generated_files(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", *SMALL, "--out", str(gen)])
        out = tmp_path / "run"
        rc = main(
            ["run", *SMALL, "--policy", "popular", "--seed", "5",
             "--catalog", str(gen / "catalog.csv"),
             "--trace", str(gen / "trace.csv"), "--out", str(out)]
        )
        assert rc == 0

    def test_unknown_policy_exit_code(self, tmp_path):
        rc = main(["run", *SMALL, "--policy", "lfu", "--seed", "5",
                   "--out", str(tmp_path / "x")])
        assert rc == 2


class TestSweep:
    def test_cartesian_row_count(self, tmp_path):
        out = tmp_path / "sweep"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "horizon = 20\nlibrary_size = 20\nrequests_per_slot = 10\n"
            "seeds = 1,2\npolicies = hybrid,random\n"
        )
        rc = main(
            ["sweep", "--config", str(cfg_path), "--axis", "capacity",
             "--values", "2,4", "--out", str(out)]
        )
        assert rc == 0
        rows = read_sweep_csv(out / "sweep.csv")
        assert len(rows) == 2 * 2 * 2
        assert all(r["config_hash"] == rows[0]["config_hash"] for r in rows)

    def test_unparsable_values_exit_code(self, tmp_path):
        rc = main(["sweep", "--values", "a,b", "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_library_size_values_exit_code(self, tmp_path):
        for values in ("20.7", "1,20"):
            rc = main(["sweep", "--axis", "library_size", "--values", values,
                       "--out", str(tmp_path)])
            assert rc == 2, values
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_report_round_trip(self, tmp_path):
        out = tmp_path / "sweep"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "horizon = 20\nlibrary_size = 20\nrequests_per_slot = 10\n"
            "seeds = 1,2\npolicies = hybrid,popular\n"
        )
        main(["sweep", "--config", str(cfg_path), "--axis", "library_size",
              "--values", "10,20", "--out", str(out)])
        rc = main(["report", str(out / "sweep.csv"), "--out", str(out)])
        assert rc == 0
        assert (out / "report.csv").exists()


class TestReport:
    def test_relative_improvement(self):
        rows = []
        for policy, hr in (("hybrid", 0.6), ("popular", 0.5)):
            for seed in (1, 2):
                rows.append(
                    {"axis": "capacity", "value": 10.0, "policy": policy,
                     "seed": seed, "mean_hit_ratio": hr,
                     "final_regret": 1.0, "config_hash": "x"}
                )
        agg = aggregate_results(rows)
        hybrid = next(e for e in agg if e["policy"] == "hybrid")
        assert "popular:+20.00%" in hybrid["improvement_over"]

    def test_single_policy_no_improvement(self):
        rows = [
            {"axis": "capacity", "value": 10.0, "policy": "popular",
             "seed": 1, "mean_hit_ratio": 0.5, "final_regret": 1.0,
             "config_hash": "x"}
        ]
        (entry,) = aggregate_results(rows)
        assert entry["improvement_over"] == ""

    def test_empty_csv_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceParseError):
            read_sweep_csv(path)
        rc = main(["report", str(path), "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for bad_row in (
            "capacity,oops,hybrid,1,0.5,1.0,x\n",
            "capacity,10,hybrid,1,0.5,1.0,x,extra\n",
            "capacity,10,hybrid,1,0.5,1.0\n",
        ):
            path.write_text(
                "axis,value,policy,seed,mean_hit_ratio,final_regret,config_hash\n"
                "capacity,10,hybrid,1,0.5,1.0,x\n" + bad_row
            )
            with pytest.raises(TraceParseError) as exc:
                read_sweep_csv(path)
            assert exc.value.line == 3, bad_row

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["report", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 3
