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


def edit(rows, line, field, value):
    """rows with field `field` of the row at 1-based line `line` set."""
    row = rows[line - 1].split(",")
    row[field] = value
    return [*rows[: line - 1], ",".join(row), *rows[line:]]


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


class TestBadValuesExitCode:
    """Each bad value ends in exit 2 naming the field, before any output."""

    def _expect_exit_2(self, argv, field, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_alloc_window_below_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDCACHE_ALLOC_WINDOW", "0")
        self._expect_exit_2(["run", *SMALL], "alloc_window", tmp_path, capsys)

    def test_alloc_smoothing_outside_unit_interval(self, tmp_path, capsys, monkeypatch):
        for value in ("1.5", "-0.1"):
            monkeypatch.setenv("HYBRIDCACHE_ALLOC_SMOOTHING", value)
            self._expect_exit_2(["run", *SMALL], "alloc_smoothing", tmp_path, capsys)

    def test_negative_seed(self, tmp_path, capsys):
        self._expect_exit_2(["run", *SMALL, "--seed", "-1"], "seeds", tmp_path, capsys)

    def test_repeated_seed(self, tmp_path, capsys, monkeypatch):
        # a repeated seed would write each of its sweep rows twice
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig(seeds=(5, 5)).validate()
        monkeypatch.setenv("HYBRIDCACHE_SEEDS", "5,6,5")
        argv = ["sweep", "--horizon", "20", "--values", "10"]
        self._expect_exit_2(argv, "seeds", tmp_path, capsys)

    def test_repeated_policy(self, tmp_path, capsys, monkeypatch):
        # a repeated policy would write each of its sweep rows twice
        with pytest.raises(ConfigError, match="policies must not repeat"):
            ExperimentConfig(policies=("hybrid", "random", "hybrid")).validate()
        argv = ["sweep", "--horizon", "20", "--values", "10"]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("policies = popular,popular\n")
        self._expect_exit_2([*argv, "--config", str(cfg)], "policies", tmp_path, capsys)
        monkeypatch.setenv("HYBRIDCACHE_POLICIES", "hybrid,hybrid")
        self._expect_exit_2(argv, "policies", tmp_path, capsys)

    def test_non_finite_capacity(self, tmp_path, capsys):
        for value in ("nan", "inf"):
            argv = ["run", *SMALL, "--capacity", value]
            self._expect_exit_2(argv, "capacity", tmp_path, capsys)

    def test_non_finite_sweep_values(self, tmp_path, capsys):
        for values in ("10,nan", "10,inf"):
            argv = ["sweep", "--axis", "capacity", "--values", values]
            self._expect_exit_2(argv, "sweep_values", tmp_path, capsys)

    def test_negative_capacity_sweep_value(self, tmp_path, capsys):
        argv = ["sweep", "--axis", "capacity", "--values=-1,10"]
        self._expect_exit_2(argv, "sweep_values", tmp_path, capsys)
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_horizon_past_2_to_the_32(self, tmp_path, capsys):
        ExperimentConfig(horizon=2**32).validate()
        for value in (str(2**32 + 1), "5000000000"):
            argv = ["run", *SMALL, "--horizon", value]
            self._expect_exit_2(argv, "horizon", tmp_path, capsys)


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

    def test_no_slot_beats_the_oracle_just_below_a_whole_capacity(self, tmp_path):
        # 3 unit items fit in 2.9999999995 plus the fill slack, for the
        # policies and the oracle alike
        out = tmp_path / "run"
        rc = main(["run", "--seed", "1000", "--horizon", "50",
                   "--capacity", "2.9999999995", "--out", str(out)])
        assert rc == 0
        header, *rows = (out / "per_slot.csv").read_text().splitlines()
        assert header.split(",")[3:5] == ["hit_ratio", "oracle_hit_ratio"]
        assert len(rows) == 3 * 50
        for row in rows:
            hit, oracle = map(float, row.split(",")[3:5])
            assert hit <= oracle, row

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

    @pytest.mark.parametrize("last", [12, 30])
    def test_short_trace_runs_the_horizon_with_a_warning(
        self, tmp_path, capsys, last
    ):
        gen = tmp_path / "gen"
        main(["generate", *SMALL, "--out", str(gen)])
        (gen / "trace.csv").write_text(f"slot,content_id\n1,3\n{last},4\n")
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main(["run", *SMALL, "--policy", "random", "--seed", "5",
                   "--catalog", str(gen / "catalog.csv"),
                   "--trace", str(gen / "trace.csv"), "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        if last < 30:  # SMALL runs 30 slots
            assert f"ends at slot {last}" in err and "horizon 30" in err
        else:
            assert "warning" not in err
        per_slot = (out / "per_slot.csv").read_text().splitlines()
        assert len(per_slot) == 1 + 30

    def test_trace_without_catalog_exit_code(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        main(["generate", *SMALL, "--out", str(gen)])
        out = tmp_path / "run"
        rc = main(["run", *SMALL, "--trace", str(gen / "trace.csv"),
                   "--out", str(out)])
        assert rc == 2
        assert "--catalog" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body",
        ["", "1,2,7\n", "1000000000000000,3\n", "31,3\n"],
        # SMALL runs 30 slots, so slot 31 is past the horizon
        ids=["no-events", "three-fields", "huge-slot", "slot-past-horizon"],
    )
    def test_bad_trace_exit_code(self, tmp_path, capsys, body):
        gen = tmp_path / "gen"
        main(["generate", *SMALL, "--out", str(gen)])
        (gen / "trace.csv").write_text("slot,content_id\n" + body)
        out = tmp_path / "run"
        rc = main(["run", *SMALL, "--catalog", str(gen / "catalog.csv"),
                   "--trace", str(gen / "trace.csv"), "--out", str(out)])
        assert rc == 2
        assert "line 2:" in capsys.readouterr().err
        assert not out.exists()

    # edits of a generated SMALL catalog: ids 1..4 are IRM, 5..20 SNM;
    # each is rejected at the given line with the given reason
    BAD_CATALOGS = {
        "header-only": (lambda rows: rows[:1], 2, "no contents"),
        "short-row": (
            lambda rows: [*rows[:3], "3,IRM,1.0,0.5", *rows[4:]], 4, "this one 4"
        ),
        "eleventh-field": (
            lambda rows: [*rows[:5], rows[5] + ",7", *rows[6:]], 6, "this one 11"
        ),
        "irm-pulse-filled": (
            lambda rows: [*rows[:2], rows[2].removesuffix(",,,") + ",3,20,2.0",
                          *rows[3:]],
            3,
            "an IRM row",
        ),
        "nan-size": (lambda rows: edit(rows, 7, 2, "nan"), 7, "size"),
        "inf-size": (lambda rows: edit(rows, 2, 2, "inf"), 2, "size"),
        "nan-volume": (lambda rows: edit(rows, 12, 9, "nan"), 12, "volume"),
        "inf-volume": (lambda rows: edit(rows, 21, 9, "inf"), 21, "volume"),
        "duplicate-id": (lambda rows: edit(rows, 9, 0, "3"), 9, "repeated"),
        "id-past-F": (lambda rows: edit(rows, 4, 0, "21"), 4, "outside 1..20"),
        "id-zero": (lambda rows: edit(rows, 16, 0, "0"), 16, "outside 1..20"),
        "id-underscore": (lambda rows: edit(rows, 3, 0, "1_0"), 3, "'1_0' to int"),
        "id-spaces": (lambda rows: edit(rows, 4, 0, " 1.0 "), 4, "' 1.0 ' to int"),
        "arrival-plus": (lambda rows: edit(rows, 8, 7, "+3"), 8, "'+3' to int"),
        "lifespan-exponent": (
            lambda rows: edit(rows, 10, 8, "1e3"), 10, "'1e3' to int"
        ),
        "size-underscore": (
            lambda rows: edit(rows, 11, 2, "1_0"), 11, "'1_0' to float"
        ),
    }

    @pytest.mark.parametrize("name", BAD_CATALOGS)
    def test_bad_catalog_exit_code(self, tmp_path, capsys, name):
        make_bad, line, reason = self.BAD_CATALOGS[name]
        gen = tmp_path / "gen"
        main(["generate", *SMALL, "--out", str(gen)])
        rows = (gen / "catalog.csv").read_text().splitlines()
        (gen / "catalog.csv").write_text("\n".join(make_bad(rows)) + "\n")
        out = tmp_path / "run"
        rc = main(["run", *SMALL, "--catalog", str(gen / "catalog.csv"),
                   "--trace", str(gen / "trace.csv"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line}:" in err and reason in err
        assert not out.exists()

    def test_catalog_rows_in_any_order(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", *SMALL, "--out", str(gen)])
        runs = []
        for reverse in (False, True):
            if reverse:
                header, *rows = (gen / "catalog.csv").read_text().splitlines()
                (gen / "catalog.csv").write_text(
                    "\n".join([header, *rows[::-1]]) + "\n"
                )
            out = tmp_path / f"run{reverse}"
            rc = main(["run", *SMALL, "--policy", "hybrid", "--seed", "5",
                       "--catalog", str(gen / "catalog.csv"),
                       "--trace", str(gen / "trace.csv"), "--out", str(out)])
            assert rc == 0
            runs.append((out / "per_slot.csv").read_bytes())
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(1, "nan", "value", id="nan-value"),
            pytest.param(4, "nan", "mean_hit_ratio", id="nan-hit-ratio"),
            pytest.param(4, "1.7", "mean_hit_ratio", id="hit-ratio-above-one"),
            pytest.param(4, "-0.1", "mean_hit_ratio", id="negative-hit-ratio"),
            pytest.param(5, "-inf", "final_regret", id="infinite-regret"),
            pytest.param(5, "-1.0", "final_regret", id="negative-regret"),
            pytest.param(3, "-1", "seed", id="negative-seed"),
            pytest.param(2, "lru", "policy", id="unknown-policy"),
            pytest.param(0, "horizon", "axis", id="unknown-axis"),
            # rows that do not belong to one sweep
            pytest.param(6, "y", "config_hash", id="other-config-hash"),
            pytest.param(0, "library_size", "axis", id="other-axis"),
            pytest.param(2, "hybrid", "repeat", id="repeated-value-policy-seed"),
            pytest.param(1, "-5.0", "capacity", id="negative-capacity"),
        ],
    )
    def test_bad_value_reports_line(self, tmp_path, field, value, message):
        rows = [
            "axis,value,policy,seed,mean_hit_ratio,final_regret,config_hash",
            "capacity,10.0,hybrid,1,0.5,1.0,x",
            "capacity,10.0,random,1,0.25,3.0,x",
        ]
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(edit(rows, 3, field, value)) + "\n")
        with pytest.raises(TraceParseError, match=message) as exc:
            read_sweep_csv(path)
        assert exc.value.line == 3
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 2
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("value", ["20.7", "1.0", "-4.0"])
    def test_library_size_value_must_be_whole_and_at_least_two(self, tmp_path, value):
        rows = [
            "axis,value,policy,seed,mean_hit_ratio,final_regret,config_hash",
            "library_size,20.0,hybrid,1,0.5,1.0,x",
            f"library_size,{value},hybrid,1,0.5,1.0,x",
        ]
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(TraceParseError, match="library_size value") as exc:
            read_sweep_csv(path)
        assert exc.value.line == 3

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["report", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 3
