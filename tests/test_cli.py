"""Experiment runner: determinism, formats, exit codes, failure isolation."""

import json
import math

import numpy as np
import pytest

import bec1d.cli as cli
from bec1d import (
    ConvergenceError,
    ModelParams,
    critical_density,
    expected_largest,
    ids_limit,
    kernel_finite,
    kernel_with_condensate,
    solve_mu_finite,
)
from bec1d import correlations, thermodynamics


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestIdsCommand:
    def test_table_and_metadata(self, tmp_path):
        out = tmp_path / "ids.csv"
        code = run_cli([
            "ids", "--lambda", "1", "--e-grid", "0.5 1.0", "--box-length", "500",
            "--seeds", "5", "--base-seed", "42", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "energy"
        assert all("." not in col and "-" not in col for col in header)
        assert len(rows) == 2
        analytic = float(rows[1]["analytic"])
        assert analytic == pytest.approx(ids_limit(ModelParams(1.0), 1.0), rel=1e-15)
        mc = float(rows[1]["mc_mean"])
        assert mc == pytest.approx(analytic, rel=0.2)
        meta = json.loads((tmp_path / "ids.csv.meta.json").read_text())
        assert meta["command"] == "ids"
        assert meta["rows_written"] == 2
        assert meta["package_version"]
        assert meta["wall_time_seconds"] >= 0

    def test_reruns_are_byte_identical(self, tmp_path):
        args = [
            "ids", "--lambda", "1", "--e-grid", "0.5 1.0 2.0", "--box-length", "300",
            "--seeds", "4", "--base-seed", "7",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirrors_csv(self, tmp_path):
        base = [
            "ids", "--lambda", "1", "--e-grid", "1.0", "--box-length", "300",
            "--seeds", "3", "--base-seed", "1",
        ]
        csv_out = tmp_path / "r.csv"
        json_out = tmp_path / "r.json"
        assert run_cli(base + ["--out", str(csv_out), "--format", "csv"]) == 0
        assert run_cli(base + ["--out", str(json_out), "--format", "json"]) == 0
        _, rows = read_csv(csv_out)
        payload = json.loads(json_out.read_text())
        assert len(payload["rows"]) == 1
        assert float(rows[0]["mc_mean"]) == payload["rows"][0]["mc_mean"]


class TestValidation:
    def test_empty_grid_is_usage_error_without_output(self, tmp_path):
        out = tmp_path / "no.csv"
        code = run_cli(["ids", "--lambda", "1", "--seeds", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_non_increasing_grid(self, tmp_path):
        code = run_cli([
            "ids", "--e-grid", "2.0 1.0", "--seeds", "2", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_mu_and_rho_together(self, tmp_path):
        code = run_cli([
            "thermo", "--mu", "-0.5", "--rho", "0.3", "--seeds", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_analytic_failure_exit_code(self, tmp_path):
        # a positive mu passes validation but breaks the analytic column
        code = run_cli([
            "thermo", "--mu", "0.5", "--seeds", "2", "--box-length", "100",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["localize", "--rho", "0.2", "--box-length", "0"],
        ["localize", "--rho", "0.2", "--l-ladder", "0 500"],
        ["thermo", "--rho", "0.2", "--box-length", "-100"],
        ["thermo", "--rho", "0.2", "--box-length", "nan"],
        ["thermo", "--mu", "-0.5", "--box-length", "inf"],
        ["ids", "--e-grid", "-1 2"],
        ["ids", "--e-grid", "0.5 nan"],
        ["thermo", "--rho", "nan"],
        ["thermo", "--mu", "nan"],
        ["thermo", "--rho", "0.2", "--beta", "nan"],
        ["thermo", "--rho", "0.2", "--beta", "inf"],
        ["thermo", "--rho", "0.2", "--lambda", "nan"],
        ["correlate", "--rho", "0.2", "--r-grid", "0 nan"],
        ["localize", "--rho", "0.2", "--epsilon", "nan"],
        ["localize", "--rho", "0.2", "--epsilon", "0"],
        ["orderstats", "--delta", "nan"],
    ])
    def test_non_positive_or_non_finite_boxes_and_energies(self, tmp_path, monkeypatch, argv):
        # a zero box once made poisson_lengths redraw forever: fail, never loop
        def no_partition(*args):
            raise AssertionError("a partition was drawn")

        monkeypatch.setattr(cli, "poisson_lengths", no_partition)
        out = tmp_path / "x.csv"
        assert run_cli([*argv, "--seeds", "2", "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "x.csv.meta.json").exists()

    def test_io_failure_exit_code(self, tmp_path):
        code = run_cli([
            "ids", "--e-grid", "1.0", "--seeds", "1", "--box-length", "50",
            "--out", str(tmp_path / "missing" / "x.csv"),
        ])
        assert code == 4

    @pytest.mark.parametrize("extra", [
        ["--kind", "type2", "--m-large", "3", "--l-ladder", "1e4 1e5 1e6"],
        ["--m-large", "0", "--l-ladder", "1e4 1e5 1e6"],
        ["--l-ladder", "1e4 1.5e4 2e4"],  # box ratio <= 2: the classifier rejects the ladder
    ])
    def test_hierarchy_layout_and_ladder_errors(self, tmp_path, extra):
        out = tmp_path / "h.csv"
        code = run_cli(["hierarchy", "--rho", "0.015", "--out", str(out), *extra])
        assert code == 2
        assert not out.exists()
        assert not (tmp_path / "h.csv.meta.json").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "ids", "bogus": 1}))
        code = run_cli(["ids", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "intensity": 2.0, "e_grid": [0.5, 1.0], "box_length": 200.0,
            "seeds": 3, "base_seed": 5,
        }))
        out = tmp_path / "r.csv"
        code = run_cli([
            "ids", "--config", str(cfg), "--lambda", "1.0", "--out", str(out),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["config"]["intensity"] == 1.0
        assert meta["config"]["e_grid"] == [0.5, 1.0]


class TestTrialFailureIsolation:
    def test_one_bad_trial_does_not_abort(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = cli.counting_function

        def flaky(partition, energy):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConvergenceError("synthetic trial failure")
            return real(partition, energy)

        monkeypatch.setattr(cli, "counting_function", flaky)
        out = tmp_path / "r.csv"
        code = run_cli([
            "ids", "--lambda", "1", "--e-grid", "0.5 1.0", "--box-length", "200",
            "--seeds", "3", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["failed_trials"] == "1"
        assert rows[0]["status"] == "trial_failures"
        assert rows[1]["failed_trials"] == "0"

    def test_an_oversized_level_table_fails_the_trial(self, tmp_path):
        # beta = 1e-9 on L = 1e6 needs ~1e11 levels: a DomainError, not a MemoryError
        out = tmp_path / "l.csv"
        code = run_cli([
            "localize", "--lambda", "1", "--beta", "1e-9", "--rho", "0.5",
            "--box-length", "1e6", "--seeds", "1", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["failed_trials"] == "1"
        assert rows[0]["status"] == "trial_failures"

    def test_plain_value_error_propagates(self, tmp_path, monkeypatch):
        # only the typed numeric failures count as failed trials; anything
        # else is a defect and must surface
        def broken(partition, energy):
            raise ValueError("synthetic defect")

        monkeypatch.setattr(cli, "counting_function", broken)
        with pytest.raises(ValueError, match="synthetic defect"):
            run_cli([
                "ids", "--lambda", "1", "--e-grid", "0.5", "--box-length", "200",
                "--seeds", "2", "--out", str(tmp_path / "r.csv"),
            ])


class TestCorrelateReuse:
    """correlate solves the limit once per sweep and builds one table per trial."""

    R_GRID = [0.0, 1.0, 2.0, 5.0, 10.0, 50.0]

    def _run(self, tmp_path, *extra):
        out = tmp_path / "c.csv"
        code = run_cli([
            "correlate", "--lambda", "1", "--beta", "1", "--r-grid",
            " ".join(map(str, self.R_GRID)), "--box-length", "300", "--seeds", "3",
            "--base-seed", "4", "--out", str(out), *extra,
        ])
        assert code == 0
        return read_csv(out)[1]

    @pytest.mark.parametrize("fraction", [0.5, 1.5])
    def test_rows_equal_the_per_separation_calls(self, tmp_path, fraction):
        params = ModelParams(1.0)
        rho = fraction * critical_density(params, 1.0)
        rows = self._run(tmp_path, "--rho", repr(rho))
        parts = [cli._trial_partition(cli.ExperimentConfig("correlate", base_seed=4), 300.0, t)
                 for t in range(3)]
        mus = [solve_mu_finite(part, 1.0, rho) for part in parts]
        for row, r in zip(rows, self.R_GRID):
            trials = [kernel_finite(part, 1.0, mu, r) for part, mu in zip(parts, mus)]
            assert float(row["mc_mean"]) == float(np.asarray(trials).mean())
            assert float(row["analytic"]) == kernel_with_condensate(params, 1.0, rho, r)

    def test_one_limit_solve_and_one_table_per_trial(self, tmp_path, monkeypatch):
        calls = {"solve_mu_limit": 0, "build_level_table": 0}

        def counted(name):
            real = getattr(thermodynamics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counted(name)
            for module in (thermodynamics, correlations, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        self._run(tmp_path, "--rho", repr(0.5 * critical_density(ModelParams(1.0), 1.0)))
        assert calls == {"solve_mu_limit": 1, "build_level_table": 3}
        calls.update(solve_mu_limit=0, build_level_table=0)
        self._run(tmp_path, "--mu", "-0.5")
        assert calls == {"solve_mu_limit": 0, "build_level_table": 3}


class TestOtherCommands:
    def test_thermo_fixed_mu(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli([
            "thermo", "--lambda", "1", "--beta", "1", "--mu", "-0.5",
            "--l-ladder", "200 400", "--seeds", "4", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["mc_mean"]) == pytest.approx(float(row["analytic"]), rel=0.2)

    def test_thermo_fixed_rho(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli([
            "thermo", "--lambda", "1", "--beta", "1", "--rho", "0.1",
            "--box-length", "400", "--seeds", "4", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["observable"] == "mu"

    def test_correlate(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli([
            "correlate", "--lambda", "1", "--beta", "1", "--mu", "-0.5",
            "--r-grid", "0.0 1.0", "--box-length", "400", "--seeds", "5",
            "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["mc_mean"]) == pytest.approx(float(rows[0]["analytic"]), rel=0.25)

    def test_orderstats_analytic_columns(self, tmp_path):
        out = tmp_path / "o.csv"
        code = run_cli([
            "orderstats", "--lambda", "1", "--k", "500", "--seeds", "400",
            "--base-seed", "2", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        by_name = {row["statistic"]: row for row in rows}
        assert float(by_name["mean_largest"]["analytic"]) == pytest.approx(
            expected_largest(1.0, 500), rel=1e-15
        )
        assert float(by_name["mean_largest"]["mc_mean"]) == pytest.approx(
            expected_largest(1.0, 500), rel=0.05
        )
        assert float(by_name["gap_exceedance"]["analytic"]) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )

    def test_hierarchy_classification_in_metadata(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run_cli([
            "hierarchy", "--lambda", "1", "--beta", "1", "--rho", "0.015",
            "--kind", "type2", "--l-ladder", "1e4 1e5 1e6", "--out", str(out),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
        assert meta["classification"] == "type2"

    def test_localize(self, tmp_path):
        out = tmp_path / "l.csv"
        code = run_cli([
            "localize", "--lambda", "1", "--beta", "1", "--rho", "0.55",
            "--l-ladder", "200 400", "--seeds", "5", "--epsilon", "0.5",
            "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= float(row["median_fraction"]) <= 1.0
