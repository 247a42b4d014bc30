import json
import math

import numpy as np
import pytest

from phasecov.cli import (EVOLVE_HEADER, EXIT_IO, EXIT_OK, EXIT_USAGE,
                          EXIT_VIOLATION, RATES_HEADER, SCAN_HEADER,
                          TOL_ENV_VAR, main)
from phasecov.models import OhmicParams, ohmic_closed_form


def _read_csv(path):
    lines = path.read_text().strip("\n").split("\n")
    header = lines[0]
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _col(rows, idx):
    return np.array([float(r[idx]) for r in rows])


class TestEvolve:
    def test_weak_coupling_population_rises_to_thermal_value(self, tmp_path):
        out = tmp_path / "ev.csv"
        code = main(["evolve", "--model", "thermal", "--R", "0.01", "--N", "1",
                     "--p1-0", "0", "--t-max", "600", "--steps", "2000",
                     "--out", str(out)])
        assert code == EXIT_OK
        header, rows = _read_csv(out)
        assert header == EVOLVE_HEADER
        assert len(rows) == 2000
        p1 = _col(rows, 1)
        assert np.all(np.diff(p1) >= -1e-14)
        assert abs(p1[-1] - 2.0 / 3.0) < 1e-7

    def test_strong_coupling_population_oscillates(self, tmp_path):
        out = tmp_path / "ev.csv"
        code = main(["evolve", "--model", "thermal", "--R", "10", "--N", "0",
                     "--p1-0", "0", "--t-max", "6", "--steps", "3000",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, rows = _read_csv(out)
        p1 = _col(rows, 1)
        interior_max = np.sum((p1[1:-1] > p1[:-2] + 1e-12)
                              & (p1[1:-1] > p1[2:] + 1e-12))
        assert interior_max >= 2

    def test_zero_constant_rates_freeze_the_state(self, tmp_path):
        out = tmp_path / "ev.csv"
        code = main(["evolve", "--model", "constant", "--g1", "0", "--g2", "0",
                     "--g3", "0", "--t-max", "1", "--p1-0", "0.4",
                     "--re-alpha-0", "0.2", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = _read_csv(out)
        assert np.all(_col(rows, 1) == 0.4)
        assert np.all(_col(rows, 2) == 0.2)

    def test_nonphysical_constant_generator_is_usage_error(self, tmp_path, capsys):
        # gamma1 = 2, gamma2 = -1 from P1(0) = 1: P1 = 2 exp(-t/2) - 1 turns
        # negative at t = 2 ln 2, between two grid points
        args = ["--model", "constant", "--g1", "2", "--g2=-1", "--t-max", "10",
                "--steps", "200"]
        t = np.linspace(0.0, 10.0, 200)
        first_bad = float(t[np.argmax(2.0 * np.exp(-t / 2.0) - 1.0 < 0.0)])
        assert main(["evolve", *args, "--out", str(tmp_path / "ev.csv")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"t = {first_bad!r}" in err
        # the constant model has no parameter to sweep
        assert main(["scan", *args, "--param", "N", "--values", "1",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
        assert main(["cp-check", *args, "--out", str(tmp_path / "cp.json")]) \
            == EXIT_VIOLATION

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["evolve", "--model", "both", "--R", "0.3", "--N", "0.5",
                "--s", "2", "--t-max", "5", "--steps", "64"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestCpCheck:
    def test_thermal_is_cp_everywhere(self, tmp_path):
        out = tmp_path / "cp.json"
        code = main(["cp-check", "--model", "thermal", "--R", "10", "--N", "1",
                     "--t-max", "6", "--steps", "100", "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["summary"]["all_cp"] is True
        assert rep["summary"]["first_violation_t"] is None
        assert all(r["agreement"] for r in rep["results"])

    def test_negative_dephasing_flags_violation(self, tmp_path):
        out = tmp_path / "cp.json"
        code = main(["cp-check", "--model", "constant", "--g3", "-0.1",
                     "--t-max", "1", "--steps", "11", "--out", str(out)])
        assert code == EXIT_VIOLATION
        rep = json.loads(out.read_text())
        # t = 0 is CP with saturated margins; the first grid point after is not
        first = rep["results"][0]
        assert first["paper_verdict"] and first["margin_i"] == 0.0
        assert first["margin_iv"] == 0.0
        assert rep["summary"]["first_violation_t"] == pytest.approx(0.1)

    def test_method_selection(self, tmp_path):
        out = tmp_path / "cp.json"
        code = main(["cp-check", "--model", "thermal", "--R", "0.25",
                     "--t-max", "2", "--steps", "5", "--method", "choi",
                     "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert "choi_min_eig" in rep["results"][0]
        assert "margin_i" not in rep["results"][0]


    @pytest.mark.parametrize("method", ["paper", "choi", "both"])
    @pytest.mark.parametrize("model_args,code", [
        (["--model", "thermal", "--R", "10", "--N", "1", "--t-max", "6"], EXIT_OK),
        (["--model", "constant", "--g3=-0.1", "--w", "0.7", "--t-max", "1"],
         EXIT_VIOLATION),
    ])
    def test_report_has_the_json_dumps_layout(self, tmp_path, method, model_args, code):
        out = tmp_path / "cp.json"
        assert main(["cp-check", *model_args, "--method", method, "--steps", "25",
                     "--out", str(out)]) == code
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_json_cells_are_spelled_as_json_dumps_spells_them():
    from phasecov.cli import _json_cells
    values = np.array([0.1, -0.0, 1e-300, math.nan, math.inf, -math.inf])
    assert _json_cells(values) == [json.dumps(v) for v in values.tolist()]
    assert _json_cells(np.array([True, False])) == ["true", "false"]


class TestRates:
    def test_weak_coupling_rates_nonnegative(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rates", "--model", "thermal", "--R", "0.25", "--N", "1",
                     "--t-max", "10", "--steps", "200", "--out", str(out)]) == EXIT_OK
        header, rows = _read_csv(out)
        assert header == RATES_HEADER
        assert np.all(_col(rows, 1) >= 0) and np.all(_col(rows, 2) >= 0)

    def test_singularity_flagged_in_sidecar(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rates", "--model", "thermal", "--R", "10", "--N", "0",
                     "--t-max", "2", "--steps", "80", "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((tmp_path / "r.csv.singularities.json").read_text())
        assert sidecar["singular_times"][0] == pytest.approx(0.8242, abs=1e-3)
        assert sidecar["suppressed_rows"]
        _, rows = _read_csv(out)
        assert any(r[2] == "" for r in rows)  # empty gamma2 cells near the pole

    def test_ohmic_rate_column_matches_closed_form(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rates", "--model", "ohmic", "--s", "1", "--alpha", "0.1",
                     "--kernel", "paper", "--T", "0", "--t-max", "5",
                     "--steps", "40", "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        p = OhmicParams(alpha=0.1, s=1.0, omega_c=1.0, T=0.0, kernel="paper")
        for r in rows:
            t, g3 = float(r[0]), float(r[3])
            u = t
            expected = 4 * 0.1 * u / (1 + u * u) ** 2
            assert g3 == pytest.approx(expected, abs=1e-7)
            assert ohmic_closed_form(p, t)[0] == pytest.approx(expected, rel=1e-10)


class TestScan:
    def test_temperature_damps_oscillations(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["scan", "--model", "thermal", "--R", "10", "--p1-0", "0",
                     "--param", "N", "--values", "0,1,3,10", "--t-max", "3",
                     "--steps", "1500", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = _read_csv(out)
        assert header == SCAN_HEADER
        amp = _col(rows, 4)
        assert np.all(np.diff(amp) < 0)  # strictly decreasing in N
        assert all(r[5] == "NonMarkovian" for r in rows)

    def test_ohmicity_crossover_verdicts(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["scan", "--model", "ohmic", "--kernel", "literature",
                     "--param", "s", "--values", "1,3", "--t-max", "30",
                     "--steps", "60", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = _read_csv(out)
        assert [r[5] for r in rows] == ["Markovian", "NonMarkovian"]

    def test_coupling_crossover_verdicts(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["scan", "--model", "thermal", "--N", "0", "--param", "R",
                     "--values", "0.25,10", "--t-max", "6", "--steps", "60",
                     "--p1-0", "0", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = _read_csv(out)
        assert [r[5] for r in rows] == ["Markovian", "NonMarkovian"]
        assert rows[0][6] == "" and float(rows[1][6]) == pytest.approx(0.824, abs=1e-3)

    @pytest.mark.parametrize("model,param,used", [
        ("ohmic", "N", "s, alpha, omega_c, T"),
        ("thermal", "s", "R, N"),
        ("both", "g1", "R, N, s, alpha, omega_c, T"),
        ("tabulated", "R", "no scan parameter"),
    ])
    def test_parameter_the_model_ignores_is_usage_error(self, tmp_path, capsys,
                                                        model, param, used):
        out = tmp_path / "s.csv"
        # tabulated needs --rates-file to pass validation; it is never read
        code = main(["scan", "--model", model, "--rates-file", "unused.csv",
                     "--param", param, "--values", "0,1,5", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.rstrip().endswith(f"it uses {used}")
        assert not out.exists()

    def test_unknown_parameter_is_usage_error(self, tmp_path, capsys):
        code = main(["scan", "--model", "thermal", "--param", "bogus",
                     "--values", "1,2", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err


class TestPlumbing:
    def test_usage_errors(self, capsys):
        assert main(["evolve", "--model", "nope"]) == EXIT_USAGE
        assert main(["evolve", "--model", "thermal", "--steps", "1"]) == EXIT_USAGE
        assert main(["evolve", "--model", "thermal", "--R", "-1"]) == EXIT_USAGE
        assert main(["evolve", "--model", "tabulated"]) == EXIT_USAGE
        capsys.readouterr()

    def test_io_error(self, capsys):
        code = main(["evolve", "--model", "constant",
                     "--out", "/no/such/dir/x.csv"])
        assert code == EXIT_IO
        capsys.readouterr()

    def test_negative_number_in_scientific_notation(self, tmp_path):
        out = tmp_path / "ev.csv"
        assert main(["evolve", "--model", "constant", "--g1", "0.1", "--p1-0", "0.5",
                     "--im-alpha-0", "-9.3e-06", "--steps", "3",
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert float(rows[0][3]) == -9.3e-06

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"R": 0.25, "N": 1.0, "t_max": 2.0, "steps": 4}))
        out = tmp_path / "a.csv"
        assert main(["evolve", "--model", "thermal", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert len(rows) == 4 and float(rows[-1][0]) == 2.0
        # explicit flag wins over the config file
        out2 = tmp_path / "b.csv"
        assert main(["evolve", "--model", "thermal", "--config", str(cfg),
                     "--steps", "7", "--out", str(out2)]) == EXIT_OK
        _, rows2 = _read_csv(out2)
        assert len(rows2) == 7

    def test_config_defaults_do_not_leak_between_calls(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 4, "t_max": 2.0}))
        plain = ["evolve", "--model", "thermal", "--out"]
        for use_config in (False, True, False, True):
            out = tmp_path / f"{use_config}.csv"
            extra = ["--config", str(cfg)] if use_config else []
            assert main([*plain, str(out), *extra]) == EXIT_OK
            _, rows = _read_csv(out)
            assert len(rows) == (4 if use_config else 200)
            assert float(rows[-1][0]) == (2.0 if use_config else 10.0)

    def test_env_var_overrides_default_tolerance(self, tmp_path, monkeypatch):
        # a huge tolerance makes the clearly violating map pass
        out = tmp_path / "cp.json"
        args = ["cp-check", "--model", "constant", "--g3", "-0.1",
                "--t-max", "1", "--steps", "5", "--out", str(out)]
        assert main(args) == EXIT_VIOLATION
        monkeypatch.setenv(TOL_ENV_VAR, "10.0")
        assert main(args) == EXIT_OK
        monkeypatch.setenv(TOL_ENV_VAR, "not-a-number")
        assert main(args) == EXIT_USAGE

    @pytest.mark.parametrize("defect,t_max,message", [
        ("swap", 4.0, "strictly increasing"),
        (None, 5.0, "does not contain [0, t-max = 5.0]"),
        ("nan", 4.0, "non-finite value in data row 21, column gamma3"),
    ])
    def test_invalid_rates_table_is_usage_error(self, tmp_path, capsys,
                                                defect, t_max, message):
        t = np.linspace(0.0, 4.0, 41)
        table = np.column_stack([t, 0.0 * t, 0.5 + 0.0 * t, 0.1 * t, 0.0 * t])
        if defect == "swap":
            table[[10, 11], 0] = table[[11, 10], 0]
        elif defect == "nan":
            table[20, 3] = np.nan
        path = tmp_path / "rates.csv"
        np.savetxt(path, table, delimiter=",", header=RATES_HEADER, comments="")
        for command in ("evolve", "rates"):
            out = tmp_path / f"out-{command}.csv"
            assert main([command, "--model", "tabulated", "--rates-file", str(path),
                         "--t-max", repr(t_max), "--steps", "9",
                         "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert not out.exists()

    def test_tabulated_model_round_trip(self, tmp_path):
        table = tmp_path / "rates.csv"
        ts = np.linspace(0.0, 4.0, 200)
        rows = ["t,gamma1,gamma2,gamma3,omega"]
        rows += [f"{t},{0.0},{0.5},{0.0},{0.0}" for t in ts]
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ev.csv"
        assert main(["evolve", "--model", "tabulated", "--rates-file", str(table),
                     "--t-max", "4", "--steps", "9", "--p1-0", "0",
                     "--out", str(out)]) == EXIT_OK
        _, out_rows = _read_csv(out)
        # constant gamma2 = 0.5 tabulated: P1 = 1 - exp(-0.25 t)
        for r in out_rows:
            t, p1 = float(r[0]), float(r[1])
            assert p1 == pytest.approx(1.0 - math.exp(-0.25 * t), abs=1e-8)
