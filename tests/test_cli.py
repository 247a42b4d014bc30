import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phasecov
from phasecov import cli, coeffs, markovian_coefficients, models
from phasecov.cli import (EVOLVE_HEADER, EXIT_IO, EXIT_OK, EXIT_USAGE,
                          EXIT_VIOLATION, MODELS, RATES_HEADER, SCAN_HEADER,
                          TOL_ENV_VAR, RunConfig, main)
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

    @pytest.mark.parametrize("command", ["evolve", "cp-check", "rates", "scan"])
    def test_growing_constant_population_is_usage_error(self, command, tmp_path, capsys):
        # gamma1 + gamma2 < 0: the GKSL population grows without bound
        args = [command, "--model", "constant", "--g1", "0.1", "--g2=-1", "--steps", "3",
                "--out", str(tmp_path / "out")]
        if command == "scan":
            args += ["--param", "g1", "--values", "0.1"]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: g1 + g2 must be non-negative\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, name", [("thermal", "thermal_closed_form"),
                                             ("ohmic", "ohmic_closed_form")])
    def test_closed_form_is_looked_up_on_the_module(self, model, name, tmp_path,
                                                    monkeypatch):
        # a wrapper put on the models module, as a tracer does, sees the
        # command's one closed-form call on the whole grid
        original, calls = getattr(phasecov.models, name), []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(phasecov.models, name, counting)
        assert main(["evolve", "--model", model, "--steps", "50",
                     "--out", str(tmp_path / "ev.csv")]) == EXIT_OK
        assert len(calls) == 1 and len(calls[0][1]) == 50

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

    @pytest.mark.parametrize("command", ["cp-check", "evolve"])
    @pytest.mark.parametrize("rate,first_bad,what", [
        # GammaTilde = -100 t: exp(-GammaTilde) overflows past t = 7.0978
        ("--g3=-100", 7.0978, "exp(-Gamma/2 - GammaTilde) overflows"),
        # Omega = 1e308 t overflows past t = 1.7977
        ("--w=1e308", 1.7977, "Omega is not finite"),
    ], ids=["GammaTilde", "Omega"])
    def test_overflowing_generator_is_refused(self, tmp_path, capsys, command,
                                              rate, first_bad, what):
        out = tmp_path / "out"
        t = np.linspace(0.0, 10.0, 200)
        first = float(t[np.argmax(t > first_bad)])
        assert main([command, "--model", "constant", rate, "--t-max", "10",
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{what} at t = {first!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        # G(s) or G(s + 1) overflows, or G(nu) meets its pole nu = -1
        ["--s", "200"], ["--s", "200", "--kernel", "paper", "--T", "1"],
        ["--s", "1e-310"], ["--s", "1e-310", "--T", "1"],
    ], ids=["G-overflow", "G-overflow-T", "G-pole", "G-overflow-tiny-s-T"])
    def test_unrepresentable_gamma_function_is_refused(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert main(["evolve", "--model", "ohmic", *args, "--steps", "5",
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "GammaTilde is not finite at t = 0.0" in err
        assert not out.exists()

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


# where orjson's spelling leaves repr's: the positional band [1e-5, 1e-4),
# the exponent 16, the ends of the float range and the non-finite values
_EDGES = [edge for x in (1e-5, 1e-4, 1e16) for edge in (x, np.nextafter(x, 0.0))] + [
    5e-324, 1.7976931348623157e308, 1e-7, 1e-10, 1e22, 0.1, 1.0, -0.0, 0.0,
    math.nan, math.inf, -math.inf]


def test_json_cells_are_spelled_as_json_dumps_spells_them():
    values = np.array([_EDGES, np.negative(_EDGES)])
    assert cli._cells(list(values), json.dumps) == [
        [json.dumps(v) for v in row] for row in values.tolist()]
    assert cli._cells(list(values), repr) == [[repr(v) for v in row] for row in values.tolist()]
    # bool arrays, cells of their own and blank masks, beside a float column
    columns = [np.array([1e-5, 2.0]), np.array([True, False]), ["a", "b"], np.array([3.0, 4.0])]
    assert cli._cells(columns, json.dumps, [None, None, None, np.array([False, True])]) == [
        ["1e-05", "2.0"], ["true", "false"], ["a", "b"], ["3.0", ""]]


def test_empty_float_columns_have_no_cells():
    # orjson writes [[]], and "".split(",") gave one empty cell
    empty = np.array([], dtype=float)
    for spell in (json.dumps, repr):
        assert cli._cells([empty], spell) == [[]]
        assert cli._cells([empty, np.array([], dtype=bool), [], empty], spell) == [[]] * 4


@settings(max_examples=300)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                     elements=st.floats()))
def test_block_cells_equal_the_cell_by_cell_spelling(values):
    # every double, NaN, the infinities, -0.0 and subnormals included
    rows = values.tolist()
    assert cli._cells(list(values), repr) == [[repr(v) for v in row] for row in rows]
    assert cli._cells(list(values), json.dumps) == [[json.dumps(v) for v in row] for row in rows]


# step counts on each side of the output's block boundaries
_BLOCK_STEPS = [2, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 3 * cli._BLOCK_ROWS + 7]
# thermal poles, whose rates rows are blank, and dephasing at T > 0
_BLOCK_MODEL = ["--model", "both", "--R", "10", "--N", "0.5", "--T", "0.3",
                "--t-max", "4"]


class TestBlocks:
    @pytest.mark.parametrize("steps", _BLOCK_STEPS)
    @pytest.mark.parametrize("method", ["both", "paper", "choi"])
    def test_report_is_one_json_dumps_layout(self, tmp_path, capsys, method, steps):
        out = tmp_path / "cp.json"
        argv = ["cp-check", *_BLOCK_MODEL, "--method", method, "--steps", str(steps)]
        code = main([*argv, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VIOLATION)
        text = out.read_text()
        report = json.loads(text)
        assert json.dumps(report, indent=2) + "\n" == text
        assert [r["t"] for r in report["results"]] == np.linspace(0.0, 4.0, steps).tolist()
        assert main([*argv, "--out", "-"]) == code
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("steps", _BLOCK_STEPS)
    @pytest.mark.parametrize("command,header", [("evolve", EVOLVE_HEADER),
                                                ("rates", RATES_HEADER)])
    def test_csv_has_one_header_and_one_row_per_step(self, tmp_path, capsys, command,
                                                     header, steps):
        out = tmp_path / "out.csv"
        argv = [command, *_BLOCK_MODEL, "--steps", str(steps)]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == header and lines[-1] == ""
        assert header not in lines[1:]
        assert [float(line.split(",")[0]) for line in lines[1:-1]] == \
            np.linspace(0.0, 4.0, steps).tolist()
        assert all(line.count(",") == header.count(",") for line in lines[1:-1])
        assert main([*argv, "--out", "-"]) == EXIT_OK
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("steps", _BLOCK_STEPS)
    def test_evolve_rows_equal_the_row_by_row_formatting(self, tmp_path, steps):
        # the coherence decays through [1e-5, 1e-4) into exponents of one
        # and two digits, and the coefficients rise through it from t = 0
        argv = ["--model", "both", "--R", "0.3", "--N", "0.5", "--alpha", "0.5", "--s", "1",
                "--T", "1", "--t-max", "4", "--p1-0", "0.6", "--re-alpha-0", "0.3",
                "--im-alpha-0", "-1e-9", "--steps", str(steps)]
        out = tmp_path / "ev.csv"
        assert main(["evolve", *argv, "--out", str(out)]) == EXIT_OK
        options = dict(zip(argv[2::2], argv[3::2]))
        cfg = RunConfig(argv[1], **{k[2:].replace("-", "_"): int(v) if k == "--steps"
                                    else float(v) for k, v in options.items()})
        c = cli._coefficient_grid(cfg, cli._build(cfg.validate()))
        p1, alpha = phasecov.evolve_state(cfg.initial_state, c)
        table = np.array([c.t, p1, alpha.real, alpha.imag, c.Gamma, c.GammaTilde, c.Omega, c.g])
        rows = [",".join(map(repr, row)) for row in table.T.tolist()]
        assert out.read_text() == "\n".join([EVOLVE_HEADER, *rows]) + "\n"
        size = np.abs(table)
        assert np.any((1e-5 <= size) & (size < 1e-4)) and np.any((0 < size) & (size < 1e-10))


@pytest.mark.parametrize("command,bound", [("cp-check", 1.0), ("evolve", 1.5)])
def test_output_text_is_not_held_in_memory(tmp_path, command, bound):
    # the text is written a block of rows at a time, so the run's heap
    # peak is its numeric arrays and one block, not copies of the text
    out = tmp_path / "out"
    argv = [command, "--model", "both", "--steps", "20000", "--out", str(out)]
    # lazy imports and caches are filled before the measured run
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * out.stat().st_size


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

    @pytest.mark.parametrize("R, t_max, steps", [(10.0, 500.0, 5001), (1e4, 40.0, 2000)])
    def test_suppressed_rows_equal_the_mask_of_every_pole(self, tmp_path, R, t_max, steps):
        # the reference tests each pole against the whole grid
        out = tmp_path / "r.csv"
        assert main(["rates", "--model", "thermal", "--R", repr(R), "--t-max", repr(t_max),
                     "--steps", str(steps), "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((tmp_path / "r.csv.singularities.json").read_text())
        times = np.linspace(0.0, t_max, steps)
        dt = times[1] - times[0]
        poles = phasecov.thermal_zeros(R, t_max)
        near_pole = np.zeros(times.shape, dtype=bool)
        for pole in poles:
            near_pole |= np.abs(times - pole) <= dt / 2
        assert len(poles) > 300 and 300 < near_pole.sum() < steps
        assert sidecar["singular_times"] == list(poles)
        assert sidecar["suppressed_rows"] == np.flatnonzero(near_pole).tolist()

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


    @pytest.mark.parametrize("argv", [
        ["--model", "thermal", "--R", "10", "--N", "0.5", "--t-max", "6", "--steps", "400"],
        ["--model", "both", "--R", "3", "--N", "1", "--s", "3", "--kernel", "paper",
         "--T", "0.4", "--t-max", "9", "--steps", "333"],
        ["--model", "ohmic", "--s", "1e300", "--steps", "5"],
    ])
    def test_rows_equal_the_row_by_row_formatting(self, tmp_path, argv):
        # the reference: each row formatted on its own, a blank cell for a
        # row next to a pole and for a value that is not finite
        out = tmp_path / "r.csv"
        assert main(["rates", *argv, "--out", str(out)]) == EXIT_OK
        options = dict(zip(argv[2::2], argv[3::2]))
        cfg = RunConfig(argv[1], **{k[2:].replace("-", "_"): (
            v if k == "--kernel" else int(v) if k == "--steps" else float(v))
            for k, v in options.items()})
        profile = cli._profile_for(cli._build(cfg.validate()))
        times = cfg.times
        dt = times[1] - times[0]
        near_pole = np.zeros(times.shape, dtype=bool)
        for pole in profile.poles(0.0, cfg.t_max):
            near_pole |= np.abs(times - pole) <= dt / 2
        with np.errstate(all="ignore"):
            rates = profile.rates_on(times)
        blank = near_pole | ~np.isfinite(rates)
        rows = [RATES_HEADER]
        for t, values, skip in zip(times.tolist(), rates.T.tolist(), blank.T.tolist()):
            rows.append(",".join([repr(t)] + ["" if b else repr(v)
                                              for v, b in zip(values, skip)]))
        assert blank.any()
        assert out.read_text() == "\n".join(rows) + "\n"

    def test_sidecar_alone_on_stderr(self, capsys):
        # s = 1e300 used to put numpy's RuntimeWarnings ahead of the sidecar
        assert main(["rates", "--model", "ohmic", "--s", "1e300", "--steps", "5",
                     "--out", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().err)["suppressed_rows"] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("argv,poles", [
        (["--model", "thermal", "--steps", "50"], 0),
        (["--model", "thermal", "--R", "10", "--t-max", "20", "--steps", "3001"], 14),
    ], ids=["no-poles", "R-10"])
    def test_sidecar_is_the_indented_json_dump(self, tmp_path, capsys, argv, poles):
        # the same indented JSON in the file and, with --out -, on stderr
        out = tmp_path / "r.csv"
        assert main(["rates", *argv, "--out", str(out)]) == EXIT_OK
        text = Path(f"{out}.singularities.json").read_text()
        sidecar = json.loads(text)
        assert len(sidecar["singular_times"]) == poles
        assert bool(sidecar["suppressed_rows"]) == bool(poles)
        assert text == json.dumps(sidecar, indent=2) + "\n"
        capsys.readouterr()
        assert main(["rates", *argv, "--out", "-"]) == EXIT_OK
        assert capsys.readouterr().err == text

    @pytest.mark.parametrize("kernel", ["paper", "literature"])
    def test_tiny_temperature_gives_the_zero_temperature_rates(self, tmp_path, kernel):
        # below about T = 1e-27 the series used to give NaN: evolve refused
        # and rates left gamma3 blank
        for command in ("evolve", "rates"):
            texts = []
            for T in ("0", "1e-30"):
                out = tmp_path / f"{command}-{T}"
                assert main([command, "--model", "ohmic", "--s", "2", "--T", T,
                             "--kernel", kernel, "--steps", "30",
                             "--out", str(out)]) == EXIT_OK
                texts.append(_read_csv(out)[1])
            for cold, warm in zip(*texts):
                np.testing.assert_allclose(np.array(warm, dtype=float),
                                           np.array(cold, dtype=float), rtol=1e-14, atol=0)


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

    def test_ohmic_value_builds_one_series(self, tmp_path, monkeypatch):
        # the GammaTilde grid and the sign scan's profile share one series
        built, series = [], models.OhmicSeries
        monkeypatch.setattr(models, "OhmicSeries", lambda p: built.append(p) or series(p))
        assert main(["scan", "--model", "ohmic", "--T", "0.5", "--param", "alpha",
                     "--values", "0.05,0.1,0.2", "--steps", "50",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert [p.alpha for p in built] == [0.05, 0.1, 0.2]

    def test_window_too_narrow_to_divide(self, capsys):
        # t-max/2048 used to underflow to 0 in the sign scan: ZeroDivisionError
        assert main(["scan", "--model", "thermal", "--param", "R", "--values", "0.5",
                     "--t-max", "5e-324", "--out", "-"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.split("\n")[1].split(",")[5] == "Markovian"

    def test_stretch_shorter_than_the_grid_spacing_opens_at_the_pole(self, capsys):
        # at R = 0.5000001 gamma2 is negative on (14047.63, 14049.63) only,
        # between two grid points 9.8 apart: it was reported Markovian
        assert main(["scan", "--model", "thermal", "--param", "R", "--values", "0.5000001",
                     "--t-max", "20000", "--out", "-"]) == EXIT_OK
        row = capsys.readouterr().out.split("\n")[1].split(",")
        assert row[5] == "NonMarkovian"
        assert float(row[6]) == phasecov.thermal_zeros(0.5000001, 20000.0)[0]

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


@pytest.mark.parametrize("model", list(MODELS))
def test_every_model_runs_every_command(tmp_path, model):
    t = np.linspace(0.0, 4.0, 41)
    table = tmp_path / "rates.csv"
    np.savetxt(table, np.column_stack([t, 0.1 * t, 0.5 + 0.0 * t, np.cos(t),
                                       0.2 + 0.0 * t]),
               delimiter=",", header=RATES_HEADER, comments="")
    # each model ignores the options that it does not read
    args = ["--model", model, "--rates-file", str(table), "--g1", "0.2", "--g2", "0.3",
            "--g3", "0.1", "--w", "1", "--t-max", "3", "--steps", "20"]
    for command, header in (("evolve", EVOLVE_HEADER), ("rates", RATES_HEADER)):
        out = tmp_path / command
        assert main([command, *args, "--out", str(out)]) == EXIT_OK
        assert out.read_text().split("\n")[0] == header
    out = tmp_path / "cp-check"
    assert main(["cp-check", *args, "--out", str(out)]) in (EXIT_OK, EXIT_VIOLATION)
    assert json.loads(out.read_text())["model"] == model
    envs = MODELS[model]
    # the environments supply disjoint coefficients
    cfg = RunConfig(model, rates_file=str(table), t_max=3.0)
    supplied = [name for env, built in cli._build(cfg.validate())
                for name in env.grid(built, cfg.times) if name != "t"]
    assert len(supplied) == len(set(supplied))
    # a one-value scan of each field that the model reads, off its default
    for param in (name for env in envs for name in env.sweep):
        value = getattr(RunConfig(model), param) + 0.5
        out = tmp_path / f"scan-{param}"
        assert main(["scan", *args, "--param", param, "--values", repr(value),
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        assert [row[:2] for row in rows] == [[param, repr(value)]]


class TestOneBuildPerRun:
    """Each environment is built once, after every check: the coefficient
    grid and the rate profile of a run share that build."""

    @pytest.fixture
    def series_built(self, monkeypatch):
        built, series = [], models.OhmicSeries
        monkeypatch.setattr(models, "OhmicSeries", lambda p: built.append(p) or series(p))
        return built

    @pytest.mark.parametrize("command", ["evolve", "cp-check", "rates"])
    @pytest.mark.parametrize("model", ["ohmic", "both"])
    def test_command_builds_one_series(self, tmp_path, series_built, command, model):
        assert main([command, "--model", model, "--T", "0.5", "--steps", "50",
                     "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_VIOLATION)
        assert [p.T for p in series_built] == [0.5]

    def test_scan_builds_one_series_per_value_and_none_for_the_base(self, tmp_path,
                                                                    series_built):
        assert main(["scan", "--model", "both", "--T", "0.5", "--param", "T",
                     "--values", "0.25,1", "--steps", "50",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert [p.T for p in series_built] == [0.25, 1.0]

    def test_zero_temperature_builds_no_series(self, tmp_path, series_built):
        for command in ("evolve", "rates"):
            assert main([command, "--model", "ohmic", "--steps", "50",
                         "--out", str(tmp_path / command)]) == EXIT_OK
        assert series_built == []

    def test_tabulated_run_reads_its_table_once(self, tmp_path, capsys, monkeypatch):
        reads, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda path, **kwargs: reads.append(path) or loadtxt(path, **kwargs))
        t = np.linspace(0.0, 4.0, 41)
        path = tmp_path / "rates.csv"
        np.savetxt(path, np.column_stack([t, 0.1 * t, 0.5 + 0.0 * t, np.cos(t), 0.0 * t]),
                   delimiter=",", header=RATES_HEADER, comments="")
        for command in ("evolve", "cp-check", "rates"):
            reads.clear()
            assert main([command, "--model", "tabulated", "--rates-file", str(path),
                         "--t-max", "3", "--steps", "20", "--out", str(tmp_path / command)]) \
                in (EXIT_OK, EXIT_VIOLATION)
            assert reads == [str(path)]
        # a scan is refused before its table is read
        reads.clear()
        assert main(["scan", "--model", "tabulated", "--rates-file", "unread.csv",
                     "--param", "R", "--values", "1", "--out", "-"]) == EXIT_USAGE
        assert "does not use parameter 'R'" in capsys.readouterr().err
        assert reads == []


class TestPlumbing:
    def test_usage_errors(self, capsys):
        assert main(["evolve", "--model", "nope"]) == EXIT_USAGE
        assert main(["evolve", "--model", "thermal", "--steps", "1"]) == EXIT_USAGE
        assert main(["evolve", "--model", "thermal", "--R", "-1"]) == EXIT_USAGE
        assert main(["evolve", "--model", "tabulated"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("args,message", [
        (["rates", "--model", "thermal", "--t-max", "nan"], "t-max must be"),
        (["rates", "--model", "thermal", "--t-max", "inf"], "t-max must be"),
        (["cp-check", "--model", "thermal", "--tol", "nan"], "tol must be"),
        (["cp-check", "--model", "thermal", "--tol", "inf"], "tol must be"),
        (["cp-check", "--model", "thermal", "--tol=-1"], "tol must be"),
        (["evolve", "--model", "ohmic", "--T", "nan"], "T must be"),
        (["evolve", "--model", "thermal", "--N", "nan"], "N must be"),
        # R = 10 has about 7e299 rate poles up to t = 1e300
        (["rates", "--model", "thermal", "--R", "10", "--t-max", "1e300"], "poles"),
        (["scan", "--model", "thermal", "--R", "10", "--t-max", "1e300",
          "--param", "N", "--values", "0"], "poles"),
        # the exact route needs distinct times; this grid is 0, 0, 0, 0, 5e-324
        (["evolve", "--model", "tabulated", "--rates-file", "unread.csv",
          "--t-max", "5e-324"], "too small for 5 distinct times"),
    ], ids=["t-max-nan", "t-max-inf", "tol-nan", "tol-inf", "tol-negative",
            "T-nan", "N-nan", "rates-too-many-poles", "scan-too-many-poles",
            "tabulated-subnormal-t-max"])
    def test_non_finite_or_non_positive_input_is_usage_error(self, tmp_path, capsys,
                                                             args, message):
        out = tmp_path / "out"
        assert main([*args, "--steps", "5", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--re-alpha-0", "--im-alpha-0"])
    @pytest.mark.parametrize("model", list(MODELS))
    def test_huge_coherence_is_usage_error(self, capsys, model, option):
        # past about 1.3e154, the state check used to raise OverflowError
        for command, extra in (("evolve", []), ("cp-check", []), ("rates", []),
                               ("scan", ["--param", "R", "--values", "1"])):
            assert main([command, "--model", model, option, "1e300",
                         "--rates-file", "unread.csv", *extra]) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: coherence violates")

    @pytest.mark.parametrize("option,value", [
        ("g1", "nan"), ("g2", "inf"), ("g3", "-inf"), ("w", "nan")])
    def test_non_finite_constant_rate_is_usage_error(self, tmp_path, capsys,
                                                     option, value):
        # rates used to exit 0 with blank cells for --g2 inf
        out = tmp_path / "out"
        assert main(["rates", "--model", "constant", f"--{option}={value}",
                     "--steps", "5", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{option} must be finite" in err
        assert not out.exists()

    def test_grid_that_cannot_be_allocated_is_usage_error(self, tmp_path, capsys,
                                                          monkeypatch):
        # numpy's own failure, without allocating anything for real
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array with "
                              "shape (100000000000,) and data type float64")

        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "out"
        assert main(["evolve", "--model", "thermal", "--steps", "100000000000",
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--steps" in err and "745. GiB" in err
        assert not out.exists()

    def test_io_error(self, capsys):
        code = main(["evolve", "--model", "constant",
                     "--out", "/no/such/dir/x.csv"])
        assert code == EXIT_IO
        capsys.readouterr()

    def test_reader_that_stops_early_is_io_error(self):
        # the reader of stdout leaves after 10 bytes of a 1.8 MB output:
        # the run fails loudly, not with exit 0 and a silently cut output
        path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
        run_main = "import sys; from phasecov.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.Popen([sys.executable, "-c", run_main, "evolve", "--model", "thermal",
                                 "--steps", "20000", "--out", "-"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=path))
        assert proc.stdout.read(10) == EVOLVE_HEADER[:10].encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_IO
        assert err == "error: cannot write -: [Errno 32] Broken pipe\n"

    def test_closed_stdout_is_io_error(self):
        # with file descriptor 1 closed sys.stdout is None: this ended in an
        # AttributeError traceback and exit 1
        path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
        run_main = "import sys; from phasecov.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(["sh", "-c", '"$0" "$@" >&-', sys.executable, "-c", run_main,
                               "evolve", "--model", "thermal", "--out", "-"],
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == EXIT_IO
        assert proc.stderr == "error: cannot write -: standard output is closed\n"

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

    @pytest.mark.parametrize("entries,message", [
        ({"method": "bogus"}, "argument --method: invalid choice: 'bogus'"),
        ({"steps": 4.0}, "argument --steps: invalid int value: '4.0'"),
        ({"R": None}, "R is null, not a number or a string"),
        ({"stepz": 4}, "key 'stepz' names no option"),
        # never a prefix of --steps
        ({"step": 4}, "key 'step' names no option"),
    ])
    def test_bad_config_entry_is_usage_error(self, tmp_path, capsys, entries, message):
        # a CP-violating generator, whose report an entry once emptied (exit 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "cp.json"
        assert main(["cp-check", "--model", "constant", "--g3=-0.1", "--steps", "3",
                     "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: config file {cfg}: ")
        assert message in err
        assert not out.exists()

    def test_config_entry_of_another_command_is_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "choi", "param": "R", "steps": "4"}))
        argv = ["evolve", "--model", "thermal", "--out"]
        assert main([*argv, str(tmp_path / "a.csv"), "--config", str(cfg)]) == EXIT_OK
        assert main([*argv, str(tmp_path / "b.csv"), "--steps", "4"]) == EXIT_OK
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
        _, rows = _read_csv(tmp_path / "a.csv")
        assert len(rows) == 4

    def test_numeric_out_entry_names_a_file(self, tmp_path):
        # as --out 1 does; it once wrote to file descriptor 1 and closed it,
        # so that the caller's next print failed
        (tmp_path / "cfg.json").write_text(json.dumps({"out": 1, "steps": 3}))
        probe = _fresh_python(_OUT_PROBE, cwd=tmp_path)
        assert probe == {"code": EXIT_OK}
        header, rows = _read_csv(tmp_path / "1")
        assert header == EVOLVE_HEADER and len(rows) == 3

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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_env_var_tolerance_must_be_positive_and_finite(self, tmp_path, capsys,
                                                           monkeypatch, value):
        # nan and inf used to pass here, and the run then blamed --tol
        monkeypatch.setenv(TOL_ENV_VAR, value)
        out = tmp_path / "cp.json"
        assert main(["cp-check", "--model", "thermal", "--steps", "5",
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {TOL_ENV_VAR} must be positive and finite\n"
        assert not out.exists()

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

    def test_tabulated_model_calls_no_integrator(self, tmp_path, monkeypatch):
        # the piecewise-linear route is exact: no quadrature, no ODE
        def refuse(*args, **kwargs):
            raise AssertionError("integrator called")

        monkeypatch.setattr(coeffs, "quad", refuse)
        monkeypatch.setattr(coeffs, "solve_ivp", refuse)
        t = np.linspace(0.0, 4.0, 41)
        table = np.column_stack([t, 0.1 * t, 0.5 + 0.0 * t, np.cos(t), 0.2 + 0.0 * t])
        path = tmp_path / "rates.csv"
        np.savetxt(path, table, delimiter=",", header=RATES_HEADER, comments="")
        for command in ("evolve", "cp-check"):
            assert main([command, "--model", "tabulated", "--rates-file", str(path),
                         "--t-max", "3.3", "--out", str(tmp_path / command)]) \
                in (EXIT_OK, EXIT_VIOLATION)
        _, rows = _read_csv(tmp_path / "evolve")
        # Omega = 0.2 t, exact
        np.testing.assert_allclose(_col(rows, 6), 0.2 * _col(rows, 0), rtol=1e-14)

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


# Each probe runs in a new interpreter, where nothing is imported yet, with
# this checkout's phasecov first on the path; its last line of stdout is JSON.
_PACKAGE_ROOT = str(Path(phasecov.__file__).resolve().parents[1])


def _fresh_python(code, *args, cwd=None):
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                           *args], env=dict(os.environ, PYTHONPATH=path), cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_CLI_PROBE = """
import json, sys
import phasecov.cli
phasecov.cli.build_parser()
codes = [phasecov.cli.main(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""

_OUT_PROBE = """
import json
from phasecov.cli import main
code = main(["evolve", "--model", "thermal", "--config", "cfg.json"])
print(json.dumps({"code": code}))
"""

# build_parser wrapped to count its calls, before main first runs
_PARSER_PROBE = """
import json, sys
import phasecov.cli
built, build = [], phasecov.cli.build_parser
phasecov.cli.build_parser = lambda *args: built.append(1) or build(*args)
codes = [phasecov.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "built": len(built)}))
"""

_SEAMS_PROBE = """
import dataclasses, json, sys
import numpy as np
from phasecov import (ThermalParams, constant_profile, integrate_me, integrate_profile,
                      thermal_closed_form, thermal_profile, thermal_zeros)
loaded = [("scipy.integrate" in sys.modules)]
# an R = 3 thermal grid that ends before its first pole, whose last interval
# is bisected toward it, and a profile with a listed pole
thermal = ThermalParams(R=3.0, N=1.0)
grid = np.linspace(0.0, 10.0, 200)[1:]
grid = grid[grid < thermal_zeros(3.0, 10.0)[0]]
near = integrate_profile(thermal_profile(thermal), grid)[-1]
profile = constant_profile(0.2, 0.6, 0.1, 0.5)
cut = dataclasses.replace(profile, poles=lambda t0, t1: (0.3,) if t0 <= 0.3 <= t1 else ())
listed = integrate_profile(cut, [0.5, 1.0])[-1]
loaded.append("scipy.integrate" in sys.modules)
rho = integrate_me(profile, np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]]), 1.0)
loaded.append("scipy.integrate" in sys.modules)
c = integrate_profile(profile, [0.0, 0.5, 1.0])[-1]
print(json.dumps({"loaded": loaded, "p1": rho[0, 0].real,
                  "alpha": [rho[0, 1].real, rho[0, 1].imag],
                  "coefficients": [c.Gamma, c.GammaTilde, c.Omega, c.g],
                  "listed": [listed.Gamma, listed.GammaTilde, listed.Omega, listed.g],
                  "near_pole": [near.Gamma, near.g],
                  "closed_form": list(thermal_closed_form(thermal, float(near.t)))}))
"""


class TestColdStart:
    def test_cli_loads_no_scipy(self, tmp_path):
        # every subcommand on every model, the sign scans and the T > 0
        # series included, needs only numpy
        t = np.linspace(0.0, 4.0, 41)
        table = tmp_path / "rates.csv"
        np.savetxt(table, np.column_stack([t, 0.1 * t, 0.5 + 0.0 * t, np.cos(t),
                                           0.2 + 0.0 * t]),
                   delimiter=",", header=RATES_HEADER, comments="")
        models = [
            (["--model", "thermal", "--R", "10", "--N", "0.5", "--t-max", "3"],
             ["--param", "R", "--values", "0.25,10"]),
            (["--model", "ohmic", "--s", "3", "--kernel", "paper"],
             ["--param", "s", "--values", "1,3"]),
            (["--model", "ohmic", "--s", "0.5", "--T", "0.5"],
             ["--param", "T", "--values", "0.5,2"]),
            (["--model", "both", "--R", "0.3", "--N", "0.5", "--s", "3", "--T", "1"],
             ["--param", "N", "--values", "0,1"]),
            (["--model", "constant", "--g1", "0.1", "--g2", "0.5", "--g3", "0.2",
              "--w", "1"], None),
            (["--model", "tabulated", "--rates-file", str(table), "--t-max", "3"], None),
        ]
        runs, expected = [], []
        for model_args, scan_args in models:
            for command in ("evolve", "cp-check", "rates", "scan"):
                extra = []
                if command == "scan":
                    # constant and tabulated have no scan parameter: refused
                    extra = scan_args or ["--param", "R", "--values", "1"]
                out = str(tmp_path / f"{len(runs)}.out")
                runs.append([command, *model_args, *extra, "--steps", "50", "--out", out])
                expected.append(EXIT_USAGE if extra and not scan_args else EXIT_OK)
        probe = _fresh_python(_CLI_PROBE, json.dumps(runs))
        assert probe["codes"] == expected
        assert probe["scipy"] == []

    def test_one_parser_serves_every_call(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 4}))
        argv = ["evolve", "--model", "thermal", "--out", str(tmp_path / "out.csv")]
        runs = [argv, [*argv, "--config", str(cfg)], argv, [*argv, "--config", str(cfg)]]
        assert _fresh_python(_PARSER_PROBE, json.dumps(runs)) == {
            "codes": [EXIT_OK] * 4, "built": 1}

    def test_first_integrator_calls_load_scipy_integrate(self):
        probe = _fresh_python(_SEAMS_PROBE)
        # integrate_me's solve_ivp is the first call to load it: the
        # quadrature route, near a pole or across a listed point, loads none
        assert probe["loaded"] == [False, False, True]
        np.testing.assert_allclose(probe["near_pole"], probe["closed_form"], rtol=1e-12)
        c = markovian_coefficients(0.2, 0.6, 0.1, 0.5, 1.0)
        expected = [c.Gamma, c.GammaTilde, c.Omega, c.g]
        np.testing.assert_allclose(probe["coefficients"], expected, rtol=1e-9)
        np.testing.assert_allclose(probe["listed"], expected, rtol=1e-9)
        assert probe["p1"] == pytest.approx(c.decay * 0.3 + c.g, abs=1e-8)
        alpha = complex(0.2, 0.1) * c.kappa
        np.testing.assert_allclose(probe["alpha"], [alpha.real, alpha.imag], atol=1e-8)
