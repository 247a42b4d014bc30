"""Exact counts of the traced run, and the benchmark's own invariants.

Run with

    python3 -m pytest perfbench/count_checks.py

The file is not named test_*.py, so the repository's default pytest run
from the root does not collect it and its pass/fail counts and time stay
those of the program's own suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from phasecov import cli, dynamics  # noqa: E402


def _counts(argv) -> dict:
    with tracing.Tracer() as tracer:
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_VIOLATION)
    return tracer.metrics()


def test_thermal_evolve_counts_each_point_once(tmp_path):
    m = _counts(["evolve", "--model", "thermal", "--steps", "200",
                 "--out", str(tmp_path / "o.csv")])
    # cli reaches thermal_closed_form through cli.models, which is
    # phasecov.models: one wrapper per function object, not per alias
    assert m["models.thermal_closed_form.calls"] == 200
    assert m["models.amplitude_memory.calls"] == 200
    assert m["dynamics.evolve_state.calls"] == 200
    assert m["coeffs.quad.calls"] == 0
    assert m["coeffs.quad.busy_s"] == 0.0


def test_cp_check_counts(tmp_path):
    m = _counts(["cp-check", "--model", "thermal", "--R", "10", "--steps", "100",
                 "--t-max", "3", "--method", "both", "--out", str(tmp_path / "r.json")])
    assert m["cptp.cp_paper.calls"] == 100
    assert m["cptp.cp_choi.calls"] == 100
    assert m["cptp.cp_report.calls"] == 0


def test_scan_rate_evals_counted_at_the_boundary(tmp_path):
    # R < 1/2: no negative interval, so no bisection; window 10 gives a
    # 2049-point sign scan of gamma1, gamma2 and gamma3
    m = _counts(["scan", "--model", "thermal", "--R", "0.25", "--param", "N",
                 "--values", "1", "--t-max", "10", "--steps", "200",
                 "--out", str(tmp_path / "s.csv")])
    assert m["nonmarkov.negative_intervals.calls"] == 1
    assert m["nonmarkov.rate_evals"] == 3 * 2049
    # 200 closed-form points plus gamma1 and gamma2 at each scan point
    assert m["models.amplitude_memory.calls"] == 200 + 2 * 2049


def test_library_case_counts(tmp_path):
    op = next(workloads.three_route_crosscheck(5, tmp_path))
    with tracing.Tracer() as tracer:
        op.run()
    m = tracer.metrics()
    n = workloads.TRC_CASE_POINTS
    assert m["coeffs.integrate_profile.calls"] == 1
    assert m["coeffs.quad.calls"] == 3 * (n - 1)      # Gamma, GammaTilde, Omega
    assert m["coeffs.solve_ivp.calls"] == n - 1       # g, segment by segment
    assert m["mesolve.integrate_me.calls"] == 1
    assert m["mesolve.liouvillian.calls"] == m["mesolve.solve_ivp.nfev"]
    assert m["cptp.cp_report.calls"] == m["cptp.cp_paper.calls"] == n
    assert m["models.thermal_closed_form.calls"] == n


def test_tracer_restores_every_binding():
    original = dynamics.evolve_state
    with tracing.Tracer():
        assert cli.evolve_state is dynamics.evolve_state is not original
        with pytest.raises(RuntimeError):
            tracing.Tracer().install()
    tracing.assert_clean()
    assert cli.evolve_state is dynamics.evolve_state is original


def test_traced_counts_repeat_exactly(tmp_path):
    first = run.traced_run("closed-form-dense", 3, tmp_path / "a")
    second = run.traced_run("closed-form-dense", 3, tmp_path / "b")
    counts = {k: v for k, (v, unit) in first["metrics"].items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second["metrics"].items()
                      if unit == "count"}
    assert counts["coeffs.quad.calls"] == 0
    assert first["failed"] == second["failed"] == 0


def test_oracle_rejects_a_slightly_wrong_rate(tmp_path):
    """A 1e-6 relative error in gamma3, as a fixed-panel rule would make
    at s < 1, fails the op."""
    op = next(workloads.finite_t_quadrature(2, tmp_path))
    assert op.kind == "rates" and op.verify(op.run()) == []
    out = tmp_path / "ftq-rates.out"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    data[:, 3] *= 1.0 + 1e-6
    np.savetxt(out, data, delimiter=",", header="t,gamma1,gamma2,gamma3,omega",
               comments="")
    assert op.verify(cli.EXIT_OK)


def test_benchmark_json_names_match_the_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = tracing.Tracer().metrics()
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_p50_s", "op_p90_s", "points_per_s", "peak_rss_mb", "setup_s"}
