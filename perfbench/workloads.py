"""The three workloads: seeded op streams and the oracle check of each op.

An op is one closed-loop request: an in-process ``phasecov.cli.main``
call or one library case.  ``Op.run`` is what the benchmark times;
``Op.verify`` compares its output with a reference from ``oracles``
afterwards, outside op timing, and returns the problems it found.

Each workload repeats a fixed cycle of op kinds and draws every
cost-relevant parameter inside a fixed band per cycle position, from a
seeded low-discrepancy sequence (``Draws``).  The mix of op costs is
therefore nearly the same for every seed, so the median and p90 land
inside one op kind's cluster rather than between two, and they move
little from seed to seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import oracles
from phasecov import cli, coeffs, cptp, dynamics, mesolve, models

# verdict tolerance the CLI uses by default
TOL = cptp.DEFAULT_TOL


@dataclass
class Op:
    kind: str
    points: int                          # time-grid points the op requests
    run: Callable[[], object]            # timed
    verify: Callable[[object], list]     # untimed; list of problems
    via_cli: bool = True


_PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
_WEYL = [math.sqrt(p) % 1.0 for p in _PRIMES]


class Draws:
    """Seeded parameter draws that cover each band evenly within a run.

    Draw k of cycle j is frac(u_k + j a_k), with a_k the fractional part
    of sqrt(prime k) and the shift u_k uniform from the seed: a shifted
    Weyl sequence.  ``rng`` serves draws that do not change op cost
    (initial states, sampled rows).
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._shift: list[float] = []
        self._cycle = 0
        self._k = 0

    def next_cycle(self) -> None:
        self._cycle += 1
        self._k = 0

    def uniform(self, lo: float, hi: float) -> float:
        if self._k == len(self._shift):
            self._shift.append(self.rng.random())
        u = (self._shift[self._k] + self._cycle * _WEYL[self._k]) % 1.0
        self._k += 1
        return lo + (hi - lo) * u

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))


def _state(rng: random.Random) -> tuple[float, complex]:
    p1 = rng.uniform(0.05, 0.95)
    r = 0.95 * math.sqrt(p1 * (1.0 - p1)) * rng.random()
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return p1, complex(r * math.cos(phase), r * math.sin(phase))


# Values are passed as --name=value: argparse takes a separate "-9.3e-06"
# for an option name and rejects the call.
def _state_args(p1: float, a0: complex) -> list[str]:
    return [f"--p1-0={p1!r}", f"--re-alpha-0={a0.real!r}",
            f"--im-alpha-0={a0.imag!r}"]


def _ohmic_draw(q: Draws, s_band, kernel, T_band=None) -> dict:
    return {"alpha": q.uniform(0.02, 0.2), "s": q.uniform(*s_band),
            "omega_c": q.uniform(0.5, 2.0), "kernel": kernel,
            "T": q.log_uniform(*T_band) if T_band else 0.0}


def _ohmic_args(o: dict) -> list[str]:
    return ["--alpha", repr(o["alpha"]), "--s", repr(o["s"]),
            "--omega-c", repr(o["omega_c"]), "--T", repr(o["T"]),
            "--kernel", o["kernel"]]


def _ohmic_ref(o: dict, t: float) -> tuple[float, float]:
    return oracles.ohmic_reference(o["alpha"], o["s"], o["omega_c"], o["T"],
                                   o["kernel"], t)


class Checker:
    """Collects the disagreements of one op with its oracle."""

    def __init__(self, label: str):
        self.label = label
        self.problems: list[str] = []

    def close(self, what, x, ref, rtol, atol):
        if not oracles.close(float(x), float(ref), rtol, atol):
            self.problems.append(f"{self.label}: {what} = {x!r}, reference {ref!r}")

    def true(self, what, cond):
        if not cond:
            self.problems.append(f"{self.label}: {what}")


def _sample_rows(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted({0, n - 1, *rng.sample(range(n), k)})


def _cli_op(kind, argv, out: Path, points, check) -> Op:
    """CLI op: exit codes 1 and 2 are failures, the rest goes to check."""
    argv = argv + ["--out", str(out)]

    def verify(rc):
        if rc in (cli.EXIT_USAGE, cli.EXIT_IO):
            return [f"{kind}: exit code {rc} for {' '.join(argv)}"]
        c = Checker(kind)
        check(c, rc, out)
        return c.problems

    return Op(kind, points, lambda: cli.main(argv), verify)


def _grid_t(t_max: float, steps: int) -> np.ndarray:
    return t_max * np.arange(steps) / (steps - 1)


def _load_csv(path: Path, cols: int, rows: int, c: Checker):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    c.true(f"output shape {data.shape}, expected {(rows, cols)}",
           data.shape == (rows, cols))
    return data


# ------------------------------------------------------ closed-form-dense

# evolve, cp-check and scan ops form three cost clusters in this order
CFD_EVOLVE_STEPS = 2000
CFD_CP_STEPS = 2000
CFD_SCAN_STEPS = 1500
# R bands of the four scan values: two below and two above R = 1/2
CFD_SCAN_BANDS = ((0.05, 0.2), (0.25, 0.45), (0.6, 2.0), (2.0, 20.0))


def _thermal_draw(q: Draws) -> tuple[float, float]:
    R = q.log_uniform(0.02, 20.0)
    if abs(R - 0.5) < 0.02:          # keep off the degenerate R = 1/2 band
        R += 0.04
    return R, q.uniform(0.0, 3.0)


def _check_evolve_both(c, rng, R, N, o, p1, a0, t_max, steps, data):
    t = _grid_t(t_max, steps)
    c.close("t grid", np.abs(data[:, 0] - t).max(), 0.0, 0.0, 1e-12 * t_max)
    for i in _sample_rows(rng, steps, 4):
        decay, g = oracles.thermal_decay_g(R, N, t[i])
        tilde = _ohmic_ref(o, t[i])[1]
        kappa = math.sqrt(decay) * math.exp(-tilde)
        row = data[i]
        c.close(f"P1[{i}]", row[1], decay * p1 + g, 0.0, 1e-12)
        c.close(f"Re_alpha[{i}]", row[2], a0.real * kappa, 0.0, 1e-12)
        c.close(f"Im_alpha[{i}]", row[3], a0.imag * kappa, 0.0, 1e-12)
        c.close(f"exp(-Gamma)[{i}]", math.exp(-row[4]), decay, 1e-9, 1e-13)
        c.close(f"GammaTilde[{i}]", row[5], tilde, 1e-9, 1e-13)
        c.close(f"Omega[{i}]", row[6], 0.0, 0.0, 0.0)
        c.close(f"g[{i}]", row[7], g, 1e-9, 1e-13)


def _check_cp_report(c, rng, R, N, o, rc, report, steps, t_max):
    results = report["results"]
    c.true(f"{len(results)} cp-check rows, expected {steps}", len(results) == steps)
    verdicts = [r["paper_verdict"] and r["choi_verdict"] for r in results]
    c.true("summary.all_cp disagrees with the rows",
           report["summary"]["all_cp"] == all(verdicts))
    c.true(f"exit code {rc} disagrees with the summary",
           rc == (cli.EXIT_OK if all(verdicts) else cli.EXIT_VIOLATION))
    t = _grid_t(t_max, len(results))
    for i in _sample_rows(rng, len(results), 4):
        decay, g = oracles.thermal_decay_g(R, N, t[i])
        ref = oracles.choi_min_eig(decay, _ohmic_ref(o, t[i])[1], g)
        r = results[i]
        c.close(f"choi_min_eig[{i}]", r["choi_min_eig"], ref, 0.0, 1e-10)
        if abs(ref + TOL) > 1e-10:
            # Omega = 0 and GammaTilde >= 0: conditions i)-iv) are exact
            c.true(f"choi_verdict[{i}] wrong", r["choi_verdict"] == (ref >= -TOL))
            c.true(f"paper_verdict[{i}] wrong", r["paper_verdict"] == (ref >= -TOL))


def _check_thermal_scan(c, rows, values, N, p1, t_max, steps):
    c.true(f"{len(rows)} scan rows, expected {len(values)}", len(rows) == len(values))
    t = _grid_t(t_max, steps)
    for row, R in zip(rows, values):
        decay, g = oracles.thermal_decay_g(R, N, t_max)
        stat, peak = float(row["stationary_P1"]), float(row["max_P1"])
        c.close(f"R={R} stationary_P1", stat, decay * p1 + g, 0.0, 1e-12)
        c.close(f"R={R} max_P1", peak,
                oracles.thermal_p1_grid(R, N, p1, t).max(), 0.0, 1e-12)
        c.close(f"R={R} osc_amplitude", float(row["osc_amplitude"]), peak - stat,
                0.0, 1e-15)
        tau1 = oracles.thermal_first_zero(R)
        nm = tau1 is not None and tau1 < t_max
        c.true(f"R={R} verdict {row['nm_verdict']}",
               row["nm_verdict"] == ("NonMarkovian" if nm else "Markovian"))
        if nm:
            c.close(f"R={R} first_negative_start",
                    float(row["first_negative_start"] or "nan"), tau1, 0.0, 1e-7)
        else:
            c.true(f"R={R} first_negative_start set", row["first_negative_start"] == "")


def closed_form_dense(seed, work: Path) -> Iterator[Op]:
    """evolve --model both and cp-check at T = 0, thermal scans across R = 1/2."""
    cycle = ("evolve",) * 3 + ("cp-check",) * 4 + ("scan",) * 3
    kernels = ("literature", "paper")
    q = Draws(seed)
    rng = q.rng
    n = 0
    while True:
        q.next_cycle()
        for kind in cycle:
            n += 1
            kernel = kernels[n % 2]
            out = work / f"cfd-{kind}.out"
            p1, a0 = _state(rng)
            rows_rng = random.Random(rng.getrandbits(64))
            if kind == "scan":
                N = q.uniform(0.0, 3.0)
                t_max = q.uniform(15.0, 40.0)
                values = [q.log_uniform(*band) for band in CFD_SCAN_BANDS]
                argv = (["scan", "--model", "thermal", "--N", repr(N), "--param", "R",
                         "--values", ",".join(map(repr, values)), "--t-max", repr(t_max),
                         "--steps", str(CFD_SCAN_STEPS)] + _state_args(p1, a0))

                def check(c, rc, out, values=values, N=N, p1=p1, t_max=t_max):
                    with open(out, newline="") as fh:
                        rows = list(csv.DictReader(fh))
                    _check_thermal_scan(c, rows, values, N, p1, t_max, CFD_SCAN_STEPS)

                yield _cli_op(kind, argv, out, len(values) * CFD_SCAN_STEPS, check)
                continue

            R, N = _thermal_draw(q)
            o = _ohmic_draw(q, (0.5, 4.0), kernel)
            t_max = q.uniform(5.0, 40.0)
            steps = CFD_EVOLVE_STEPS if kind == "evolve" else CFD_CP_STEPS
            argv = ([kind, "--model", "both", "--R", repr(R), "--N", repr(N),
                     "--t-max", repr(t_max), "--steps", str(steps)]
                    + _ohmic_args(o) + _state_args(p1, a0))
            if kind == "evolve":
                def check(c, rc, out, R=R, N=N, o=o, p1=p1, a0=a0, t_max=t_max,
                          rows_rng=rows_rng):
                    data = _load_csv(out, 8, CFD_EVOLVE_STEPS, c)
                    if not c.problems:
                        _check_evolve_both(c, rows_rng, R, N, o, p1, a0, t_max,
                                           CFD_EVOLVE_STEPS, data)
            else:
                argv += ["--method", "both"]

                def check(c, rc, out, R=R, N=N, o=o, t_max=t_max, rows_rng=rows_rng):
                    with open(out) as fh:
                        report = json.load(fh)
                    _check_cp_report(c, rows_rng, R, N, o, rc, report, CFD_CP_STEPS, t_max)
            yield _cli_op(kind, argv, out, steps, check)


# ---------------------------------------------------- finite-T-quadrature

FTQ_RATES_STEPS = 40
FTQ_EVOLVE_STEPS = 40
FTQ_SCAN_STEPS = 40
FTQ_T_BAND = (0.2, 3.0)
# s bands per cycle position; s < 1 makes the literature integrands
# singular at w = 0, which a fixed-panel rule gets wrong
FTQ_S_BANDS = ((0.5, 0.95), (1.05, 4.0))
# one scan in five ops puts p90 in the middle of the scan cluster
FTQ_CYCLE = (tuple(("rates", b) for b in FTQ_S_BANDS)
             + tuple(("evolve", b) for b in FTQ_S_BANDS) + (("scan", None),))
# every scan costs ~2049 quadratures; one narrow band keeps that cost
# cluster tight, and at s > 2 both verdicts occur depending on T
FTQ_SCAN_S = (2.5, 3.5)
FTQ_SCAN_T_MAX = (2.0, 3.0)


def _check_ohmic_scan(c, rows, o, t_max, p1):
    c.true(f"{len(rows)} scan rows, expected 1", len(rows) == 1)
    if len(rows) != 1:
        return
    row = rows[0]
    for col in ("stationary_P1", "max_P1"):      # pure dephasing keeps P1
        c.close(col, float(row[col]), p1, 0.0, 1e-15)
    coarse = [_ohmic_ref(o, t)[0] for t in np.linspace(t_max / 16, t_max, 16)]
    if row["nm_verdict"] == "Markovian":
        c.true(f"Markovian, but the reference rate reaches {min(coarse)!r}",
               min(coarse) >= -TOL - 1e-10)
        c.true("first_negative_start set", row["first_negative_start"] == "")
    else:
        c.true(f"verdict {row['nm_verdict']}", row["nm_verdict"] == "NonMarkovian")
        start = float(row["first_negative_start"] or "nan")
        # the reported start is where gamma3 crosses -tol
        c.close("gamma3(first_negative_start)", _ohmic_ref(o, start)[0] if
                math.isfinite(start) else math.nan, -TOL, 0.0, 1e-9)


def finite_t_quadrature(seed, work: Path) -> Iterator[Op]:
    """rates, evolve and single-value s scans of Ohmic dephasing at T > 0."""
    kernels = ("literature", "paper")
    q = Draws(seed)
    rng = q.rng
    n = 0
    while True:
        q.next_cycle()
        for kind, band in FTQ_CYCLE:
            n += 1
            kernel = kernels[n % 2]
            out = work / f"ftq-{kind}.out"
            p1, a0 = _state(rng)
            rows_rng = random.Random(rng.getrandbits(64))
            t_max = q.uniform(2.0, 6.0)
            if kind == "scan":
                band = FTQ_SCAN_S
                t_max = q.uniform(*FTQ_SCAN_T_MAX)
            o = _ohmic_draw(q, band, kernel, FTQ_T_BAND)
            base = ["--model", "ohmic", "--t-max", repr(t_max)] + _ohmic_args(o)
            if kind == "rates":
                argv = ["rates", *base, "--steps", str(FTQ_RATES_STEPS)]

                def check(c, rc, out, o=o, t_max=t_max, rows_rng=rows_rng):
                    data = _load_csv(out, 5, FTQ_RATES_STEPS, c)
                    with open(str(out) + ".singularities.json") as fh:
                        side = json.load(fh)
                    c.true("singularities reported",
                           side == {"singular_times": [], "suppressed_rows": []})
                    if c.problems:
                        return
                    c.true("gamma1, gamma2 or omega nonzero",
                           not data[:, [1, 2, 4]].any())
                    t = _grid_t(t_max, FTQ_RATES_STEPS)
                    for i in _sample_rows(rows_rng, FTQ_RATES_STEPS, 2):
                        c.close(f"gamma3[{i}]", data[i, 3], _ohmic_ref(o, t[i])[0],
                                1e-8, 1e-11)

                yield _cli_op(kind, argv, out, FTQ_RATES_STEPS, check)
            elif kind == "evolve":
                argv = ["evolve", *base, "--steps", str(FTQ_EVOLVE_STEPS),
                        *_state_args(p1, a0)]

                def check(c, rc, out, o=o, t_max=t_max, p1=p1, a0=a0,
                          rows_rng=rows_rng):
                    data = _load_csv(out, 8, FTQ_EVOLVE_STEPS, c)
                    if c.problems:
                        return
                    c.true("Gamma, Omega or g nonzero", not data[:, [4, 6, 7]].any())
                    c.close("max |P1 - P1(0)|", np.abs(data[:, 1] - p1).max(), 0.0,
                            0.0, 1e-15)
                    t = _grid_t(t_max, FTQ_EVOLVE_STEPS)
                    for i in _sample_rows(rows_rng, FTQ_EVOLVE_STEPS, 2):
                        tilde = _ohmic_ref(o, t[i])[1]
                        c.close(f"GammaTilde[{i}]", data[i, 5], tilde, 1e-8, 1e-11)
                        c.close(f"Re_alpha[{i}]", data[i, 2],
                                a0.real * math.exp(-tilde), 0.0, 1e-10)
                        c.close(f"Im_alpha[{i}]", data[i, 3],
                                a0.imag * math.exp(-tilde), 0.0, 1e-10)

                yield _cli_op(kind, argv, out, FTQ_EVOLVE_STEPS, check)
            else:
                argv = ["scan", *base, "--param", "s", "--values", repr(o["s"]),
                        "--steps", str(FTQ_SCAN_STEPS), *_state_args(p1, a0)]

                def check(c, rc, out, o=o, t_max=t_max, p1=p1):
                    with open(out, newline="") as fh:
                        rows = list(csv.DictReader(fh))
                    _check_ohmic_scan(c, rows, o, t_max, p1)

                yield _cli_op(kind, argv, out, FTQ_SCAN_STEPS, check)


# ------------------------------------------------- three-route-crosscheck

TRC_CASE_POINTS = 31
TRC_T_BANDS = ((4.0, 6.0), (6.0, 8.0), (8.0, 10.0), (10.0, 12.0))
TRC_TABLES = 8
TRC_TABLE_NODES = 41
TRC_TABLE_END = 10.0
TRC_TABULATED_STEPS = 200


def write_tables(q: Draws, work: Path) -> list[tuple[Path, np.ndarray]]:
    """Seeded smooth rate tables (t, gamma1, gamma2, gamma3, omega) as CSV."""
    tables = []
    t = np.linspace(0.0, TRC_TABLE_END, TRC_TABLE_NODES)
    for k in range(TRC_TABLES):
        q.next_cycle()
        a1, a2 = q.uniform(0.0, 0.3), q.uniform(0.2, 1.5)
        tau1, tau2, tau3 = (q.uniform(0.5, 3.0) for _ in range(3))
        a3, w3 = q.uniform(0.05, 0.5), q.uniform(0.5, 2.0)
        w0, w1 = q.uniform(-0.5, 0.5), q.uniform(0.2, 1.0)
        table = np.column_stack([
            t,
            a1 * -np.expm1(-t / tau1),
            a2 * -np.expm1(-t / tau2) * (1.0 + 0.3 * np.sin(t)),
            a3 * np.sin(w3 * t) * np.exp(-t / tau3),
            w0 * np.cos(w1 * t),
        ])
        path = work / f"rates-{k}.csv"
        lines = ["t,gamma1,gamma2,gamma3,omega"]
        lines += [",".join(repr(float(v)) for v in row) for row in table]
        path.write_text("\n".join(lines) + "\n")
        # the program reads the decimal text; so does the reference
        tables.append((path, np.loadtxt(path, delimiter=",", skiprows=1)))
    return tables


def _case(R, N, o, p1, a0, t_max):
    """One smooth generator three ways on one grid, then both CP checkers."""
    tp = models.ThermalParams(R, N)
    op = models.OhmicParams(o["alpha"], o["s"], o["omega_c"], 0.0, o["kernel"])
    profile = coeffs.combine_profiles(models.thermal_profile(tp, t_max=t_max),
                                      models.ohmic_profile(op))
    times = np.linspace(0.0, t_max, TRC_CASE_POINTS)
    closed = []
    for t in times:
        gamma, g = models.thermal_closed_form(tp, float(t))
        tilde = models.ohmic_closed_form(op, float(t))[1]
        closed.append(coeffs.CoefficientSet(float(t), gamma, tilde, 0.0, g))
    quad = [coeffs.CoefficientSet.identity(0.0)] + coeffs.integrate_profile(
        profile, times[1:])
    state0 = dynamics.QubitState(p1, a0)
    ode = mesolve.integrate_me(profile, state0.density_matrix, t_max, t_eval=times)
    reports = [cptp.cp_report(c) for c in closed]
    closed_rho = [dynamics.evolve_state(state0, c).density_matrix for c in closed]
    return closed, quad, ode, reports, closed_rho


def _check_case(c, rows_rng, R, N, o, p1, a0, result):
    closed, quad, ode, reports, closed_rho = result
    rel = coeffs.QuadratureConfig().rel_tol
    for i, (cf, qd) in enumerate(zip(closed, quad)):
        for name in ("Gamma", "GammaTilde", "g"):
            c.close(f"integrate_profile {name}[{i}]", getattr(qd, name),
                    getattr(cf, name), rel, 1e-9)
    c.close("max |integrate_me - closed form|",
            max(float(np.abs(a - b).max()) for a, b in zip(ode, closed_rho)),
            0.0, 0.0, 1e-6)
    for i in _sample_rows(rows_rng, len(closed), 2):
        t = closed[i].t
        decay, g = oracles.thermal_decay_g(R, N, t)
        tilde = _ohmic_ref(o, t)[1]
        c.close(f"exp(-Gamma)[{i}]", math.exp(-closed[i].Gamma), decay, 1e-9, 1e-13)
        c.close(f"GammaTilde[{i}]", closed[i].GammaTilde, tilde, 1e-9, 1e-13)
        c.close(f"g[{i}]", closed[i].g, g, 1e-9, 1e-13)
        ref = oracles.choi_min_eig(decay, tilde, g)
        c.close(f"choi_min_eig[{i}]", reports[i].choi_min_eig, ref, 0.0, 1e-10)
    c.true("the two CP checkers disagree", all(r.agreement for r in reports))


def _check_tabulated(c, table, t_max, p1, a0, data):
    """Every column against the exact integrals of the interpolated table,
    at criterion 1's cross-route tolerance 1e-6 (see README: the route is
    measurably less accurate than its quadrature tolerances)."""
    t = _grid_t(t_max, TRC_TABULATED_STEPS)
    ref = oracles.tabulated_coefficients(table, t)
    for col, name in ((4, "Gamma"), (5, "GammaTilde"), (6, "Omega"), (7, "g")):
        c.close(f"max |{name} error|", np.abs(data[:, col] - ref[name]).max(), 0.0,
                0.0, 1e-6)
    kappa = np.exp(1j * ref["Omega"] - 0.5 * ref["Gamma"] - ref["GammaTilde"])
    c.close("max |P1 error|", np.abs(data[:, 1] - (np.exp(-ref["Gamma"]) * p1
                                                   + ref["g"])).max(), 0.0, 0.0, 1e-6)
    c.close("max |alpha error|", np.abs(data[:, 2] + 1j * data[:, 3] - a0 * kappa).max(),
            0.0, 0.0, 1e-6)


def three_route_crosscheck(seed, work: Path) -> Iterator[Op]:
    """Library three-route cases, plus CLI evolve on tabulated rates."""
    tables = write_tables(Draws(f"tables-{seed}"), work)
    q = Draws(seed)
    rng = q.rng
    kernels = ("literature", "paper")
    n = 0
    while True:
        q.next_cycle()
        for band in TRC_T_BANDS + (None,):
            n += 1
            p1, a0 = _state(rng)
            if band is None:
                path, table = tables[n % len(tables)]
                t_max = q.uniform(0.6, 1.0) * TRC_TABLE_END
                argv = ["evolve", "--model", "tabulated", "--rates-file", str(path),
                        "--t-max", repr(t_max), "--steps", str(TRC_TABULATED_STEPS),
                        *_state_args(p1, a0)]

                def check(c, rc, out, table=table, t_max=t_max, p1=p1, a0=a0):
                    data = _load_csv(out, 8, TRC_TABULATED_STEPS, c)
                    if not c.problems:
                        _check_tabulated(c, table, t_max, p1, a0, data)

                yield _cli_op("tabulated", argv, work / "trc-tabulated.out",
                              TRC_TABULATED_STEPS, check)
                continue
            R, N = q.uniform(0.02, 0.45), q.uniform(0.0, 3.0)
            o = _ohmic_draw(q, (0.5, 4.0), kernels[n % 2])
            t_max = q.uniform(*band)
            rows_rng = random.Random(rng.getrandbits(64))

            def verify(result, R=R, N=N, o=o, p1=p1, a0=a0, rows_rng=rows_rng):
                c = Checker("case")
                _check_case(c, rows_rng, R, N, o, p1, a0, result)
                return c.problems

            yield Op("case", TRC_CASE_POINTS,
                     lambda R=R, N=N, o=o, p1=p1, a0=a0, t_max=t_max:
                     _case(R, N, o, p1, a0, t_max),
                     verify, via_cli=False)


WORKLOADS = {
    "closed-form-dense": closed_form_dense,
    "finite-T-quadrature": finite_t_quadrature,
    "three-route-crosscheck": three_route_crosscheck,
}
