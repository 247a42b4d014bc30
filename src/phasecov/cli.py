"""Command-line front end: evolve states, check CPTP, dump rates, sweep.

Subcommands
-----------
evolve    write t, P1, Re_alpha, Im_alpha, Gamma, GammaTilde, Omega, g as CSV
cp-check  per-time CP margins and verdicts as JSON
rates     gamma1, gamma2, gamma3, omega over the grid as CSV
scan      one summary row per value of a swept parameter as CSV

All times are dimensionless (the thermal model's tau; w_c t for the
dephasing model).  Curves go to CSV, verdict reports to JSON, both with
deterministic formatting.  Exit codes: 0 success (and CP everywhere for
cp-check), 1 bad usage or parameters, 2 I/O failure, 3 CP violation
found.

The environment variable PHASECOV_TOL overrides the default verdict
tolerance (margins and Choi eigenvalues count as non-negative above
minus this value).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from . import cptp, models, nonmarkov
from .coeffs import (CoefficientSet, RateProfile, combine_profiles, constant_profile,
                     markovian_coefficients, piecewise_linear_coefficients)
from .dynamics import QubitState, evolve_state

__all__ = ["main", "build_parser", "TOL_ENV_VAR"]

TOL_ENV_VAR = "PHASECOV_TOL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VIOLATION = 3

EVOLVE_HEADER = "t,P1,Re_alpha,Im_alpha,Gamma,GammaTilde,Omega,g"
RATES_HEADER = "t,gamma1,gamma2,gamma3,omega"
SCAN_HEADER = ("param,value,stationary_P1,max_P1,osc_amplitude,"
               "nm_verdict,first_negative_start")

MODELS = ("thermal", "ohmic", "both", "constant", "tabulated")
# the parameters each model reads, which are the ones scan can sweep
SCAN_PARAMS = {"thermal": ("R", "N"), "ohmic": ("s", "alpha", "omega_c", "T"),
               "both": ("R", "N", "s", "alpha", "omega_c", "T"),
               "constant": (), "tabulated": ()}


_LONG_OPTION = re.compile(r"--\w[\w-]*")
_NEGATIVE_NUMBER = re.compile(r"-[\d.]")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # our documented exit codes differ from argparse's default 2
    def error(self, message):
        raise UsageError(message)


def _join_negative_numbers(argv) -> list[str]:
    """Attach a negative number to the option before it: --x -1e-3 -> --x=-1e-3.

    argparse takes a separate token such as -9.3e-06 for an option name
    unless it looks like -1 or -.5.  Every phasecov option takes a
    value, and none is named like a number, so a long option followed by
    a token such as -9.3e-06 or -1,2 always means that value.
    """
    out = []
    for token in argv:
        if out and _LONG_OPTION.fullmatch(out[-1]) and _NEGATIVE_NUMBER.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def default_tolerance() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return cptp.DEFAULT_TOL
    try:
        val = float(raw)
    except ValueError as exc:
        raise UsageError(f"{TOL_ENV_VAR} must be a float, got {raw!r}") from exc
    if val <= 0:
        raise UsageError(f"{TOL_ENV_VAR} must be positive")
    return val


@dataclass(frozen=True)
class RunConfig:
    model: str
    R: float = 0.25
    N: float = 0.0
    alpha: float = 0.1
    s: float = 1.0
    omega_c: float = 1.0
    T: float = 0.0
    kernel: str = "literature"
    g1: float = 0.0
    g2: float = 0.0
    g3: float = 0.0
    w: float = 0.0
    rates_file: str | None = None
    t_max: float = 10.0
    steps: int = 200
    p1_0: float = 1.0
    re_alpha_0: float = 0.0
    im_alpha_0: float = 0.0
    tol: float = cptp.DEFAULT_TOL
    out: str = "-"

    def validate(self):
        if self.model not in MODELS:
            raise UsageError(f"unknown model {self.model!r}")
        if self.steps < 2:
            raise UsageError("steps must be at least 2")
        # written so that NaN fails each comparison
        if not 0 < self.t_max < math.inf:
            raise UsageError("t-max must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise UsageError("tol must be positive and finite")
        for name in ("g1", "g2", "g3", "w"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be finite")
        if self.model == "tabulated" and not self.rates_file:
            raise UsageError("tabulated model requires --rates-file")
        try:
            QubitState(self.p1_0, complex(self.re_alpha_0, self.im_alpha_0))
            if self.model in ("thermal", "both"):
                models.ThermalParams(self.R, self.N)
            if self.model in ("ohmic", "both"):
                models.OhmicParams(self.alpha, self.s, self.omega_c,
                                   self.T, self.kernel)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps)

    @property
    def initial_state(self) -> QubitState:
        return QubitState(self.p1_0, complex(self.re_alpha_0, self.im_alpha_0))


def _rates_table(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and the (4, n) rates of a table that covers [0, t_max]."""
    try:
        data = np.loadtxt(cfg.rates_file, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read rates file: {exc}") from exc
    if data.shape[1] != 5:
        raise UsageError("rates file needs columns t,gamma1,gamma2,gamma3,omega")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise UsageError(f"rates file has a non-finite value in data row {row + 1}, "
                         f"column {RATES_HEADER.split(',')[col]}")
    t = data[:, 0]
    if np.any(np.diff(t) <= 0):
        raise UsageError("rates file t column must be strictly increasing")
    if not t[0] <= 0.0 < cfg.t_max <= t[-1]:
        raise UsageError(f"rates file covers t in [{t[0]!r}, {t[-1]!r}], "
                         f"which does not contain [0, t-max = {cfg.t_max!r}]")
    return t, data[:, 1:].T


def _tabulated_profile(cfg: RunConfig) -> RateProfile:
    """Linear interpolation of a rates table that covers [0, t_max]."""
    t, rates = _rates_table(cfg)

    def interp(values):
        # np.interp's formula on Python lists: one call costs a fifth of
        # np.interp's on a single point, and it runs inside the integrators
        ts, vs = t.tolist(), values.tolist()
        last = len(ts) - 1

        def rate(x):
            j = bisect_right(ts, x) - 1
            if j < 0:
                return vs[0]
            if j >= last:
                return vs[last]
            if ts[j] == x:
                return vs[j]
            return (vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j]) * (x - ts[j]) + vs[j]
        return rate

    return RateProfile(*map(interp, rates), grid_rates=lambda x: np.array(
        [np.interp(x, t, values) for values in rates]))


def _profile_for(cfg: RunConfig):
    """RateProfile of the configured model (for rates/NM scanning)."""
    parts = []
    if cfg.model in ("thermal", "both"):
        parts.append(models.thermal_profile(
            models.ThermalParams(cfg.R, cfg.N), t_max=cfg.t_max))
    if cfg.model in ("ohmic", "both"):
        parts.append(models.ohmic_profile(
            models.OhmicParams(cfg.alpha, cfg.s, cfg.omega_c, cfg.T, cfg.kernel)))
    if cfg.model == "constant":
        parts.append(constant_profile(cfg.g1, cfg.g2, cfg.g3, cfg.w))
    if cfg.model == "tabulated":
        parts.append(_tabulated_profile(cfg))
    return combine_profiles(*parts)


# the largest x with a finite exp(x)
_LOG_MAX = math.log(sys.float_info.max)


def _coefficient_grid(cfg: RunConfig) -> CoefficientSet:
    """The coefficients on the whole time grid, as a CoefficientSet of arrays.

    The thermal part uses its closed form (exact also across rate
    singularities at R > 1/2); the Ohmic part uses the zero-T closed
    form or, at T > 0, the exact series; constant rates use the GKSL
    expressions; tabulated rates the exact piecewise-linear route.  A
    generator whose coefficients cannot be represented is refused
    (see ``_check_finite``).
    """
    times = cfg.times
    # an overflow leaves a non-finite coefficient, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.model == "constant":
            c = markovian_coefficients(cfg.g1, cfg.g2, cfg.g3, cfg.w, times)
        elif cfg.model == "tabulated":
            c = piecewise_linear_coefficients(*_rates_table(cfg), times)
        else:
            c = _model_coefficients(cfg, times)
    _check_finite(c)
    return c


def _model_coefficients(cfg: RunConfig, times: np.ndarray) -> CoefficientSet:
    zeros = np.zeros_like(times)
    gamma = tilde = g = zeros
    if cfg.model in ("thermal", "both"):
        gamma, g = models.thermal_closed_form(models.ThermalParams(cfg.R, cfg.N), times)
    if cfg.model in ("ohmic", "both"):
        op = models.OhmicParams(cfg.alpha, cfg.s, cfg.omega_c, cfg.T, cfg.kernel)
        if op.T == 0:
            tilde = models.ohmic_closed_form(op, times)[1]
        else:
            tilde = models.OhmicSeries(op).gamma_tilde(times)
    return CoefficientSet(t=times, Gamma=gamma, GammaTilde=tilde, Omega=zeros, g=g)


def _check_finite(c: CoefficientSet) -> None:
    """Refuse, at the first such time, a grid on which GammaTilde, Omega or
    g is not finite, or exp(-Gamma) or exp(-Gamma/2 - GammaTilde)
    overflows.  Gamma = +inf (total loss of the population memory, at
    the zeros of the thermal model's c) is allowed."""
    with np.errstate(invalid="ignore"):
        checks = (
            ("GammaTilde is not finite", ~np.isfinite(c.GammaTilde)),
            ("Omega is not finite", ~np.isfinite(c.Omega)),
            ("g is not finite", ~np.isfinite(c.g)),
            ("exp(-Gamma) overflows", ~(-c.Gamma <= _LOG_MAX)),
            ("exp(-Gamma/2 - GammaTilde) overflows",
             ~(-0.5 * c.Gamma - c.GammaTilde <= _LOG_MAX)),
        )
    bad = np.logical_or.reduce([mask for _, mask in checks])
    if bad.any():
        i = int(np.argmax(bad))
        what = next(name for name, mask in checks if mask[i])
        raise UsageError(f"the generator's coefficients cannot be represented: "
                         f"{what} at t = {float(c.t[i])!r}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_rows(header: str, columns) -> str:
    """CSV text: the header, then one row per index of the columns."""
    cells = [map(repr, col.tolist()) for col in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _json_cells(values: np.ndarray) -> list[str]:
    """Each value as json.dumps writes it (NaN, Infinity, true, ...)."""
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        cells[i] = json.dumps(float(values[i]))
    return cells


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _evolve(state0: QubitState, c: CoefficientSet):
    """evolve_state on a grid, with a map that leaves the state space as a
    usage error at the first such time."""
    try:
        return evolve_state(state0, c)
    except ValueError as exc:
        raise UsageError(f"the generator maps the initial state outside the "
                         f"state space {exc}") from exc


def cmd_evolve(cfg: RunConfig) -> int:
    c = _coefficient_grid(cfg)
    p1, alpha = _evolve(cfg.initial_state, c)
    _write_text(cfg.out, _csv_rows(EVOLVE_HEADER, (
        c.t, p1, alpha.real, alpha.imag, c.Gamma, c.GammaTilde, c.Omega, c.g)))
    return EXIT_OK


def cmd_cp_check(cfg: RunConfig, method: str) -> int:
    c = _coefficient_grid(cfg)
    columns = {"t": c.t}
    ok = np.ones(c.t.shape, dtype=bool)
    if method in ("paper", "both"):
        conds = cptp.cp_paper(c, cfg.tol)
        columns.update(margin_i=conds.margin_i, margin_ii=conds.margin_ii,
                       margin_iii=conds.margin_iii, margin_iv=conds.margin_iv,
                       paper_verdict=conds.verdict)
        ok &= conds.verdict
    if method in ("choi", "both"):
        choi = cptp.cp_choi(c, cfg.tol)
        columns.update(choi_min_eig=choi.min_eigenvalue, choi_verdict=choi.is_cp)
        ok &= choi.is_cp
    if method == "both":
        columns["agreement"] = columns["paper_verdict"] == columns["choi_verdict"]
    all_cp = bool(ok.all())
    report = {
        "model": cfg.model,
        "method": method,
        "tol": cfg.tol,
        "results": [],
        "summary": {"all_cp": all_cp,
                    "first_violation_t": None if all_cp else float(c.t[np.argmin(ok)])},
    }
    # the layout of json.dumps(report, indent=2), whose pure-Python
    # encoder (the one an indent selects) would cost more than the check:
    # the rows are formatted column by column and put in its empty list
    entry = ("    {\n" + ",\n".join(f"      {json.dumps(key)}: %s" for key in columns)
             + "\n    }")
    rows = ",\n".join(entry % cells for cells in zip(*map(_json_cells, columns.values())))
    text = json.dumps(report, indent=2).replace(
        '"results": []', '"results": [\n' + rows + "\n  ]", 1)
    _write_text(cfg.out, text + "\n")
    return EXIT_OK if all_cp else EXIT_VIOLATION


def cmd_rates(cfg: RunConfig) -> int:
    profile = _profile_for(cfg)
    times = cfg.times
    dt = times[1] - times[0]
    singular = [s for s in profile.singular_points if s <= cfg.t_max]
    near_pole = np.zeros(times.shape, dtype=bool)
    for s in singular:
        near_pole |= np.abs(times - s) <= dt / 2
    rates = profile.rates_on(times)
    blank = near_pole | ~np.isfinite(rates)
    rows = [RATES_HEADER]
    for t, values, skip in zip(times.tolist(), rates.T.tolist(), blank.T.tolist()):
        rows.append(",".join([repr(t)] + ["" if b else repr(v)
                                          for v, b in zip(values, skip)]))
    _write_text(cfg.out, "\n".join(rows) + "\n")
    suppressed = np.flatnonzero(blank.any(axis=0)).tolist()
    sidecar = json.dumps({"singular_times": singular,
                          "suppressed_rows": suppressed}, indent=2) + "\n"
    if cfg.out == "-":
        sys.stderr.write(sidecar)
    else:
        _write_text(cfg.out + ".singularities.json", sidecar)
    return EXIT_OK


def _with_param(cfg: RunConfig, name: str, value: float) -> RunConfig:
    return replace(cfg, **{name: value})


def cmd_scan(cfg: RunConfig, param: str, values: list[float]) -> int:
    used = SCAN_PARAMS[cfg.model]
    if param not in used:
        raise UsageError(f"model {cfg.model!r} does not use parameter {param!r}; "
                         f"it uses {', '.join(used) or 'no scan parameter'}")
    rows = [SCAN_HEADER]
    for value in values:
        sub = _with_param(cfg, param, value)
        sub.validate()
        p1, _ = _evolve(sub.initial_state, _coefficient_grid(sub))
        stationary = p1[-1]
        report = nonmarkov.negative_intervals(
            _profile_for(sub), (0.0, sub.t_max), tol=sub.tol)
        first = report.first_negative
        rows.append(",".join([
            param, _fmt(value), _fmt(stationary), _fmt(p1.max()),
            _fmt(p1.max() - stationary), report.verdict.value,
            "" if first is None else _fmt(first),
        ]))
    _write_text(cfg.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _add_model_args(p: argparse.ArgumentParser) -> set[str]:
    """Add the options every subcommand takes; return their dests."""
    dests = set()

    def add(*flags, **kwargs):
        dests.add(p.add_argument(*flags, **kwargs).dest)

    add("--model", required=True, choices=MODELS)
    add("--R", type=float, default=0.25,
        help="thermal coupling (dimensionless, > 0)")
    add("--N", type=float, default=0.0,
        help="mean thermal occupation (>= 0)")
    add("--alpha", type=float, default=0.1,
        help="Ohmic coupling constant")
    add("--s", type=float, default=1.0, help="Ohmicity parameter")
    add("--omega-c", type=float, default=1.0, help="cutoff frequency")
    add("--T", type=float, default=0.0,
        help="dephasing bath temperature (hbar = k_B = 1)")
    add("--kernel", choices=models.KERNELS, default="literature")
    add("--g1", type=float, default=0.0, help="constant heating rate")
    add("--g2", type=float, default=0.0, help="constant dissipation rate")
    add("--g3", type=float, default=0.0, help="constant dephasing rate")
    add("--w", type=float, default=0.0, help="constant frequency shift")
    add("--rates-file", help="CSV t,gamma1,gamma2,gamma3,omega")
    add("--t-max", type=float, default=10.0)
    add("--steps", type=int, default=200,
        help="number of grid points including t = 0")
    add("--p1-0", type=float, default=1.0)
    add("--re-alpha-0", type=float, default=0.0)
    add("--im-alpha-0", type=float, default=0.0)
    add("--tol", type=float, default=None,
        help=f"verdict tolerance (default {cptp.DEFAULT_TOL:g}, "
             f"override with {TOL_ENV_VAR})")
    add("--out", default="-", help="output path, - for stdout")
    add("--config", help="JSON file with defaults for any option")
    return dests


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The phasecov parser; ``config`` holds defaults for any option."""
    parser = _Parser(prog="phasecov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("evolve", "population and coherence over a time grid (CSV)"),
        ("cp-check", "complete-positivity report over a time grid (JSON)"),
        ("rates", "decay rates over a time grid (CSV)"),
        ("scan", "summary per value of a swept parameter (CSV)"),
    ):
        p = sub.add_parser(name, help=descr)
        dests = _add_model_args(p)
        if name == "cp-check":
            dests.add(p.add_argument("--method", choices=("paper", "choi", "both"),
                                     default="both").dest)
        if name == "scan":
            dests.add(p.add_argument("--param", required=True).dest)
            dests.add(p.add_argument("--values", required=True,
                                     help="comma-separated parameter values").dest)
        p.set_defaults(**{k: v for k, v in (config or {}).items() if k in dests})
    return parser


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """build_parser() without config defaults, built once per process."""
    return build_parser()


@functools.cache
def _config_probe() -> argparse.ArgumentParser:
    """A parser that reads only --config, built once per process."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    return probe


def _load_config(argv) -> dict:
    """The option defaults in the --config JSON file named in argv, if any."""
    known, _ = _config_probe().parse_known_args(argv)
    if not known.config:
        return {}
    try:
        with open(known.config) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load config file: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    return values


def _config_from_args(args) -> RunConfig:
    tol = args.tol if args.tol is not None else default_tolerance()
    cfg = RunConfig(
        model=args.model, R=args.R, N=args.N, alpha=args.alpha, s=args.s,
        omega_c=args.omega_c, T=args.T, kernel=args.kernel,
        g1=args.g1, g2=args.g2, g3=args.g3, w=args.w,
        rates_file=args.rates_file, t_max=args.t_max, steps=args.steps,
        p1_0=args.p1_0, re_alpha_0=args.re_alpha_0, im_alpha_0=args.im_alpha_0,
        tol=tol, out=args.out,
    )
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    argv = _join_negative_numbers(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(argv)
        parser = build_parser(config) if config else _default_parser()
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "evolve":
            return cmd_evolve(cfg)
        if args.command == "cp-check":
            return cmd_cp_check(cfg, args.method)
        if args.command == "rates":
            return cmd_rates(cfg)
        if args.command == "scan":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise UsageError(f"bad --values list: {exc}") from exc
            if not values:
                raise UsageError("--values must list at least one number")
            return cmd_scan(cfg, args.param, values)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # a grid sized by --steps that does not fit
        print(f"error: out of memory, try fewer --steps ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
