"""Command-line front end: evolve states, check CPTP, dump rates, sweep.

Subcommands
-----------
evolve    write t, P1, Re_alpha, Im_alpha, Gamma, GammaTilde, Omega, g as CSV
cp-check  per-time CP margins and verdicts as JSON
rates     gamma1, gamma2, gamma3, omega over the grid as CSV
scan      one summary row per value of a swept parameter as CSV

All times are dimensionless (the thermal model's tau; w_c t for the
dephasing model).  Curves go to CSV, verdict reports to JSON, both with
deterministic formatting, written a block of rows at a time.  Exit codes: 0 success (and CP everywhere for
cp-check), 1 bad usage or parameters, 2 I/O failure, 3 CP violation
found.

Options resolve as flags > --config FILE > defaults.  Each entry
key: value of the file's JSON object is parsed as the option --key=value
(t_max for --t-max) before the flags, with a flag's checks.  A key must
be an option's exact name and a value a JSON number or string; a key
that names only another command's option is ignored.

The environment variable PHASECOV_TOL overrides the default verdict
tolerance (margins and Choi eigenvalues count as non-negative above
minus this value).

RunConfig.validate checks the options, and _build builds each
environment of the model (MODELS) once: a command's grid and rate
profile share that build.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace

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
    # written so that NaN fails the comparison
    if not 0 < val < math.inf:
        raise UsageError(f"{TOL_ENV_VAR} must be positive and finite")
    return val


def _table_window(cfg: RunConfig) -> tuple[str, float]:
    """The rates file and t-max of a tabulated run, checked before it is read."""
    if not cfg.rates_file:
        raise ValueError("tabulated model requires --rates-file")
    # the exact route needs distinct times, which a subnormal t-max may not give
    times = cfg.times
    if not np.all(times[1:] > times[:-1]):
        raise ValueError(f"t-max = {cfg.t_max!r} is too small for {cfg.steps} distinct times")
    return cfg.rates_file, cfg.t_max


def _rates_table(path: str, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and the (4, n) rates of a table that covers [0, t_max]."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
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
    if not t[0] <= 0.0 < t_max <= t[-1]:
        raise UsageError(f"rates file covers t in [{t[0]!r}, {t[-1]!r}], "
                         f"which does not contain [0, t-max = {t_max!r}]")
    return t, data[:, 1:].T


def _constant_rates(cfg: RunConfig) -> tuple[float, float, float, float]:
    rates = (cfg.g1, cfg.g2, cfg.g3, cfg.w)
    for name, value in zip(("g1", "g2", "g3", "w"), rates):
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite")
    # the population would grow without bound, outside the state space
    if cfg.g1 + cfg.g2 < 0:
        raise ValueError("g1 + g2 must be non-negative")
    return rates


@dataclass(frozen=True)
class _Environment:
    """One environment of a model, as ``RunConfig.validate`` checks it and
    ``_build`` builds it.

    ``sweep`` names the RunConfig fields of its parameters that ``scan``
    may sweep (constant and tabulated rates have none).  ``params(cfg)``
    checks and returns its parameters p, raising ValueError for invalid
    ones, and ``build(p)`` makes from them what a run evaluates, b:
    ``profile(b, t_max)`` is its RateProfile for windows up to t_max, and
    ``grid(b, times)`` maps the CoefficientSet fields it supplies to arrays.
    """

    sweep: tuple[str, ...]
    params: Callable[[RunConfig], object]
    profile: Callable[[object, float], RateProfile]
    grid: Callable[[object, np.ndarray], dict]
    build: Callable[[object], object] = lambda p: p


# the closed form, exact also across the rate singularities at R > 1/2; it
# is looked up at each call, so that a wrapper put on the module sees it
_THERMAL = _Environment(
    ("R", "N"), lambda cfg: models.ThermalParams(cfg.R, cfg.N), models.thermal_profile,
    lambda p, times: dict(zip(("Gamma", "g"), models.thermal_closed_form(p, times))))
# built as gamma3 and GammaTilde callables, one series for both at T > 0
_OHMIC = _Environment(
    ("s", "alpha", "omega_c", "T"),
    lambda cfg: models.OhmicParams(cfg.alpha, cfg.s, cfg.omega_c, cfg.T, cfg.kernel),
    lambda rates, t_max: RateProfile(gamma3=rates[0]),
    lambda rates, times: {"GammaTilde": rates[1](times)}, build=models._ohmic_rates)

# each model by name, with the environments whose rates and coefficients it
# adds up; the fields that their grids supply do not overlap
MODELS = {
    "thermal": (_THERMAL,),
    "ohmic": (_OHMIC,),
    # thermalisation plus dephasing: the coherence exponents add
    "both": (_THERMAL, _OHMIC),
    # the GKSL expressions of constant rates
    "constant": (_Environment(
        (), _constant_rates, lambda rates, t_max: constant_profile(*rates),
        lambda rates, times: vars(markovian_coefficients(*rates, times))),),
    # the exact piecewise-linear route, with no quadrature and no ODE, on
    # the table read once, after every check; its profile interpolates it
    "tabulated": (_Environment(
        (), _table_window, lambda table, t_max: RateProfile(*(
            functools.partial(np.interp, xp=table[0], fp=rates) for rates in table[1])),
        lambda table, times: vars(piecewise_linear_coefficients(*table, times)),
        build=lambda window: _rates_table(*window)),),
}


def _option(default, help=None, **argparse_kwargs):
    """A RunConfig field: its default, and the help and choices of its option."""
    return field(default=default, metadata=dict(argparse_kwargs, help=help))


@dataclass(frozen=True)
class RunConfig:
    """The options of a run.  Each field is the option --<name> (with - for
    _), and its default here is the option's only default."""

    model: str = field(metadata=dict(required=True, choices=MODELS))
    R: float = _option(0.25, "thermal coupling (dimensionless, > 0)")
    N: float = _option(0.0, "mean thermal occupation (>= 0)")
    alpha: float = _option(0.1, "Ohmic coupling constant")
    s: float = _option(1.0, "Ohmicity parameter")
    omega_c: float = _option(1.0, "cutoff frequency")
    T: float = _option(0.0, "dephasing bath temperature (hbar = k_B = 1)")
    kernel: str = _option("literature", choices=models.KERNELS)
    g1: float = _option(0.0, "constant heating rate")
    g2: float = _option(0.0, "constant dissipation rate")
    g3: float = _option(0.0, "constant dephasing rate")
    w: float = _option(0.0, "constant frequency shift")
    rates_file: str | None = _option(None, "CSV t,gamma1,gamma2,gamma3,omega")
    t_max: float = _option(10.0)
    steps: int = _option(200, "number of grid points including t = 0")
    p1_0: float = _option(1.0)
    re_alpha_0: float = _option(0.0)
    im_alpha_0: float = _option(0.0)
    tol: float = _option(cptp.DEFAULT_TOL, f"verdict tolerance (default "
                         f"{cptp.DEFAULT_TOL:g}, override with {TOL_ENV_VAR})")
    out: str = _option("-", "output path, - for stdout")

    def validate(self) -> list:
        """Check the options and the initial state, and return each
        environment of MODELS[model] with its checked parameters."""
        if self.steps < 2:
            raise UsageError("steps must be at least 2")
        # written so that NaN fails each comparison
        if not 0 < self.t_max < math.inf:
            raise UsageError("t-max must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise UsageError("tol must be positive and finite")
        try:
            checked = [(env, env.params(self)) for env in MODELS[self.model]]
            QubitState(self.p1_0, complex(self.re_alpha_0, self.im_alpha_0))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return checked

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps)

    @property
    def initial_state(self) -> QubitState:
        return QubitState(self.p1_0, complex(self.re_alpha_0, self.im_alpha_0))


def _build(checked: list) -> tuple:
    """The run's model: each environment with what its ``build`` made of
    the parameters that RunConfig.validate checked."""
    return tuple((env, env.build(p)) for env, p in checked)


def _profile_for(cfg: RunConfig, model: tuple) -> RateProfile:
    """RateProfile of the model that _build made (for rates/NM scanning)."""
    try:
        return combine_profiles(*(env.profile(built, cfg.t_max) for env, built in model))
    except ValueError as exc:
        # e.g. a thermal window with more poles than can be listed
        raise UsageError(str(exc)) from exc


# the largest x with a finite exp(x)
_LOG_MAX = math.log(sys.float_info.max)


def _coefficient_grid(cfg: RunConfig, model: tuple) -> CoefficientSet:
    """The coefficients on the whole time grid, as a CoefficientSet of arrays:
    each environment of the model that _build made supplies its
    fields, and the others are 0.  A generator whose coefficients cannot
    be represented is refused (see ``_check_finite``)."""
    times = cfg.times
    values = dict(t=times, **dict.fromkeys(("Gamma", "GammaTilde", "Omega", "g"),
                                           np.zeros_like(times)))
    # an overflow leaves a non-finite coefficient, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for env, built in model:
            values.update(env.grid(built, times))
    c = CoefficientSet(**values)
    _check_finite(c)
    return c


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


# rows formatted and written at a time: the text of one block is all the
# output that a run holds (256 to 512 rows measured fastest)
_BLOCK_ROWS = 256

# orjson writes the shortest round-trip digits, as repr does, but spells
# the exponents 1e16 and 1e-7 where repr writes 1e+16 and 1e-07; the
# replacements are literal, as a group reference would cost a call per match
_EXPONENT_SIGN = re.compile(r"e(?=\d)")
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d(?!\d))")


def _blocks(n: int):
    """Slices of at most _BLOCK_ROWS rows that cover n rows in order."""
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n, _BLOCK_ROWS))


def _cells(columns, spell, blank=None) -> list:
    """The cells of one block of columns, a list per column.

    Each float of an array is spelled as spell(x) spells it: repr for
    CSV, json.dumps for JSON.  A bool array's cells are true and false,
    and any other sequence is its own cells.  blank, if given, holds for
    each column a mask of the cells left empty, or None.

    The float columns are written by one orjson call.  Its text is
    repr's but for the exponents, and for the band 1e-5 <= |x| < 1e-4,
    which it writes positionally; those cells and the non-finite ones,
    which it writes as null, are spelled one by one.
    """
    import orjson

    floats = [i for i, col in enumerate(columns)
              if isinstance(col, np.ndarray) and col.dtype != bool]
    values = np.array([columns[i] for i in floats], dtype=np.float64)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    text = _ONE_DIGIT_EXPONENT.sub("e-0", _EXPONENT_SIGN.sub("e+", text))
    cells = list(columns)
    for i, column_text in zip(floats, text[2:-2].split("],[")):
        cells[i] = column_text.split(",")
    size = np.abs(values)
    odd = ~np.isfinite(values) | ((1e-5 <= size) & (size < 1e-4))
    for (i, j), x in zip(np.argwhere(odd).tolist(), values[odd].tolist()):
        cells[floats[i]][j] = spell(x)
    for i, col in enumerate(columns):
        if isinstance(col, np.ndarray) and col.dtype == bool:
            cells[i] = np.where(col, "true", "false").tolist()
        if blank is not None and blank[i] is not None:
            for j in np.flatnonzero(blank[i]).tolist():
                cells[i][j] = ""
    return cells


def _csv_rows(header: str, columns, blank=None):
    """CSV text in chunks: the header, then one row per index of the
    columns (see ``_cells``), one block of rows per chunk.  blank, if
    given, holds for each column a mask of the cells left empty, or None."""
    yield header + "\n"
    masks = [None] * len(columns) if blank is None else blank
    for part in _blocks(len(columns[0])):
        cells = _cells([col[part] for col in columns], repr,
                       [None if mask is None else mask[part] for mask in masks])
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _json_report(report: dict, columns: dict):
    """json.dumps(report, indent=2) + "\n" in chunks, with one entry per
    index of the columns in its empty list "results", one block of
    entries per chunk.

    The pure-Python encoder that an indent selects would cost more than
    the check, so the entries are formatted a block of columns at a
    time in its layout: the fixed text before each cell of an entry, and
    after its last, interleaved with the cells in one list that is
    joined once.  The first entry drops the leading ",\n"."""
    head, tail = json.dumps(report, indent=2).split('"results": []')
    keys = [json.dumps(key) for key in columns]
    texts = [f",\n    {{\n      {keys[0]}: ", *(f",\n      {key}: " for key in keys[1:]),
             "\n    }"]
    stride = len(keys) + len(texts)
    yield head + '"results": [\n'
    for part in _blocks(len(columns["t"])):
        cells = _cells([col[part] for col in columns.values()], json.dumps)
        n = len(cells[0])
        flat = [""] * (stride * n)
        for i, text in enumerate(texts):
            flat[2 * i::stride] = [text] * n
        for i, column in enumerate(cells):
            flat[2 * i + 1::stride] = column
        if part.start == 0:
            flat[0] = texts[0][2:]
        yield "".join(flat)
    yield "\n  ]" + tail + "\n"


def _write_text(path: str, chunks) -> None:
    """Write the chunks of text in order to path, or to stdout for -.

    The commands pass generators that format one block of rows per
    chunk, so a run holds its numeric arrays and one block of text,
    never the whole output.  They call this once every number is
    computed, so a run refused before then leaves no file.  With file
    descriptor 1 closed, sys.stdout is None and - cannot be written.
    """
    try:
        if path == "-":
            if sys.stdout is None:
                raise OSError("standard output is closed")
            sys.stdout.writelines(chunks)
        else:
            with open(path, "w") as fh:
                fh.writelines(chunks)
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


def cmd_evolve(cfg: RunConfig, model: tuple) -> int:
    c = _coefficient_grid(cfg, model)
    p1, alpha = _evolve(cfg.initial_state, c)
    _write_text(cfg.out, _csv_rows(EVOLVE_HEADER, (
        c.t, p1, alpha.real, alpha.imag, c.Gamma, c.GammaTilde, c.Omega, c.g)))
    return EXIT_OK


def cmd_cp_check(cfg: RunConfig, model: tuple, method: str) -> int:
    c = _coefficient_grid(cfg, model)
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
    _write_text(cfg.out, _json_report(report, columns))
    return EXIT_OK if all_cp else EXIT_VIOLATION


def cmd_rates(cfg: RunConfig, model: tuple) -> int:
    profile = _profile_for(cfg, model)
    times = cfg.times
    dt = times[1] - times[0]
    singular = [s for s in profile.singular_points if s <= cfg.t_max]
    near_pole = np.zeros(times.shape, dtype=bool)
    # within dt/2 of a pole lie at most the two grid points that bracket it
    poles = np.array(singular, dtype=float)
    for i in np.searchsorted(times, poles) - [[1], [0]]:
        i = i.clip(0, times.size - 1)
        near_pole[i[np.abs(times[i] - poles) <= dt / 2]] = True
    rates = profile.rates_on(times)
    blank = near_pole | ~np.isfinite(rates)
    _write_text(cfg.out, _csv_rows(RATES_HEADER, [times, *rates], [None, *blank]))
    suppressed = np.flatnonzero(blank.any(axis=0)).tolist()
    sidecar = json.dumps({"singular_times": singular,
                          "suppressed_rows": suppressed}, indent=2) + "\n"
    if cfg.out == "-":
        sys.stderr.write(sidecar)
    else:
        _write_text(cfg.out + ".singularities.json", [sidecar])
    return EXIT_OK


def cmd_scan(cfg: RunConfig, param: str, values: list[float]) -> int:
    used = [name for env in MODELS[cfg.model] for name in env.sweep]
    if param not in used:
        raise UsageError(f"model {cfg.model!r} does not use parameter {param!r}; "
                         f"it uses {', '.join(used) or 'no scan parameter'}")
    numbers, verdicts = [], []
    for value in values:
        sub = replace(cfg, **{param: value})
        model = _build(sub.validate())
        p1, _ = _evolve(sub.initial_state, _coefficient_grid(sub, model))
        stationary = p1[-1]
        report = nonmarkov.negative_intervals(
            _profile_for(sub, model), (0.0, sub.t_max), tol=sub.tol)
        first = report.first_negative
        numbers.append((value, stationary, p1.max(), p1.max() - stationary,
                        math.nan if first is None else first))
        verdicts.append(report.verdict.value)
    value, stationary, peak, amplitude, first = np.array(numbers).T
    # a value with no negative interval leaves its first_negative_start empty
    _write_text(cfg.out, _csv_rows(
        SCAN_HEADER, [[param] * len(values), value, stationary, peak, amplitude, verdicts,
                      first], [None] * 6 + [np.isnan(first)]))
    return EXIT_OK


# each command: its help line, and its options besides the RunConfig fields
_COMMANDS = {
    "evolve": ("population and coherence over a time grid (CSV)", {}),
    "cp-check": ("complete-positivity report over a time grid (JSON)",
                 {"method": dict(choices=("paper", "choi", "both"), default="both")}),
    "rates": ("decay rates over a time grid (CSV)", {}),
    "scan": ("summary per value of a swept parameter (CSV)",
             {"param": dict(required=True),
              "values": dict(required=True, help="comma-separated parameter values")}),
}


def build_parser() -> argparse.ArgumentParser:
    """The phasecov parser, for the flags and the --config entries alike.

    An entry key: value is parsed as the option --key=value (_ for -) of
    the command, placed before the flags so that a flag wins.  The key
    is an option's exact name, never a prefix, and the value a JSON
    number or string; a key naming only another command's option is ignored.
    """
    parser = _Parser(prog="phasecov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (descr, options) in _COMMANDS.items():
        # no option has a default of its own: one left out is not in args,
        # and keeps its RunConfig default
        p = sub.add_parser(name, help=descr, argument_default=argparse.SUPPRESS)
        for f in fields(RunConfig):
            kwargs = dict(f.metadata)
            if isinstance(f.default, (int, float)):
                kwargs["type"] = type(f.default)
            p.add_argument("--" + f.name.replace("_", "-"), **kwargs)
        p.add_argument("--config", help="JSON file of option values, parsed before the flags")
        for option, kwargs in options.items():
            p.add_argument("--" + option, **kwargs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed, with the entries of its --config file, if any, parsed as
    options between the command name and the flags (see build_parser)."""
    args = _parser().parse_args(argv)
    if "config" not in args:
        return args
    own = {f.name for f in fields(RunConfig)} | _COMMANDS[args.command][1].keys()
    try:
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise UsageError("it must hold a JSON object")
        entries = []
        for key, value in values.items():
            if key not in own:
                if any(key in options for _, options in _COMMANDS.values()):
                    continue
                raise UsageError(f"key {key!r} names no option (t_max names --t-max)")
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise UsageError(f"{key} is {json.dumps(value)}, not a number or a string")
            entries.append(f"--{key.replace('_', '-')}={value}")
        # the flags have parsed alone, so an error here is the file's
        i = argv.index(args.command) + 1
        return _parser().parse_args([*argv[:i], *entries, *argv[i:]])
    except (OSError, ValueError, UsageError) as exc:
        raise UsageError(f"config file {args.config}: {exc}") from exc


def main(argv=None) -> int:
    argv = _join_negative_numbers(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name in args}
        # a tolerance set by neither a flag nor --config comes from the environment
        if "tol" not in given:
            given["tol"] = default_tolerance()
        cfg = RunConfig(**given)
        checked = cfg.validate()
        if args.command == "evolve":
            return cmd_evolve(cfg, _build(checked))
        if args.command == "cp-check":
            return cmd_cp_check(cfg, _build(checked), args.method)
        if args.command == "rates":
            return cmd_rates(cfg, _build(checked))
        # scan, which builds each value and not the base options
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --values list: {exc}") from exc
        if not values:
            raise UsageError("--values must list at least one number")
        return cmd_scan(cfg, args.param, values)
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
