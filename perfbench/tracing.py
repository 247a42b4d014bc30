"""Per-layer counters and inclusive busy time, recorded from outside.

A :class:`Tracer` wraps the public functions of the phasecov modules
that the per-layer metrics name, plus ``scipy.integrate.quad`` and
``solve_ivp`` as bound inside ``phasecov.coeffs`` and
``phasecov.mesolve``.  Each phasecov function object is wrapped once and
every module attribute that refers to it is rebound to the one wrapper:
``cli`` imports ``integrate_profile`` and ``evolve_state`` by name, and
wrapping each alias separately would count every call twice.  The
program itself is never edited; ``uninstall`` restores every binding.

Only the traced run installs a tracer.  ``assert_clean`` lets the timed
run prove that no wrapper is left in place.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import defaultdict
from time import thread_time

MODULES = ("phasecov", "phasecov.cli", "phasecov.coeffs", "phasecov.models",
           "phasecov.dynamics", "phasecov.cptp", "phasecov.nonmarkov",
           "phasecov.mesolve")

# phasecov functions: <module>.<fn>.calls and <module>.<fn>.busy_s
FUNCTIONS = (
    "models.amplitude_memory", "models.thermal_closed_form",
    "models.ohmic_closed_form", "models.ohmic_rate", "models.ohmic_gamma_tilde",
    "coeffs.integrate_profile", "dynamics.evolve_state",
    "cptp.cp_paper", "cptp.cp_choi", "cptp.cp_report",
    "nonmarkov.negative_intervals", "mesolve.integrate_me", "mesolve.liouvillian",
)
# scipy callables, wrapped only where the named module binds them
SCIPY = ("coeffs.quad", "coeffs.solve_ivp", "mesolve.solve_ivp")

RATE_NAMES = ("gamma1", "gamma2", "gamma3", "omega")

_MARK = "_perfbench_trace"


def _modules():
    return [importlib.import_module(m) for m in MODULES]


def assert_clean() -> None:
    """Raise if any phasecov module attribute is a tracing wrapper."""
    for mod in _modules():
        for name, value in vars(mod).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"tracing wrapper left on {mod.__name__}.{name}")


class Tracer:
    """Counts and inclusive busy seconds per wrapped function."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.extra = defaultdict(int)      # neval, nfev, rate_evals
        self.top_s = 0.0                   # time in outermost wrapped calls
        self._depth = 0
        self._active = defaultdict(int)
        self._restore = []

    # ---------------------------------------------------------- install

    def install(self) -> None:
        assert_clean()
        mods = _modules()
        for key in FUNCTIONS:
            mod_name, fn_name = key.split(".")
            orig = getattr(importlib.import_module(f"phasecov.{mod_name}"), fn_name)
            wrapper = self._wrap(key, orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, attr, orig, wrapper)
        for key in SCIPY:
            mod_name, fn_name = key.split(".")
            mod = importlib.import_module(f"phasecov.{mod_name}")
            orig = getattr(mod, fn_name)
            self._rebind(mod, fn_name, orig, self._wrap(key, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()
        assert_clean()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, mod, attr, orig, wrapper):
        self._restore.append((mod, attr, orig))
        setattr(mod, attr, wrapper)

    # ------------------------------------------------------------ wrap

    def _wrap(self, key, orig):
        def wrapper(*args, **kwargs):
            if key == "nonmarkov.negative_intervals":
                args, kwargs = self._count_rate_evals(args, kwargs)
            self.calls[key] += 1
            self._active[key] += 1
            self._depth += 1
            start = thread_time()
            try:
                out = orig(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                self._depth -= 1
                self._active[key] -= 1
                if not self._active[key]:      # inclusive, once per outermost call
                    self.busy[key] += elapsed
                if not self._depth:
                    self.top_s += elapsed
            if key == "coeffs.quad" and len(out) > 2 and isinstance(out[2], dict):
                self.extra["coeffs.quad.neval"] += int(out[2]["neval"])
            elif key.endswith("solve_ivp"):
                self.extra[f"{key}.nfev"] += int(out.nfev)
            return out

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = orig
        return wrapper

    def _count_rate_evals(self, args, kwargs):
        """Hand negative_intervals a profile whose rate callables count."""
        def counted(fn):
            def rate(t):
                self.extra["nonmarkov.rate_evals"] += 1
                return fn(t)
            return rate

        if args:
            profile, rest = args[0], args[1:]
        else:
            profile, rest = kwargs.pop("profile"), ()
        profile = dataclasses.replace(
            profile, **{n: counted(getattr(profile, n)) for n in RATE_NAMES})
        return (profile, *rest), kwargs

    # ---------------------------------------------------------- report

    def metrics(self, op_s: float = 0.0, plain_s: float = 0.0,
                cli_self_s: float = 0.0) -> dict[str, float]:
        """Every per-layer metric by name.

        op_s and plain_s are the op time of the traced and of the plain
        pass over the same ops; cli_self_s is computed by the caller.
        """
        values = {}
        for fn in FUNCTIONS:
            values[f"{fn}.calls"] = self.calls[fn]
            values[f"{fn}.busy_s"] = self.busy[fn]
        values.update({
            "coeffs.quad.calls": self.calls["coeffs.quad"],
            "coeffs.quad.neval": self.extra["coeffs.quad.neval"],
            "coeffs.quad.busy_s": self.busy["coeffs.quad"],
            "coeffs.solve_ivp.calls": self.calls["coeffs.solve_ivp"],
            "coeffs.solve_ivp.nfev": self.extra["coeffs.solve_ivp.nfev"],
            "mesolve.solve_ivp.nfev": self.extra["mesolve.solve_ivp.nfev"],
            "nonmarkov.rate_evals": self.extra["nonmarkov.rate_evals"],
            "cli.self_s": cli_self_s,
            "trace.op_s": op_s,
            "trace.overhead_s": op_s - plain_s,
        })
        return values
