"""Reference values that share no code with phasecov.

Every route the benchmark times is compared, outside op timing, with a
reference written here from the mathematics alone:

* thermal amplitude damping: c(tau) = exp(-tau/2) [cosh(d tau/2) +
  sinh(d tau/2)/d] with complex d = sqrt(1 - 2R), evaluated in mpmath
  (no branch on the sign of 1 - 2R) and, for whole grids, in numpy
  complex arithmetic;
* Ohmic dephasing at any T >= 0: expanding coth in exponentials turns
  each frequency integral into a Hurwitz zeta function of complex
  argument (derivation in ``ohmic_reference``), evaluated in mpmath;
* complete positivity: the Choi matrix built from the map's action on
  the four matrix units and diagonalised in mpmath;
* non-Markovianity of the thermal model: the first zero of c,
  tau_1 = (2/delta)(pi - atan delta), delta = sqrt(2R - 1);
* tabulated rates: exact integrals of the piecewise-linear interpolant
  and a fine Simpson rule for g.

Comparisons are numeric, never by output digest, so last-bit changes
from a rewrite of the program are not counted as failures.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30


def close(x: float, ref: float, rtol: float, atol: float) -> bool:
    """|x - ref| <= atol + rtol |ref|; equal infinities compare equal."""
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= atol + rtol * abs(ref)


# ---------------------------------------------------------------- thermal


def thermal_decay_g(R: float, N: float, t: float) -> tuple[float, float]:
    """(exp(-Gamma), g) of the thermal model in mpmath."""
    with mp.workdps(DPS):
        d = mp.sqrt(1 - 2 * mp.mpf(R))
        half = mp.mpf(t) / 2
        if d == 0:
            c = mp.exp(-half) * (1 + half)
        else:
            c = mp.exp(-half) * (mp.cosh(d * half) + mp.sinh(d * half) / d)
        x = mp.re(c) ** 2
        decay = x ** (2 * mp.mpf(N) + 1)
        g = (mp.mpf(N) + 1) / (2 * mp.mpf(N) + 1) * (1 - decay)
        return float(decay), float(g)


def thermal_p1_grid(R: float, N: float, p1_0: float, t: np.ndarray) -> np.ndarray:
    """P1 over a whole grid, numpy complex arithmetic (R != 1/2)."""
    d = np.sqrt(complex(1.0 - 2.0 * R))
    half = 0.5 * np.asarray(t, dtype=float)
    c = np.exp(-half) * (np.cosh(d * half) + np.sinh(d * half) / d)
    decay = (c.real ** 2) ** (2.0 * N + 1.0)
    return decay * p1_0 + (N + 1.0) / (2.0 * N + 1.0) * (1.0 - decay)


def thermal_first_zero(R: float) -> float | None:
    """First time c vanishes (rates diverge, then turn negative)."""
    if R <= 0.5:
        return None
    delta = math.sqrt(2.0 * R - 1.0)
    return (2.0 / delta) * (math.pi - math.atan(delta))


# ------------------------------------------------------------------ Ohmic


def ohmic_reference(alpha: float, s: float, omega_c: float, T: float,
                    kernel: str, t: float) -> tuple[float, float]:
    """(gamma3, GammaTilde) of Ohmic dephasing at temperature T >= 0.

    With coth(w b/2) = 1 + 2 sum_k exp(-k b w), where b = 1/T for the
    literature kernel coth(w/2T) and b = 2/T for the paper kernel
    coth(w/T), each term is a Laplace transform:

        int w^(e-1) e^(-a w) sin(w t)         = G(e) Im (a - i t)^(-e)
        int w^(e-1) e^(-a w) [1 - cos(w t)]   = G(e) [a^(-e) - Re (a - i t)^(-e)]

    at a_k = 1/w_c + k b.  The sum over k >= 1 is
    b^(-e) zeta(e, 1 + 1/(w_c b) - i t/b) (Hurwitz zeta; the difference
    of two zetas for the cosine term converges for every e > -2).  The
    rate uses e = s (literature) or s + 1 (paper), GammaTilde
    e = s - 1 (literature) or s (paper); both carry 2 alpha w_c^(-s).
    """
    if t == 0.0:
        return 0.0, 0.0
    with mp.workdps(DPS):
        s_, wc, t_ = mp.mpf(s), mp.mpf(omega_c), mp.mpf(t)
        if kernel == "literature":
            e_rate, e_tilde = s_, s_ - 1
        else:
            e_rate, e_tilde = s_ + 1, s_
        a0 = 1 / wc

        def osc(e):  # sum_k c_k (a_k - i t)^(-e)
            z = (a0 - 1j * t_) ** (-e)
            if T > 0:
                b = (1 if kernel == "literature" else 2) / mp.mpf(T)
                z += 2 * b ** (-e) * mp.zeta(e, 1 + a0 / b - 1j * t_ / b)
            return z

        def flat(e):  # sum_k c_k a_k^(-e)
            v = a0 ** (-e)
            if T > 0:
                b = (1 if kernel == "literature" else 2) / mp.mpf(T)
                v += 2 * b ** (-e) * mp.zeta(e, 1 + a0 / b)
            return v

        pref = 2 * mp.mpf(alpha) * wc ** (-s_)
        rate = pref * mp.gamma(e_rate) * mp.im(osc(e_rate))
        tilde = pref * mp.gamma(e_tilde) * (flat(e_tilde) - mp.re(osc(e_tilde)))
        return float(rate), float(tilde)


# --------------------------------------------------------------- CP check


def choi_min_eig(decay: float, tilde: float, g: float, omega: float = 0.0) -> float:
    """Smallest Choi eigenvalue of the map with these coefficients.

    The Choi matrix is assembled block by block from the map's action
    on |i><j| (populations: P1 -> decay P1 + g; coherence times
    kappa = exp(i Omega) sqrt(decay) exp(-GammaTilde)), then
    diagonalised numerically.
    """
    with mp.workdps(DPS):
        dec, gg = mp.mpf(decay), mp.mpf(g)
        kappa = mp.sqrt(dec) * mp.exp(-mp.mpf(tilde)) * mp.expj(omega)
        choi = mp.matrix(4, 4)
        # block (1,1) = Phi(|1><1|), block (2,2) = Phi(|2><2|)
        choi[0, 0], choi[1, 1] = dec + gg, 1 - dec - gg
        choi[2, 2], choi[3, 3] = gg, 1 - gg
        # block (1,2) = Phi(|1><2|) = kappa |1><2|, block (2,1) its adjoint
        choi[0, 3], choi[3, 0] = kappa, mp.conj(kappa)
        return float(min(mp.eighe(choi, eigvals_only=True)))


# -------------------------------------------------------------- tabulated


def _pl_integral(tn: np.ndarray, vn: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^t of the linear interpolant of (tn, vn), exact, tn[0] = 0."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(tn) * (vn[1:] + vn[:-1]))])
    j = np.clip(np.searchsorted(tn, t, side="right") - 1, 0, len(tn) - 2)
    vt = np.interp(t, tn, vn)
    return cum[j] + 0.5 * (t - tn[j]) * (vn[j] + vt)


def tabulated_coefficients(table: np.ndarray, t: np.ndarray,
                           sub: int = 64) -> dict[str, np.ndarray]:
    """Gamma, GammaTilde, Omega and g of linearly interpolated rates.

    table columns are t, gamma1, gamma2, gamma3, omega.  g(t) =
    exp(-Gamma(t)) int_0^t exp(Gamma) gamma2/2 is integrated by Simpson's
    rule on panels that never straddle a table node or a requested time.
    """
    tn = table[:, 0]
    half_sum = 0.5 * (table[:, 1] + table[:, 2])
    fine = np.union1d(
        np.concatenate([np.linspace(a, b, sub + 1) for a, b in zip(tn[:-1], tn[1:])]),
        t)
    mid = 0.5 * (fine[:-1] + fine[1:])

    def weight(x):
        return np.exp(_pl_integral(tn, half_sum, x)) * 0.5 * np.interp(x, tn, table[:, 2])

    panels = (np.diff(fine) / 6.0) * (weight(fine[:-1]) + 4.0 * weight(mid)
                                      + weight(fine[1:]))
    acc = np.concatenate([[0.0], np.cumsum(panels)])
    gamma = _pl_integral(tn, half_sum, t)
    return {
        "Gamma": gamma,
        "GammaTilde": _pl_integral(tn, table[:, 3], t),
        "Omega": _pl_integral(tn, table[:, 4], t),
        "g": np.exp(-gamma) * acc[np.searchsorted(fine, t)],
    }
