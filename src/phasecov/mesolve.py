"""Direct numerical integration of the qubit master equation.

Integrates

    drho/dt = i w(t)/2 [sigma_z, rho]
              + gamma1(t)/2 (S+ rho S- - {S- S+, rho}/2)
              + gamma2(t)/2 (S- rho S+ - {S+ S-, rho}/2)
              + gamma3(t)/2 (sigma_z rho sigma_z - rho)

in the basis where the ground state |1> comes first, with the inversion
operators S+ = |2><1| (heating pumps ground to excited) and
S- = |1><2| (dissipation relaxes excited to ground), and
sigma_z = |1><1| - |2><2| so that <sigma_z> = 2 P1 - 1.  The first term
is -i [H, rho] with H = -(w/2) sigma_z, which puts the excited state w
above the ground state; the coherence alpha = <1|rho|2> then turns as
exp(i Omega), Omega = int w, the phase of the closed form.  This route
never touches the closed-form solution and serves as its independent
check.

The state is advanced in the three real parameters y = (P1, Re alpha,
Im alpha); the trace and Hermiticity are therefore preserved
structurally, not up to solver error.  In these parameters each term of
the generator is affine, rate_k(t) (A_k y + c_k), with A_k and c_k
those of the dissipators and the commutator on the basis states
(superoperator form: Breuer and Petruccione, *The Theory of Open
Quantum Systems*, 2002).  One closure writes the three rows out and
reads the four rates once per time; ``liouvillian`` stays as the 2x2
form that the tests check those rows against.  The whole
integration is one LSODA call into ODEPACK (``coeffs.solve_ivp``) from 0
through every requested time, with ``tcrit`` at the last of them so that
no rate is sampled past it; a solver failure, or a reported state that
is not finite, raises :class:`IntegrationError` naming the time.
Profiles with a rate singularity inside the integration window are
refused: the generator diverges there even though the map stays finite,
and the closed-form route is the authority across such points.
"""

from __future__ import annotations

import math

import numpy as np

from .coeffs import RateProfile, _validate_times, solve_ivp

__all__ = [
    "IntegrationError",
    "liouvillian",
    "integrate_me",
]

SIGMA_Z = np.diag([1.0 + 0j, -1.0 + 0j])
# ground state first: S+ = |2><1| excites, S- = |1><2| de-excites
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


# the smallest relative tolerance that integrate_me passes to LSODA
_MIN_RTOL = 100 * np.finfo(float).eps
# the least time past 0 that integrate_me reports: below about 1e-150,
# LSODA's first step, and its sign tests on products of step and time
# differences, underflow, and the pass fails or reads NaN
_MIN_TIME = 1e-100


class IntegrationError(RuntimeError):
    """The master-equation integration could not be completed."""


def validate_density_matrix(rho, tol: float = 1e-9) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity of a 2x2 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has entries that are not finite")
    # written so that a NaN, as from a NaN tol, fails each comparison
    if not np.abs(rho - rho.conj().T).max() <= tol:
        raise ValueError("density matrix is not Hermitian")
    if not abs(np.trace(rho) - 1.0) <= tol:
        raise ValueError("density matrix must have unit trace")
    if not np.linalg.eigvalsh(rho).min() >= -tol:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def _dissipator(jump: np.ndarray, rho: np.ndarray) -> np.ndarray:
    jd = jump.conj().T
    anticom = jd @ jump @ rho + rho @ jd @ jump
    return jump @ rho @ jd - 0.5 * anticom


# the generator's terms in the order of profile.rates: gamma1, gamma2,
# gamma3, omega, each as the superoperator it multiplies
_TERMS = (
    lambda rho: 0.5 * _dissipator(SIGMA_PLUS, rho),
    lambda rho: 0.5 * _dissipator(SIGMA_MINUS, rho),
    lambda rho: 0.5 * (SIGMA_Z @ rho @ SIGMA_Z - rho),
    lambda rho: 0.5j * (SIGMA_Z @ rho - rho @ SIGMA_Z),
)


def liouvillian(profile: RateProfile, t: float, rho) -> np.ndarray:
    """Right-hand side of the master equation at time t."""
    rho = np.asarray(rho, dtype=complex)
    return sum(r * term(rho) for r, term in zip(profile.rates(t), _TERMS))


def _rhs(profile: RateProfile):
    """dy/dt = sum_k rate_k(t) (A_k y + c_k) on y = (P1, Re alpha, Im alpha).

    The rates are read once per new t and kept: LSODA's corrector calls
    the right-hand side again at the same t, and the rates of a
    ``RateProfile`` are deterministic.  A rate left at ``_zero`` adds
    signed zeros to a sum that starts from 0.0, which leave it unchanged.
    """
    rates = profile.rates
    last = r0 = r1 = r2 = r3 = None

    def rhs(t, y):
        nonlocal last, r0, r1, r2, r3
        if t != last:
            r0, r1, r2, r3 = rates(t)
            last = t
        p, x, z = y.tolist()
        return [0.0 + r0 * -0.5 * p + r1 * -0.5 * p + r1 * 0.5,
                0.0 + r0 * -0.25 * x + r1 * -0.25 * x - r2 * x - r3 * z,
                0.0 + r0 * -0.25 * z + r1 * -0.25 * z - r2 * z + r3 * x]
    return rhs


def _pack(rho: np.ndarray) -> np.ndarray:
    return np.array([rho[0, 0].real, rho[0, 1].real, rho[0, 1].imag])


def _unpack(y: np.ndarray) -> np.ndarray:
    """The state of y = (P1, Re alpha, Im alpha), shape (3, ...), as density
    matrices of shape (..., 2, 2)."""
    p1, re_a, im_a = np.asarray(y, dtype=float)
    rho = np.empty(p1.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = p1
    rho[..., 1, 1] = 1.0 - p1
    rho[..., 0, 1].real = rho[..., 1, 0].real = re_a
    rho[..., 0, 1].imag = im_a
    rho[..., 1, 0].imag = -im_a
    return rho


def integrate_me(
    profile: RateProfile,
    rho0,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval=None,
) -> np.ndarray:
    """Integrate the master equation from rho0 to t_end.

    Parameters
    ----------
    profile : RateProfile
        Generator rates; must be free of singular points on [0, t_end],
        and t_end must not lie beyond its ``singular_reach``.
    rho0 : array_like
        Valid 2x2 density matrix at t = 0: finite, Hermitian, of unit
        trace and positive semidefinite to 1e-9, or ValueError.
    t_end : float
        Final time, 0 <= t_end < inf.  A requested time in (0, 1e-100),
        t_end or in t_eval, raises ValueError.
    rtol, atol : float
        Local error control of LSODA, which switches between non-stiff
        Adams and stiff BDF steps as the rates require.  An rtol outside
        [100 machine epsilons, inf), NaN included, or an atol that is not
        finite raises ValueError.
    t_eval : sequence of float, optional
        Report the state at these times instead of only at t_end: a
        non-empty, finite, non-negative and strictly increasing sequence,
        as ``integrate_profile`` takes, that ends at or before t_end.

    Returns
    -------
    ndarray
        2x2 state at t_end, or an array of shape (len(t_eval), 2, 2).
    """
    rho0 = validate_density_matrix(rho0)
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and non-negative")
    # ODEPACK reports a far smaller rtol only as "illegal input"
    if not _MIN_RTOL <= rtol < math.inf:
        raise ValueError(f"rtol = {rtol:g} is below 100 machine epsilons "
                         f"({_MIN_RTOL:.3g}) or not finite")
    if not math.isfinite(atol):
        raise ValueError(f"atol = {atol:g} is not finite")
    times = np.array([t_end], dtype=float) if t_eval is None else _validate_times(t_eval)
    if times[-1] > t_end:
        raise ValueError(f"t_eval ends at {times[-1]:g}, after t_end = {t_end:g}")
    if np.any((times > 0.0) & (times < _MIN_TIME)):
        raise ValueError(f"times in (0, {_MIN_TIME:g}) are too near 0 for LSODA")
    profile.check_reach(t_end)
    for s in profile.singular_points:
        if 0.0 <= s <= t_end:
            raise IntegrationError(
                f"rate singularity at t = {s:g} inside [0, {t_end:g}]; "
                "use the closed-form route across singular generators")

    y = np.tile(_pack(rho0), (times.size, 1))
    if times[-1] > 0.0:
        t = times if times[0] == 0.0 else np.insert(times, 0, 0.0)
        sol = solve_ivp(_rhs(profile), t, y[0], rtol, atol)
        if sol.stop is not None:
            raise IntegrationError("integration failed at t = {:g}: {}".format(*sol.stop))
        y = sol.y[t.size - times.size:]
    states = _unpack(y.T)
    return states[0] if t_eval is None else states
