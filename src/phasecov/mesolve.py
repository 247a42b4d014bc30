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
the generator is affine, rate_k(t) (A_k y + c_k).  A_k and c_k are
found once, by applying the dissipators and the commutator to the basis
states (superoperator form: Breuer and Petruccione, *The Theory of Open
Quantum Systems*, 2002), and written out, on first use for each pattern
of rates that are not ``_zero``, as one straight-line right-hand side
that calls those rates and adds their rate-weighted terms in float
arithmetic; ``liouvillian`` stays as the 2x2 form.  The whole
integration is one LSODA call into ODEPACK (``coeffs.solve_ivp``) from 0
through every requested time, with ``tcrit`` at the last of them so that
no rate is sampled past it; a solver failure, or a reported state that
is not finite, raises :class:`IntegrationError` naming the time.
Profiles with a rate singularity inside the integration window are
refused: the generator diverges there even though the map stays finite,
and the closed-form route is the authority across such points.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .coeffs import RateProfile, _validate_times, _zero, solve_ivp

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
    """Check Hermiticity, unit trace and positivity of a 2x2 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -tol:
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


def _affine_terms() -> tuple:
    """The nonzero entries of the affine generator on y = (P1, Re alpha, Im alpha).

    For each component i of dy/dt, a tuple of (k, j, a) meaning
    rate_k * a * y_j, where j = 3 stands for the constant 1.  Found by
    applying each term of ``_TERMS`` to the state at y = 0, which gives
    c_k, and to the basis directions of P1, Re alpha and Im alpha, which
    give the columns of A_k.
    """
    base = _unpack(np.zeros(3))
    rows = ([], [], [])
    for k, term in enumerate(_TERMS):
        const = _pack(term(base))
        for j in range(4):
            col = const if j == 3 else _pack(term(_unpack(np.eye(3)[j]))) - const
            for i, a in enumerate(col.tolist()):
                if a != 0.0:
                    rows[i].append((k, j, a))
    return tuple(map(tuple, rows))


@functools.cache
def _compiled_rhs(live: tuple[bool, bool, bool, bool]):
    """dy/dt = sum_k rate_k(t) (A_k y + c_k) as straight-line code.

    ``live`` marks which of (gamma1, gamma2, gamma3, omega) are not
    ``_zero``; the terms of the others are dropped.  Built once per
    pattern from the rows of ``_affine_terms``: the returned
    ``bind(*rates)`` takes the live rate callables and gives the
    right-hand side ``rhs(t, y)``, which calls each of them once, in
    order, at each new t, and adds the terms rate_k * a * y_j of each row
    in their order from 0.0, with the coefficients a written out by their
    exact repr.  A dropped term is a signed zero for a finite state, so
    the sum is the one over all four rates bit for bit.  The rates at the
    last t are kept: LSODA's corrector calls rhs again at the same t, and
    the rates of a ``RateProfile`` are deterministic.
    """
    def term(k, j, a):
        # (rate * a) * 1.0 is rate * a exactly: the constant column needs no factor
        return f"r{k} * {a!r}" + ("" if j == 3 else f" * y{j}")

    body = ", ".join(" + ".join(["0.0", *(term(*t) for t in row if live[t[0]])])
                     for row in _affine_terms())
    ks = [k for k in range(4) if live[k]]
    kept = ", ".join(["last", *(f"r{k}" for k in ks)])
    code = (f"def bind({', '.join(f'rate{k}' for k in ks)}):\n"
            f"    {kept} = {', '.join(['None'] * (len(ks) + 1))}\n"
            "    def rhs(t, y):\n"
            f"        nonlocal {kept}\n"
            "        if t != last:\n"
            + "".join(f"            r{k} = rate{k}(t)\n" for k in ks)
            + "            last = t\n"
            + "        y0, y1, y2 = y.tolist()\n"
            f"        return [{body}]\n"
            "    return rhs\n")
    namespace = {}
    exec(code, namespace)
    return namespace["bind"]


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
        Valid 2x2 density matrix at t = 0.
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
        rates = (profile.gamma1, profile.gamma2, profile.gamma3, profile.omega)
        rhs = _compiled_rhs(tuple(r is not _zero for r in rates))(
            *(r for r in rates if r is not _zero))
        t = times if times[0] == 0.0 else np.insert(times, 0, 0.0)
        sol = solve_ivp(rhs, t, y[0], rtol, atol)
        if sol.stop is not None:
            raise IntegrationError("integration failed at t = {:g}: {}".format(*sol.stop))
        y = sol.y[t.size - times.size:]
    states = _unpack(y.T)
    return states[0] if t_eval is None else states
