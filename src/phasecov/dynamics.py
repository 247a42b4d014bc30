"""Closed-form state evolution and the equivalent affine Bloch map.

Conventions, fixed once for the whole package:

* |1> is the ground state and the first basis vector,
* P1 = <1|rho|1>, alpha = <1|rho|2>,
* Bloch components x3 = 2 P1 - 1 and alpha = (x1 - i x2)/2.

With accumulated coefficients (Gamma, GammaTilde, Omega, g) the map is

    P1(t)    = exp(-Gamma) P1(0) + g
    alpha(t) = alpha(0) exp(i Omega - Gamma/2 - GammaTilde)

or, on Bloch vectors, v(t) = L v(0) + (0, 0, t3) with
t3 = 2 g + exp(-Gamma) - 1, lambda3 = exp(-Gamma) and the rotation-scaled
transverse block |kappa| R(Omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import CoefficientSet

__all__ = [
    "QubitState",
    "AffineBlochMap",
    "AdditivityReport",
    "evolve_state",
    "bloch_map",
    "apply_bloch",
    "compose_maps",
    "additivity_report",
]

_STATE_TOL = 1e-9


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix as (ground population, coherence <1|rho|2>)."""

    P1: float
    alpha: complex = 0j

    def __post_init__(self):
        if not -_STATE_TOL <= self.P1 <= 1.0 + _STATE_TOL:
            raise ValueError(f"P1 = {self.P1} outside [0, 1]")
        if not abs(self.alpha) ** 2 <= self.P1 * (1.0 - self.P1) + _STATE_TOL:
            raise ValueError("coherence violates |alpha|^2 <= P1 (1 - P1)")

    @property
    def bloch(self) -> np.ndarray:
        return np.array([2.0 * self.alpha.real, -2.0 * self.alpha.imag,
                         2.0 * self.P1 - 1.0])

    @classmethod
    def from_bloch(cls, v: Sequence[float]) -> "QubitState":
        x1, x2, x3 = (float(c) for c in v)
        return cls(P1=(1.0 + x3) / 2.0, alpha=complex(x1, -x2) / 2.0)

    @property
    def density_matrix(self) -> np.ndarray:
        return np.array([[self.P1, self.alpha],
                         [self.alpha.conjugate(), 1.0 - self.P1]], dtype=complex)

    @classmethod
    def from_density_matrix(cls, rho) -> "QubitState":
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        return cls(P1=rho[0, 0].real, alpha=complex(rho[0, 1]))


@dataclass(frozen=True)
class AffineBlochMap:
    """Bloch-space form v -> L v + (0, 0, t3) of a phase-covariant map.

    kappa = exp(i Omega - Gamma/2 - GammaTilde) carries the transverse
    contraction and rotation; lambda3 = exp(-Gamma) the longitudinal one.
    """

    lambda3: float
    t3: float
    kappa: complex

    @property
    def matrix(self) -> np.ndarray:
        k_re, k_im = self.kappa.real, self.kappa.imag
        return np.array([[k_re, k_im, 0.0],
                         [-k_im, k_re, 0.0],
                         [0.0, 0.0, self.lambda3]])

    @property
    def translation(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.t3])

    @classmethod
    def identity(cls) -> "AffineBlochMap":
        return cls(lambda3=1.0, t3=0.0, kappa=1.0 + 0j)


def evolve_state(state: QubitState, c: CoefficientSet) -> QubitState:
    """Apply the closed-form solution to a state.

    On a coefficient grid (a CoefficientSet of arrays) it returns the
    arrays (P1, alpha) over the grid instead, and raises ValueError,
    naming the time, at the first row whose state is not a QubitState.
    """
    if not isinstance(state, QubitState):
        raise ValueError("state must be a QubitState")
    P1 = c.decay * state.P1 + c.g
    alpha = state.alpha * c.kappa
    if not isinstance(P1, np.ndarray):
        return QubitState(P1=P1, alpha=alpha)
    # the inequalities of QubitState, which then words the first failure
    outside = ~((-_STATE_TOL <= P1) & (P1 <= 1.0 + _STATE_TOL)
                & (np.abs(alpha) ** 2 <= P1 * (1.0 - P1) + _STATE_TOL))
    if outside.any():
        i = int(np.argmax(outside))
        try:
            QubitState(float(P1[i]), complex(alpha[i]))
        except ValueError as exc:
            raise ValueError(f"at t = {float(c.t[i])!r}: {exc}") from None
    return P1, alpha


def bloch_map(c: CoefficientSet) -> AffineBlochMap:
    """Affine Bloch map of a coefficient set.

    t3 = exp(-Gamma)(1 + 2G) - 1 is assembled as 2 g + exp(-Gamma) - 1,
    which never forms the overflowing exp(+Gamma) G product.
    """
    decay = c.decay
    return AffineBlochMap(lambda3=decay, t3=2.0 * c.g + decay - 1.0, kappa=c.kappa)


def apply_bloch(m: AffineBlochMap, v: Sequence[float]) -> np.ndarray:
    """Map a Bloch vector, v -> L v + T."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if np.dot(v, v) > 1.0 + 1e-6:
        raise ValueError("Bloch vector lies outside the unit ball")
    return m.matrix @ v + m.translation


def compose_maps(outer: AffineBlochMap, inner: AffineBlochMap) -> AffineBlochMap:
    """Composition outer(inner(.)) of two phase-covariant maps."""
    return AffineBlochMap(
        lambda3=outer.lambda3 * inner.lambda3,
        t3=outer.lambda3 * inner.t3 + outer.t3,
        kappa=outer.kappa * inner.kappa,
    )


@dataclass(frozen=True)
class AdditivityReport:
    """Decomposition of ln|alpha(t)/alpha(0)| into environment addends.

    The dissipator contributes -Gamma/2 and each independent dephaser
    -GammaTilde_k; the total is their plain sum, so the attenuation
    factors multiply.
    """

    t: float
    dissipative_term: float
    dephasing_terms: tuple[float, ...]
    total: float
    attenuation: float


def additivity_report(
    dissipative: CoefficientSet,
    dephasers: Sequence[CoefficientSet],
    t: float,
) -> AdditivityReport:
    """Split the coherence decay exponent by environment.

    All coefficient sets must be evaluated at the same time t.
    """
    for c in (dissipative, *dephasers):
        if abs(c.t - t) > 1e-12 * max(1.0, abs(t)):
            raise ValueError(f"coefficient set at t = {c.t} does not match t = {t}")
    terms = tuple(-c.GammaTilde for c in dephasers)
    total = -0.5 * dissipative.Gamma + math.fsum(terms)
    return AdditivityReport(
        t=t,
        dissipative_term=-0.5 * dissipative.Gamma,
        dephasing_terms=terms,
        total=total,
        attenuation=math.exp(total),
    )
