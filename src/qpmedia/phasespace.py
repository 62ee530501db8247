"""Gaussian-state propagation under the quadratic medium Hamiltonian.

Means and covariances evolve through the symplectic family
Lambda_t = exp(J B t) plus a driven shift Delta_t; Gaussian states stay
Gaussian, so no phase-space grid is ever materialized.  The canonical
ordering is q = [pi_u, pi_v, u, v].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ThermalSingularity
from .medium import (
    DriveSignal, KickDrive, _extended_force, _require_finite, drive_value, spectral_amplitude
)
from .spectral import SINGULAR_A_COND_THRESHOLD, EigenSystem, ExtendedOperator, _resolvent_x


def _positive_finite(name: str, value: float) -> None:
    """Reject a scale (hbar, beta, a quadrature step) that is not positive and finite."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and (complex, symmetric) covariance of a Gaussian state."""

    mean: NDArray[np.complex128]
    cov: NDArray[np.complex128]
    hbar: float = 1.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=complex).ravel()
        cov = np.asarray(self.cov, dtype=complex)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        _positive_finite("hbar", self.hbar)
        _require_finite("mean", mean)
        _require_finite("covariance", cov)
        asym = np.linalg.norm(cov - cov.T)
        scale = max(np.linalg.norm(cov), 1.0)
        if asym > 1e-10 * scale:
            raise ValueError(f"covariance asymmetry {asym / scale:.3e} too large")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", (cov + cov.T) / 2.0)


@dataclass(frozen=True)
class Propagator:
    """Integrals of motion at one time: q(t) = Lambda_t q + Delta_t."""

    lambda_t: NDArray[np.complex128]
    delta_t: NDArray[np.complex128]


def decompose_generator(ext: ExtendedOperator) -> EigenSystem:
    """The eigensystem exp(J B t) is built on: ``ext.eig``, sqrt_kappa's.

    J B has the eigenvalues +/- i mu of sqrt_kappa's mu, and every function
    of it here is built on that 2n eigensystem (:func:`_lambda_at`); no 4n
    eigensystem is decomposed.  A stage kept while perfbench counts and
    times it (``phasespace.decompose_generator_calls``).
    """
    return ext.eig


def _has_zero_mode(eig: EigenSystem) -> bool:
    """A zero mode: |mu|min^2 <= |mu|max^2 / SINGULAR_A_COND_THRESHOLD, at any scale of mu."""
    size = np.abs(eig.values)
    return bool(size.min() ** 2 <= size.max() ** 2 / SINGULAR_A_COND_THRESHOLD)


def _sinc(x):
    """sin(x) / x, finite for every finite x and 1 at x = 0.

    Where |x| < 0.1 it is the Taylor series to x^8, whose truncation is below
    3e-18; elsewhere the quotient, so no tiny or subnormal x is divided by.
    """
    small = np.abs(x) < 0.1
    if not small.any():
        return np.sin(x) / x
    x2 = x * x
    out = 1.0 + x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0 + x2 / 362880.0)))
    np.divide(np.sin(x), x, out=out, where=~small)
    return out


def _lambda_at(eig: EigenSystem, t: float, top=None):
    """exp(J B t) from ``eig`` = decompose_generator(ext), the eigensystem (mu, V) of sqrt_kappa.

    J B = [[0, A^{-1} kappa], [-A, 0]] and kappa A = A kappa^T give
    (J B)^2 = -diag(kappa^T, kappa), so
    exp(J B t) = [[c^T, A^{-1} kappa s], [-A s^T, c]] with
    c = cos(t sqrt(kappa)) = V diag(cos mu t) V^{-1} and
    s = sin(t sqrt(kappa)) / sqrt(kappa) = V diag(sin(mu t) / mu) V^{-1}
    (Higham, *Functions of Matrices*, SIAM 2008, ch. 12).  Both are entire
    in mu^2, so a zero mode is an ordinary point: sin(mu t) / mu is
    t sinc(mu t) (:func:`_sinc`) and mu sin(mu t) is mu^2 times it, finite
    for every finite t.  With A = V V^T the four blocks are
    V^{-T} diag(cos) V^T, V^{-T} diag(mu sin mu t) V^{-1},
    -V diag(sin(mu t) / mu) V^T and V diag(cos) V^{-1}: no A and no solve.

    With a 2n vector ``top`` it returns exp(J B t) @ [top; 0] from three 2n
    products, without forming the matrix; only the Delta_t quadrature passes
    one, a drive vector (:func:`_drive_vector`).  Lambda_t of a grid point or
    of ``correlation_time`` is the matrix.
    """
    V, Vi, mu = eig.right_vectors, eig.inverse_vectors, eig.values
    x = mu * t
    cos = np.cos(x)
    sin_mu = t * _sinc(x)
    mu_sin = mu * mu * sin_mu
    if top is None:
        return np.block(
            [[(Vi.T * cos) @ V.T, (Vi.T * mu_sin) @ Vi], [-(V * sin_mu) @ V.T, (V * cos) @ Vi]]
        )
    a = V.T @ top
    return np.concatenate([Vi.T @ (cos * a), V @ (-sin_mu * a)])


def _kick_step(eig: EigenSystem, force, t0: float, t1: float):
    """Integral of exp(J B s) [A^{-1} F; 0] over [t0, t1] for a constant F.

    By :func:`_lambda_at` with A^{-1} F = V^{-T} g, g = V^{-1} F, the
    integrand is [V^{-T} diag(cos mu s) g; -V diag(sin(mu s) / mu) g], whose
    integrals from 0 are t sinc(mu t) and (1 - cos mu t) / mu^2 =
    (t sinc(mu t / 2))^2 / 2, both entire in mu^2 (Hochbruck & Lubich,
    Numer. Math. 83, 1999) and finite for every finite t.
    """
    mu = eig.values
    g = eig.inverse_vectors @ force

    def cos_integral(t):
        return t * _sinc(mu * t)

    def sinc_integral(t):
        return 0.5 * (t * _sinc(mu * (t / 2.0))) ** 2

    top = eig.inverse_vectors.T @ ((cos_integral(t1) - cos_integral(t0)) * g)
    bottom = eig.right_vectors @ ((sinc_integral(t1) - sinc_integral(t0)) * g)
    return np.concatenate([top, -bottom])


def _zero_mode_gate(ext: ExtendedOperator) -> EigenSystem:
    """``ext.eig``, or ThermalSingularity on a zero mode: the thermal and classical routes' rule."""
    eig = ext.eig
    if _has_zero_mode(eig):
        size = np.abs(eig.values).min()
        raise ThermalSingularity(f"zero mode |mu| = {size:.3e} has no thermal state")
    return eig


def _thermal_gate(ext: ExtendedOperator, beta: float, hbar: float):
    """(eig, tanh(c mu)) for the blocks of cot(hbar beta J B / 2) = [[0, P], [Q, 0]].

    cot is odd and (J B)^2 = -diag(kappa^T, kappa) (:func:`_lambda_at`), so
    on the sqrt_kappa eigensystem (mu, V), with c = hbar beta / 2 and
    A = V V^T, P = -V^{-T} diag(mu coth(c mu)) V^{-1} and
    Q = V diag(coth(c mu) / mu) V^T (:func:`_thermal_Q`): no A, no solve, no
    J B eigensystem.  This one thermal gate raises ThermalSingularity on a
    zero mode (:func:`_zero_mode_gate`) and on a pole, |tanh(c mu)| < 1e-12:
    near one |cosh| = 1 + O(1e-24), so that is the cotangent's
    |sinh| < 1e-12 max(1, |cosh|), without their overflow.
    """
    _positive_finite("beta", beta)
    _positive_finite("hbar", hbar)
    eig = _zero_mode_gate(ext)
    mu = eig.values
    tanh = np.tanh(hbar * beta * mu / 2.0)
    if np.any(np.abs(tanh) < 1e-12):
        worst = complex(mu[np.argmin(np.abs(tanh))])
        raise ThermalSingularity(f"coth singular: hbar*beta*mu/2 near i pi k for mu = {worst:.3e}")
    return eig, tanh


def _thermal_Q(eig: EigenSystem, tanh) -> NDArray:
    """Q = V diag(coth(c mu) / mu) V^T from :func:`_thermal_gate`'s (eig, tanh)."""
    V = eig.right_vectors
    return (V / (tanh * eig.values)) @ V.T


def _solve_A(A, b):
    """A^{-1} b as a complex vector.

    A real A is solved against the real and imaginary parts of b as the two
    columns of one real solve, not cast to complex for a complex LU.
    """
    if np.isrealobj(A):
        parts = np.linalg.solve(A, np.stack([b.real, b.imag], axis=1))
        return parts[:, 0] + 1j * parts[:, 1]
    return np.linalg.solve(A, b)


def _drive_vector(ext: ExtendedOperator, drive):
    """A^{-1} F_t, the upper half of J C_t = [A^{-1} F_t; 0] (the lower half is zero)."""
    return _solve_A(ext.sim_A, _extended_force(ext.damping, *drive))


def _advance_delta(ext, eig: EigenSystem, drive, delta, t0, t1, quad_step: float):
    """Delta at t1 from Delta at t0: fixed Simpson steps of Delta' = Lambda_s J C_s.

    Each step takes Lambda_s J C_s at its two ends and its midpoint, the
    nodes of the RK4 step the reference integrators use.  Each node costs one
    2n solve for J C_s and one action of exp(J B s) on that vector, three 2n
    products on ``eig`` (:func:`_lambda_at`); no 4n x 4n propagator is
    formed.  A step t1 < t0 integrates backward.  A kick on a medium with a
    zero mode (:func:`_has_zero_mode`) takes the closed form of
    :func:`_kick_step` instead.
    """
    if isinstance(drive, KickDrive) and _has_zero_mode(eig):
        force = _extended_force(ext.damping, *drive_value(drive, t0))
        return delta + _kick_step(eig, force, t0, t1)
    steps = max(1, int(round(abs(t1 - t0) / quad_step)))
    h = (t1 - t0) / steps
    s = t0
    for _ in range(steps):
        k1, kmid, k4 = (
            _lambda_at(eig, x, _drive_vector(ext, drive_value(drive, x)))
            for x in (s, s + h / 2.0, s + h)
        )
        delta = delta + h / 6.0 * (k1 + 4.0 * kmid + k4)
        s += h
    return delta


def propagator_at(
    ext: ExtendedOperator,
    t: float,
    drive: DriveSignal | None = None,
    quad_step: float = 1e-3,
) -> Propagator:
    """Propagator (Lambda_t, Delta_t) at a single time.

    Lambda_t is built on the sqrt_kappa eigensystem (:func:`_lambda_at`);
    it is the one 4n x 4n matrix formed here.  Delta_t integrates
    Delta' = Lambda_s J C_s with the same fixed RK4 step the reference
    integrators use, applying exp(J B s) to the drive vector at each node,
    or takes a kick's closed form (:func:`_advance_delta`).  ``quad_step``
    must be positive and finite.
    """
    _positive_finite("quad_step", quad_step)
    eig = decompose_generator(ext)
    delta = np.zeros(2 * eig.values.size, dtype=complex)
    lam = _lambda_at(eig, t)
    if drive is not None and t != 0.0:
        delta = _advance_delta(ext, eig, drive, delta, 0.0, t, quad_step)
    return Propagator(lambda_t=lam, delta_t=delta)


def symplectic_inverse(lam: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Lambda^{-1} = J Lambda^T J^T, exact for any symplectic matrix.

    With Lambda = [[A, B], [C, D]] that product is the signed block
    transpose [[D^T, -B^T], [-C^T, A^T]], assembled here without a product.
    """
    N = lam.shape[0] // 2
    a, b = lam[:N, :N], lam[:N, N:]
    c, d = lam[N:, :N], lam[N:, N:]
    return np.block([[d.T, -b.T], [-c.T, a.T]])


def evolve_state(state: GaussianState, prop: Propagator) -> GaussianState:
    """Map mean and covariance through one propagator."""
    lam_inv = symplectic_inverse(prop.lambda_t)
    mean_t = lam_inv @ (state.mean - prop.delta_t)
    cov_t = lam_inv @ state.cov @ lam_inv.T
    return GaussianState(mean=mean_t, cov=cov_t, hbar=state.hbar)


def propagate_mean(
    ext: ExtendedOperator,
    drive: DriveSignal | None,
    q0,
    t_grid,
    quad_step: float = 1e-3,
) -> NDArray[np.complex128]:
    """Mean trajectory over a time grid with a single Delta sweep.

    Delta is carried from one sample to the next, forward or backward, so
    the grid need not be increasing; a driven grid must start at t=0.
    ``quad_step`` must be positive and finite.
    """
    _positive_finite("quad_step", quad_step)
    eig = decompose_generator(ext)
    t_grid = np.asarray(t_grid, dtype=float)
    q0 = np.asarray(q0, dtype=complex)
    N2 = 2 * eig.values.size
    out = np.empty((t_grid.size, N2), dtype=complex)
    delta = np.zeros(N2, dtype=complex)
    prev_t = 0.0
    if t_grid[0] != 0.0 and drive is not None:
        raise ValueError("driven mean propagation expects a grid starting at t=0")
    for i, t in enumerate(t_grid):
        if drive is not None and t != prev_t:
            delta = _advance_delta(ext, eig, drive, delta, prev_t, t, quad_step)
            prev_t = t
        out[i] = symplectic_inverse(_lambda_at(eig, t)) @ (q0 - delta)
    return out


def consistent_mean(ext: ExtendedOperator, x0, xdot0) -> NDArray[np.complex128]:
    """Phase-space mean [pi; x] matching extended initial data (x0, x'0)."""
    x0 = np.asarray(x0, dtype=complex)
    xdot0 = np.asarray(xdot0, dtype=complex)
    pi0 = np.linalg.solve(ext.sim_A, xdot0)
    return np.concatenate([pi0, x0])


def thermal_state(ext: ExtendedOperator, beta: float, hbar: float) -> GaussianState:
    """Thermal Gaussian state: zero mean, covariance -(hbar / 2) cot(hbar beta J B / 2) J^T.

    That is diag(-(hbar / 2) P, (hbar / 2) Q), with P, Q and the gate of :func:`_thermal_gate`.
    """
    eig, tanh = _thermal_gate(ext, beta, hbar)
    Vi = eig.inverse_vectors
    P = -(Vi.T * (eig.values / tanh)) @ Vi
    Q = _thermal_Q(eig, tanh)
    zero = np.zeros_like(P)
    cov = np.block([[-(hbar / 2.0) * P, zero], [zero, (hbar / 2.0) * Q]])
    return GaussianState(mean=np.zeros(2 * P.shape[0], dtype=complex), cov=cov, hbar=hbar)


def mean_in_frequency(
    ext: ExtendedOperator, drive: DriveSignal, omega_grid
) -> NDArray[np.complex128]:
    """Frequency-domain mean (zero initial mean assumed).

    Solves (omega E + i J_B) y = -i J C(omega) per grid point; the x block
    of the result carries the polarization sources.  With J C = [A^{-1} F; 0]
    the x rows are (omega^2 I - kappa)^{-1} F (:func:`spectral._resolvent_x`)
    and the pi rows -i omega A^{-1} x: two 2n solves per grid point.  The
    A solve of a real medium is a real one (:func:`_solve_A`).
    """
    A = ext.sim_A
    omega_grid = np.asarray(omega_grid, dtype=float)
    _require_finite("omega_grid", omega_grid)
    N = A.shape[0]
    out = np.empty((omega_grid.size, 2 * N), dtype=complex)
    f = spectral_amplitude(drive)
    for i, w in enumerate(omega_grid):
        x = _resolvent_x(ext, w, _extended_force(ext.damping, f, (-1j * w) * f))
        out[i, :N] = (-1j * w) * _solve_A(A, x)
        out[i, N:] = x
    return out
