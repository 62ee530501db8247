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
from .medium import DriveSignal, _extended_force, drive_value, spectral_amplitude
from .spectral import (
    EigenSystem,
    ExtendedOperator,
    _resolvent_x,
    _similarity_matrix,
    symplectic_form,
)


def _positive_finite(name: str, value: float) -> None:
    """Reject a physical scale (hbar, beta) that is not positive and finite."""
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
    used_expm_fallback: bool = False


def decompose_generator(ext: ExtendedOperator) -> EigenSystem:
    """The eigensystem of J B, decomposed on the first call for ``ext``."""
    return ext._generator_eigensystem


def _lambda_at(ext, jb_eig: EigenSystem, t: float, rhs=None):
    """exp(J B t), by eigenmodes when well conditioned, else scaling/squaring.

    With a vector ``rhs`` it returns exp(J B t) @ rhs without forming the
    matrix on the eigenmode route (O((4n)^2)); only the Delta_t quadrature
    passes one.  Lambda_t of a grid point or of ``correlation_time`` is the
    matrix.
    """
    if jb_eig.defective:
        # imported on the fallback alone, to keep scipy off every qpm start-up
        import scipy.linalg

        lam = scipy.linalg.expm(ext.gen_JB * t)
        return lam if rhs is None else lam @ rhs
    return jb_eig.function_of(np.exp(jb_eig.values * t), rhs)


def _thermal_spectral(ext: ExtendedOperator, beta: float, hbar: float) -> EigenSystem:
    """The J B eigensystem that a thermal matrix function of beta, hbar is built on."""
    _positive_finite("beta", beta)
    _positive_finite("hbar", hbar)
    jb_eig = decompose_generator(ext)
    if jb_eig.defective:
        raise ThermalSingularity(
            "generator eigendecomposition too ill-conditioned "
            "(free modes of a singular kernel have no thermal state)"
        )
    return jb_eig


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
    """J C_t = [A^{-1} F_t; 0] for the phase-space equations of motion."""
    top = _solve_A(_similarity_matrix(ext), _extended_force(ext.damping, *drive))
    return np.concatenate([top, np.zeros(top.size, dtype=complex)])


def _advance_delta(ext, jb_eig: EigenSystem, drive, delta, t0, t1, quad_step: float):
    """Delta at t1 from Delta at t0: fixed Simpson steps of Delta' = Lambda_s J C_s.

    Each step takes Lambda_s J C_s at its two ends and its midpoint, the
    nodes of the RK4 step the reference integrators use.  Each node costs one
    2n solve for J C_s and one action of exp(J B s) on that vector; no 4n x 4n
    propagator is formed.  A step t1 < t0 integrates backward.
    """
    steps = max(1, int(round(abs(t1 - t0) / quad_step)))
    h = (t1 - t0) / steps
    s = t0
    for _ in range(steps):
        k1, kmid, k4 = (
            _lambda_at(ext, jb_eig, x, _drive_vector(ext, drive_value(drive, x)))
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

    Lambda_t comes from the generator eigendecomposition (with a
    scaling-and-squaring fallback for ill-conditioned eigenvectors, flagged
    in ``used_expm_fallback``); it is the one 4n x 4n matrix formed here.
    Delta_t integrates Delta' = Lambda_s J C_s with the same fixed RK4 step
    the reference integrators use, applying exp(J B s) to the drive vector
    at each node.
    """
    jb_eig = decompose_generator(ext)
    delta = np.zeros(jb_eig.values.size, dtype=complex)
    lam = _lambda_at(ext, jb_eig, t)
    if drive is not None and t != 0.0:
        delta = _advance_delta(ext, jb_eig, drive, delta, 0.0, t, quad_step)
    return Propagator(lambda_t=lam, delta_t=delta, used_expm_fallback=jb_eig.defective)


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
    """
    jb_eig = decompose_generator(ext)
    t_grid = np.asarray(t_grid, dtype=float)
    q0 = np.asarray(q0, dtype=complex)
    N2 = jb_eig.values.size
    out = np.empty((t_grid.size, N2), dtype=complex)
    delta = np.zeros(N2, dtype=complex)
    prev_t = 0.0
    if t_grid[0] != 0.0 and drive is not None:
        raise ValueError("driven mean propagation expects a grid starting at t=0")
    for i, t in enumerate(t_grid):
        if drive is not None and t != prev_t:
            delta = _advance_delta(ext, jb_eig, drive, delta, prev_t, t, quad_step)
            prev_t = t
        out[i] = symplectic_inverse(_lambda_at(ext, jb_eig, t)) @ (q0 - delta)
    return out


def consistent_mean(ext: ExtendedOperator, x0, xdot0) -> NDArray[np.complex128]:
    """Phase-space mean [pi; x] matching extended initial data (x0, x'0)."""
    x0 = np.asarray(x0, dtype=complex)
    xdot0 = np.asarray(xdot0, dtype=complex)
    pi0 = np.linalg.solve(_similarity_matrix(ext), xdot0)
    return np.concatenate([pi0, x0])


def thermal_state(ext: ExtendedOperator, beta: float, hbar: float) -> GaussianState:
    """Thermal Gaussian state: zero mean, matrix-cotangent covariance."""
    jb_eig = _thermal_spectral(ext, beta, hbar)
    args = hbar * beta * jb_eig.values / 2.0
    sin = np.sin(args)
    if np.any(np.abs(sin) < 1e-12 * np.maximum(1.0, np.abs(np.cos(args)))):
        worst = jb_eig.values[np.argmin(np.abs(sin))]
        raise ThermalSingularity(
            f"cot singular: hbar*beta*lambda/2 near a multiple of pi for lambda={worst!r}"
        )
    cot = np.cos(args) / sin
    N = 2 * ext.n
    J = symplectic_form(N)
    M0 = -(hbar / 2.0) * jb_eig.function_of(cot) @ J.T
    M0 = (M0 + M0.T) / 2.0
    return GaussianState(mean=np.zeros(2 * N, dtype=complex), cov=M0, hbar=hbar)


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
    A = _similarity_matrix(ext)
    omega_grid = np.asarray(omega_grid, dtype=float)
    N = A.shape[0]
    kappa = ext.kappa
    out = np.empty((omega_grid.size, 2 * N), dtype=complex)
    f = spectral_amplitude(drive)
    for i, w in enumerate(omega_grid):
        x = _resolvent_x(kappa, w, _extended_force(ext.damping, f, (-1j * w) * f))
        out[i, :N] = (-1j * w) * _solve_A(A, x)
        out[i, N:] = x
    return out
