"""Brute-force oracles that every fast route of the package is checked against.

The dense-LU polarizability sweep, RK4 of the second-order and extended
equations, the dense generator J_B and the on-shell energy.  No ``qpm``
command runs them, and no production module imports this one at module level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InconsistentInitialConditions, NonFinite, SingularAtFrequency
from .medium import (
    DriveSignal, KickDrive, MediumSpec, _extended_force, consistent_extended_ic, drive_value,
    extended_kernel, spectral_amplitude,
)
from .response import SpectrumTable
from .spectral import ExtendedOperator


def polarizability_direct(spec: MediumSpec, drive: DriveSignal, omega_grid) -> SpectrumTable:
    """Im alpha(omega) by a dense LU solve at every grid point.

    This route needs no eigendecomposition and is the reference the
    reduced-order reconstruction is checked against.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    f = spectral_amplitude(drive)
    r, K, G = spec.gen_coord_vector, spec.kernel, spec.damping
    eye = np.eye(spec.n, dtype=complex)
    vals = []
    for w in omega_grid:
        M = (w**2) * eye + 2j * w * G - K
        try:
            u = np.linalg.solve(M, f)
        except np.linalg.LinAlgError:
            raise SingularAtFrequency(w) from None
        vals.append(float((r @ u).imag))
    return SpectrumTable(omega_grid=omega_grid, im_alpha=np.asarray(vals))


def build_extended_force(spec: MediumSpec, drive: DriveSignal, t: float):
    """Extended-space force vector [f(t); f'(t) - 2 Gamma f(t)]."""
    return _extended_force(spec.damping, *drive_value(drive, t))


@dataclass(frozen=True)
class Trajectory:
    """Time series of (u, v) samples."""

    t: NDArray[np.float64]
    u: NDArray[np.complex128]
    v: NDArray[np.complex128]

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class ExtendedTrajectory:
    """Time series of the extended vector x = [u; v]."""

    t: NDArray[np.float64]
    x: NDArray[np.complex128]

    def __len__(self) -> int:
        return self.t.size


def _rk4_sweep(matrix, y, t_grid, force_at, out):
    """Classical RK4 for y' = M y + c(t), c = ``force_at``, each sample into ``out``."""
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(t_grid.size - 1):
            t = t_grid[i]
            h = t_grid[i + 1] - t
            c1 = force_at(t)
            c2 = force_at(t + h / 2)
            c4 = force_at(t + h)
            k1 = matrix @ y + c1
            k2 = matrix @ (y + h / 2 * k1) + c2
            k3 = matrix @ (y + h / 2 * k2) + c2
            k4 = matrix @ (y + h * k3) + c4
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            out[i + 1] = y


def _rk4_affine_sweep(matrix, const_force, y, t_grid, out):
    """RK4 specialization for autonomous linear systems, each sample into ``out``.

    For y' = M y + c with constant c and a uniform step, one RK4 step is an
    affine map y -> Phi y + psi c; applying it repeatedly is algebraically
    identical to the generic stepper and much faster.
    """
    steps = np.diff(t_grid)
    eye = np.eye(y.size, dtype=complex)
    cache: dict[float, tuple] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in enumerate(steps):
            key = float(h)
            if key not in cache:
                m2 = matrix @ matrix
                m3 = m2 @ matrix
                m4 = m3 @ matrix
                phi = eye + h * matrix + h**2 / 2 * m2 + h**3 / 6 * m3 + h**4 / 24 * m4
                psi = h * eye + h**2 / 2 * matrix + h**3 / 6 * m2 + h**4 / 24 * m3
                cache[key] = (phi, psi @ const_force)
            phi, drift = cache[key]
            y = phi @ y + drift
            out[i + 1] = y


def _rk4(matrix, y0, t_grid, drive: DriveSignal, force_at, what: str):
    """RK4 samples of y' = M y + c(t) at every grid point, c = ``force_at``.

    A kick's constant c(t_grid[0]) takes the affine sweep, any other drive
    the generic one.  An overflowed sample raises NonFinite naming ``what``.
    """
    out = np.empty((t_grid.size, y0.size), dtype=complex)
    out[0] = y0
    if isinstance(drive, KickDrive):
        _rk4_affine_sweep(matrix, force_at(t_grid[0]), y0, t_grid, out)
    else:
        _rk4_sweep(matrix, y0, t_grid, force_at, out)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFinite(f"{what} overflowed; the spectrum is likely unstable")
    return out


def integrate_reference_second_order(
    spec: MediumSpec, drive: DriveSignal, u0, v0, t_grid
) -> Trajectory:
    """Fixed-step RK4 solution of the second-order medium equation.

    The equation is rewritten as a first-order system in (u, u').  This is
    the deterministic brute-force oracle for all dynamics modules.
    """
    n = spec.n
    u0 = np.asarray(u0, dtype=complex).reshape(n)
    v0 = np.asarray(v0, dtype=complex).reshape(n)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, n:] = np.eye(n)
    mat[n:, :n] = -spec.kernel
    mat[n:, n:] = -2.0 * spec.damping

    def force_at(t):
        return np.concatenate([np.zeros(n), -drive_value(drive, t)[0]])

    ys = _rk4(mat, np.concatenate([u0, v0]), t_grid, drive, force_at, "second-order trajectory")
    return Trajectory(t=t_grid, u=ys[:, :n], v=ys[:, n:])


def integrate_reference_extended(
    spec: MediumSpec, drive: DriveSignal, x0, xdot0, t_grid
) -> ExtendedTrajectory:
    """RK4 integration of the velocity-independent extended equation.

    Raises InconsistentInitialConditions when xdot0 violates the constraint
    tying it to x0 by more than 1e-8 of its scale; ignoring that constraint
    silently decouples the extended equation from the second-order one.
    """
    n = spec.n
    x0 = np.asarray(x0, dtype=complex).reshape(2 * n)
    xdot0 = np.asarray(xdot0, dtype=complex).reshape(2 * n)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    u0, v0 = x0[:n], x0[n:]
    _, expected = consistent_extended_ic(spec, u0, v0, drive, t0=float(t_grid[0]))
    scale = max(np.abs(expected).max(), np.abs(x0).max(), 1.0)
    dev = np.abs(xdot0 - expected).max()
    if dev > 1e-8 * scale:
        raise InconsistentInitialConditions(
            f"xdot0 deviates from the constraint by {dev:.3e} (scale {scale:.3e})"
        )
    mat = np.zeros((4 * n, 4 * n), dtype=complex)
    mat[: 2 * n, 2 * n :] = np.eye(2 * n)
    mat[2 * n :, : 2 * n] = -extended_kernel(spec.kernel, spec.damping)

    def force_at(t):
        return np.concatenate([np.zeros(2 * n), -build_extended_force(spec, drive, t)])

    ys = _rk4(mat, np.concatenate([x0, xdot0]), t_grid, drive, force_at, "extended trajectory")
    return ExtendedTrajectory(t=t_grid, x=ys[:, : 2 * n])


def build_JB(ext: ExtendedOperator) -> NDArray:
    """First-order symplectic generator [[0, A^{-1} kappa], [-A, 0]].

    Its spectrum is the +/- i image of the sqrt_kappa spectrum, so the
    phase-space route adds no new resonances.  For a real medium A and
    kappa are real, and so are the solve and J_B.
    """
    A, kappa = ext.sim_A, ext.kappa
    N = 2 * ext.n
    JB = np.zeros((2 * N, 2 * N), dtype=np.result_type(A, kappa))
    JB[:N, N:] = np.linalg.solve(A, kappa)
    JB[N:, :N] = -A
    return JB


def on_shell_energy(ext: ExtendedOperator, x) -> complex:
    """Quadratic energy evaluated with the on-shell momentum relation.

    With pi = i A^{-1} sqrt_kappa x the time-independent Hamiltonian
    0.5 pi^T A pi + 0.5 x^T A^{-1} kappa x vanishes identically; the return
    value is the numerical residual of that identity.
    """
    A = ext.sim_A
    x = np.asarray(x, dtype=complex)
    pi = 1j * np.linalg.solve(A, ext.sqrt_kappa @ x)
    kinetic = 0.5 * pi @ (A @ pi)
    potential = 0.5 * x @ np.linalg.solve(A, ext.kappa @ x)
    return complex(kinetic + potential)
