"""Frequency-domain polarizability, eigenpair decomposition and filters.

Im alpha(omega) comes from the exact per-eigenvalue split into
absorptive/dispersive Lorentzian amplitudes, which enables reduced-order
reconstruction from a filtered subset of modes.  The dense solve per
frequency it is checked against is :func:`oracles.polarizability_direct`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import UnsupportedDrive
from .medium import KickDrive, MediumSpec, _extended_force, _require_finite
from .spectral import EigenSystem


@dataclass(frozen=True)
class ModeLedger:
    """Per-mode data for the rank-1 kick decomposition.

    ``intercept`` and ``angle`` are the constant and linear-in-omega parts
    of the diagonal coefficient C_kk(omega) = intercept_k - i omega angle_k.
    """

    mu: NDArray[np.complex128]
    intercept: NDArray[np.complex128]
    angle: NDArray[np.complex128]

    @property
    def n_modes(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class SpectrumTable:
    """Tabulated Im alpha with its absorptive/dispersive split."""

    omega_grid: NDArray[np.float64]
    im_alpha: NDArray[np.float64]
    absorptive: NDArray[np.float64] | None = None
    dispersive: NDArray[np.float64] | None = None


def decompose_modes(eig: EigenSystem, spec: MediumSpec, drive: KickDrive) -> ModeLedger:
    """Rank-1 extraction of the diagonal decomposition coefficients.

    For a kick the frequency dependence of C_kk is linear, so one O(n^2)
    pass yields intercepts and angles valid at every frequency, replacing
    an O(n^3) similarity product per grid point.
    """
    if not isinstance(drive, KickDrive):
        raise UnsupportedDrive("mode decomposition requires a kick drive")
    n = spec.n
    f = drive.amplitude.astype(complex)
    if f.shape != (n,):
        raise ValueError("kick amplitude must have length n")
    r = np.concatenate([spec.gen_coord_vector.astype(complex), np.zeros(n)])
    # the kick's force at omega splits as F(f, -i omega f) = F(f, 0) - i omega F(0, f)
    left0 = eig.inverse_vectors @ _extended_force(spec.damping, f, 0.0)
    left1 = eig.inverse_vectors @ _extended_force(spec.damping, np.zeros(n, dtype=complex), f)
    right = eig.right_vectors.T @ r
    return ModeLedger(mu=eig.values, intercept=left0 * right, angle=left1 * right)


def reconstruct_spectrum(
    ledger: ModeLedger, selected, omega_grid
) -> SpectrumTable:
    """Im alpha from a subset of modes.

    Sums absorptive and dispersive contributions over ``selected`` only;
    selecting every mode reproduces the direct sweep exactly.  Any other
    ``selected`` than distinct integers in [0, n_modes) raises a ValueError.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    _require_finite("omega_grid", omega_grid)
    selected = np.asarray(sorted(selected))
    if selected.size and not (
        selected.ndim == 1 and np.issubdtype(selected.dtype, np.integer)
        and 0 <= selected[0] and selected[-1] < ledger.n_modes and np.all(np.diff(selected) > 0)
    ):
        raise ValueError(f"selected must be distinct integers in [0, {ledger.n_modes})")
    m = omega_grid.size
    if selected.size == 0:
        zero = np.zeros(m)
        return SpectrumTable(omega_grid, zero, zero.copy(), zero.copy())

    lam = ledger.mu[selected] ** 2
    intercept = ledger.intercept[selected]
    angle = ledger.angle[selected]

    w2 = omega_grid[:, None] ** 2
    denom = (w2 - lam.real[None, :]) ** 2 + lam.imag[None, :] ** 2
    a_fac = lam.imag[None, :] / denom
    d_fac = (w2 - lam.real[None, :]) / denom
    c_diag = intercept[None, :] - 1j * omega_grid[:, None] * angle[None, :]
    absorptive = np.sum(a_fac * c_diag.real, axis=1)
    dispersive = np.sum(d_fac * c_diag.imag, axis=1)
    return SpectrumTable(
        omega_grid=omega_grid,
        im_alpha=absorptive + dispersive,
        absorptive=absorptive,
        dispersive=dispersive,
    )


def check_window(omega_lo: float, omega_hi: float) -> None:
    """Raise ValueError unless [omega_lo, omega_hi] has no nan edge and is not inverted."""
    for name, value in (("omega_lo", omega_lo), ("omega_hi", omega_hi)):
        if np.isnan(value):
            raise ValueError(f"{name} must not be nan")
    if omega_lo > omega_hi:
        raise ValueError("omega_lo must not exceed omega_hi")


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless the threshold is non-negative (inf is allowed)."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")


def filter_eigenvalue(ledger: ModeLedger, omega_lo: float, omega_hi: float):
    """Select modes whose |Re mu| lies inside [omega_lo, omega_hi]."""
    check_window(omega_lo, omega_hi)
    re = np.abs(ledger.mu.real)
    return np.flatnonzero((re >= omega_lo) & (re <= omega_hi))


def filter_intercept(ledger: ModeLedger, threshold: float):
    """Select modes whose |Re intercept| exceeds the threshold (inf selects none)."""
    check_threshold(threshold)
    return np.flatnonzero(np.abs(ledger.intercept.real) > threshold)


def __getattr__(name: str):
    # perfbench/workloads.py imports the dense-LU oracle from here; ROADMAP
    # item 1(a) moves that import to qpmedia.oracles and deletes this shim
    if name == "polarizability_direct":
        from .oracles import polarizability_direct

        return polarizability_direct
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
