"""Bath correlation functions and master-equation assembly.

The medium acts as a non-Hermitian Gaussian environment.  Half-domain
transforms of the two-time function <q(t) q(0)> resolve into a frequency-
dependent decoherence matrix gamma and a Lamb-shift matrix S; combined with
the Bohr decomposition of a small system's coupling operators they assemble
the Markovian master equation.

Parameter domains: eta >= 0, beta > 0 and hbar > 0, all finite.  Anything
else raises a ValueError that names the parameter before any solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import FrequencyNotCovered, ThermalSingularity
from .phasespace import (
    GaussianState, _lambda_at, _positive_finite, _thermal_gate, _thermal_Q, decompose_generator
)
from .selfconsistent import auxiliary_response
from .spectral import SINGULAR_A_COND_THRESHOLD, ExtendedOperator, _resolvent_x, symplectic_form

BOHR_GROUP_TOL = 1e-10


def _gamma_s(xi):
    """(gamma, S) = (Xi + Xi^dagger, (Xi - Xi^dagger) / 2i) on the last two axes of ``xi``."""
    xi_dag = np.conj(np.swapaxes(xi, -1, -2))
    return xi + xi_dag, (xi - xi_dag) / 2j


@dataclass(frozen=True)
class CorrelationSet:
    """Frequency-resolved bath statistics on the physical (x) block.

    Stored: ``omega_grid`` and ``xi``, one F x 2n x 2n tensor.  The
    decoherence matrix ``gamma`` = Xi + Xi^dagger and the Lamb-shift matrix
    ``s_ls`` = (Xi - Xi^dagger) / 2i are formed from it on every read and
    are exactly Hermitian at every grid point.  :meth:`at` forms them at
    one grid point only, which is all that ``qpm bath``, :func:`lamb_shift`
    and :func:`dissipator` read, so none of them holds a full gamma or S.
    """

    omega_grid: NDArray[np.float64]
    xi: NDArray[np.complex128]

    @property
    def gamma(self) -> NDArray[np.complex128]:
        return _gamma_s(self.xi)[0]

    @property
    def s_ls(self) -> NDArray[np.complex128]:
        return _gamma_s(self.xi)[1]

    def at(self, i: int) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
        """(gamma, S) at grid point ``i``, equal bit for bit to (gamma[i], s_ls[i])."""
        return _gamma_s(self.xi[i])


def _initial_moment_matrix(state0: GaussianState) -> NDArray[np.complex128]:
    N2 = state0.mean.size
    J = symplectic_form(N2 // 2)
    return (
        state0.cov
        + 0.5j * state0.hbar * J.T
        + np.outer(state0.mean, state0.mean)
    )


def correlation_time(ext: ExtendedOperator, state0: GaussianState, t: float):
    """Two-time moment matrix <q_H(t) q^T> over the initial Gaussian state.

    Full 4n x 4n matrix; the physically coupled block is rows/columns of
    the x variables (indices 2n..4n).  The medium is assumed undriven, so
    the shift term of the evolution vanishes; driven-bath correlations are
    out of scope.
    """
    return _lambda_at(decompose_generator(ext), -t) @ _initial_moment_matrix(state0)


def _check_eta(eta: float) -> None:
    """Reject a regularization eta that is negative or not finite."""
    if not 0 <= eta < np.inf:
        raise ValueError("eta must be non-negative and finite")


def _x_sweep(ext: ExtendedOperator, omega_grid, eta: float, rhs_x, finish) -> CorrelationSet:
    """Xi(omega) on the x-block, one 2n solve per grid frequency.

    A column of the solution depends only on the same column of the
    right-hand side r, so only the 2n x-columns ``rhs_x`` are solved for.
    The x rows of (z E + i J_B)^{-1} r, z = omega + i eta, come from
    :func:`spectral._resolvent_x`, with kappa and i A r_pi formed once for
    the sweep; ``finish(z, x)`` maps each 2n x 2n block of them to Xi,
    written into one preallocated F x 2n x 2n array.
    """
    _check_eta(eta)
    A = ext.sim_A
    grid = np.asarray(omega_grid, dtype=float)
    N = A.shape[0]
    kappa = ext.kappa
    pi_term, r_x = 1j * (A @ rhs_x[:N]), rhs_x[N:]
    xi = np.empty((grid.size, N, N), dtype=complex)
    for i, z in enumerate(grid + 1j * eta):
        xi[i] = finish(z, _resolvent_x(kappa, z, pi_term + z * r_x))
    return CorrelationSet(omega_grid=grid, xi=xi)


def correlation_frequency(
    ext: ExtendedOperator, state0: GaussianState, omega_grid, eta: float
) -> CorrelationSet:
    """Half-domain transform of the correlation matrix, eta-regularized.

    Xi(omega) = i ((omega + i eta) E + i J_B)^{-1} Xi(0), restricted to the
    x-block; the limit eta -> 0+ is studied by sweeping eta from the caller.
    """
    N = 2 * ext.n
    xi0 = _initial_moment_matrix(state0)
    return _x_sweep(ext, omega_grid, eta, xi0[:, N:], lambda z, x: 1j * x)


def thermal_correlation(
    ext: ExtendedOperator, beta: float, hbar: float, omega_grid, eta: float
) -> CorrelationSet:
    """Thermal-state correlations through the matrix Bose-Einstein factor.

    Xi(omega) = -hbar (z E + i J_B)^{-1} n_BE J on the x-block; the
    x-columns of n_BE J are the first 2n columns of n_BE, the only ones
    formed.  n_BE = -1/2 - (i/2) cot(hbar beta J_B / 2) makes them [-I/2; -(i/2) Q],
    with the gate of :func:`phasespace._thermal_gate` and Q alone, not the P
    block that :func:`phasespace.thermal_state` also forms.  The set holds
    Xi alone; gamma and S are formed from it when read (:class:`CorrelationSet`).
    """
    Q = _thermal_Q(*_thermal_gate(ext, beta, hbar))
    nbe_x = np.concatenate([-0.5 * np.eye(Q.shape[0]), -0.5j * Q])
    return _x_sweep(ext, omega_grid, eta, nbe_x, lambda z, x: -hbar * x)


def classical_correlation(
    ext: ExtendedOperator, beta: float, omega_grid, eta: float
) -> CorrelationSet:
    """hbar -> 0 limit of the thermal correlations (scales as 1/beta).

    Xi(omega) = -(i beta J_B)^{-1} (z E + i J_B)^{-1} J on the x-block.  The
    x rows of J_B^{-1} are [kappa^{-1} A, 0], and the pi rows of the
    resolvent on J's x-columns are z R^T = z A^{-1} R A (A kappa^T = kappa A),
    so Xi = (z / beta) kappa^{-1} y_x, with y_x = i R A the x rows of that
    resolvent: one 2n inverse per sweep and no 4n matrix.  A kappa whose
    cond exceeds SINGULAR_A_COND_THRESHOLD (the free charge mode of a Drude
    medium) has no trusted inverse and raises ThermalSingularity.
    """
    _positive_finite("beta", beta)
    N = 2 * ext.n
    kappa = ext.kappa
    cond = np.linalg.cond(kappa)
    if not cond <= SINGULAR_A_COND_THRESHOLD:
        raise ThermalSingularity(
            f"cond(kappa) = {cond:.3e} exceeds {SINGULAR_A_COND_THRESHOLD:.1e}: "
            "free modes of a singular kernel have no classical thermal state"
        )
    kappa_inv = np.linalg.inv(kappa)
    return _x_sweep(
        ext, omega_grid, eta, symplectic_form(N)[:, N:], lambda z, x: (z / beta) * (kappa_inv @ x)
    )


# ---------------------------------------------------------------------------
# System coupling and master equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemCoupling:
    """A small quantum system coupled to the medium sites.

    ``site_potentials`` holds one Hermitian operator per source (the
    electrostatic potential the system generates there); the auxiliary
    channel operators follow from the medium's auxiliary response.
    """

    h_system: NDArray[np.complex128]
    site_potentials: tuple[NDArray[np.complex128], ...]
    medium: ExtendedOperator
    hbar: float = 1.0

    def __post_init__(self):
        h = np.asarray(self.h_system, dtype=complex)
        if not np.allclose(h, h.conj().T, atol=1e-12 * max(1.0, np.linalg.norm(h))):
            raise ValueError("system Hamiltonian must be Hermitian")
        object.__setattr__(self, "h_system", h)
        object.__setattr__(
            self,
            "site_potentials",
            tuple(np.asarray(a, dtype=complex) for a in self.site_potentials),
        )

    @property
    def dim(self) -> int:
        return self.h_system.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.site_potentials)


@dataclass(frozen=True)
class BohrDecomposition:
    """Coupling operators resolved over the Bohr frequencies of the system."""

    frequencies: tuple[float, ...]
    ops: dict


def bohr_decompose(coupling: SystemCoupling) -> BohrDecomposition:
    """Split every site operator over the system's Bohr frequencies.

    The transitions eps_j - eps_i are sorted and chained into one cluster
    while consecutive gaps stay within BOHR_GROUP_TOL; a cluster's frequency
    is the mean of its members.  Each transition is labelled with its
    cluster once, and the pieces of each operator sum back to it exactly.
    """
    eps, U = np.linalg.eigh(coupling.h_system)
    gaps = eps[None, :] - eps[:, None]  # entry (i, j): eps_j - eps_i
    ranked = np.sort(gaps, axis=None)
    clusters = np.split(ranked, np.flatnonzero(np.diff(ranked) > BOHR_GROUP_TOL) + 1)
    label = np.searchsorted([c[0] for c in clusters], gaps, side="right") - 1
    a_eig = [U.conj().T @ a_op @ U for a_op in coupling.site_potentials]
    ops: dict[float, list[NDArray[np.complex128]]] = {}
    for k, cluster in enumerate(clusters):
        pieces = [U @ np.where(label == k, a, 0) @ U.conj().T for a in a_eig]
        if any(np.linalg.norm(p) > 0 for p in pieces):
            ops[float(np.mean(cluster))] = pieces
    return BohrDecomposition(frequencies=tuple(ops), ops=ops)


def _interp_tensor(grid, block, x: float):
    """Linear interpolation of a matrix table along its grid axis.

    ``block(i)`` is the table's matrix at ``grid[i]``; only the two that
    bracket ``x`` are read.
    """
    if x < grid[0] or x > grid[-1]:
        raise FrequencyNotCovered([x])
    i = int(np.searchsorted(grid, x, side="right"))
    i = min(max(i, 1), grid.size - 1)
    lo, hi = i - 1, i
    if grid[hi] == grid[lo]:
        return block(lo)
    w = (x - grid[lo]) / (grid[hi] - grid[lo])
    return (1.0 - w) * block(lo) + w * block(hi)


def coupling_operators(coupling: SystemCoupling, bohr: BohrDecomposition, freq_energy: float):
    """Direct and auxiliary channel operators at one Bohr energy, stacked.

    The first n operators are the site pieces A_alpha(omega); the next n are
    the auxiliary-channel combinations sum_nu L_alpha,nu A_nu(omega), with L
    the medium's auxiliary response at the matching oscillation frequency.
    """
    a_ops = np.array(bohr.ops[freq_energy])
    L = auxiliary_response(coupling.medium, freq_energy / coupling.hbar)
    return np.concatenate([a_ops, np.tensordot(L, a_ops, axes=1)])


def _channels(coupling: SystemCoupling, corr: CorrelationSet, part: int, bohr):
    """(O, K) per Bohr frequency: the stacked channel operators O and
    K_b = sum_a M_ab O_a^dagger, with M the table ``corr.at(i)[part]``
    (0: gamma, 1: S) interpolated there from its two bracketing grid
    points, so that sum_ab M_ab O_a^dagger X O_b = sum_b K_b X O_b.

    ``bohr`` is decomposed if None; FrequencyNotCovered lists every Bohr
    frequency off the grid.
    """
    bohr = bohr_decompose(coupling) if bohr is None else bohr
    grid, hbar = corr.omega_grid, coupling.hbar
    missing = [w / hbar for w in bohr.frequencies if not grid[0] <= w / hbar <= grid[-1]]
    if missing:
        raise FrequencyNotCovered(missing)
    for w in bohr.frequencies:
        ops = coupling_operators(coupling, bohr, w)
        m = _interp_tensor(grid, lambda i: corr.at(i)[part], w / hbar)
        yield ops, np.tensordot(m, ops.conj().transpose(0, 2, 1), axes=(0, 0))


def lamb_shift(coupling: SystemCoupling, corr: CorrelationSet, bohr=None):
    """Hermitian Lamb-shift operator; commutes with the system Hamiltonian."""
    h_ls = np.zeros((coupling.dim, coupling.dim), dtype=complex)
    for ops, k in _channels(coupling, corr, 1, bohr):
        h_ls += (k @ ops).sum(axis=0)
    return h_ls / coupling.hbar


def dissipator(coupling: SystemCoupling, corr: CorrelationSet, rho, bohr=None):
    """Decoherence superoperator applied to one density matrix."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for ops, k in _channels(coupling, corr, 0, bohr):
        k_ops = (k @ ops).sum(axis=0)
        out += (ops @ rho @ k).sum(axis=0) - 0.5 * (k_ops @ rho + rho @ k_ops)
    return out / coupling.hbar**2


def assemble_master_equation(coupling: SystemCoupling, corr: CorrelationSet, rho):
    """Right-hand side of the interaction-picture master equation."""
    bohr = bohr_decompose(coupling)
    rho = np.asarray(rho, dtype=complex)
    h_ls = lamb_shift(coupling, corr, bohr)
    comm = h_ls @ rho - rho @ h_ls
    return -1j / coupling.hbar * comm + dissipator(coupling, corr, rho, bohr)
