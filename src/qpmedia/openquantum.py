"""Bath correlation functions and master-equation assembly.

The medium acts as a non-Hermitian Gaussian environment.  Half-domain
transforms of the two-time function <q(t) q(0)> resolve into a frequency-
dependent decoherence matrix gamma and a Lamb-shift matrix S; combined with
the Bohr decomposition of a small system's coupling operators they assemble
the Markovian master equation, which reads the thermal gamma and S at the
system's own Bohr frequencies (one 2n solve each), with no frequency grid.

Parameter domains: eta >= 0, beta > 0 and hbar > 0, all finite.  Anything
else raises a ValueError that names the parameter before any solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .medium import _positive_finite, _require_finite
from .phasespace import (
    GaussianState, _lambda_at, _thermal_gate, _thermal_Q, _zero_mode_gate, decompose_generator,
)
from .selfconsistent import auxiliary_response
from .spectral import ExtendedOperator, _resolvent_x, symplectic_form

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
    one grid point only, which is all that ``qpm bath`` and the master
    equation (on a grid of its Bohr frequencies, :func:`_channels`) read, so
    neither holds a full gamma or S.
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
    _require_finite("time", t)
    return _lambda_at(decompose_generator(ext), -t) @ _initial_moment_matrix(state0)


def _check_eta(eta: float) -> None:
    """Reject a regularization eta that is negative or not finite."""
    if not 0 <= eta < np.inf:
        raise ValueError("eta must be non-negative and finite")


def _x_sweep(ext: ExtendedOperator, omega_grid, eta: float, rhs_x, scale) -> CorrelationSet:
    """Xi(omega) = ``scale`` (z E + i J_B)^{-1} r on the x-block, one 2n solve per frequency.

    A column of the solution depends only on the same column of the
    right-hand side r, so only the 2n x-columns ``rhs_x`` are solved for.
    The x rows of (z E + i J_B)^{-1} r, z = omega + i eta, come from
    :func:`spectral._resolvent_x`, with i A r_pi formed once for the sweep
    (and not at all when r_pi is zero, as on the classical route, which then
    reads no A) and kappa once per operator.  Every route is a scalar
    multiple of them (i, -hbar and i / beta), written into one preallocated
    F x 2n x 2n array.
    """
    _check_eta(eta)
    grid = np.asarray(omega_grid, dtype=float)
    _require_finite("omega_grid", grid)
    N = 2 * ext.n
    r_pi, r_x = rhs_x[:N], rhs_x[N:]
    pi_term = 1j * (ext.sim_A @ r_pi) if r_pi.any() else 0
    xi = np.empty((grid.size, N, N), dtype=complex)
    for i, z in enumerate(grid + 1j * eta):
        xi[i] = scale * _resolvent_x(ext, z, pi_term + z * r_x)
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
    return _x_sweep(ext, omega_grid, eta, xi0[:, N:], 1j)


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
    return _x_sweep(ext, omega_grid, eta, nbe_x, -hbar)


def classical_correlation(
    ext: ExtendedOperator, beta: float, omega_grid, eta: float
) -> CorrelationSet:
    """hbar -> 0 limit of :func:`thermal_correlation` (scales as 1/beta).

    As hbar -> 0, -hbar n_BE J tends to (i / beta) J_B^{-1} J, whose
    x-columns are [0; q], q = V diag(mu^{-2}) V^T = kappa^{-1} A, the limit
    of (hbar beta / 2) Q: the thermal sweep on the same eigensystem, with no
    factorization or inverse of kappa, and refused by the same zero-mode
    rule (:func:`phasespace._zero_mode_gate`).
    """
    _positive_finite("beta", beta)
    eig = _zero_mode_gate(ext)
    V = eig.right_vectors
    q = (V / eig.values**2) @ V.T
    return _x_sweep(ext, omega_grid, eta, np.concatenate([np.zeros_like(q), q]), 1j / beta)


# ---------------------------------------------------------------------------
# System coupling and master equation
# ---------------------------------------------------------------------------

def _is_hermitian(h) -> bool:
    """h = h^dagger to 1e-12 of max(1, ||h||_F), the rule for every SystemCoupling operator."""
    return np.allclose(h, h.conj().T, atol=1e-12 * max(1.0, np.linalg.norm(h)))


@dataclass(frozen=True)
class SystemCoupling:
    """A small quantum system coupled to the medium sites.

    ``site_potentials`` holds one Hermitian dim x dim operator per medium
    source (the electrostatic potential the system generates there); the
    auxiliary channel operators follow from the medium's auxiliary response.
    """

    h_system: NDArray[np.complex128]
    site_potentials: tuple[NDArray[np.complex128], ...]
    medium: ExtendedOperator
    hbar: float = 1.0

    def __post_init__(self):
        _positive_finite("hbar", self.hbar)
        h = np.asarray(self.h_system, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(
                f"system Hamiltonian h_system must be a square matrix; got shape {h.shape}"
            )
        if not _is_hermitian(h):
            raise ValueError("system Hamiltonian must be Hermitian")
        ops = tuple(np.asarray(a, dtype=complex) for a in self.site_potentials)
        if len(ops) != self.medium.n or any(a.shape != h.shape for a in ops):
            raise ValueError(
                f"site_potentials must hold one {h.shape} operator per medium source"
                f" ({self.medium.n}); got shapes {[a.shape for a in ops]}"
            )
        bad = [k for k, a in enumerate(ops) if not _is_hermitian(a)]
        if bad:
            raise ValueError(f"site_potentials must be Hermitian; not at sources {bad}")
        object.__setattr__(self, "h_system", h)
        object.__setattr__(self, "site_potentials", ops)

    @property
    def dim(self) -> int:
        return self.h_system.shape[0]


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


def coupling_operators(coupling: SystemCoupling, bohr: BohrDecomposition, freq_energy: float):
    """Direct and auxiliary channel operators at one Bohr energy, stacked.

    The first n operators are the site pieces A_alpha(omega); the next n are
    the auxiliary-channel combinations sum_nu L_alpha,nu A_nu(omega), with L
    the medium's auxiliary response at the matching oscillation frequency.
    """
    a_ops = np.array(bohr.ops[freq_energy])
    L = auxiliary_response(coupling.medium, freq_energy / coupling.hbar)
    return np.concatenate([a_ops, np.tensordot(L, a_ops, axes=1)])


def _channels(coupling: SystemCoupling, beta: float, eta: float):
    """(O, K_gamma, K_S) per Bohr frequency omega_k: the stacked channel
    operators O and K_b = sum_a M_ab O_a^dagger for M = gamma and M = S, so
    that sum_ab M_ab O_a^dagger X O_b = sum_b K_b X O_b.  gamma and S are read
    by the index k from one :func:`thermal_correlation` sweep over omega_k / hbar,
    with the hbar and the medium of ``coupling``.
    """
    bohr = bohr_decompose(coupling)
    hbar = coupling.hbar
    corr = thermal_correlation(coupling.medium, beta, hbar, np.array(bohr.frequencies) / hbar, eta)
    for k, w in enumerate(bohr.frequencies):
        ops = coupling_operators(coupling, bohr, w)
        ops_dag = ops.conj().transpose(0, 2, 1)
        yield ops, *(np.tensordot(m, ops_dag, axes=(0, 0)) for m in corr.at(k))


def _lamb_shift(coupling: SystemCoupling, channels):
    h_ls = np.zeros((coupling.dim, coupling.dim), dtype=complex)
    for ops, _, k_s in channels:
        h_ls += (k_s @ ops).sum(axis=0)
    return h_ls / coupling.hbar


def _dissipator(coupling: SystemCoupling, channels, rho):
    out = np.zeros_like(rho)
    for ops, k_g, _ in channels:
        k_ops = (k_g @ ops).sum(axis=0)
        out += (ops @ rho @ k_g).sum(axis=0) - 0.5 * (k_ops @ rho + rho @ k_ops)
    return out / coupling.hbar**2


def lamb_shift(coupling: SystemCoupling, beta: float, eta: float):
    """Hermitian Lamb-shift operator; commutes with the system Hamiltonian."""
    return _lamb_shift(coupling, _channels(coupling, beta, eta))


def dissipator(coupling: SystemCoupling, beta: float, eta: float, rho):
    """Decoherence superoperator applied to one density matrix."""
    return _dissipator(coupling, _channels(coupling, beta, eta), np.asarray(rho, dtype=complex))


def assemble_master_equation(coupling: SystemCoupling, beta: float, eta: float, rho):
    """Right-hand side of the interaction-picture master equation.

    The Lamb shift and the dissipator share one thermal sweep at the Bohr
    frequencies (:func:`_channels`), in the gauge of ``qpm bath``.
    """
    channels = list(_channels(coupling, beta, eta))
    rho = np.asarray(rho, dtype=complex)
    h_ls = _lamb_shift(coupling, channels)
    comm = h_ls @ rho - rho @ h_ls
    return -1j / coupling.hbar * comm + _dissipator(coupling, channels, rho)
