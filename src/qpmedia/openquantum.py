"""Bath correlation functions and master-equation assembly.

The medium acts as a non-Hermitian Gaussian environment.  Half-domain
transforms of the two-time function <q(t) q(0)> resolve into a frequency-
dependent decoherence matrix gamma and a Lamb-shift matrix S; combined with
the Bohr decomposition of a small system's coupling operators they assemble
the Markovian master equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import FrequencyNotCovered, ThermalSingularity
from .phasespace import GaussianState, _lambda_at, _thermal_spectral, decompose_generator
from .selfconsistent import auxiliary_response
from .spectral import ExtendedOperator, _generator, _resolvent_solve, symplectic_form

BOHR_GROUP_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationSet:
    """Frequency-resolved bath statistics on the physical (x) block.

    ``gamma`` is Hermitian at every grid point by construction
    (Xi + Xi^dagger), as is the Lamb-shift matrix ``s_ls``.
    """

    omega_grid: NDArray[np.float64]
    xi: NDArray[np.complex128]
    gamma: NDArray[np.complex128]
    s_ls: NDArray[np.complex128]


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
    return _lambda_at(ext, decompose_generator(ext), -t) @ _initial_moment_matrix(state0)


def x_block(matrix: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Restrict a 4n x 4n phase-space matrix to the x rows/columns."""
    N = matrix.shape[0] // 2
    return matrix[N:, N:]


def _assemble_set(omega_grid, xi_full) -> CorrelationSet:
    xi = np.array([x_block(m) for m in xi_full])
    gamma = xi + np.conj(np.transpose(xi, (0, 2, 1)))
    s_ls = (xi - np.conj(np.transpose(xi, (0, 2, 1)))) / 2j
    grid = np.asarray(omega_grid, dtype=float)
    return CorrelationSet(omega_grid=grid, xi=xi, gamma=gamma, s_ls=s_ls)


def correlation_frequency(
    ext: ExtendedOperator, state0: GaussianState, omega_grid, eta: float
) -> CorrelationSet:
    """Half-domain transform of the correlation matrix, eta-regularized.

    Xi(omega) = i ((omega + i eta) E + i J_B)^{-1} Xi(0); the limit
    eta -> 0+ is studied by sweeping eta from the caller.
    """
    if eta < 0:
        raise ValueError("eta must be non-negative")
    omega_grid = np.asarray(omega_grid, dtype=float)
    xi0 = _initial_moment_matrix(state0)
    out = [1j * _resolvent_solve(ext, w, xi0, eta) for w in omega_grid]
    return _assemble_set(omega_grid, out)


def _bose_einstein_matrix(ext: ExtendedOperator, beta: float, hbar: float):
    jb_eig = _thermal_spectral(ext)
    args = hbar * beta * 1j * jb_eig.values
    denom = np.expm1(args)
    if np.any(np.abs(denom) < 1e-12):
        worst = jb_eig.values[np.argmin(np.abs(denom))]
        raise ThermalSingularity(f"Bose factor singular at generator eigenvalue {worst!r}")
    return jb_eig.function_of(1.0 / denom)


def thermal_correlation(
    ext: ExtendedOperator, beta: float, hbar: float, omega_grid, eta: float
) -> CorrelationSet:
    """Thermal-state correlations through the matrix Bose-Einstein factor."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    omega_grid = np.asarray(omega_grid, dtype=float)
    nbe = _bose_einstein_matrix(ext, beta, hbar)
    rhs = nbe @ symplectic_form(2 * ext.n)
    out = [-hbar * _resolvent_solve(ext, w, rhs, eta) for w in omega_grid]
    return _assemble_set(omega_grid, out)


def classical_correlation(
    ext: ExtendedOperator, beta: float, omega_grid, eta: float
) -> CorrelationSet:
    """hbar -> 0 limit of the thermal correlations (scales as 1/beta)."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    prefactor = -np.linalg.inv(beta * 1j * _generator(ext))
    J = symplectic_form(2 * ext.n)
    out = [prefactor @ _resolvent_solve(ext, w, J, eta) for w in omega_grid]
    return _assemble_set(omega_grid, out)


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

    Frequencies closer than BOHR_GROUP_TOL are merged into one cluster; the pieces
    of each operator sum back to the operator exactly.
    """
    eps, U = np.linalg.eigh(coupling.h_system)
    d = coupling.dim
    raw = []
    for i in range(d):
        for j in range(d):
            raw.append(eps[j] - eps[i])
    raw.sort()
    clusters: list[list[float]] = []
    for x in raw:
        if clusters and abs(x - clusters[-1][-1]) <= BOHR_GROUP_TOL:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    centers = [float(np.mean(c)) for c in clusters]

    def cluster_of(x: float) -> float:
        k = int(np.argmin([abs(x - c) for c in centers]))
        return centers[k]

    ops: dict[float, list[NDArray[np.complex128]]] = {c: [] for c in centers}
    for a_op in coupling.site_potentials:
        a_eig = U.conj().T @ a_op @ U
        pieces: dict[float, NDArray[np.complex128]] = {c: np.zeros((d, d), complex) for c in centers}
        for i in range(d):
            for j in range(d):
                w = cluster_of(eps[j] - eps[i])
                pieces[w][i, j] += a_eig[i, j]
        for c in centers:
            pieces[c] = U @ pieces[c] @ U.conj().T
        for c in centers:
            ops[c].append(pieces[c])
    present = tuple(
        c for c in centers if any(np.linalg.norm(ops[c][a]) > 0 for a in range(coupling.n_sites))
    )
    ops = {c: ops[c] for c in present}
    return BohrDecomposition(frequencies=present, ops=ops)


def _interp_tensor(grid, tensor, x: float):
    """Linear interpolation of a stacked matrix table along its grid axis."""
    if x < grid[0] or x > grid[-1]:
        raise FrequencyNotCovered([x])
    i = int(np.searchsorted(grid, x, side="right"))
    i = min(max(i, 1), grid.size - 1)
    lo, hi = i - 1, i
    if grid[hi] == grid[lo]:
        return tensor[lo]
    w = (x - grid[lo]) / (grid[hi] - grid[lo])
    return (1.0 - w) * tensor[lo] + w * tensor[hi]


def coupling_operators(coupling: SystemCoupling, bohr: BohrDecomposition, freq_energy: float):
    """Direct and auxiliary channel operators at one Bohr energy.

    The first n operators are the site pieces A_alpha(omega); the next n are
    the auxiliary-channel combinations driven by the medium's response at
    the matching oscillation frequency.
    """
    a_ops = bohr.ops[freq_energy]
    L = auxiliary_response(coupling.medium, freq_energy / coupling.hbar)
    n = coupling.n_sites
    b_ops = []
    for alpha in range(n):
        acc = np.zeros_like(a_ops[0])
        for nu in range(n):
            acc = acc + L[alpha, nu] * a_ops[nu]
        b_ops.append(acc)
    return list(a_ops) + b_ops


def _covered_bohr(coupling: SystemCoupling, corr: CorrelationSet, bohr) -> BohrDecomposition:
    """``bohr`` (decomposed if None) once every Bohr frequency lies on the grid."""
    bohr = bohr_decompose(coupling) if bohr is None else bohr
    grid, hbar = corr.omega_grid, coupling.hbar
    missing = [w / hbar for w in bohr.frequencies if not grid[0] <= w / hbar <= grid[-1]]
    if missing:
        raise FrequencyNotCovered(missing)
    return bohr


def lamb_shift(coupling: SystemCoupling, corr: CorrelationSet, bohr=None):
    """Hermitian Lamb-shift operator; commutes with the system Hamiltonian."""
    bohr = _covered_bohr(coupling, corr, bohr)
    hbar = coupling.hbar
    d = coupling.dim
    h_ls = np.zeros((d, d), dtype=complex)
    for w in bohr.frequencies:
        ops = coupling_operators(coupling, bohr, w)
        s_mat = _interp_tensor(corr.omega_grid, corr.s_ls, w / hbar)
        for a in range(len(ops)):
            for b in range(len(ops)):
                if s_mat[a, b] == 0:
                    continue
                h_ls += s_mat[a, b] * (ops[a].conj().T @ ops[b])
    return h_ls / hbar


def dissipator(coupling: SystemCoupling, corr: CorrelationSet, rho, bohr=None):
    """Decoherence superoperator applied to one density matrix."""
    bohr = _covered_bohr(coupling, corr, bohr)
    hbar = coupling.hbar
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for w in bohr.frequencies:
        ops = coupling_operators(coupling, bohr, w)
        g_mat = _interp_tensor(corr.omega_grid, corr.gamma, w / hbar)
        for a in range(len(ops)):
            oa_dag = ops[a].conj().T
            for b in range(len(ops)):
                g = g_mat[a, b]
                if g == 0:
                    continue
                ob = ops[b]
                sandwich = ob @ rho @ oa_dag
                anticomm = oa_dag @ ob @ rho + rho @ oa_dag @ ob
                out += g * (sandwich - 0.5 * anticomm)
    return out / hbar**2


def assemble_master_equation(coupling: SystemCoupling, corr: CorrelationSet, rho):
    """Right-hand side of the interaction-picture master equation."""
    bohr = bohr_decompose(coupling)
    rho = np.asarray(rho, dtype=complex)
    h_ls = lamb_shift(coupling, corr, bohr)
    comm = h_ls @ rho - rho @ h_ls
    return -1j / coupling.hbar * comm + dissipator(coupling, corr, rho, bohr)
