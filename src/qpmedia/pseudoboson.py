"""Pseudo-boson ladder operators and bi-coherent Gaussian state parameters.

The quadratic Hamiltonian of a damped medium is diagonalized by a
non-conjugate ladder pair (b, b~) with [b_i, b~_j] = delta_ij.  Their
coefficients are linear forms in (x, pi) built from the mode matrix P1 and
the diagonal square root of the kernel eigenvalues.

Gauge note: a real medium whose every mode is undamped (K need not be
symmetric: build_synthetic(n, s, "marginal") qualifies) gets a real paired
mode basis, read off the eigensystem's real basis, which reduces (b, b~) to
ordinary conjugate ladder operators; any other medium keeps the eigenvectors
of the extended square root, whose branch fixes sqrt(J) = diag(mu_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import DefectiveMatrix, SingularEffectiveSigma, ZeroMode
from .phasespace import _positive_finite
from .spectral import EigenSystem, _eigensystem, _normalize_columns, symplectic_form

_REAL_SPECTRUM_RTOL = 1e-10


@dataclass(frozen=True)
class PseudoBosonBasis:
    """Ladder-operator coefficients over the doubled phase space.

    Rows of ``b_coeff``/``btilde_coeff`` hold the coefficients of one
    operator, columns ordered as [x-block (2n) | pi-block (2n)].
    """

    b_coeff: NDArray[np.complex128]
    btilde_coeff: NDArray[np.complex128]
    sqrtJK: NDArray[np.complex128]
    quarterJK: NDArray[np.complex128]
    mode_matrix: NDArray[np.complex128]
    mode_matrix_inv: NDArray[np.complex128]
    hbar: float
    paired_real_gauge: bool

    @property
    def n_modes(self) -> int:
        return self.sqrtJK.size


@dataclass(frozen=True)
class BiCoherentParams:
    """Gaussian parameters of the bi-orthogonal coherent pair.

    ``eff_sigma``/``eff_mu`` are the inverse Hessian and the stationary
    point of log(psi_alpha / conj(psi_alpha)), whose Hessian is
    Sigma^{-1} - conj(Sigma^{-1}); they are not the covariance and mean of
    the density psi* phi.  Both are ``None`` when that Hessian is singular
    (the ordinary-boson limit, where the pair collapses to one state), that
    is when cond(Sigma^{-1} - conj(Sigma^{-1})) >= 1e12.  Both are formed
    from ``sigma_inv`` and ``mu_vec`` on first read.
    """

    alpha: NDArray[np.complex128]
    sigma_inv: NDArray[np.complex128]
    mu_vec: NDArray[np.complex128]
    mu_phi: NDArray[np.complex128]
    norm_product: complex
    hbar: float

    @cached_property
    def eff_sigma(self) -> NDArray[np.complex128] | None:
        pair_matrix = self.sigma_inv - self.sigma_inv.conj()
        return np.linalg.inv(pair_matrix) if np.linalg.cond(pair_matrix) < 1e12 else None

    @cached_property
    def eff_mu(self) -> NDArray[np.complex128] | None:
        if self.eff_sigma is None:
            return None
        s, m = self.sigma_inv, self.mu_vec
        return self.eff_sigma @ (-s.conj() @ m.conj() + s @ m)


def _paired_real_mode_matrix(eig: EigenSystem) -> EigenSystem | None:
    """Real paired mode basis of a real medium whose every mode is undamped, or None.

    W holds sqrt(2) Re v and sqrt(2) Im v of each conjugate pair v = [w; -lambda w].
    They are [w; 0] and [0; w] up to scale (the other block below 1e-8, the lower one
    per unit |mu|) exactly when w is real and lambda imaginary: Gamma w = 0, K w = mu^2 w.
    Partners share |Re mu| and Im mu, and the stable sort keeps tied pairs in one order,
    so the k-th of each sign by ascending (|Re mu|, Im mu) form a pair; [w; 0] is first.
    """
    W, mu, n = eig.basis, eig.values, eig.values.size // 2
    first, second = np.flatnonzero(eig.signs > 0), np.flatnonzero(eig.signs < 0)
    if np.iscomplexobj(W) or second.size != n:
        return None
    top, bottom = np.linalg.norm(W[:n], axis=0), np.linalg.norm(W[n:], axis=0) / np.abs(mu)
    if np.any(np.minimum(top, bottom) > 1e-8 * np.maximum(top, bottom)):
        return None
    first = first[np.lexsort((mu.imag[first], -mu.real[first]))]
    is_top = top[first] > bottom[first]
    P1 = np.zeros((2 * n, 2 * n), dtype=complex)
    P1[:n, 0::2] = W[:n, np.where(is_top, first, second)]
    P1[n:, 1::2] = W[n:, np.where(is_top, second, first)]
    try:
        return _eigensystem(np.repeat(mu.real[second], 2).astype(complex), _normalize_columns(P1))
    except DefectiveMatrix:
        return None


def build_pseudoboson(eig: EigenSystem, hbar: float = 1.0) -> PseudoBosonBasis:
    """Assemble the ladder-operator coefficient matrices.

    Requires a non-defective eigensystem with no zero mode (the inverse
    quarter root must exist).
    """
    _positive_finite("hbar", hbar)
    mu = eig.values
    scale = np.abs(mu).max()  # both gates are relative, so the gauge is free of units
    if np.any(np.abs(mu) <= 1e-12 * scale):
        raise ZeroMode("zero eigenvalue: inverse quarter root does not exist")

    modes = eig
    if np.abs(mu.imag).max() <= _REAL_SPECTRUM_RTOL * scale:
        modes = _paired_real_mode_matrix(eig) or eig
    P1, P1inv, sqrtJ = modes.right_vectors, modes.inverse_vectors, modes.values

    quarter = np.sqrt(sqrtJ.astype(complex))  # principal branch
    pref = 1.0 / np.sqrt(2.0 * hbar)
    bx = pref * (quarter[:, None] * P1inv)
    bp = 1j * pref * (P1.T / quarter[:, None])
    return PseudoBosonBasis(
        b_coeff=np.hstack([bx, bp]),
        btilde_coeff=np.hstack([bx, -bp]),
        sqrtJK=sqrtJ,
        quarterJK=quarter,
        mode_matrix=P1,
        mode_matrix_inv=P1inv,
        hbar=hbar,
        paired_real_gauge=modes is not eig,
    )


def commutator_matrix(basis: PseudoBosonBasis) -> NDArray[np.complex128]:
    """[b_i, b~_j] contracted through the canonical commutation metric."""
    m = basis.n_modes
    bx, bp = basis.b_coeff[:, :m], basis.b_coeff[:, m:]
    tx, tp = basis.btilde_coeff[:, :m], basis.btilde_coeff[:, m:]
    # q ordering is [pi; x] with [q_a, q_b] = -i hbar J_ab
    w = np.hstack([bp, bx])
    wt = np.hstack([tp, tx])
    J = symplectic_form(m)
    return -1j * basis.hbar * (w @ J @ wt.T)


def coherent_params(basis: PseudoBosonBasis, alpha) -> BiCoherentParams:
    """Gaussian parameters of the coherent pair at amplitude alpha.

    The means solve the ladder eigenvalue equations exactly, which fixes a
    sqrt(2 hbar) scale on the amplitude map.  The normalization product is
    the reciprocal of the (Fresnel-regularized) pairing integral and is
    well defined whenever that integral converges.
    """
    hbar = basis.hbar
    alpha = np.asarray(alpha, dtype=complex).ravel()
    m = basis.n_modes
    if alpha.size != m:
        raise ValueError(f"alpha must have length {m}")
    P1, P1inv = basis.mode_matrix, basis.mode_matrix_inv
    sigma_inv = -(1.0 / hbar) * (P1inv.T @ (basis.sqrtJK[:, None] * P1inv))
    sigma_inv = (sigma_inv + sigma_inv.T) / 2.0

    amp_map = np.sqrt(2.0 * hbar) * (P1 / basis.quarterJK[None, :])
    mu_psi = amp_map @ alpha
    mu_phi = amp_map.conj() @ alpha

    W = sigma_inv.conj()
    M = -2.0 * W
    evals = np.linalg.eigvals(M)
    mscale = max(np.abs(evals).max(), 1e-300)
    if np.any(np.abs(evals) < 1e-12 * mscale):
        raise SingularEffectiveSigma("pairing integral matrix is singular")
    if np.any(evals.real < -1e-10 * mscale):
        raise SingularEffectiveSigma("pairing integral diverges for this basis")

    # 1/integral of exp(E(x)) with E the sum of the two Gaussian exponents
    a_vec = amp_map.conj() @ alpha.conj()
    diff = mu_phi - a_vec
    e0 = 0.25 * diff @ (W @ diff)
    half_log_det = 0.5 * np.sum(np.log(evals / (2.0 * np.pi)))
    norm_product = np.exp(half_log_det - e0)

    return BiCoherentParams(
        alpha=alpha,
        sigma_inv=sigma_inv,
        mu_vec=mu_psi,
        mu_phi=mu_phi,
        norm_product=complex(norm_product),
        hbar=hbar,
    )


def evolve_alpha(alpha, basis: PseudoBosonBasis, t: float):
    """Coherent amplitude at time t plus the log of the global prefactor.

    ``alpha`` is a ladder amplitude of ``basis`` (:func:`coherent_params`),
    so it evolves with the basis's own sqrt(J), which in the paired real
    gauge differs from the eigensystem's values.  The prefactor is returned in
    log form because its modulus grows like exp(-t tr Im sqrt(J)) for
    damped spectra.
    """
    alpha = np.asarray(alpha, dtype=complex).ravel()
    sqrtJ = basis.sqrtJK
    alpha_t = np.exp(-1j * t * sqrtJ) * alpha
    log_pref = -0.5j * t * np.sum(sqrtJ) - 0.5 * (
        np.sum(np.abs(alpha) ** 2) - np.sum(np.abs(alpha_t) ** 2)
    )
    return alpha_t, complex(log_pref)


# ---------------------------------------------------------------------------
# Pointwise wavefunction values (used by the low-dimensional quadrature tests)
# ---------------------------------------------------------------------------

def psi_unnormalized(params: BiCoherentParams, x) -> complex:
    """exp(+1/2 (x-mu)^T Sigma^{-1} (x-mu)) without its normalization."""
    x = np.asarray(x, dtype=complex)
    d = x - params.mu_vec
    return complex(np.exp(0.5 * d @ (params.sigma_inv @ d)))


def phi_unnormalized(params: BiCoherentParams, x) -> complex:
    """Primed-state Gaussian: conjugated width matrix, shifted mean."""
    x = np.asarray(x, dtype=complex)
    d = x - params.mu_phi
    return complex(np.exp(0.5 * d @ (params.sigma_inv.conj() @ d)))


def biorthogonal_density(params: BiCoherentParams, x) -> complex:
    """Pointwise psi*_alpha(x) phi_alpha(x) including the normalization."""
    return (
        params.norm_product
        * np.conj(psi_unnormalized(params, x))
        * phi_unnormalized(params, x)
    )
