"""Extended operators, non-symmetric eigendecomposition, similarity matrix.

The dynamics of the medium is encoded in the closed-form square root

    sqrt_kappa = i M,    M = [[0, -I], [K, 2 Gamma]],    kappa = -M M,

whose spectrum carries every resonance of the damped equation of motion.
An :class:`ExtendedOperator` stores only M, in the dtype of the medium's K
and Gamma (float64 when real), derives sqrt_kappa and kappa on read, and
keeps the one eigensystem of sqrt_kappa.  From its eigenvectors V we build
the symmetric similarity matrix A = V V^T, with kappa = A kappa^T A^{-1},
and the on-shell energy functional.  The quadratic-Hamiltonian generator
J_B is built only when read, and no ``qpm`` command reads it: its
spectrum is the +/- i image of sqrt_kappa's, and every function of it
(exp(J_B t), the thermal cotangent) is built on the sqrt_kappa
eigensystem through J_B^2 = -diag(kappa^T, kappa) (:mod:`phasespace`).
Every frequency sweep applies the resolvent (z E + i J_B)^{-1} through one
helper, :func:`_resolvent_x`: its x rows come from one 2n solve of the Schur
complement z^2 I - kappa, and no 4n matrix is factored.  Every
eigensystem comes from :func:`_eigensystem`, and A has this one
construction: a medium whose V is not trusted (cond(V) above
DEFECTIVE_COND_THRESHOLD) raises DefectiveMatrix.

For a real M all of this runs in real arithmetic: the real eigensolver
gives a spectrum exactly symmetric under mu -> -conj(mu) and exact
conjugate eigenvector pairs, so V = W U with W real and U block-unitary,
and cond(V), V^{-1}, A = V V^T = W S W^T (S = +/-1) and J_B follow from
the real W.  Complex media take the same route with W = V and S = 1.  As
S is orthogonal, cond(A) <= cond(W)^2 (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., SIAM 2002, section 6.3), so the exact
cond(W) that the eigensystem already holds proves A trusted without an
SVD of A wherever cond(W)^2 is below the cond(A) threshold.

When Gamma is exactly gamma I (the Drude builder's one relaxation rate) the
equation of motion separates mode by mode, and the eigenpairs of
sqrt_kappa come from the n x n real eig of K instead of the 2n one, with
the same exact conjugate pairing.  The sort, the real basis, cond(W), W^{-1},
the trust threshold, A and J_B are shared by both routes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import DefectiveMatrix, ResonantFrequency, SingularSimilarity
from .medium import MediumSpec, extended_kernel

DEFECTIVE_COND_THRESHOLD = 1e8
SINGULAR_A_COND_THRESHOLD = 1e12
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ExtendedOperator:
    """Extended-space operators of one medium.

    Stored: ``root`` M = [[0, -I], [K, 2 Gamma]] (float64 for real K and
    Gamma, complex otherwise) and ``damping``, the medium's Gamma, for the
    drive and auxiliary channels.  Derived on read: ``n``, ``sqrt_kappa`` =
    i M and ``kappa`` = -M M (:func:`medium.extended_kernel`).  ``sim_A``
    and ``eig``, the sqrt_kappa eigensystem A is built from, are attached by
    :func:`attach_similarity`; A is real for a real M.  Instances are
    immutable and updated via ``replace``, which carries both.  ``gen_JB``
    is built from A on first read and then kept; a replaced operator
    builds its own.  No J_B eigensystem is kept, as every function of J_B
    is built on ``eig``.
    """

    root: NDArray[np.float64] | NDArray[np.complex128]
    damping: NDArray[np.float64] | NDArray[np.complex128]
    sim_A: NDArray[np.float64] | NDArray[np.complex128] | None = None
    eig: EigenSystem | None = None

    @property
    def n(self) -> int:
        return self.root.shape[0] // 2

    @property
    def sqrt_kappa(self) -> NDArray[np.complex128]:
        return 1j * self.root

    @property
    def kappa(self) -> NDArray:
        n = self.n
        return extended_kernel(self.root[n:, :n], 0.5 * self.root[n:, n:])

    @cached_property
    def gen_JB(self) -> NDArray:
        """J_B from :func:`build_JB`, real for a real M; no ``qpm`` command reads it."""
        return build_JB(self)

    def a_blocks(self):
        """The (A1, A2, A3) blocks of the similarity matrix."""
        n = self.n
        A = _similarity_matrix(self)
        return A[:n, :n], A[:n, n:], A[n:, n:]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and eigenvectors V of sqrt_kappa.

    ``basis`` W and ``signs`` S factor V = W U with U unitary and
    U U^T = diag(S), so cond(V) = cond(W) and V V^T = W S W^T.  W is real
    when the decomposed matrix is (see :func:`_eigensystem`); otherwise
    W = V and S = 1.

    ``defective`` is set when cond(V) is not finite or exceeds
    DEFECTIVE_COND_THRESHOLD; V^{-1} (``inverse_vectors``) is then not
    computed, as V f(Lambda) V^{-1} can no longer be trusted.
    """

    values: NDArray[np.complex128]
    right_vectors: NDArray[np.complex128]
    inverse_vectors: NDArray[np.complex128] | None
    cond: float
    defective: bool
    basis: NDArray[np.float64] | NDArray[np.complex128]
    signs: NDArray[np.float64]


def _eig(M):
    """np.linalg.eig of M as complex arrays, with the conjugate pairs of a real M.

    A real M goes to the real eigensolver, which returns each complex pair
    as adjacent columns j, j+1, the positive imaginary part first, with
    exactly conjugate vectors; ``pairs`` stacks those j and j+1.  A complex
    M has no such pairing and gives ``pairs`` None.
    """
    lam, vectors = np.linalg.eig(M)
    pairs = None
    if np.isrealobj(M):
        first = np.flatnonzero(lam.imag > 0)
        pairs = np.stack([first, first + 1])
    return lam.astype(complex, copy=False), vectors.astype(complex, copy=False), pairs


def _eigensystem(values, vectors, pairs=None) -> EigenSystem:
    """The EigenSystem of (values, vectors); V is inverted only when trusted.

    ``pairs`` from :func:`_eig` marks a real decomposed matrix.  W then keeps
    the real columns and takes sqrt(2) Re v, sqrt(2) Im v (S = +1, -1) for
    each conjugate pair, so cond(V) and V^{-1} = U^H W^{-1} come from a real
    SVD and a real inverse.
    """
    basis, signs = vectors, np.ones(values.size)
    if pairs is not None:
        first, second = pairs
        basis = vectors.real.copy()
        basis[:, first] *= _SQRT2
        basis[:, second] = _SQRT2 * vectors.imag[:, first]
        signs[second] = -1.0
    cond = float(np.linalg.cond(basis))
    defective = not (np.isfinite(cond) and cond <= DEFECTIVE_COND_THRESHOLD)
    inverse = None
    if not defective:
        inverse = np.linalg.inv(basis)
        if pairs is not None:
            # rows of a pair in U^H W^{-1}: (w_first -/+ i w_second) / sqrt(2)
            rows = (inverse[first] - 1j * inverse[second]) / _SQRT2
            inverse = inverse.astype(complex)
            inverse[first] = rows
            inverse[second] = rows.conj()
    return EigenSystem(values, vectors, inverse, cond, defective, basis, signs)


def build_sqrt_kappa(spec: MediumSpec) -> ExtendedOperator:
    """Assemble M = -i sqrt_kappa, complex when the medium holds K or Gamma so.

    The construction is total: K and Gamma may be complex, singular or
    non-diagonalizable.  The square identity kappa = -M M is verified to a
    relative Frobenius residual of 1e-12; both norms are taken of arrays
    divided by max|kappa|, so neither overflows for large K.  -M M is taken
    from M's blocks: its zero and identity blocks contribute exact copies
    of K and 2 Gamma, so the only dense products are (2 Gamma) K and
    (2 Gamma)^2, both of M's own slices.
    """
    n, K, G = spec.n, spec.kernel, spec.damping
    dtype = np.result_type(K, G)
    M = np.block([[np.zeros((n, n), dtype), -np.eye(n, dtype=dtype)], [K, 2.0 * G]])
    ext = ExtendedOperator(root=M, damping=spec.damping)
    kappa = ext.kappa
    top = np.abs(kappa).max()
    if top > 0:
        k, g2 = M[n:, :n], M[n:, n:]
        minus_square = np.block([[k, g2], [-(g2 @ k), k - g2 @ g2]])
        scale = np.linalg.norm(kappa / top)
        resid = np.linalg.norm((kappa - minus_square) / top)
        if resid > 1e-12 * scale:
            raise AssertionError(f"square identity violated: {resid / scale:.3e}")
    return ext


def _normalize_columns(vectors: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Unit-norm columns with a deterministic phase, in place; returns ``vectors``.

    The entry of largest modulus (ties broken toward the lowest index, with
    a relative tolerance so near-ties resolve identically across runs) is
    rotated to the positive real axis.  For real K and Gamma this also makes
    conjugate eigenpairs carry exactly conjugate vectors.  Each column's
    norm is its own np.linalg.norm, whose BLAS path depends on the array's
    layout, so eigendecompose passes a C-contiguous array.
    """
    cols = np.arange(vectors.shape[1])
    vectors /= [np.linalg.norm(vectors[:, k]) for k in cols]
    mags = np.abs(vectors)
    j = np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)
    vectors *= mags[j, cols] / vectors[j, cols]
    return vectors


def _scalar_damping(M) -> float | None:
    """gamma when the real M = [[0, -I], [K, 2 Gamma]] has Gamma = gamma I exactly.

    n = 1 is left out: a 1x1 Gamma is always scalar, and its 2x2 eig costs
    nothing to save.
    """
    n = M.shape[0] // 2
    if np.iscomplexobj(M) or n < 2:
        return None
    two_gamma = M[n, n]
    if not np.array_equal(M[n:, n:], two_gamma * np.eye(n)):
        return None
    return float(two_gamma) / 2.0


def _scalar_damping_eig(K, gamma):
    """:func:`_eig` of M = [[0, -I], [K, 2 gamma I]] from the n x n eig of real K.

    Each eigenpair K v = kappa v gives the roots of
    lambda^2 - 2 gamma lambda + kappa = 0, with eigenvectors [v; -lambda v]
    (Tisseur & Meerbergen, SIAM Rev. 43, 2001, the scalar case):

    - a real underdamped kappa > gamma^2 gives one exact conjugate pair
      gamma +/- i sqrt(kappa - gamma^2);
    - a real kappa <= gamma^2 gives two real roots; the larger in modulus is
      gamma + sign(gamma) sqrt(gamma^2 - kappa) and the smaller is kappa over
      it, without cancellation, so a conserved-charge mode keeps
      lambda at the rounding of kappa;
    - a conjugate pair (kappa, conj kappa) of K gives two pairs, built from
      the first member and conjugated for the second.

    Every pair lists its positive-imaginary root first, as the real
    eigensolver does; ``pairs`` indexes the columns like :func:`_eig`'s.
    """
    kappa, v, kpairs = _eig(K)
    gamma2 = gamma * gamma
    real = np.ones(kappa.size, dtype=bool)
    real[kpairs.ravel()] = False
    above = kappa.real > gamma2
    under, over = np.flatnonzero(real & above), np.flatnonzero(real & ~above)

    # first members of the pairs: underdamped roots, then both roots of
    # each complex kappa, flipped to their positive-imaginary conjugate
    kc = kappa[kpairs[0]]
    s = np.sqrt(gamma2 - kc)
    big = np.where(s.real * gamma >= 0.0, gamma + s, gamma - s)
    small = np.divide(kc, big, out=np.zeros_like(kc), where=big != 0)
    roots = np.concatenate([gamma + 1j * np.sqrt(kappa.real[under] - gamma2), big, small])
    source = np.concatenate([under, kpairs[0], kpairs[0]])
    flip = roots.imag < 0
    roots[flip] = roots[flip].conj()

    ko = kappa.real[over]
    s = np.sqrt(gamma2 - ko)
    big = gamma + np.copysign(s, gamma)
    reals = np.concatenate([big, np.divide(ko, big, out=np.zeros_like(ko), where=big != 0)])

    # columns: first members, their conjugates, then the real roots; the
    # eigenvector of each root lam is [x; -lam x], so a conjugate root's
    # vector is exactly the conjugate of its partner's
    p, n = roots.size, kappa.size
    lam = np.concatenate([roots, roots.conj(), reals])
    vectors = np.empty((2 * n, 2 * n), dtype=complex)
    vectors[:n] = v[:, np.concatenate([source, source, over, over])]
    conj = np.concatenate([np.flatnonzero(flip), p + np.flatnonzero(~flip)])
    vectors[:n, conj] = vectors[:n, conj].conj()
    np.multiply(vectors[:n], -lam, out=vectors[n:])
    pairs = np.stack([np.arange(p), p + np.arange(p)])
    return lam, vectors, pairs


def eigendecompose(ext: ExtendedOperator) -> EigenSystem:
    """Complete eigendecomposition of sqrt_kappa.

    The matrix decomposed is the stored M = -i sqrt_kappa, with
    mu = i lambda(M) and the same eigenvectors.  A real (float64) M goes to
    the real eigensolver, about three times cheaper than the complex one;
    its eigenvalues are then real or exact conjugate pairs, so the spectrum
    is exactly symmetric under mu -> -conj(mu) and purely imaginary mu (the
    overdamped modes, a conserved-charge zero mode) have Re mu = 0 exactly;
    the eigenvector pairing is carried through the sort to the real basis
    W.  Complex media take the complex eigensolver.

    A real medium whose Gamma is exactly gamma I (the Drude builder's) and
    whose n is at least 2 skips the 2n eig: the eigenpairs of M follow mode
    by mode from the n x n real eig of K (:func:`_scalar_damping_eig`), in
    O(n^2) after that eig, with the same exact pairing.  Inside
    near-degenerate clusters its eigenvectors follow K's eigensolver, not
    the 2n one.

    Eigenvalues are sorted lexicographically by (Re, Im) so repeated runs
    produce identical mode orderings.  The sort makes the one C-contiguous
    copy of the eigenvectors that is normalized in place and kept; the raw
    array is dropped before V is conditioned and inverted.  Raises
    DefectiveMatrix when the eigenvector condition number exceeds
    DEFECTIVE_COND_THRESHOLD, i.e. when the diagonal treatment stops being
    trustworthy.
    """
    gamma = _scalar_damping(ext.root)
    if gamma is None:
        lam, vectors, pairs = _eig(ext.root)
    else:
        n = ext.n
        lam, vectors, pairs = _scalar_damping_eig(ext.root[n:, :n], gamma)
    values = 1j * lam
    order = np.lexsort((values.imag, values.real))
    if pairs is not None:
        # raw column j sits at np.argsort(order)[j] after the sort
        pairs = np.argsort(order)[pairs]
    vectors = _normalize_columns(np.take(vectors, order, axis=1))
    eig = _eigensystem(values[order], vectors, pairs)
    if eig.defective:
        raise DefectiveMatrix(
            f"eigenvector condition number cond(V) = {eig.cond:.3e} exceeds "
            f"{DEFECTIVE_COND_THRESHOLD:.1e}: the medium is too close to a "
            "non-diagonalizable point for its eigenvectors to be trusted"
        )
    return eig


def build_similarity(eig: EigenSystem) -> NDArray:
    """Symmetric similarity matrix A = V V^T with kappa = A kappa^T A^{-1}.

    A = V V^T = W S W^T is formed from the eigensystem's basis, so it is
    real for a real medium.  It is the difference of two symmetric rank-k
    products and so exactly symmetric.  Raises DefectiveMatrix for a defective
    V, and SingularSimilarity when cond(A) exceeds SINGULAR_A_COND_THRESHOLD.

    S = diag(+/-1) is orthogonal, so ||A||_2 <= ||W||_2^2 and, from
    A^{-1} = W^{-T} S W^{-1}, ||A^{-1}||_2 <= ||W^{-1}||_2^2: cond(A) <=
    cond(W)^2 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., SIAM 2002, section 6.3).  ``eig.cond`` is the exact cond(W),
    so when its square is within the threshold A is accepted without an
    SVD; otherwise the exact cond(A) decides, and the error prints it.  The
    two can disagree only where the SVD's own rounding, about m eps cond(A)
    relative, straddles the threshold.
    """
    if eig.defective:
        raise DefectiveMatrix(
            f"cond(V) = {eig.cond:.3e} exceeds {DEFECTIVE_COND_THRESHOLD:.1e}: "
            "A = V V^T needs a trusted eigenvector matrix"
        )
    # sum_k S_k w_k w_k^T as two symmetric rank-k products
    plus, minus = eig.basis[:, eig.signs > 0], eig.basis[:, eig.signs < 0]
    A = plus @ plus.T - minus @ minus.T
    if eig.cond**2 > SINGULAR_A_COND_THRESHOLD:
        cond = float(np.linalg.cond(A))
        if not np.isfinite(cond) or cond > SINGULAR_A_COND_THRESHOLD:
            raise SingularSimilarity(f"cond(A) = {cond:.3e}")
    return A


def attach_similarity(ext: ExtendedOperator, eig: EigenSystem) -> ExtendedOperator:
    return replace(ext, sim_A=build_similarity(eig), eig=eig)


def build_JB(ext: ExtendedOperator) -> NDArray:
    """First-order symplectic generator [[0, A^{-1} kappa], [-A, 0]].

    Its spectrum is the +/- i image of the sqrt_kappa spectrum, so the
    phase-space route adds no new resonances.  For a real medium A and
    kappa are real, and so are the solve and J_B.
    """
    A = _similarity_matrix(ext)
    kappa = ext.kappa
    N = 2 * ext.n
    JB = np.zeros((2 * N, 2 * N), dtype=np.result_type(A, kappa))
    JB[:N, N:] = np.linalg.solve(A, kappa)
    JB[N:, :N] = -A
    return JB


def attach_JB(ext: ExtendedOperator) -> ExtendedOperator:
    """``ext`` itself, once A is attached: ``ext.gen_JB`` builds J_B on first read.

    A stage that builds nothing, kept as :func:`prepare`'s last step while
    perfbench lists its time (``spectral.attach_JB_s``).
    """
    _similarity_matrix(ext)
    return ext


def _similarity_matrix(ext: ExtendedOperator) -> NDArray[np.complex128]:
    """A of ``ext``: the one check that every consumer of A passes."""
    if ext.sim_A is None:
        raise ValueError("similarity matrix A not built; call spectral.prepare first")
    return ext.sim_A


def _attached_eig(ext: ExtendedOperator) -> EigenSystem:
    """The sqrt_kappa eigensystem of ``ext``: the one check that its consumers pass."""
    if ext.eig is None:
        raise ValueError("sqrt_kappa eigensystem not built; call spectral.prepare first")
    return ext.eig


def _resolvent_x(kappa: NDArray, z: complex, rhs: NDArray) -> NDArray:
    """The x rows of (z E + i J_B)^{-1} r from one 2n solve: (z^2 I - kappa)^{-1} rhs.

    For J_B = [[0, A^{-1} kappa], [-A, 0]], the Schur complement of the z E
    block (F. Zhang, ed., *The Schur Complement and Its Applications*,
    Springer 2005, ch. 1) is z^2 I - kappa, and with R its inverse the x
    block row of (z E + i J_B)^{-1} is [i R A, z R], for any A.  (Where
    A kappa^T = kappa A the pi block row is [z R^T, -i R^T A^{-1} kappa].)
    So the x rows of (z E + i J_B)^{-1} [r_pi; r_x] are R (i A r_pi + z r_x):
    ``rhs`` is i A r_pi + z r_x, formed by the caller.  The pi rows, where
    needed, follow from the second block row as i A^{-1} (r_x - z x).  The
    arithmetic is real when z, kappa and ``rhs`` are.  z^2 I - kappa is
    singular exactly where
    z E + i J_B is (z = +/- mu), and a singular solve raises
    ResonantFrequency(Re z).
    """
    try:
        return np.linalg.solve(z * z * np.eye(kappa.shape[0]) - kappa, rhs)
    except np.linalg.LinAlgError:
        raise ResonantFrequency(z.real) from None


def prepare(spec: MediumSpec) -> tuple[ExtendedOperator, EigenSystem]:
    """Convenience chain: sqrt_kappa -> eigendecomposition -> A (J_B on read)."""
    ext = build_sqrt_kappa(spec)
    eig = eigendecompose(ext)
    ext = attach_similarity(ext, eig)
    ext = attach_JB(ext)
    return ext, eig


def on_shell_energy(ext: ExtendedOperator, x) -> complex:
    """Quadratic energy evaluated with the on-shell momentum relation.

    With pi = i A^{-1} sqrt_kappa x the time-independent Hamiltonian
    0.5 pi^T A pi + 0.5 x^T A^{-1} kappa x vanishes identically; the return
    value is the numerical residual of that identity.
    """
    A = _similarity_matrix(ext)
    x = np.asarray(x, dtype=complex)
    pi = 1j * np.linalg.solve(A, ext.sqrt_kappa @ x)
    kinetic = 0.5 * pi @ (A @ pi)
    potential = 0.5 * x @ np.linalg.solve(A, ext.kappa @ x)
    return complex(kinetic + potential)


def symplectic_form(N: int) -> NDArray[np.float64]:
    """Standard symplectic matrix [[0, I], [-I, 0]] of order 2N."""
    J = np.zeros((2 * N, 2 * N))
    J[:N, N:] = np.eye(N)
    J[N:, :N] = -np.eye(N)
    return J


def characteristic_residual(spec: MediumSpec, omega: complex) -> float:
    """Scaled singularity measure of omega^2 + 2 i omega Gamma - K.

    Vanishing determinant means a vanishing smallest singular value, so the
    residual is sigma_min over the natural magnitude of the matrix entries;
    this stays meaningful for every size, including n = 1 where any
    determinant normalized by row norms would degenerate to unity.
    """
    n = spec.n
    M = (omega**2) * np.eye(n) + 2j * omega * spec.damping - spec.kernel
    scale = (
        abs(omega) ** 2
        + 2.0 * abs(omega) * np.linalg.norm(spec.damping, 2)
        + np.linalg.norm(spec.kernel, 2)
    )
    sigma_min = np.linalg.svd(M, compute_uv=False)[-1]
    return float(sigma_min / max(scale, 1e-300))
