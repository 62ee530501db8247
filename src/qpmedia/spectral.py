"""Extended operators, non-symmetric eigendecomposition, similarity matrix.

The dynamics of the medium is encoded in the closed-form square root

    sqrt_kappa = i M,    M = [[0, -I], [K, 2 Gamma]],    kappa = -M M,

whose spectrum carries every resonance of the damped equation of motion.
An :class:`ExtendedOperator` is the one solver object of a medium.  It
stores only M, in the dtype of the medium's K and Gamma (float64 when
real), and derives sqrt_kappa on read.  On first read it builds kappa,
checked there against the dense -M M, and the one eigensystem of
sqrt_kappa.  From its eigenvectors V it builds, also on first read, the
symmetric similarity matrix A = V V^T, with kappa = A kappa^T A^{-1}.  The
quadratic-Hamiltonian generator J_B (:func:`oracles.build_JB`) is built
only when read too, and no ``qpm`` command reads it: its spectrum is the
+/- i image of sqrt_kappa's, and every function of it (exp(J_B t), the
thermal cotangent) is built on the sqrt_kappa eigensystem through
J_B^2 = -diag(kappa^T, kappa) (:mod:`phasespace`).  Every frequency sweep
applies the resolvent (z E + i J_B)^{-1} through one helper,
:func:`_resolvent_x`: its x rows come from one 2n solve of the Schur
complement z^2 I - kappa with the operator's one kappa, and no 4n matrix
is factored.  Every eigensystem comes from :func:`_eigensystem`, and A has
this one construction: a medium whose V is not trusted (cond(V) above
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

from dataclasses import dataclass
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
    """The solver object of one medium: its extended-space operators.

    Stored: ``root`` M = [[0, -I], [K, 2 Gamma]] (float64 for real K and
    Gamma, complex otherwise) and ``damping``, the medium's Gamma, for the
    drive and auxiliary channels.  Derived on read: ``n`` and ``sqrt_kappa``
    = i M.  Built on first read and then kept: ``kappa`` = -M M
    (:func:`medium.extended_kernel`), checked there against the dense -M M;
    ``eig``, the sqrt_kappa eigensystem (:func:`eigendecompose`); ``sim_A``,
    A from it (:func:`build_similarity`), real for a real M; and ``gen_JB``
    from A.  So an operator from :func:`build_sqrt_kappa` serves every
    consumer, forms kappa once and decomposes at most once.  Instances are
    immutable; a ``replace``d copy builds its own.  No J_B eigensystem is
    kept, as every function of J_B is built on ``eig``.
    """

    root: NDArray[np.float64] | NDArray[np.complex128]
    damping: NDArray[np.float64] | NDArray[np.complex128]

    @property
    def n(self) -> int:
        return self.root.shape[0] // 2

    @property
    def sqrt_kappa(self) -> NDArray[np.complex128]:
        return 1j * self.root

    @cached_property
    def kappa(self) -> NDArray:
        """kappa from :func:`medium.extended_kernel`, checked against the dense -M M.

        The relative Frobenius residual must be at most 1e-12; both norms are
        taken of arrays divided by max|kappa|, so neither overflows for large K.
        """
        n, M = self.n, self.root
        kappa = extended_kernel(M[n:, :n], 0.5 * M[n:, n:])
        top = np.abs(kappa).max()
        if top > 0:
            scale = np.linalg.norm(kappa / top)
            resid = np.linalg.norm((kappa + M @ M) / top)
            if resid > 1e-12 * scale:
                raise AssertionError(f"square identity violated: {resid / scale:.3e}")
        return kappa

    @cached_property
    def eig(self) -> EigenSystem:
        """The sqrt_kappa eigensystem from :func:`eigendecompose`."""
        return eigendecompose(self)

    @cached_property
    def sim_A(self) -> NDArray:
        """A from :func:`build_similarity` on ``eig``."""
        return build_similarity(self.eig)

    @cached_property
    def gen_JB(self) -> NDArray:
        """J_B from :func:`oracles.build_JB`, real for a real M; no ``qpm`` command reads it."""
        from .oracles import build_JB

        return build_JB(self)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and eigenvectors V of sqrt_kappa.

    ``basis`` W and ``signs`` S factor V = W U with U unitary and
    U U^T = diag(S), so cond(V) = cond(W) and V V^T = W S W^T.  W is real
    when the decomposed matrix is (see :func:`_eigensystem`); otherwise
    W = V and S = 1.

    Every EigenSystem is trusted: cond(V) is finite and at most
    DEFECTIVE_COND_THRESHOLD, and ``inverse_vectors`` is V^{-1}
    (:func:`_eigensystem`).
    """

    values: NDArray[np.complex128]
    right_vectors: NDArray[np.complex128]
    inverse_vectors: NDArray[np.complex128]
    cond: float
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
    """The EigenSystem of (values, vectors), with V^{-1}.

    ``pairs`` from :func:`_eig` marks a real decomposed matrix.  W then keeps
    the real columns and takes sqrt(2) Re v, sqrt(2) Im v (S = +1, -1) for
    each conjugate pair, so cond(V) and V^{-1} = U^H W^{-1} come from a real
    SVD and a real inverse.  Raises DefectiveMatrix, before any inverse, when
    cond(V) is not finite or exceeds DEFECTIVE_COND_THRESHOLD: V f(Lambda)
    V^{-1} can then no longer be trusted.
    """
    basis, signs = vectors, np.ones(values.size)
    if pairs is not None:
        first, second = pairs
        basis = vectors.real.copy()
        basis[:, first] *= _SQRT2
        basis[:, second] = _SQRT2 * vectors.imag[:, first]
        signs[second] = -1.0
    cond = float(np.linalg.cond(basis))
    if not (np.isfinite(cond) and cond <= DEFECTIVE_COND_THRESHOLD):
        raise DefectiveMatrix(
            f"eigenvector condition number cond(V) = {cond:.3e} exceeds "
            f"{DEFECTIVE_COND_THRESHOLD:.1e}: the medium is too close to a "
            "non-diagonalizable point for its eigenvectors to be trusted"
        )
    inverse = np.linalg.inv(basis)
    if pairs is not None:
        # rows of a pair in U^H W^{-1}: (w_first -/+ i w_second) / sqrt(2)
        rows = (inverse[first] - 1j * inverse[second]) / _SQRT2
        inverse = inverse.astype(complex)
        inverse[first] = rows
        inverse[second] = rows.conj()
    return EigenSystem(values, vectors, inverse, cond, basis, signs)


def build_sqrt_kappa(spec: MediumSpec) -> ExtendedOperator:
    """Assemble M = -i sqrt_kappa, complex when the medium holds K or Gamma so.

    The construction is total: K and Gamma may be complex, singular or
    non-diagonalizable.  Only M is formed: kappa and its square-identity
    check wait for the first read of ``ext.kappa``.
    """
    n, K, G = spec.n, spec.kernel, spec.damping
    dtype = np.result_type(K, G)
    M = np.block([[np.zeros((n, n), dtype), -np.eye(n, dtype=dtype)], [K, 2.0 * G]])
    return ExtendedOperator(root=M, damping=spec.damping)


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
    return _eigensystem(values[order], vectors, pairs)


def build_similarity(eig: EigenSystem) -> NDArray:
    """Symmetric similarity matrix A = V V^T with kappa = A kappa^T A^{-1}.

    A = V V^T = W S W^T is formed from the eigensystem's basis, so it is
    real for a real medium.  It is the difference of two symmetric rank-k
    products and so exactly symmetric.  Raises SingularSimilarity when
    cond(A) exceeds SINGULAR_A_COND_THRESHOLD.

    S = diag(+/-1) is orthogonal, so ||A||_2 <= ||W||_2^2 and, from
    A^{-1} = W^{-T} S W^{-1}, ||A^{-1}||_2 <= ||W^{-1}||_2^2: cond(A) <=
    cond(W)^2 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., SIAM 2002, section 6.3).  ``eig.cond`` is the exact cond(W),
    so when its square is within the threshold A is accepted without an
    SVD; otherwise the exact cond(A) decides, and the error prints it.  The
    two can disagree only where the SVD's own rounding, about m eps cond(A)
    relative, straddles the threshold.
    """
    # sum_k S_k w_k w_k^T as two symmetric rank-k products
    plus, minus = eig.basis[:, eig.signs > 0], eig.basis[:, eig.signs < 0]
    A = plus @ plus.T - minus @ minus.T
    if eig.cond**2 > SINGULAR_A_COND_THRESHOLD:
        cond = float(np.linalg.cond(A))
        if not np.isfinite(cond) or cond > SINGULAR_A_COND_THRESHOLD:
            raise SingularSimilarity(f"cond(A) = {cond:.3e}")
    return A


def attach_similarity(ext: ExtendedOperator) -> ExtendedOperator:
    """``ext`` itself, with ``ext.sim_A`` read once so that A is built.

    A stage kept as :func:`prepare`'s A step while perfbench lists its time
    (``spectral.attach_similarity_s``).
    """
    ext.sim_A
    return ext


def attach_JB(ext: ExtendedOperator) -> ExtendedOperator:
    """``ext`` itself, with A read: ``ext.gen_JB`` builds J_B on first read.

    A stage that builds nothing after :func:`attach_similarity`, kept as
    :func:`prepare`'s last step while perfbench lists its time
    (``spectral.attach_JB_s``).
    """
    ext.sim_A
    return ext


def _resolvent_x(ext: ExtendedOperator, z: complex, rhs: NDArray) -> NDArray:
    """The x rows of (z E + i J_B)^{-1} r from one 2n solve: (z^2 I - kappa)^{-1} rhs.

    kappa is the operator's cached ``ext.kappa``, so a sweep forms it once.
    For J_B = [[0, A^{-1} kappa], [-A, 0]], the Schur complement of the z E
    block (F. Zhang, ed., *The Schur Complement and Its Applications*,
    Springer 2005, ch. 1) is z^2 I - kappa, and with R its inverse the x
    block row of (z E + i J_B)^{-1} is [i R A, z R], for any A.  (Where
    A kappa^T = kappa A the pi block row is [z R^T, -i R^T A^{-1} kappa].)
    So the x rows of (z E + i J_B)^{-1} [r_pi; r_x] are R (i A r_pi + z r_x):
    ``rhs`` is i A r_pi + z r_x, formed by the caller.  The pi rows, where
    needed, follow from the second block row as i A^{-1} (r_x - z x).  The
    arithmetic is real when z, kappa and ``rhs`` are.  z^2 I - kappa is
    singular exactly where z E + i J_B is (z = +/- mu), and a singular solve
    raises ResonantFrequency(Re z).
    """
    kappa = ext.kappa
    try:
        return np.linalg.solve(z * z * np.eye(kappa.shape[0]) - kappa, rhs)
    except np.linalg.LinAlgError:
        raise ResonantFrequency(z.real) from None


def prepare(spec: MediumSpec) -> tuple[ExtendedOperator, EigenSystem]:
    """``(ext, ext.eig)`` for ``spec``, with the eigensystem and A already built.

    Each step reads one cached property, so that perfbench times each stage
    on its own: ``ext.eig`` here, then A in :func:`attach_similarity`.
    kappa and J_B stay unbuilt until read.
    """
    ext = build_sqrt_kappa(spec)
    eig = ext.eig
    ext = attach_JB(attach_similarity(ext))
    return ext, eig


def symplectic_form(N: int) -> NDArray[np.float64]:
    """Standard symplectic matrix [[0, I], [-I, 0]] of order 2N."""
    J = np.zeros((2 * N, 2 * N))
    J[:N, N:] = np.eye(N)
    J[N:, :N] = -np.eye(N)
    return J
