"""Extended operators, non-symmetric eigendecomposition, similarity matrix.

The dynamics of the medium is encoded in the closed-form square root

    sqrt_kappa = i M,    M = [[0, -I], [K, 2 Gamma]],    kappa = -M M,

whose spectrum carries every resonance of the damped equation of motion.
An :class:`ExtendedOperator` is the one solver object of a medium, built
from its MediumSpec alone.  On first read it forms M, in the dtype of the
medium's K and Gamma (float64 when real), kappa, checked there against the
dense -M M, and the one eigensystem of sqrt_kappa.  From its eigenvectors
V it builds, also on first read, the symmetric similarity matrix
A = V V^T, with kappa = A kappa^T A^{-1}.  The quadratic-Hamiltonian
generator J_B (:func:`oracles.build_JB`) is built only when read too, and
no ``qpm`` command reads it: its spectrum is the +/- i image of
sqrt_kappa's, and every function of it (exp(J_B t), the thermal
cotangent) is built on the sqrt_kappa eigensystem through
J_B^2 = -diag(kappa^T, kappa) (:mod:`phasespace`).  Every frequency sweep
applies the resolvent (z E + i J_B)^{-1} through one helper,
:func:`_resolvent_x`: its x rows come from one 2n solve of the Schur
complement z^2 I - kappa with the operator's one kappa, and no 4n matrix
is factored.  Every eigensystem comes from :func:`eigendecompose`, and A
has this one construction: a medium whose V is not trusted (cond(V) above
DEFECTIVE_COND_THRESHOLD) raises DefectiveMatrix.

For a real M all of this runs in real arithmetic: the real eigensolver
gives a spectrum exactly symmetric under mu -> -conj(mu) and exact
conjugate eigenvector pairs, so V = W U with W real and U block-unitary,
and cond(V), V^{-1}, A = V V^T = W S W^T (S = +/-1) and J_B follow from
the real W.  Complex media take the same route with W = V and S = 1.  As
S is orthogonal, cond(A) <= cond(W)^2 (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., SIAM 2002, section 6.3), so the bound on
cond(W) that the eigensystem holds proves A trusted without an SVD of A
wherever its square is below the cond(A) threshold.

When Gamma is exactly gamma I (the Drude builder's one relaxation rate) the
equation of motion separates mode by mode: each eigenpair K x = kappa x
gives two roots of lambda^2 - 2 gamma lambda + kappa = 0, with the
eigenvectors [x; -lambda x], and no 2n matrix is formed.  The eigensystem
keeps the modal factors instead (:class:`_ScalarModes`): K's real
eigenvector basis X, X^{-1} from one n x n inverse, and two coefficients
per column of V.  V^{-1} x, V^T r and A (block by block,
A_ij = X D_ij X^T) come from them; V, V^{-1} and W are formed only when
read.  Trust comes from the factors too: cond(W) <= cond(X) times the
condition of the 2 x 2 blocks that map X's coordinates to V's columns,
and only where that bound exceeds DEFECTIVE_COND_THRESHOLD is the 2n W
formed and its exact SVD taken, so every decision is the dense route's.
The sort, the column convention of V and the thresholds are shared by
both routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import DefectiveMatrix, ResonantFrequency, SingularSimilarity
from .medium import MediumSpec, extended_kernel

DEFECTIVE_COND_THRESHOLD = 1e8
SINGULAR_A_COND_THRESHOLD = 1e12
_SQRT2 = np.sqrt(2.0)
# relative tolerance within which two entries tie for a column's largest modulus
_NEAR_TIE = 1e-9


@dataclass(frozen=True, eq=False)
class ExtendedOperator:
    """The solver object of one medium, built from ``spec`` alone.

    Every layer reads K, Gamma and the geometry from ``ext.spec``.  Derived
    on read: ``n`` and ``sqrt_kappa`` = i M.  Built on first read and then
    kept: ``root`` M = [[0, -I], [K, 2 Gamma]], in the dtype of K and Gamma
    (float64 for a real medium); ``kappa`` (:func:`medium.extended_kernel`),
    checked there against the dense -M M; ``eig`` (:func:`eigendecompose`);
    ``sim_A`` (:func:`build_similarity`); and ``gen_JB``.  Instances are
    immutable and compare by identity; a ``replace``d copy, ``replace(ext,
    spec=other)`` too, builds its own.  No J_B eigensystem is kept: every
    function of J_B is built on ``eig``.
    """

    spec: MediumSpec

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def root(self) -> NDArray[np.float64] | NDArray[np.complex128]:
        """M = [[0, -I], [K, 2 Gamma]]; the scalar-damping eigensystem never reads it."""
        n, K, G = self.n, self.spec.kernel, self.spec.damping
        dtype = np.result_type(K, G)
        return np.block([[np.zeros((n, n), dtype), -np.eye(n, dtype=dtype)], [K, 2.0 * G]])

    @property
    def sqrt_kappa(self) -> NDArray[np.complex128]:
        return 1j * self.root

    @cached_property
    def kappa(self) -> NDArray:
        """kappa from :func:`medium.extended_kernel`, checked against the dense -M M.

        The relative Frobenius residual must be at most 1e-12; both norms are
        taken of arrays divided by max|kappa|, so neither overflows for large K.
        """
        M = self.root
        kappa = extended_kernel(self.spec.kernel, self.spec.damping)
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


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues of sqrt_kappa and the factors of its eigenvectors V.

    ``right_vectors`` V, ``inverse_vectors`` V^{-1}, ``basis`` W and
    ``signs`` S are formed from the route's factors on first read and then
    kept.  W and S factor V = W U with U unitary and U U^T = diag(S), so
    cond(V) = cond(W) and V V^T = W S W^T.  W is real when the decomposed
    matrix is (see :func:`_eigensystem`); otherwise W = V and S = 1.
    :meth:`apply_Vinv` and :meth:`apply_Vt` give V^{-1} x and V^T r without
    forming V, on the scalar-damping route in O(n^2).

    Every EigenSystem is trusted: cond(V) is finite and at most
    DEFECTIVE_COND_THRESHOLD.  ``cond_bound`` >= cond(W) is what every
    trust decision reads; ``cond`` is the exact cond(W) where an SVD of W
    was taken (then also ``cond_bound``), and None otherwise.
    """

    values: NDArray[np.complex128]
    cond: float | None
    cond_bound: float
    _modes: _DenseModes | _ScalarModes = field(repr=False)

    @cached_property
    def right_vectors(self) -> NDArray[np.complex128]:
        return self._modes.right_vectors

    @cached_property
    def inverse_vectors(self) -> NDArray[np.complex128]:
        return self._modes.inverse_vectors

    @cached_property
    def basis(self) -> NDArray[np.float64] | NDArray[np.complex128]:
        return self._modes.basis

    @cached_property
    def signs(self) -> NDArray[np.float64]:
        return self._modes.signs

    def apply_Vinv(self, x: NDArray) -> NDArray[np.complex128]:
        """V^{-1} x, for x a 2n vector or a 2n x c stack of columns."""
        return self._modes.apply_Vinv(x)

    def apply_Vt(self, r: NDArray) -> NDArray[np.complex128]:
        """V^T r, for r a 2n vector or a 2n x c stack of columns."""
        return self._modes.apply_Vt(r)


@dataclass(frozen=True, eq=False)
class _DenseModes:
    """V, V^{-1}, W and S of the dense route, kept as :func:`_eigensystem` formed
    them, and V's conjugate pairs of columns (None for a complex medium)."""

    right_vectors: NDArray[np.complex128]
    inverse_vectors: NDArray[np.complex128]
    basis: NDArray[np.float64] | NDArray[np.complex128]
    signs: NDArray[np.float64]
    pairs: NDArray[np.intp] | None

    def apply_Vinv(self, x):
        return self.inverse_vectors @ x

    def apply_Vt(self, r):
        return self.right_vectors.T @ r

    def similarity(self) -> NDArray:
        # sum_k S_k w_k w_k^T as two symmetric rank-k products
        plus, minus = self.basis[:, self.signs > 0], self.basis[:, self.signs < 0]
        return plus @ plus.T - minus @ minus.T


@dataclass(frozen=True, eq=False)
class _ScalarModes:
    """The factors of V on the scalar-damping route, V = diag(X, X) B.

    X is K's real eigenvector basis as the real eigensolver returns it, a
    complex pair x of K as the two columns Re x, Im x.  Column j of V is
    [y_j top_j; y_j bottom_j], with y_j = X[:, k_j] for a real kappa and
    y_j = X[:, k_j] + s_j i X[:, k_j + 1] (s_j = +/-1) for a complex one
    (s_j = 0 for a real one), so B holds two coefficients per column.  The
    two roots of one quadratic share their y and are each other's
    ``partner``; on (y top, y bottom) their 2 x 2 block
    [[top_j, top_p], [bottom_j, bottom_p]] is inverted in closed form.
    ``pivot`` is the row of each column's entry of largest modulus, real
    and positive in V, and ``pairs`` holds V's conjugate pairs of columns.
    """

    X: NDArray[np.float64]
    k: NDArray[np.intp]
    s: NDArray[np.float64]
    top: NDArray[np.complex128]
    bottom: NDArray[np.complex128]
    partner: NDArray[np.intp]
    pivot: NDArray[np.intp]
    pairs: NDArray[np.intp]

    @classmethod
    def normalized(cls, lam, X, k, s, pairs) -> _ScalarModes:
        """The factors of the sorted roots ``lam`` of :func:`_scalar_damping_eig`.

        Column j of V is [y_j t_j; y_j b_j] with b_j = -lam_j t_j, scaled to
        unit norm and rotated so that its entry of largest modulus (ties
        toward the lowest index within _NEAR_TIE, as :func:`_normalize_columns`
        breaks them) is real and positive: that entry is y_j's own largest
        one, in the lower half where |lam_j| makes it the larger.
        """
        n, m = X.shape[0], lam.size
        # |y| and ||y|| per column of X
        mags, norms = np.abs(X), np.linalg.norm(X, axis=0)
        kc = np.unique(k[s != 0])
        mags[:, kc] = mags[:, kc + 1] = np.hypot(X[:, kc], X[:, kc + 1])
        norms[kc] = norms[kc + 1] = np.hypot(norms[kc], norms[kc + 1])
        peak = mags.max(axis=0)
        near = np.argmax(mags >= (1.0 - _NEAR_TIE) * peak, axis=0)

        size = np.abs(lam)
        pivot = near[k] + np.where((1.0 - _NEAR_TIE) * size > 1.0, n, 0)
        # 1 < |lam| <= 1 / (1 - _NEAR_TIE): the upper half ties at a threshold raised by |lam|
        for j in np.flatnonzero((size > 1.0) & ((1.0 - _NEAR_TIE) * size <= 1.0)):
            pivot[j] = np.argmax(mags[:, k[j]] >= (1.0 - _NEAR_TIE) * size[j] * peak[k[j]])
        del mags

        row = pivot % n
        y = X[row, k] + 1j * s * X[row, np.where(s != 0, k + 1, k)]
        scale = (y.conj() / np.abs(y)) / (norms[k] * np.hypot(1.0, size))
        top, bottom = scale.copy(), -lam * scale
        below = pivot >= n
        bottom[below] = scale[below] * size[below]
        top[below] = -bottom[below] / lam[below]

        # the two roots of each quadratic share (k, s)
        by_key = np.argsort(3 * k + (s + 1).astype(np.intp), kind="stable")
        partner = np.empty(m, dtype=np.intp)
        partner[by_key[0::2]], partner[by_key[1::2]] = by_key[1::2], by_key[0::2]
        return cls(X, k, s, top, bottom, partner, pivot, pairs)

    def cond_bound(self) -> float:
        """cond(X) max sigma_max / min sigma_min over the blocks [[t_j, t_p], [b_j, b_p]].

        W = diag(X, X) B_W, and B_W's blocks have the singular values of
        these (times sqrt(2) on a complex kappa's pair of X columns, where
        x_k +/- i x_{k+1} has that norm), so the product is >= cond(W).
        """
        t, b, p = self.top, self.bottom, self.partner
        blocks = np.stack([[t, t[p]], [b, b[p]]]).transpose(2, 0, 1)
        sv = np.linalg.svd(blocks, compute_uv=False) * np.where(self.s != 0, _SQRT2, 1.0)[:, None]
        if not sv.min() > 0:
            return np.inf
        return float(np.linalg.cond(self.X)) * sv.max() / sv.min()

    @cached_property
    def Xinv(self) -> NDArray[np.float64]:
        """X^{-1}, the one n x n inverse, formed on the first V^{-1} that is read."""
        return np.linalg.inv(self.X)

    @cached_property
    def _inverse_rows(self) -> tuple[NDArray, NDArray]:
        """Each column's row of its block's inverse, on the coordinates of :meth:`_gather`.

        X z = sum_j c_j y_j within a complex pair holds with c_j half of
        z[k_j] - s_j i z[k_j + 1]; the half is taken here.
        """
        t, b, p = self.top, self.bottom, self.partner
        scale = np.where(self.s != 0, 0.5, 1.0) / (t * b[p] - t[p] * b)
        return scale * b[p], -scale * t[p]

    def _gather(self, Z, weight):
        """Z[k_j], plus weight_j Z[k_j + 1] for the columns of a complex kappa."""
        out = Z[self.k].astype(complex)
        c = np.flatnonzero(self.s)
        out[c] += weight[c, None] * Z[self.k[c] + 1]
        return out

    def _halves(self, R, x):
        """(R x_top, R x_bottom) for a real n x n R, x a 2n vector or 2n x c stack.

        A complex x goes through R by its real and imaginary parts, so that R
        is never copied to complex.
        """
        n = R.shape[0]
        x = np.asarray(x).reshape(2 * n, -1)
        c = x.shape[1]
        halves = np.hstack([x[:n], x[n:]])
        if np.iscomplexobj(halves):
            y = R @ np.hstack([halves.real, halves.imag])
            y = y[:, : 2 * c] + 1j * y[:, 2 * c :]
        else:
            y = R @ halves
        return y[:, :c], y[:, c:]

    def apply_Vt(self, r):
        # (V^T r)_j = top_j y_j^T r_top + bottom_j y_j^T r_bottom
        up, down = self._halves(self.X.T, r)
        w = 1j * self.s
        out = self.top[:, None] * self._gather(up, w) + self.bottom[:, None] * self._gather(down, w)
        return out.reshape(np.shape(r))

    def apply_Vinv(self, x):
        # V^{-1} = B^{-1} diag(X^{-1}, X^{-1}), B^{-1} block by block
        up, down = self._halves(self.Xinv, x)
        w, (row_top, row_bottom) = -1j * self.s, self._inverse_rows
        out = row_top[:, None] * self._gather(up, w) + row_bottom[:, None] * self._gather(down, w)
        return out.reshape(np.shape(x))

    @property
    def right_vectors(self) -> NDArray[np.complex128]:
        Y = self._gather(self.X.T, 1j * self.s).T  # y_j as columns
        n, m = Y.shape
        V = np.empty((2 * n, m), dtype=complex)
        np.multiply(Y, self.top, out=V[:n])
        np.multiply(Y, self.bottom, out=V[n:])
        del Y
        # exact for a real kappa already; a complex y rounds its pivot off the real axis
        cols = np.arange(m)
        V[self.pivot, cols] = np.abs(V[self.pivot, cols])
        first, second = self.pairs
        V[:, second] = V[:, first].conj()
        return V

    @property
    def inverse_vectors(self) -> NDArray[np.complex128]:
        R = self._gather(self.Xinv, -1j * self.s)
        row_top, row_bottom = self._inverse_rows
        return np.hstack([row_top[:, None] * R, row_bottom[:, None] * R])

    @property
    def basis(self) -> NDArray[np.float64]:
        # Re of V's columns, sqrt(2) Re v and sqrt(2) Im v = Re(sqrt(2) i conj v) for a pair
        first, second = self.pairs
        scale = np.ones(self.k.size, dtype=complex)
        scale[first], scale[second] = _SQRT2, 1j * _SQRT2
        return (self.right_vectors * scale).real.copy()

    @property
    def signs(self) -> NDArray[np.float64]:
        signs = np.ones(self.k.size)
        signs[self.pairs[1]] = -1.0
        return signs

    def similarity(self) -> NDArray[np.float64]:
        """A = V V^T block by block, A_ij = X D_ij X^T, exactly symmetric.

        Column j adds c_j y_j y_j^T to a block, with c_j = top_j^2,
        top_j bottom_j or bottom_j^2.  For a real kappa that is c_j x_k x_k^T.
        For a complex one y y^T = x_k x_k^T - x_{k+1} x_{k+1}^T
        + s i (x_k x_{k+1}^T + x_{k+1} x_k^T), so D holds [[d, e], [e, -d]]
        on (k, k + 1), with d = Re sum c_j and e = -sum s_j Im c_j over the
        columns on k.  Every D_ij is symmetric, so A_10 = A_01.
        """
        X, k, n = self.X, self.k, self.X.shape[0]
        kc = np.unique(k[self.s != 0])
        A = np.empty((2 * n, 2 * n))
        t, b = self.top, self.bottom
        for block, c in ((A[:n, :n], t * t), (A[:n, n:], t * b), (A[n:, n:], b * b)):
            d = np.bincount(k, c.real, n)
            e = np.bincount(k, -self.s * c.imag, n)
            XD = X * d
            XD[:, kc + 1] = -X[:, kc + 1] * d[kc]
            XD[:, kc] += X[:, kc + 1] * e[kc]
            XD[:, kc + 1] += X[:, kc] * e[kc]
            np.matmul(XD, X.T, out=block)
            del XD
            # (block + block^T) / 2, tile by tile: no n x n temporary
            for i in range(0, n, 64):
                for j in range(i, n, 64):
                    mean = block[i : i + 64, j : j + 64] + block[j : j + 64, i : i + 64].T
                    mean *= 0.5
                    block[i : i + 64, j : j + 64] = mean
                    block[j : j + 64, i : i + 64] = mean.T
                    del mean
        A[n:, :n] = A[:n, n:]
        return A


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
    """The dense-route EigenSystem of (values, vectors), with V^{-1}.

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
    return EigenSystem(values, cond, cond, _DenseModes(vectors, inverse, basis, signs, pairs))


def build_sqrt_kappa(spec: MediumSpec) -> ExtendedOperator:
    """``ExtendedOperator(spec)``, which forms nothing until read.

    A stage kept while perfbench lists its time (``spectral.build_sqrt_kappa_s``).
    """
    return ExtendedOperator(spec)


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
    j = np.argmax(mags >= (1.0 - _NEAR_TIE) * mags.max(axis=0), axis=0)
    vectors *= mags[j, cols] / vectors[j, cols]
    return vectors


def _scalar_damping(spec: MediumSpec) -> float | None:
    """gamma when the real medium has Gamma = gamma I exactly.

    n = 1 is left out: a 1x1 Gamma is always scalar, and its 2x2 eig costs
    nothing to save.
    """
    K, G = spec.kernel, spec.damping
    if np.iscomplexobj(K) or np.iscomplexobj(G) or spec.n < 2:
        return None
    gamma = G[0, 0]
    if not np.array_equal(G, gamma * np.eye(spec.n)):
        return None
    return float(gamma)


def _scalar_damping_eig(K, gamma):
    """The roots of M = [[0, -I], [K, 2 gamma I]] from the n x n real eig of K.

    Each eigenpair K x = kappa x gives the roots of
    lambda^2 - 2 gamma lambda + kappa = 0, with eigenvectors [x; -lambda x]
    (Tisseur & Meerbergen, SIAM Rev. 43, 2001, the scalar case):

    - a real underdamped kappa > gamma^2 gives one exact conjugate pair
      gamma +/- i sqrt(kappa - gamma^2);
    - a real kappa <= gamma^2 gives two real roots; the larger in modulus is
      gamma + sign(gamma) sqrt(gamma^2 - kappa) and the smaller is kappa over
      it, without cancellation, so a conserved-charge mode keeps
      lambda at the rounding of kappa;
    - a conjugate pair (kappa, conj kappa) of K gives two pairs, built from
      the first member and conjugated for the second.

    Returns (lam, X, k, s, pairs).  X is K's real eigenvector basis, and
    root j's x is X[:, k_j] for a real kappa, X[:, k_j] + s_j i X[:, k_j + 1]
    for a complex one (s_j = +1, or -1 for its conjugate; 0 for a real
    kappa).  Every pair lists its positive-imaginary root first, as the real
    eigensolver does; ``pairs`` indexes the roots like :func:`_eig`'s.
    """
    kappa, v, kpairs = _eig(K)
    # the real eigensolver's own basis: a complex pair's vectors are x_k +/- i x_{k+1}
    X = v.real.copy()
    X[:, kpairs[1]] = v.imag[:, kpairs[0]]
    del v
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

    # roots: first members, their conjugates, then the real roots; a
    # conjugate root's x is the conjugate of its partner's
    p = roots.size
    lam = np.concatenate([roots, roots.conj(), reals])
    k = np.concatenate([source, source, over, over])
    signs = np.zeros(lam.size)
    signs[np.concatenate([np.arange(under.size, p), p + np.arange(under.size, p)])] = 1.0
    conj = np.concatenate([np.flatnonzero(flip), p + np.flatnonzero(~flip)])
    signs[conj] = -signs[conj]
    pairs = np.stack([np.arange(p), p + np.arange(p)])
    return lam, X, k, signs, pairs


def eigendecompose(ext: ExtendedOperator) -> EigenSystem:
    """Complete eigendecomposition of sqrt_kappa.

    The matrix decomposed is M = -i sqrt_kappa, with mu = i lambda(M) and
    the same eigenvectors.  A real (float64) M goes to the real
    eigensolver, about three times cheaper than the complex one; its
    eigenvalues are then real or exact conjugate pairs, so the spectrum
    is exactly symmetric under mu -> -conj(mu) and purely imaginary mu (the
    overdamped modes, a conserved-charge zero mode) have Re mu = 0 exactly;
    the eigenvector pairing is carried through the sort to the real basis
    W.  Complex media take the complex eigensolver.

    A real medium whose Gamma is exactly gamma I (the Drude builder's) and
    whose n is at least 2 forms no 2n matrix: the eigenpairs of M follow
    mode by mode from the n x n real eig of K (:func:`_scalar_damping_eig`),
    and the eigensystem keeps them as modal factors, X, X^{-1} and two
    coefficients per column (:class:`_ScalarModes`).  cond(W) is bounded from
    those factors; only where the bound exceeds DEFECTIVE_COND_THRESHOLD is
    the 2n V formed and handed to the dense route's :func:`_eigensystem`,
    whose exact cond(W) then decides and which keeps V, V^{-1} and W.  Inside
    near-degenerate clusters its eigenvectors follow K's eigensolver, not
    the 2n one.

    Eigenvalues are sorted lexicographically by (Re, Im) so repeated runs
    produce identical mode orderings.  On the dense route the sort makes
    the one C-contiguous copy of the eigenvectors that is normalized in
    place and kept; the raw array is dropped before V is conditioned and
    inverted.  Raises DefectiveMatrix when the eigenvector condition number
    exceeds DEFECTIVE_COND_THRESHOLD, i.e. when the diagonal treatment
    stops being trustworthy.
    """
    gamma = _scalar_damping(ext.spec)
    if gamma is None:
        lam, vectors, pairs = _eig(ext.root)
    else:
        lam, X, k, s, pairs = _scalar_damping_eig(ext.spec.kernel, gamma)
    values = 1j * lam
    order = np.lexsort((values.imag, values.real))
    if pairs is not None:
        # raw column j sits at np.argsort(order)[j] after the sort
        pairs = np.argsort(order)[pairs]
    if gamma is None:
        vectors = _normalize_columns(np.take(vectors, order, axis=1))
        return _eigensystem(values[order], vectors, pairs)
    modes = _ScalarModes.normalized(lam[order], X, k[order], s[order], pairs)
    bound = modes.cond_bound()
    if not bound <= DEFECTIVE_COND_THRESHOLD:
        # the bound proves nothing here: the exact cond(W) of the dense V decides
        return _eigensystem(values[order], modes.right_vectors, pairs)
    return EigenSystem(values[order], None, bound, modes)


def build_similarity(eig: EigenSystem) -> NDArray:
    """Symmetric similarity matrix A = V V^T with kappa = A kappa^T A^{-1}.

    A = V V^T = W S W^T is formed from the eigensystem's factors, so it is
    real for a real medium: on the dense route as the difference of two
    symmetric rank-k products of W, on the scalar-damping route block by
    block from X (:meth:`_ScalarModes.similarity`).  Either way it is
    exactly symmetric.  Raises SingularSimilarity when cond(A) exceeds
    SINGULAR_A_COND_THRESHOLD.

    S = diag(+/-1) is orthogonal, so ||A||_2 <= ||W||_2^2 and, from
    A^{-1} = W^{-T} S W^{-1}, ||A^{-1}||_2 <= ||W^{-1}||_2^2: cond(A) <=
    cond(W)^2 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., SIAM 2002, section 6.3).  ``eig.cond_bound`` >= cond(W), so
    when its square is within the threshold A is accepted without an SVD;
    otherwise the exact cond(A) decides, and the error prints it.  The two
    can disagree only where the SVD's own rounding, about m eps cond(A)
    relative, straddles the threshold.
    """
    A = eig._modes.similarity()
    if eig.cond_bound**2 > SINGULAR_A_COND_THRESHOLD:
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
