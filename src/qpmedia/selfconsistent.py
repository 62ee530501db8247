"""Auxiliary-field response, scattering kernel and first-order emitted field.

An external field couples to the sources through a smeared site potential h;
the auxiliary variables feel a derived signal g = L(omega) h.  Combining the
frequency-domain mean of the sources with the transverse Green tensor yields
the scattered field to first order in the medium response.

Sources are treated as charges here: the dipole-density weights are the
spatial coordinates of the sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constants import SPEED_OF_LIGHT_AU
from .errors import LightConeSingularity, SingularAuxiliary
from .medium import MediumSpec, _require_finite
from .spectral import ExtendedOperator, _resolvent_x

TWO_PI_CUBED = (2.0 * np.pi) ** 3


@dataclass(frozen=True)
class PlaneWave:
    """One delta-supported plane-wave component of the external field.

    ``amplitude`` is either a constant 3-vector or an (m, 3) table aligned
    with the owning set's frequency grid.
    """

    k: NDArray[np.float64]
    amplitude: NDArray[np.complex128]

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float).reshape(3)
        amp = np.asarray(self.amplitude, dtype=complex)
        if amp.ndim == 1:
            amp = amp[None]
        if amp.ndim != 2 or amp.shape[1] != 3:
            raise ValueError("amplitude must be a 3-vector or an (m, 3) table")
        _require_finite("plane-wave amplitude", amp)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "amplitude", amp)

    def amplitude_on(self, omega_grid: NDArray[np.float64]) -> NDArray[np.complex128]:
        if self.amplitude.shape[0] == 1:
            return np.broadcast_to(self.amplitude, (omega_grid.size, 3))
        if self.amplitude.shape[0] != omega_grid.size:
            raise ValueError("plane-wave amplitude table not aligned with the grid")
        return self.amplitude


@dataclass(frozen=True)
class FieldPlaneWaveSet:
    """External field as a finite sum of plane waves over a frequency grid."""

    omega_grid: NDArray[np.float64]
    waves: tuple[PlaneWave, ...]

    def __post_init__(self):
        grid = np.asarray(self.omega_grid, dtype=float)
        _require_finite("omega_grid", grid)
        object.__setattr__(self, "omega_grid", grid)
        object.__setattr__(self, "waves", tuple(self.waves))
        for wave in self.waves:
            _require_finite("plane-wave k vector", wave.k)
            wave.amplitude_on(grid)


def auxiliary_response(ext: ExtendedOperator, omega: float) -> NDArray[np.complex128]:
    """Response matrix mapping the smeared potential h to the auxiliary g.

    L(omega) = -[A3 + (i omega + 2 Gamma) A2]^{-1} [A2^T + (i omega + 2 Gamma) A1]
    built from the blocks of the similarity matrix.  Values depend on the
    similarity gauge; the residual of the defining first-order relation is
    gauge independent and is what the tests pin down.
    """
    _require_finite("omega", omega)
    n, A = ext.n, ext.sim_A
    A1, A2, A3 = A[:n, :n], A[:n, n:], A[n:, n:]
    shift = 1j * omega * np.eye(n) + 2.0 * ext.damping
    lhs = A3 + shift @ A2
    rhs = A2.T + shift @ A1
    try:
        return -np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        raise SingularAuxiliary(omega) from None


def gaussian_ft(k, center, sigma) -> complex:
    """Closed-form transform of a unit Gaussian density.

    exp(-i k . R - k^T Sigma k / 2) for a Gaussian centered at R with
    covariance Sigma.
    """
    k = np.asarray(k, dtype=float).reshape(3)
    center = np.asarray(center, dtype=float).reshape(3)
    sigma = np.asarray(sigma, dtype=float).reshape(3, 3)
    return complex(np.exp(-1j * (k @ center) - 0.5 * (k @ sigma @ k)))


def _charge_weights(spec: MediumSpec) -> NDArray[np.float64]:
    if any(kind != "charge" for kind in spec.source_kind):
        raise ValueError("field emission is defined for charge sources only")
    return spec.coords  # 3 x n dipole-density weights


def scattering_rows(ext: ExtendedOperator, omega: float):
    """Frequency-dependent prefactor of the scattering kernel.

    Returns the n x n matrix U(omega) combining the source rows of the
    resolvent with the direct and auxiliary coupling channels; it is shared
    by every k evaluated at the same frequency.  Those rows are the u rows
    of i R A, R = (omega^2 I - kappa)^{-1}, the resolvent's pi columns.  As
    kappa A = A kappa^T, R A is symmetric, so they are the transposed u
    columns: one 2n solve (:func:`spectral._resolvent_x`) against the first
    n columns of A, real for a real medium.
    """
    _require_finite("omega", omega)
    A = ext.sim_A
    n = ext.n
    rows = 1j * _resolvent_x(ext, omega, A[:, :n]).T
    L = auxiliary_response(ext, omega)
    return rows[:, :n] + rows[:, n:] @ L


def scattering_T(
    ext: ExtendedOperator,
    spec: MediumSpec,
    k,
    omega: float,
    weights: NDArray[np.float64] | None = None,
) -> NDArray[np.complex128]:
    """Scattering kernel T(k, omega), an n x 3 complex matrix.

    The kernel carries one factor of the dipole-density ``weights`` (the
    source coordinates by default) and is linear in them.
    """
    _require_finite("wavevector k", k)
    if weights is None:
        weights = _charge_weights(spec)
    return _t_kernel(scattering_rows(ext, omega), _gtilde(spec, k), weights)


def _t_kernel(rows, gtilde, weights) -> NDArray[np.complex128]:
    """T(k, omega) from the frequency's scattering rows and G~(k)."""
    return (1j / TWO_PI_CUBED) * (rows * gtilde[None, :]) @ weights.T


def _gtilde(spec: MediumSpec, k) -> NDArray[np.complex128]:
    """G~(k): the transform of every source's Gaussian density at k."""
    return np.array(
        [gaussian_ft(k, spec.coords[:, a], spec.covariances[a]) for a in range(spec.n)]
    )


def _green_tensors(k_points, omega: float) -> NDArray[np.float64]:
    """:func:`green_tensor` of each row of ``k_points``, as one (m, 3, 3) array.

    The first point on the light cone raises LightConeSingularity.
    """
    c2 = SPEED_OF_LIGHT_AU**2
    denom = omega**2 - c2 * np.einsum("mi,mi->m", k_points, k_points)
    hit = np.flatnonzero(denom == 0.0)
    if hit.size:
        raise LightConeSingularity(tuple(k_points[hit[0]]), omega)
    ckk = c2 * (k_points[:, :, None] * k_points[:, None, :])
    return 4.0 * np.pi * (np.eye(3) * omega**2 - ckk) / denom[:, None, None]


def green_tensor(k, omega: float):
    """Transverse-wave Green factor 4 pi (delta omega^2 - c^2 k k^T) / (omega^2 - c^2 |k|^2)."""
    _require_finite("wavevector k", k)
    _require_finite("omega", omega)
    return _green_tensors(np.asarray(k, dtype=float).reshape(1, 3), omega)[0]


def _first_order_passes(
    ext: ExtendedOperator, spec: MediumSpec, ext_field: FieldPlaneWaveSet, k_points
):
    """The first-order field at ``k_points``, one frequency of the set's grid at a time.

    Yields per frequency the scattering rows, the projectors G(k) R G~(k) of
    all points as one (m, 3, n) array and the field the external waves
    scatter once.  G~ does not depend on omega, so it is taken once per
    point and once per wave.  With the weights X, a wave's kernel action is
    T(-k) A = i (2 pi)^-3 U (G~(-k) * (X^T A)), so the waves are summed into
    one source vector per frequency before the sweep, and each frequency
    projects one action of U.
    """
    weights = _charge_weights(spec)
    grid = ext_field.omega_grid
    weighted = np.stack([weights * _gtilde(spec, k)[None, :] for k in k_points])
    sources = np.zeros((spec.n, grid.size), dtype=complex)
    for wave in ext_field.waves:
        sources += _gtilde(spec, -wave.k)[:, None] * (weights.T @ wave.amplitude_on(grid).T)
    for iw, omega in enumerate(grid):
        rows = scattering_rows(ext, omega)
        proj = _green_tensors(k_points, omega) @ weighted
        # sum_alpha G_ij R_{j alpha} Gtil_alpha T_{alpha l} A_l, summed over waves
        first = proj @ ((1j / TWO_PI_CUBED) * (rows @ sources[:, iw]))
        yield rows, proj, first


def emitted_field_first_order(
    ext: ExtendedOperator,
    spec: MediumSpec,
    ext_field: FieldPlaneWaveSet,
    k_queries,
):
    """First-order scattered field at the query wavevectors.

    Returns the smooth part of the field, shape (n_omega, n_queries, 3), in
    the (2 pi)^-3-scaled convention.  The delta-supported part stays
    symbolic: it is the incident plane waves themselves.
    """
    omega_grid = ext_field.omega_grid
    k_queries = np.atleast_2d(np.asarray(k_queries, dtype=float))
    _require_finite("k queries", k_queries)
    scattered = np.zeros((omega_grid.size, k_queries.shape[0], 3), dtype=complex)
    for iw, (_, _, first) in enumerate(_first_order_passes(ext, spec, ext_field, k_queries)):
        scattered[iw] = first
    return scattered


def emitted_field_iterate(
    ext: ExtendedOperator,
    spec: MediumSpec,
    ext_field: FieldPlaneWaveSet,
    k_nodes,
    k_weights,
    orders: int = 1,
):
    """Optional fixed-point refinement of the scattered field (off by default).

    The smooth part of the field is carried on quadrature nodes ``k_nodes``
    with weights ``k_weights`` approximating the feedback integral; each
    extra order re-scatters the node field once.  ``orders = 1`` reproduces
    :func:`emitted_field_first_order` on the nodes.  Accuracy beyond first
    order is limited by the node quadrature, which the caller controls.
    """
    if orders < 1:
        raise ValueError("orders must be at least 1")
    omega_grid = ext_field.omega_grid
    k_nodes = np.atleast_2d(np.asarray(k_nodes, dtype=float))
    k_weights = np.asarray(k_weights, dtype=float)
    _require_finite("k nodes", k_nodes)
    _require_finite("k weights", k_weights)
    if k_weights.shape != (k_nodes.shape[0],):
        raise ValueError("one weight per quadrature node is required")
    n_k = k_nodes.shape[0]
    field = np.zeros((omega_grid.size, n_k, 3), dtype=complex)
    weights = _charge_weights(spec)
    g_back = [_gtilde(spec, -kq) for kq in k_nodes] if orders > 1 else []

    for iw, (rows, proj, first) in enumerate(_first_order_passes(ext, spec, ext_field, k_nodes)):
        cur = first
        if orders > 1:
            t_node = [_t_kernel(rows, g, weights) for g in g_back]
            for _ in range(orders - 1):
                fold = np.zeros(spec.n, dtype=complex)
                for j in range(n_k):
                    fold += k_weights[j] * (t_node[j] @ cur[j])
                cur = first + proj @ fold
        field[iw] = cur
    return field
