from dataclasses import replace

import numpy as np
import pytest

from qpmedia.builders import (
    DrudeParams,
    build_drude_charge_model,
    build_synthetic,
    hexagonal_disk,
)
from qpmedia.medium import simple_spec
from qpmedia.spectral import DEFECTIVE_COND_THRESHOLD


def assert_multiset_close(got, expected, tol):
    """Greedy nearest matching of two complex multisets within tol."""
    got = list(np.asarray(got, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(expected)
    for g in got:
        dists = [abs(g - e) for e in expected]
        j = int(np.argmin(dists))
        assert dists[j] <= tol, f"{g} unmatched (closest {expected[j]}, dist {dists[j]:.3e})"
        expected.pop(j)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def stable_spec(seed: int, n: int):
    """Deterministic random stable medium (shared across test modules)."""
    return build_synthetic(n=n, seed=seed, stability="stable")


def scalar_spec(k: float, gamma: float):
    return simple_spec([[k]], [[gamma]])


def complex_spec():
    """A 4-source medium whose K and Gamma are both complex."""
    spec = stable_spec(seed=12, n=4)
    shift = 0.01j * np.eye(4)
    return replace(spec, kernel=spec.kernel + 2.0 * shift, damping=spec.damping + shift)


def small_drude_disk():
    """The 7-site Drude disk: its conserved-charge mode makes J_B defective."""
    params = DrudeParams(
        drude_factor=0.008, relaxation=0.004, gaussian_width=2.4,
        tunneling_enabled=True, tunneling_d0=6.0, tunneling_steepness=10.0,
    )
    return build_drude_charge_model(hexagonal_disk(4.0, 2.434), params, response_axis=0)


def generator_function(ext, f):
    """f(J_B) = V diag(f(lam)) V^{-1} from np.linalg.eig(ext.gen_JB): the J_B eigenmode oracle.

    None where V is not trusted (cond(V) above DEFECTIVE_COND_THRESHOLD), as
    for the defective J_B of a medium with a zero mode.
    """
    lam, V = np.linalg.eig(ext.gen_JB)
    if not np.linalg.cond(V) <= DEFECTIVE_COND_THRESHOLD:
        return None
    return (V * f(lam)) @ np.linalg.inv(V)


@pytest.fixture
def damped_scalar():
    return scalar_spec(2.0, 0.5)


@pytest.fixture
def undamped_scalar():
    return scalar_spec(1.0, 0.0)


# ---------------------------------------------------------------------------
# Independent numerical oracles shared by module and acceptance tests
# ---------------------------------------------------------------------------

def _simpson(values, h):
    # composite Simpson; len(values) must be odd
    return h / 3.0 * (values[0] + values[-1] + 4 * values[1:-1:2].sum() + 2 * values[2:-2:2].sum())


def _fresnel_1d(d, eps, lin=0.0):
    """Regulated 1D quadrature of exp(-(eps + i d) y^2 + i lin y)."""
    width = np.sqrt(40.0 / eps)
    rate = max(abs(d) * width * 2.0 + abs(lin), 1.0)
    h = min(2.0 * np.pi / rate / 12.0, 0.02)
    m = int(np.ceil(width / h))
    if m % 2 == 1:
        m += 1
    y = np.linspace(-width, width, 2 * m + 1)
    vals = np.exp(-(eps + 1j * d) * y**2 + 1j * lin * y)
    return _simpson(vals, y[1] - y[0])


def _richardson(eps_list, vals):
    """Polynomial extrapolation to eps = 0 (Neville on the eps grid)."""
    eps_list = list(eps_list)
    table = list(vals)
    k = len(table)
    for lvl in range(1, k):
        new = []
        for i in range(k - lvl):
            e0, e1 = eps_list[i], eps_list[i + lvl]
            new.append((e0 * table[i + 1] - e1 * table[i]) / (e0 - e1))
        table = new
    return table[0]


def pairing_integral_numeric(params):
    """Numerical integral of psi*_alpha phi_alpha over the plane (n = 1).

    Absolutely convergent cases use a direct 2D Simpson grid; the purely
    oscillatory (Fresnel) cases are rotated to principal axes, regulated by
    a Gaussian and extrapolated to zero regulator.  Independent of the
    closed-form normalization being checked.
    """
    W = np.conj(params.sigma_inv)
    if W.shape != (2, 2):
        raise ValueError("oracle supports the scalar medium (2D doubled space) only")
    M = -2.0 * W
    S, T = M.real, M.imag
    if np.linalg.norm(S) > 1e-8 * np.linalg.norm(M):
        # decaying pairing: direct 2D quadrature
        lam_min = np.linalg.eigvalsh((S + S.T) / 2).min()
        if lam_min <= 0:
            raise ValueError("pairing density does not decay; oracle not applicable")
        half = np.sqrt(90.0 / lam_min)
        m = 401
        xs = np.linspace(-half, half, m)
        h = xs[1] - xs[0]
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        # evaluate the quadratic form on the grid
        mu_a = np.conj(params.mu_vec)
        mu_b = params.mu_phi
        pts = np.stack([X, Y])
        def quad_form(mu):
            dx = pts[0] - mu[0]
            dy = pts[1] - mu[1]
            return W[0, 0] * dx * dx + 2 * W[0, 1] * dx * dy + W[1, 1] * dy * dy
        dens = params.norm_product * np.exp(0.5 * quad_form(mu_a) + 0.5 * quad_form(mu_b))
        wgt = np.ones(m)
        wgt[1:-1:2] = 4.0
        wgt[2:-2:2] = 2.0
        wgt *= h / 3.0
        return complex(np.einsum("i,j,ij->", wgt, wgt, dens))
    if np.abs(params.alpha).max() > 0:
        raise ValueError("Fresnel oracle implemented for alpha = 0 only")
    evals, Q = np.linalg.eigh((T + T.T) / 2)
    acc = params.norm_product
    eps_list = [0.04, 0.02, 0.01, 0.005]
    for d in evals:
        vals = [_fresnel_1d(0.5 * d, eps) for eps in eps_list]
        acc = acc * _richardson(eps_list, vals)
    return complex(acc)


def fock_ladder(cutoff):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    return x, p


def fock_quadratic_hamiltonian(pi_weights, x_weights, cutoff):
    """Dense two-mode H = sum_k (w_pi_k pi_k^2 + w_x_k x_k^2) / 2 on a Fock grid."""
    x1, p1 = fock_ladder(cutoff)
    eye = np.eye(cutoff)
    X = [np.kron(x1, eye), np.kron(eye, x1)]
    P = [np.kron(p1, eye), np.kron(eye, p1)]
    H = np.zeros((cutoff**2, cutoff**2), dtype=complex)
    for k in range(2):
        H += 0.5 * pi_weights[k] * (P[k] @ P[k]) + 0.5 * x_weights[k] * (X[k] @ X[k])
    return H, X, P
