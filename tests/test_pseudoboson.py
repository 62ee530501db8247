import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    fock_quadratic_hamiltonian,
    pairing_integral_numeric,
    scalar_spec,
    seeded,
    stable_spec,
)
from qpmedia.builders import build_synthetic
from qpmedia.errors import SingularEffectiveSigma, ZeroMode
from qpmedia.medium import simple_spec
from qpmedia.pseudoboson import (
    biorthogonal_density,
    build_pseudoboson,
    coherent_params,
    commutator_matrix,
    evolve_alpha,
    phi_unnormalized,
    psi_unnormalized,
)
from qpmedia.spectral import _eigensystem, build_sqrt_kappa, eigendecompose


def eig_for(spec):
    return eigendecompose(build_sqrt_kappa(spec))


class TestBasis:
    def test_unit_oscillator_is_textbook(self, undamped_scalar):
        basis = build_pseudoboson(eig_for(undamped_scalar), hbar=1.0)
        assert basis.paired_real_gauge
        # rows reduce to (x_k + i pi_k)/sqrt(2) on the doubled space
        expected = np.zeros((2, 4), dtype=complex)
        expected[0, 0] = expected[1, 1] = 1.0 / np.sqrt(2)
        expected[0, 2] = expected[1, 3] = 1j / np.sqrt(2)
        assert_allclose(basis.b_coeff, expected, atol=1e-12)
        assert_allclose(basis.btilde_coeff, expected.conj(), atol=1e-12)
        assert_allclose(commutator_matrix(basis), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed,n", [(201, 2), (202, 3), (203, 6)])
    def test_ccr_random_damped(self, seed, n):
        spec = stable_spec(seed=seed, n=n)
        basis = build_pseudoboson(eig_for(spec), hbar=0.8)
        comm = commutator_matrix(basis)
        assert np.abs(comm - np.eye(2 * n)).max() < 1e-10

    def test_hermitian_limit_conjugate_rows(self):
        rng = np.random.default_rng(13)
        K = rng.standard_normal((3, 3))
        K = K @ K.T + 4.0 * np.eye(3)
        spec = simple_spec(K, np.zeros((3, 3)))
        basis = build_pseudoboson(eig_for(spec), hbar=1.0)
        assert basis.paired_real_gauge
        assert np.abs(basis.btilde_coeff - basis.b_coeff.conj()).max() < 1e-10
        assert np.abs(commutator_matrix(basis) - np.eye(6)).max() < 1e-10

    @pytest.mark.parametrize("hbar", [float("nan"), float("inf"), 0.0, -1.0])
    def test_hbar_outside_domain_rejected(self, hbar):
        eig = eig_for(stable_spec(seed=204, n=3))
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            build_pseudoboson(eig, hbar=hbar)

    def test_zero_mode_rejected(self):
        spec = scalar_spec(0.0, 0.3)
        with pytest.raises(ZeroMode):
            build_pseudoboson(eig_for(spec))

    def test_all_zero_spectrum_rejected(self):
        # the spectrum of K = Gamma = 0; its own eigensystem is a Jordan block
        # that eigendecompose refuses, so the trusted basis here is the identity
        with pytest.raises(ZeroMode):
            build_pseudoboson(_eigensystem(np.zeros(2, dtype=complex), np.eye(2, dtype=complex)))

    def test_quarter_root_squares_to_sqrtJ(self):
        spec = stable_spec(seed=204, n=4)
        basis = build_pseudoboson(eig_for(spec))
        assert_allclose(basis.quarterJK**2, basis.sqrtJK, rtol=1e-12)


def undamped_real_spec(n, seed, kind, tiny_damping):
    """A real medium whose every mode is undamped: SPD, marginal or c I kernel."""
    rng = np.random.default_rng(seed)
    if kind == "spd":
        B = rng.standard_normal((n, n))
        K = B @ B.T / n + rng.uniform(0.1, 2.0) * np.eye(n)
    elif kind == "marginal":  # non-symmetric K, real spectrum
        K = build_synthetic(n, seed, "marginal").kernel
    else:  # one n-fold degenerate cluster
        K = rng.uniform(0.1, 5.0) * np.eye(n)
    return simple_spec(K, (1e-13 if tiny_damping else 0.0) * np.eye(n))


class TestPairedRealGauge:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["spd", "marginal", "degenerate"]),
        tiny_damping=st.booleans(),
    )
    def test_undamped_real_media_get_the_paired_basis(self, n, seed, kind, tiny_damping):
        ext = build_sqrt_kappa(undamped_real_spec(n, seed, kind, tiny_damping))
        basis = build_pseudoboson(eigendecompose(ext), hbar=0.7)
        assert basis.paired_real_gauge
        P1 = basis.mode_matrix
        assert not P1.imag.any()
        # block-diagonal up to column order: each column lies in one block,
        # n columns in each
        top_only, bottom_only = ~P1[n:].any(axis=0), ~P1[:n].any(axis=0)
        assert np.array_equal(top_only, ~bottom_only)
        assert np.count_nonzero(top_only) == n
        kappa = ext.kappa
        resid = np.linalg.norm(kappa @ P1 - P1 * basis.sqrtJK**2)
        assert resid <= 1e-12 * np.linalg.norm(kappa) * np.linalg.norm(P1)
        assert np.abs(commutator_matrix(basis) - np.eye(2 * n)).max() < 1e-12
        b = basis.b_coeff
        assert np.abs(basis.btilde_coeff - b.conj()).max() <= 1e-14 * np.abs(b).max()

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_damped_media_keep_the_generic_gauge(self, n):
        assert not build_pseudoboson(eig_for(stable_spec(seed=300 + n, n=n))).paired_real_gauge

    @pytest.mark.parametrize("rate", [1e-8, 1e-9, 1e-11])
    def test_gauge_is_free_of_units(self, rate):
        # K * 10**k scales every frequency by 10**(k/2); Gamma = rate * omega_min I
        # scales with it, so every copy is the same medium in other units
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        K = Q @ np.diag([3.0, 5.0, 9.0]) @ Q.T
        gauges = {
            build_pseudoboson(
                eig_for(simple_spec(10.0**k * K, rate * np.sqrt(3.0 * 10.0**k) * np.eye(3)))
            ).paired_real_gauge
            for k in range(-6, 7)
        }
        assert gauges == {rate < 1e-10}

    def test_complex_hermitian_kernel_keeps_the_generic_gauge(self):
        rng = np.random.default_rng(17)
        H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        spec = simple_spec(H @ H.conj().T / 4 + 2.0 * np.eye(4), np.zeros((4, 4)))
        eig = eig_for(spec)
        assert np.abs(eig.values.imag).max() <= 1e-10 * np.abs(eig.values).max()
        assert not build_pseudoboson(eig).paired_real_gauge


class TestCoherentParams:
    def test_alpha_zero_norm_is_effective_determinant(self):
        # damped real medium: the pairing matrix equals -2 conj(sigma_inv),
        # so the closed form reduces to det(2 pi Sigma_eff)^{-1/2}
        spec = scalar_spec(2.0, 0.3)
        basis = build_pseudoboson(eig_for(spec))
        params = coherent_params(basis, np.zeros(2))
        assert np.abs(params.mu_vec).max() == 0.0
        pair = params.sigma_inv - params.sigma_inv.conj()
        assert np.abs(pair - (-2.0 * params.sigma_inv.conj())).max() < 1e-12
        evals = np.linalg.eigvals(pair)
        det_route = np.prod(1.0 / np.sqrt(2.0 * np.pi / evals))
        assert abs(params.norm_product - det_route) < 1e-10 * abs(det_route)

    def test_hermitian_ground_state_width(self, undamped_scalar):
        basis = build_pseudoboson(eig_for(undamped_scalar), hbar=1.0)
        params = coherent_params(basis, np.zeros(2))
        assert_allclose(params.sigma_inv, -np.eye(2), atol=1e-12)
        assert_allclose(params.norm_product, 1.0 / np.pi, rtol=1e-12)
        assert params.eff_sigma is None  # ordinary-boson limit

    def test_singular_pairing_matrix_is_refused(self):
        # a kernel eigenvalue of 1e-12 (above the ZeroMode gate once damped)
        # leaves the pairing integral matrix singular
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        K = Q @ np.diag([1e-12, 1.0, 2.0, 3.0]) @ Q.T
        G = 0.05 * np.eye(4) + 0.01 * np.diag(np.random.default_rng(1).uniform(size=4))
        basis = build_pseudoboson(eig_for(simple_spec(K, G)))
        with pytest.raises(SingularEffectiveSigma, match="pairing integral matrix is singular"):
            coherent_params(basis, np.zeros(basis.n_modes))

    def test_divergent_pairing_integral_is_refused(self):
        base = build_synthetic(2, 0)
        spec = simple_spec(base.kernel + 0.3j * np.eye(2), base.damping)
        basis = build_pseudoboson(eig_for(spec))
        with pytest.raises(SingularEffectiveSigma, match="diverges for this basis"):
            coherent_params(basis, np.zeros(basis.n_modes))

    def test_eff_fields_are_the_quadratic_fit_of_log_psi_over_its_conjugate(self):
        # log(psi / conj psi) at real x is quadratic with Hessian
        # Sigma^{-1} - conj(Sigma^{-1}); six values fix it, and its inverse
        # Hessian and stationary point are eff_sigma and eff_mu
        basis = build_pseudoboson(eig_for(simple_spec([[2.0]], [[0.3]])))
        params = coherent_params(basis, np.array([0.3 + 0.1j, -0.2 + 0.05j]))
        points = np.array([[0, 0], [0.1, 0], [0, 0.1], [-0.1, 0], [0, -0.1], [0.1, 0.1]])
        design = np.array([[1, x, y, x * x / 2, x * y, y * y / 2] for x, y in points])
        psi = np.array([psi_unnormalized(params, x) for x in points])
        assert np.abs(np.angle(psi)).max() < 1.0  # no branch cut between the points
        c = np.linalg.solve(design, np.log(psi / psi.conj()))
        hessian = np.array([[c[3], c[4]], [c[4], c[5]]])
        fit_sigma = np.linalg.inv(hessian)
        fit_mu = -fit_sigma @ c[1:3]
        assert np.abs(fit_sigma - params.eff_sigma).max() <= 1e-13 * np.abs(params.eff_sigma).max()
        assert np.abs(fit_mu - params.eff_mu).max() <= 1e-13 * np.abs(params.eff_mu).max()

    def test_alpha_scaling_linear(self):
        spec = scalar_spec(2.0, 0.3)
        basis = build_pseudoboson(eig_for(spec))
        a = coherent_params(basis, np.array([0.3 + 0.1j, -0.2j]))
        b = coherent_params(basis, 2.0 * np.array([0.3 + 0.1j, -0.2j]))
        assert_allclose(b.mu_vec, 2.0 * a.mu_vec, rtol=1e-13)

    def test_ladder_eigenrelation_by_finite_differences(self):
        # apply b_k = Bx x + Bpi (-i hbar d/dx) to psi numerically
        spec = scalar_spec(2.0, 0.4)
        hbar = 1.0
        basis = build_pseudoboson(eig_for(spec), hbar=hbar)
        alpha = np.array([0.37 - 0.21j, 0.11 + 0.42j])
        params = coherent_params(basis, alpha)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, size=2)
            psi0 = psi_unnormalized(params, x)
            for k in range(2):
                grad = np.zeros(2, dtype=complex)
                for a in range(2):
                    dx = np.zeros(2)
                    dx[a] = h
                    grad[a] = (
                        psi_unnormalized(params, x + dx)
                        - psi_unnormalized(params, x - dx)
                    ) / (2 * h)
                bx = basis.b_coeff[k, :2]
                bp = basis.b_coeff[k, 2:]
                applied = bx @ (x * psi0) + bp @ (-1j * hbar * grad)
                assert abs(applied - alpha[k] * psi0) < 1e-6 * max(abs(psi0), 1e-3)

    def test_primed_state_solves_conjugate_problem(self):
        # (btilde)^dagger phi = alpha phi via finite differences
        spec = scalar_spec(2.0, 0.4)
        hbar = 1.0
        basis = build_pseudoboson(eig_for(spec), hbar=hbar)
        alpha = np.array([0.2 + 0.3j, -0.15j])
        params = coherent_params(basis, alpha)
        rng = np.random.default_rng(4)
        h = 1e-5
        x = rng.uniform(-0.5, 0.5, size=2)
        phi0 = phi_unnormalized(params, x)
        for k in range(2):
            grad = np.zeros(2, dtype=complex)
            for a in range(2):
                dx = np.zeros(2)
                dx[a] = h
                grad[a] = (
                    phi_unnormalized(params, x + dx) - phi_unnormalized(params, x - dx)
                ) / (2 * h)
            tx = basis.btilde_coeff[k, :2].conj()
            tp = basis.btilde_coeff[k, 2:].conj()
            applied = tx @ (x * phi0) + tp @ (-1j * hbar * grad)
            assert abs(applied - alpha[k] * phi0) < 1e-6 * max(abs(phi0), 1e-3)


class TestBiorthogonality:
    def test_hermitian_quadrature(self, undamped_scalar):
        basis = build_pseudoboson(eig_for(undamped_scalar), hbar=1.0)
        params = coherent_params(basis, np.zeros(2))
        val = pairing_integral_numeric(params)
        assert abs(val - 1.0) < 1e-6

    @pytest.mark.parametrize("k,g", [(2.0, 0.3), (1.5, 0.45), (3.2, 0.2), (2.7, 0.55), (1.1, 0.35)])
    def test_damped_fresnel_quadrature(self, k, g):
        spec = scalar_spec(k, g)
        basis = build_pseudoboson(eig_for(spec), hbar=1.0)
        params = coherent_params(basis, np.zeros(2))
        val = pairing_integral_numeric(params)
        assert abs(val - 1.0) < 1e-6

    def test_density_uses_norm_product(self, undamped_scalar):
        basis = build_pseudoboson(eig_for(undamped_scalar), hbar=1.0)
        params = coherent_params(basis, np.zeros(2))
        x = np.array([0.3, -0.4])
        direct = (
            params.norm_product
            * np.conj(psi_unnormalized(params, x))
            * phi_unnormalized(params, x)
        )
        assert_allclose(biorthogonal_density(params, x), direct, rtol=1e-14)


class TestFockTruncation:
    def test_spectrum_matches_ladder_formula(self):
        # undamped scalar medium with k = 2: canonical-form energies
        # hbar (n1 + n2 + 1) sqrt(2) against direct diagonalization
        spec = scalar_spec(2.0, 0.0)
        eig = eig_for(spec)
        basis = build_pseudoboson(eig, hbar=1.0)
        assert basis.paired_real_gauge
        P1 = basis.mode_matrix
        A = (P1 @ P1.T).real
        kappa = np.eye(2) * 2.0
        pi_w = np.diag(A)
        x_w = np.diag(np.linalg.solve(A, kappa))
        H, _, _ = fock_quadratic_hamiltonian(pi_w, x_w, cutoff=20)
        evals = np.linalg.eigvalsh(H)
        predicted = [
            np.sum(basis.sqrtJK * (n1, n2)).real + 0.5 * np.sum(basis.sqrtJK).real
            for n1 in range(4)
            for n2 in range(4)
        ]
        for e in predicted:
            assert np.abs(evals - e).min() < 1e-8


class TestEvolveAlpha:
    def test_identity_at_zero(self):
        spec = stable_spec(seed=205, n=2)
        basis = build_pseudoboson(eig_for(spec))
        alpha = np.array([0.2, -0.4 + 0.1j, 0.0, 1.0])
        alpha_t, logp = evolve_alpha(alpha, basis, 0.0)
        assert_allclose(alpha_t, alpha, rtol=0, atol=0)
        assert logp == 0.0

    def test_real_spectrum_is_unitary(self, undamped_scalar):
        basis = build_pseudoboson(eig_for(undamped_scalar))
        alpha = np.array([0.3, 0.7j])
        alpha_t, logp = evolve_alpha(alpha, basis, 2.3)
        assert abs(np.linalg.norm(alpha_t) - np.linalg.norm(alpha)) < 1e-12
        assert abs(np.exp(logp).__abs__() - 1.0) < 1e-12

    def test_lower_half_plane_amplitude_decays(self):
        # the premise Im mu < 0 for every mode selects media whose ladder
        # spectrum sits in the lower half plane (anti-damped sign of Gamma)
        spec = scalar_spec(2.0, -0.5)
        eig = eig_for(spec)
        assert np.all(eig.values.imag < 0)
        alpha = np.array([1.0, 1.0], dtype=complex)
        norms = []
        for t in (0.0, 0.5, 1.0, 2.0):
            alpha_t, _ = evolve_alpha(alpha, build_pseudoboson(eig), t)
            norms.append(np.linalg.norm(alpha_t))
        assert np.all(np.diff(norms) < 0)

    def test_stable_medium_prefactor_absorbs_growth(self):
        # stable media put Sp{sqrt_kappa} in the upper half plane, so the
        # raw amplitude grows and the log prefactor tracks it exactly
        spec = scalar_spec(2.0, 0.5)
        eig = eig_for(spec)
        alpha = np.array([0.4, -0.3j])
        t = 1.7
        alpha_t, logp = evolve_alpha(alpha, build_pseudoboson(eig), t)
        expected = -0.5j * t * eig.values.sum() - 0.5 * (
            np.abs(alpha) ** 2 - np.abs(alpha_t) ** 2
        ).sum()
        assert abs(logp - expected) < 1e-12

    def test_paired_gauge_evolves_with_the_basis_frequencies(self):
        # the paired gauge lists sqrt(J) as 1.427, 1.427, 2.754, 2.754 where
        # eig.values is -2.754, -1.427, 1.427, 2.754; its ladder rows are left
        # eigenvectors of the J_B of the gauge's own A = P1 P1^T
        from scipy.linalg import expm

        ext = build_sqrt_kappa(build_synthetic(2, 3, "marginal"))
        basis = build_pseudoboson(ext.eig)
        assert basis.paired_real_gauge
        P1 = basis.mode_matrix
        JB = seeded(ext, sim_A=(P1 @ P1.T).real).gen_JB
        q0 = np.random.default_rng(0).standard_normal(8)
        ladder = np.roll(basis.b_coeff, 4, axis=1)  # columns [pi | x], as q0
        t = 1.3
        want = ladder @ expm(-JB * t) @ q0
        alpha_t, _ = evolve_alpha(ladder @ q0, basis, t)
        assert np.abs(alpha_t - want).max() < 1e-12 * np.abs(want).max()
        # the eigensystem's values would evolve alpha by far more than rounding
        assert np.abs(np.exp(-1j * t * ext.eig.values) * (ladder @ q0) - want).max() > 0.1
