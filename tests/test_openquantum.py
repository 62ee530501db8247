import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import fock_ladder, generator_function, scalar_spec, stable_spec
from qpmedia import builders
from qpmedia.errors import FrequencyNotCovered, ThermalSingularity
from qpmedia.openquantum import (
    SystemCoupling,
    _interp_tensor,
    _x_sweep,
    assemble_master_equation,
    bohr_decompose,
    classical_correlation,
    correlation_frequency,
    coupling_operators,
    correlation_time,
    dissipator,
    lamb_shift,
    thermal_correlation,
)
from qpmedia.phasespace import GaussianState, thermal_state
from qpmedia.spectral import prepare, symplectic_form


def vacuum_state(n, hbar=1.0):
    return GaussianState(mean=np.zeros(4 * n), cov=(hbar / 2.0) * np.eye(4 * n), hbar=hbar)


class TestCorrelationTime:
    def test_initial_value(self):
        spec = stable_spec(seed=401, n=2)
        ext, _ = prepare(spec)
        rng = np.random.default_rng(1)
        mean = rng.standard_normal(8)
        state = GaussianState(mean=mean, cov=0.5 * np.eye(8), hbar=0.7)
        xi0 = correlation_time(ext, state, 0.0)
        J = symplectic_form(4)
        expected = 0.5 * np.eye(8) + 0.35j * J.T + np.outer(mean, mean)
        assert np.abs(xi0 - expected).max() < 1e-12

    def test_semigroup_residual(self):
        spec = stable_spec(seed=402, n=2)
        ext, _ = prepare(spec)
        state = vacuum_state(2)
        t, s = 0.8, 0.5
        from scipy.linalg import expm

        prop = expm(-ext.gen_JB * t)
        lhs = correlation_time(ext, state, t + s)
        rhs = prop @ correlation_time(ext, state, s)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_fock_oracle_hermitian_limit(self):
        # exact diagonalization of the quadratic Hamiltonian on a Fock grid;
        # the stiffness is kept near unity so cutoff 30 converges past 1e-6
        spec = scalar_spec(1.3, 0.0)
        ext, _ = prepare(spec)
        hbar = 1.0
        state = vacuum_state(1, hbar)
        A = ext.sim_A
        assert np.abs(A.imag).max() < 1e-12  # real metric in this limit
        pi_w = np.diag(A.real)
        x_w = np.diag(np.linalg.solve(A, ext.kappa).real)
        cutoff = 30
        x1, p1 = fock_ladder(cutoff)
        eye = np.eye(cutoff)
        ops = [
            np.kron(p1, eye),
            np.kron(eye, p1),
            np.kron(x1, eye),
            np.kron(eye, x1),
        ]  # ordering [pi_u, pi_v, u, v]
        H = (
            0.5 * pi_w[0] * ops[0] @ ops[0]
            + 0.5 * pi_w[1] * ops[1] @ ops[1]
            + 0.5 * x_w[0] * ops[2] @ ops[2]
            + 0.5 * x_w[1] * ops[3] @ ops[3]
        )
        evals, vecs = np.linalg.eigh(H)
        vac = np.zeros(cutoff**2)
        vac[0] = 1.0
        for t in (0.4, 1.3):
            phases = np.exp(1j * evals * t / hbar)
            u_fwd = (vecs * phases) @ vecs.conj().T
            u_bwd = (vecs * phases.conj()) @ vecs.conj().T
            xi = correlation_time(ext, state, t)
            for a in range(4):
                qa_t = u_fwd @ ops[a] @ u_bwd
                for b in range(4):
                    val = vac @ (qa_t @ (ops[b] @ vac))
                    assert abs(xi[a, b] - val) < 1e-6


class TestCorrelationFrequency:
    def test_hermiticity_of_gamma_and_s(self):
        for seed in (411, 412):
            spec = stable_spec(seed=seed, n=3)
            ext, _ = prepare(spec)
            corr = correlation_frequency(ext, vacuum_state(3), np.linspace(0.1, 3.0, 7), eta=1e-3)
            for i in range(corr.omega_grid.size):
                g = corr.gamma[i]
                s = corr.s_ls[i]
                assert np.abs(g - g.conj().T).max() < 1e-12 * max(1.0, np.abs(g).max())
                assert np.abs(s - s.conj().T).max() < 1e-12 * max(1.0, np.abs(s).max())

    def test_gamma_and_s_are_formed_from_xi_bit_for_bit(self):
        ext, _ = prepare(builders.build_synthetic(6, 1))
        corr = thermal_correlation(ext, 1.3, 0.8, np.linspace(0.1, 2.0, 9), 1e-3)
        xi = corr.xi
        xi_dag = np.conj(np.transpose(xi, (0, 2, 1)))
        gamma, s_ls = corr.gamma, corr.s_ls
        assert gamma.tobytes() == (xi + xi_dag).tobytes()
        assert s_ls.tobytes() == ((xi - xi_dag) / 2j).tobytes()
        for table in (gamma, s_ls):
            assert np.array_equal(table, np.conj(np.transpose(table, (0, 2, 1))))
        for i in range(corr.omega_grid.size):
            g_i, s_i = corr.at(i)
            assert g_i.tobytes() == gamma[i].tobytes()
            assert s_i.tobytes() == s_ls[i].tobytes()

    def test_eta_cauchy_off_resonance(self):
        spec = stable_spec(seed=413, n=2)
        ext, _ = prepare(spec)
        state = vacuum_state(2)
        grid = np.array([0.11])  # off-resonant probe
        d1 = correlation_frequency(ext, state, grid, eta=1e-3)
        d2 = correlation_frequency(ext, state, grid, eta=1e-4)
        d3 = correlation_frequency(ext, state, grid, eta=1e-5)
        gap12 = np.abs(d1.xi - d2.xi).max()
        gap23 = np.abs(d2.xi - d3.xi).max()
        assert gap23 < gap12

    def test_time_quadrature_oracle(self):
        # Simpson quadrature of the half-domain transform, n = 1.  The
        # two-time matrix grows like exp(+Im mu t) along the ghost branch,
        # so eta must exceed that rate for the time integral to converge;
        # the resolvent form continues it analytically below.
        spec = scalar_spec(2.0, 0.3)
        ext, _ = prepare(spec)
        state = vacuum_state(1)
        omega, eta = 0.9, 0.8  # growth rate is Im mu = 0.3
        corr = correlation_frequency(ext, state, [omega], eta=eta)
        horizon = 40.0 / (eta - 0.3)
        m = 60001
        ts = np.linspace(0.0, horizon, m)
        h = ts[1] - ts[0]
        from scipy.linalg import expm

        step = expm(-ext.gen_JB * h)
        xi0 = correlation_time(ext, state, 0.0)
        total = np.zeros((4, 4), dtype=complex)
        cur = xi0.copy()
        weights = np.ones(m)
        weights[1:-1:2] = 4.0
        weights[2:-2:2] = 2.0
        weights *= h / 3.0
        for i, t in enumerate(ts):
            total += weights[i] * np.exp((1j * omega - eta) * t) * cur
            cur = step @ cur
        assert np.abs(total[2:, 2:] - corr.xi[0]).max() < 1e-6


class TestThermalRoutes:
    def test_two_route_equivalence(self):
        spec = stable_spec(seed=421, n=2)
        ext, _ = prepare(spec)
        beta, hbar, eta = 1.4, 0.9, 1e-3
        grid = np.linspace(0.2, 2.0, 5)
        direct = thermal_correlation(ext, beta, hbar, grid, eta)
        via_state = correlation_frequency(ext, thermal_state(ext, beta, hbar), grid, eta)
        scale = np.abs(direct.xi).max()
        assert np.abs(direct.xi - via_state.xi).max() < 1e-9 * max(1.0, scale)

    @pytest.mark.parametrize("seed,n", [(424, 2), (425, 6), (426, 12)])
    def test_thermal_correlation_matches_full_bose_einstein_product(self, seed, n):
        # oracle: the full 4n x 4n n_BE times J, through an explicit resolvent
        spec = stable_spec(seed=seed, n=n)
        ext, _ = prepare(spec)
        beta, hbar, eta = 1.3, 0.8, 1e-3
        grid = np.linspace(-1.5, 1.5, 7)
        nbe = generator_function(ext, lambda lam: 1.0 / np.expm1(hbar * beta * 1j * lam))
        rhs = nbe @ symplectic_form(2 * n)
        E = np.eye(4 * n)
        want = np.array(
            [-hbar * np.linalg.solve((w + 1j * eta) * E + 1j * ext.gen_JB, rhs)[2 * n :, 2 * n :]
             for w in grid]
        )
        got = thermal_correlation(ext, beta, hbar, grid, eta).xi
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_classical_limit_linear_slope(self):
        spec = stable_spec(seed=422, n=2)
        ext, _ = prepare(spec)
        beta, eta = 1.1, 1e-3
        grid = np.array([0.5, 1.5])
        ref = classical_correlation(ext, beta, grid, eta)
        hbars = np.array([1e-2, 1e-3, 1e-4])
        errs = []
        for hb in hbars:
            got = thermal_correlation(ext, beta, hb, grid, eta)
            errs.append(np.abs(got.xi - ref.xi).max())
        slope = np.polyfit(np.log(hbars), np.log(errs), 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_classical_beta_scaling(self):
        spec = stable_spec(seed=423, n=2)
        ext, _ = prepare(spec)
        grid = np.array([0.7])
        a = classical_correlation(ext, 1.0, grid, 1e-3)
        b = classical_correlation(ext, 2.0, grid, 1e-3)
        assert_allclose(b.xi, a.xi / 2.0, rtol=1e-12)

    def test_classical_singular_kappa_raises(self):
        # the n=7 Drude disk: its conserved-charge mode makes kappa singular
        # (cond about 9e16), which the quantum route reports through J_B
        params = builders.DrudeParams(
            drude_factor=0.008, relaxation=0.004, gaussian_width=2.4,
            tunneling_enabled=True, tunneling_d0=6.0, tunneling_steepness=10.0,
        )
        spec = builders.build_drude_charge_model(builders.hexagonal_disk(4.0, 2.434), params)
        ext, _ = prepare(spec)
        assert spec.n == 7
        with pytest.raises(ThermalSingularity, match="cond\\(kappa\\)"):
            classical_correlation(ext, 1.0, [0.05], 1e-3)
        with pytest.raises(ThermalSingularity):
            thermal_correlation(ext, 1.0, 1.0, [0.05], 1e-3)

    @pytest.mark.parametrize("n", [40, 64])
    def test_classical_well_conditioned_keeps_its_bits(self, n):
        # cond(kappa) is about 4 here: the check before the inverse leaves
        # every bit of (z / beta) kappa^{-1} y_x as it was
        ext, _ = prepare(builders.build_synthetic(n, 1))
        beta, eta, grid = 1.3, 1e-3, np.array([0.2, 0.9, 1.7])
        kappa_inv = np.linalg.inv(ext.kappa)
        want = _x_sweep(
            ext, grid, eta, symplectic_form(2 * n)[:, 2 * n:],
            lambda z, x: (z / beta) * (kappa_inv @ x),
        )
        got = classical_correlation(ext, beta, grid, eta)
        for name in ("xi", "gamma", "s_ls"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_thermal_singularity_propagates(self):
        spec = scalar_spec(1.0, 2.0)  # overdamped: real generator eigenvalues +/- i mu
        ext, eig = prepare(spec)
        beta = 2.0 * np.pi / np.abs(eig.values).max()
        with pytest.raises(ThermalSingularity):
            thermal_correlation(ext, beta, 1.0, [0.5], 1e-3)


class TestBohr:
    def coupling(self, ext, a_ops, h_sys):
        return SystemCoupling(h_system=h_sys, site_potentials=a_ops, medium=ext)

    def test_two_level_ladder(self):
        spec = stable_spec(seed=431, n=1)
        ext, _ = prepare(spec)
        w0 = 1.3
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cpl = self.coupling(ext, (sx,), np.diag([0.0, w0]).astype(complex))
        bohr = bohr_decompose(cpl)
        assert set(np.round(bohr.frequencies, 10)) == {w0, -w0}
        lowering = bohr.ops[[f for f in bohr.frequencies if f > 0][0]][0]
        assert_allclose(lowering, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_completeness(self):
        spec = stable_spec(seed=432, n=2)
        ext, _ = prepare(spec)
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        a_ops = []
        for _ in range(2):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a_ops.append(a + a.conj().T)
        cpl = self.coupling(ext, tuple(a_ops), h.astype(complex))
        bohr = bohr_decompose(cpl)
        for alpha in range(2):
            total = sum(bohr.ops[f][alpha] for f in bohr.frequencies)
            assert np.abs(total - a_ops[alpha]).max() < 1e-12

    def test_degenerate_system(self):
        spec = stable_spec(seed=433, n=1)
        ext, _ = prepare(spec)
        a = np.array([[0.0, 2.0], [2.0, 1.0]], dtype=complex)
        cpl = self.coupling(ext, (a,), np.zeros((2, 2), dtype=complex))
        bohr = bohr_decompose(cpl)
        assert bohr.frequencies == (0.0,)
        assert_allclose(bohr.ops[0.0][0], a, atol=1e-12)

    def test_conjugate_pairing(self):
        spec = stable_spec(seed=434, n=1)
        ext, _ = prepare(spec)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cpl = self.coupling(ext, (sx,), np.diag([0.0, 0.9]).astype(complex))
        bohr = bohr_decompose(cpl)
        pos = [f for f in bohr.frequencies if f > 0][0]
        neg = [f for f in bohr.frequencies if f < 0][0]
        assert_allclose(bohr.ops[pos][0], bohr.ops[neg][0].conj().T, atol=1e-12)


class TestMasterEquation:
    def setup_problem(self, seed=441):
        spec = stable_spec(seed=seed, n=2)
        ext, _ = prepare(spec)
        w0 = 0.9
        h_sys = np.diag([0.0, w0]).astype(complex)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        cpl = SystemCoupling(h_system=h_sys, site_potentials=(sx, 0.5 * sz), medium=ext)
        grid = np.linspace(-1.5, 1.5, 61)
        corr = thermal_correlation(ext, beta=1.0, hbar=1.0, omega_grid=grid, eta=1e-3)
        return cpl, corr

    def random_density(self, rng, d=2):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = m @ m.conj().T
        return rho / np.trace(rho)

    def test_trace_free_dissipator(self):
        cpl, corr = self.setup_problem()
        rng = np.random.default_rng(10)
        for _ in range(20):
            rho = self.random_density(rng)
            d = dissipator(cpl, corr, rho)
            assert abs(np.trace(d)) < 1e-12 * max(1.0, np.abs(d).max())

    def test_hermiticity_preserved(self):
        cpl, corr = self.setup_problem()
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = self.random_density(rng)
            d = dissipator(cpl, corr, rho)
            assert np.abs(d - d.conj().T).max() < 1e-12 * max(1.0, np.abs(d).max())

    def test_zero_coupling(self):
        spec = stable_spec(seed=442, n=2)
        ext, _ = prepare(spec)
        cpl = SystemCoupling(
            h_system=np.diag([0.0, 1.0]).astype(complex),
            site_potentials=(np.zeros((2, 2), complex), np.zeros((2, 2), complex)),
            medium=ext,
        )
        corr = thermal_correlation(ext, 1.0, 1.0, np.linspace(-1.5, 1.5, 31), 1e-3)
        rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        out = assemble_master_equation(cpl, corr, rho)
        assert np.abs(out).max() < 1e-15

    def test_lamb_shift_commutes_with_system(self):
        cpl, corr = self.setup_problem()
        h_ls = lamb_shift(cpl, corr)
        comm = cpl.h_system @ h_ls - h_ls @ cpl.h_system
        assert np.abs(comm).max() < 1e-10 * max(1.0, np.abs(h_ls).max())
        assert np.abs(h_ls - h_ls.conj().T).max() < 1e-12 * max(1.0, np.abs(h_ls).max())

    def test_missing_frequency_reported(self):
        cpl, corr = self.setup_problem()
        narrow = thermal_correlation(cpl.medium, 1.0, 1.0, np.linspace(0.0, 0.5, 11), 1e-3)
        with pytest.raises(FrequencyNotCovered):
            assemble_master_equation(cpl, narrow, np.eye(2, dtype=complex) / 2)


def random_coupling(d, n, seed, degenerate):
    """A d-level system with n Hermitian site operators on a random stable medium.

    Degenerate systems draw their levels from {0, 1, 2}, so Bohr
    frequencies repeat exactly; the rest draw them from a normal law.
    """
    rng = np.random.default_rng(seed)
    ext, _ = prepare(stable_spec(seed=seed, n=n))
    levels = rng.integers(0, 3, d).astype(float) if degenerate else rng.standard_normal(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    h = (q * levels) @ q.conj().T
    sites = []
    for _ in range(n):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sites.append(a + a.conj().T)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    cpl = SystemCoupling(h_system=(h + h.conj().T) / 2, site_potentials=tuple(sites), medium=ext)
    return cpl, rho / np.trace(rho)


def full_tensor_master_terms(cpl, corr, rho):
    """(Lamb shift, dissipator on rho), with gamma and S interpolated from
    their full F x 2n x 2n tensors at every Bohr frequency."""
    grid, gamma, s_ls = corr.omega_grid, corr.gamma, corr.s_ls
    bohr = bohr_decompose(cpl)
    h_ls = np.zeros((cpl.dim, cpl.dim), complex)
    dis = np.zeros_like(rho)
    for w in bohr.frequencies:
        ops = coupling_operators(cpl, bohr, w)
        x = w / cpl.hbar
        hi = min(max(int(np.searchsorted(grid, x, side="right")), 1), grid.size - 1)
        f = (x - grid[hi - 1]) / (grid[hi] - grid[hi - 1])
        ops_dag = ops.conj().transpose(0, 2, 1)
        k_s = np.tensordot((1.0 - f) * s_ls[hi - 1] + f * s_ls[hi], ops_dag, axes=(0, 0))
        k_g = np.tensordot((1.0 - f) * gamma[hi - 1] + f * gamma[hi], ops_dag, axes=(0, 0))
        h_ls += (k_s @ ops).sum(axis=0)
        k_ops = (k_g @ ops).sum(axis=0)
        dis += (ops @ rho @ k_g).sum(axis=0) - 0.5 * (k_ops @ rho + rho @ k_ops)
    return h_ls / cpl.hbar, dis / cpl.hbar**2


class TestMasterEquationValues:
    @pytest.mark.parametrize("gap, on_grid", [(0.5, True), (0.6, False)])
    def test_block_interpolation_equals_full_tensor_interpolation(self, gap, on_grid):
        # Bohr frequencies -gap, 0 and gap; 0.5 lies on the grid, 0.6 between points
        cpl, rho = random_coupling(2, 2, 17, False)
        cpl = SystemCoupling(
            h_system=np.diag([0.0, gap]), site_potentials=cpl.site_potentials, medium=cpl.medium
        )
        grid = 0.25 * np.arange(-5, 6)
        corr = thermal_correlation(cpl.medium, 1.0, 1.0, grid, 1e-3)
        bohr = bohr_decompose(cpl)
        assert gap in bohr.frequencies
        assert (gap in grid) == on_grid
        h_ls, dis = full_tensor_master_terms(cpl, corr, rho)
        assert lamb_shift(cpl, corr, bohr).tobytes() == h_ls.tobytes()
        assert dissipator(cpl, corr, rho, bohr).tobytes() == dis.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 5),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        degenerate=st.booleans(),
    )
    def test_channel_contraction_matches_double_sum(self, d, n, seed, degenerate):
        cpl, rho = random_coupling(d, n, seed, degenerate)
        span = np.ptp(np.linalg.eigvalsh(cpl.h_system)) + 0.5
        corr = thermal_correlation(cpl.medium, 1.0, 1.0, np.linspace(-span, span, 21), 1e-3)
        bohr = bohr_decompose(cpl)
        # the explicit sum over channel pairs (a, b) at every Bohr frequency
        h_ls = np.zeros((d, d), complex)
        dis = np.zeros((d, d), complex)
        scale_ls = scale_dis = 0.0
        for w in bohr.frequencies:
            ops = coupling_operators(cpl, bohr, w)
            g_mat = _interp_tensor(corr.omega_grid, corr.gamma.__getitem__, w)
            s_mat = _interp_tensor(corr.omega_grid, corr.s_ls.__getitem__, w)
            for a in range(len(ops)):
                oa_dag = ops[a].conj().T
                for b in range(len(ops)):
                    ob = ops[b]
                    h_ls += s_mat[a, b] * (oa_dag @ ob)
                    anticomm = oa_dag @ ob @ rho + rho @ oa_dag @ ob
                    dis += g_mat[a, b] * (ob @ rho @ oa_dag - 0.5 * anticomm)
                    norms = np.linalg.norm(ops[a], 2) * np.linalg.norm(ob, 2)
                    scale_ls += abs(s_mat[a, b]) * norms
                    scale_dis += abs(g_mat[a, b]) * norms
        assert np.abs(lamb_shift(cpl, corr, bohr) - h_ls).max() <= 1e-12 * scale_ls
        assert np.abs(dissipator(cpl, corr, rho, bohr) - dis).max() <= 1e-12 * scale_dis

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        degenerate=st.booleans(),
    )
    def test_pieces_are_eigenoperators_that_sum_to_the_operator(self, d, n, seed, degenerate):
        cpl, _ = random_coupling(d, n, seed, degenerate)
        h = cpl.h_system
        bohr = bohr_decompose(cpl)
        for alpha, a_op in enumerate(cpl.site_potentials):
            scale = np.linalg.norm(a_op, 2) * max(1.0, np.linalg.norm(h, 2))
            for w in bohr.frequencies:
                piece = bohr.ops[w][alpha]
                assert np.abs(h @ piece - piece @ h + w * piece).max() <= 1e-9 * scale
            total = sum(bohr.ops[w][alpha] for w in bohr.frequencies)
            assert np.abs(total - a_op).max() <= 1e-12 * np.linalg.norm(a_op, 2)
