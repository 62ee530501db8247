import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    fock_ladder, generator_function, scalar_spec, small_drude_disk, stable_spec
)
from qpmedia import builders, openquantum
from qpmedia.errors import ThermalSingularity
from qpmedia.medium import simple_spec
from qpmedia.openquantum import (
    SystemCoupling,
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
from qpmedia.spectral import _resolvent_x, build_sqrt_kappa, prepare, symplectic_form


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
        # the n=7 Drude disk: its conserved-charge mode is a zero mode of
        # sqrt_kappa, which both routes refuse by the one thermal rule
        ext, _ = prepare(small_drude_disk())
        with pytest.raises(ThermalSingularity, match="zero mode .* has no thermal state"):
            classical_correlation(ext, 1.0, [0.05], 1e-3)
        with pytest.raises(ThermalSingularity, match="zero mode .* has no thermal state"):
            thermal_correlation(ext, 1.0, 1.0, [0.05], 1e-3)

    @pytest.mark.parametrize("medium", ["disk", "below", "above"])
    def test_classical_and_thermal_refuse_the_same_media(self, medium):
        # min|mu|^2 / max|mu|^2 just below and just above 1e-12, from an
        # undamped K = diag(sqrt(r), 1 / sqrt(r)) (cond(V) about 1e3)
        if medium == "disk":
            spec, refused = small_drude_disk(), True
        else:
            r = 1e-12 * (1.0 - 1e-3 if medium == "below" else 1.0 + 1e-3)
            spec = simple_spec(np.diag([r**0.5, r**-0.5]), np.zeros((2, 2)))
            refused = medium == "below"
        ext, eig = prepare(spec)
        if medium != "disk":
            size = np.abs(eig.values)
            assert (size.min() ** 2 / size.max() ** 2 < 1e-12) == refused
        outcomes = []
        for route in (
            lambda: classical_correlation(ext, 1.0, [0.5], 1e-3),
            lambda: thermal_correlation(ext, 1.0, 1.0, [0.5], 1e-3),
        ):
            try:
                route()
                outcomes.append(None)
            except ThermalSingularity as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is not None) == refused

    @pytest.mark.parametrize("n", [40, 64])
    def test_classical_well_conditioned_keeps_its_bits(self, n):
        # the thermal sweep on the hbar -> 0 columns [0; V diag(mu^-2) V^T],
        # bit for bit, and within 1e-13 of the kappa-inverse construction
        # (z / beta) kappa^{-1} y_x that it replaced
        ext, eig = prepare(builders.build_synthetic(n, 1))
        beta, eta, grid = 1.3, 1e-3, np.array([0.2, 0.9, 1.7])
        V = eig.right_vectors
        q = (V / eig.values**2) @ V.T
        want = _x_sweep(ext, grid, eta, np.concatenate([np.zeros_like(q), q]), 1j / beta)
        got = classical_correlation(ext, beta, grid, eta)
        for name in ("xi", "gamma", "s_ls"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        kappa_inv = np.linalg.inv(ext.kappa)
        y_x = _x_sweep(ext, grid, eta, symplectic_form(2 * n)[:, 2 * n:], 1.0).xi
        old = np.array([(z / beta) * (kappa_inv @ y) for z, y in zip(grid + 1j * eta, y_x)])
        assert np.linalg.norm(got.xi - old) <= 1e-13 * np.linalg.norm(old)

    def test_classical_route_takes_no_dense_inverse(self, monkeypatch):
        ext, _ = prepare(builders.build_synthetic(8, 1))  # eig and A, as every route reads them

        def refuse(*args, **kwargs):
            raise AssertionError("classical_correlation called a dense cond or inverse")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        got = classical_correlation(ext, 1.3, [0.2, 0.9], 1e-3)
        assert np.all(np.isfinite(got.xi))

    def test_classical_route_forms_no_pi_product(self):
        # the pi block of [0; q] is zero, so the sweep reads no A; Xi equals,
        # bit for bit, the sweep that forms i A 0 and adds it
        ext = build_sqrt_kappa(builders.build_synthetic(12, 1))
        beta, eta, grid = 1.3, 1e-3, np.array([0.2, 0.9, 1.7])
        got = classical_correlation(ext, beta, grid, eta)
        assert "sim_A" not in vars(ext)
        V = ext.eig.right_vectors
        q = (V / ext.eig.values**2) @ V.T
        pi_term = 1j * (ext.sim_A @ np.zeros_like(q))
        want = [(1j / beta) * _resolvent_x(ext, z, pi_term + z * q) for z in grid + 1j * eta]
        assert got.xi.tobytes() == np.array(want).tobytes()

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
        return SystemCoupling(h_system=h_sys, site_potentials=(sx, 0.5 * sz), medium=ext)

    def random_density(self, rng, d=2):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = m @ m.conj().T
        return rho / np.trace(rho)

    def test_trace_free_dissipator(self):
        cpl = self.setup_problem()
        rng = np.random.default_rng(10)
        for _ in range(20):
            rho = self.random_density(rng)
            d = dissipator(cpl, 1.0, 1e-3, rho)
            assert abs(np.trace(d)) < 1e-12 * max(1.0, np.abs(d).max())

    def test_hermiticity_preserved(self):
        cpl = self.setup_problem()
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = self.random_density(rng)
            d = dissipator(cpl, 1.0, 1e-3, rho)
            assert np.abs(d - d.conj().T).max() < 1e-12 * max(1.0, np.abs(d).max())

    def test_zero_coupling(self):
        spec = stable_spec(seed=442, n=2)
        ext, _ = prepare(spec)
        cpl = SystemCoupling(
            h_system=np.diag([0.0, 1.0]).astype(complex),
            site_potentials=(np.zeros((2, 2), complex), np.zeros((2, 2), complex)),
            medium=ext,
        )
        rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        out = assemble_master_equation(cpl, 1.0, 1e-3, rho)
        assert np.abs(out).max() < 1e-15

    def test_lamb_shift_commutes_with_system(self):
        cpl = self.setup_problem()
        h_ls = lamb_shift(cpl, 1.0, 1e-3)
        comm = cpl.h_system @ h_ls - h_ls @ cpl.h_system
        assert np.abs(comm).max() < 1e-10 * max(1.0, np.abs(h_ls).max())
        assert np.abs(h_ls - h_ls.conj().T).max() < 1e-12 * max(1.0, np.abs(h_ls).max())

    def test_one_thermal_sweep_per_call(self, monkeypatch):
        # the Lamb shift and the dissipator share one sweep over the Bohr frequencies
        cpl = self.setup_problem()
        grids, x_sweep = [], openquantum._x_sweep

        def spy(ext, omega_grid, *args):
            grids.append(np.array(omega_grid))
            return x_sweep(ext, omega_grid, *args)

        monkeypatch.setattr(openquantum, "_x_sweep", spy)
        assemble_master_equation(cpl, 1.0, 1e-3, np.eye(2, dtype=complex) / 2)
        assert len(grids) == 1
        assert_allclose(grids[0], [-0.9, 0.0, 0.9], rtol=0, atol=1e-15)


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
    their full F x 2n x 2n tensors at every Bohr frequency: the grid oracle
    of the master equation, which reads them at the Bohr frequencies."""
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


def two_level_coupling(gap, hbar=1.0):
    """random_coupling's sites on the system diag(0, gap): Bohr frequencies -gap, 0 and gap."""
    cpl, rho = random_coupling(2, 2, 17, False)
    cpl = SystemCoupling(
        h_system=np.diag([0.0, gap]), site_potentials=cpl.site_potentials, medium=cpl.medium,
        hbar=hbar,
    )
    return cpl, rho


class TestMasterEquationValues:
    def test_block_interpolation_equals_full_tensor_interpolation(self):
        # every Bohr frequency a node of the oracle's grid: the interpolation
        # is exact there, and the two routes agree bit for bit
        cpl, rho = two_level_coupling(0.5)
        grid = 0.25 * np.arange(-5, 6)
        assert set(bohr_decompose(cpl).frequencies) <= set(grid)
        h_ls, dis = full_tensor_master_terms(cpl, thermal_correlation(cpl.medium, 1.0, 1.0, grid, 1e-3), rho)
        assert lamb_shift(cpl, 1.0, 1e-3).tobytes() == h_ls.tobytes()
        assert dissipator(cpl, 1.0, 1e-3, rho).tobytes() == dis.tobytes()

    def test_grid_oracle_converges_to_the_bohr_frequency_answer(self):
        # off the grid, linear interpolation misses by O(h^2): the oracle's
        # error falls about 100x when its step h falls 10x.  Each Bohr
        # frequency w has its own two nodes, w - 0.3 h and w + 0.7 h
        cpl, rho = two_level_coupling(0.6)
        exact = (lamb_shift(cpl, 1.0, 1e-3), dissipator(cpl, 1.0, 1e-3, rho))
        freqs = np.array(bohr_decompose(cpl).frequencies)
        errors = []
        for h in (1e-2, 1e-3):
            grid = np.sort(np.concatenate([freqs - 0.3 * h, freqs + 0.7 * h]))
            terms = full_tensor_master_terms(cpl, thermal_correlation(cpl.medium, 1.0, 1.0, grid, 1e-3), rho)
            errors.append(max(
                np.abs(got - want).max() / np.abs(want).max() for got, want in zip(terms, exact)
            ))
        assert 50 <= errors[0] / errors[1] <= 200
        assert errors[1] <= 1e-6

    def test_hbar_comes_from_the_coupling(self):
        # hbar = 0.7 scales the sweep and its frequencies w / hbar; on the grid
        # of the Bohr frequencies themselves the oracle is the index lookup
        cpl, rho = two_level_coupling(0.6, hbar=0.7)
        freqs = np.array(bohr_decompose(cpl).frequencies)
        corr = thermal_correlation(cpl.medium, 1.3, 0.7, freqs / 0.7, 1e-3)
        h_ls, dis = full_tensor_master_terms(cpl, corr, rho)
        assert lamb_shift(cpl, 1.3, 1e-3).tobytes() == h_ls.tobytes()
        assert dissipator(cpl, 1.3, 1e-3, rho).tobytes() == dis.tobytes()
        comm = h_ls @ rho - rho @ h_ls
        master = assemble_master_equation(cpl, 1.3, 1e-3, rho)
        assert master.tobytes() == (-1j / 0.7 * comm + dis).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 5),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        degenerate=st.booleans(),
    )
    def test_channel_contraction_matches_double_sum(self, d, n, seed, degenerate):
        cpl, rho = random_coupling(d, n, seed, degenerate)
        bohr = bohr_decompose(cpl)
        corr = thermal_correlation(cpl.medium, 1.0, 1.0, np.array(bohr.frequencies), 1e-3)
        # the explicit sum over channel pairs (a, b) at every Bohr frequency
        h_ls = np.zeros((d, d), complex)
        dis = np.zeros((d, d), complex)
        scale_ls = scale_dis = 0.0
        for k, w in enumerate(bohr.frequencies):
            ops = coupling_operators(cpl, bohr, w)
            g_mat, s_mat = corr.gamma[k], corr.s_ls[k]
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
        assert np.abs(lamb_shift(cpl, 1.0, 1e-3) - h_ls).max() <= 1e-12 * scale_ls
        assert np.abs(dissipator(cpl, 1.0, 1e-3, rho) - dis).max() <= 1e-12 * scale_dis

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


class TestMasterEquationInputs:
    SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    @classmethod
    def coupling(cls):
        # a two-level system on the three sources of a synthetic medium
        ext, _ = prepare(builders.build_synthetic(3, 5))
        sites = tuple(0.1 * (k + 1) * cls.SIGMA_X for k in range(3))
        return SystemCoupling(h_system=np.diag([0.0, 0.7]), site_potentials=sites, medium=ext)

    def test_one_operator_too_few_is_refused(self):
        cpl = self.coupling()
        with pytest.raises(ValueError, match="one \\(2, 2\\) operator per medium source \\(3\\)"):
            SystemCoupling(cpl.h_system, cpl.site_potentials[:2], cpl.medium)

    def test_wrongly_sized_operator_is_refused(self):
        cpl = self.coupling()
        sites = (*cpl.site_potentials[:2], np.eye(3))
        with pytest.raises(ValueError, match="got shapes \\[\\(2, 2\\), \\(2, 2\\), \\(3, 3\\)\\]"):
            SystemCoupling(cpl.h_system, sites, cpl.medium)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2)])
    def test_non_square_hamiltonian_is_refused(self, shape):
        # checked before the Hermiticity test, whose transpose would not broadcast
        ext, _ = prepare(builders.build_synthetic(1, 5))
        match = re.escape(f"h_system must be a square matrix; got shape {shape}")
        with pytest.raises(ValueError, match=match):
            SystemCoupling(np.zeros(shape), (np.zeros(shape),), ext)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.inf, np.nan])
    def test_ill_posed_hbar_is_refused(self, hbar):
        cpl = self.coupling()
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            SystemCoupling(cpl.h_system, cpl.site_potentials, cpl.medium, hbar=hbar)

    def test_non_hermitian_site_operator_is_refused(self):
        cpl = self.coupling()
        sites = (*cpl.site_potentials[:2], np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="site_potentials must be Hermitian; not at sources \\[2\\]"):
            SystemCoupling(cpl.h_system, sites, cpl.medium)
