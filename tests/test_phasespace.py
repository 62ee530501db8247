import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import complex_spec, generator_function, scalar_spec, small_drude_disk, stable_spec
from qpmedia import phasespace
from qpmedia.builders import build_synthetic
from qpmedia.errors import ResonantFrequency, ThermalSingularity
from qpmedia.medium import (
    KickDrive,
    MonochromaticDrive,
    TabulatedDrive,
    consistent_extended_ic,
    drive_value,
    simple_spec,
)
from qpmedia.openquantum import correlation_time, thermal_correlation
from qpmedia.oracles import integrate_reference_extended, integrate_reference_second_order
from qpmedia.phasespace import (
    GaussianState,
    _drive_vector,
    _has_zero_mode,
    _lambda_at,
    consistent_mean,
    decompose_generator,
    evolve_state,
    mean_in_frequency,
    propagate_mean,
    propagator_at,
    symplectic_inverse,
    thermal_state,
)
from qpmedia.spectral import build_sqrt_kappa, prepare, symplectic_form


def sym_spec(seed, n):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n))
    K = K @ K.T + (n + 1.0) * np.eye(n)
    return simple_spec(K, np.zeros((n, n)))


class TestPropagator:
    def test_identity_at_zero(self, damped_scalar):
        ext, _ = prepare(damped_scalar)
        prop = propagator_at(ext, 0.0)
        assert_allclose(prop.lambda_t, np.eye(4), atol=1e-14)
        assert np.all(prop.delta_t == 0.0)

    def test_harmonic_period(self, undamped_scalar):
        ext, _ = prepare(undamped_scalar)
        prop = propagator_at(ext, 2.0 * np.pi)
        assert np.abs(prop.lambda_t - np.eye(4)).max() < 1e-9

    def test_symplectic_identity_random_times(self):
        spec = stable_spec(seed=71, n=3)
        ext, _ = prepare(spec)
        J = symplectic_form(6)
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.0, 10.0, size=10):
            prop = propagator_at(ext, t)
            lam = prop.lambda_t
            assert np.linalg.norm(lam @ J @ lam.T - J) < 1e-10
            assert np.linalg.norm(np.linalg.inv(lam) - symplectic_inverse(lam)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_symplectic_inverse_is_signed_block_transpose(self, N, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((2 * N, 2 * N)) + 1j * rng.standard_normal((2 * N, 2 * N))
        J = symplectic_form(N)
        assert np.array_equal(symplectic_inverse(M), J @ M.T @ J.T)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**16), t=st.floats(-1.0, 1.0))
    def test_symplectic_inverse_of_propagator(self, n, seed, t):
        ext, _ = prepare(stable_spec(seed=seed, n=n))
        lam = propagator_at(ext, t).lambda_t
        assert np.linalg.norm(symplectic_inverse(lam) @ lam - np.eye(4 * n)) < 1e-12

    def test_semigroup(self):
        spec = stable_spec(seed=72, n=2)
        ext, _ = prepare(spec)
        a = propagator_at(ext, 1.3).lambda_t
        b = propagator_at(ext, 0.9).lambda_t
        ab = propagator_at(ext, 2.2).lambda_t
        assert np.abs(a @ b - ab).max() < 1e-9


    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        omega0=st.one_of(st.none(), st.floats(0.1, 3.0)),
        stride=st.integers(1, 6),
    )
    def test_driven_delta_matches_mean_sweep(self, n, seed, omega0, stride):
        # Lambda_t^{-1} (q0 - Delta_t) from one propagator is the driven mean
        # that propagate_mean carries forward interval by interval
        spec = stable_spec(seed=seed, n=n)
        ext, _ = prepare(spec)
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal(n)
        drive = KickDrive(amp) if omega0 is None else MonochromaticDrive(amp, omega0)
        q0 = rng.standard_normal(4 * n).astype(complex)
        t_grid = stride * 0.01 * np.arange(4)
        means = propagate_mean(ext, drive, q0, t_grid)
        for t, row in zip(t_grid, means):
            prop = propagator_at(ext, t, drive=drive)
            assert t == 0.0 or np.abs(prop.delta_t).max() > 0.0
            got = symplectic_inverse(prop.lambda_t) @ (q0 - prop.delta_t)
            assert_allclose(got, row, rtol=1e-11, atol=1e-12 * np.abs(row).max())

    @pytest.mark.parametrize("omega0", [None, 1.7])
    def test_grid_in_any_order_matches_per_sample_propagator(self, omega0):
        # Delta is carried backward as well as forward between samples
        spec = build_synthetic(3, 1)
        ext, _ = prepare(spec)
        amp = np.ones(3)
        drive = KickDrive(amp) if omega0 is None else MonochromaticDrive(amp, omega0)
        q0 = np.random.default_rng(3).standard_normal(12).astype(complex)
        t_grid = [0.0, 0.2, 0.1, -0.1]
        means = propagate_mean(ext, drive, q0, t_grid)
        for t, row in zip(t_grid, means):
            prop = propagator_at(ext, t, drive=drive)
            want = symplectic_inverse(prop.lambda_t) @ (q0 - prop.delta_t)
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("drive", [None, KickDrive(np.ones(3))])
    def test_empty_grid_gives_empty_trajectory(self, drive):
        ext, _ = prepare(build_synthetic(3, 1))
        means = propagate_mean(ext, drive, np.ones(12), [])
        assert means.shape == (0, 12) and means.dtype == complex

    @pytest.mark.parametrize(
        "q0,drive,t_grid,message",
        [
            (np.ones(11), None, [0.0, 0.1], "initial mean q0 must have length 12"),
            (np.ones((12, 1)), None, [0.0, 0.1], "initial mean q0 must have length 12"),
            (np.ones(12), KickDrive(np.ones(4)), [0.0, 0.1], "drive must have length 3"),
            (np.ones(12), MonochromaticDrive(np.ones(2), 1.0), [0.0, 0.1],
             "drive must have length 3"),
            (np.ones(12), TabulatedDrive([0.0, 1.0], np.ones((2, 4)), np.zeros((2, 4))),
             [0.0, 0.1], "drive must have length 3"),
            (np.ones(12), None, 0.5, "time grid must be one-dimensional"),
            (np.ones(12), None, [[0.0, 0.1]], "time grid must be one-dimensional"),
        ],
        ids=["q0-short", "q0-column", "kick", "monochromatic", "tabulated", "t-scalar", "t-2d"],
    )
    def test_bad_input_is_named(self, q0, drive, t_grid, message):
        ext, _ = prepare(build_synthetic(3, 1))
        with pytest.raises(ValueError, match=message):
            propagate_mean(ext, drive, q0, t_grid)

    @pytest.mark.parametrize(
        "u0,v0,drive,message",
        [
            (np.ones(4), np.zeros(3), None, "u0 must have length 3"),
            (np.ones((3, 1)), np.zeros(3), None, "u0 must have length 3"),
            (np.ones(3), np.zeros(6), None, "v0 must have length 3"),
            (np.ones(3), np.zeros(3), KickDrive(np.ones(4)), "drive must have length 3"),
            (np.ones(3), np.zeros(3), MonochromaticDrive(np.ones(2), 1.0),
             "drive must have length 3"),
        ],
        ids=["u0-long", "u0-column", "v0-long", "kick", "monochromatic"],
    )
    def test_consistent_mean_names_bad_input(self, u0, v0, drive, message):
        # numpy's matmul error, or a 4n + 2 mean for a 5-long x0 on n = 3, came before
        ext = build_sqrt_kappa(build_synthetic(3, 1))
        with pytest.raises(ValueError, match=message):
            consistent_mean(ext, u0, v0, drive)
        # refused before any solve: neither the eigensystem nor A was built
        assert "eig" not in vars(ext) and "sim_A" not in vars(ext)


class TestPropagatorAction:
    """exp(J_B t) applied to a drive vector without forming the matrix."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["kick", "monochromatic", "tabulated"]),
        t=st.floats(-2.0, 2.0),
    )
    def test_action_equals_matrix_times_vector(self, n, seed, kind, t):
        ext, _ = prepare(stable_spec(seed=seed, n=n))
        jb_eig = decompose_generator(ext)
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if kind == "kick":
            drive = KickDrive(amp)
        elif kind == "monochromatic":
            drive = MonochromaticDrive(amp, rng.uniform(0.1, 3.0))
        else:
            times = np.linspace(-2.0, 2.0, 9)
            drive = TabulatedDrive(
                times, rng.standard_normal((9, n)), rng.standard_normal((9, n))
            )
        v = _drive_vector(ext, drive_value(drive, t))
        want = _lambda_at(jb_eig, t)[:, : 2 * n] @ v
        got = _lambda_at(jb_eig, t, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_quadrature_forms_one_matrix_per_grid_point(self, monkeypatch):
        spec = build_synthetic(40, 1)
        ext, _ = prepare(spec)
        forms = []
        original = phasespace._lambda_at

        def counted(eig, t, rhs=None):
            out = original(eig, t, rhs)
            if rhs is None:
                forms.append(out.shape[0])
            return out

        monkeypatch.setattr(phasespace, "_lambda_at", counted)
        t_grid = [0.0, 0.02, 0.04]
        q0 = np.zeros(160, dtype=complex)
        q0[80] = 1.0
        propagate_mean(ext, KickDrive(np.ones(40)), q0, t_grid)
        # 40 quadrature steps of three nodes act on vectors only
        assert forms == [160] * len(t_grid)


class TestEvolveState:
    def test_noop_at_zero(self, damped_scalar):
        ext, _ = prepare(damped_scalar)
        state = GaussianState(mean=np.array([0.1, 0.2, 0.3, 0.4]), cov=0.5 * np.eye(4))
        out = evolve_state(state, propagator_at(ext, 0.0))
        assert_allclose(out.mean, state.mean, atol=1e-14)
        assert_allclose(out.cov, state.cov, atol=1e-14)

    def test_zero_mean_stays_zero(self):
        spec = stable_spec(seed=73, n=2)
        ext, _ = prepare(spec)
        state = GaussianState(mean=np.zeros(8), cov=np.eye(8) / 2)
        out = evolve_state(state, propagator_at(ext, 2.7))
        assert np.abs(out.mean).max() == 0.0

    @pytest.mark.parametrize("seed", [81, 82])
    def test_ehrenfest_equivalence(self, seed):
        # mean dynamics must match the extended RK4 oracle
        spec = stable_spec(seed=seed, n=3)
        ext, _ = prepare(spec)
        rng = np.random.default_rng(seed)
        u0, v0 = rng.standard_normal(3), rng.standard_normal(3)
        drive = KickDrive(rng.standard_normal(3))
        x0, xdot0 = consistent_extended_ic(spec, u0, v0, drive)
        fine = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        oracle = integrate_reference_extended(spec, drive, x0, xdot0, fine)
        stride = 50
        t_grid = fine[::stride]
        q0 = consistent_mean(ext, u0, v0, drive)
        means = propagate_mean(ext, drive, q0, t_grid)
        assert np.abs(means[:, 6:] - oracle.x[::stride]).max() < 1e-6

    def test_drive_free_mean_matches_oracle(self):
        spec = stable_spec(seed=83, n=2)
        ext, _ = prepare(spec)
        rng = np.random.default_rng(83)
        u0, v0 = rng.standard_normal(2), rng.standard_normal(2)
        x0, xdot0 = consistent_extended_ic(spec, u0, v0)
        fine = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        oracle = integrate_reference_extended(spec, KickDrive(np.zeros(2)), x0, xdot0, fine)
        stride = 50
        means = propagate_mean(ext, None, consistent_mean(ext, u0, v0), fine[::stride])
        assert np.abs(means[:, 4:] - oracle.x[::stride]).max() < 1e-6

    def test_covariance_against_monte_carlo(self):
        # Hermitian limit: propagate an ensemble with the exact mean map
        spec = sym_spec(11, 2)
        ext, _ = prepare(spec)
        state = GaussianState(mean=np.zeros(8), cov=0.5 * np.eye(8))
        t = 1.7
        prop = propagator_at(ext, t)
        evolved = evolve_state(state, prop)
        rng = np.random.default_rng(1234)
        samples = rng.multivariate_normal(np.zeros(8), 0.5 * np.eye(8), size=10_000)
        lam_inv = symplectic_inverse(prop.lambda_t)
        mapped = samples @ lam_inv.T
        emp = (mapped.T @ mapped) / samples.shape[0]
        m = evolved.cov.real
        sigma = np.sqrt((np.outer(np.diag(m), np.diag(m)) + m**2) / samples.shape[0])
        assert np.all(np.abs(emp - m) <= 3.0 * sigma + 1e-12)

    def test_energy_conservation_hermitian(self):
        spec = sym_spec(12, 3)
        ext, _ = prepare(spec)
        B = np.zeros((12, 12), dtype=complex)
        B[:6, :6] = ext.sim_A
        B[6:, 6:] = np.linalg.solve(ext.sim_A, ext.kappa)
        rng = np.random.default_rng(7)
        q0 = rng.standard_normal(12).astype(complex)
        energies = []
        for t in np.linspace(0.0, 8.0, 17):
            q = symplectic_inverse(propagator_at(ext, t).lambda_t) @ q0
            energies.append(0.5 * q @ (B @ q))
        energies = np.array(energies)
        assert np.abs(energies - energies[0]).max() < 1e-8 * max(1.0, abs(energies[0]))


class TestThermal:
    def test_scalar_channel_coth(self, undamped_scalar):
        ext, _ = prepare(undamped_scalar)
        hbar, beta = 1.0, 2.0
        state = thermal_state(ext, beta, hbar)
        expected = hbar / 2.0 / np.tanh(hbar * beta / 2.0)
        # position-position channel of the physical oscillator
        assert_allclose(state.cov[2, 2].real, expected, rtol=1e-10)
        assert abs(state.cov[2, 2].imag) < 1e-12

    def test_zero_mean_and_symmetry(self):
        spec = stable_spec(seed=91, n=2)
        ext, _ = prepare(spec)
        state = thermal_state(ext, beta=1.3, hbar=0.7)
        assert np.all(state.mean == 0.0)
        assert np.abs(state.cov - state.cov.T).max() < 1e-12 * np.abs(state.cov).max()

    def test_singularity_detected(self):
        # overdamped scalar: purely imaginary mu makes the generator
        # eigenvalues +/- i mu real, so cot hits a pole at a matching beta
        spec = scalar_spec(1.0, 2.0)
        ext, eig = prepare(spec)
        beta = 2.0 * np.pi / np.abs(eig.values).max()
        with pytest.raises(ThermalSingularity):
            thermal_state(ext, beta, hbar=1.0)


def _overdamped_pole():
    """beta of the overdamped scalar's first coth pole, at hbar = 1."""
    mu = prepare(scalar_spec(1.0, 2.0))[1].values
    return 2.0 * np.pi / np.abs(mu).max()


THERMAL_MEDIA = {
    "stable-n3": lambda: build_synthetic(3, 1),
    "stable-n12": lambda: build_synthetic(12, 2),
    "stable-n40": lambda: build_synthetic(40, 1),
    "marginal-n6": lambda: build_synthetic(6, 1, stability="marginal"),
    "marginal-n20": lambda: build_synthetic(20, 3, stability="marginal"),
    "complex": complex_spec,
    "overdamped": lambda: scalar_spec(1.0, 2.0),
    "drude-disk": small_drude_disk,
}


def _generator_route_cov(ext, beta, hbar):
    """-(hbar / 2) cot(hbar beta J_B / 2) J^T on the J_B eigenmodes, or None where they refuse it."""

    def cot(lam):
        args = hbar * beta * lam / 2.0
        return np.cos(args) / np.sin(args)

    args = hbar * beta * np.linalg.eigvals(ext.gen_JB) / 2.0
    if np.any(np.abs(np.sin(args)) < 1e-12 * np.maximum(1.0, np.abs(np.cos(args)))):
        return None
    cot_JB = generator_function(ext, cot)
    return None if cot_JB is None else -(hbar / 2.0) * cot_JB @ symplectic_form(2 * ext.n).T


class TestThermalThroughKappa:
    """The cotangent on the sqrt_kappa eigensystem against the J_B one."""

    @pytest.mark.parametrize("medium", sorted(THERMAL_MEDIA))
    def test_matches_generator_route(self, medium):
        ext, _ = prepare(THERMAL_MEDIA[medium]())
        pairs = [(1.0, 1.0), (0.3, 2.0), (7.0, 0.5)]
        if medium == "overdamped":
            pairs.append((_overdamped_pole(), 1.0))
        decisions = []
        for beta, hbar in pairs:
            want = _generator_route_cov(ext, beta, hbar)
            try:
                got = thermal_state(ext, beta, hbar).cov
            except ThermalSingularity:
                got = None
            decisions.append(want is None)
            assert (got is None) == (want is None), (beta, hbar)
            if want is not None:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (beta, hbar)
        # the pole and the disk's charge mode are refused by both routes
        assert any(decisions) == (medium in ("overdamped", "drude-disk"))

    @pytest.mark.parametrize("beta", [1e3, 1e6])
    def test_cold_limit_is_finite(self, beta):
        # cos and sin of hbar beta J_B / 2 overflow past beta ~ 600 here; coth
        # has saturated to 1e-16 from beta ~ 25, where the J_B route is the oracle
        ext, _ = prepare(build_synthetic(8, 1))
        want = _generator_route_cov(ext, 125.0, 1.0)
        got = thermal_state(ext, beta, 1.0).cov
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.isfinite(thermal_correlation(ext, beta, 1.0, [0.5], 1e-3).xi).all()

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3, 1e6])
    def test_zero_mode_refused_at_every_beta(self, beta):
        # the n=7 disk's charge mode, mu = 3.3e-16i: a pole test alone would
        # pass it once hbar beta |mu| / 2 clears 1e-12
        ext, _ = prepare(small_drude_disk())
        assert np.abs(ext.eig.values).min() < 1e-15
        with pytest.raises(ThermalSingularity, match="zero mode"):
            thermal_state(ext, beta, 1.0)
        with pytest.raises(ThermalSingularity, match="zero mode"):
            thermal_correlation(ext, beta, 1.0, [0.05], 1e-3)


class TestExpmFallback:
    """A free damped source: its zero mode makes J_B defective, and exp(J_B t) stays exact.

    ``scipy.linalg.expm`` of the dense J_B and the RK4 integrators are the
    oracles.
    """

    def setup_method(self):
        self.ext, _ = prepare(simple_spec([[0.0]], [[0.1]]))

    def test_propagator_matches_expm(self):
        prop = propagator_at(self.ext, 0.7)
        # J_B holds rounding noise (4e-17) where exp(J_B t) through kappa has exact zeros
        want = scipy.linalg.expm(self.ext.gen_JB * 0.7)
        assert_allclose(prop.lambda_t, want, rtol=1e-13, atol=1e-15)

    def test_correlation_time_uses_expm(self):
        state = GaussianState(mean=np.arange(4.0), cov=0.5 * np.eye(4))
        xi0 = correlation_time(self.ext, state, 0.0)
        got = correlation_time(self.ext, state, 0.7)
        want = scipy.linalg.expm(-self.ext.gen_JB * 0.7) @ xi0
        assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def _mean_error(self, drive):
        spec = simple_spec([[0.0]], [[0.1]])
        x0, xdot0 = consistent_extended_ic(spec, [0.3], [-0.2], drive)
        fine = np.arange(0.0, 4.0 + 1e-12, 1e-3)
        oracle = integrate_reference_extended(spec, drive, x0, xdot0, fine)
        stride = 250
        q0 = consistent_mean(self.ext, [0.3], [-0.2], drive)
        means = propagate_mean(self.ext, drive, q0, fine[::stride])
        assert np.abs(means[-1, 2:]).max() > 0.1
        return np.abs(means[:, 2:] - oracle.x[::stride]).max()

    def test_kicked_mean_matches_oracle(self):
        # the zero mode puts a kick's Delta_t in closed form
        assert _has_zero_mode(decompose_generator(self.ext))
        assert self._mean_error(KickDrive([0.7])) < 1e-10

    def test_monochromatic_mean_matches_oracle(self):
        # the Delta_t quadrature applies exp(J_B s) through kappa at each node
        assert self._mean_error(MonochromaticDrive([0.7], 1.3)) < 1e-10

    def test_thermal_state_refused(self):
        with pytest.raises(ThermalSingularity, match="zero mode"):
            thermal_state(self.ext, beta=1.0, hbar=1.0)


class TestDefectiveDisk:
    """The 7-site Drude disk: exp(J_B t) through kappa against expm and RK4."""

    def setup_method(self):
        self.spec = small_drude_disk()
        self.ext, _ = prepare(self.spec)
        self.eig = decompose_generator(self.ext)

    @pytest.mark.parametrize("t", [0.7, 5.0, 50.0])
    def test_lambda_matches_expm(self, t):
        want = scipy.linalg.expm(self.ext.gen_JB * t)
        got = _lambda_at(self.eig, t)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # the vector form acts on [v; 0], as on a drive vector
        v = np.random.default_rng(7).standard_normal(2 * self.spec.n)
        got_v, want_v = _lambda_at(self.eig, t, v), want[:, : v.size] @ v
        assert np.abs(got_v - want_v).max() <= 1e-12 * np.abs(want_v).max()

    def test_kicked_mean_matches_second_order_oracle(self):
        n = self.spec.n
        assert _has_zero_mode(self.eig)
        drive = KickDrive(self.spec.coords[0])
        fine = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        oracle = integrate_reference_second_order(self.spec, drive, np.zeros(n), np.zeros(n), fine)
        q0 = consistent_mean(self.ext, np.zeros(n), np.zeros(n), drive)
        means = propagate_mean(self.ext, drive, q0, fine[::500])
        want = oracle.u[::500]
        assert np.abs(want).max() > 0.1
        assert np.abs(means[:, 2 * n : 3 * n] - want).max() <= 1e-10 * np.abs(want).max()


class TestTinyTimes:
    """exp(J_B t) and Delta_t stay finite and exact down to subnormal t.

    sin(mu t) / mu and its integral are entire; evaluated as quotients, a
    tiny complex mu t overflowed the division (a NaN Lambda_t at t = 1e-300).
    """

    MEDIA = {"drude-disk": small_drude_disk, "stable": lambda: stable_spec(seed=5, n=3)}

    @pytest.mark.parametrize("t", [5e-324, 2.2250738585e-313, -1e-310, 1e-300, 1e-200, 1e-8])
    @pytest.mark.parametrize("medium", sorted(MEDIA))
    def test_matches_expm(self, medium, t):
        spec = self.MEDIA[medium]()
        ext, eig = prepare(spec)
        want = scipy.linalg.expm(ext.gen_JB * t)
        prop = propagator_at(ext, t, drive=KickDrive(np.ones(spec.n)))
        assert np.abs(prop.lambda_t - want).max() <= 1e-12 * np.abs(want).max()
        assert np.isfinite(prop.delta_t).all()
        v = np.random.default_rng(9).standard_normal(2 * spec.n)
        got_v, want_v = _lambda_at(eig, t, v), want[:, : v.size] @ v
        assert np.abs(got_v - want_v).max() <= 1e-12 * np.abs(want_v).max()


class TestMeanInFrequency:
    def test_zero_drive(self, damped_scalar):
        ext, _ = prepare(damped_scalar)
        out = mean_in_frequency(ext, KickDrive(np.zeros(1)), [0.3, 0.9])
        assert np.abs(out).max() == 0.0

    def test_block_inversion_oracle(self, undamped_scalar):
        ext, _ = prepare(undamped_scalar)
        grid = np.array([0.4, 1.7, 2.6])
        out = mean_in_frequency(ext, KickDrive([1.0]), grid)
        for i, w in enumerate(grid):
            force = np.array([1.0, -1j * w], dtype=complex)
            x = np.linalg.solve(w**2 * np.eye(2) - ext.kappa, force)
            assert np.abs(out[i, 2:] - x).max() < 1e-9

    def test_resonance_raises_resonant_frequency(self):
        # K = 0 gives kappa an exactly zero column, so J_B has one and the
        # solve at omega = 0 is exactly singular
        ext, _ = prepare(simple_spec([[0.0]], [[0.5]]))
        with pytest.raises(ResonantFrequency):
            mean_in_frequency(ext, KickDrive([1.0]), [0.0])

    def test_linearity(self, damped_scalar):
        ext, _ = prepare(damped_scalar)
        grid = np.array([0.5, 1.5])
        one = mean_in_frequency(ext, KickDrive([1.0]), grid)
        two = mean_in_frequency(ext, KickDrive([2.0]), grid)
        assert_allclose(two, 2.0 * one, rtol=1e-13)


class TestGaussianState:
    def test_asymmetric_cov_rejected(self):
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError, match="asymmetry"):
            GaussianState(mean=np.zeros(4), cov=cov)

    def test_symmetrized_storage(self):
        cov = np.eye(2) + 1e-13 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        state = GaussianState(mean=np.zeros(2), cov=cov)
        assert np.array_equal(state.cov, state.cov.T)

    def test_vacuum_uncertainty_condition(self):
        # physical initialization: cov + (i hbar / 2) J^T is PSD
        hbar = 0.7
        state = GaussianState(mean=np.zeros(8), cov=(hbar / 2) * np.eye(8), hbar=hbar)
        J = symplectic_form(4)
        m = state.cov + 0.5j * hbar * J.T
        evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
        assert evals.min() > -1e-12
