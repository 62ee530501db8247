import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import seeded, stable_spec
from qpmedia.constants import SPEED_OF_LIGHT_AU
from qpmedia.errors import LightConeSingularity, SingularAuxiliary
from qpmedia.medium import MediumSpec, simple_spec
from qpmedia import builders, selfconsistent
from qpmedia.selfconsistent import (
    FieldPlaneWaveSet,
    PlaneWave,
    auxiliary_response,
    emitted_field_first_order,
    emitted_field_iterate,
    gaussian_ft,
    green_tensor,
    scattering_T,
)
from qpmedia.spectral import prepare


def charge_spec(coords, kernel, damping, widths=None):
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[1]
    cov = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    if widths is not None:
        cov = np.array([w * np.eye(3) for w in widths])
    return MediumSpec(
        coords=coords,
        covariances=cov,
        kernel=kernel,
        damping=damping,
        source_kind=("charge",) * n,
        gen_coord_vector=coords[2].copy(),
    )


class TestAuxiliaryResponse:
    def test_residual_of_first_order_relation(self):
        # gauge-independent check: g = L h solves the defining equation
        rng = np.random.default_rng(31)
        for seed in (301, 302, 303):
            spec = stable_spec(seed=seed, n=4)
            ext, _ = prepare(spec)
            A = ext.sim_A
            A1, A2, A3 = A[:4, :4], A[:4, 4:], A[4:, 4:]
            G = spec.damping
            for w in rng.uniform(0.1, 3.0, size=3):
                L = auxiliary_response(ext, w)
                h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                g = L @ h
                eye = np.eye(4)
                resid = (-1j * w * A2 - A3 - 2 * G @ A2) @ g - (
                    A2.T + 2 * G @ A1 + 1j * w * A1
                ) @ h
                scale = max(np.abs(h).max(), 1.0)
                assert np.abs(resid).max() < 1e-10 * scale

    def test_identity_gauge_gives_minus_i_omega(self):
        # with A = I (valid for a symmetric extended kernel) the auxiliary
        # signal is the time derivative of the direct one
        rng = np.random.default_rng(32)
        K = rng.standard_normal((3, 3))
        K = K @ K.T + 4 * np.eye(3)
        spec = simple_spec(K, np.zeros((3, 3)))
        ext, _ = prepare(spec)
        ext_idgauge = seeded(ext, sim_A=np.eye(6, dtype=complex))
        for w in (0.0, 0.7, 2.2):
            L = auxiliary_response(ext_idgauge, w)
            assert np.abs(L - (-1j * w) * np.eye(3)).max() < 1e-12

    def test_zero_frequency_identity_gauge(self):
        K = np.eye(2) * 3.0
        spec = simple_spec(K, np.zeros((2, 2)))
        ext, _ = prepare(spec)
        ext_idgauge = seeded(ext, sim_A=np.eye(4, dtype=complex))
        assert np.abs(auxiliary_response(ext_idgauge, 0.0)).max() < 1e-14


    def test_singular_response_raises(self):
        # K = 0, Gamma = 1/2: A3 + 2 Gamma A2 is exactly zero at omega = 0
        ext, _ = prepare(simple_spec([[0.0]], [[0.5]]))
        with pytest.raises(SingularAuxiliary):
            auxiliary_response(ext, 0.0)


class TestPlaneWaveValidation:
    @pytest.mark.parametrize("amplitude", [[1.0, 0.0], np.zeros((2, 4)), np.zeros((1, 1, 3))])
    def test_amplitude_shape(self, amplitude):
        with pytest.raises(ValueError, match="3-vector or an \\(m, 3\\) table"):
            PlaneWave(k=[0.0, 0.0, 0.1], amplitude=amplitude)

    def test_table_not_aligned_with_grid(self):
        wave = PlaneWave(k=[0.0, 0.0, 0.1], amplitude=np.ones((2, 3)))
        FieldPlaneWaveSet(omega_grid=[0.1, 0.2], waves=(wave,))
        with pytest.raises(ValueError, match="not aligned with the grid"):
            FieldPlaneWaveSet(omega_grid=[0.1, 0.2, 0.3], waves=(wave,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_k(self, bad):
        wave = PlaneWave(k=[0.0, bad, 0.1], amplitude=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="k vector must be finite"):
            FieldPlaneWaveSet(omega_grid=[0.1], waves=(wave,))


class TestGaussianFT:
    def test_zero_wavevector(self):
        assert gaussian_ft([0, 0, 0], [1.0, 2.0, 3.0], np.eye(3)) == 1.0

    def test_isotropic_width(self):
        k = np.array([0.3, -0.4, 1.2])
        sigma = 0.8
        val = gaussian_ft(k, [0, 0, 0], sigma**2 * np.eye(3))
        assert_allclose(val, np.exp(-(sigma**2) * (k @ k) / 2.0), rtol=1e-14)

    def test_point_source_phase(self):
        val = gaussian_ft([np.pi, 0, 0], [1.0, 0, 0], np.zeros((3, 3)))
        assert_allclose(val, -1.0, atol=1e-15)

    def test_reciprocity(self):
        rng = np.random.default_rng(5)
        k = rng.standard_normal(3)
        R = rng.standard_normal(3)
        S = rng.standard_normal((3, 3))
        S = S @ S.T
        assert_allclose(
            gaussian_ft(-k, R, S), np.conj(gaussian_ft(k, R, S)), rtol=1e-14
        )


class TestScatteringKernel:
    def test_zero_weights_zero_kernel(self):
        spec = charge_spec(np.zeros((3, 2)), np.eye(2) * 2.0, 0.1 * np.eye(2))
        ext, _ = prepare(spec)
        T = scattering_T(ext, k=[0.1, 0.2, 0.3], omega=0.9)
        assert np.abs(T).max() < 1e-15

    def test_brute_force_index_sum(self):
        # oracle: assemble the kernel entry by entry from the resolvent
        rng = np.random.default_rng(6)
        coords = rng.uniform(-1.0, 1.0, size=(3, 2))
        K = rng.standard_normal((2, 2)) * 0.2 + np.eye(2) * 3.0
        spec = charge_spec(coords, K, np.diag([0.2, 0.3]))
        ext, _ = prepare(spec)
        w = 0.8
        n, N = 2, 4
        resolvent = np.linalg.inv(w * np.eye(2 * N) + 1j * ext.gen_JB)
        L = auxiliary_response(ext, w)
        for k_vec in ([0.0, 0.0, 0.0], [0.4, -0.2, 0.9]):
            T = scattering_T(ext, k_vec, w)
            for alpha in range(n):
                for l in range(3):
                    acc = 0.0
                    for nu in range(N):
                        for betasrc in range(n):
                            factor = (1.0 if nu == betasrc else 0.0) + (
                                L[nu - n, betasrc] if nu >= n else 0.0
                            )
                            if factor == 0.0:
                                continue
                            acc += (
                                resolvent[N + alpha, nu]
                                * factor
                                * spec.coords[l, betasrc]
                                * gaussian_ft(
                                    k_vec,
                                    spec.coords[:, betasrc],
                                    spec.covariances[betasrc],
                                )
                            )
                    acc *= 1j / (2 * np.pi) ** 3
                    assert abs(T[alpha, l] - acc) < 1e-12 * max(1.0, abs(acc))

    def test_large_width_decay(self):
        spec = charge_spec(
            np.array([[0.5], [0.2], [1.0]]), np.eye(1) * 2.0, np.eye(1) * 0.2,
            widths=[50.0],
        )
        ext, _ = prepare(spec)
        T = scattering_T(ext, k=[1.0, 0.0, 0.0], omega=0.9)
        T0 = scattering_T(ext, k=[0.0, 0.0, 0.0], omega=0.9)
        assert np.abs(T).max() < 1e-9 * np.abs(T0).max()


class TestGreenTensor:
    def test_symmetry(self):
        g = green_tensor([0.2, -0.1, 0.4], 0.9)
        assert np.array_equal(g, g.T)

    def test_static_longitudinal_projector(self):
        k = np.array([0.3, 0.4, -0.2])
        g = green_tensor(k, 0.0)
        proj = 4.0 * np.pi * np.outer(k, k) / (k @ k)
        assert_allclose(g, proj, rtol=1e-12)

    def test_transverse_contraction_vanishes(self):
        k = np.array([0.0, 0.0, 1.0])
        amp = np.array([1.0, 2.0, 0.0])  # transverse to k
        g = green_tensor(k, 0.0)
        assert np.abs(g @ amp).max() < 1e-14

    def test_light_cone(self):
        k = np.array([1.0, 0.0, 0.0])
        with pytest.raises(LightConeSingularity):
            green_tensor(k, SPEED_OF_LIGHT_AU)

    def test_field_names_the_first_point_on_the_light_cone(self):
        spec = charge_spec(np.array([[0.2], [-0.1], [0.8]]), np.eye(1) * 2.0, np.eye(1) * 0.25)
        ext, _ = prepare(spec)
        c = SPEED_OF_LIGHT_AU
        waves = FieldPlaneWaveSet([0.5, c], (PlaneWave([0.05, 0.0, 0.0], [0.0, 1.0, 0.0]),))
        points = [[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(LightConeSingularity) as err:
            emitted_field_first_order(ext, waves, points)
        assert err.value.k == (0.0, 1.0, 0.0) and err.value.omega == c


class TestEmittedField:
    def make_medium(self):
        coords = np.array([[0.2], [-0.1], [0.8]])
        return charge_spec(coords, np.eye(1) * 2.0, np.eye(1) * 0.25)

    def test_zero_weights_no_scattering(self):
        spec = charge_spec(np.zeros((3, 1)), np.eye(1) * 2.0, np.eye(1) * 0.25)
        ext, _ = prepare(spec)
        grid = np.array([0.7, 0.9])
        waves = FieldPlaneWaveSet(
            omega_grid=grid,
            waves=(PlaneWave(k=[0.1, 0.0, 0.0], amplitude=[1.0, 0.0, 0.0]),),
        )
        scattered = emitted_field_first_order(ext, waves, [[0.1, 0, 0]])
        assert np.abs(scattered).max() < 1e-14

    def test_single_source_hand_assembly(self):
        # oracle: the scattered part is G . (R Gtil) (T A) for one source
        spec = self.make_medium()
        ext, _ = prepare(spec)
        grid = np.array([0.85])
        kp = np.array([0.2, 0.1, -0.3])
        amp = np.array([0.3, -1.2, 0.4])
        waves = FieldPlaneWaveSet(
            omega_grid=grid, waves=(PlaneWave(k=kp, amplitude=amp),)
        )
        kq = np.array([0.5, -0.2, 0.7])
        scattered = emitted_field_first_order(ext, waves, [kq])
        w = grid[0]
        T = scattering_T(ext, -kp, w)
        g = green_tensor(kq, w)
        gt = gaussian_ft(kq, spec.coords[:, 0], spec.covariances[0])
        manual = g @ (spec.coords[:, 0] * gt) * (T[0] @ amp)
        assert_allclose(scattered[0, 0], manual, rtol=1e-12)

    def test_drude_disk_matches_explicit_inverse(self):
        # the n=7 disk, whose zero mode makes J_B defective: the field against the
        # kernel assembled from the explicit 4n resolvent, per wave and point
        params = builders.DrudeParams(
            drude_factor=0.008, relaxation=0.004, gaussian_width=2.4,
            tunneling_enabled=True, tunneling_d0=6.0, tunneling_steepness=10.0,
        )
        spec = builders.build_drude_charge_model(builders.hexagonal_disk(4.0, 2.434), params)
        ext, _ = prepare(spec)
        assert spec.n == 7 and np.abs(ext.eig.values).min() < 1e-15
        grid = np.array([0.03, 0.05, 0.08])
        waves = FieldPlaneWaveSet(
            grid,
            (
                PlaneWave([0.05, 0.0, 0.01], [0.3, -1.2, 0.4]),
                PlaneWave([0.0, -0.03, 0.02], [1.0 + 0.5j, 0.0, -0.2j]),
            ),
        )
        k_points = np.array([[0.1, 0.0, 0.0], [0.02, -0.07, 0.05]])
        scattered = emitted_field_first_order(ext, waves, k_points)
        n, N = spec.n, 2 * spec.n

        def weighted(k):
            gt = [gaussian_ft(k, spec.coords[:, b], spec.covariances[b]) for b in range(n)]
            return spec.coords * np.array(gt)[None, :]

        for iw, w in enumerate(grid):
            rows = np.linalg.inv(w * np.eye(2 * N) + 1j * ext.gen_JB)[N : N + n]
            coupling = rows[:, :n] + rows[:, n:N] @ auxiliary_response(ext, w)
            for i, kq in enumerate(k_points):
                want = np.zeros(3, dtype=complex)
                for wave in waves.waves:
                    T = (1j / (2 * np.pi) ** 3) * coupling @ weighted(-wave.k).T
                    want += green_tensor(kq, w) @ weighted(kq) @ (T @ wave.amplitude[0])
                assert_allclose(scattered[iw, i], want, rtol=1e-12, atol=0)

    def test_linearity_in_amplitude(self):
        spec = self.make_medium()
        ext, _ = prepare(spec)
        grid = np.array([0.9])
        kp = np.array([0.05, 0.0, 0.0])
        one = FieldPlaneWaveSet(grid, (PlaneWave(kp, [1.0, 0.0, 0.0]),))
        two = FieldPlaneWaveSet(grid, (PlaneWave(kp, [2.0, 0.0, 0.0]),))
        kq = [[0.3, 0.1, 0.0]]
        a = emitted_field_first_order(ext, one, kq)
        b = emitted_field_first_order(ext, two, kq)
        assert_allclose(b, 2.0 * a, rtol=1e-13)


class TestIteration:
    def test_first_order_agrees(self):
        spec = charge_spec(np.array([[0.2], [-0.1], [0.8]]), np.eye(1) * 2.0, np.eye(1) * 0.25)
        ext, _ = prepare(spec)
        grid = np.array([0.9])
        waves = FieldPlaneWaveSet(
            grid, (PlaneWave([0.05, 0.0, 0.0], [0.0, 1.0, 0.0]),)
        )
        nodes = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.4]])
        weights = np.array([0.01, 0.01])
        once = emitted_field_iterate(ext, waves, nodes, weights, orders=1)
        ref = emitted_field_first_order(ext, waves, nodes)
        assert_allclose(once, ref, rtol=1e-13)

    def test_feedback_contracts(self):
        spec = charge_spec(np.array([[0.2], [-0.1], [0.8]]), np.eye(1) * 2.0, np.eye(1) * 0.25)
        ext, _ = prepare(spec)
        grid = np.array([0.9])
        waves = FieldPlaneWaveSet(
            grid, (PlaneWave([0.05, 0.0, 0.0], [0.0, 1.0, 0.0]),)
        )
        nodes = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.4]])
        weights = np.array([0.01, 0.01])
        o1 = emitted_field_iterate(ext, waves, nodes, weights, orders=1)
        o2 = emitted_field_iterate(ext, waves, nodes, weights, orders=2)
        o3 = emitted_field_iterate(ext, waves, nodes, weights, orders=3)
        step1 = np.abs(o2 - o1).max()
        step2 = np.abs(o3 - o2).max()
        assert step1 > 0
        assert step2 < step1  # weak-coupling fixed point contracts


class TestGtildeOncePerK:
    """G~(k) does not depend on omega: one gaussian_ft per source, k and pass."""

    def count_calls(self, monkeypatch):
        calls = []
        original = selfconsistent.gaussian_ft

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(selfconsistent, "gaussian_ft", counted)
        return calls

    def setup_method(self):
        coords = np.array([[0.2, -0.4], [-0.1, 0.3], [0.8, 0.5]])
        self.spec = charge_spec(coords, np.array([[2.0, 0.3], [0.3, 1.5]]), np.eye(2) * 0.25)
        self.ext, _ = prepare(self.spec)
        self.waves = FieldPlaneWaveSet(
            np.linspace(0.5, 1.5, 7),
            (
                PlaneWave([0.05, 0.0, 0.0], [0.0, 1.0, 0.0]),
                PlaneWave([0.0, 0.1, 0.02], [1.0, 0.0, 0.0]),
            ),
        )
        self.points = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.4], [0.2, 0.2, 0.2]])

    def test_first_order(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        emitted_field_first_order(self.ext, self.waves, self.points)
        assert len(calls) == self.spec.n * (len(self.points) + len(self.waves.waves))

    @pytest.mark.parametrize("orders,per_point", [(1, 1), (3, 2)])
    def test_iterate(self, monkeypatch, orders, per_point):
        # orders > 1 adds G~(-k) of every node
        calls = self.count_calls(monkeypatch)
        weights = np.full(len(self.points), 0.01)
        emitted_field_iterate(self.ext, self.waves, self.points, weights, orders)
        expected = per_point * len(self.points) + len(self.waves.waves)
        assert len(calls) == self.spec.n * expected

    def test_iterate_matches_per_frequency_kernels(self):
        # the node feedback built from scattering_T at each frequency
        weights = np.full(len(self.points), 0.01)
        got = emitted_field_iterate(self.ext, self.waves, self.points, weights, 2)
        first = emitted_field_first_order(self.ext, self.waves, self.points)
        w = self.spec.coords
        for iw, omega in enumerate(self.waves.omega_grid):
            fold = sum(
                wj * scattering_T(self.ext, -k, omega) @ first[iw, j]
                for j, (k, wj) in enumerate(zip(self.points, weights))
            )
            for i, k in enumerate(self.points):
                gt = np.array(
                    [gaussian_ft(k, w[:, a], self.spec.covariances[a]) for a in range(self.spec.n)]
                )
                want = first[iw, i] + green_tensor(k, omega) @ (w * gt[None, :]) @ fold
                assert_allclose(got[iw, i], want, rtol=1e-12)

