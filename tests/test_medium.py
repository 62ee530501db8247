import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import scalar_spec, stable_spec
from qpmedia.errors import InconsistentInitialConditions, NonFinite, OutOfRange
from qpmedia.medium import (
    KickDrive,
    MediumSpec,
    MonochromaticDrive,
    TabulatedDrive,
    build_extended_force,
    consistent_extended_ic,
    integrate_reference_extended,
    integrate_reference_second_order,
    simple_spec,
    spec_from_json,
    spec_to_json,
    zero_drive,
)


class TestExtendedForce:
    def test_kick_between_impulses(self):
        spec = scalar_spec(2.0, 0.5)
        F = build_extended_force(spec, KickDrive([1.0]), t=3.7)
        assert_allclose(F, [1.0, -1.0])

    def test_monochromatic_at_zero(self):
        spec = scalar_spec(1.0, 0.0)
        F = build_extended_force(spec, MonochromaticDrive([1.0], omega0=2.0), t=0.0)
        assert_allclose(F, [1.0, 0.0])

    def test_tabulated_hand_value(self):
        # f(t) = t with unit derivative, Gamma = 1: F(1) = [1, 1 - 2*1*1]
        spec = scalar_spec(1.0, 1.0)
        drive = TabulatedDrive(
            times=[0.0, 2.0], values=[[0.0], [2.0]], derivatives=[[1.0], [1.0]]
        )
        F = build_extended_force(spec, drive, t=1.0)
        assert_allclose(F, [1.0, -1.0])

    def test_out_of_range(self):
        spec = scalar_spec(1.0, 0.0)
        drive = TabulatedDrive([0.0, 1.0], [[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(OutOfRange):
            build_extended_force(spec, drive, t=2.0)

    def test_linearity_in_drive(self, rng):
        spec = stable_spec(seed=3, n=4)
        f1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a, b = 2.5, -1.25 + 0.5j
        combo = build_extended_force(spec, KickDrive(a * f1 + b * f2), 0.0)
        parts = a * build_extended_force(spec, KickDrive(f1), 0.0) + b * build_extended_force(
            spec, KickDrive(f2), 0.0
        )
        # linear to rounding; matmul reassociation spoils bitwise equality
        assert_allclose(combo, parts, rtol=1e-14, atol=1e-15 * np.abs(parts).max())

    def test_kick_time_independent(self):
        spec = scalar_spec(2.0, 0.3)
        drive = KickDrive([0.7])
        vals = [build_extended_force(spec, drive, t) for t in (0.0, 1.0, 17.3)]
        assert_allclose(vals[0], vals[1], rtol=0, atol=0)
        assert_allclose(vals[0], vals[2], rtol=0, atol=0)


class TestSecondOrderIntegrator:
    def test_undamped_cosine(self):
        spec = scalar_spec(1.0, 0.0)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        traj = integrate_reference_second_order(spec, zero_drive(1), [1.0], [0.0], t)
        assert np.abs(traj.u[:, 0] - np.cos(t)).max() < 1e-8

    def test_damped_closed_form(self):
        # roots of w^2 + i w - 2 give u = e^{-t/2}(cos + sin/sqrt7)
        spec = scalar_spec(2.0, 0.5)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        traj = integrate_reference_second_order(spec, zero_drive(1), [1.0], [0.0], t)
        s7 = np.sqrt(7.0)
        exact = np.exp(-t / 2) * (np.cos(s7 * t / 2) + np.sin(s7 * t / 2) / s7)
        assert np.abs(traj.u[:, 0] - exact).max() < 1e-8

    def test_free_particle(self):
        spec = scalar_spec(0.0, 0.0)
        t = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        traj = integrate_reference_second_order(spec, zero_drive(1), [0.0], [1.0], t)
        assert np.abs(traj.u[:, 0] - t).max() < 1e-10

    def test_unstable_overflow(self):
        spec = scalar_spec(-25.0, 0.0)
        t = np.arange(0.0, 300.0, 0.05)
        with pytest.raises(NonFinite):
            integrate_reference_second_order(spec, zero_drive(1), [1.0], [0.0], t)

    def test_sample_access(self):
        spec = scalar_spec(1.0, 0.0)
        t = np.array([0.0, 0.1, 0.2])
        traj = integrate_reference_second_order(spec, zero_drive(1), [1.0], [0.0], t)
        assert len(traj) == 3


class TestExtendedIntegrator:
    def test_matches_direct(self):
        spec = scalar_spec(2.0, 0.5)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        direct = integrate_reference_second_order(spec, zero_drive(1), [1.0], [0.0], t)
        x0, xdot0 = consistent_extended_ic(spec, [1.0], [0.0])
        extended = integrate_reference_extended(spec, zero_drive(1), x0, xdot0, t)
        assert np.abs(extended.x[:, 0] - direct.u[:, 0]).max() < 1e-7

    def test_null_solution(self):
        spec = scalar_spec(2.0, 0.5)
        t = np.linspace(0.0, 5.0, 101)
        traj = integrate_reference_extended(
            spec, zero_drive(1), np.zeros(2), np.zeros(2), t
        )
        assert np.abs(traj.x).max() == 0.0

    def test_corrupted_ic_rejected(self):
        spec = scalar_spec(2.0, 0.5)
        x0, xdot0 = consistent_extended_ic(spec, [1.0], [0.0])
        xdot0 = xdot0.copy()
        xdot0[1] = 0.0  # violates the constraint since K u0 != 0
        with pytest.raises(InconsistentInitialConditions):
            integrate_reference_extended(
                spec, zero_drive(1), x0, xdot0, np.linspace(0, 1, 11)
            )

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_random_equivalence(self, seed):
        spec = stable_spec(seed=seed, n=4)
        rng = np.random.default_rng(seed + 100)
        u0 = rng.standard_normal(4)
        v0 = rng.standard_normal(4)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        drive = KickDrive(rng.standard_normal(4))
        direct = integrate_reference_second_order(spec, drive, u0, v0, t)
        x0, xdot0 = consistent_extended_ic(spec, u0, v0, drive)
        extended = integrate_reference_extended(spec, drive, x0, xdot0, t)
        assert np.abs(extended.x[:, :4] - direct.u).max() < 1e-6

    def test_driven_nonautonomous_paths_agree(self):
        # monochromatic drive exercises the generic stepper
        spec = scalar_spec(2.0, 0.5)
        drive = MonochromaticDrive([0.5], omega0=1.3)
        t = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        direct = integrate_reference_second_order(spec, drive, [0.2], [0.0], t)
        x0, xdot0 = consistent_extended_ic(spec, [0.2], [0.0], drive)
        extended = integrate_reference_extended(spec, drive, x0, xdot0, t)
        assert np.abs(extended.x[:, 0] - direct.u[:, 0]).max() < 1e-6


class TestSpecValidation:
    def test_round_trip_byte_identical(self):
        spec = stable_spec(seed=5, n=3)
        text = spec_to_json(spec)
        again = spec_to_json(spec_from_json(text))
        assert text == again

    def test_bad_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            MediumSpec(
                coords=np.zeros((3, 1)),
                covariances=[-np.eye(3)],
                kernel=[[1.0]],
                damping=[[0.0]],
                source_kind=("charge",),
                gen_coord_vector=[0.0],
            )

    def test_dipole_needs_unit_gen_coord(self):
        with pytest.raises(ValueError, match="unit generalized"):
            MediumSpec(
                coords=np.zeros((3, 1)),
                covariances=[np.eye(3)],
                kernel=[[1.0]],
                damping=[[0.0]],
                source_kind=("dipole-component",),
                gen_coord_vector=[0.5],
            )

    def test_charge_gen_coord_must_be_component(self):
        with pytest.raises(ValueError, match="coordinate component"):
            MediumSpec(
                coords=np.array([[1.0], [2.0], [3.0]]),
                covariances=[np.eye(3)],
                kernel=[[1.0]],
                damping=[[0.0]],
                source_kind=("charge",),
                gen_coord_vector=[9.0],
            )

    def test_empty_medium_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            MediumSpec(
                coords=np.zeros((3, 0)),
                covariances=np.zeros((0, 3, 3)),
                kernel=np.zeros((0, 0)),
                damping=np.zeros((0, 0)),
                source_kind=(),
                gen_coord_vector=np.zeros(0),
            )

    def test_simple_spec_shape(self):
        spec = simple_spec([[2.0, 0.1], [0.0, 3.0]], np.zeros((2, 2)))
        assert spec.n == 2
        assert spec.kernel.dtype == complex
