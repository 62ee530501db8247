import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import scalar_spec, stable_spec
from qpmedia import builders
from qpmedia.errors import InconsistentInitialConditions, NonFinite, OutOfRange
from qpmedia.medium import (
    KickDrive,
    MediumSpec,
    MonochromaticDrive,
    TabulatedDrive,
    consistent_extended_ic,
    simple_spec,
    spec_from_json,
    spec_to_json,
)
from qpmedia.oracles import (
    build_extended_force,
    integrate_reference_extended,
    integrate_reference_second_order,
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

    @pytest.mark.parametrize(
        "times,values,derivatives,message",
        [
            ([0.0, 0.0], [[0.0], [1.0]], [[1.0], [1.0]], "strictly increasing"),
            ([[0.0, 1.0]], [[0.0], [1.0]], [[1.0], [1.0]], "strictly increasing"),
            ([0.0, 1.0], [[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]], "match the time grid"),
            ([0.0, 1.0], [[0.0], [1.0]], [[1.0]], "match the time grid"),
        ],
    )
    def test_tabulated_drive_rejects_a_bad_grid(self, times, values, derivatives, message):
        with pytest.raises(ValueError, match=message):
            TabulatedDrive(times=times, values=values, derivatives=derivatives)

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
        traj = integrate_reference_second_order(spec, KickDrive(np.zeros(1)), [1.0], [0.0], t)
        assert np.abs(traj.u[:, 0] - np.cos(t)).max() < 1e-8

    def test_damped_closed_form(self):
        # roots of w^2 + i w - 2 give u = e^{-t/2}(cos + sin/sqrt7)
        spec = scalar_spec(2.0, 0.5)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        traj = integrate_reference_second_order(spec, KickDrive(np.zeros(1)), [1.0], [0.0], t)
        s7 = np.sqrt(7.0)
        exact = np.exp(-t / 2) * (np.cos(s7 * t / 2) + np.sin(s7 * t / 2) / s7)
        assert np.abs(traj.u[:, 0] - exact).max() < 1e-8

    def test_free_particle(self):
        spec = scalar_spec(0.0, 0.0)
        t = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        traj = integrate_reference_second_order(spec, KickDrive(np.zeros(1)), [0.0], [1.0], t)
        assert np.abs(traj.u[:, 0] - t).max() < 1e-10

    def test_unstable_overflow(self):
        spec = scalar_spec(-25.0, 0.0)
        t = np.arange(0.0, 300.0, 0.05)
        with pytest.raises(NonFinite):
            integrate_reference_second_order(spec, KickDrive(np.zeros(1)), [1.0], [0.0], t)

    def test_sample_access(self):
        spec = scalar_spec(1.0, 0.0)
        t = np.array([0.0, 0.1, 0.2])
        traj = integrate_reference_second_order(spec, KickDrive(np.zeros(1)), [1.0], [0.0], t)
        assert len(traj) == 3


class TestExtendedIntegrator:
    def test_matches_direct(self):
        spec = scalar_spec(2.0, 0.5)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        direct = integrate_reference_second_order(spec, KickDrive(np.zeros(1)), [1.0], [0.0], t)
        x0, xdot0 = consistent_extended_ic(spec, [1.0], [0.0])
        extended = integrate_reference_extended(spec, KickDrive(np.zeros(1)), x0, xdot0, t)
        assert np.abs(extended.x[:, 0] - direct.u[:, 0]).max() < 1e-7

    def test_null_solution(self):
        spec = scalar_spec(2.0, 0.5)
        t = np.linspace(0.0, 5.0, 101)
        traj = integrate_reference_extended(
            spec, KickDrive(np.zeros(1)), np.zeros(2), np.zeros(2), t
        )
        assert np.abs(traj.x).max() == 0.0

    def test_corrupted_ic_rejected(self):
        spec = scalar_spec(2.0, 0.5)
        x0, xdot0 = consistent_extended_ic(spec, [1.0], [0.0])
        xdot0 = xdot0.copy()
        xdot0[1] = 0.0  # violates the constraint since K u0 != 0
        with pytest.raises(InconsistentInitialConditions):
            integrate_reference_extended(
                spec, KickDrive(np.zeros(1)), x0, xdot0, np.linspace(0, 1, 11)
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


def two_source_spec(**changes):
    """A valid two-source MediumSpec with ``changes`` applied to its fields."""
    fields = dict(
        coords=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]),
        covariances=[np.eye(3), np.eye(3)],
        kernel=np.eye(2),
        damping=np.zeros((2, 2)),
        source_kind=("charge", "charge"),
        gen_coord_vector=[1.0, 2.0],
    )
    return MediumSpec(**{**fields, **changes})


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

    def test_largest_finite_covariance_accepted(self):
        spec = two_source_spec(covariances=[np.eye(3), np.full((3, 3), 1.7e308) * np.eye(3)])
        assert spec.covariances[1, 2, 2] == 1.7e308

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gen,accepted", [(1e308, True), (-1e308, True), (0.0, False)])
    def test_extreme_charge_coordinates_checked_without_overflow(self, gen, accepted):
        # c - g overflows to inf for coordinates of opposite sign near the maximum
        coords = np.array([[1e308], [-1e308], [1e308]])
        make = lambda: MediumSpec(
            coords=coords,
            covariances=[np.eye(3)],
            kernel=[[1.0]],
            damping=[[0.0]],
            source_kind=("charge",),
            gen_coord_vector=[gen],
        )
        if accepted:
            assert make().gen_coord_vector[0] == gen
        else:
            with pytest.raises(ValueError, match="coordinate component"):
                make()

    def test_simple_spec_shape(self):
        spec = simple_spec([[2.0, 0.1], [0.0, 3.0]], np.zeros((2, 2)))
        assert spec.n == 2
        assert spec.kernel.dtype == np.float64

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"kernel": np.eye(3)}, "kernel must be 2 x 2, got \\(3, 3\\)"),
            ({"damping": [0.0, 0.0]}, "damping must be 2 x 2, got \\(2,\\)"),
            ({"kernel": [[1.0, np.inf], [0.0, 1.0]]}, "kernel contains non-finite entries"),
            ({"damping": [[0.0, 1j * np.nan], [0.0, 0.0]]}, "damping contains non-finite entries"),
            ({"source_kind": ("charge", "spin")}, "unknown source kind 'spin'"),
            (
                {"covariances": [np.eye(3), [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]},
                "covariance 1 is not symmetric",
            ),
            ({"gen_coord_vector": [np.nan, np.nan]}, "gen_coord_vector contains non-finite"),
            ({"covariances": [np.eye(3), np.full((3, 3), np.inf)]}, "covariances contains non-"),
            ({"covariances": [np.eye(3), np.full((3, 3), np.nan)]}, "covariances contains non-"),
            ({"coords": [[0.0, np.inf], [0.0, 0.0], [1.0, 2.0]]}, "coords contains non-finite"),
        ],
    )
    def test_malformed_medium_rejected(self, changes, message):
        two_source_spec()
        with pytest.raises(ValueError, match=message):
            two_source_spec(**changes)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({2: -np.eye(3), 3: np.triu(np.ones((3, 3)))}, "covariance 2 is not positive"),
            ({2: np.triu(np.ones((3, 3))), 3: -np.eye(3)}, "covariance 2 is not symmetric"),
            ({1: -np.triu(np.ones((3, 3)))}, "covariance 1 is not symmetric"),
        ],
    )
    def test_first_bad_covariance_is_named(self, bad, message):
        covariances = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
        for alpha, sigma in bad.items():
            covariances[alpha] = sigma
        with pytest.raises(ValueError, match=f"^{message}"):
            MediumSpec(
                coords=np.zeros((3, 5)),
                covariances=covariances,
                kernel=np.eye(5),
                damping=np.zeros((5, 5)),
                source_kind=("charge",) * 5,
                gen_coord_vector=np.zeros(5),
            )


class TestStoredDtype:
    """MediumSpec alone decides whether K and Gamma are held real or complex."""

    K = [[2.0, 0.1], [0.0, 3.0]]
    G = [[0.2, 0.0], [0.0, 0.3]]
    CASES = {
        "real": (K, G, np.float64, np.float64),
        "complex": (np.add(K, 0.1j), np.add(G, 0.01j), np.complex128, np.complex128),
        "mixed": (K, np.add(G, 0.01j), np.float64, np.complex128),
        "zero imaginary part": (np.add(K, 0j), np.add(G, 0j), np.float64, np.float64),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_dtype_through_every_entry(self, case):
        K, G, k_dtype, g_dtype = self.CASES[case]
        direct = two_source_spec(kernel=K, damping=G)
        text = spec_to_json(direct)
        loaded = spec_from_json(text)
        for spec in (direct, simple_spec(K, G), loaded):
            assert spec.kernel.dtype == k_dtype and spec.damping.dtype == g_dtype
            assert np.array_equal(spec.kernel, K) and np.array_equal(spec.damping, G)
        assert spec_to_json(loaded) == text

    def test_real_spec_keeps_the_file_layout(self):
        doc = json.loads(spec_to_json(simple_spec(self.K, self.G)))
        assert doc["kernel_re"] == [2.0, 0.1, 0.0, 3.0]
        assert doc["kernel_im"] == [0.0] * 4 and doc["damping_im"] == [0.0] * 4


def json_dumps_layout(spec):
    """The model text as ``json.dumps(indent=2, sort_keys=True)`` writes it: the writer's oracle."""
    doc = {
        "n": spec.n,
        "coords": spec.coords.ravel().tolist(),
        "covariances": spec.covariances.ravel().tolist(),
        "source_kind": list(spec.source_kind),
        "gen_coord_vector": spec.gen_coord_vector.tolist(),
    }
    for name in ("kernel", "damping"):
        m = getattr(spec, name).ravel()
        doc[f"{name}_re"], doc[f"{name}_im"] = m.real.tolist(), m.imag.tolist()
    return json.dumps(doc, indent=2, sort_keys=True)


# signed zeros, subnormals, both sides of repr's switch to exponent notation
# (below 1e-4 and from 1e16 on) and the extremes of float64
_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-05, 1e-4,
    -0.0001, 1e15, 9999999999999998.0, 1e16, -1e16, 1.7976931348623157e308,
)


def _complex(re, im):
    """``re + i im`` with the sign of every zero kept."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


@st.composite
def media(draw):
    n = draw(st.integers(1, 4))
    cells = st.one_of(
        st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    )

    def array(*shape, values=cells):
        count = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=count, max_size=count))).reshape(shape)

    def matrix():
        re = array(n, n)
        return _complex(re, array(n, n)) if draw(st.booleans()) else re

    coords = array(3, n)
    kinds = st.sampled_from(("charge", "dipole-component"))
    kinds = tuple(draw(st.lists(kinds, min_size=n, max_size=n)))
    axis = draw(st.integers(0, 2))
    variance = st.one_of(st.sampled_from((0.0, 5e-324, 1e-5, 1e16)), st.floats(0.0, 1e300))
    variances = array(n, 3, values=variance)
    return MediumSpec(
        coords=coords,
        covariances=variances[:, :, None] * np.eye(3),
        kernel=matrix(),
        damping=matrix(),
        source_kind=kinds,
        gen_coord_vector=np.where(np.array(kinds) == "charge", coords[axis], 1.0),
    )


def _drude_disk():
    params = builders.DrudeParams(
        drude_factor=0.008, relaxation=0.004, gaussian_width=2.4,
        tunneling_enabled=True, tunneling_d0=6.0, tunneling_steepness=10.0,
    )
    return builders.build_drude_charge_model(builders.hexagonal_disk(8.0, 2.434), params)


def _complex_edges():
    edges = np.reshape(_EDGE_FLOATS[:9], (3, 3)), np.reshape(_EDGE_FLOATS[5:], (3, 3))
    return simple_spec(_complex(*edges), np.diag([0.1, -0.0, 1e-5]))


class TestModelWriter:
    """spec_to_json writes json.dumps(indent=2, sort_keys=True)'s bytes without calling it."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: builders.build_synthetic(1, 1),
            lambda: builders.build_synthetic(6, 1),
            lambda: builders.build_synthetic(40, 1, stability="marginal"),
            _drude_disk,
            _complex_edges,
        ],
        ids=["synthetic-1", "synthetic-6", "marginal-40", "drude-disk", "complex-edges"],
    )
    def test_matches_json_dumps(self, make):
        spec = make()
        assert spec_to_json(spec) == json_dumps_layout(spec)

    @settings(max_examples=150, deadline=None)
    @given(media())
    def test_random_media_match_json_dumps_and_round_trip(self, spec):
        text = spec_to_json(spec)
        assert text == json_dumps_layout(spec)
        loaded = spec_from_json(text)
        assert loaded.source_kind == spec.source_kind
        for name in ("coords", "covariances", "kernel", "damping", "gen_coord_vector"):
            got, want = getattr(loaded, name), getattr(spec, name)
            # bit for bit: signed zeros and the sign of every zero part included
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestModelLoader:
    def test_zero_imaginary_list_keeps_signed_zeros(self):
        # an all-zero _im list loads as the _re list itself, -0.0 included
        doc = json.loads(spec_to_json(simple_spec(np.eye(2), np.eye(2))))
        doc["kernel_re"], doc["kernel_im"] = [-0.0, -0.0, 1.0, 3.0], [0.0, -0.0, 0.0, -0.0]
        loaded = spec_from_json(json.dumps(doc))
        assert loaded.kernel.dtype == np.float64
        assert loaded.kernel.tobytes() == np.array(doc["kernel_re"]).reshape(2, 2).tobytes()
        assert np.signbit(loaded.kernel).tolist() == [[True, True], [False, False]]

    def test_complex_parts_keep_signed_zeros(self):
        # -0.0 over a +0.0, and a -0.0 imaginary part over a +0.0 real part
        doc = json.loads(spec_to_json(simple_spec(np.eye(2), np.eye(2))))
        doc["damping_re"], doc["damping_im"] = [-0.0, 0.0, 1.0, -0.0], [0.0, -0.0, 2.0, -0.0]
        loaded = spec_from_json(json.dumps(doc))
        assert loaded.damping.dtype == np.complex128
        assert np.signbit(loaded.damping.real).ravel().tolist() == [True, False, False, True]
        assert np.signbit(loaded.damping.imag).ravel().tolist() == [False, True, False, True]



def _non_finite_entry_points():
    """{entry: (call(value), named quantity)} wherever an outside value enters.

    Those are frequencies, grids, times, drives, initial means, covariances,
    ladder amplitudes and wavevectors.
    """
    from qpmedia import openquantum as oq
    from qpmedia import pseudoboson as pb
    from qpmedia import selfconsistent as sc
    from qpmedia.phasespace import (
        GaussianState, consistent_mean, mean_in_frequency, propagate_mean, propagator_at,
    )
    from qpmedia.response import decompose_modes, reconstruct_spectrum
    from qpmedia.spectral import build_sqrt_kappa

    spec = builders.build_synthetic(4, 1)
    ext = build_sqrt_kappa(spec)
    kick = KickDrive(np.ones(4))
    vacuum = GaussianState(mean=np.zeros(16), cov=0.5 * np.eye(16))
    wave = sc.PlaneWave(k=[0.01, 0.0, 0.0], amplitude=[0.0, 1.0, 0.0])
    waves = sc.FieldPlaneWaveSet(omega_grid=[0.5], waves=(wave,))
    basis = pb.build_pseudoboson(ext.eig)
    alpha = np.zeros(basis.n_modes)
    q0 = np.zeros(16)
    table = np.zeros((3, 4))
    grid = "omega_grid"
    return {
        "thermal_correlation": (lambda v: oq.thermal_correlation(ext, 1.0, 1.0, [v], 1e-4), grid),
        "correlation_frequency": (lambda v: oq.correlation_frequency(ext, vacuum, [v], 1e-4), grid),
        "classical_correlation": (lambda v: oq.classical_correlation(ext, 1.0, [v], 1e-4), grid),
        "mean_in_frequency": (lambda v: mean_in_frequency(ext, kick, [v]), grid),
        "scattering_rows": (lambda v: sc.scattering_rows(ext, v), "omega"),
        "auxiliary_response": (lambda v: sc.auxiliary_response(ext, v), "omega"),
        "reconstruct_spectrum": (
            lambda v: reconstruct_spectrum(decompose_modes(ext.eig, spec, kick), range(8), [v]),
            grid,
        ),
        "emitted_field_first_order": (
            lambda v: sc.emitted_field_first_order(
                ext, sc.FieldPlaneWaveSet(omega_grid=[v], waves=(wave,)), [[0.02, 0.0, 0.0]]
            ),
            grid,
        ),
        "GaussianState.mean": (lambda v: GaussianState(mean=[v, 0.0], cov=np.eye(2)), "mean"),
        "GaussianState.cov": (
            lambda v: GaussianState(mean=np.zeros(2), cov=np.full((2, 2), v)), "covariance"
        ),
        "propagate_mean.q0": (
            lambda v: propagate_mean(ext, kick, np.r_[v, q0[1:]], [0.0, 1.0]), "initial mean q0"
        ),
        "propagate_mean.t_grid": (lambda v: propagate_mean(ext, kick, q0, [0.0, v]), "time grid"),
        "consistent_mean.u0": (lambda v: consistent_mean(ext, [v, 0.0, 0.0, 0.0], q0[:4]), "u0"),
        "consistent_mean.v0": (lambda v: consistent_mean(ext, q0[:4], [0.0, v, 0.0, 0.0]), "v0"),
        "propagate_mean.drive": (
            lambda v: propagate_mean(ext, KickDrive([v, 1.0, 1.0, 1.0]), q0, [0.0, 1.0]),
            "kick amplitude",
        ),
        "MonochromaticDrive.amplitude": (
            lambda v: MonochromaticDrive([v, 1.0, 1.0, 1.0], 1.0), "drive amplitude"
        ),
        "MonochromaticDrive.omega0": (
            lambda v: MonochromaticDrive(np.ones(4), v), "drive frequency omega0"
        ),
        "TabulatedDrive.times": (
            lambda v: TabulatedDrive([0.0, v, 1.0], table, table), "tabulated times"
        ),
        "TabulatedDrive.values": (
            lambda v: TabulatedDrive([0.0, 0.5, 1.0], np.full((3, 4), v), table),
            "tabulated values",
        ),
        "TabulatedDrive.derivatives": (
            lambda v: TabulatedDrive([0.0, 0.5, 1.0], table, np.full((3, 4), v)),
            "tabulated derivatives",
        ),
        "propagator_at": (lambda v: propagator_at(ext, v, kick), "time"),
        "correlation_time": (lambda v: oq.correlation_time(ext, vacuum, v), "time"),
        "evolve_alpha.t": (lambda v: pb.evolve_alpha(alpha, basis, v), "time"),
        "evolve_alpha.alpha": (
            lambda v: pb.evolve_alpha(np.r_[v, alpha[1:]], basis, 1.0), "ladder amplitude alpha"
        ),
        "coherent_params": (
            lambda v: pb.coherent_params(basis, np.r_[v, alpha[1:]]), "ladder amplitude alpha"
        ),
        "emitted_field_first_order.k": (
            lambda v: sc.emitted_field_first_order(ext, waves, [[v, 0.0, 0.0]]), "k queries"
        ),
        "emitted_field_iterate.k": (
            lambda v: sc.emitted_field_iterate(ext, waves, [[v, 0.0, 0.0]], [1.0]), "k nodes"
        ),
        "emitted_field_iterate.weight": (
            lambda v: sc.emitted_field_iterate(ext, waves, [[0.02, 0.0, 0.0]], [v]),
            "k weights",
        ),
        "scattering_T": (lambda v: sc.scattering_T(ext, [v, 0.0, 0.0], 0.5), "wavevector k"),
        "green_tensor.k": (lambda v: sc.green_tensor([v, 0.0, 0.0], 0.5), "wavevector k"),
        "green_tensor.omega": (lambda v: sc.green_tensor([0.02, 0.0, 0.0], v), "omega"),
    }


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        "thermal_correlation", "correlation_frequency", "classical_correlation",
        "mean_in_frequency", "scattering_rows", "auxiliary_response", "reconstruct_spectrum",
        "emitted_field_first_order", "GaussianState.mean", "GaussianState.cov",
        "propagate_mean.q0", "propagate_mean.t_grid", "propagate_mean.drive",
        "consistent_mean.u0", "consistent_mean.v0",
        "MonochromaticDrive.amplitude", "MonochromaticDrive.omega0", "TabulatedDrive.times",
        "TabulatedDrive.values", "TabulatedDrive.derivatives", "propagator_at",
        "correlation_time", "evolve_alpha.t", "evolve_alpha.alpha", "coherent_params",
        "emitted_field_first_order.k", "emitted_field_iterate.k", "emitted_field_iterate.weight",
        "scattering_T", "green_tensor.k", "green_tensor.omega",
    ],
)
def test_non_finite_input_is_named_before_any_product(entry, value):
    # nan gave a silent nan table or result and inf an overflow warning; now
    # one ValueError names the quantity (the suite turns RuntimeWarnings into
    # errors); a drive is checked when it is made
    call, name = _non_finite_entry_points()[entry]
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        call(value)
