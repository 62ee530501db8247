import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf

from qpmedia.builders import (
    DrudeParams,
    GeometryFile,
    build_drude_charge_model,
    build_synthetic,
    coulomb_kernel,
    drude_conduction_matrix,
    hexagonal_disk,
    parse_xyz,
    uniform_field_kick,
)
from qpmedia.constants import BOHR_PER_ANGSTROM
from qpmedia.errors import CoincidentAtoms, CountMismatch, MalformedXYZ
from qpmedia.medium import spec_to_json
from qpmedia.spectral import build_similarity, build_sqrt_kappa, eigendecompose


class TestParseXYZ:
    def test_single_atom(self):
        geom = parse_xyz("1\n\nAg 0 0 0\n")
        assert geom.symbols == ("Ag",)
        assert_allclose(geom.positions, np.zeros((3, 1)))

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_xyz("3\ncomment\nC 0 0 0\nC 1 0 0\n")

    def test_exponent_notation(self):
        geom = parse_xyz("1\nx\nC 1.0e-1 0 0\n")
        assert geom.positions[0, 0] == pytest.approx(0.1)

    def test_malformed_row(self):
        with pytest.raises(MalformedXYZ) as err:
            parse_xyz("1\nc\nC 0 0\n")
        assert err.value.line_number == 3

    def test_bad_count_line(self):
        with pytest.raises(MalformedXYZ):
            parse_xyz("many\nc\nC 0 0 0\n")

    def test_line_longer_than_a_file_name(self):
        with pytest.raises(MalformedXYZ) as err:
            parse_xyz("H 0 0 0 " * 40)
        assert err.value.line_number == 1

    def test_file_name_is_parsed_as_text(self, tmp_path):
        # parse_xyz reads no file: the caller does
        path = tmp_path / "g.xyz"
        path.write_text("1\n\nAg 0 0 0\n", encoding="utf-8")
        with pytest.raises(MalformedXYZ) as err:
            parse_xyz(str(path))
        assert err.value.line_number == 1


def two_atom_geom(distance_angstrom):
    return GeometryFile(
        symbols=("C", "C"),
        positions=np.array([[0.0, distance_angstrom], [0.0, 0.0], [0.0, 0.0]]),
    )


class TestKernel:
    def test_bare_coulomb_limit(self):
        d = 5.0
        T, _ = coulomb_kernel(np.array([[0.0, d], [0.0, 0.0], [0.0, 0.0]]), width=1e-4)
        assert_allclose(T[0, 1], 1.0 / d, rtol=1e-12)

    def test_erf_table_value(self):
        s = 1.7
        d = s * np.sqrt(2.0)
        T, _ = coulomb_kernel(np.array([[0.0, d], [0.0, 0.0], [0.0, 0.0]]), width=s)
        assert_allclose(T[0, 1], erf(1.0) / d, rtol=1e-12)
        assert_allclose(T[0, 1] * d, 0.842700793, atol=1e-9)

    def test_self_term(self):
        s = 2.2
        T, _ = coulomb_kernel(np.zeros((3, 1)), width=s)
        assert_allclose(T[0, 0], 2.0 / (s * np.sqrt(2.0 * np.pi)), rtol=1e-14)

    def test_symmetric_positive_diag_and_bounded(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(-4, 4, size=(3, 6))
        s = 1.1
        T, d = coulomb_kernel(coords, width=s)
        assert np.array_equal(T, T.T)
        assert np.all(np.diag(T) > 0)
        off = ~np.eye(6, dtype=bool)
        bound = np.minimum(1.0 / d[off], 2.0 / (s * np.sqrt(2 * np.pi)))
        assert np.all(T[off] <= bound + 1e-12)

    def test_monotone_in_distance(self):
        s = 1.3
        dists = np.linspace(0.2, 8.0, 40)
        vals = [
            coulomb_kernel(np.array([[0.0, d], [0.0, 0.0], [0.0, 0.0]]), s)[0][0, 1]
            for d in dists
        ]
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize(
        "coords",
        [
            hexagonal_disk(20.0, 2.434).positions * BOHR_PER_ANGSTROM,
            np.random.default_rng(5).uniform(-30.0, 30.0, size=(3, 80)),
        ],
        ids=["readme-disk", "random-cloud"],
    )
    def test_within_one_spacing_of_scipy_erf(self, coords):
        s = 2.4
        T, d = coulomb_kernel(coords, width=s)
        off = ~np.eye(d.shape[0], dtype=bool)
        expected = np.empty_like(T)
        expected[off] = erf(d[off] / (s * np.sqrt(2.0))) / d[off]
        expected[~off] = 2.0 / (s * np.sqrt(2.0 * np.pi))
        assert np.all(np.abs(T - expected) <= np.spacing(np.abs(expected)))

    def test_coincident_atoms(self):
        with pytest.raises(CoincidentAtoms):
            coulomb_kernel(np.zeros((3, 2)), width=1.0)


class TestDrudeModel:
    def params(self, tunneling=False):
        return DrudeParams(
            drude_factor=0.01,
            relaxation=0.004,
            gaussian_width=2.4,
            tunneling_enabled=tunneling,
            tunneling_d0=6.0,
            tunneling_steepness=10.0,
        )

    def test_gate_identity_when_disabled(self):
        geom = two_atom_geom(2.0)
        k_plain = drude_conduction_matrix(geom, self.params(False))
        # without gating the weights are exactly the drude prefactor
        w = 0.01
        expected = -np.array([[w, -w], [-w, w]])
        assert_allclose(k_plain, expected, rtol=1e-14)

    def test_damping_is_half_relaxation(self):
        geom = two_atom_geom(2.0)
        spec = build_drude_charge_model(geom, self.params())
        assert_allclose(np.diag(spec.damping).real, 0.002, rtol=1e-14)

    def test_charge_conservation_zero_mode(self):
        geom = hexagonal_disk(6.0, 2.4)
        spec = build_drude_charge_model(geom, self.params(True))
        ones = np.ones(spec.n)
        # left null vector of K: uniform potential exerts no net force
        assert np.abs(ones @ spec.kernel).max() < 1e-12

    def test_stable_spectrum(self):
        geom = hexagonal_disk(6.0, 2.4)
        spec = build_drude_charge_model(geom, self.params(True))
        eig = eigendecompose(build_sqrt_kappa(spec))
        assert (-eig.values).imag.max() < 1e-10

    def test_kernel_passes_similarity_invariants(self):
        geom = hexagonal_disk(5.0, 2.4)
        spec = build_drude_charge_model(geom, self.params(True))
        ext = build_sqrt_kappa(spec)
        resid = np.linalg.norm(ext.sqrt_kappa @ ext.sqrt_kappa - ext.kappa)
        assert resid < 1e-12 * np.linalg.norm(ext.kappa)
        eig = eigendecompose(ext)
        A = build_similarity(eig)
        sim = np.linalg.norm(A @ ext.kappa.T @ np.linalg.inv(A) - ext.kappa)
        assert sim < 1e-10 * np.linalg.norm(ext.kappa)

    def test_uniform_field_kick_kills_total_charge(self):
        geom = hexagonal_disk(6.0, 2.4)
        f = uniform_field_kick(geom, self.params(True), direction=(1.0, 0.0, 0.0))
        assert abs(f.sum()) < 1e-12

    def test_kernel_evaluated_once(self, monkeypatch):
        # the conduction matrix and the field kick need distances, not erf
        from qpmedia import builders

        geom = hexagonal_disk(6.0, 2.4)
        calls = []

        def counted(*args):
            calls.append(args)
            return coulomb_kernel(*args)

        monkeypatch.setattr(builders, "coulomb_kernel", counted)
        spec = build_drude_charge_model(geom, self.params(True))
        assert len(calls) == 1
        k_cond = drude_conduction_matrix(geom, self.params(True))
        uniform_field_kick(geom, self.params(True))
        assert len(calls) == 1
        T, _ = coulomb_kernel(geom.positions * BOHR_PER_ANGSTROM, 2.4)
        assert np.array_equal(spec.kernel, -k_cond @ T)

    def test_model_is_stored_real(self):
        spec = build_drude_charge_model(two_atom_geom(2.0), self.params())
        assert spec.kernel.dtype == np.float64 and spec.damping.dtype == np.float64

    def test_response_axis_sets_gen_coords(self):
        geom = two_atom_geom(3.0)
        spec = build_drude_charge_model(geom, self.params(), response_axis=0)
        assert_allclose(spec.gen_coord_vector, geom.positions[0] * BOHR_PER_ANGSTROM)


class TestSynthetic:
    def test_deterministic_serialization(self):
        a = spec_to_json(build_synthetic(5, seed=42))
        b = spec_to_json(build_synthetic(5, seed=42))
        assert a == b

    def test_stability(self):
        for seed in range(5):
            spec = build_synthetic(6, seed=seed)
            eig = eigendecompose(build_sqrt_kappa(spec))
            assert (-eig.values).imag.max() <= 1e-12

    def test_scalar_case(self):
        spec = build_synthetic(1, seed=0)
        assert spec.n == 1
        assert spec.kernel.shape == (1, 1)

    def test_marginal_variant(self):
        spec = build_synthetic(3, seed=1, stability="marginal")
        assert np.abs(spec.damping).max() == 0.0

    @pytest.mark.parametrize("stability", ["stable", "marginal"])
    def test_medium_is_stored_real(self, stability):
        spec = build_synthetic(4, seed=1, stability=stability)
        assert spec.kernel.dtype == np.float64 and spec.damping.dtype == np.float64


class TestDrudeParamsIO:
    def test_json_round_trip(self):
        # the README's drude.json
        text = """{
          "drude_factor": 0.008,
          "relaxation": 0.004,
          "gaussian_width": 2.4,
          "tunneling": {"enabled": true, "d0": 6.0, "steepness": 10.0}
        }"""
        params = DrudeParams.from_json(text)
        assert params == DrudeParams(
            drude_factor=0.008,
            relaxation=0.004,
            gaussian_width=2.4,
            tunneling_enabled=True,
            tunneling_d0=6.0,
            tunneling_steepness=10.0,
        )
        assert type(params.drude_factor) is float

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError, match="gaussian_width"):
            DrudeParams(drude_factor=0.1, relaxation=0.0, gaussian_width=0.0)
