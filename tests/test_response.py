import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import stable_spec
from qpmedia.errors import SingularAtFrequency, UnsupportedDrive
from qpmedia.medium import KickDrive, MonochromaticDrive, simple_spec
from qpmedia.oracles import polarizability_direct
from qpmedia.response import (
    decompose_modes,
    filter_eigenvalue,
    filter_intercept,
    reconstruct_spectrum,
)
from qpmedia.spectral import build_sqrt_kappa, eigendecompose


def unit_kick(n):
    return KickDrive(np.ones(n))


def ledger_for(spec, drive=None):
    eig = eigendecompose(build_sqrt_kappa(spec))
    return decompose_modes(eig, spec, drive or unit_kick(spec.n))


class TestDirect:
    def test_static_real_response(self):
        spec = stable_spec(seed=2, n=3)
        spec_real = simple_spec(spec.kernel.real, np.zeros((3, 3)))
        table = polarizability_direct(spec_real, unit_kick(3), [0.0])
        assert abs(table.im_alpha[0]) < 1e-14

    def test_lossless_off_resonance(self, undamped_scalar):
        table = polarizability_direct(undamped_scalar, unit_kick(1), [0.3, 2.0, 5.1])
        assert np.abs(table.im_alpha).max() < 1e-14

    def test_damped_scalar_closed_form(self, damped_scalar):
        # Im[(w^2 + i w - 2)^{-1}] at w = sqrt2 is -1/sqrt2
        w = np.sqrt(2.0)
        table = polarizability_direct(damped_scalar, unit_kick(1), [w])
        assert_allclose(table.im_alpha[0], -1.0 / np.sqrt(2.0), atol=1e-12)

    def test_singular_at_resonance(self, undamped_scalar):
        with pytest.raises(SingularAtFrequency):
            polarizability_direct(undamped_scalar, unit_kick(1), [1.0])

    def test_monochromatic_sweep_equals_kick(self, damped_scalar):
        grid = np.linspace(0.1, 3.0, 7)
        a = polarizability_direct(damped_scalar, unit_kick(1), grid)
        b = polarizability_direct(damped_scalar, MonochromaticDrive([1.0], 0.5), grid)
        assert_allclose(a.im_alpha, b.im_alpha, rtol=0, atol=0)


class TestDecompose:
    def test_rank1_matches_matrix_product(self):
        # brute-force oracle: diagonal of P^{-1} W(omega) P
        spec = stable_spec(seed=7, n=6)
        rng = np.random.default_rng(77)
        f = rng.standard_normal(6)
        eig = eigendecompose(build_sqrt_kappa(spec))
        ledger = decompose_modes(eig, spec, KickDrive(f))
        r = spec.gen_coord_vector
        n = 6
        for w in rng.uniform(0.1, 4.0, size=5):
            outer = np.outer(f, r)
            W = np.block(
                [
                    [outer, np.zeros((n, n))],
                    [-(1j * w * np.eye(n) + 2 * spec.damping) @ outer, np.zeros((n, n))],
                ]
            )
            C = eig.inverse_vectors @ W @ eig.right_vectors
            got = ledger.intercept - 1j * w * ledger.angle
            assert np.abs(np.diag(C) - got).max() < 1e-10 * max(1.0, np.abs(C).max())

    def test_sum_rule_on_grid(self):
        spec = stable_spec(seed=9, n=5)
        rng = np.random.default_rng(99)
        f = rng.standard_normal(5)
        ledger = ledger_for(spec, KickDrive(f))
        budget = float((f * spec.gen_coord_vector).sum())
        for w in np.linspace(0.0, 5.0, 21):
            c = ledger.intercept - 1j * w * ledger.angle
            total = float(np.sum(c.real) + np.sum(c.imag))
            assert abs(total - budget) < 1e-9 * max(abs(budget), 1.0)

    def test_trace_identity_imaginary_part(self):
        # real f and R force the diagonal sum to be real
        spec = stable_spec(seed=17, n=4)
        ledger = ledger_for(spec)
        for w in (0.2, 1.7):
            c = ledger.intercept - 1j * w * ledger.angle
            assert abs(np.sum(c).imag) < 1e-10

    def test_degenerate_unit_oscillator_sum(self, undamped_scalar):
        # the per-mode split is gauge dependent; the trace is not
        ledger = ledger_for(undamped_scalar)
        assert_allclose(np.sum(ledger.intercept), 1.0, atol=1e-12)
        assert_allclose(np.sum(ledger.angle), 0.0, atol=1e-12)

    def test_requires_kick(self, damped_scalar):
        eig = eigendecompose(build_sqrt_kappa(damped_scalar))
        with pytest.raises(UnsupportedDrive):
            decompose_modes(eig, damped_scalar, MonochromaticDrive([1.0], 1.0))

    def test_linearity_in_amplitude(self):
        spec = stable_spec(seed=23, n=3)
        base = ledger_for(spec, KickDrive(np.ones(3)))
        scaled = ledger_for(spec, KickDrive(2.5 * np.ones(3)))
        assert_allclose(scaled.intercept, 2.5 * base.intercept, rtol=1e-13)
        assert_allclose(scaled.angle, 2.5 * base.angle, rtol=1e-13)


class TestReconstruct:
    @pytest.mark.parametrize("seed,n", [(51, 4), (52, 11)])
    def test_full_selection_equals_direct(self, seed, n):
        spec = stable_spec(seed=seed, n=n)
        ledger = ledger_for(spec)
        grid = np.linspace(0.05, 6.0, 200)
        rec = reconstruct_spectrum(ledger, np.arange(2 * n), grid)
        direct = polarizability_direct(spec, unit_kick(n), grid)
        scale = np.abs(direct.im_alpha).max()
        assert np.abs(rec.im_alpha - direct.im_alpha).max() < 1e-8 * scale

    def test_empty_selection(self, damped_scalar):
        ledger = ledger_for(damped_scalar)
        rec = reconstruct_spectrum(ledger, [], np.linspace(0.1, 3.0, 10))
        assert np.all(rec.im_alpha == 0.0)

    def test_scalar_closed_form(self, damped_scalar):
        ledger = ledger_for(damped_scalar)
        grid = np.linspace(0.2, 3.0, 40)
        rec = reconstruct_spectrum(ledger, [0, 1], grid)
        exact = np.imag(1.0 / (grid**2 + 1j * grid - 2.0))
        assert np.abs(rec.im_alpha - exact).max() < 1e-10

    @pytest.mark.parametrize(
        "selected",
        [[-1], [7, 7], [0.5], np.isin(np.arange(8), [2, 5]), [8]],
        ids=["negative", "repeated", "float", "boolean-mask", "too-large"],
    )
    def test_selection_it_cannot_honour_is_refused(self, selected):
        # these gave mode 7, twice mode 7, mode 0, 6 x mode 0 + 2 x mode 1
        # and a bare IndexError
        ledger = ledger_for(stable_spec(seed=53, n=4))
        with pytest.raises(ValueError, match=r"^selected must be distinct integers in \[0, 8\)$"):
            reconstruct_spectrum(ledger, selected, [0.5])

    def test_split_sums_to_total(self):
        spec = stable_spec(seed=53, n=4)
        ledger = ledger_for(spec)
        grid = np.linspace(0.1, 4.0, 37)
        rec = reconstruct_spectrum(ledger, np.arange(8), grid)
        assert_allclose(rec.im_alpha, rec.absorptive + rec.dispersive, rtol=0, atol=1e-15)


class TestFilters:
    def test_window_covering_all(self, damped_scalar):
        ledger = ledger_for(damped_scalar)
        sel = filter_eigenvalue(ledger, 0.0, np.abs(ledger.mu.real).max() + 1.0)
        assert sel.tolist() == [0, 1]

    def test_empty_window(self, damped_scalar):
        ledger = ledger_for(damped_scalar)
        assert filter_eigenvalue(ledger, 0.0, 0.0).size == 0

    def test_damped_scalar_window(self, damped_scalar):
        # |Re mu| = sqrt7/2 ~ 1.3229 for both modes
        ledger = ledger_for(damped_scalar)
        sel = filter_eigenvalue(ledger, 1.0, 1.5)
        assert sel.tolist() == [0, 1]

    def test_threshold_zero_keeps_nonzero(self):
        spec = stable_spec(seed=61, n=4)
        ledger = ledger_for(spec)
        sel = filter_intercept(ledger, 0.0)
        expected = np.flatnonzero(np.abs(ledger.intercept.real) > 0)
        assert np.array_equal(sel, expected)

    def test_threshold_above_max_empty(self):
        spec = stable_spec(seed=61, n=4)
        ledger = ledger_for(spec)
        assert filter_intercept(ledger, np.abs(ledger.intercept.real).max() + 1.0).size == 0

    def test_nested_thresholds(self):
        spec = stable_spec(seed=62, n=6)
        ledger = ledger_for(spec)
        big = set(filter_intercept(ledger, 0.05).tolist())
        small = set(filter_intercept(ledger, 0.01).tolist())
        assert big.issubset(small)

    def test_threshold_zero_reconstruction_error(self):
        spec = stable_spec(seed=63, n=5)
        ledger = ledger_for(spec)
        grid = np.linspace(0.05, 5.0, 120)
        sel = filter_intercept(ledger, 0.0)
        rec = reconstruct_spectrum(ledger, sel, grid)
        direct = polarizability_direct(spec, unit_kick(5), grid)
        scale = np.abs(direct.im_alpha).max()
        assert np.abs(rec.im_alpha - direct.im_alpha).max() < 1e-8 * scale
