"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report including elapsed times against the stated budgets.
"""

import time

import numpy as np
import pytest

from conftest import (
    characteristic_residual,
    fock_quadratic_hamiltonian,
    pairing_integral_numeric,
    scalar_spec,
    stable_spec,
)
from qpmedia.builders import (
    DrudeParams,
    build_drude_charge_model,
    hexagonal_disk,
    uniform_field_kick,
)
from qpmedia.errors import InconsistentInitialConditions
from qpmedia.medium import KickDrive, consistent_extended_ic
from qpmedia.openquantum import (
    SystemCoupling,
    classical_correlation,
    correlation_frequency,
    correlation_time,
    dissipator,
    thermal_correlation,
)
from qpmedia.oracles import (
    integrate_reference_extended,
    integrate_reference_second_order,
    on_shell_energy,
    polarizability_direct,
)
from qpmedia.phasespace import (
    GaussianState,
    consistent_mean,
    propagate_mean,
    propagator_at,
    thermal_state,
)
from qpmedia.pseudoboson import build_pseudoboson, coherent_params, commutator_matrix
from qpmedia.response import (
    decompose_modes,
    filter_eigenvalue,
    filter_intercept,
    reconstruct_spectrum,
)
from qpmedia.selfconsistent import auxiliary_response
from qpmedia.spectral import (
    build_similarity,
    build_sqrt_kappa,
    eigendecompose,
    prepare,
    symplectic_form,
)


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} ({self.label}): {status} [{elapsed:.2f}s / budget {self.budget:.0f}s]")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.1f}s)"
            )
        return False


def test_criterion_01_spectral_theorem():
    with _Criterion(1, "spectral theorem", 5.0):
        rng = np.random.default_rng(1001)
        for i in range(50):
            n = int(rng.integers(1, 21))
            spec = stable_spec(seed=2000 + i, n=n)
            eig = eigendecompose(build_sqrt_kappa(spec))
            for mu in eig.values:
                assert characteristic_residual(spec, -mu) < 1e-8


def test_criterion_02_dynamics_equivalence():
    with _Criterion(2, "dynamics equivalence", 10.0):
        rng = np.random.default_rng(1002)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        for i in range(20):
            n = int(rng.integers(1, 9))
            spec = stable_spec(seed=3000 + i, n=n)
            u0 = rng.standard_normal(n)
            v0 = rng.standard_normal(n)
            drive = KickDrive(rng.standard_normal(n)) if i % 2 else KickDrive(np.zeros(n))
            direct = integrate_reference_second_order(spec, drive, u0, v0, t)
            x0, xdot0 = consistent_extended_ic(spec, u0, v0, drive)
            extended = integrate_reference_extended(spec, drive, x0, xdot0, t)
            assert np.abs(extended.x[:, :n] - direct.u).max() < 1e-6
        # corrupted initial data must be rejected
        spec = stable_spec(seed=3999, n=3)
        x0, xdot0 = consistent_extended_ic(spec, np.ones(3), np.zeros(3))
        bad = xdot0.copy()
        bad[3:] = 0.0
        with pytest.raises(InconsistentInitialConditions):
            integrate_reference_extended(spec, KickDrive(np.zeros(3)), x0, bad, t[:100])


def test_criterion_03_similarity():
    with _Criterion(3, "similarity transform", 5.0):
        rng = np.random.default_rng(1003)
        for i in range(50):
            n = int(rng.integers(1, 13))
            spec = stable_spec(seed=4000 + i, n=n)
            ext = build_sqrt_kappa(spec)
            eig = eigendecompose(ext)
            A = build_similarity(eig)
            resid = np.linalg.norm(A @ ext.kappa.T @ np.linalg.inv(A) - ext.kappa)
            assert resid < 1e-10 * np.linalg.norm(ext.kappa)
            assert np.array_equal(A, A.T)


def test_criterion_04_decomposition_exactness():
    with _Criterion(4, "decomposition exactness", 10.0):
        rng = np.random.default_rng(1004)
        for i, n in enumerate((1, 3, 7, 12, 16, 20)):
            spec = stable_spec(seed=5000 + i, n=n)
            f = rng.standard_normal(n)
            eig = eigendecompose(build_sqrt_kappa(spec))
            ledger = decompose_modes(eig, spec, KickDrive(f))
            grid = np.linspace(0.05, 6.0, 200)
            rec = reconstruct_spectrum(ledger, np.arange(2 * n), grid)
            direct = polarizability_direct(spec, KickDrive(f), grid)
            scale = np.abs(direct.im_alpha).max()
            assert np.abs(rec.im_alpha - direct.im_alpha).max() < 1e-8 * scale


def test_criterion_05_sum_rule():
    with _Criterion(5, "sum rule", 2.0):
        rng = np.random.default_rng(1005)
        for i, n in enumerate((2, 5, 9)):
            spec = stable_spec(seed=6000 + i, n=n)
            f = rng.standard_normal(n)
            eig = eigendecompose(build_sqrt_kappa(spec))
            ledger = decompose_modes(eig, spec, KickDrive(f))
            budget = float(f @ spec.gen_coord_vector)
            for w in np.linspace(0.0, 6.0, 40):
                c = ledger.intercept - 1j * w * ledger.angle
                total = float(np.sum(c.real) + np.sum(c.imag))
                assert abs(total - budget) < 1e-9 * max(abs(budget), 1.0)


def test_criterion_06_filters():
    with _Criterion(6, "filter behavior", 5.0):
        spec = stable_spec(seed=7001, n=8)
        eig = eigendecompose(build_sqrt_kappa(spec))
        ledger = decompose_modes(eig, spec, KickDrive(np.ones(8)))
        grid = np.linspace(0.05, 6.0, 200)
        # nested selections under decreasing thresholds
        thresholds = (0.2, 0.1, 0.05, 0.01, 0.0)
        previous = None
        for thr in thresholds:
            sel = set(filter_intercept(ledger, thr).tolist())
            if previous is not None:
                assert previous.issubset(sel)
            previous = sel
        # threshold zero reproduces the full reconstruction
        direct = polarizability_direct(spec, KickDrive(np.ones(8)), grid)
        rec0 = reconstruct_spectrum(ledger, filter_intercept(ledger, 0.0), grid)
        scale = np.abs(direct.im_alpha).max()
        assert np.abs(rec0.im_alpha - direct.im_alpha).max() < 1e-8 * scale
        # a window covering every |Re mu| equals the full reconstruction
        full_window = filter_eigenvalue(ledger, 0.0, np.abs(ledger.mu.real).max() + 1.0)
        rec_ef = reconstruct_spectrum(ledger, full_window, grid)
        full = reconstruct_spectrum(ledger, np.arange(16), grid)
        assert np.abs(rec_ef.im_alpha - full.im_alpha).max() == 0.0


def test_criterion_07_symplectic_and_ehrenfest():
    with _Criterion(7, "symplecticity and Ehrenfest", 10.0):
        rng = np.random.default_rng(1007)
        spec = stable_spec(seed=8001, n=3)
        ext, _ = prepare(spec)
        J = symplectic_form(6)
        for t in rng.uniform(0.0, 10.0, size=10):
            lam = propagator_at(ext, t).lambda_t
            assert np.linalg.norm(lam @ J @ lam.T - J) < 1e-10
        # phase-space mean vs the reference integrator
        u0, v0 = rng.standard_normal(3), rng.standard_normal(3)
        drive = KickDrive(rng.standard_normal(3))
        x0, xdot0 = consistent_extended_ic(spec, u0, v0, drive)
        fine = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        oracle = integrate_reference_extended(spec, drive, x0, xdot0, fine)
        sample = fine[::100]
        means = propagate_mean(ext, drive, consistent_mean(ext, u0, v0, drive), sample)
        assert np.abs(means[:, 6:] - oracle.x[::100]).max() < 1e-6
        # on-shell energy residual
        for _ in range(20):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            h0 = on_shell_energy(ext, x)
            assert abs(h0) < 1e-10 * np.linalg.norm(x) ** 2 * np.linalg.norm(ext.kappa)


def test_criterion_08_pseudoboson_algebra():
    with _Criterion(8, "pseudo-boson algebra", 30.0):
        # commutation relations on random damped media
        for seed, n in ((9001, 2), (9002, 4), (9003, 6)):
            spec = stable_spec(seed=seed, n=n)
            basis = build_pseudoboson(eigendecompose(build_sqrt_kappa(spec)))
            assert np.abs(commutator_matrix(basis) - np.eye(2 * n)).max() < 1e-10
        # Hermitian limit reduces to conjugate ladder pairs
        rng = np.random.default_rng(1008)
        K = rng.standard_normal((3, 3))
        K = K @ K.T + 4.0 * np.eye(3)
        from qpmedia.medium import simple_spec

        herm = simple_spec(K, np.zeros((3, 3)))
        basis_h = build_pseudoboson(eigendecompose(build_sqrt_kappa(herm)))
        assert np.abs(basis_h.btilde_coeff - basis_h.b_coeff.conj()).max() < 1e-10
        # bi-orthogonality quadrature, decaying and oscillatory cases
        for k, g in ((1.0, 0.0), (2.0, 0.3), (1.5, 0.45)):
            spec1 = scalar_spec(k, g)
            basis1 = build_pseudoboson(eigendecompose(build_sqrt_kappa(spec1)))
            params = coherent_params(basis1, np.zeros(2))
            assert abs(pairing_integral_numeric(params) - 1.0) < 1e-6
        # canonical-form spectrum against a truncated Fock diagonalization
        spec2 = scalar_spec(2.0, 0.0)
        basis2 = build_pseudoboson(eigendecompose(build_sqrt_kappa(spec2)))
        P1 = basis2.mode_matrix
        A = (P1 @ P1.T).real
        pi_w = np.diag(A)
        x_w = np.diag(np.linalg.solve(A, 2.0 * np.eye(2)))
        H, _, _ = fock_quadratic_hamiltonian(pi_w, x_w, cutoff=20)
        evals = np.linalg.eigvalsh(H)
        for n1 in range(4):
            for n2 in range(4):
                e = float(np.sum(basis2.sqrtJK * (n1, n2)).real + 0.5 * np.sum(basis2.sqrtJK).real)
                assert np.abs(evals - e).min() < 1e-8


def test_criterion_09_auxiliary_field():
    with _Criterion(9, "auxiliary field response", 2.0):
        rng = np.random.default_rng(1009)
        for seed in (10001, 10002, 10003):
            spec = stable_spec(seed=seed, n=4)
            ext, _ = prepare(spec)
            A = ext.sim_A
            A1, A2, A3 = A[:4, :4], A[:4, 4:], A[4:, 4:]
            G = spec.damping
            for w in rng.uniform(0.1, 3.0, size=3):
                L = auxiliary_response(ext, w)
                h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                g = L @ h
                resid = (-1j * w * A2 - A3 - 2 * G @ A2) @ g - (
                    A2.T + 2 * G @ A1 + 1j * w * A1
                ) @ h
                assert np.abs(resid).max() < 1e-10 * max(np.abs(h).max(), 1.0)
        # undamped symmetric case in the identity gauge: L = -i omega I
        from conftest import seeded
        from qpmedia.medium import simple_spec

        K = rng.standard_normal((3, 3))
        K = K @ K.T + 4.0 * np.eye(3)
        ext_sym, _ = prepare(simple_spec(K, np.zeros((3, 3))))
        ext_id = seeded(ext_sym, sim_A=np.eye(6, dtype=complex))
        for w in (0.0, 0.9, 2.3):
            L = auxiliary_response(ext_id, w)
            assert np.abs(L - (-1j * w) * np.eye(3)).max() < 1e-12


def test_criterion_10_correlations():
    with _Criterion(10, "bath correlations", 60.0):
        rng = np.random.default_rng(1010)
        # hermiticity of gamma and the Lamb-shift matrix
        spec = stable_spec(seed=11001, n=3)
        ext, _ = prepare(spec)
        state = GaussianState(mean=np.zeros(12), cov=0.5 * np.eye(12), hbar=1.0)
        corr = correlation_frequency(ext, state, np.linspace(0.1, 3.0, 9), eta=1e-3)
        for i in range(9):
            g, s = corr.gamma[i], corr.s_ls[i]
            assert np.abs(g - g.conj().T).max() < 1e-12 * max(1.0, np.abs(g).max())
            assert np.abs(s - s.conj().T).max() < 1e-12 * max(1.0, np.abs(s).max())
        # time-domain quadrature against the resolvent formula (n = 1)
        spec1 = scalar_spec(2.0, 0.3)
        ext1, _ = prepare(spec1)
        state1 = GaussianState(mean=np.zeros(4), cov=0.5 * np.eye(4), hbar=1.0)
        omega, eta = 0.9, 0.8
        resolvent = correlation_frequency(ext1, state1, [omega], eta=eta)
        from scipy.linalg import expm

        horizon = 40.0 / (eta - 0.3)
        m = 40001
        ts = np.linspace(0.0, horizon, m)
        h = ts[1] - ts[0]
        step = expm(-ext1.gen_JB * h)
        cur = correlation_time(ext1, state1, 0.0)
        weights = np.ones(m)
        weights[1:-1:2] = 4.0
        weights[2:-2:2] = 2.0
        weights *= h / 3.0
        total = np.zeros((4, 4), dtype=complex)
        for i, t in enumerate(ts):
            total += weights[i] * np.exp((1j * omega - eta) * t) * cur
            cur = step @ cur
        assert np.abs(total[2:, 2:] - resolvent.xi[0]).max() < 1e-6
        # thermal two-route equivalence
        spec2 = stable_spec(seed=11002, n=2)
        ext2, _ = prepare(spec2)
        grid = np.linspace(0.2, 2.0, 5)
        beta, hbar = 1.4, 0.9
        direct = thermal_correlation(ext2, beta, hbar, grid, 1e-3)
        via_state = correlation_frequency(ext2, thermal_state(ext2, beta, hbar), grid, 1e-3)
        assert np.abs(direct.xi - via_state.xi).max() < 1e-9 * max(1.0, np.abs(direct.xi).max())
        # classical-limit convergence rate
        ref = classical_correlation(ext2, beta, grid, 1e-3)
        hbars = np.array([1e-2, 1e-3, 1e-4])
        errs = [np.abs(thermal_correlation(ext2, beta, hb, grid, 1e-3).xi - ref.xi).max() for hb in hbars]
        slope = np.polyfit(np.log(hbars), np.log(errs), 1)[0]
        assert abs(slope - 1.0) < 0.1
        # dissipator structure on 100 random densities
        w0 = 0.9
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        cpl = SystemCoupling(
            h_system=np.diag([0.0, w0]).astype(complex),
            site_potentials=(sx, 0.5 * sz),
            medium=ext2,
        )
        for _ in range(100):
            mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = mat @ mat.conj().T
            rho /= np.trace(rho)
            d = dissipator(cpl, 1.0, 1e-3, rho)
            scale = max(1.0, np.abs(d).max())
            assert abs(np.trace(d)) < 1e-12 * scale
            assert np.abs(d - d.conj().T).max() < 1e-12 * scale


def _drude_disk_spec(radius_angstrom):
    geom = hexagonal_disk(radius_angstrom, 2.434)
    params = DrudeParams(
        drude_factor=0.008,
        relaxation=0.004,
        gaussian_width=2.4,
        tunneling_enabled=True,
        tunneling_d0=6.0,
        tunneling_steepness=10.0,
    )
    spec = build_drude_charge_model(geom, params, response_axis=0)
    kick = uniform_field_kick(geom, params, direction=(1.0, 0.0, 0.0))
    return spec, kick


def test_criterion_11_scale_demo():
    with _Criterion(11, "scale demo n=1000", 300.0):
        from qpmedia.constants import HARTREE_TO_EV

        spec, kick = _drude_disk_spec(40.9)
        n = spec.n
        assert 950 <= n <= 1100, f"disk sizing off: n={n}"
        eig = eigendecompose(build_sqrt_kappa(spec))
        ledger = decompose_modes(eig, spec, KickDrive(kick))
        grid_ev = 0.01 + 0.01 * np.arange(700)
        grid = grid_ev / HARTREE_TO_EV
        full = reconstruct_spectrum(ledger, np.arange(2 * n), grid)
        direct = polarizability_direct(spec, KickDrive(kick), grid)
        scale = np.abs(direct.im_alpha).max()
        assert np.abs(full.im_alpha - direct.im_alpha).max() < 1e-8 * scale
        # the strongest-|Re intercept| tenth of the modes
        count = max(1, int(0.10 * ledger.n_modes))
        order = np.argsort(-np.abs(ledger.intercept.real), kind="stable")
        selected = np.sort(order[:count])
        reduced = reconstruct_spectrum(ledger, selected, grid)
        rel_l2 = np.linalg.norm(reduced.im_alpha - direct.im_alpha) / np.linalg.norm(
            direct.im_alpha
        )
        print(f"    scale demo: n={n}, IF top-10% relative L2 error = {rel_l2:.4f}")
        assert rel_l2 < 0.05


def test_criterion_12_qualitative_demo():
    with _Criterion(12, "qualitative plasmon demo", 120.0):
        from qpmedia.constants import HARTREE_TO_EV

        spec, kick = _drude_disk_spec(14.0)
        grid_ev = np.linspace(0.05, 7.0, 400)
        table = polarizability_direct(spec, KickDrive(kick), grid_ev / HARTREE_TO_EV)
        mag = np.abs(table.im_alpha)
        peak = int(np.argmax(mag))
        peak_ev = grid_ev[peak]
        print(f"    qualitative demo: n={spec.n}, dominant peak at {peak_ev:.2f} eV")
        # one dominant low-energy absorption resonance
        assert peak_ev < 3.0
        assert mag[peak] > 10.0 * np.median(mag)
