import tracemalloc
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    assert_multiset_close, characteristic_residual, complex_spec, seeded, small_drude_disk,
    stable_spec,
)
from qpmedia.errors import DefectiveMatrix, ResonantFrequency, SingularSimilarity
from qpmedia.medium import extended_kernel, simple_spec
from qpmedia import builders, openquantum, oracles, phasespace, response, selfconsistent, spectral
from qpmedia.medium import KickDrive
from qpmedia.oracles import build_JB, on_shell_energy
from qpmedia.spectral import (
    DEFECTIVE_COND_THRESHOLD,
    SINGULAR_A_COND_THRESHOLD,
    ExtendedOperator,
    attach_JB,
    attach_similarity,
    build_similarity,
    build_sqrt_kappa,
    eigendecompose,
    prepare,
)


class TestSqrtKappa:
    def test_block_formula_hand_value(self, damped_scalar):
        ext = build_sqrt_kappa(damped_scalar)
        assert_allclose(ext.kappa, [[2.0, 1.0], [-2.0, 1.0]], atol=1e-15)

    def test_undamped_decoupling(self, undamped_scalar):
        ext = build_sqrt_kappa(undamped_scalar)
        assert_allclose(ext.kappa, np.eye(2), atol=1e-15)
        assert_allclose(ext.sqrt_kappa, 1j * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)

    @pytest.mark.parametrize("seed,n", [(1, 2), (2, 5), (3, 8)])
    def test_square_identity(self, seed, n):
        spec = stable_spec(seed=seed, n=n)
        ext = build_sqrt_kappa(spec)
        resid = np.linalg.norm(ext.sqrt_kappa @ ext.sqrt_kappa - ext.kappa)
        assert resid < 1e-12 * np.linalg.norm(ext.kappa)


class TestEigendecompose:
    def test_damped_scalar_roots(self, damped_scalar):
        # Sp{-sqrt_kappa} from the quadratic formula on w^2 + i w - 2 = 0
        eig = eigendecompose(build_sqrt_kappa(damped_scalar))
        got = np.sort_complex(-eig.values)
        s7 = np.sqrt(7.0)
        expected = np.sort_complex(np.array([(s7 - 1j) / 2, (-s7 - 1j) / 2]))
        assert_allclose(got, expected, atol=1e-12)

    def test_undamped_real_pair(self, undamped_scalar):
        eig = eigendecompose(build_sqrt_kappa(undamped_scalar))
        assert_allclose(eig.values, [-1.0, 1.0], atol=1e-12)
        assert np.abs(eig.values.imag).max() < 1e-14

    def test_characteristic_residual_random(self):
        spec = stable_spec(seed=21, n=6)
        eig = eigendecompose(build_sqrt_kappa(spec))
        for mu in eig.values:
            assert characteristic_residual(spec, -mu) < 1e-8

    def test_sort_and_determinism(self):
        spec = stable_spec(seed=8, n=5)
        a = eigendecompose(build_sqrt_kappa(spec))
        b = eigendecompose(build_sqrt_kappa(spec))
        order = np.lexsort((a.values.imag, a.values.real))
        assert np.array_equal(order, np.arange(a.values.size))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.right_vectors, b.right_vectors)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_real_medium_matches_complex_eig(self, n, seed):
        # real K and Gamma take the real eigensolver; the complex one on
        # sqrt_kappa itself is the oracle
        spec = stable_spec(seed=seed, n=n)
        assert not np.any(spec.kernel.imag) and not np.any(spec.damping.imag)
        ext = build_sqrt_kappa(spec)
        eig = eigendecompose(ext)
        oracle = np.linalg.eigvals(ext.sqrt_kappa)
        assert_multiset_close(eig.values, oracle, tol=1e-10 * np.abs(oracle).max())
        V = eig.right_vectors
        resid = np.linalg.norm(ext.sqrt_kappa @ V - V * eig.values)
        assert resid < 1e-12 * np.linalg.norm(ext.sqrt_kappa)
        # real arithmetic: conjugate pairs and Re mu = 0 are exact
        mirror = -np.conj(eig.values)
        assert np.array_equal(np.sort_complex(eig.values), np.sort_complex(mirror))

    def test_overdamped_scalar_purely_imaginary(self):
        # M = [[0, -1], [1, 4]] has the real roots 2 -/+ sqrt(3)
        eig = eigendecompose(build_sqrt_kappa(simple_spec([[1.0]], [[2.0]])))
        assert eig.values.dtype == complex and eig.right_vectors.dtype == complex
        assert np.all(eig.values.real == 0.0)
        assert_allclose(eig.values.imag, [2.0 - np.sqrt(3.0), 2.0 + np.sqrt(3.0)], rtol=1e-14)

    @pytest.mark.parametrize("part", ["kernel", "damping"])
    def test_complex_medium_decomposes(self, part):
        spec = stable_spec(seed=12, n=4)
        rng = np.random.default_rng(12)
        spec = replace(spec, **{part: getattr(spec, part) + 0.05j * rng.standard_normal((4, 4))})
        ext = build_sqrt_kappa(spec)
        eig = eigendecompose(ext)
        V = eig.right_vectors
        resid = np.linalg.norm(ext.sqrt_kappa @ V - V * eig.values)
        assert resid < 1e-12 * np.linalg.norm(ext.sqrt_kappa)
        oracle = np.linalg.eigvals(ext.sqrt_kappa)
        assert_multiset_close(eig.values, oracle, tol=1e-10 * np.abs(oracle).max())

    def test_defective_raises(self):
        # nilpotent kernel: all extended eigenvalues are a single Jordan chain
        spec = simple_spec([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
        with pytest.raises(DefectiveMatrix, match=r"cond\(V\) = .* exceeds 1\.0e\+08"):
            eigendecompose(build_sqrt_kappa(spec))


class TestSimilarity:
    def test_symmetric_limit(self):
        # K = K^T, Gamma = 0: residual of the defining transform vanishes
        rng = np.random.default_rng(4)
        K = rng.standard_normal((3, 3))
        K = K @ K.T + 3 * np.eye(3)
        spec = simple_spec(K, np.zeros((3, 3)))
        ext = build_sqrt_kappa(spec)
        eig = eigendecompose(ext)
        A = build_similarity(eig)
        resid = np.linalg.norm(A @ ext.kappa.T @ np.linalg.inv(A) - ext.kappa)
        assert resid < 1e-10 * np.linalg.norm(ext.kappa)
        assert np.array_equal(A, A.T)

    def test_defective_eigensystem_rejected(self):
        # two nearly parallel eigenvectors: cond(V) ~ 4e10, past the threshold
        V = np.array([[1.0, 1.0], [0.0, 1e-10]], dtype=complex)
        with pytest.raises(DefectiveMatrix, match=r"cond\(V\) = .* exceeds 1\.0e\+08"):
            spectral._eigensystem(np.array([1.0, 2.0], dtype=complex), V)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_similarity_residual(self, seed):
        spec = stable_spec(seed=seed, n=5)
        ext = build_sqrt_kappa(spec)
        eig = eigendecompose(ext)
        A = build_similarity(eig)
        resid = np.linalg.norm(A @ ext.kappa.T @ np.linalg.inv(A) - ext.kappa)
        assert resid < 1e-10 * np.linalg.norm(ext.kappa)
        assert np.array_equal(A, A.T)


class TestGenerator:
    def test_undamped_spectrum(self, undamped_scalar):
        ext, eig = prepare(undamped_scalar)
        vals = np.linalg.eigvals(ext.gen_JB)
        assert_multiset_close(vals, [1j, 1j, -1j, -1j], tol=1e-10)

    @pytest.mark.parametrize("seed,n", [(41, 3), (42, 6)])
    def test_plus_minus_image(self, seed, n):
        spec = stable_spec(seed=seed, n=n)
        ext, eig = prepare(spec)
        got = np.linalg.eigvals(ext.gen_JB)
        expected = np.concatenate([1j * eig.values, -1j * eig.values])
        assert_multiset_close(got, expected, tol=1e-8)

    def test_hermitian_limit_purely_imaginary(self):
        rng = np.random.default_rng(6)
        K = rng.standard_normal((3, 3))
        K = K @ K.T + 4 * np.eye(3)
        spec = simple_spec(K, np.zeros((3, 3)))
        ext, _ = prepare(spec)
        vals = np.linalg.eigvals(ext.gen_JB)
        assert np.abs(vals.real).max() < 1e-9


def _vacuum(n):
    return phasespace.GaussianState(mean=np.zeros(4 * n), cov=0.5 * np.eye(4 * n))


JB_CONSUMERS = {
    "propagator_at": lambda ext, spec: phasespace.propagator_at(ext, 0.5),
    "propagate_mean": lambda ext, spec: phasespace.propagate_mean(
        ext, None, np.zeros(4 * spec.n), [0.0, 0.5]
    ),
    "correlation_time": lambda ext, spec: openquantum.correlation_time(
        ext, _vacuum(spec.n), 0.5
    ),
}


def _bytes(result):
    """dtype, shape and bytes of every array and scalar in a consumer's result.

    Dataclasses are taken field by field through ``vars``, so an operator
    shows its cached eigensystem and A next to its fields.
    """
    if result is None:
        return None
    if is_dataclass(result):
        return {k: _bytes(v) for k, v in vars(result).items()}
    if isinstance(result, tuple):
        return [_bytes(v) for v in result]
    a = np.asarray(result)
    return a.dtype.str, a.shape, a.tobytes()


def _check_bare_operator(monkeypatch, medium, call):
    """``call`` on a bare build_sqrt_kappa operator equals it on a prepared one, byte for byte.

    The bare operator builds its eigensystem on first read: one
    eigendecompose call.
    """
    want = _bytes(call(prepare(medium())[0]))
    calls = []
    real = spectral.eigendecompose

    def counting(ext):
        calls.append(ext)
        return real(ext)

    monkeypatch.setattr(spectral, "eigendecompose", counting)
    ext = build_sqrt_kappa(medium())
    assert _bytes(call(ext)) == want
    assert calls == [ext]


@pytest.mark.parametrize("consumer", sorted(JB_CONSUMERS))
def test_every_generator_consumer_needs_JB(consumer, monkeypatch):
    # exp(J_B t) of a medium with no zero mode, handed a bare operator, reads
    # the eigensystem that the operator builds on first read
    spec = stable_spec(seed=43, n=2)
    _check_bare_operator(monkeypatch, lambda: spec, lambda ext: JB_CONSUMERS[consumer](ext, spec))


_DISK_KICK = KickDrive(np.ones(7))

# (medium, call): every function of J_B reads only the sqrt_kappa eigensystem,
# also where J_B is defective (the disk's charge mode)
EIG_CONSUMERS = {
    "decompose_generator": (small_drude_disk, phasespace.decompose_generator),
    "thermal_state": (
        lambda: stable_spec(seed=43, n=2),
        lambda ext: phasespace.thermal_state(ext, 1.0, 1.0),
    ),
    "thermal_correlation": (
        lambda: stable_spec(seed=43, n=2),
        lambda ext: openquantum.thermal_correlation(ext, 1.0, 1.0, [0.5], 1e-3),
    ),
    "propagator_at": (
        small_drude_disk, lambda ext: phasespace.propagator_at(ext, 0.5, drive=_DISK_KICK)
    ),
    "propagate_mean": (
        small_drude_disk,
        lambda ext: phasespace.propagate_mean(ext, _DISK_KICK, np.zeros(28), [0.0, 0.5]),
    ),
    "correlation_time": (
        small_drude_disk, lambda ext: openquantum.correlation_time(ext, _vacuum(7), 0.5)
    ),
}


@pytest.mark.parametrize("consumer", sorted(EIG_CONSUMERS))
def test_every_sqrt_kappa_eigensystem_consumer_needs_it(consumer, monkeypatch):
    _check_bare_operator(monkeypatch, *EIG_CONSUMERS[consumer])


A_CONSUMERS = {
    "auxiliary_response": lambda ext, spec: selfconsistent.auxiliary_response(ext, 0.5),
    "build_JB": lambda ext, spec: build_JB(ext),
    "attach_JB": lambda ext, spec: attach_JB(ext),
    "gen_JB": lambda ext, spec: ext.gen_JB,
    "on_shell_energy": lambda ext, spec: on_shell_energy(ext, np.ones(2 * spec.n)),
    "drive_vector": lambda ext, spec: phasespace._drive_vector(
        ext, (np.ones(spec.n), np.zeros(spec.n))
    ),
    "consistent_mean": lambda ext, spec: phasespace.consistent_mean(
        ext, np.ones(spec.n), np.zeros(spec.n)
    ),
    # the frequency sweeps read A and kappa through spectral._resolvent_x, not J_B
    "classical_correlation": lambda ext, spec: openquantum.classical_correlation(
        ext, 1.0, [0.5], 1e-3
    ),
    "correlation_frequency": lambda ext, spec: openquantum.correlation_frequency(
        ext, _vacuum(spec.n), [0.5], 1e-3
    ),
    "mean_in_frequency": lambda ext, spec: phasespace.mean_in_frequency(
        ext, KickDrive(np.ones(spec.n)), [0.5]
    ),
    "scattering_rows": lambda ext, spec: selfconsistent.scattering_rows(ext, 0.5),
}


@pytest.mark.parametrize("consumer", sorted(A_CONSUMERS))
def test_every_similarity_consumer_needs_A(consumer, monkeypatch):
    # A is built on first read from the eigensystem, itself built on first read
    spec = stable_spec(seed=43, n=2)
    _check_bare_operator(monkeypatch, lambda: spec, lambda ext: A_CONSUMERS[consumer](ext, spec))


@pytest.mark.parametrize("medium", [lambda: stable_spec(seed=41, n=3), complex_spec])
def test_JB_is_built_on_first_read_from_the_attached_A(medium):
    ext, _ = prepare(medium())
    assert "gen_JB" not in vars(ext)
    A, kappa, N = ext.sim_A, ext.kappa, 2 * ext.n
    want = np.zeros((2 * N, 2 * N), dtype=np.result_type(A, kappa))
    want[:N, N:] = np.linalg.solve(A, kappa)
    want[N:, :N] = -A
    JB = ext.gen_JB
    assert JB.dtype == want.dtype and np.array_equal(JB, want)
    assert ext.gen_JB is JB
    # an operator seeded with another A builds its own J_B from that A
    other = seeded(ext, sim_A=2.0 * A)
    assert other.gen_JB is not JB
    assert np.array_equal(other.gen_JB[:N, N:], np.linalg.solve(2.0 * A, kappa))
    assert np.array_equal(other.gen_JB[N:, :N], -2.0 * A)


def test_generator_is_decomposed_once_per_operator(monkeypatch):
    # prepare decomposed sqrt_kappa; no function of J_B decomposes anything
    spec = stable_spec(seed=44, n=2)
    ext, _ = prepare(spec)
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    phasespace.thermal_state(ext, 1.0, 1.0)
    openquantum.thermal_correlation(ext, 1.0, 1.0, [0.5], 1e-3)
    openquantum.correlation_time(ext, _vacuum(spec.n), 0.3)
    openquantum.correlation_time(ext, _vacuum(spec.n), 0.7)
    phasespace.propagator_at(ext, 0.5)
    # an operator seeded with the eigensystem decomposes nothing either
    phasespace.propagator_at(seeded(ext, sim_A=ext.sim_A.copy(), eig=ext.eig), 0.5)
    assert calls == []


def test_kappa_route_decomposes_sqrt_kappa_once_per_operator(monkeypatch):
    # exp(J_B t) is built on the sqrt_kappa eigensystem, which the
    # scalar-damping disk takes from the 7 x 7 eig of K in prepare
    ext, _ = prepare(small_drude_disk())
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    kick = KickDrive(np.ones(7))
    phasespace.propagate_mean(ext, kick, np.zeros(28, dtype=complex), [0.0, 0.5, 1.0])
    phasespace.propagator_at(ext, 0.7, drive=kick)
    openquantum.correlation_time(ext, _vacuum(7), 0.3)
    # an operator seeded with the eigensystem: nothing is decomposed again
    other = seeded(ext, sim_A=ext.sim_A.copy(), eig=ext.eig)
    assert other.eig is ext.eig
    phasespace.propagator_at(other, 0.7, drive=kick)
    assert calls == []


def test_exp_JB_callers_take_no_4n_decomposition(monkeypatch):
    # every dense eig, SVD, condition number (an SVD) and inverse that the
    # exp(J_B t) callers take is of a 2n matrix at most; J_B is 4n x 4n
    n = 40
    ext, _ = prepare(builders.build_synthetic(n, 1))
    shapes = []
    for name in ("eig", "svd", "cond", "inv"):

        def spy(a, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    kick = KickDrive(np.ones(n))
    phasespace.propagate_mean(ext, kick, np.zeros(4 * n, dtype=complex), [0.0, 0.01])
    phasespace.propagator_at(ext, 0.5, drive=kick)
    openquantum.correlation_time(ext, _vacuum(n), 0.3)
    assert all(max(shape) <= 2 * n for shape in shapes), shapes


class TestOnShell:
    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            spec = stable_spec(seed=60 + seed, n=4)
            ext, _ = prepare(spec)
            for _ in range(4):
                x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                h0 = on_shell_energy(ext, x)
                scale = np.linalg.norm(x) ** 2 * np.linalg.norm(ext.kappa)
                assert abs(h0) < 1e-10 * scale

    def test_zero_vector(self, damped_scalar):
        ext, _ = prepare(damped_scalar)
        assert on_shell_energy(ext, np.zeros(2)) == 0.0

    def test_unit_oscillator(self, undamped_scalar):
        ext, _ = prepare(undamped_scalar)
        assert abs(on_shell_energy(ext, np.array([1.0, 0.0]))) < 1e-12


# ---------------------------------------------------------------------------
# Real basis of a real medium, against the complex route as the oracle
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _drude_disk(radius):
    geom = builders.hexagonal_disk(radius, 2.434)
    params = builders.DrudeParams(
        drude_factor=0.008,
        relaxation=0.004,
        gaussian_width=2.4,
        tunneling_enabled=True,
        tunneling_d0=6.0,
        tunneling_steepness=10.0,
    )
    return builders.build_drude_charge_model(geom, params, response_axis=0)


def _random_real_medium(kind, seed, n):
    """A real medium of one of five kinds; "duplicated" repeats every pair
    exactly, and "scalar" has Gamma = gamma I with gamma^2 inside K's
    spectrum, so that under- and overdamped modes mix."""
    if kind == "drude":
        # conserved charge: one zero mode and its 2 i gamma partner
        return _drude_disk((4.0, 6.0, 8.0)[seed % 3])
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, n))
    K = base @ base.T / n + rng.uniform(0.5, 3.0) * np.eye(n)
    K = K + 0.3 * rng.standard_normal((n, n)) / n
    if kind == "scalar":
        kappa = np.linalg.eigvals(K).real
        gamma = np.sqrt(rng.uniform(max(kappa.min(), 0.0), kappa.max()))
        return simple_spec(K, gamma * np.eye(n))
    G = np.diag(rng.uniform(0.0, 4.0 if kind == "overdamped" else 0.5, n))
    if kind == "duplicated":
        Z = np.zeros((n, n))
        K, G = np.block([[K, Z], [Z, K]]), np.block([[G, Z], [Z, G]])
    return simple_spec(K, G)


def _spy_eigensystem(decompose, ext):
    """Run ``decompose(ext)`` and return the (values, vectors, pairs) of its one
    ``_eigensystem`` call (also when it raises)."""
    seen = {}
    constructor = spectral._eigensystem

    def spy(values, vectors, pairs=None):
        seen["args"] = (values, vectors, pairs)
        return constructor(values, vectors, pairs)

    with mock.patch.object(spectral, "_eigensystem", spy):
        try:
            decompose(ext)
        except DefectiveMatrix:
            pass
    return seen["args"]


def _check_against_complex_oracle(args):
    """The real basis reproduces cond(V), V^{-1} and the pairing of V.

    Returns the EigenSystem of ``args``, or None where cond(V) rejects it.
    """
    _, V, pairs = args
    m = V.shape[0]
    partner = np.arange(m)
    partner[pairs[0]], partner[pairs[1]] = pairs[1], pairs[0]
    assert np.array_equal(V[:, partner], V.conj())
    cond = np.linalg.cond(V)
    if not (np.isfinite(cond) and cond <= DEFECTIVE_COND_THRESHOLD):
        with pytest.raises(DefectiveMatrix):
            spectral._eigensystem(*args)
        return None
    eig = spectral._eigensystem(*args)
    assert np.isrealobj(eig.basis)
    # the two routes round differently: cond(V) is held to the larger of 1e-10
    # and the first-order bound m eps cond(V) relative, and V^{-1} to the
    # larger of the oracle's residual and that bound
    assert abs(eig.cond - cond) <= max(1e-10, m * EPS * cond) * cond
    oracle = np.linalg.norm(np.linalg.inv(V) @ V - np.eye(m))
    got = np.linalg.norm(eig.inverse_vectors @ V - np.eye(m))
    assert got <= max(oracle, m * EPS * cond)
    return eig


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["plain", "overdamped", "drude", "duplicated", "scalar"]),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 8),
)
# cond(V) = 9.9e7: the two SVDs differ by 1.2e-9 relative, within m eps cond(V)
@example(kind="scalar", seed=631, n=1)
def test_real_basis_matches_complex_route(kind, seed, n):
    spec = _random_real_medium(kind, seed, n)
    ext = build_sqrt_kappa(spec)
    eig = _check_against_complex_oracle(_spy_eigensystem(eigendecompose, ext))
    if eig is None:
        return
    ext = seeded(ext, eig=eig)
    V = eig.right_vectors
    oracle_A = V @ V.T
    oracle_A = (oracle_A + oracle_A.T) / 2.0
    if np.linalg.cond(oracle_A) > SINGULAR_A_COND_THRESHOLD:
        with pytest.raises(SingularSimilarity):
            attach_similarity(ext)
        return
    ext = attach_JB(attach_similarity(ext))
    assert ext.sim_A.dtype == np.float64 and ext.gen_JB.dtype == np.float64
    A = ext.sim_A
    assert np.linalg.norm(A - oracle_A) <= 1e-12 * np.linalg.norm(oracle_A)
    oracle_X = np.linalg.solve(oracle_A, ext.kappa)
    X = ext.gen_JB[: 2 * spec.n, 2 * spec.n :]
    # gamma^2 inside K's spectrum puts modes next to critical damping, where
    # A is ill-conditioned; there the dense route's A^{-1} kappa misses 1e-12
    # as well, and both stay within 0.75 eps cond(A) of the oracle
    tol = max(1e-12, 2 * spec.n * EPS * np.linalg.cond(A)) if kind == "scalar" else 1e-12
    assert np.linalg.norm(X - oracle_X) <= tol * np.linalg.norm(oracle_X)
    # J_B: the real eigensolver, paired from its raw column adjacency
    _check_against_complex_oracle(spectral._eig(ext.gen_JB))


def _loop_normalize_columns(vectors):
    """A normalized copy of ``vectors``, one column at a time: the oracle that
    spectral._normalize_columns's array operations match bit for bit."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        v = out[:, k] / np.linalg.norm(out[:, k])
        mags = np.abs(v)
        j = int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))
        out[:, k] = v * (mags[j] / v[j])
    return out


def _parent_eigendecompose(ext):
    """sqrt_kappa's eigenvalues and normalized V as sorted before the real basis."""
    M = -1j * ext.sqrt_kappa
    if not np.any(M.imag):
        M = M.real
    lam, vectors = np.linalg.eig(M)
    values = 1j * lam
    vectors = vectors.astype(complex, copy=False)
    order = np.lexsort((values.imag, values.real))
    return values[order], _loop_normalize_columns(vectors[:, order])


def _loop_eigendecompose(ext):
    """eigendecompose's EigenSystem with the sort's second copy and the column loop."""
    gamma, n = spectral._scalar_damping(ext.root), ext.n
    if gamma is None:
        lam, vectors, pairs = spectral._eig(ext.root)
    else:
        lam, vectors, pairs = spectral._scalar_damping_eig(ext.root[n:, :n], gamma)
    values = 1j * lam
    order = np.lexsort((values.imag, values.real))
    if pairs is not None:
        pairs = np.argsort(order)[pairs]
    return spectral._eigensystem(values[order], _loop_normalize_columns(vectors[:, order]), pairs)


def _check_vectorized_normalization(spec):
    ext = build_sqrt_kappa(spec)
    try:
        want = _loop_eigendecompose(ext)
    except DefectiveMatrix:
        with pytest.raises(DefectiveMatrix):
            eigendecompose(ext)
        return
    got = eigendecompose(ext)
    for name in ("values", "right_vectors", "inverse_vectors", "basis", "signs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.cond == want.cond
    assert got.right_vectors.flags.c_contiguous


@pytest.mark.parametrize(
    "medium",
    [
        small_drude_disk,
        lambda: _drude_disk(8.0),
        lambda: builders.build_synthetic(40, 1),
        complex_spec,
        lambda: simple_spec([[2.0]], [[0.1]]),
    ],
    ids=["disk", "disk-37", "synthetic", "complex", "n=1"],
)
def test_vectorized_normalization_keeps_the_eigensystem_bits(medium):
    _check_vectorized_normalization(medium())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 12))
def test_vectorized_normalization_keeps_random_eigensystem_bits(seed, n):
    _check_vectorized_normalization(stable_spec(seed=seed, n=n))


def test_eigendecompose_holds_one_eigenvector_copy_above_its_result():
    # the raw eigenvectors are dropped once sorted, and the sorted copy is
    # normalized in place: above the returned eigensystem, the peak holds
    # one 2n x 2n complex array (the raw one, while the sort copies it)
    ext = build_sqrt_kappa(_drude_disk(14.0))
    eigendecompose(ext)
    tracemalloc.start()
    try:
        eig = eigendecompose(ext)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current <= 1.1 * eig.right_vectors.nbytes


@pytest.mark.parametrize("kind", ["plain", "overdamped", "duplicated"])
def test_real_medium_eigensystem_is_unchanged(kind):
    ext = build_sqrt_kappa(_random_real_medium(kind, 5, 6))
    values, vectors = _parent_eigendecompose(ext)
    eig = eigendecompose(ext)
    assert np.array_equal(eig.values, values)
    assert np.array_equal(eig.right_vectors, vectors)


def _eig_dims(monkeypatch):
    """The sizes of the matrices np.linalg.eig is called on, from now on."""
    dims = []
    eig = np.linalg.eig

    def counting_eig(a):
        dims.append(a.shape[0])
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    return dims


def _clusters(mu, tol):
    """Labels of the connected components of the graph |mu_i - mu_j| < tol."""
    near = np.abs(mu[:, None] - mu[None, :]) < tol
    labels = np.arange(mu.size)
    while True:
        spread = np.min(np.where(near, labels[None, :], mu.size), axis=1)
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def _check_scalar_route(spec, dims):
    """Gamma = gamma I decomposes from the n x n eig of K; its bits differ
    from the dense 2n route, so it is held to that route numerically."""
    ext = build_sqrt_kappa(spec)
    del dims[:]
    eig = eigendecompose(ext)
    assert dims == [spec.n]
    values, V = _parent_eigendecompose(ext)
    dense = spectral._eigensystem(values, V)
    scale = np.abs(values).max()
    assert_multiset_close(eig.values, values, tol=1e-12 * scale)
    m = values.size
    S, W = ext.sqrt_kappa, eig.right_vectors
    resid = np.linalg.norm(S @ W - W * eig.values)
    assert resid <= m * EPS * np.linalg.norm(S) * eig.cond
    # per-mode intercepts follow the eigensolver inside near-degenerate
    # clusters; their sums over each cluster do not
    kick = KickDrive(spec.gen_coord_vector.astype(complex))
    ours = response.decompose_modes(eig, spec, kick)
    theirs = response.decompose_modes(dense, spec, kick)
    labels = _clusters(np.concatenate([ours.mu, theirs.mu]), 1e-6 * scale)
    total = np.abs(theirs.intercept).sum()
    for label in np.unique(labels):
        a, b = labels[:m] == label, labels[m:] == label
        assert a.sum() == b.sum()
        gap = abs(ours.intercept[a].sum() - theirs.intercept[b].sum())
        assert gap <= 1e-10 * total
    grid = np.linspace(0.05, 1.2, 120) * np.abs(values.real).max()
    direct = oracles.polarizability_direct(spec, kick, grid).im_alpha
    rebuilt = response.reconstruct_spectrum(ours, range(m), grid).im_alpha
    assert np.abs(rebuilt - direct).max() <= 1e-8 * np.abs(direct).max()


@pytest.mark.parametrize("kind", ["drude", "scalar"])
def test_scalar_damping_route_matches_dense_route(kind, monkeypatch):
    dims = _eig_dims(monkeypatch)
    for seed in range(3 if kind == "drude" else 12):
        _check_scalar_route(_random_real_medium(kind, seed, 2 + seed % 7), dims)


@pytest.mark.parametrize("kappa,gamma", [([1.0, 4.0], 1.0), ([4.0, 1.0, 0.5], 2.0)])
def test_critical_damping_is_defective_on_both_routes(kappa, gamma, monkeypatch):
    # kappa = gamma^2 is a 2x2 Jordan block of M
    ext = build_sqrt_kappa(simple_spec(np.diag(kappa), gamma * np.eye(len(kappa))))
    dims = _eig_dims(monkeypatch)
    with pytest.raises(DefectiveMatrix):
        eigendecompose(ext)
    assert dims == [len(kappa)]
    with pytest.raises(DefectiveMatrix):
        spectral._eigensystem(*_parent_eigendecompose(ext))


def _off_scalar(case):
    spec = _random_real_medium("scalar", 3, 5)
    G = spec.damping.copy()
    if case == "one off-diagonal ulp":
        G[0, 1] = np.nextafter(0.0, 1.0)
    elif case == "one diagonal ulp":
        G[1, 1] = np.nextafter(G[1, 1].real, np.inf)
    elif case == "complex gamma":
        G = G + 0.01j * np.eye(5)
    else:  # a 1x1 Gamma is always scalar
        return simple_spec([[2.0]], [[0.1]])
    return replace(spec, damping=G)


@pytest.mark.parametrize("case", ["one off-diagonal ulp", "one diagonal ulp", "complex gamma", "n = 1"])
def test_non_scalar_damping_keeps_the_dense_route(case, monkeypatch):
    ext = build_sqrt_kappa(_off_scalar(case))
    dims = _eig_dims(monkeypatch)
    eig = eigendecompose(ext)
    assert dims == [2 * ext.n]
    values, V = _parent_eigendecompose(ext)
    assert np.array_equal(eig.values, values)
    assert np.array_equal(eig.right_vectors, V)


@pytest.mark.parametrize("part", ["kernel", "damping"])
def test_complex_medium_takes_the_complex_route_bit_for_bit(part):
    spec = stable_spec(seed=12, n=5)
    rng = np.random.default_rng(12)
    spec = replace(spec, **{part: getattr(spec, part) + 0.05j * rng.standard_normal((5, 5))})
    ext, eig = prepare(spec)
    values, V = _parent_eigendecompose(build_sqrt_kappa(spec))
    assert np.array_equal(eig.values, values) and np.array_equal(eig.right_vectors, V)
    assert np.array_equal(eig.basis, V)
    assert np.array_equal(eig.signs, np.ones(V.shape[0]))
    assert eig.cond == float(np.linalg.cond(V))
    assert np.array_equal(eig.inverse_vectors, np.linalg.inv(V))
    A = V @ V.T
    A = (A + A.T) / 2.0
    assert np.array_equal(ext.sim_A, A)
    assert ext.gen_JB.dtype == complex
    assert np.array_equal(ext.gen_JB[:10, 10:], np.linalg.solve(A, ext.kappa))
    assert np.array_equal(ext.gen_JB[10:, :10], -A)


def _complex_route(ext):
    """``ext`` with A and J_B built in complex arithmetic from the complex V."""
    eig = eigendecompose(ext)
    V = eig.right_vectors
    A = V @ V.T
    A = (A + A.T) / 2.0
    N = 2 * ext.n
    JB = np.zeros((2 * N, 2 * N), dtype=complex)
    JB[:N, N:] = np.linalg.solve(A, ext.kappa)
    JB[N:, :N] = -A
    ext = seeded(ext, sim_A=A, eig=eig)
    # the J_B built on read from the complex A is this one, bit for bit
    assert np.array_equal(ext.gen_JB, JB)
    return ext


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)


def test_real_route_outputs_match_complex_route():
    # bath, propagate and field outputs of a real medium, real A and J_B
    # against the complex ones
    spec = stable_spec(seed=91, n=5)
    ext, _ = prepare(spec)
    ref = _complex_route(build_sqrt_kappa(spec))
    grid = np.linspace(0.2, 2.0, 7)
    for route in (openquantum.thermal_correlation, openquantum.classical_correlation):
        args = (1.0, 1.0) if route is openquantum.thermal_correlation else (1.0,)
        assert _rel(route(ext, *args, grid, 1e-3).xi, route(ref, *args, grid, 1e-3).xi) < 1e-10
    q0 = np.zeros(20, dtype=complex)
    q0[12] = 1.0
    kick = KickDrive(np.ones(5))
    t_grid = [0.0, 0.05, 0.1]
    want = phasespace.propagate_mean(ref, kick, q0, t_grid)
    assert _rel(phasespace.propagate_mean(ext, kick, q0, t_grid), want) < 1e-10
    assert _rel(selfconsistent.scattering_rows(ext, 0.7), selfconsistent.scattering_rows(ref, 0.7)) < 1e-10
    assert _rel(selfconsistent.auxiliary_response(ext, 0.7), selfconsistent.auxiliary_response(ref, 0.7)) < 1e-10


def test_real_medium_stores_one_real_root():
    spec = builders.build_synthetic(8, 1)
    ext, _ = prepare(spec)
    N = 2 * spec.n
    assert ext.root.dtype == np.float64 and ext.root.shape == (N, N)
    stored = [v for v in vars(ext).values() if isinstance(v, np.ndarray)]
    assert not any(np.iscomplexobj(a) and a.shape == (N, N) for a in stored)
    kappa = extended_kernel(spec.kernel.real, spec.damping.real)
    assert ext.kappa.dtype == np.float64 and np.array_equal(ext.kappa, kappa)
    assert np.array_equal(ext.sqrt_kappa, 1j * ext.root)
    assert ext.n == spec.n


def test_complex_medium_keeps_a_complex_root():
    # a mixed medium: real K, complex Gamma
    spec = stable_spec(seed=12, n=4)
    spec = replace(spec, damping=spec.damping + 0.01j * np.eye(4))
    assert spec.kernel.dtype == np.float64 and spec.damping.dtype == np.complex128
    ext = build_sqrt_kappa(spec)
    assert ext.root.dtype == np.complex128
    assert np.array_equal(ext.root[4:, :4], spec.kernel)
    assert np.array_equal(ext.kappa, extended_kernel(spec.kernel, spec.damping))
    assert np.array_equal(ext.sqrt_kappa, 1j * ext.root)


def test_operator_is_built_from_its_spec_alone():
    # one init field, so no call can pair the operator with another medium's M
    spec, other = builders.build_synthetic(4, 1), builders.build_synthetic(4, 2)
    assert [f.name for f in fields(ExtendedOperator) if f.init] == ["spec"]
    ext = build_sqrt_kappa(spec)
    assert ext.spec is spec and not hasattr(ext, "damping")
    moved = replace(ext, spec=other)
    assert moved.spec is other
    assert moved.root.tobytes() == build_sqrt_kappa(other).root.tobytes()
    assert moved.root.tobytes() != ext.root.tobytes()


def test_kappa_is_built_once_per_operator(monkeypatch):
    calls = []
    real = spectral.extended_kernel

    def counting(K, G):
        calls.append(K.shape)
        return real(K, G)

    monkeypatch.setattr(spectral, "extended_kernel", counting)
    spec = builders.build_synthetic(6, 2)
    ext = build_sqrt_kappa(spec)
    assert calls == []
    kappa = ext.kappa
    # every kappa reader takes the operator's cached one
    selfconsistent.scattering_rows(ext, 0.5)
    selfconsistent.scattering_rows(ext, 0.7)
    phasespace.mean_in_frequency(ext, KickDrive(np.ones(6)), [0.4, 0.6])
    openquantum.correlation_frequency(ext, _vacuum(6), [0.5, 0.6], 1e-3)
    openquantum.classical_correlation(ext, 1.0, [0.5], 1e-3)
    build_JB(ext)
    on_shell_energy(ext, np.ones(12))
    assert ext.kappa is kappa and calls == [(6, 6)]
    # a replaced copy builds its own
    assert np.array_equal(replace(ext).kappa, kappa) and len(calls) == 2


def test_square_identity_check_catches_a_wrong_kappa(monkeypatch):
    spec = builders.build_synthetic(6, 2)
    build_sqrt_kappa(spec).kappa

    def perturbed(K, G):
        kappa = extended_kernel(K, G)
        kappa[0, 0] += 1e-6 * np.linalg.norm(kappa)
        return kappa

    monkeypatch.setattr(spectral, "extended_kernel", perturbed)
    ext = build_sqrt_kappa(spec)
    with pytest.raises(AssertionError, match="square identity"):
        ext.kappa


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_square_identity_check_runs_for_a_huge_kernel(monkeypatch):
    # ||kappa||_F^2 overflows at |K| ~ 1e160: the check scales before its norms
    spec = simple_spec(1e160 * np.array([[2.0, -1.0], [-1.0, 2.0]]), 0.1 * np.eye(2))
    build_sqrt_kappa(spec).kappa

    def perturbed(K, G):
        kappa = extended_kernel(K, G)
        kappa[0, 0] *= 1.0 + 1e-6
        return kappa

    monkeypatch.setattr(spectral, "extended_kernel", perturbed)
    ext = build_sqrt_kappa(spec)
    with pytest.raises(AssertionError, match="square identity"):
        ext.kappa


def test_near_critical_medium_has_a_singular_similarity():
    # Gamma^2 = K (1 - 1e-13): cond(V) ~ 6e6 is trusted, but A = W S W^T
    # carries cond(V)^2 and exceeds SINGULAR_A_COND_THRESHOLD
    ext = build_sqrt_kappa(simple_spec([[1.0 + 1e-13]], [[1.0]]))
    assert ext.eig.cond <= DEFECTIVE_COND_THRESHOLD
    with pytest.raises(SingularSimilarity, match="cond\\(A\\)"):
        attach_similarity(ext)


def _near_critical_medium(seed, n):
    """Gamma = gamma I with gamma^2 just below one eigenvalue of K, so that
    one mode sits next to critical damping, where cond(W) grows unboundedly."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, n))
    K = base @ base.T / n + np.eye(n)
    kappa = np.linalg.eigvalsh(K)[rng.integers(n)]
    return simple_spec(K, np.sqrt(kappa * (1.0 - 10.0 ** -rng.uniform(2, 16))) * np.eye(n))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(
        ["plain", "overdamped", "drude", "duplicated", "scalar", "complex", "near-critical"]
    ),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 8),
)
def test_skipped_cond_A_svd_is_proven_by_cond_W(kind, seed, n):
    if kind == "near-critical":
        spec = _near_critical_medium(seed, n)
    elif kind == "complex":
        spec = _random_real_medium("plain", seed, n)
        rng = np.random.default_rng(seed)
        spec = replace(spec, kernel=spec.kernel + 0.05j * rng.standard_normal((n, n)))
    else:
        spec = _random_real_medium(kind, seed, n)
    try:
        eig = eigendecompose(build_sqrt_kappa(spec))
    except DefectiveMatrix:
        return
    with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
        try:
            A = build_similarity(eig)
        except SingularSimilarity:
            pass
    bound = eig.cond**2
    assert cond.called == (bound > SINGULAR_A_COND_THRESHOLD)
    if not cond.called:
        # cond(A) <= cond(W)^2, up to the rounding of A (m eps ||W||^2) and
        # of both SVDs, first order in m eps cond(W)^2
        m = A.shape[0]
        assert np.linalg.cond(A) <= bound * (1.0 + 4.0 * m * EPS * bound)


def test_prepare_takes_no_cond_A_svd_that_cond_W_proves():
    with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
        prepare(builders.build_synthetic(40, 1))
    # cond(W) of sqrt_kappa's eigensystem only: cond(W)^2 = 731 proves A
    assert cond.call_count == 1


# ---------------------------------------------------------------------------
# One resolvent route: the x rows of (z E + i J_B)^{-1} from one 2n solve,
# against the explicit 4n inverse
# ---------------------------------------------------------------------------

RESOLVENT_MEDIA = {
    "synthetic": lambda: builders.build_synthetic(6, 1),
    "complex": complex_spec,
    # n = 7: the conserved-charge mode makes J_B defective and kappa singular
    "drude-disk": lambda: _drude_disk(4.0),
}


def _max_rel(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


def _resolvent_case(medium, z):
    ext, _ = prepare(RESOLVENT_MEDIA[medium]())
    N = 2 * ext.n
    inverse = np.linalg.inv(z * np.eye(2 * N) + 1j * ext.gen_JB)
    return ext, N, inverse


@pytest.mark.parametrize("z", [0.37, 0.8 + 1e-3j], ids=["real", "damped"])
@pytest.mark.parametrize("medium", sorted(RESOLVENT_MEDIA))
def test_resolvent_x_rows_match_explicit_inverse(medium, z):
    ext, N, inverse = _resolvent_case(medium, z)
    A, n = ext.sim_A, ext.n
    if medium == "drude-disk":
        assert np.abs(ext.eig.values).min() < 1e-15
    rng = np.random.default_rng(7)
    r = rng.standard_normal((2 * N, 3)) + 1j * rng.standard_normal((2 * N, 3))
    x = spectral._resolvent_x(ext, z, 1j * A @ r[:N] + z * r[N:])
    assert _max_rel(x, (inverse @ r)[N:]) < 1e-12
    # pi rows for r_x = 0 (mean_in_frequency): -i z A^{-1} x
    x = spectral._resolvent_x(ext, z, 1j * A @ r[:N])
    assert _max_rel(-1j * z * np.linalg.solve(A, x), inverse[:N, :N] @ r[:N]) < 1e-12
    # the u rows of the pi columns (scattering_rows) are transposed u columns
    rows = 1j * spectral._resolvent_x(ext, z, A[:, :n]).T
    assert _max_rel(rows, inverse[N : N + n, :N]) < 1e-12


@pytest.mark.parametrize("z", [0.37, 0.8 + 1e-3j], ids=["real", "damped"])
@pytest.mark.parametrize("medium", ["complex", "synthetic"])
def test_classical_prefactor_from_x_rows(medium, z):
    # -(i beta J_B)^{-1} (z E + i J_B)^{-1} J on the x-block is (z / beta) kappa^{-1} y_x
    ext, N, inverse = _resolvent_case(medium, z)
    beta = 1.3
    want = -np.linalg.inv(beta * 1j * ext.gen_JB)[N:] @ inverse[:, :N]
    y_x = spectral._resolvent_x(ext, z, 1j * ext.sim_A)
    assert _max_rel((z / beta) * np.linalg.solve(ext.kappa, y_x), want) < 1e-12
    got = openquantum.classical_correlation(ext, beta, [z.real], z.imag).xi[0]
    assert _max_rel(got, want) < 1e-12


def test_resolvent_x_raises_at_a_resonance():
    # kappa = 4 I for K = 4, Gamma = 0: z = 2 is a root of z^2 - kappa
    ext, _ = prepare(simple_spec([[4.0]], [[0.0]]))
    with pytest.raises(ResonantFrequency, match="omega=2.0"):
        spectral._resolvent_x(ext, 2.0, np.ones(2))
