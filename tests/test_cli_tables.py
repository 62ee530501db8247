"""Golden bytes of every qpm table.

The oracle is the per-cell renderer the CLI used before tables were
streamed: ``format(float(x), ".12g")`` for every float, ``str(k)`` for
every index, the same separators, and the whole file joined in memory.
Each test rebuilds the arrays in-process with the library calls the CLI
makes and requires the CLI's file to equal the oracle's rendering.
"""

import json
import math
import os
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import stable_spec
from qpmedia import cli, openquantum, phasespace, response, spectral
from qpmedia.cli import main
from qpmedia.constants import HARTREE_TO_EV
from qpmedia.medium import KickDrive, consistent_extended_ic, spec_to_json

HEADER = f"# 1 Hartree = {HARTREE_TO_EV!r} eV"


def fmt(x):
    return format(float(x), ".12g")


def render(lines):
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_csv(header, rows):
    return render([HEADER, header, *(",".join(cells) for cells in rows)])


def grid(lo, hi, step):
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


@pytest.fixture
def spec():
    return stable_spec(seed=777, n=3)


@pytest.fixture
def model(spec, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
    return path


def test_spectrum_and_svg(spec, model, tmp_path):
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    assert main(
        [
            "spectrum", "--model", str(model), "--omega-min", "0",
            "--omega-max", "7", "--omega-step", "0.01", "--out", str(out),
            "--svg", str(svg),
        ]
    ) == 0
    grid_ev = grid(0.0, 7.0, 0.01)
    _, eig = spectral.prepare(spec)
    ledger = response.decompose_modes(eig, spec, KickDrive(np.ones(spec.n, dtype=complex)))
    table = response.reconstruct_spectrum(
        ledger, np.arange(ledger.n_modes), grid_ev / HARTREE_TO_EV
    )
    rows = [
        (fmt(w), fmt(a), fmt(b), fmt(c))
        for w, a, b, c in zip(grid_ev, table.im_alpha, table.absorptive, table.dispersive)
    ]
    assert out.read_bytes() == render_csv("omega_eV,im_alpha,absorptive,dispersive", rows)

    width, height, pad = 720, 360, 40
    x = table.omega_grid * HARTREE_TO_EV
    series = [
        ("im_alpha", table.im_alpha, "#1f77b4"),
        ("absorptive", table.absorptive, "#ff7f0e"),
        ("dispersive", table.dispersive, "#2ca02c"),
    ]
    ymin = min(float(s.min()) for _, s, _ in series)
    ymax = max(float(s.max()) for _, s, _ in series)
    xmin, xmax = float(x.min()), float(x.max())

    def sx(v):
        return pad + (v - xmin) / (xmax - xmin) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - ymin) / (ymax - ymin) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for name, ys, color in series:
        pts = " ".join(f"{fmt(sx(a))},{fmt(sy(b))}" for a, b in zip(x, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'
        )
        parts.append(f'<text x="{pad}" y="{pad}" font-size="10">{name} and companions</text>')
    parts.append("</svg>")
    assert svg.read_bytes() == render(parts)


def test_modes_and_vectors(spec, model, tmp_path):
    out, vecs = tmp_path / "modes.csv", tmp_path / "vecs.txt"
    assert main(["modes", "--model", str(model), "--out", str(out), "--vectors", str(vecs)]) == 0
    _, eig = spectral.prepare(spec)
    rows = [
        (str(k), fmt(mu.real * HARTREE_TO_EV), fmt(mu.imag * HARTREE_TO_EV))
        for k, mu in enumerate(eig.values)
    ]
    assert out.read_bytes() == render_csv("k,re_mu,im_mu", rows)
    lines = [
        " ".join(f"{fmt(z.real)} {fmt(z.imag)}" for z in eig.right_vectors[:, k])
        for k in range(eig.values.size)
    ]
    assert vecs.read_bytes() == render(lines)


@pytest.mark.parametrize("mode", ["if", "ef"])
def test_filter(spec, model, tmp_path, mode):
    out = tmp_path / "f.csv"
    extra = ["--threshold", "0.5"] if mode == "if" else ["--omega-lo", "50", "--omega-hi", "55"]
    assert main(["filter", "--model", str(model), "--mode", mode, "--out", str(out), *extra]) == 0
    _, eig = spectral.prepare(spec)
    ledger = response.decompose_modes(eig, spec, KickDrive(np.ones(spec.n, dtype=complex)))
    if mode == "if":
        selected = set(response.filter_intercept(ledger, 0.5).tolist())
    else:
        selected = set(
            response.filter_eigenvalue(ledger, 50 / HARTREE_TO_EV, 55 / HARTREE_TO_EV).tolist()
        )
    assert selected and len(selected) < ledger.n_modes  # both flag values appear
    rows = [
        (
            str(k),
            fmt(ledger.mu[k].real * HARTREE_TO_EV),
            fmt(ledger.mu[k].imag * HARTREE_TO_EV),
            fmt(ledger.intercept[k].real),
            "1" if k in selected else "0",
        )
        for k in range(ledger.n_modes)
    ]
    assert out.read_bytes() == render_csv("k,re_mu_eV,im_mu_eV,re_I,selected", rows)


def test_propagate_and_covariance_dumps(spec, model, tmp_path):
    out, cov_dir = tmp_path / "traj.csv", tmp_path / "covs"
    u0, v0, kick = [1.0, 0.5, -0.25], [0.0, 0.2, 0.0], [0.3, 0.3, 0.3]
    assert main(
        [
            "propagate", "--model", str(model), "--t-max", "0.3", "--t-step", "0.1",
            "--u0", ",".join(map(str, u0)), "--v0", ",".join(map(str, v0)),
            "--kick", ",".join(map(str, kick)), "--out", str(out), "--cov-out", str(cov_dir),
        ]
    ) == 0
    n = spec.n
    ext, _ = spectral.prepare(spec)
    drive = KickDrive(np.asarray(kick, dtype=complex))
    x0, xdot0 = consistent_extended_ic(
        spec, np.asarray(u0, dtype=complex), np.asarray(v0, dtype=complex), drive
    )
    q0 = phasespace.consistent_mean(ext, x0, xdot0)
    t_grid = 0.1 * np.arange(4)
    means = phasespace.propagate_mean(ext, drive, q0, t_grid)
    header = ["t"]
    for name in ("u", "v"):
        for i in range(1, n + 1):
            header += [f"re_mean_{name}_{i}", f"im_mean_{name}_{i}"]
    rows = []
    for t, xrow in zip(t_grid, means[:, 2 * n :]):
        cells = [fmt(t)]
        for z in xrow:
            cells += [fmt(z.real), fmt(z.imag)]
        rows.append(cells)
    assert out.read_bytes() == render_csv(",".join(header), rows)

    state0 = phasespace.GaussianState(mean=q0, cov=0.5 * np.eye(4 * n), hbar=1.0)
    assert len(list(cov_dir.iterdir())) == t_grid.size
    for idx, t in enumerate(t_grid):
        prop = phasespace.propagator_at(ext, float(t), drive=drive)
        cov = phasespace.evolve_state(state0, prop).cov
        lines = [HEADER, f"# t = {fmt(t)}"]
        for row in cov:
            lines.append(",".join(f"{fmt(z.real)};{fmt(z.imag)}" for z in row))
        assert (cov_dir / f"cov_{idx:06d}.csv").read_bytes() == render(lines)


def test_field(spec, model, tmp_path):
    from qpmedia.selfconsistent import FieldPlaneWaveSet, PlaneWave, emitted_field_first_order

    doc = {
        "omega_min_ev": 0.5,
        "omega_max_ev": 3.0,
        "omega_step_ev": 0.5,
        "plane_waves": [
            {"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]},
            {"k": [0.0, 0.02, 0.0], "amplitude_re": [1.0, 0.0, 0.0], "amplitude_im": [0, 0.5, 0]},
        ],
        "k_queries": [[0.02, 0.0, 0.0], [0.0, 0.03, 0.0], [0.0, 0.0, -0.01]],
    }
    waves_path, out = tmp_path / "waves.json", tmp_path / "field.csv"
    waves_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["field", "--model", str(model), "--waves", str(waves_path), "--out", str(out)]) == 0
    grid_ev = grid(0.5, 3.0, 0.5)
    waves = tuple(
        PlaneWave(
            k=np.asarray(w["k"], dtype=float),
            amplitude=np.asarray(w["amplitude_re"], dtype=float)
            + 1j * np.asarray(w.get("amplitude_im", np.zeros(3)), dtype=float),
        )
        for w in doc["plane_waves"]
    )
    k_queries = np.asarray(doc["k_queries"], dtype=float)
    ext, _ = spectral.prepare(spec)
    scattered = emitted_field_first_order(
        ext, spec, FieldPlaneWaveSet(omega_grid=grid_ev / HARTREE_TO_EV, waves=waves), k_queries
    )
    rows = []
    for iw, w_ev in enumerate(grid_ev):
        for ik, kq in enumerate(k_queries):
            e = scattered[iw, ik]
            rows.append(
                [fmt(w_ev), fmt(kq[0]), fmt(kq[1]), fmt(kq[2])]
                + [fmt(part) for z in e for part in (z.real, z.imag)]
            )
    header = "omega_eV,kx,ky,kz,re_Ex,im_Ex,re_Ey,im_Ey,re_Ez,im_Ez"
    assert out.read_bytes() == render_csv(header, rows)


def test_bath(spec, model, tmp_path):
    out = tmp_path / "bath.csv"
    assert main(
        [
            "bath", "--model", str(model), "--beta", "1.0", "--omega-min", "0.1",
            "--omega-max", "2.0", "--omega-step", "0.3", "--out", str(out),
        ]
    ) == 0
    grid_ev = grid(0.1, 2.0, 0.3)
    ext, _ = spectral.prepare(spec)
    corr = openquantum.thermal_correlation(ext, 1.0, 1.0, grid_ev / HARTREE_TO_EV, 1e-4)
    m = corr.gamma.shape[1]
    rows = [
        (
            fmt(w_ev),
            str(a + 1),
            str(b + 1),
            fmt(corr.gamma[iw, a, b].real),
            fmt(corr.gamma[iw, a, b].imag),
            fmt(corr.s_ls[iw, a, b].real),
            fmt(corr.s_ls[iw, a, b].imag),
        )
        for iw, w_ev in enumerate(grid_ev)
        for a in range(m)
        for b in range(m)
    ]
    assert out.read_bytes() == render_csv("omega_eV,alpha,beta,re_gamma,im_gamma,re_S,im_S", rows)


# Floats from raw bit patterns reach every exponent, both zeros, the
# subnormals, the infinities and nan payloads.
bit_floats = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
cells = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), bit_floats)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "t.csv"


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(cells, st.integers(-(2**70), 2**70), cells), max_size=20),
    lead=cells,
)
@example(rows=[(-0.0, 0, 0.0), (math.nan, -1, math.inf), (-math.inf, 2**70, 5e-324)], lead=-0.0)
@example(rows=[(2.2250738585072009e-308, 7, 1.7976931348623157e308)], lead=math.nan)
@example(rows=[], lead=1.0)
def test_row_formatter_matches_per_cell_format(table_path, rows, lead):
    # Like the bath's: each half is a block whose leading cell ``lead`` is
    # rendered once into a one-row column that all of its rows share; a and
    # b are float columns and k a text column between them.  Chunks of at
    # most three rows (two float cells a row) put chunk boundaries inside
    # each block.
    half = len(rows) // 2
    blocks = []
    for block in (rows[:half], rows[half:]):
        if block:
            a, k, b = zip(*block)
            blocks.append([
                cli._cells(np.array([[lead]]), b","),
                (np.array(a)[:, None], b","),
                cli._text_column([f"{v}," for v in k]),
                (np.array(b)[:, None], b"\n"),
            ])
    with mock.patch.object(cli, "_CHUNK_CELLS", 6):
        cli._write_table(table_path, (HEADER, "w,a,k,b"), blocks)
    want = render_csv("w,a,k,b", [(fmt(lead), fmt(a), str(k), fmt(b)) for a, k, b in rows])
    assert table_path.read_bytes() == want


def kernel_lines(values):
    """The kernel's text of every value, one line each."""
    column = np.array(values, dtype=float)[:, None]
    return cli._text([(column, b"\n")]).decode().split("\n")[:-1]


def ulps_from(x, steps):
    """The float ``steps`` units in the last place above the positive float x."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return struct.unpack("<d", struct.pack("<q", bits + steps))[0]


# powers of ten, within three ulps either side
near_powers_of_ten = st.builds(
    lambda k, steps, sign: sign * ulps_from(float(f"1e{k}"), steps),
    st.integers(-323, 308), st.integers(-3, 3), st.sampled_from([1.0, -1.0]),
).filter(math.isfinite)
# the doubles nearest to a tie of the twelfth significant digit, d.ddddddddddd5eK
near_ties = st.builds(
    lambda digits, k, sign: sign * float(f"{digits[0]}.{digits[1:]}5e{k}"),
    st.integers(10**11, 10**12 - 1).map(str), st.integers(-300, 300), st.sampled_from([1.0, -1.0]),
)
LIMITS = [5e-324, 2.2250738585072009e-308, 1e-300, 1e-290, 1e290, 1e300]


@settings(max_examples=500, deadline=None)
@given(values=st.lists(st.one_of(cells, near_powers_of_ten, near_ties), min_size=1, max_size=64))
@example(values=[0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])
# the fast path's range, the smallest normal and subnormal, each neighbour
@example(values=[
    s * float(v) for x in LIMITS for v in (x, np.nextafter(x, 0), np.nextafter(x, math.inf))
    for s in (1, -1)
])
@example(values=[
    ulps_from(float(f"1e{k}"), d) for k in (-300, -5, -4, -1, 0, 1, 11, 12, 22, 23, 300)
    for d in (-3, -2, -1, 1, 2, 3)
])
# ties of the twelfth digit: exact ones, and near ones that rint(y) alone
# rounds the wrong way
@example(values=[123456789012.5, -123456789012.5, 0.5, 5e-5, 5e11, 5e12, 0.5e-300, 2.5, 1e15 + 0.5])
@example(values=[5.606394622305e-30, 8.449323344385e-30, 4.241230248625e-29, 2.307576734685e-28])
# the switch from fixed to scientific notation, both ways
@example(values=[9.99999999999949e-5, 9.9999999999995e-5, 999999999999.5, 999999999999.4, 1e12])
# trailing zeros, of the integer digits and of the fraction
@example(values=[1200.0, 1e11, 100.0, 0.001, 1e-4, 1e-5, 120000000000.0, 1.5, 1.25e-7, -10.0])
def test_kernel_matches_format(values):
    assert kernel_lines(values) == [format(v, ".12g") for v in values]


def test_kernel_matches_format_near_every_power_of_ten():
    values = [
        s * ulps_from(float(f"1e{k}"), d)
        for k in range(-323, 309) for d in range(-3, 4) for s in (1.0, -1.0)
    ]
    values = [v for v in values if math.isfinite(v)]
    assert kernel_lines(values) == [format(v, ".12g") for v in values]


@pytest.mark.parametrize("shift", [1e-9, -1e-9])
def test_exponent_is_fixed_whichever_way_log10_rounds(shift):
    # a log10 that rounds across a power of ten gives e one too large (fixed
    # once) or one too small (stepped): near every power of ten, both give
    # the same text as the exact exponent
    values = [
        float(f"1e{k}") * (1 + d) for k in range(-280, 281, 7)
        for d in (-1e-10, -1e-11, -2e-12, -1e-13, 0.0, 1e-13, 2e-12, 1e-11, 1e-10)
    ]
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: log10(a) + shift):
        assert kernel_lines(values) == [format(v, ".12g") for v in values]


def test_complex_cells_are_re_then_im():
    z = np.array([[complex(1.5, -2.0), complex(-0.0, 1e-20)]])
    assert cli._text([(z, b",,,\n")]) == b"1.5,-2,-0,1e-20\n"


def writer_peak(rows):
    """The tracemalloc peak of writing a table of ``rows`` rows: a key and four floats a row."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((rows, 4)) * 10.0 ** rng.uniform(-8, 8, (rows, 4))
    keys = np.tile(cli._text_column([f"{k}," for k in range(1000)]), (rows // 1000, 1))
    tracemalloc.start()
    try:
        cli._write_table(Path(os.devnull), ("head",), [[keys, (values, b",,,\n")]])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded_by_the_chunk():
    # the writer's peak is set by its chunk of _CHUNK_CELLS float cells, not
    # by the table: 256k and 1.02M float cells (the bath's is 1.38M) peak alike
    cli._tables()  # built once per process, outside the measurement
    small, large = writer_peak(64_000), writer_peak(256_000)
    assert large < 2 * 2**20
    assert large < 1.1 * small
