"""Golden bytes of every qpm table.

The oracle is the per-cell renderer the CLI used before tables were
streamed: ``format(float(x), ".12g")`` for every float, ``str(k)`` for
every index, the same separators, and the whole file joined in memory.
Each test rebuilds the arrays in-process with the library calls the CLI
makes and requires the CLI's file to equal the oracle's rendering.
"""

import json
import math
import struct

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
    scattered, _ = emitted_field_first_order(
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
    # rendered once into its templates; a and k are rendered into the row
    # keys as constant cells, b is the value cell.  Chunks of at most three
    # rows put chunk boundaries inside each block.
    half = len(rows) // 2
    chunks = []
    for block in (rows[:half], rows[half:]):
        for start in range(0, len(block), 3):
            part = block[start : start + 3]
            keys = [",%.12g,%d," % (a, k) for a, k, _ in part]
            values = np.array([b for _, _, b in part], dtype=float)
            chunks.append((cli._keyed_rows("%.12g" % lead, keys, "%.12g\n"), values))
    cli._write_table(table_path, (HEADER, "w,a,k,b"), chunks)
    want = render_csv("w,a,k,b", [(fmt(lead), fmt(a), str(k), fmt(b)) for a, k, b in rows])
    assert table_path.read_bytes() == want
