"""Batch command-line front end.

Frequencies are exchanged in eV at this boundary and converted to Hartree
internally; every run prints one summary line with a checksum of the files
it wrote, each read back in blocks (:func:`_checksum`).  At a fixed BLAS
thread count, identical inputs produce byte-identical outputs.

Each subcommand is declared once, in the command table ``_COMMANDS`` (help,
runner, arguments; shared argument groups are defined once): the parser is
built from it and :func:`run` dispatches through it.  Each runner imports
the layers it runs, so a command loads no layer module it does not use.

Every table goes through one writer, :func:`_write_table`, in chunks, and
every ``--out`` table through :func:`_write_out`, which adds its head (the
units line and the column names).  Each chunk is one ``template % values``,
where the template holds the row formats of all of the chunk's rows and the
cells that repeat (row indices, the bath's alpha,beta pair, the field's k
queries, a block's frequency) already rendered in, and every other float is
rendered as ``%.12g``.  A chunk is at most one frequency block of the field,
one alpha row of a bath block, one matrix row of ``--vectors`` and
``--cov-out``, or the whole of the small ``spectrum``, ``modes``, ``filter``
and ``propagate`` tables, so no large table is held in memory as text.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .constants import HARTREE_TO_EV
from .errors import QpmError
from .medium import (
    KickDrive, MediumSpec, _json_floats, _json_object, consistent_extended_ic, spec_from_json,
    spec_to_json,
)

if TYPE_CHECKING:
    from .response import ModeLedger, SpectrumTable

_HEADER_COMMENT = f"# 1 Hartree = {HARTREE_TO_EV!r} eV"


def _grid(lo: float, hi: float, step: float, quantity: str) -> np.ndarray:
    """The points lo, lo + step, ... up to hi of a ``quantity`` window.

    An inverted window, a non-positive step, non-finite values and more
    points than an array can index raise a ValueError that names the
    quantity, before any compute or file write.
    """
    if not np.isfinite([lo, hi, step]).all():
        raise ValueError(f"{quantity} window bounds and step must be finite")
    if step <= 0:
        raise ValueError(f"{quantity} step must be positive")
    if hi < lo:
        raise ValueError(f"empty {quantity} window: maximum {hi!r} is below minimum {lo!r}")
    span = (hi - lo) / step
    if not span < np.iinfo(np.intp).max:
        raise ValueError(f"{quantity} window has too many points: (max - min) / step = {span!r}")
    count = int(np.floor(span + 1e-9)) + 1
    return lo + step * np.arange(count)


_CHECKSUM_BLOCK = 1 << 18


def _checksum(path: Path) -> str:
    """The first 16 hex digits of the file's sha256, read in blocks of ``_CHECKSUM_BLOCK`` bytes.

    No output file is held in memory whole, however large the table.
    """
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(_CHECKSUM_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def _write_table(path: Path, head: Sequence[str], chunks: Iterable) -> None:
    """Write the ``head`` lines, then ``template % values`` for every chunk.

    A chunk is a ``(template, values)`` pair: the template holds the row
    formats of all of its rows, cells that repeat already rendered in, and
    ``values`` is a float array of the remaining cells in row order.  Each
    chunk is rendered by one ``%`` and written before the next one is taken.
    """
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in head)
        for template, values in chunks:
            fh.write(template % tuple(values.ravel().tolist()))


def _write_out(config: argparse.Namespace, columns: str, chunks: Iterable) -> Path:
    """Write the ``--out`` table: the units line, the ``columns`` line, then the chunks."""
    out = Path(config.out)
    _write_table(out, (_HEADER_COMMENT, columns), chunks)
    return out


def _fmt_row(count: int, cell: str = "%.12g", sep: str = ",") -> str:
    """A row format of ``count`` equal cells."""
    return sep.join([cell] * count) + "\n"


def _keyed_rows(lead: str, keys: Sequence[str], cells: str) -> str:
    """The template of one row ``lead + key + cells`` per key, built by one join.

    ``lead`` and the (at least one) keys are rendered cells; ``cells`` is
    the row format of the rest of the row.
    """
    return lead + (cells + lead).join(keys) + cells


def _interleaved(z: np.ndarray) -> np.ndarray:
    """The float array re, im, re, im, ... along the last axis of a complex array."""
    return np.ascontiguousarray(z, dtype=complex).view(np.float64)


def _load_model(config: argparse.Namespace) -> MediumSpec:
    if not config.model:
        raise ValueError("--model is required")
    return spec_from_json(Path(config.model).read_text(encoding="utf-8"))


def _vector(text: str, n: int, what: str) -> np.ndarray:
    """The length-``n`` vector of a comma list, or else of the JSON file ``text``."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        if not Path(text).is_file():
            raise
        values = json.loads(Path(text).read_text(encoding="utf-8"))
    try:
        vec = np.asarray(values, dtype=complex)
    except TypeError:  # a JSON object or a nested list of them
        raise ValueError(f"{what} must be a list of numbers") from None
    if vec.shape != (n,):
        raise ValueError(f"{what} must have length {n}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} entries must be finite")
    return vec


def _kick_for(spec: MediumSpec, config: argparse.Namespace) -> KickDrive:
    if config.kick is None:
        return KickDrive(np.ones(spec.n, dtype=complex))
    return KickDrive(_vector(config.kick, spec.n, "kick amplitude"))


def _write_svg(path: Path, table: SpectrumTable) -> None:
    """Minimal deterministic line plot of the spectrum columns."""
    width, height, pad = 720, 360, 40
    x = table.omega_grid * HARTREE_TO_EV
    series = [("im_alpha", table.im_alpha, "#1f77b4")]
    if table.absorptive is not None:
        series.append(("absorptive", table.absorptive, "#ff7f0e"))
        series.append(("dispersive", table.dispersive, "#2ca02c"))
    ymin = min(float(s.min()) for _, s, _ in series)
    ymax = max(float(s.max()) for _, s, _ in series)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(x.min()), float(x.max())
    if xmax == xmin:
        xmax = xmin + 1.0
    sx = (pad + (x - xmin) / (xmax - xmin) * (width - 2 * pad)).tolist()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for name, ys, color in series:
        sy = (height - pad - (ys - ymin) / (ymax - ymin) * (height - 2 * pad)).tolist()
        pts = " ".join(map("%.12g,%.12g".__mod__, zip(sx, sy)))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'
        )
        parts.append(f'<text x="{pad}" y="{pad}" font-size="10">{name} and companions</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _run_build(config: argparse.Namespace) -> list[Path]:
    from . import builders

    if not (config.xyz and config.params and config.out):
        raise ValueError("build requires --xyz, --params and --out")
    geom = builders.parse_xyz(Path(config.xyz))
    params = builders.DrudeParams.from_json(Path(config.params).read_text(encoding="utf-8"))
    spec = builders.build_drude_charge_model(
        geom, params, response_axis="xyz".index(config.response_axis)
    )
    out = Path(config.out)
    out.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
    return [out]


def _kick_ledger(spec: MediumSpec, config: argparse.Namespace) -> ModeLedger:
    """The mode ledger of the ``--kick`` drive; the eigensystem is freed on return."""
    from . import response, spectral

    drive = _kick_for(spec, config)
    _, eig = spectral.prepare(spec)
    return response.decompose_modes(eig, spec, drive)


def _run_spectrum(config: argparse.Namespace) -> list[Path]:
    from . import response

    spec = _load_model(config)
    grid_ev = _grid(config.omega_min, config.omega_max, config.omega_step, "frequency")
    ledger = _kick_ledger(spec, config)
    table = response.reconstruct_spectrum(
        ledger, np.arange(ledger.n_modes), grid_ev / HARTREE_TO_EV
    )
    values = np.column_stack((grid_ev, table.im_alpha, table.absorptive, table.dispersive))
    columns = "omega_eV,im_alpha,absorptive,dispersive"
    written = [_write_out(config, columns, [(_fmt_row(4) * grid_ev.size, values)])]
    if config.svg:
        svg = Path(config.svg)
        _write_svg(svg, table)
        written.append(svg)
    return written


def _run_modes(config: argparse.Namespace) -> list[Path]:
    from . import spectral

    # the table reads only the eigensystem: no A, cond(A) or J_B
    eig = spectral.build_sqrt_kappa(_load_model(config)).eig
    re_mu, im_mu = eig.values.real * HARTREE_TO_EV, eig.values.imag * HARTREE_TO_EV
    template = "".join(f"{k},%.12g,%.12g\n" for k in range(re_mu.size))
    written = [_write_out(config, "k,re_mu,im_mu", [(template, np.column_stack((re_mu, im_mu)))])]
    if config.vectors:
        # one line per eigenvector: "re im re im ..."
        vec_path = Path(config.vectors)
        vectors = eig.right_vectors
        fmt = _fmt_row(vectors.shape[0], "%.12g %.12g", " ")
        _write_table(
            vec_path, (), ((fmt, _interleaved(vectors[:, j])) for j in range(vectors.shape[1]))
        )
        written.append(vec_path)
    return written


def _run_filter(config: argparse.Namespace) -> list[Path]:
    from . import response

    # the selection is checked before the decomposition it would be applied to
    if config.filter_mode == "if":
        if config.threshold is None:
            raise ValueError("--threshold is required for --mode if")
        response.check_threshold(config.threshold)
    else:
        if config.window_lo is None or config.window_hi is None:
            raise ValueError("--omega-lo/--omega-hi are required for --mode ef")
        window = (config.window_lo / HARTREE_TO_EV, config.window_hi / HARTREE_TO_EV)
        response.check_window(*window)
    ledger = _kick_ledger(_load_model(config), config)
    if config.filter_mode == "if":
        selected = set(response.filter_intercept(ledger, config.threshold).tolist())
    else:
        selected = set(response.filter_eigenvalue(ledger, *window).tolist())
    mu = ledger.mu
    template = "".join(
        f"{k},%.12g,%.12g,%.12g,{int(k in selected)}\n" for k in range(ledger.n_modes)
    )
    values = np.column_stack(
        (mu.real * HARTREE_TO_EV, mu.imag * HARTREE_TO_EV, ledger.intercept.real)
    )
    return [_write_out(config, "k,re_mu_eV,im_mu_eV,re_I,selected", [(template, values)])]


def _run_propagate(config: argparse.Namespace) -> list[Path]:
    from . import phasespace, spectral

    spec = _load_model(config)
    t_grid = _grid(0.0, config.t_max, config.t_step, "time")
    n = spec.n
    u0 = np.zeros(n, dtype=complex) if config.u0 is None else _vector(config.u0, n, "u0")
    v0 = np.zeros(n, dtype=complex) if config.v0 is None else _vector(config.v0, n, "v0")
    drive = _kick_for(spec, config) if config.kick is not None else None
    if config.cov_out:  # a bad --hbar fails before the solve
        phasespace._positive_finite("hbar", config.hbar)
    ext, _ = spectral.prepare(spec)
    x0, xdot0 = consistent_extended_ic(spec, u0, v0, drive)
    q0 = phasespace.consistent_mean(ext, x0, xdot0)
    if config.cov_out:  # built first, so that a bad --hbar writes no file
        state0 = phasespace.GaussianState(
            mean=q0, cov=(config.hbar / 2.0) * np.eye(4 * n), hbar=config.hbar
        )
    means = phasespace.propagate_mean(ext, drive, q0, t_grid)
    header = ["t"] + [
        f"{p}_mean_{x}_{i}" for x in "uv" for i in range(1, n + 1) for p in ("re", "im")
    ]
    rows = np.column_stack((t_grid, _interleaved(means[:, 2 * n :])))
    written = [_write_out(config, ",".join(header), [(_fmt_row(len(header)) * t_grid.size, rows)])]
    if config.cov_out:
        cov_dir = Path(config.cov_out)
        cov_dir.mkdir(parents=True, exist_ok=True)
        cov_fmt = _fmt_row(4 * n, "%.12g;%.12g")
        for idx, t in enumerate(t_grid):
            # the covariance never reads Delta_t, so the drive is left out
            prop = phasespace.propagator_at(ext, float(t))
            cov = phasespace.evolve_state(state0, prop).cov
            _write_table(
                cov_dir / f"cov_{idx:06d}.csv",
                (_HEADER_COMMENT, "# t = %.12g" % t),
                ((cov_fmt, _interleaved(row)) for row in cov),
            )
        written.append(cov_dir / f"cov_{len(t_grid) - 1:06d}.csv")
    return written


def _run_field(config: argparse.Namespace) -> list[Path]:
    from . import spectral
    from .selfconsistent import FieldPlaneWaveSet, PlaneWave, emitted_field_first_order

    spec = _load_model(config)
    if not config.waves:
        raise ValueError("field requires --waves")
    doc = _json_object(json.loads(Path(config.waves).read_text(encoding="utf-8")), "a waves file")
    keys = ("omega_min_ev", "omega_max_ev", "omega_step_ev")
    grid_ev = _grid(*(float(_json_floats(doc, key, ())) for key in keys), "frequency")
    grid = grid_ev / HARTREE_TO_EV
    if not isinstance(doc["plane_waves"], list):
        raise ValueError("plane_waves must be a list of plane waves")
    waves = []
    for w in doc["plane_waves"]:
        _json_object(w, "each entry of plane_waves")
        re = _json_floats(w, "amplitude_re")
        im = _json_floats(w, "amplitude_im") if "amplitude_im" in w else 0.0
        # a non-finite part is rejected by PlaneWave; inf * 1j would first warn
        with np.errstate(invalid="ignore"):
            amp = re + 1j * im
        waves.append(PlaneWave(k=_json_floats(w, "k", (3,)), amplitude=amp))
    k_queries = _json_floats(doc, "k_queries")
    if k_queries.ndim != 2 or k_queries.shape[1] != 3:
        raise ValueError("k_queries must be a list of 3-vectors")
    if not np.isfinite(k_queries).all():
        raise ValueError("k_queries must be finite")
    field_set = FieldPlaneWaveSet(omega_grid=grid, waves=tuple(waves))
    ext, _ = spectral.prepare(spec)
    scattered = emitted_field_first_order(ext, spec, field_set, k_queries)
    k_cells = [",%.12g,%.12g,%.12g," % tuple(k) for k in k_queries.tolist()]
    columns = "omega_eV,kx,ky,kz,re_Ex,im_Ex,re_Ey,im_Ey,re_Ez,im_Ez"
    chunks = (
        (_keyed_rows("%.12g" % w_ev, k_cells, _fmt_row(6)), _interleaved(scattered[iw]))
        for iw, w_ev in enumerate(grid_ev.tolist())
    )
    out = _write_out(config, columns, chunks)
    # the delta-supported part of the field: the incident waves on the grid
    amps = [w.amplitude_on(grid) for w in field_set.waves]
    delta_terms = [
        {"k": w.k.tolist(), "amplitude_re": a.real.tolist(), "amplitude_im": a.imag.tolist()}
        for w, a in zip(field_set.waves, amps)
    ]
    gauge = "deterministic eigenvector basis of the extended square root"
    deltas = {"similarity_gauge": gauge, "delta_terms": delta_terms}
    sidecar = out.with_suffix(out.suffix + ".deltas.json")
    sidecar.write_text(json.dumps(deltas, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [out, sidecar]


def _run_bath(config: argparse.Namespace) -> list[Path]:
    from . import openquantum, phasespace, spectral

    spec = _load_model(config)
    grid_ev = _grid(config.omega_min, config.omega_max, config.omega_step, "frequency")
    grid = grid_ev / HARTREE_TO_EV
    # checked before the solve, in the order thermal_correlation checks them
    phasespace._positive_finite("beta", config.beta)
    phasespace._positive_finite("hbar", config.hbar)
    openquantum._check_eta(config.eta)
    ext, _ = spectral.prepare(spec)
    corr = openquantum.thermal_correlation(ext, config.beta, config.hbar, grid, config.eta)
    m = corr.xi.shape[1]
    alphas = [f",{a}" for a in range(1, m + 1)]
    betas = [f",{b}," for b in range(1, m + 1)]
    cells = _fmt_row(4)

    def chunks():
        # one alpha row of one frequency block per chunk: m rows; gamma and S
        # are formed one frequency at a time
        for iw, w_ev in enumerate(grid_ev.tolist()):
            omega = "%.12g" % w_ev
            block = _interleaved(np.stack(corr.at(iw), axis=-1))
            for a in range(m):
                yield _keyed_rows(omega + alphas[a], betas, cells), block[a]

    return [_write_out(config, "omega_eV,alpha,beta,re_gamma,im_gamma,re_S,im_S", chunks())]


# Argument groups shared by several subcommands: (flag, add_argument keywords).
_MODEL_OUT = (
    ("--model", dict(required=True, help="model JSON file")),
    ("--out", dict(required=True, help="output file")),
)
_WINDOW = (
    ("--omega-min", dict(type=float, required=True, help="window start (eV)")),
    ("--omega-max", dict(type=float, required=True, help="window end (eV)")),
    ("--omega-step", dict(type=float, required=True, help="step (eV)")),
)
_KICK = ("--kick", dict(help="kick amplitudes: comma list or JSON file"))
_HBAR = ("--hbar", dict(type=float, default=1.0))

# subcommand -> (help, runner, its arguments in --help order)
_COMMANDS = {
    "build": ("build a model from geometry + parameters", _run_build, [
        ("--xyz", dict(required=True)),
        ("--params", dict(required=True)),
        ("--response-axis", dict(default="z", choices=("x", "y", "z"))),
        ("--out", dict(required=True)),
    ]),
    "spectrum": ("tabulate Im alpha over a frequency window", _run_spectrum, [
        *_MODEL_OUT,
        *_WINDOW,
        _KICK,
        ("--svg", dict(help="optional SVG plot path")),
    ]),
    "modes": ("dump the extended eigenvalues", _run_modes, [
        *_MODEL_OUT,
        ("--vectors", dict(help="optional eigenvector dump path")),
    ]),
    "filter": ("mode selection report", _run_filter, [
        *_MODEL_OUT,
        ("--mode", dict(dest="filter_mode", required=True, choices=("if", "ef"))),
        ("--threshold", dict(type=float)),
        ("--omega-lo", dict(dest="window_lo", type=float, help="window start (eV)")),
        ("--omega-hi", dict(dest="window_hi", type=float, help="window end (eV)")),
        _KICK,
    ]),
    "propagate": ("mean phase-space trajectory", _run_propagate, [
        *_MODEL_OUT,
        ("--t-max", dict(type=float, required=True)),
        ("--t-step", dict(type=float, required=True)),
        ("--u0", dict(help="comma list of initial u")),
        ("--v0", dict(help="comma list of initial u'")),
        ("--kick", dict(help="kick amplitudes applied for t >= 0")),
        _HBAR,
        ("--cov-out", dict(
            dest="cov_out", help="directory for per-sample covariance dumps (vacuum initial state)"
        )),
    ]),
    "field": ("first-order scattered field", _run_field, [
        *_MODEL_OUT,
        ("--waves", dict(required=True, help="plane-wave set JSON")),
    ]),
    "bath": ("thermal bath correlation tables", _run_bath, [
        *_MODEL_OUT,
        ("--beta", dict(type=float, required=True)),
        _HBAR,
        ("--eta", dict(type=float, default=1e-4, help="regularization (Hartree)")),
        *_WINDOW,
    ]),
}


def run(config: argparse.Namespace) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    try:
        _, runner, _ = _COMMANDS[config.subcommand]
        written = runner(config)
    except (QpmError, ValueError, OSError, KeyError, TypeError, MemoryError) as exc:
        # numpy's failed allocation is a private MemoryError subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    summary = " ".join(f"{p.name} sha256={_checksum(p)}" for p in written)
    print(f"{config.subcommand}: wrote {summary}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpm", description="Dissipative polarizable media toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
