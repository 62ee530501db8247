"""Batch command-line front end.

Frequencies are exchanged in eV at this boundary and converted to Hartree
internally; every run prints one summary line with a checksum of the files
it wrote, each read back in blocks (:func:`_checksum`).  At a fixed BLAS
thread count, identical inputs produce byte-identical outputs.

Each subcommand is declared once, in the command table ``_COMMANDS`` (help,
runner, arguments; shared argument groups are defined once): the parser is
built from it and :func:`run` dispatches through it.  Each runner imports
the layers it runs, so a command loads no layer module it does not use.

Every table goes through one writer, :func:`_write_table`, and every
``--out`` table through :func:`_write_out`, which adds its head (the units
line and the column names).  A table is given as blocks of rows, each a
list of columns: byte matrices of text rendered once (row indices, the
bath's alpha,beta pairs and frequencies, the filter's flag) and float
arrays.  Every float of every table, the SVG's points included, is
rendered as ``'%.12g' % x`` by one numpy kernel, :func:`_cells`, in chunks
of at most ``_CHUNK_CELLS`` cells whatever the table's structure, so no
large table is held in memory as text; Python's ``%`` renders only the
cells the kernel hands to its exact fallback.
"""

from __future__ import annotations

import argparse
import functools
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


# ---------------------------------------------------------------------------
# Table text: every float as '%.12g', by one numpy kernel
# ---------------------------------------------------------------------------

# Bytes per rendered cell.  The sign and the integer digits end at byte 14,
# the point is byte 15 and the fraction digits start at byte 16; the
# exponent and the separator follow the last digit.  Every other byte is NUL.
_SLOT = 40
# Float cells per kernel call, whatever the table's structure: the numpy
# calls per chunk cost the same at any size, the temporaries grow with it.
_CHUNK_CELLS = 4096
_P0 = 300  # pow10[_P0 + k] = 10**k
_E0 = 300  # exp_word[_E0 + e] = the exponent text of 10**e


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The kernel's lookup tables, built on its first call.

    - ``pow10``: 10**k correctly rounded, k = -300..305;
    - ``words``: three tables of 10,000 little-endian 4-byte words, the four
      ASCII digits of g = 0..9999: all of them, then with leading zeros as
      NUL, then with trailing zeros as NUL (g + 10000 * variant);
    - ``units``: g = 0..999 as three digits and a point, then the same with
      leading zeros as NUL but the units digit kept;
    - ``last[j, g]``: the count of fraction digits up to the last nonzero one
      when g is the last nonzero group j of four, 0 for g = 0;
    - ``exp_word``, ``exp_shift``: for e = -300..300, the exponent text
      (``e+XX``, ``e-XXX``; empty where ``%.12g`` writes fixed notation) as a
      little-endian word, and its length in bits.
    """
    # int to float and int / int are correctly rounded
    tens = [10**k for k in range(306)]
    pow10 = np.array([1 / t for t in tens[_P0:0:-1]] + [float(t) for t in tens])
    # int16 and uint8 throughout: the temporaries stay a few 10 kB
    g = np.arange(10000, dtype=np.int16)
    digits = np.empty((10000, 4), np.uint8)
    count = np.zeros(10000, np.int16)  # digits of g, 0 for g = 0
    zeros = np.zeros(10000, np.int16)  # trailing zeros of g, 4 for g = 0
    for i, place in enumerate((1000, 100, 10, 1)):
        digits[:, i] = g // place % 10 + 48
        count += g >= place
        zeros += g % (10 * place) == 0
    col = np.arange(4, dtype=np.int16)
    lead = np.where(col >= 4 - count[:, None], digits, 0)
    trail = np.where(col < 4 - zeros[:, None], digits, 0)
    words = np.concatenate((digits, lead, trail)).view("<u4").ravel()
    units = np.full((2000, 4), ord("."), np.uint8)
    units[:1000, :3] = digits[:1000, 1:]
    shown = col[1:] >= 4 - np.maximum(count[:1000], 1)[:, None]  # the units digit always
    units[1000:, :3] = np.where(shown, digits[:1000, 1:], 0)
    last = np.where(g > 0, 4 * col[:, None] + 4 - zeros, 0).astype(np.uint8)
    text = [b"" if -4 <= e < 12 else b"e%+03d" % e for e in range(-_E0, _E0 + 1)]
    exp_word = np.array(text, dtype="S8").view("<u8")
    exp_shift = np.array([8 * len(t) for t in text], np.uint64)
    tables = pow10, words, units.view("<u4").ravel(), last, exp_word, exp_shift
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _cells(values: np.ndarray, seps: bytes) -> np.ndarray:
    """Every cell of ``values`` as ``'%.12g' % x``, then its column's separator.

    ``values`` is a (rows, columns) float array and ``seps`` holds one
    separator byte per column.  Returns the (rows, columns * ``_SLOT``) byte
    matrix of the cells' slots, NUL wherever a slot holds no text.

    The fast path needs no Python call per cell.  With e = floor(log10|x|),
    y = |x| 10**(11 - e) lies in [1e11, 1e12), and r = rint(y) holds the
    twelve significant digits; e is fixed once where log10 rounded up across
    a power of ten and stepped where r rounds up to 1e12.  y carries at most
    about 2e-4 of a unit of error (one correctly rounded power of ten, one
    product), so r is the correctly rounded value unless y lies within 1e-3
    of a half-integer.  Those cells, and every nonzero cell outside
    [1e-290, 1e290], non-finite ones included, take their text from Python's
    ``'%.12g' % x``, the kernel's exact fallback.
    """
    pow10, words, units, last, exp_word, exp_shift = _tables()
    rows = len(values)
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    n = x.size
    a = np.abs(x)
    zero = x == 0
    slow = ~((a >= 1e-290) & (a <= 1e290))  # nan too
    a[slow] = 1.0
    slow &= ~zero  # zeros are rendered as 1, then their digit is set
    e = np.floor(np.log10(a)).astype(np.intp)
    y = pow10.take(_P0 + 11 - e)
    y *= a
    low = np.flatnonzero(y < 1e11)
    if low.size:
        e[low] -= 1
        y[low] = a[low] * pow10.take(_P0 + 11 - e[low])
    r = np.rint(y)
    high = np.flatnonzero(r >= 1e12)
    if high.size:
        e[high] += 1
        z = a[high] * pow10.take(_P0 + 11 - e[high])
        r[high] = np.rint(z)
    # a y near a half-integer, before the step or after it, is a near tie
    y -= np.floor(y)
    y -= 0.5
    slow |= np.abs(y, out=y) <= 1e-3
    if high.size:
        slow[high] |= np.abs(z - np.floor(z) - 0.5) <= 1e-3
    del a, y
    # the digits split at the point: v, the integer part, and f, the fraction
    # as 16 digits; %.12g writes fixed notation (ip = e) for -4 <= e < 12 and
    # one integer digit (ip = 0) otherwise.  Every step is exact in float64.
    ip = np.where((e < -4) | (e >= 12), 0, e)
    scale = pow10.take(_P0 + 11 - ip)
    v = np.floor(r / scale)
    r -= v * scale
    r *= pow10.take(_P0 + 5 + ip)
    f = r.astype(np.int64)
    v = v.astype(np.int64)
    del r, scale
    out = np.zeros((n, _SLOT), np.uint8)
    w = out.view("<u4")
    # integer digits in words 0-3, right-aligned, leading zeros NUL
    h = v // 1000
    w[:, 3] = units.take(v - 1000 * h + 1000 * (h == 0))
    v = h // 10000
    w[:, 2] = words.take(h - 10000 * v + 10000 * (v == 0))
    h = v // 10000
    w[:, 1] = words.take(v - 10000 * h + 10000 * (h == 0))
    w[:, 0] = words.take(h + 10000)
    # fraction digits in words 4-7, trailing zeros NUL; digits counts them
    digits = np.zeros(n, np.uint8)
    trailing = np.ones(n, bool)
    for j in (3, 2, 1, 0):
        g = f // 10000
        b = f - 10000 * g
        w[:, 4 + j] = words.take(b + 20000 * trailing)
        np.maximum(digits, last[j].take(b), out=digits)
        trailing &= b == 0
        f = g
    flat = out.reshape(-1)
    neg = np.flatnonzero(np.signbit(x))
    flat[neg * _SLOT + 13 - np.maximum(ip[neg], 0)] = ord("-")
    flat[np.flatnonzero(zero) * _SLOT + 14] = ord("0")
    # one 8-byte word right after the last digit (over the point when there
    # is no fraction): the exponent text, then the separator, then NULs,
    # written through an unaligned uint64 view with a one-byte stride
    e += _E0
    sep = np.frombuffer(seps, np.uint8)
    tail = exp_word.take(e).reshape(rows, len(seps))
    tail |= sep.astype(np.uint64) << exp_shift.take(e).reshape(rows, len(seps))
    at = np.where(digits > 0, 16 + digits, 15) + np.arange(0, n * _SLOT, _SLOT)
    np.ndarray((flat.size - 7,), "<u8", flat, strides=(1,))[at] = tail.reshape(-1)
    slow = np.flatnonzero(slow)
    if slow.size:
        out[slow] = _exact(x[slow], sep[slow % len(seps)])
    return out.reshape(rows, len(seps) * _SLOT)


def _exact(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The kernel's exact fallback: the slots of ``'%.12g' % x`` and its separator, by Python."""
    text = [b"%.12g%c" % cell for cell in zip(values.tolist(), seps.tolist())]
    return np.array(text, dtype=f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)


def _text_column(texts: Sequence[str]) -> np.ndarray:
    """A byte matrix of one text cell per row, NUL-padded to the longest."""
    matrix = np.array(texts, dtype=bytes)
    return matrix.view(np.uint8).reshape(len(texts), matrix.itemsize)


def _rows(part) -> int:
    return len(part[0]) if isinstance(part, tuple) else len(part)


def _text(block: Sequence) -> bytes:
    """The text of one block of rows: its columns side by side, NULs dropped.

    A column is a byte matrix of text, with one row per row of the block or
    one row for all of them, or a ``(values, seps)`` pair: a float array
    whose cells are each followed by their column's separator byte, or a
    complex one whose every entry is the two cells re, im.  All float cells
    of the block go through one :func:`_cells` call.
    """
    rows = max(map(_rows, block))
    floats = [part for part in block if isinstance(part, tuple)]
    values = [
        np.ascontiguousarray(v, dtype=complex if np.iscomplexobj(v) else float).view(np.float64)
        for v, _ in floats
    ]
    cells = _cells(np.concatenate(values, axis=1), b"".join(seps for _, seps in floats))
    columns, at = [], 0
    for part in block:
        if isinstance(part, tuple):
            columns.append(cells[:, at : at + len(part[1]) * _SLOT])
            at += len(part[1]) * _SLOT
        else:
            columns.append(np.broadcast_to(part, (rows, part.shape[1])))
    matrix = np.concatenate(columns, axis=1)
    del cells, columns  # freed before the mask is formed
    return matrix[matrix != 0].tobytes()


def _write_table(path: Path, head: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write the ``head`` lines, then the text of every block of rows.

    A block is a list of columns, as :func:`_text` takes them.  It is
    rendered and written in chunks of rows holding at most ``_CHUNK_CELLS``
    float cells (one row at least), each written before the next is formed.
    """
    with path.open("wb") as fh:
        fh.write("".join(line + "\n" for line in head).encode())
        for block in blocks:
            rows = max(map(_rows, block))
            cells = sum(len(part[1]) for part in block if isinstance(part, tuple))
            step = max(_CHUNK_CELLS // cells, 1)
            for start in range(0, rows, step):
                stop = start + step
                fh.write(_text([
                    (part[0][start:stop], part[1]) if isinstance(part, tuple)
                    else part if len(part) == 1 else part[start:stop]
                    for part in block
                ]))
            del block  # freed before the next block is formed


def _write_out(config: argparse.Namespace, columns: str, blocks: Iterable[Sequence]) -> Path:
    """Write the ``--out`` table: the units line, the ``columns`` line, then the blocks."""
    out = Path(config.out)
    _write_table(out, (_HEADER_COMMENT, columns), blocks)
    return out


def _line_seps(cells: int, sep: bytes = b",") -> bytes:
    """The separators of a row of ``cells`` float cells: ``sep`` between them, a newline last."""
    return (sep * cells)[: cells - 1] + b"\n"


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
    sx = pad + (x - xmin) / (xmax - xmin) * (width - 2 * pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for name, ys, color in series:
        sy = height - pad - (ys - ymin) / (ymax - ymin) * (height - 2 * pad)
        # "x,y x,y ... x,y": the last separator is dropped
        pts = _text([(np.column_stack((sx, sy)), b", ")])[:-1].decode()
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
    written = [_write_out(config, columns, [[(values, b",,,\n")]])]
    if config.svg:
        svg = Path(config.svg)
        _write_svg(svg, table)
        written.append(svg)
    return written


def _run_modes(config: argparse.Namespace) -> list[Path]:
    from . import spectral

    # the table reads only the eigensystem: no A, cond(A) or J_B
    eig = spectral.build_sqrt_kappa(_load_model(config)).eig
    mu = np.column_stack((eig.values.real * HARTREE_TO_EV, eig.values.imag * HARTREE_TO_EV))
    index = _text_column([f"{k}," for k in range(len(mu))])
    written = [_write_out(config, "k,re_mu,im_mu", [[index, (mu, b",\n")]])]
    if config.vectors:
        # one line per eigenvector: "re im re im ..."
        vec_path = Path(config.vectors)
        vectors = eig.right_vectors.T.astype(complex, copy=False)
        _write_table(vec_path, (), [[(vectors, _line_seps(2 * vectors.shape[1], b" "))]])
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
    index = _text_column([f"{k}," for k in range(ledger.n_modes)])
    values = np.column_stack(
        (mu.real * HARTREE_TO_EV, mu.imag * HARTREE_TO_EV, ledger.intercept.real)
    )
    flags = _text_column([f"{int(k in selected)}\n" for k in range(ledger.n_modes)])
    block = [index, (values, b",,,"), flags]
    return [_write_out(config, "k,re_mu_eV,im_mu_eV,re_I,selected", [block])]


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
    means = means[:, 2 * n :].astype(complex, copy=False)
    block = [(t_grid[:, None], b","), (means, _line_seps(4 * n))]
    written = [_write_out(config, ",".join(header), [block])]
    if config.cov_out:
        cov_dir = Path(config.cov_out)
        cov_dir.mkdir(parents=True, exist_ok=True)
        cov_seps = _line_seps(8 * n, b";,")
        for idx, t in enumerate(t_grid):
            # the covariance never reads Delta_t, so the drive is left out
            prop = phasespace.propagator_at(ext, float(t))
            cov = phasespace.evolve_state(state0, prop).cov.astype(complex, copy=False)
            t_line = [_text_column(["# t = "]), (t_grid[idx : idx + 1, None], b"\n")]
            _write_table(
                cov_dir / f"cov_{idx:06d}.csv", (_HEADER_COMMENT,), [t_line, [(cov, cov_seps)]]
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
    # one row per (frequency, k query)
    keys = np.column_stack((np.repeat(grid_ev, len(k_queries)), np.tile(k_queries, (grid_ev.size, 1))))
    block = [(keys, b",,,,"), (scattered.reshape(-1, 3), b",,,,,\n")]
    columns = "omega_eV,kx,ky,kz,re_Ex,im_Ex,re_Ey,im_Ey,re_Ez,im_Ez"
    out = _write_out(config, columns, [block])
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
    omegas = _cells(grid_ev[:, None], b",")
    index = _text_column([f"{k}," for k in range(1, m + 1)])
    pairs = np.concatenate((np.repeat(index, m, axis=0), np.tile(index, (m, 1))), axis=1)

    def block(iw: int) -> list:
        # one frequency block of m * m rows: gamma and S are formed one
        # frequency at a time, and freed with the block
        gamma, s_ls = corr.at(iw)
        gamma, s_ls = gamma.reshape(-1, 1), s_ls.reshape(-1, 1)
        return [omegas[iw : iw + 1], pairs, (gamma, b",,"), (s_ls, b",\n")]

    columns = "omega_eV,alpha,beta,re_gamma,im_gamma,re_S,im_S"
    return [_write_out(config, columns, map(block, range(grid_ev.size)))]


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
