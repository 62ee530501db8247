"""Defining data of a classical polarizable medium, its drives and its model file.

A medium is a set of n polarization sources at frozen coordinates obeying

    u''(t) + 2 Gamma u'(t) + K u(t) + f(t) = 0,

with K, Gamma arbitrary complex matrices.  The RK4 integrators that every
dynamics route is checked against live in :mod:`oracles`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .errors import OutOfRange, UnsupportedDrive

_GEN_COORD_TOL = 1e-9


def _require_finite(name: str, values) -> None:
    """Raise a ValueError that names ``name`` unless every entry of ``values`` is finite.

    Each frequency, frequency grid, time, drive, mean, covariance, ladder
    amplitude, plane wave and wavevector is checked where it enters, before
    any product with it, so that nan or inf gives this error and not a nan
    table or an overflow warning.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MediumSpec:
    """The defining tuple of a polarizable medium.

    Attributes
    ----------
    coords:
        Generalized coordinates, 3 x n, atomic units of length.
    covariances:
        n symmetric PSD 3x3 spatial-dispersion matrices.
    kernel, damping:
        The n x n interaction kernel K and damping matrix Gamma, each float64
        unless its input has a nonzero imaginary entry (then complex128).
    source_kind:
        Per-source tag, ``"charge"`` or ``"dipole-component"``.
    gen_coord_vector:
        Measurement weights: a coordinate component for charge sources,
        unity for dipole components.
    """

    coords: NDArray[np.float64]
    covariances: NDArray[np.float64]
    kernel: NDArray[np.float64] | NDArray[np.complex128]
    damping: NDArray[np.float64] | NDArray[np.complex128]
    source_kind: tuple[str, ...]
    gen_coord_vector: NDArray[np.float64]

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        n = coords.shape[1]
        object.__setattr__(self, "coords", coords)
        object.__setattr__(
            self, "covariances", np.asarray(self.covariances, dtype=float).reshape(n, 3, 3)
        )
        for name in ("kernel", "damping"):
            m = np.asarray(getattr(self, name))
            if np.iscomplexobj(m) and np.any(m.imag):
                object.__setattr__(self, name, m.astype(complex, copy=False))
            else:  # a copy, so that no complex buffer stays behind a real view
                object.__setattr__(self, name, m.real.astype(float))
        object.__setattr__(
            self, "gen_coord_vector", np.asarray(self.gen_coord_vector, dtype=float)
        )
        self._validate()

    @property
    def n(self) -> int:
        return self.coords.shape[1]

    def _validate(self):
        n = self.n
        if n < 1:
            raise ValueError(f"medium size n must be at least 1, got {n}")
        if self.coords.shape != (3, n):
            raise ValueError(f"coords must be 3 x n, got {self.coords.shape}")
        for name in ("kernel", "damping"):
            m = getattr(self, name)
            if m.shape != (n, n):
                raise ValueError(f"{name} must be {n} x {n}, got {m.shape}")
            if not np.all(np.isfinite(m.view(float))):
                raise ValueError(f"{name} contains non-finite entries")
        if len(self.source_kind) != n:
            raise ValueError("source_kind must have one tag per source")
        if self.gen_coord_vector.shape != (n,):
            raise ValueError("gen_coord_vector must have length n")
        for name in ("coords", "covariances", "gen_coord_vector"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        sigma = self.covariances
        sigma_t = sigma.transpose(0, 2, 1)
        asymmetric = ~np.isclose(sigma, sigma_t, atol=1e-12).all(axis=(1, 2))
        # halved before the sum, which cannot overflow for finite entries
        indefinite = np.linalg.eigvalsh(sigma / 2 + sigma_t / 2).min(axis=1) < -1e-12
        bad = np.flatnonzero(asymmetric | indefinite)
        if bad.size:
            alpha = bad[0]
            if asymmetric[alpha]:
                raise ValueError(f"covariance {alpha} is not symmetric")
            raise ValueError(f"covariance {alpha} is not positive semidefinite")
        for alpha, kind in enumerate(self.source_kind):
            g = self.gen_coord_vector[alpha]
            if kind == "dipole-component":
                if abs(g - 1.0) > _GEN_COORD_TOL:
                    raise ValueError(
                        f"dipole source {alpha} must carry unit generalized coordinate"
                    )
            elif kind == "charge":
                # halved, so that coordinates near the float64 maximum
                # cannot overflow; this decides as |c - g| > tol does
                if np.abs(self.coords[:, alpha] / 2 - g / 2).min() > _GEN_COORD_TOL / 2:
                    raise ValueError(
                        f"charge source {alpha}: gen_coord_vector must be a coordinate component"
                    )
            else:
                raise ValueError(f"unknown source kind {kind!r}")


def simple_spec(kernel, damping, coords=None) -> MediumSpec:
    """Build a MediumSpec from K and Gamma alone, with default geometry.

    Sources are placed on the z axis with unit spacing and unit-variance
    covariances; the generalized coordinate is the z component.
    K and Gamma are stored as :class:`MediumSpec` decides, float64 when real.
    """
    kernel = np.atleast_2d(kernel)
    n = kernel.shape[0]
    if coords is None:
        coords = np.zeros((3, n))
        coords[2] = np.arange(1, n + 1, dtype=float)
    coords = np.asarray(coords, dtype=float)
    return MediumSpec(
        coords=coords,
        covariances=np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
        kernel=kernel,
        damping=np.atleast_2d(damping),
        source_kind=("charge",) * n,
        gen_coord_vector=coords[2].copy(),
    )


# ---------------------------------------------------------------------------
# Drive signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KickDrive:
    """Constant generalized force (zero derivative between impulses).

    In the frequency domain its amplitude is constant, which is what makes
    the mode-decomposition coefficients linear in omega.
    """

    amplitude: NDArray[np.complex128]

    def __post_init__(self):
        amplitude = np.atleast_1d(np.asarray(self.amplitude, dtype=complex))
        _require_finite("kick amplitude", amplitude)
        object.__setattr__(self, "amplitude", amplitude)


@dataclass(frozen=True)
class MonochromaticDrive:
    """Real cosine drive f(t) = amplitude * cos(omega0 t)."""

    amplitude: NDArray[np.complex128]
    omega0: float

    def __post_init__(self):
        amplitude = np.atleast_1d(np.asarray(self.amplitude, dtype=complex))
        _require_finite("drive amplitude", amplitude)
        _require_finite("drive frequency omega0", self.omega0)
        object.__setattr__(self, "amplitude", amplitude)


@dataclass(frozen=True)
class TabulatedDrive:
    """Sampled drive with a user-supplied derivative channel.

    Values are interpolated linearly; the derivative channel is supplied,
    not differenced, to avoid amplifying sampling noise.
    """

    times: NDArray[np.float64]
    values: NDArray[np.complex128]
    derivatives: NDArray[np.complex128]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=complex))
        d = np.atleast_2d(np.asarray(self.derivatives, dtype=complex))
        _require_finite("tabulated times", t)
        _require_finite("tabulated values", v)
        _require_finite("tabulated derivatives", d)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValueError("tabulated time grid must be strictly increasing")
        if v.shape[0] != t.size or d.shape != v.shape:
            raise ValueError("values and derivatives must match the time grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "derivatives", d)


DriveSignal = Union[KickDrive, MonochromaticDrive, TabulatedDrive]


def drive_value(drive: DriveSignal, t: float):
    """Evaluate (f(t), f'(t)) for a drive."""
    if isinstance(drive, KickDrive):
        return drive.amplitude, np.zeros_like(drive.amplitude)
    if isinstance(drive, MonochromaticDrive):
        f = drive.amplitude * np.cos(drive.omega0 * t)
        fdot = -drive.omega0 * drive.amplitude * np.sin(drive.omega0 * t)
        return f, fdot
    if isinstance(drive, TabulatedDrive):
        times = drive.times
        if t < times[0] or t > times[-1]:
            raise OutOfRange(f"t={t} outside tabulated grid [{times[0]}, {times[-1]}]")
        i = min(np.searchsorted(times, t, side="right"), times.size - 1)
        lo = max(i - 1, 0)
        hi = min(lo + 1, times.size - 1)
        if hi == lo:
            return drive.values[lo], drive.derivatives[lo]
        w = (t - times[lo]) / (times[hi] - times[lo])
        f = (1 - w) * drive.values[lo] + w * drive.values[hi]
        fdot = (1 - w) * drive.derivatives[lo] + w * drive.derivatives[hi]
        return f, fdot
    raise TypeError(f"unknown drive type {type(drive)!r}")


def spectral_amplitude(drive: DriveSignal) -> NDArray[np.complex128]:
    """Frequency-domain amplitude of a drive for linear-response sweeps.

    A kick has a constant amplitude across frequencies.  A monochromatic
    drive is treated as a sweep: at every frequency the amplitude is the
    envelope of the drive tuned to that frequency.  Tabulated drives carry
    no closed-form transform and are rejected.
    """
    if isinstance(drive, (KickDrive, MonochromaticDrive)):
        return drive.amplitude
    raise UnsupportedDrive("tabulated drives have no closed-form spectral amplitude")


# ---------------------------------------------------------------------------
# Extended coordinates
# ---------------------------------------------------------------------------

def _extended_force(damping, f, fdot):
    """F = [f; f' - 2 Gamma f], the drive (f, f') in the extended coordinates."""
    return np.concatenate([f, fdot - 2.0 * (damping @ f)])


def consistent_extended_ic(
    spec: MediumSpec, u0, v0, drive: DriveSignal | None = None, t0: float = 0.0
):
    """Extended initial conditions (x0, xdot0) generated by (u0, u'0).

    The auxiliary slope is v'(0) = u''(0) = -K u0 - 2 Gamma u'0 - f(0); the
    drive term matters whenever f is nonzero at the start.
    """
    u0 = np.asarray(u0, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    x0 = np.concatenate([u0, v0])
    accel = -spec.kernel @ u0 - 2.0 * spec.damping @ v0
    if drive is not None:
        f0, _ = drive_value(drive, t0)
        accel = accel - f0
    xdot0 = np.concatenate([v0, accel])
    return x0, xdot0


def extended_kernel(K, G) -> NDArray:
    """kappa = -M M, M = [[0, -I], [K, 2 G]]: the velocity-independent kernel."""
    return np.block([[K, 2.0 * G], [-2.0 * G @ K, K - 4.0 * G @ G]])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# what json.dumps(indent=2) writes between two cells of a list nested one level deep
_CELL_SEP = ",\n    "


def _json_list(cells) -> str:
    """A list of already-encoded cells, laid out as json.dumps(indent=2) lays it out."""
    return "[\n    " + _CELL_SEP.join(cells) + "\n  ]"


def _json_float_cells(values: NDArray[np.float64]) -> list[str]:
    """Each entry of ``values`` as json writes a finite float: ``float.__repr__``.

    An exact +0.0 is the literal ``"0.0"`` without a repr; a -0.0 keeps its own.
    The all-zero ``_im`` lists of a real medium and the off-diagonal of a
    scalar damping so cost almost nothing.
    """
    flat = values.ravel()
    kept = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    if kept.size == flat.size:
        return list(map(float.__repr__, flat.tolist()))
    cells = ["0.0"] * flat.size
    for i, cell in zip(kept.tolist(), map(float.__repr__, flat[kept].tolist())):
        cells[i] = cell
    return cells


def spec_to_json(spec: MediumSpec) -> str:
    """Serialize a MediumSpec to the documented JSON layout (row-major).

    The text is, byte for byte, ``json.dumps(doc, indent=2, sort_keys=True)``
    of the document with every array flattened to a list, written directly
    rather than through json's pure-Python indent encoder.
    """
    arrays = {
        "coords": spec.coords,
        "covariances": spec.covariances,
        "gen_coord_vector": spec.gen_coord_vector,
    }
    for name in ("kernel", "damping"):
        m = getattr(spec, name)
        arrays[f"{name}_re"], arrays[f"{name}_im"] = m.real, m.imag
    fields = {key: _json_list(_json_float_cells(a)) for key, a in arrays.items()}
    fields["n"] = json.dumps(spec.n)
    fields["source_kind"] = _json_list(map(json.dumps, spec.source_kind))
    return "{\n" + ",\n".join(f'  "{key}": {fields[key]}' for key in sorted(fields)) + "\n}"


def _json_floats(doc: dict, key: str, shape: tuple[int, ...] | None = None) -> NDArray[np.float64]:
    """``doc[key]`` as a float array, reshaped row-major to ``shape`` when given.

    A value that is not a number or a (nested) list of numbers, or that
    holds another count of them than ``shape`` does, raises a ValueError that
    names ``key``.
    """
    try:
        values = np.asarray(doc[key])
    except ValueError:  # a ragged nested list
        values = None
    if values is None or values.dtype.kind not in "iuf":
        raise ValueError(f"{key} must be a number or a list of numbers")
    values = values.astype(float, copy=False)
    if shape is None:
        return values
    if values.size != math.prod(shape):
        raise ValueError(f"{key} must hold {math.prod(shape)} number(s), got {values.size}")
    return values.reshape(shape)


def _json_object(doc, what: str) -> dict:
    """``doc`` when it is a JSON object; otherwise a ValueError that names ``what``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object")
    return doc


def _json_matrix(doc: dict, name: str, n: int) -> NDArray:
    """The n x n matrix stored as ``{name}_re`` and ``{name}_im``, bit for bit.

    An all-zero ``_im`` list gives the float ``_re`` matrix untouched;
    otherwise the parts are assigned to a complex array, not summed, so every
    signed zero is kept.
    """
    re = _json_floats(doc, f"{name}_re", (n, n))
    im = _json_floats(doc, f"{name}_im", (n, n))
    if not im.any():
        return re
    out = np.empty((n, n), dtype=complex)
    out.real, out.imag = re, im
    return out


def spec_from_json(text: str) -> MediumSpec:
    doc = _json_object(json.loads(text), "a model file")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"model n must be an integer of at least 1, got {n!r}")
    if not isinstance(doc["source_kind"], list):
        raise ValueError("source_kind must be a list of source tags")
    return MediumSpec(
        coords=_json_floats(doc, "coords", (3, n)),
        covariances=_json_floats(doc, "covariances", (n, 3, 3)),
        kernel=_json_matrix(doc, "kernel", n),
        damping=_json_matrix(doc, "damping", n),
        source_kind=tuple(doc["source_kind"]),
        gen_coord_vector=_json_floats(doc, "gen_coord_vector", (n,)),
    )


def __getattr__(name: str):
    # perfbench/workloads.py imports the RK4 oracle from here; ROADMAP item
    # 1(a) moves that import to qpmedia.oracles and deletes this shim
    if name == "integrate_reference_second_order":
        from .oracles import integrate_reference_second_order

        return integrate_reference_second_order
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
