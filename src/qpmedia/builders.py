"""Constructors of media: Drude-style conducting clusters and synthetic fixtures.

The conducting-model builder maps a geometry plus Drude parameters into the
normal-form kernel/damping pair.  Published force-field parameterizations are
deliberately not baked in; every physical constant arrives through
:class:`DrudeParams` or an explicit kernel file.  Nothing here opens a file:
:func:`parse_xyz` and :meth:`DrudeParams.from_json` parse text that the
caller has read (``qpm build`` reads ``--xyz`` and ``--params``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constants import BOHR_PER_ANGSTROM
from .errors import CoincidentAtoms, CountMismatch, MalformedXYZ
from .medium import MediumSpec, _json_floats, _json_object


@dataclass(frozen=True)
class GeometryFile:
    """Parsed atomic geometry; positions in angstrom, one column per atom."""

    symbols: tuple[str, ...]
    positions: NDArray[np.float64]

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != 3 or pos.shape[1] == 0:
            raise ValueError("positions must be a 3 x m array with m >= 1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain non-finite entries")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "symbols", tuple(self.symbols))

    @property
    def natoms(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class DrudeParams:
    """Parameters of the damped conducting-charge model.

    drude_factor:
        Plasma-like link strength (Hartree^2 scale), scalar or per atom.
    relaxation:
        Uniform relaxation rate; the normal-form damping is half of it.
    gaussian_width:
        Width parameter s of the damped Coulomb kernel erf(d/(s sqrt2))/d.
    tunneling_*:
        Fermi-type gate on links: 1/(1 + exp(steepness (d/d0 - 1))).
    """

    drude_factor: float | NDArray[np.float64]
    relaxation: float
    gaussian_width: float
    tunneling_enabled: bool = False
    tunneling_d0: float = 0.0
    tunneling_steepness: float = 1.0

    def __post_init__(self):
        for name in (
            "drude_factor", "relaxation", "gaussian_width", "tunneling_d0", "tunneling_steepness"
        ):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.gaussian_width <= 0:
            raise ValueError("gaussian_width must be positive")
        if self.relaxation < 0:
            raise ValueError("relaxation must be non-negative")
        if np.any(np.asarray(self.drude_factor) < 0):
            raise ValueError("drude_factor must be non-negative")
        if self.tunneling_enabled and self.tunneling_d0 <= 0:
            raise ValueError("tunneling_d0 must be positive when tunneling is enabled")

    @classmethod
    def from_json(cls, text: str) -> "DrudeParams":
        """Parameters of a JSON object; a key of the wrong type raises a ValueError naming it."""
        doc = _json_object(json.loads(text), "a parameter file")
        tun = {
            "enabled": False,
            "d0": 0.0,
            "steepness": 1.0,
            **_json_object(doc.get("tunneling", {}), "tunneling"),
        }
        if not isinstance(tun["enabled"], bool):
            raise ValueError("tunneling enabled must be true or false")
        drude_factor = _json_floats(doc, "drude_factor")
        return cls(
            drude_factor=float(drude_factor) if drude_factor.ndim == 0 else drude_factor,
            relaxation=float(_json_floats(doc, "relaxation", ())),
            gaussian_width=float(_json_floats(doc, "gaussian_width", ())),
            tunneling_enabled=tun["enabled"],
            tunneling_d0=float(_json_floats(tun, "d0", ())),
            tunneling_steepness=float(_json_floats(tun, "steepness", ())),
        )


def parse_xyz(text: str) -> GeometryFile:
    """Parse standard XYZ text (count line, comment line, element rows)."""
    lines = text.splitlines()
    if not lines:
        raise MalformedXYZ(1, "empty file")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise MalformedXYZ(1, f"expected atom count, got {lines[0]!r}") from None
    symbols: list[str] = []
    positions: list[list[float]] = []
    for offset, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 4:
            raise MalformedXYZ(offset, f"expected 'El x y z', got {line!r}")
        try:
            xyz = [float(p) for p in parts[1:4]]
        except ValueError:
            raise MalformedXYZ(offset, f"bad coordinate in {line!r}") from None
        symbols.append(parts[0])
        positions.append(xyz)
    if len(symbols) != count:
        raise CountMismatch(
            f"count line says {count} atoms but {len(symbols)} rows parsed"
        )
    return GeometryFile(symbols=tuple(symbols), positions=np.array(positions).T)


def _distances(coords_bohr: NDArray[np.float64]) -> NDArray[np.float64]:
    """The n x n matrix of distances between the columns of ``coords_bohr``."""
    diff = coords_bohr[:, :, None] - coords_bohr[:, None, :]
    return np.linalg.norm(diff, axis=0)


def coulomb_kernel(coords_bohr: NDArray[np.float64], width: float):
    """Gaussian-damped charge-charge kernel and the distance matrix.

    Off-diagonal elements are erf(d/(width sqrt2))/d; the diagonal is the
    d -> 0 limit 2/(width sqrt(2 pi)), which bounds the interaction and
    removes the polarization catastrophe of the bare Coulomb kernel.
    """
    d = _distances(coords_bohr)
    n = d.shape[0]
    # d is exactly symmetric, so erf is evaluated once per pair and mirrored
    upper = np.triu_indices(n, 1)
    pairs = d[upper]
    if np.any(pairs == 0.0):
        raise CoincidentAtoms("two sources coincide")
    x = pairs / (width * np.sqrt(2.0))
    T = np.empty((n, n))
    T[upper] = T.T[upper] = np.fromiter(map(math.erf, x.tolist()), float, count=x.size) / pairs
    np.fill_diagonal(T, 2.0 / (width * np.sqrt(2.0 * np.pi)))
    return T, d


def tunneling_gate(d: NDArray[np.float64], params: DrudeParams):
    """Fermi-type distance gate on conduction links (1 when disabled)."""
    if not params.tunneling_enabled:
        return np.ones_like(d)
    x = params.tunneling_steepness * (d / params.tunneling_d0 - 1.0)
    return 1.0 / (1.0 + np.exp(x))


def _conduction(d: NDArray[np.float64], params: DrudeParams):
    """The conduction matrix of the links between sources at distances ``d``."""
    n = d.shape[0]
    factor = np.asarray(params.drude_factor, dtype=float)
    if factor.ndim > 1 or factor.size not in (1, n):
        raise ValueError(f"drude_factor must be one number or one per source ({n})")
    factor = np.broadcast_to(factor, (n,))
    strength = np.sqrt(np.outer(factor, factor))
    w = strength * tunneling_gate(d, params)
    np.fill_diagonal(w, 0.0)
    return -(np.diag(w.sum(axis=1)) - w)


def drude_conduction_matrix(geom: GeometryFile, params: DrudeParams):
    """The (negative-semidefinite) conduction matrix of the charge model.

    Built as minus the weighted graph Laplacian of the gated links, so a
    uniform charge shift is exactly conserved.
    """
    return _conduction(_distances(geom.positions * BOHR_PER_ANGSTROM), params)


def build_drude_charge_model(
    geom: GeometryFile, params: DrudeParams, response_axis: int = 2
) -> MediumSpec:
    """Map the conducting-charge equation of motion into normal form.

    With unit masses the stiffness is K = -K_cond T and the damping is half
    the relaxation rate.  ``response_axis`` selects which coordinate
    component the generalized coordinate vector carries.
    """
    coords_bohr = geom.positions * BOHR_PER_ANGSTROM
    T, d = coulomb_kernel(coords_bohr, params.gaussian_width)
    K = -_conduction(d, params) @ T
    n = geom.natoms
    gamma = 0.5 * params.relaxation * np.eye(n)
    sigma = (params.gaussian_width**2 / 2.0) * np.eye(3)
    return MediumSpec(
        coords=coords_bohr,
        covariances=np.broadcast_to(sigma, (n, 3, 3)).copy(),
        kernel=K,
        damping=gamma,
        source_kind=("charge",) * n,
        gen_coord_vector=coords_bohr[response_axis].copy(),
    )


def uniform_field_kick(
    geom: GeometryFile, params: DrudeParams, direction=(0.0, 0.0, 1.0)
) -> NDArray[np.float64]:
    """Kick amplitude equivalent to a unit uniform field along ``direction``.

    The site potential of a uniform field is projected through the
    conduction matrix exactly as the kernel is, which removes any spurious
    force on the conserved total-charge mode.
    """
    coords_bohr = geom.positions * BOHR_PER_ANGSTROM
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    potential = -(direction @ coords_bohr)
    return -drude_conduction_matrix(geom, params) @ potential


def build_synthetic(n: int, seed: int, stability: str = "stable") -> MediumSpec:
    """Deterministic pseudo-random medium with a controlled spectrum.

    The kernel is a diagonally dominant real symmetric matrix plus a small
    non-symmetric perturbation; the damping is diagonal and non-negative.
    The perturbation is shrunk until every extended eigenvalue is stable
    (marginal media keep zero damping and sit on the real axis).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if stability not in ("stable", "marginal"):
        raise ValueError("stability must be 'stable' or 'marginal'")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, n))
    K_sym = base @ base.T / n + (2.0 + rng.uniform(0.0, 1.0)) * np.eye(n)
    pert = rng.standard_normal((n, n))
    if stability == "stable":
        gamma_diag = rng.uniform(0.05, 0.5, size=n)
    else:
        gamma_diag = np.zeros(n)
    coords = rng.uniform(-3.0, 3.0, size=(3, n))

    eps = 0.3
    for _ in range(40):
        K = K_sym + eps * pert / max(1, n)
        sq = 1j * np.block(
            [
                [np.zeros((n, n)), -np.eye(n)],
                [K.astype(complex), 2.0 * np.diag(gamma_diag).astype(complex)],
            ]
        )
        # stability is Im(Sp{-sqrt_kappa}) <= 0, i.e. Im(Sp{sqrt_kappa}) >= 0
        if np.linalg.eigvals(sq).imag.min() >= -1e-12:
            break
        eps *= 0.5
    else:
        K = K_sym
    return MediumSpec(
        coords=coords,
        covariances=np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
        kernel=K,
        damping=np.diag(gamma_diag),
        source_kind=("charge",) * n,
        gen_coord_vector=coords[2].copy(),
    )


def hexagonal_disk(radius: float, spacing: float) -> GeometryFile:
    """Hexagonal-lattice disk of carbon atoms in the z = 0 plane (angstrom units)."""
    pts = []
    m = int(radius / spacing) + 2
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            x = spacing * (i + 0.5 * j)
            y = spacing * (np.sqrt(3.0) / 2.0 * j)
            if x * x + y * y <= radius * radius:
                pts.append((x, y, 0.0))
    pts.sort()
    positions = np.array(pts).T
    return GeometryFile(symbols=("C",) * positions.shape[1], positions=positions)
