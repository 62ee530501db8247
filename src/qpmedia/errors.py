"""Exception types raised across the package.

Every operational failure maps to one of these named errors so that the CLI
can report a stable, structured error name on exit.
"""

from __future__ import annotations


class QpmError(Exception):
    """Base class for all package errors."""


class OutOfRange(QpmError):
    """Evaluation time lies outside a tabulated drive's grid."""


class NonFinite(QpmError):
    """A computation produced infinities or NaNs (unstable spectrum)."""


class InconsistentInitialConditions(QpmError):
    """Extended-space initial conditions violate the velocity constraint."""


class DefectiveMatrix(QpmError):
    """Eigenvector matrix is too ill-conditioned for a diagonal treatment."""


class SingularSimilarity(QpmError):
    """The symmetric similarity matrix is numerically singular."""


class SingularAtFrequency(QpmError):
    """The response solve is singular at a requested frequency."""

    def __init__(self, omega: float):
        self.omega = omega
        super().__init__(f"response matrix singular at omega={omega!r}")


class ZeroMode(QpmError):
    """A zero eigenvalue prevents the ladder-operator construction."""


class SingularEffectiveSigma(QpmError):
    """The bi-orthogonal normalization integral is ill-defined."""


class ResonantFrequency(QpmError):
    """The frequency-domain generator solve hit an exact resonance."""

    def __init__(self, omega: float):
        self.omega = omega
        super().__init__(f"generator solve singular at omega={omega!r}")


class SingularAuxiliary(QpmError):
    """The auxiliary-field response matrix is singular at this frequency."""

    def __init__(self, omega: float):
        self.omega = omega
        super().__init__(f"auxiliary response singular at omega={omega!r}")


class ThermalSingularity(QpmError):
    """The thermal state does not exist: a zero mode, or a pole of coth(hbar beta mu / 2)."""


class LightConeSingularity(QpmError):
    """A field query point sits exactly on the light cone."""

    def __init__(self, k, omega):
        self.k = k
        self.omega = omega
        super().__init__(f"light-cone singularity at k={k!r}, omega={omega!r}")


class MalformedXYZ(QpmError):
    """An XYZ geometry file failed to parse."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class CountMismatch(QpmError):
    """The XYZ atom count header disagrees with the number of rows."""


class CoincidentAtoms(QpmError):
    """Two atoms coincide, making the interaction kernel singular."""


class UnsupportedDrive(QpmError):
    """The requested operation does not support this drive variant."""
