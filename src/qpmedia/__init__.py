"""Toolkit for dissipative polarizable media.

Spectral analysis of the damped equation of motion in an extended space,
exact eigenpair decomposition and filtering of polarizability spectra,
symplectic Gaussian-state propagation, self-consistent emitted fields and
open-quantum-system correlation functions.

``import qpmedia`` loads no layer module.  Each public name below is
resolved from its module on first access (PEP 562), so a ``qpm`` command,
or a script, pays only for the layers it reads.
"""

from importlib import import_module

_EXPORTS = {
    "medium": (
        "DriveSignal",
        "KickDrive",
        "MediumSpec",
        "MonochromaticDrive",
        "TabulatedDrive",
        "simple_spec",
        "spec_from_json",
        "spec_to_json",
    ),
    "spectral": (
        "EigenSystem",
        "ExtendedOperator",
        "build_similarity",
        "build_sqrt_kappa",
        "eigendecompose",
        "prepare",
    ),
    "response": (
        "ModeLedger",
        "SpectrumTable",
        "decompose_modes",
        "filter_eigenvalue",
        "filter_intercept",
        "reconstruct_spectrum",
    ),
    "phasespace": (
        "GaussianState",
        "Propagator",
        "evolve_state",
        "mean_in_frequency",
        "propagator_at",
        "thermal_state",
    ),
    "pseudoboson": (
        "BiCoherentParams",
        "PseudoBosonBasis",
        "build_pseudoboson",
        "coherent_params",
        "evolve_alpha",
    ),
    "selfconsistent": (
        "FieldPlaneWaveSet",
        "PlaneWave",
        "auxiliary_response",
        "emitted_field_first_order",
        "gaussian_ft",
        "scattering_T",
    ),
    "openquantum": (
        "CorrelationSet",
        "SystemCoupling",
        "assemble_master_equation",
        "bohr_decompose",
        "correlation_frequency",
        "correlation_time",
        "thermal_correlation",
    ),
    "builders": (
        "DrudeParams",
        "GeometryFile",
        "build_drude_charge_model",
        "build_synthetic",
        "parse_xyz",
        "perturb_geometry",
    ),
    "oracles": (
        "build_JB",
        "build_extended_force",
        "integrate_reference_extended",
        "integrate_reference_second_order",
        "on_shell_energy",
        "polarizability_direct",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
