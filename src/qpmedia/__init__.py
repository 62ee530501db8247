"""Toolkit for dissipative polarizable media.

Spectral analysis of the damped equation of motion in an extended space,
exact eigenpair decomposition and filtering of polarizability spectra,
symplectic Gaussian-state propagation, self-consistent emitted fields and
open-quantum-system correlation functions.
"""

from .medium import (
    DriveSignal,
    KickDrive,
    MediumSpec,
    MonochromaticDrive,
    TabulatedDrive,
    build_extended_force,
    integrate_reference_extended,
    integrate_reference_second_order,
    simple_spec,
    spec_from_json,
    spec_to_json,
)
from .spectral import (
    EigenSystem,
    ExtendedOperator,
    build_JB,
    build_similarity,
    build_sqrt_kappa,
    eigendecompose,
    on_shell_energy,
    prepare,
)
from .response import (
    ModeLedger,
    SpectrumTable,
    decompose_modes,
    filter_eigenvalue,
    filter_intercept,
    polarizability_direct,
    reconstruct_spectrum,
)
from .phasespace import (
    GaussianState,
    Propagator,
    evolve_state,
    mean_in_frequency,
    propagator_at,
    thermal_state,
)
from .pseudoboson import (
    BiCoherentParams,
    PseudoBosonBasis,
    build_pseudoboson,
    coherent_params,
    evolve_alpha,
)
from .selfconsistent import (
    FieldPlaneWaveSet,
    PlaneWave,
    auxiliary_response,
    emitted_field_first_order,
    gaussian_ft,
    scattering_T,
)
from .openquantum import (
    CorrelationSet,
    SystemCoupling,
    assemble_master_equation,
    bohr_decompose,
    correlation_frequency,
    correlation_time,
    thermal_correlation,
)
from .builders import (
    DrudeParams,
    GeometryFile,
    build_drude_charge_model,
    build_synthetic,
    parse_xyz,
    perturb_geometry,
)

__version__ = "0.1.0"
