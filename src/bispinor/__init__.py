"""Two-qubit encoding of a planar bi-spinor with one-shot dephasing.

The four levels (a, b, c, d) map onto parity x spin. The package builds
the 4x4 Hamiltonian and its invariant partner, diagonalizes them in
closed form and with LAPACK, translates the couplings into trapped-ion
drive parameters, applies a phase-damping channel, and tracks negativity
and geometric discord along the evolution, one block of time samples at
a time.
"""

from .correlations import (CorrelationSample, fano_decompose, geometric_discord,
                           negativity, purity, sample_correlations,
                           sample_correlations_stack)
from .dirac import (DiracParams, SpectralData, build_dirac_hamiltonian,
                    build_invariant_operator, compute_g2, eigenprojectors,
                    eigenvalue_closed_form)
from .errors import (DegenerateSpectrumError, InvariantViolation,
                     UnsupportedConfigurationError, UsageError)
from .ionmap import IonParams, assemble_ion_hamiltonian, dirac_to_ion, ion_to_dirac
from .linalg import (EigenSystem, evolution_operator, hermitian_eigensystem,
                     partial_transpose, tensor_product, trace_norm_hermitian)
from .noise import (KrausSet, NoiseParams, apply_channel, build_kraus_set,
                    coefficient_matrix, dephasing_mask, evolve_noiseless,
                    evolve_noiseless_stack, evolve_noisy, evolve_noisy_stack,
                    validate_density_matrix)
from .scenario import (FeatureReport, ScenarioConfig, TrajectoryRecord,
                       detect_features, emit_outputs, initial_state, load_config,
                       parse_config_text, run_scenario, run_trajectory)

__version__ = "0.1.0"

__all__ = [
    "CorrelationSample",
    "DegenerateSpectrumError",
    "DiracParams",
    "EigenSystem",
    "FeatureReport",
    "InvariantViolation",
    "IonParams",
    "KrausSet",
    "NoiseParams",
    "ScenarioConfig",
    "SpectralData",
    "TrajectoryRecord",
    "UnsupportedConfigurationError",
    "UsageError",
    "apply_channel",
    "assemble_ion_hamiltonian",
    "build_dirac_hamiltonian",
    "build_invariant_operator",
    "build_kraus_set",
    "coefficient_matrix",
    "dephasing_mask",
    "compute_g2",
    "detect_features",
    "dirac_to_ion",
    "eigenprojectors",
    "eigenvalue_closed_form",
    "emit_outputs",
    "evolution_operator",
    "evolve_noiseless",
    "evolve_noiseless_stack",
    "evolve_noisy",
    "evolve_noisy_stack",
    "fano_decompose",
    "geometric_discord",
    "hermitian_eigensystem",
    "initial_state",
    "ion_to_dirac",
    "load_config",
    "negativity",
    "parse_config_text",
    "partial_transpose",
    "purity",
    "run_scenario",
    "run_trajectory",
    "sample_correlations",
    "sample_correlations_stack",
    "tensor_product",
    "trace_norm_hermitian",
    "validate_density_matrix",
]
