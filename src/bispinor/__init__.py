"""Two-qubit encoding of a planar bi-spinor with one-shot dephasing.

The four levels (a, b, c, d) map onto parity x spin. The package builds
the 4x4 Hamiltonian and its invariant partner, diagonalizes them in
closed form and with LAPACK, translates the couplings into trapped-ion
drive parameters, applies a phase-damping channel, and tracks negativity
and geometric discord along the evolution, one block of time samples at
a time.
"""

import os as _os

# OpenBLAS reads its thread count once, when numpy first loads it, and
# starts its worker threads then; on these 4x4 problems they only spin.
# So unless the caller chose a count, numpy is loaded with one thread and
# the environment is restored at once, leaving child processes the
# caller's own settings.
if "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .correlations import (COLUMNS, geometric_discord, negativity, purity,
                           sample_correlations_stack)
from .dirac import (DiracParams, SpectralData, build_dirac_hamiltonian,
                    build_invariant_operator, compute_g2, eigenprojectors,
                    eigenvalue_closed_form)
from .errors import (DegenerateSpectrumError, InvariantViolation,
                     UnsupportedConfigurationError, UsageError)
from .ionmap import IonParams, assemble_ion_hamiltonian, dirac_to_ion, ion_to_dirac
from .linalg import (EigenSystem, evolution_operator, hermitian_eigensystem,
                     partial_transpose, tensor_product, top_eigenvalue_3x3)
from .noise import (KrausSet, NoiseParams, apply_channel, build_kraus_set,
                    dephasing_mask, evolve_noiseless, evolve_noiseless_stack,
                    evolve_noisy, evolve_noisy_stack, validate_density_matrix)
from .scenario import (FeatureReport, ScenarioConfig, TrajectoryRecord,
                       detect_features, emit_outputs, initial_state, load_config,
                       parse_config_text, run_scenario, run_trajectory)

__version__ = "0.1.0"

__all__ = [
    "COLUMNS",
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
    "sample_correlations_stack",
    "tensor_product",
    "top_eigenvalue_3x3",
    "validate_density_matrix",
]
