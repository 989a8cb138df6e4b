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

from .correlations import COLUMNS, sample_correlations_stack
from .dirac import (SPECTRAL_KEYS, DiracParams, closed_form_spectrum, operator_stacks,
                    spectral_stacks)
from .errors import DegenerateSpectrumError, InvariantViolation, UsageError
from .ionmap import IonParams, assemble_ion_stack, dirac_to_ion
from .linalg import partial_transpose, top_eigenvalue_3x3
from .noise import NoiseParams, apply_channel, build_kraus_set, evolve_noisy_stack
from .scenario import (FeatureReport, ScenarioConfig, detect_features, emit_outputs,
                       initial_state, load_config, parse_config_text, run_scenario,
                       run_trajectory)

__version__ = "0.1.0"

__all__ = [
    "COLUMNS",
    "DegenerateSpectrumError",
    "DiracParams",
    "FeatureReport",
    "InvariantViolation",
    "IonParams",
    "NoiseParams",
    "SPECTRAL_KEYS",
    "ScenarioConfig",
    "UsageError",
    "apply_channel",
    "assemble_ion_stack",
    "build_kraus_set",
    "closed_form_spectrum",
    "detect_features",
    "dirac_to_ion",
    "emit_outputs",
    "evolve_noisy_stack",
    "initial_state",
    "load_config",
    "operator_stacks",
    "parse_config_text",
    "partial_transpose",
    "run_scenario",
    "run_trajectory",
    "sample_correlations_stack",
    "spectral_stacks",
    "top_eigenvalue_3x3",
]
