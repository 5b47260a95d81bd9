"""Decomposition and simulation of finite-dimensional Markovian semigroups.

Any GKSL generator is split into a Hamiltonian part plus rank-one
dissipative pieces, each piece is conjugated onto a fixed universal family
of rank-one GKS matrices by a special unitary, and the full dynamics is
recombined with Suzuki product formulas whose order and step count come
from explicit error bounds.  An exact matrix-exponential oracle is kept
alongside for verification.
"""

from .sud import GellMannBasis, gell_mann_basis, adjoint_matrix
from .lindblad import (GksGenerator, DiagonalGenerator, QuantumState,
                       from_diagonal, liouvillian_matrix, apply_exact,
                       one_one_norm, trace_distance, maximally_mixed)
from .decompose import (RankOneTerm, ConjugationPlan, UniversalParams, spectral_split,
                        decompose_generator, verify_plan)
from .trotter import (TrotterPlan, CostReport, build_plan, run_plan, nexp_report,
                      prepare_components, simulate)

__all__ = [
    "GellMannBasis", "gell_mann_basis", "adjoint_matrix",
    "GksGenerator", "DiagonalGenerator", "QuantumState",
    "from_diagonal", "liouvillian_matrix", "apply_exact",
    "one_one_norm", "trace_distance", "maximally_mixed",
    "RankOneTerm", "ConjugationPlan", "UniversalParams", "spectral_split",
    "decompose_generator", "verify_plan",
    "TrotterPlan", "CostReport", "build_plan", "run_plan", "nexp_report",
    "prepare_components", "simulate",
]

__version__ = "0.1.0"
