"""Symmetry reduction and Hamilton-Jacobi machinery for translation-invariant
Hamiltonian systems on flat phase space.

The package covers the pipeline end to end: symbolic Hamiltonians
(`expr`), canonical phase-space data (`phase_space`), translation group
actions and their momentum maps (`symmetry`), quotient charts and
reduced Hamiltonians including magnetic corrections (`reduction`),
Hamilton-Jacobi solutions by one-dimensional quadrature and complete
families (`hj`), lifting reduced solutions back to full trajectories
(`reconstruction`), and implicit symplectic maps generated by mixed
functions (`integrators`).  The `hjreduce` console script / `python -m
hjreduce` front end drives all of it from JSON scenarios.
"""

from .expr import (Const, DomainError, Expr, ParseError,
                   UnboundVariableError, UnknownFunctionError, Var, call,
                   differentiate, evaluate, free_vars, parse, substitute)
from .hj import (BranchAmbiguityError, CompletenessReport, GeneratingFunction,
                 HJReport, ImplicitBranchRoot, NewtonDivergenceError, OneForm,
                 PreconditionError, QuadratureSolution, RunningIntegral,
                 SingularJacobianError, SolveError, SplitReport,
                 TabulatedAntiderivative, TurningPointError, TwoForm,
                 additive_split_check, check_complete, closedness_residual,
                 cyclic_ansatz, cyclic_complete_solution, exterior_derivative,
                 heavy_top_system, hj_residual, magnetic_lagrangian_residual,
                 mesh_grid, quadrature_complete_solution, random_grid,
                 solve_heavy_top, solve_reduced_1d, time_dependent_residual,
                 time_extension)
from .integrators import (EquilibriumReport, ImplicitMap, SchemeReport,
                          apply_type1, apply_type2,
                          flow_lagrangian_momentum_check, map_jacobian,
                          momentum_preservation_check, run_scheme,
                          symplecticity_check, transform_to_equilibrium)
from .phase_space import (HamiltonianSystem, PhasePoint, Trajectory,
                          flow_reference, hamiltonian_vector_field,
                          symplectic_matrix, symplectic_pairing)
from .reconstruction import (ReconstructionReport, integrate_projected,
                             lift_report, lift_solution,
                             projected_vector_field, reconstruct_trajectory)
from .reduction import (MagneticTerm, QuotientChart, build_chart,
                        magnetic_term, momentum_shift, project_lagrangian,
                        reduced_hamiltonian)
from .symmetry import (TranslationAction, check_invariance_lemma,
                       cotangent_lift, invariance_report, momentum_map)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expr
    "Expr", "Const", "Var", "call", "parse", "evaluate", "differentiate",
    "substitute", "free_vars", "DomainError", "ParseError",
    "UnknownFunctionError", "UnboundVariableError",
    # phase space
    "PhasePoint", "HamiltonianSystem", "Trajectory",
    "hamiltonian_vector_field", "symplectic_pairing", "symplectic_matrix",
    "flow_reference",
    # symmetry
    "TranslationAction", "cotangent_lift", "momentum_map",
    "invariance_report", "check_invariance_lemma",
    # reduction
    "QuotientChart", "build_chart", "reduced_hamiltonian", "MagneticTerm",
    "magnetic_term", "momentum_shift", "project_lagrangian",
    # hj
    "OneForm", "TwoForm", "exterior_derivative", "closedness_residual",
    "magnetic_lagrangian_residual", "QuadratureSolution", "HJReport",
    "hj_residual", "mesh_grid", "random_grid", "ImplicitBranchRoot",
    "TabulatedAntiderivative", "RunningIntegral", "solve_reduced_1d",
    "GeneratingFunction", "time_extension", "time_dependent_residual",
    "CompletenessReport", "check_complete", "quadrature_complete_solution",
    "cyclic_ansatz", "cyclic_complete_solution", "heavy_top_system",
    "solve_heavy_top", "SplitReport", "additive_split_check",
    "PreconditionError", "SolveError", "TurningPointError",
    "BranchAmbiguityError", "NewtonDivergenceError", "SingularJacobianError",
    # reconstruction
    "lift_solution", "lift_report", "ReconstructionReport",
    "projected_vector_field", "integrate_projected",
    "reconstruct_trajectory",
    # integrators
    "apply_type1", "apply_type2", "ImplicitMap", "map_jacobian",
    "symplecticity_check", "momentum_preservation_check", "SchemeReport",
    "run_scheme", "EquilibriumReport", "transform_to_equilibrium",
    "flow_lagrangian_momentum_check",
]
