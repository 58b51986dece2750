"""Scenario-based joint chance-constrained LP toolkit.

Builds sample-average joint chance-constrained programs (optionally
robustified over Wasserstein ambiguity sets), solves them with an
alternating level-bisection scheme plus baseline approximations, and
ships a reserve-dispatch front end and CLI on top.
"""

from .algorithms import (METHODS, BisectionConfig, InnerResult, OuterRecord,
                         SolveReport, SStepAssembler, gamma_value, init_bounds,
                         inner_alternation, shortfalls, solve,
                         solve_also_x_multi, solve_also_x_single, solve_cvar,
                         solve_intuitive_extension, solve_oracle, z_step)
from .dispatch import (Adn, Bus, DispatchCase, DispatchModel, Generator, Line,
                       Network, Segment, WindFarm, WindScenarioSet,
                       aggregate_errors, audit_dispatch, build_ccp,
                       case_from_dict, case_to_dict, compute_ptdf,
                       deterministic_dispatch, load_case, rho_sweep)
from .errors import CapacityError, ModelError, NumericError
from .lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution,
                 SimplexBackend, solve_lp)
from .scenarios import ScenarioGenSpec, generate_scenarios, spec_from_dict
from .model import (TOL_ZERO, BiAffineConstraint, CcpProblem, JccGroup,
                    Polytope, SampleSet, ViolationReport, evaluate_group,
                    problem_from_dict, problem_to_dict)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ModelError", "NumericError",
    "LpProblem", "LpSolution", "SimplexBackend", "solve_lp",
    "OPTIMAL", "INFEASIBLE", "UNBOUNDED",
    "TOL_ZERO", "SampleSet", "BiAffineConstraint", "Polytope", "JccGroup",
    "CcpProblem", "ViolationReport", "evaluate_group",
    "problem_to_dict", "problem_from_dict",
    "BisectionConfig", "SolveReport", "OuterRecord",
    "InnerResult", "SStepAssembler", "z_step", "shortfalls", "gamma_value",
    "inner_alternation", "init_bounds",
    "METHODS", "solve", "solve_also_x_multi", "solve_also_x_single",
    "solve_intuitive_extension", "solve_cvar", "solve_oracle",
    "Segment", "Generator", "Adn", "WindFarm", "WindScenarioSet", "Bus",
    "Line", "Network", "DispatchCase", "DispatchModel", "aggregate_errors",
    "compute_ptdf", "build_ccp", "audit_dispatch", "deterministic_dispatch",
    "rho_sweep", "case_from_dict", "case_to_dict", "load_case",
    "ScenarioGenSpec", "generate_scenarios", "spec_from_dict",
    "__version__",
]
