"""Robust portfolio choice under joint drift/volatility uncertainty.

Pipeline: describe the market (model), compute worst-case measures in closed
form (worst_case), solve the reduced HJBI PDE, whose Hamiltonian takes its
saddle through the ratio minimizer (pde), extract the policy field and the
saddle fraction (strategy), and verify the saddle by Monte-Carlo simulation
(simulate).  The cli module wires these to YAML configs and CSV artifacts.
"""

from .model import (CoefficientFn, GridSpec, MarketModel, PowerUtility,
                    UncertaintyRectangle, ValidationReport, default_y_radius,
                    validate_assumptions)
from .worst_case import (BranchRegion, KappaBranch, RatioMin, WorstCaseMeasure,
                         brute_force_min, minimize_ratio, min_ratio_values)
from .pde import (SolveDiagnostics, SolverError, ValueSurface, residual_norm,
                  solve_hjbi)
from .strategy import PolicyField, build_policy, value_function
from .simulate import (AdversaryPolicy, SaddleReport, SimConfig, UtilityEstimate,
                       simulate_eu, terminal_wealths, verify_saddle)
from .config import RunConfig, dump_config, load_config, solve_config_hash

__version__ = "0.1.0"

__all__ = [
    "CoefficientFn", "GridSpec", "MarketModel", "PowerUtility",
    "UncertaintyRectangle", "ValidationReport", "default_y_radius",
    "validate_assumptions",
    "BranchRegion", "KappaBranch", "RatioMin", "WorstCaseMeasure",
    "brute_force_min", "minimize_ratio", "min_ratio_values",
    "SolveDiagnostics", "SolverError", "ValueSurface", "residual_norm",
    "solve_hjbi",
    "PolicyField", "build_policy", "value_function",
    "AdversaryPolicy", "SaddleReport", "SimConfig", "UtilityEstimate",
    "simulate_eu", "terminal_wealths", "verify_saddle",
    "RunConfig", "dump_config", "load_config", "solve_config_hash",
]
