"""Numerics for backward SDEs whose reflection acts on the mean.

The package builds and verifies solutions of mean-field backward stochastic
differential equations constrained between two running mean-loss barriers:
discrete two-sided reflection maps (forward and terminal-anchored), a
fixed-point construction for general drivers, a penalization scheme, and a
diagnostics layer that turns the theory's quantitative estimates into
executable checks.
"""

from __future__ import annotations

from .bsde import (
    BSDESolution,
    Generator,
    RegressionConfig,
    affine_mix_generator,
    constant_driver_path,
    constant_generator,
    linear_generator,
    quadratic_z_generator,
    solve_bsde,
)
from .constraints import (
    BoundaryPair,
    LinearEnvelope,
    LinearObstacles,
    LossPair,
    LossValidation,
    boundary_from_losses,
    check_envelope_order,
    invert_boundary,
    linear_band,
    make_mean_boundary,
    saturating_band,
    validate_loss,
)
from .core import (
    Ensemble,
    RngSpec,
    SamplePath,
    TimeGrid,
    build_grid,
    empirical_std,
    ensemble_means,
    pairwise_mean,
    pairwise_sum,
    simulate_brownian,
)
from .diagnostics import (
    ContractionEstimate,
    MRAudit,
    audit_solution,
    constraint_violation,
    contraction_estimate,
    mean_loss_paths,
    rate_fit,
    representation_gap,
    solution_stat_tol,
    stat_tol,
)
from .errors import (
    DegenerateConstraintsError,
    InfeasibleTerminalError,
    MeanReflectError,
    NonConvergenceError,
    NumericalFailureError,
)
from .mrbsde import (
    KtVariationReport,
    MRSolution,
    PicardTrace,
    Scenario,
    Tolerances,
    kt_variation_guard,
    picard_solve,
    require_feasible_terminal,
    solve_constant_driver,
    terminal_feasibility,
)
from .penalty import PenaltySolution, PenaltySweep, penalty_sweep, solve_penalized
from .skorokhod import (
    BackwardReflectionSolution,
    ComparisonReport,
    ContinuityReport,
    ReflectionSolution,
    TVBoundReport,
    check_comparison,
    check_continuity_bound,
    check_tv_bound,
    flat_tolerance,
    flatness_residuals,
    solve_bsp,
    solve_sp,
    total_variation,
)
from .verify import SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "TimeGrid",
    "SamplePath",
    "Ensemble",
    "RngSpec",
    "build_grid",
    "simulate_brownian",
    "pairwise_sum",
    "pairwise_mean",
    "empirical_std",
    "ensemble_means",
    # constraints
    "LossPair",
    "LossValidation",
    "validate_loss",
    "linear_band",
    "saturating_band",
    "BoundaryPair",
    "make_mean_boundary",
    "boundary_from_losses",
    "invert_boundary",
    "LinearEnvelope",
    "check_envelope_order",
    "LinearObstacles",
    # skorokhod
    "ReflectionSolution",
    "BackwardReflectionSolution",
    "solve_sp",
    "solve_bsp",
    "flatness_residuals",
    "flat_tolerance",
    "total_variation",
    "TVBoundReport",
    "check_tv_bound",
    "ContinuityReport",
    "check_continuity_bound",
    "ComparisonReport",
    "check_comparison",
    # bsde
    "Generator",
    "RegressionConfig",
    "BSDESolution",
    "solve_bsde",
    "constant_driver_path",
    "constant_generator",
    "linear_generator",
    "quadratic_z_generator",
    "affine_mix_generator",
    # mrbsde
    "Tolerances",
    "Scenario",
    "PicardTrace",
    "MRSolution",
    "terminal_feasibility",
    "require_feasible_terminal",
    "solve_constant_driver",
    "picard_solve",
    "KtVariationReport",
    "kt_variation_guard",
    # penalty
    "PenaltySolution",
    "PenaltySweep",
    "solve_penalized",
    "penalty_sweep",
    # diagnostics
    "mean_loss_paths",
    "constraint_violation",
    "stat_tol",
    "solution_stat_tol",
    "MRAudit",
    "audit_solution",
    "representation_gap",
    "ContractionEstimate",
    "contraction_estimate",
    "rate_fit",
    # verify
    "SuiteResult",
    "run_suite",
    # errors
    "MeanReflectError",
    "DegenerateConstraintsError",
    "InfeasibleTerminalError",
    "NonConvergenceError",
    "NumericalFailureError",
]
