"""drawlab: constrained group-draw simulation and fairness analysis.

Quantifies the trade-off between intra-continental ("unattractive")
group-stage matches and the violation of equal treatment for two draw
procedures, across all 32 subsets of five geographic constraints.
"""

from .errors import (
    DrawlabError,
    EnumerationBudgetError,
    IncompleteAssignmentError,
    InfeasibleScenarioError,
    InstanceFormatError,
    ProposalBudgetError,
    ResultFormatError,
)
from .experiment import (
    ParetoResult,
    ScenarioResult,
    TradeoffPoint,
    distortion_ratio,
    export_histograms,
    export_results,
    parse_results,
    pareto_frontier,
    result_matrices,
    run_scenario,
    sweep,
    tradeoff_points,
)
from .feasibility import (
    Violation,
    check_full,
    check_partial,
    completable,
    count_unattractive,
)
from .mechanisms import (
    DrawOutcome,
    draw_trial,
    skip_draw,
    skip_draw_with_orders,
)
from .metrics import (
    InequalityReport,
    MatrixAccumulator,
    PairMatrixSet,
    export_matrices,
    hhi_index,
    inequality,
    inequality_report,
    pair_matrices,
)
from .model import (
    Assignment,
    Confederation,
    ConstraintSet,
    GroupComposition,
    Instance,
    Team,
    build_instance,
    composition,
    get_instance,
    load_instance,
    scenario_constraints,
)
from .oracle import (
    ExactDistribution,
    enumerate_skip,
    enumerate_uniform,
    exact_scenario0_matrices,
    host_feasible_matrices,
)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Confederation",
    "ConstraintSet",
    "DrawOutcome",
    "DrawlabError",
    "EnumerationBudgetError",
    "ExactDistribution",
    "GroupComposition",
    "IncompleteAssignmentError",
    "InequalityReport",
    "InfeasibleScenarioError",
    "Instance",
    "InstanceFormatError",
    "MatrixAccumulator",
    "PairMatrixSet",
    "ParetoResult",
    "ProposalBudgetError",
    "ResultFormatError",
    "RngStream",
    "ScenarioResult",
    "Team",
    "TradeoffPoint",
    "Violation",
    "build_instance",
    "check_full",
    "check_partial",
    "completable",
    "composition",
    "count_unattractive",
    "distortion_ratio",
    "draw_trial",
    "enumerate_skip",
    "enumerate_uniform",
    "exact_scenario0_matrices",
    "export_histograms",
    "export_matrices",
    "export_results",
    "get_instance",
    "hhi_index",
    "host_feasible_matrices",
    "inequality",
    "inequality_report",
    "load_instance",
    "pair_matrices",
    "pareto_frontier",
    "parse_results",
    "result_matrices",
    "run_scenario",
    "scenario_constraints",
    "skip_draw",
    "skip_draw_with_orders",
    "sweep",
    "tradeoff_points",
]
