"""Exact desk-scale toolkit for computational social choice.

Modules cover the core election model, Kemeny and Dodgson solving,
voter-deletion control, four bribery flavors, structured-preference
recognition, weighted circuit satisfiability with majority gates, and
cake cutting with piecewise-polynomial densities. Every nontrivial solver
ships with an independent brute-force oracle so results are checkable at
small scale.

The names in ``__all__`` resolve on first use (a module ``__getattr__``):
``from comsoc import kemeny_dp`` imports ``comsoc.kemeny`` and the modules
it needs, not every solver, so a caller pays only for what it touches.

All public objects are immutable after construction and all operations
are pure functions, so concurrent use on distinct inputs is safe.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "bribery": (
        "BriberyBudget",
        "BriberyPlan",
        "ShiftPriceFunction",
        "SwapPriceFunction",
        "apply_swap_sequence",
        "min_cost_to_target",
        "shift_bribery",
        "swap_bribery",
        "unit_or_priced_bribery",
    ),
    "cake": (
        "Division",
        "FairnessReport",
        "Piece",
        "PiecewisePolyDensity",
        "check_fairness",
        "cut_and_choose",
        "cut_query",
        "last_diminisher",
        "measure",
        "welfare",
    ),
    "circuits": (
        "Circuit",
        "CircuitMetrics",
        "MabInstance",
        "mab_solve",
        "mab_to_majority_circuit",
        "wcs_solve",
    ),
    "control": (
        "ApprovalView",
        "ControlInstance",
        "RelevanceSplit",
        "approval_view",
        "ccdv_bruteforce",
        "ccdv_fpt",
        "reduce_instance",
        "relevance_split",
    ),
    "dodgson": (
        "DodgsonProgram",
        "DodgsonSolution",
        "build_program",
        "dodgson_bruteforce",
        "dodgson_decision",
        "dodgson_score",
    ),
    "elections": (
        "Election",
        "MajorityMatrix",
        "PreferenceOrder",
        "ScoringResult",
        "ScoringVector",
        "condorcet_winner",
        "is_winner",
        "kendall_tau",
        "majority_matrix",
        "scoring_winners",
        "sum_kendall_tau",
    ),
    "errors": ("CapacityError", "ParseError"),
    "generators": ("GeneratedElection", "GeneratorSpec", "generate"),
    "kemeny": (
        "KemenyResult",
        "avg_pairwise_distance",
        "kemeny_brute_force",
        "kemeny_decision",
        "kemeny_dp",
    ),
    "structure": (
        "EuclideanEmbedding",
        "all_single_peaked_axes",
        "find_single_peaked_axis",
        "group_separable_split",
        "is_single_peaked_wrt",
        "peak_count",
        "single_crossing_report",
        "sp_deletion_distance",
        "verify_euclidean",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
