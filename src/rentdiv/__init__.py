"""Exact maximin envy-free rent division with a manipulation laboratory."""

from .model import (
    Assignment,
    Instance,
    Outcome,
    PriceVector,
    Rational,
    RentDivisionError,
    ValidationError,
    ValuationMatrix,
    build_outcome,
    compute_utilities,
    parse_money,
    render_money,
    validate_instance,
)
from .matching import (
    WelfareResult,
    all_optimal_assignments,
    brute_force_assignment,
    max_welfare_assignment,
)
from .pricing import (
    fm_feasible,
    is_envy_free,
    maximin_level,
    maximin_prices,
    min_utility_feasible,
    simplex_solve,
    solve,
)
from .manipulation import (
    DeviationReport,
    ExcludeFromRooms,
    MaximizeTrueUtility,
    MinimizeCoalitionPayments,
    MinimizeOwnPayment,
    SubsidizeAgent,
    best_response_search,
    coalition_search,
    evaluate_deviation,
    exclusion_check,
    template_defensive,
    template_exclusionary,
    template_flatten,
)
from .scenarios import (
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    load_scenario,
    run_scenario,
    save_scenario,
)

__version__ = "0.1.0"
