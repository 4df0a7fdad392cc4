"""Exact maximin envy-free rent division with a manipulation laboratory.

The mechanism's names are imported eagerly.  The names of the manipulation
lab (``rentdiv.manipulation``) and of the test-only oracles
(``rentdiv.oracles``) resolve on first use, so importing the package, as
every command does, compiles neither module.
"""

import importlib

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
    max_welfare_assignment,
)
from .pricing import (
    is_envy_free,
    maximin_level,
    maximin_prices,
    simplex_solve,
    solve,
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

# Name -> the submodule that defines it, imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(
        (
            "DeviationReport",
            "ExcludeFromRooms",
            "MaximizeTrueUtility",
            "MinimizeCoalitionPayments",
            "SubsidizeAgent",
            "best_response_search",
            "coalition_search",
            "evaluate_deviation",
            "exclusion_check",
            "template_defensive",
            "template_exclusionary",
            "template_flatten",
        ),
        "manipulation",
    ),
    **dict.fromkeys(
        (
            "all_optimal_assignments",
            "brute_force_assignment",
            "fm_feasible",
            "min_utility_feasible",
        ),
        "oracles",
    ),
}


def __getattr__(name):
    if name in ("manipulation", "oracles"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
