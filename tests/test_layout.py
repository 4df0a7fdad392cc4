"""Package layout: what each import loads, and that moved names still resolve."""

import subprocess
import sys

import pytest

import rentdiv
from conftest import subprocess_env
from rentdiv import manipulation, matching, model, oracles, pricing

# Every name `rentdiv/__init__.py` exported before the manipulation lab and
# the oracles became lazy, less ``MinimizeOwnPayment``: min-pay for one member
# is ``MinimizeCoalitionPayments`` of that member.
EXPORTED = (
    "Assignment", "Instance", "Outcome", "PriceVector", "Rational",
    "RentDivisionError", "ValidationError", "ValuationMatrix", "build_outcome",
    "compute_utilities", "parse_money", "render_money", "validate_instance",
    "WelfareResult", "all_optimal_assignments", "brute_force_assignment",
    "max_welfare_assignment", "fm_feasible", "is_envy_free", "maximin_level",
    "maximin_prices", "min_utility_feasible", "simplex_solve", "solve",
    "DeviationReport", "ExcludeFromRooms", "MaximizeTrueUtility",
    "MinimizeCoalitionPayments", "SubsidizeAgent",
    "best_response_search", "coalition_search", "evaluate_deviation",
    "exclusion_check", "template_defensive", "template_exclusionary",
    "template_flatten", "Scenario", "builtin_scenario", "builtin_scenarios",
    "load_scenario", "run_scenario", "save_scenario", "__version__",
)
# Names that moved to `rentdiv.oracles`, by the module that still resolves them.
MOVED = {
    matching: (
        "BRUTE_FORCE_LIMIT", "InstanceTooLarge", "tie_break_key",
        "brute_force_assignment", "all_optimal_assignments",
    ),
    pricing: (
        "FM_VARIABLE_LIMIT", "CERTIFICATE_EPSILON", "TooManyVariables",
        "EFConstraintSystem", "ef_constraint_system", "with_min_utility",
        "fm_feasible", "min_utility_feasible",
    ),
    rentdiv: (
        "all_optimal_assignments", "brute_force_assignment", "fm_feasible",
        "min_utility_feasible",
    ),
}


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_resolves(name):
    namespace = {}
    exec(f"from rentdiv import {name}", namespace)
    assert namespace[name] is getattr(rentdiv, name)
    assert name in dir(rentdiv)


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in MOVED.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_moved_name_is_the_oracle(module, name):
    assert getattr(module, name) is getattr(oracles, name)


def test_one_search_space_error():
    assert manipulation.SearchSpaceTooLarge is model.SearchSpaceTooLarge


@pytest.mark.parametrize("module", [rentdiv, matching, pricing], ids=lambda m: m.__name__)
def test_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert getattr(module, "no_such_name", None) is None


# Scripts for a fresh interpreter, each printing the modules loaded after
# each step, and what they print.
LOADED = """
import sys
def loaded():
    return [m for m in ("rentdiv.manipulation", "rentdiv.oracles", "numpy") if m in sys.modules]
import rentdiv
print(loaded())
"""
LAZY_PROBES = {
    "names": (
        LOADED + "rentdiv.coalition_search\nprint(loaded())\n"
        "from rentdiv import min_utility_feasible\nprint(loaded())\n",
        ["[]", "['rentdiv.manipulation']", "['rentdiv.manipulation', 'rentdiv.oracles']"],
    ),
    "submodules": (
        LOADED + "rentdiv.oracles.SEARCH_BLOCK\nprint(loaded())\n",
        ["[]", "['rentdiv.manipulation', 'rentdiv.oracles']"],
    ),
}


@pytest.mark.parametrize("probe", sorted(LAZY_PROBES))
def test_lazy_names_load_their_module_on_first_use(probe):
    script, expected = LAZY_PROBES[probe]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected
