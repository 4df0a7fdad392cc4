"""Package layout: what each import loads, and where each name resolves."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import rentdiv
from conftest import subprocess_env
from rentdiv import manipulation, matching, model, oracles, pricing

# Every name `rentdiv/__init__.py` exported before the manipulation lab became
# lazy, less ``MinimizeOwnPayment`` (min-pay for one member is
# ``MinimizeCoalitionPayments`` of that member), the test-only oracles (they
# resolve only from `rentdiv.oracles`), the alias of ``Fraction``, the
# one-member wrapper of ``coalition_search`` and the predicate that
# ``ExcludeFromRooms.value`` now holds.
EXPORTED = (
    "Assignment", "Instance", "Outcome", "PriceVector",
    "RentDivisionError", "ValidationError", "ValuationMatrix", "build_outcome",
    "compute_utilities", "parse_money", "render_money", "validate_instance",
    "WelfareResult", "max_welfare_assignment", "is_envy_free", "maximin_level",
    "maximin_prices", "simplex_solve", "solve",
    "DeviationReport", "ExcludeFromRooms", "MaximizeTrueUtility",
    "MinimizeCoalitionPayments", "SubsidizeAgent",
    "coalition_search", "evaluate_deviation", "template_defensive",
    "template_exclusionary", "template_flatten", "Scenario", "builtin_scenario",
    "builtin_scenarios", "load_scenario", "run_scenario", "save_scenario",
    "__version__",
)
# Names that moved to `rentdiv.oracles`, by the module that once resolved them.
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
# The moved names that `matching` still resolves, for the benchmark's checks.
BENCH_READS = {(matching, "brute_force_assignment"), (matching, "all_optimal_assignments")}


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_resolves(name):
    namespace = {}
    exec(f"from rentdiv import {name}", namespace)
    assert namespace[name] is getattr(rentdiv, name)
    assert name in dir(rentdiv)


@pytest.mark.parametrize("name", MOVED[rentdiv])
def test_removed_export_is_an_import_error(name):
    with pytest.raises(ImportError):
        exec(f"from rentdiv import {name}", {})
    assert name not in dir(rentdiv)


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in MOVED.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_moved_name_is_the_oracle(module, name):
    # A moved name has one home, `rentdiv.oracles`; `matching` hands back
    # that same object for the two names the benchmark reads there.
    oracle = getattr(oracles, name)
    if (module, name) in BENCH_READS:
        assert getattr(module, name) is oracle
    else:
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)


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
        LOADED + "rentdiv.coalition_search\nprint(loaded())\n",
        ["[]", "['rentdiv.manipulation']"],
    ),
    "submodules": (
        LOADED + "rentdiv.oracles.SEARCH_BLOCK\nprint(loaded())\n",
        ["[]", "['rentdiv.manipulation', 'rentdiv.oracles']"],
    ),
    # The commands that once reached the oracles through a shim: a search
    # and the verification of every builtin scenario.
    "commands": (
        LOADED + """
import contextlib, io
from importlib import resources
from rentdiv import cli
baseline = str(resources.files("rentdiv.fixtures") / "baseline.json")
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["manipulate", baseline, "--coalition", "D", "--objective", "min-pay:D", "--search"])
    print(loaded(), file=sys.__stdout__)
    cli.main(["verify", "--all-builtin"])
print(loaded())
assert "rentdiv.oracles" not in sys.modules
""",
        ["[]", "['rentdiv.manipulation']", "['rentdiv.manipulation']"],
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


def test_no_float_in_the_package():
    # Money is exact everywhere: no module holds a float literal or calls
    # float().
    found = []
    for path in sorted(Path(rentdiv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if literal or call:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
