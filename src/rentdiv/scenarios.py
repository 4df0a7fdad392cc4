"""Canonical scenario data, the on-disk scenario format, and reproduction runs.

A scenario file is a single JSON document; all money values are decimal (or
``a/b`` ratio) strings so parsing is exact.  Schema::

    {
      "name": str,
      "slug": str,                       # optional, kebab-case identifier
      "total_rent": "36",
      "rooms": ["R1", ...],
      "agents": [
        {"id": "A", "role": "coalition",
         "true_values": ["10", ...],     # optional; omitted when truthful
         "reported_values": ["15", ...]},
        ...
      ],
      "expected": {                      # optional
        "assignment": {"A": "R1", ...},
        "prices": {"R1": "9.20", ...}
      },
      "notes": str
    }

The expected block loads as the ``Outcome`` of its assignment and prices on
the reported values, and ``run_scenario`` compares it with the solver's
exactly: the prices match only when every difference is 0.  Keys the format
does not define, such as a ``tolerance``, are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from . import pricing
from .model import (
    Assignment,
    Instance,
    MAX_AMOUNT_DIGITS,
    Outcome,
    PriceVector,
    RentDivisionError,
    ValidationError,
    ValuationMatrix,
    build_outcome,
    format_exact,
    parse_money,
    validate_instance,
)

ROLES = ("coalition", "victim", "defender", "helper", "beneficiary", "honest")

BUILTIN_SLUGS = (
    "baseline",
    "exclusionary-collusion",
    "failed-counter-attack",
    "benevolent-collusion",
    "cost-minimization",
)


class ParseError(RentDivisionError):
    def __init__(self, reason: str, where: str = ""):
        self.reason = reason
        self.where = where
        super().__init__(f"{where + ': ' if where else ''}{reason}")


@dataclass(frozen=True)
class Scenario:
    name: str
    slug: str
    instance: Instance
    reported_matrix: ValuationMatrix
    true_matrix: ValuationMatrix | None = None
    roles: dict = field(default_factory=dict)  # agent_id -> role
    expected: Outcome | None = None  # on the reports
    notes: str = ""

    def truth(self) -> ValuationMatrix:
        """True preferences; the reports themselves when everyone is honest."""
        return self.true_matrix if self.true_matrix is not None else self.reported_matrix


@dataclass(frozen=True)
class DiscrepancyReport:
    price_diffs: dict  # room_id -> computed - expected
    assignment_equivalent: bool
    expected_is_envy_free: bool
    expected_is_maximin: bool
    verdict: str  # 'match' | 'equivalent-match' | 'mismatch'


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _money(value, where):
    if isinstance(value, float):
        raise ParseError("float values are not exact; use decimal strings", where)
    try:
        return parse_money(value)
    except (TypeError, ValidationError) as exc:
        raise ParseError(str(exc), where) from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {value!r} as an exact amount: {exc}", where)


def _money_list(values, key, where):
    if not isinstance(values, list):
        raise ParseError(f"{key} must be a list of decimal strings", where)
    return [_money(v, where) for v in values]


def _text(doc, key, where, default=None):
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"{key} must be a string", where)
    return value


def scenario_from_dict(doc: dict, where: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object", where)
    for key in ("name", "total_rent", "rooms", "agents"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}", where)
    name = _text(doc, "name", where)

    rooms = doc["rooms"]
    if not isinstance(rooms, list) or not all(isinstance(r, str) for r in rooms):
        raise ParseError("rooms must be a list of strings", where)
    if len(set(rooms)) != len(rooms):
        raise ParseError("duplicate room label", where)

    agents = doc["agents"]
    if not isinstance(agents, list) or not agents:
        raise ParseError("agents must be a non-empty list", where)
    agent_ids = []
    roles = {}
    reported_rows = []
    true_rows = []
    any_true = False
    for idx, entry in enumerate(agents):
        ctx = f"{where}.agents[{idx}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ParseError("each agent needs an 'id'", ctx)
        aid = _text(entry, "id", ctx)
        if aid in agent_ids:
            raise ParseError(f"duplicate agent label {aid!r}", ctx)
        agent_ids.append(aid)
        role = entry.get("role", "honest")
        if role not in ROLES:
            raise ParseError(f"unknown role {role!r}", ctx)
        roles[aid] = role
        if "reported_values" not in entry:
            raise ParseError("missing reported_values", ctx)
        reported_rows.append(_money_list(entry["reported_values"], "reported_values", ctx))
        if "true_values" in entry:
            any_true = True
            true_rows.append(_money_list(entry["true_values"], "true_values", ctx))
        else:
            true_rows.append(reported_rows[-1])

    total_rent = _money(doc["total_rent"], where)
    try:
        instance = Instance(
            room_ids=tuple(rooms), agent_ids=tuple(agent_ids), total_rent=total_rent
        )
    except RentDivisionError as exc:
        raise ParseError(str(exc), where)
    reported = ValuationMatrix.from_rows(reported_rows)
    validate_instance(instance, reported)
    true_matrix = None
    if any_true:
        true_matrix = ValuationMatrix.from_rows(true_rows)
        validate_instance(instance, true_matrix)

    expected = None
    if "expected" in doc and doc["expected"] is not None:
        exp = doc["expected"]
        ctx = f"{where}.expected"
        if not isinstance(exp, dict) or "assignment" not in exp or "prices" not in exp:
            raise ParseError("expected block needs assignment and prices", ctx)
        mapping = exp["assignment"]
        if (
            not isinstance(mapping, dict)
            or set(mapping) != set(agent_ids)
            or not all(isinstance(r, str) for r in mapping.values())
            or set(mapping.values()) != set(rooms)
        ):
            raise ParseError("expected assignment must be a bijection over the roster", ctx)
        if not isinstance(exp["prices"], dict):
            raise ParseError("expected prices must map rooms to decimal strings", ctx)
        prices = {r: _money(p, ctx) for r, p in exp["prices"].items()}
        if set(prices) != set(rooms):
            raise ParseError("expected prices must cover every room", ctx)
        vec = PriceVector(prices)
        if vec.total() != instance.total_rent:
            raise ParseError("expected prices do not sum to the total rent", ctx)
        expected = build_outcome(instance, reported, Assignment(mapping), vec)

    return Scenario(
        name=name,
        slug=_text(doc, "slug", where, name.lower().replace(" ", "-")),
        instance=instance,
        reported_matrix=reported,
        true_matrix=true_matrix,
        roles=roles,
        expected=expected,
        notes=_text(doc, "notes", where, ""),
    )


def scenario_to_dict(s: Scenario) -> dict:
    agents = []
    for i, aid in enumerate(s.instance.agent_ids):
        entry = {"id": aid, "role": s.roles.get(aid, "honest")}
        if s.true_matrix is not None:
            entry["true_values"] = [format_exact(v) for v in s.true_matrix.row(i)]
        entry["reported_values"] = [format_exact(v) for v in s.reported_matrix.row(i)]
        agents.append(entry)
    doc = {
        "name": s.name,
        "slug": s.slug,
        "total_rent": format_exact(s.instance.total_rent),
        "rooms": list(s.instance.room_ids),
        "agents": agents,
        "notes": s.notes,
    }
    if s.expected is not None:
        doc["expected"] = {
            "assignment": dict(s.expected.assignment.mapping),
            "prices": {
                r: format_exact(p) for r, p in s.expected.prices.prices.items()
            },
        }
    return doc


def load_scenario(path) -> Scenario:
    # Read first, so that a file that is not UTF-8 keeps its own message.
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", str(path))
    except ValueError:  # an integer past Python's digit limit for int()
        raise ParseError(
            f"invalid JSON: an integer has more than {MAX_AMOUNT_DIGITS} digits", str(path)
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nest too deeply", str(path)) from None
    return scenario_from_dict(doc, where=str(path))


def save_scenario(s: Scenario, path) -> None:
    """Write the scenario as JSON, rendered whole before the file is opened."""
    text = json.dumps(scenario_to_dict(s), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------


def builtin_scenarios() -> list:
    """The five shipped scenarios, in canonical order."""
    return [builtin_scenario(slug) for slug in BUILTIN_SLUGS]


def builtin_scenario(slug: str) -> Scenario:
    if slug not in BUILTIN_SLUGS:
        raise KeyError(slug)
    data = resources.files("rentdiv.fixtures").joinpath(f"{slug}.json").read_text()
    return scenario_from_dict(json.loads(data), where=slug)


# ---------------------------------------------------------------------------
# Running scenarios
# ---------------------------------------------------------------------------


def run_scenario(s: Scenario):
    """Solve the mechanism on the reports; compare to the expected outcome.

    Returns (Outcome, DiscrepancyReport | None).  The prices match only when
    every difference is 0.  Assignment comparison is up to welfare-optimal
    equivalence, since assignment ties may be broken differently than in
    external data.  Both certificates are exact and work at any n: the
    expected assignment is equivalent iff its welfare is the optimum, and the
    expected prices are maximin iff they are envy-free and their minimum
    utility is ``pricing.maximin_level``.  The level comes from the envy
    closure, not from the LP that priced ``outcome``, so the certificate
    stays independent of that route.
    """
    outcome = pricing.solve(s.instance, s.reported_matrix)
    expected = s.expected
    if expected is None:
        return outcome, None

    diffs = {
        r: outcome.prices.price_of(r) - expected.prices.price_of(r)
        for r in s.instance.room_ids
    }
    assignment_equivalent = expected.welfare == outcome.welfare
    expected_ef = not pricing.is_envy_free(
        s.instance, s.reported_matrix, expected.assignment, expected.prices
    )
    # Envy-free prices exist only for welfare-maximizing assignments, so
    # maximin_level meets no positive envy cycle here.
    expected_maximin = expected_ef and expected.min_utility == pricing.maximin_level(
        s.instance, s.reported_matrix, expected.assignment
    )

    prices_ok = not any(diffs.values())
    if prices_ok and outcome.assignment == expected.assignment:
        verdict = "match"
    elif prices_ok and assignment_equivalent:
        verdict = "equivalent-match"
    else:
        verdict = "mismatch"
    report = DiscrepancyReport(
        price_diffs=diffs,
        assignment_equivalent=assignment_equivalent,
        expected_is_envy_free=expected_ef,
        expected_is_maximin=expected_maximin,
        verdict=verdict,
    )
    return outcome, report
