"""Scenario fixtures: JSON round-trip, validation and verdicts."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from conftest import long_decimal_house, make_instance
from rentdiv import oracles, pricing
from rentdiv.cli import EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from rentdiv.model import (
    Assignment,
    PriceVector,
    ValidationError,
    build_outcome,
    compute_utilities,
    format_exact,
    parse_money,
)
from rentdiv.scenarios import (
    BUILTIN_SLUGS,
    ParseError,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    load_scenario,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

F = Fraction


def minimal_doc():
    return {
        "name": "Tiny",
        "total_rent": "2",
        "rooms": ["R1", "R2"],
        "agents": [
            {"id": "A", "reported_values": ["2", "0"]},
            {"id": "B", "reported_values": ["0", "2"]},
        ],
    }


# (path to a field of the document, the bad value, part of the error)
MALFORMED_FIELDS = [
    # A string is not a row: "20" once parsed as the row (2, 0).
    (("agents", 0, "reported_values"), "20", "reported_values must be a list"),
    (("agents", 0, "reported_values"), 20, "reported_values must be a list"),
    (("agents", 0, "true_values"), 20, "true_values must be a list"),
    (("agents", 0, "id"), ["A"], "id must be a string"),
    (("name",), 5, "name must be a string"),
    (("slug",), 5, "slug must be a string"),
    (("notes",), ["x"], "notes must be a string"),
    (("expected", "prices"), ["1", "1"], "expected prices must map rooms"),
    (("expected", "assignment"), ["R1", "R2"], "must be a bijection"),
    (("expected", "assignment", "A"), ["R1"], "must be a bijection"),
    # A JSON boolean is a Python int: true once parsed as the amount 1.
    (("agents", 0, "reported_values"), [True, True], "expected a decimal string, got bool"),
    (("agents", 0, "true_values"), [True, True], "expected a decimal string, got bool"),
    (("total_rent",), True, "expected a decimal string, got bool"),
    (("expected", "prices", "R1"), True, "expected a decimal string, got bool"),
]


class TestParsing:
    def test_minimal_document(self):
        sc = scenario_from_dict(minimal_doc())
        assert sc.slug == "tiny"
        assert sc.roles == {"A": "honest", "B": "honest"}
        assert sc.expected is None
        assert sc.truth() is sc.reported_matrix or sc.truth() == sc.reported_matrix

    def test_missing_field(self):
        doc = minimal_doc()
        del doc["total_rent"]
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    def test_float_rejected(self):
        doc = minimal_doc()
        doc["agents"][0]["reported_values"] = [2.0, 0]
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    def test_unknown_role(self):
        doc = minimal_doc()
        doc["agents"][0]["role"] = "mastermind"
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    def test_expected_prices_must_balance(self):
        doc = minimal_doc()
        doc["expected"] = {
            "assignment": {"A": "R1", "B": "R2"},
            "prices": {"R1": "1", "R2": "2"},
        }
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "assignment,prices,message",
        [
            ({"A": "R1"}, {"R1": "1", "R2": "1"},
             "the assignment misses agent 'B' and misses room 'R2'"),
            ({"A": "R1", "B": "R9"}, {"R1": "1", "R2": "1"},
             "the assignment misses room 'R2' and has unknown room 'R9'"),
            ({"A": "R1", "B": "R1"}, {"R1": "1", "R2": "1"}, "assignment is not a bijection"),
            ({"A": "R1", "B": "R2"}, {"R1": "1", "R9": "1"},
             "the price vector misses room 'R2' and has unknown room 'R9'"),
        ],
        ids=["missing-agent", "unknown-room", "shared-room", "unknown-priced-room"],
    )
    def test_expected_labels_are_named(self, assignment, prices, message):
        doc = minimal_doc()
        doc["expected"] = {"assignment": assignment, "prices": prices}
        with pytest.raises(ParseError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == f"scenario.expected: {message}"

    def test_row_sum_enforced(self):
        doc = minimal_doc()
        doc["agents"][0]["reported_values"] = ["2", "1"]
        with pytest.raises(Exception):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "path,value,message",
        MALFORMED_FIELDS,
        ids=[".".join(map(str, p)) + "=" + json.dumps(v) for p, v, _ in MALFORMED_FIELDS],
    )
    def test_malformed_field_is_a_parse_error(self, tmp_path, capsys, path, value, message):
        doc = minimal_doc()
        doc["expected"] = {
            "assignment": {"A": "R1", "B": "R2"},
            "prices": {"R1": "1", "R2": "1"},
        }
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError, match=message):
            scenario_from_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", str(bad)]) == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_rent_error_names_its_location_once(self):
        doc = minimal_doc()
        doc["total_rent"] = "x"
        with pytest.raises(ParseError) as info:
            scenario_from_dict(doc, where="x.json")
        assert str(info.value).startswith("x.json: cannot parse 'x'")


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        sc = builtin_scenario("exclusionary-collusion")
        path = tmp_path / "out.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back.instance == sc.instance
        assert back.reported_matrix == sc.reported_matrix
        assert back.true_matrix == sc.true_matrix
        assert back.roles == sc.roles
        assert back.expected == sc.expected
        assert "tolerance" not in json.loads(path.read_text())["expected"]

    def test_save_load_amounts_past_the_decimal_cap(self, tmp_path):
        # A's values would be 6,601-character decimals; they are saved as a/b.
        sc = scenario_from_dict(long_decimal_house())
        path = tmp_path / "house.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back.instance == sc.instance
        assert back.reported_matrix == sc.reported_matrix

    @pytest.mark.parametrize("digits", [800, 1990])
    def test_save_refuses_prices_past_the_amount_cap(self, tmp_path, digits):
        # Values 1/p, 2/p, (3p - 3)/p for pairwise-coprime p = 10^digits + 1,
        # 3, 7.  The exact prices as a/b pass 4,000 characters (800 digits)
        # or Python's 4,300-digit limit (1,990): one ValidationError, and no
        # file is created or changed.
        ps = [10**digits + d for d in (1, 3, 7)]
        inst, mat = make_instance([(F(1, p), F(2, p), F(3 * p - 3, p)) for p in ps])
        sc = Scenario("Long prices", "long-prices", inst, mat, expected=pricing.solve(inst, mat))
        path = tmp_path / "house.json"
        with pytest.raises(ValidationError, match="more than 4000 characters"):
            save_scenario(sc, path)
        assert not path.exists()
        save_scenario(builtin_scenario("baseline"), path)
        before = path.read_bytes()
        with pytest.raises(ValidationError):
            save_scenario(sc, path)
        assert path.read_bytes() == before

    def test_to_dict_uses_exact_strings(self):
        sc = builtin_scenario("baseline")
        doc = scenario_to_dict(sc)
        json.dumps(doc)  # must be JSON-serializable
        assert doc["total_rent"] == "36"
        assert doc["expected"]["prices"]["R1"] == "9.2"
        assert parse_money(doc["expected"]["prices"]["R1"]) == F(46, 5)


class TestBuiltins:
    def test_roster(self):
        assert BUILTIN_SLUGS == (
            "baseline",
            "exclusionary-collusion",
            "failed-counter-attack",
            "benevolent-collusion",
            "cost-minimization",
        )
        loaded = builtin_scenarios()
        assert [s.slug for s in loaded] == list(BUILTIN_SLUGS)

    @pytest.mark.parametrize("slug", BUILTIN_SLUGS)
    def test_expected_is_the_recorded_outcome(self, slug):
        sc = builtin_scenario(slug)
        doc = json.loads(resources.files("rentdiv.fixtures").joinpath(f"{slug}.json").read_text())
        prices = {r: parse_money(p) for r, p in doc["expected"]["prices"].items()}
        assert sc.expected == build_outcome(
            sc.instance,
            sc.reported_matrix,
            Assignment(doc["expected"]["assignment"]),
            PriceVector(prices),
        )

    def test_unknown_slug(self):
        with pytest.raises(KeyError):
            builtin_scenario("nope")

    def test_roles(self):
        sc = builtin_scenario("exclusionary-collusion")
        assert sc.roles == {
            "A": "coalition",
            "B": "coalition",
            "C": "coalition",
            "D": "victim",
            "E": "victim",
        }
        assert builtin_scenario("benevolent-collusion").roles["E"] == "beneficiary"


class TestVerdicts:
    EXPECTED_VERDICTS = {
        "baseline": "match",
        "exclusionary-collusion": "match",
        "failed-counter-attack": "equivalent-match",
        "benevolent-collusion": "match",
        "cost-minimization": "mismatch",
    }

    @pytest.mark.parametrize("slug", BUILTIN_SLUGS)
    def test_builtin_verdicts(self, slug):
        sc = builtin_scenario(slug)
        outcome, report = run_scenario(sc)
        assert report is not None
        assert report.verdict == self.EXPECTED_VERDICTS[slug]
        # In every builtin the recorded assignment is welfare-optimal, even
        # where the price vectors disagree.
        assert report.assignment_equivalent

    def test_recorded_prices_adjudicated(self):
        _, report = run_scenario(builtin_scenario("cost-minimization"))
        assert report.expected_is_envy_free
        assert not report.expected_is_maximin
        assert report.price_diffs == {
            "R1": F(2, 5),
            "R2": F(2, 5),
            "R3": F(2, 5),
            "R4": F(-3, 5),
            "R5": F(-3, 5),
        }

    def test_match_scenarios_are_maximin(self):
        for slug in ("baseline", "exclusionary-collusion", "benevolent-collusion"):
            _, report = run_scenario(builtin_scenario(slug))
            assert report.expected_is_envy_free
            assert report.expected_is_maximin
            assert set(report.price_diffs.values()) == {F(0)}

    def test_no_expected_block(self):
        sc = scenario_from_dict(minimal_doc())
        outcome, report = run_scenario(sc)
        assert report is None
        assert outcome.prices.total() == sc.instance.total_rent


def _scenario_doc(inst, mat, assignment, prices, name):
    """A scenario document whose expected block is the given outcome."""
    return {
        "name": name,
        "total_rent": format_exact(inst.total_rent),
        "rooms": list(inst.room_ids),
        "agents": [
            {"id": a, "reported_values": [format_exact(v) for v in mat.row(i)]}
            for i, a in enumerate(inst.agent_ids)
        ],
        "expected": {
            "assignment": dict(assignment.mapping),
            "prices": {r: format_exact(p) for r, p in prices.items()},
        },
    }


def _uncontested_rows(rng, n, total):
    """Agent i values room owners[i] at 60-80% of the rent, and spreads the
    rest over the other rooms, so the welfare optimum is unique and plain."""
    owners = list(range(n))
    rng.shuffle(owners)
    rows = []
    for i in range(n):
        own = rng.randint(6 * total // 10, 8 * total // 10)
        cuts = sorted(rng.randint(0, total - own) for _ in range(n - 2))
        rest = [b - a for a, b in zip([0] + cuts, cuts + [total - own])]
        rest.insert(owners[i], own)
        rows.append(rest)
    return rows


class TestExactCertificates:
    @pytest.mark.parametrize("n", [7, 10])
    def test_verify_beyond_the_enumeration_limits(self, n, tmp_path, capsys):
        # Past 6 agents the Fourier-Motzkin probe refused, past 9 the
        # enumeration of optima did; the closure certificate has no limit.
        inst, mat = make_instance(_uncontested_rows(random.Random(n), n, 100 * n))
        out = pricing.solve(inst, mat)
        doc = _scenario_doc(inst, mat, out.assignment, out.prices.prices, f"Solved {n}")
        path = tmp_path / "solved.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--format", "json"]) == EXIT_OK
        (report,) = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "match"
        assert report["assignment_equivalent"] is True
        assert report["expected_is_envy_free"] is True
        assert report["expected_is_maximin"] is True

    def test_just_below_the_optimum_is_not_maximin(self, tmp_path, capsys):
        # The maximin prices with 1/2000 moved from R1 to R2 stay envy-free,
        # and their minimum utility sits within 1/1000 of the optimum 20/3.
        inst, mat = make_instance([(24, 12, 0), (20, 10, 6), (4, 8, 24)])
        out = pricing.solve(inst, mat)
        level = pricing.maximin_level(inst, mat, out.assignment)
        assert level == out.min_utility == F(20, 3)
        prices = dict(out.prices.prices)
        prices["R1"] -= F(1, 2000)
        prices["R2"] += F(1, 2000)
        doc = _scenario_doc(inst, mat, out.assignment, prices, "Nearly maximin")
        sc = scenario_from_dict(doc)
        utilities = compute_utilities(inst, mat, sc.expected.assignment, sc.expected.prices)
        assert level - oracles.CERTIFICATE_EPSILON < min(utilities.values()) < level

        _, report = run_scenario(sc)
        assert report.expected_is_envy_free
        assert not report.expected_is_maximin
        assert report.verdict == "mismatch"

        path = tmp_path / "nearly.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == EXIT_MISMATCH
        assert "envy-free: yes; maximin-optimal: no" in capsys.readouterr().out

    def test_prices_match_only_exactly(self, tmp_path, capsys):
        # A "tolerance" key is not read: 1/200 moved from R1 to R2 is a
        # mismatch, whatever tolerance the document states.
        inst, mat = make_instance([(24, 12, 0), (20, 10, 6), (4, 8, 24)])
        out = pricing.solve(inst, mat)
        prices = dict(out.prices.prices)
        prices["R1"] -= F(1, 200)
        prices["R2"] += F(1, 200)
        doc = _scenario_doc(inst, mat, out.assignment, prices, "Near miss")
        doc["expected"]["tolerance"] = "1/100"
        _, report = run_scenario(scenario_from_dict(doc))
        assert report.price_diffs == {"R1": F(1, 200), "R2": F(-1, 200), "R3": 0}
        assert report.verdict == "mismatch"

        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == EXIT_MISMATCH
        assert "near-miss]: mismatch" in capsys.readouterr().out

    def test_non_optimal_expected_assignment_is_not_equivalent(self):
        inst, mat = make_instance([(24, 12, 0), (20, 10, 6), (4, 8, 24)])
        swapped = Assignment({"A": "R2", "B": "R1", "C": "R3"})
        doc = _scenario_doc(inst, mat, swapped, {r: F(12) for r in inst.room_ids}, "x")
        _, report = run_scenario(scenario_from_dict(doc))
        assert not report.assignment_equivalent
        assert not report.expected_is_envy_free
        assert not report.expected_is_maximin
        assert report.verdict == "mismatch"
