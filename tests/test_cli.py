"""Command-line interface: subcommands, formats and exit codes."""

import json
from fractions import Fraction

import pytest

from rentdiv import matching, pricing
from rentdiv.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    OBJECTIVE_GRAMMAR,
    main,
)
from rentdiv.scenarios import builtin_scenario, save_scenario


@pytest.fixture
def baseline_file(tmp_path):
    path = tmp_path / "baseline.json"
    save_scenario(builtin_scenario("baseline"), path)
    return str(path)


class TestSolve:
    def test_text(self, baseline_file, capsys):
        assert main(["solve", baseline_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "9.20" in out and "minimum utility: 0.80" in out

    def test_json(self, baseline_file, capsys):
        assert main(["solve", baseline_file, "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["assignment"]["D"] == "R1"
        assert doc["prices"]["R1"] == {"num": 46, "den": 5, "decimal": "9.20"}
        assert doc["min_utility"]["num"] == 4
        assert doc["min_utility"]["den"] == 5

    def test_csv(self, baseline_file, capsys):
        assert main(["solve", baseline_file, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("room,")
        assert len(lines) == 6

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_INVALID

    def test_invalid_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert main(["solve", str(bad)]) == EXIT_INVALID


class TestVerify:
    def test_builtin_match(self):
        assert main(["verify", "--builtin", "baseline"]) == EXIT_OK

    def test_builtin_mismatch(self, capsys):
        code = main(["verify", "--builtin", "cost-minimization"])
        assert code == EXIT_MISMATCH
        out = capsys.readouterr().out
        assert "mismatch" in out

    def test_all_builtin_reports_worst(self, capsys):
        # The roster contains a designed mismatch, so the aggregate exit is 1.
        assert main(["verify", "--all-builtin"]) == EXIT_MISMATCH
        out = capsys.readouterr().out
        assert out.count("==") == 5

    def test_unknown_builtin(self):
        assert main(["verify", "--builtin", "nope"]) == EXIT_INVALID

    def test_file_argument(self, baseline_file):
        assert main(["verify", baseline_file]) == EXIT_OK

    def test_json_format(self, capsys):
        assert (
            main(["verify", "--builtin", "exclusionary-collusion", "--format", "json"])
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["verdict"] == "match" if isinstance(doc, list) else doc["verdict"] == "match"


class TestVerifyHotPath:
    def test_oracles_stay_off_the_verify_path(self, monkeypatch, capsys):
        def oracle(*args, **kwargs):
            raise AssertionError("a test-only oracle ran inside verify")

        monkeypatch.setattr(pricing, "min_utility_feasible", oracle)
        monkeypatch.setattr(pricing, "fm_feasible", oracle)
        monkeypatch.setattr(matching, "all_optimal_assignments", oracle)
        assert main(["verify", "--all-builtin", "--format", "json"]) == EXIT_MISMATCH
        doc = json.loads(capsys.readouterr().out)
        assert [(r["scenario"], r["verdict"], r["expected_is_maximin"]) for r in doc] == [
            ("baseline", "match", True),
            ("exclusionary-collusion", "match", True),
            ("failed-counter-attack", "equivalent-match", True),
            ("benevolent-collusion", "match", True),
            ("cost-minimization", "mismatch", False),
        ]


class TestManipulate:
    def test_template_flatten(self, baseline_file, capsys):
        code = main(
            [
                "manipulate",
                baseline_file,
                "--coalition",
                "D,E",
                "--objective",
                "min-pay:D,E",
                "--template",
                "flatten",
                "--target-rooms",
                "D:R4,E:R5",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "objective satisfied: yes" in out

    def test_template_exclusionary_json(self, baseline_file, capsys):
        code = main(
            [
                "manipulate",
                baseline_file,
                "--coalition",
                "A,B,C",
                "--objective",
                "exclude:D,E@R1,R2,R3",
                "--template",
                "exclusionary",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective_satisfied"] is True
        reported = doc["reported_values"]["A"]
        assert reported == ["15", "2", "1", "9", "9"]

    def test_search_exit_budget(self, baseline_file):
        code = main(
            [
                "manipulate",
                baseline_file,
                "--coalition",
                "A",
                "--objective",
                "min-pay:A",
                "--search",
                "--step",
                "1/100",
            ]
        )
        assert code == EXIT_BUDGET

    def test_bad_objective_grammar(self, baseline_file):
        code = main(
            [
                "manipulate",
                baseline_file,
                "--coalition",
                "A",
                "--objective",
                "conquer:world",
                "--template",
                "flatten",
            ]
        )
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "spec,reason",
        [
            ("exclude:D", "missing '@' before the rooms"),
            ("subsidize:A@R1", "missing '@' before the room or '<=' before the cap"),
            ("subsidize:A@R1<=x", "cap 'x' is not an exact amount"),
        ],
    )
    def test_malformed_objective_quotes_grammar(self, baseline_file, capsys, spec, reason):
        code = main(
            ["manipulate", baseline_file, "--coalition", "A", "--objective", spec, "--search"]
        )
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"objective {spec!r}: {reason}; expected one of {OBJECTIVE_GRAMMAR}" in err

    def test_defensive_requires_contested(self, baseline_file):
        code = main(
            [
                "manipulate",
                baseline_file,
                "--coalition",
                "D,E",
                "--objective",
                "min-pay:D,E",
                "--template",
                "defensive",
            ]
        )
        assert code == EXIT_INVALID


class TestTable:
    def test_text(self, capsys):
        assert main(["table"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("== ") == 5
        assert "verdict: mismatch" in out

    def test_csv(self, capsys):
        assert main(["table", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 5 * 5

    def test_json(self, capsys):
        assert main(["table", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [row["verdict"] for row in doc] == [
            "match",
            "match",
            "equivalent-match",
            "match",
            "mismatch",
        ]
