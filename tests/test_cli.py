"""Command-line interface: subcommands, formats and exit codes."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import subprocess_env
from rentdiv import matching, pricing
from rentdiv.cli import (
    COALITION_GRAMMAR,
    CONTESTED_GRAMMAR,
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    OBJECTIVE_GRAMMAR,
    STEP_GRAMMAR,
    TARGET_ROOMS_GRAMMAR,
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


class TestHotPath:
    ORACLES = (
        (matching, "tie_break_key"),
        (matching, "brute_force_assignment"),
        (matching, "all_optimal_assignments"),
        (pricing, "min_utility_feasible"),
        (pricing, "fm_feasible"),
    )

    @pytest.fixture(autouse=True)
    def oracles_raise(self, monkeypatch):
        def oracle(*args, **kwargs):
            raise AssertionError("a test-only oracle ran on the hot path")

        for module, name in self.ORACLES:
            monkeypatch.setattr(module, name, oracle)

    def test_search_runs_without_oracles(self, baseline_file, capsys):
        argv = ["manipulate", baseline_file, "--coalition", "D", "--objective", "min-pay:D"]
        assert main(argv + ["--search", "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["reported_values"]["D"] == ["0", "12", "10", "7", "7"]
        # SHA-256 of the whole JSON document, as printed before the search
        # kernel stopped enumerating permutations.
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "6c98c4f7134ad606b4472011021f3ecde0b0ffb312657e6c70b5c8a4d0cc32df"
        )

    def test_solve_runs_without_oracles(self, baseline_file, capsys):
        assert main(["solve", baseline_file]) == EXIT_OK
        assert capsys.readouterr().out == (
            "room   agent     price  utility\n"
            "R1     D          9.20     0.80\n"
            "R2     C          9.20     0.80\n"
            "R3     E          8.20     0.80\n"
            "R4     B          5.20     0.80\n"
            "R5     A          4.20     0.80\n"
            "minimum utility: 0.80\n"
        )


# Runs cli.main on its arguments in a fresh interpreter; prints the exit code
# and whether numpy was imported.
NUMPY_PROBE = """
import contextlib, io, sys
from rentdiv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


class TestNumpyImport:
    """Only the misreport search needs numpy; every other command runs
    without importing it."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["solve", "{baseline}"], "0 False"),
            (["verify", "--all-builtin"], "1 False"),
            (["table"], "0 False"),
            (
                ["manipulate", "{baseline}", "--coalition", "D,E", "--objective",
                 "min-pay:D,E", "--template", "flatten"],
                "0 False",
            ),
            (
                ["manipulate", "{baseline}", "--coalition", "D", "--objective",
                 "min-pay:D", "--search"],
                "0 True",
            ),
        ],
        ids=["solve", "verify", "table", "template", "search"],
    )
    def test_numpy_loaded_only_by_search(self, baseline_file, argv, expected):
        argv = [a.format(baseline=baseline_file) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, *argv],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


# (manipulate arguments after the objective, the whole stderr line after
# 'rentdiv: ')
MALFORMED_FLAGS = [
    (
        ["--coalition", "D,E", "--template", "defensive", "--contested", "D:R1+R2"],
        f"--contested 'D:R1+R2': no entry for coalition member 'E'; "
        f"expected {CONTESTED_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--template", "defensive", "--contested", "D"],
        f"--contested 'D': missing ':' after the agent in 'D'; "
        f"expected {CONTESTED_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--template", "defensive", "--contested", "D:R1+R9"],
        f"--contested 'D:R1+R9': unknown room 'R9'; expected {CONTESTED_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--template", "defensive", "--contested", "D:R1+R1"],
        f"--contested 'D:R1+R1': 'D' needs 2 distinct room(s), not 'R1+R1'; "
        f"expected {CONTESTED_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--template", "defensive", "--contested", "Z:R1+R2"],
        f"--contested 'Z:R1+R2': 'Z' is not a --coalition member; "
        f"expected {CONTESTED_GRAMMAR}",
    ),
    (
        ["--coalition", "D,E", "--template", "flatten", "--target-rooms", "D,E"],
        f"--target-rooms 'D,E': missing ':' after the agent in 'D'; "
        f"expected {TARGET_ROOMS_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--template", "flatten", "--target-rooms", "D:R9"],
        f"--target-rooms 'D:R9': unknown room 'R9'; expected {TARGET_ROOMS_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--template", "flatten", "--target-rooms", "D:R4,D:R5"],
        f"--target-rooms 'D:R4,D:R5': 'D' appears twice; "
        f"expected {TARGET_ROOMS_GRAMMAR}",
    ),
    (
        ["--coalition", "D,D,D,D", "--template", "exclusionary"],
        f"--coalition 'D,D,D,D': 'D' appears twice; expected {COALITION_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--search", "--step", "1/0"],
        f"--step '1/0': not {STEP_GRAMMAR}",
    ),
    (
        ["--coalition", "D", "--search", "--step", "-1"],
        f"--step '-1': not {STEP_GRAMMAR}",
    ),
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

    @pytest.mark.parametrize(
        "args,message", MALFORMED_FLAGS, ids=[" ".join(a[2:]) for a, _ in MALFORMED_FLAGS]
    )
    def test_malformed_flag_quotes_grammar(self, baseline_file, capsys, args, message):
        objective = "min-pay:" + args[1]
        code = main(["manipulate", baseline_file, "--objective", objective] + args)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"rentdiv: {message}\n"

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
