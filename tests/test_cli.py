"""Command-line interface: subcommands, formats and exit codes."""

import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

from conftest import long_decimal_house, subprocess_env
from rentdiv import cli, manipulation, matching, oracles, pricing
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
from rentdiv.manipulation import MinimizeCoalitionPayments
from rentdiv.model import parse_money
from rentdiv.scenarios import (
    BUILTIN_SLUGS,
    builtin_scenario,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)


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

    def test_huge_amount_refused(self, baseline_file, tmp_path, capsys):
        # Once read, 10**5000 could not even be printed in an error message.
        doc = json.loads(open(baseline_file).read())
        doc["total_rent"] = "1e5000"
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        assert main(["solve", str(huge)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "refusing amount '1e5000'" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_failure_mid_output_writes_nothing(self, baseline_file, monkeypatch, capsys, fmt):
        # The whole answer is rendered before any of it is written.
        calls = []

        def fails_late(x, _real=cli.render_money):
            calls.append(x)
            if len(calls) > 3:
                raise ValueError("cannot render")
            return _real(x)

        monkeypatch.setattr(cli, "render_money", fails_late)
        assert main(["solve", baseline_file, "--format", fmt]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "rentdiv: cannot render\n")

    def test_invalid_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert main(["solve", str(bad)]) == EXIT_INVALID


class TestJsonWriter:
    """``_write_json`` lifts Python's digit limit for its own call only."""

    BIG = {"num": 10**5000 + 1}

    def test_lifts_the_limit_for_its_call_only(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not 0 < limit < 5000:
            pytest.skip("this Python converts a 5,001-digit int to text")
        out = io.StringIO()
        cli._write_json(self.BIG, out)
        assert out.getvalue().endswith("1\n}\n") and len(out.getvalue()) > 5000
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ValueError):
            str(self.BIG["num"])

    def test_a_python_without_the_limit(self, monkeypatch):
        # Python 3.10 before 3.10.7 has neither function, and nothing to lift.
        monkeypatch.setattr(cli, "sys", types.SimpleNamespace())
        out = io.StringIO()
        cli._write_json({"num": 7}, out)
        assert out.getvalue() == '{\n  "num": 7\n}\n'


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

    def test_file_and_builtin_rejected(self, baseline_file, capsys):
        assert main(["verify", baseline_file, "--builtin", "baseline"]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "rentdiv: verify takes one of a scenario file, --builtin or "
            "--all-builtin, not a scenario file and --builtin\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["{file}", "--builtin", ""], "not a scenario file and --builtin"),
            (["", "--builtin", "baseline"], "not a scenario file and --builtin"),
            (["--all-builtin", "--builtin", ""], "not --builtin and --all-builtin"),
            (["--builtin", ""],
             f"unknown builtin scenario ''; pick from {', '.join(BUILTIN_SLUGS)}"),
            ([""], "No such file or directory: ''"),
        ],
        ids=["file-and-empty-builtin", "empty-file-and-builtin", "all-and-empty-builtin",
             "empty-builtin", "empty-file"],
    )
    def test_empty_value_is_refused(self, baseline_file, capsys, argv, message):
        argv = [baseline_file if a == "{file}" else a for a in argv]
        assert main(["verify"] + argv) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("rentdiv: ") and err.count("\n") == 1
        assert err.endswith(f"{message}\n")

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

        for name in ("min_utility_feasible", "fm_feasible", "all_optimal_assignments"):
            monkeypatch.setattr(oracles, name, oracle)
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
        "tie_break_key",
        "brute_force_assignment",
        "all_optimal_assignments",
        "min_utility_feasible",
        "fm_feasible",
    )

    @pytest.fixture(autouse=True)
    def oracles_raise(self, monkeypatch):
        def oracle(*args, **kwargs):
            raise AssertionError("a test-only oracle ran on the hot path")

        for name in self.ORACLES:
            monkeypatch.setattr(oracles, name, oracle)

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

    @pytest.mark.parametrize("agent", "ABCDE")
    def test_search_solves_truth_only(self, baseline_file, monkeypatch, agent):
        # The manipulated outcome comes from the search's winning candidate,
        # and the honest one from pricing the canonical optimum of the
        # search's integer truth: no solve, no Fraction Hungarian, one
        # maximin_prices, and no simplex on the way.
        calls = {}
        for module, name in (
            (pricing, "solve"),
            (matching, "max_welfare_assignment"),
            (pricing, "maximin_prices"),
            (pricing, "simplex_solve"),
        ):
            calls[name] = 0

            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        argv = ["manipulate", baseline_file, "--coalition", agent]
        assert main(argv + ["--objective", f"min-pay:{agent}", "--search"]) == EXIT_OK
        assert calls == {
            "solve": 0, "max_welfare_assignment": 0, "maximin_prices": 1, "simplex_solve": 0
        }

    @pytest.mark.parametrize(
        "target", [[], ["--target-rooms", "D:R4,E:R5"]], ids=["honest-rooms", "target-rooms"]
    )
    def test_template_solves_truth_once(self, baseline_file, monkeypatch, target):
        # One solve of the truth and one of the reports.  Flatten takes its
        # honest rooms from max_welfare_assignment, which prices nothing.
        calls = []

        def counted(*args, _real=pricing.solve, **kwargs):
            calls.append(args[1])
            return _real(*args, **kwargs)

        monkeypatch.setattr(pricing, "solve", counted)
        argv = ["manipulate", baseline_file, "--coalition", "D,E", "--objective", "min-pay:D,E"]
        assert main(argv + ["--template", "flatten"] + target) == EXIT_OK
        assert len(calls) == 2

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
# and every rentdiv module, and numpy, loaded by then.
MODULE_PROBE = """
import contextlib, io, sys
from rentdiv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "rentdiv"))
"""
# What `import rentdiv.cli` loads: the mechanism, the scenarios and the CLI.
# The builtin scenarios add the `rentdiv.fixtures` data package.
CLI_MODULES = [
    "rentdiv", "rentdiv.cli", "rentdiv.matching", "rentdiv.model",
    "rentdiv.pricing", "rentdiv.scenarios",
]


class TestNumpyImport:
    """Each command loads only the modules it runs: none loads numpy or the
    test-only ``rentdiv.oracles``, and only ``manipulate`` loads
    ``rentdiv.manipulation``."""

    @pytest.mark.parametrize(
        "argv,code,extra",
        [
            (["solve", "{baseline}"], EXIT_OK, []),
            (["verify", "--all-builtin"], EXIT_MISMATCH, ["rentdiv.fixtures"]),
            (["table"], EXIT_OK, ["rentdiv.fixtures"]),
            (
                ["manipulate", "{baseline}", "--coalition", "D,E", "--objective",
                 "min-pay:D,E", "--template", "flatten"],
                EXIT_OK,
                ["rentdiv.manipulation"],
            ),
            (
                ["manipulate", "{baseline}", "--coalition", "D", "--objective",
                 "min-pay:D", "--search"],
                EXIT_OK,
                ["rentdiv.manipulation"],
            ),
            # One search per other objective kind, a grid of step 3 (which
            # A's true row is not on), the finest grid the budget allows, and
            # a refusal from the objective and from the budget.
            *(
                (["manipulate", "{baseline}", "--coalition", coalition, "--objective",
                  objective, "--search", *flags], code, ["rentdiv.manipulation"])
                for coalition, objective, flags, code in [
                    ("A", "exclude:D@R1", [], EXIT_OK),
                    ("D", "subsidize:E@R1<=7", [], EXIT_OK),
                    ("A", "max-util:A", [], EXIT_OK),
                    ("A", "min-pay:A", ["--step", "3"], EXIT_OK),
                    ("A", "min-pay:A", ["--step", "1/100", "--format", "json"], EXIT_OK),
                    ("D", "min-pay:D,D", [], EXIT_INVALID),
                    ("A", "min-pay:A", ["--step", "1e-1100", "--format", "json"], EXIT_BUDGET),
                ]
            ),
        ],
        ids=["solve", "verify", "table", "template", "search", "search exclude",
             "search subsidize", "search max-util", "search step 3",
             "search step one hundredth", "search label twice", "search over budget"],
    )
    def test_command_loads_only_its_modules(self, baseline_file, argv, code, extra):
        argv = [a.format(baseline=baseline_file) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", MODULE_PROBE, *argv],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(code), *sorted(CLI_MODULES + extra)]


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
    # An empty value is refused, not read as an absent flag.
    (
        ["--coalition", "D", "--template", "flatten", "--target-rooms", ""],
        f"--target-rooms '': missing ':' after the agent in ''; "
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
    # An empty label, the whole value included, is refused by name.
    (
        ["--coalition", "", "--search"],
        f"--coalition '': empty label; expected {COALITION_GRAMMAR}",
    ),
    (
        ["--coalition", "", "--template", "flatten"],
        f"--coalition '': empty label; expected {COALITION_GRAMMAR}",
    ),
    (
        ["--coalition", "D,", "--search", "--step", "1"],
        f"--coalition 'D,': empty label; expected {COALITION_GRAMMAR}",
    ),
    (
        ["--coalition", ",", "--template", "defensive"],
        f"--coalition ',': empty label; expected {COALITION_GRAMMAR}",
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
    (
        ["--coalition", "D", "--template", "flatten", "--search"],
        "--template and --search exclude each other; pick one",
    ),
    # A flag that the chosen mode does not read.
    (
        ["--coalition", "D", "--search", "--contested", "D:R1+R2"],
        "--contested is read only with --template defensive, not with --search",
    ),
    (
        ["--coalition", "D", "--search", "--target-rooms", "D:R4"],
        "--target-rooms is read only with --template flatten, not with --search",
    ),
    (
        ["--coalition", "D", "--template", "flatten", "--contested", "D:R1+R2"],
        "--contested is read only with --template defensive, not with --template flatten",
    ),
    (
        ["--coalition", "D", "--template", "defensive", "--contested", "D:R1+R2",
         "--target-rooms", "D:R4"],
        "--target-rooms is read only with --template flatten, not with --template defensive",
    ),
    (
        ["--coalition", "D", "--template", "flatten", "--step", "1/2"],
        "--step is read only with --search, not with --template flatten",
    ),
    (
        ["--coalition", "D", "--template", "exclusionary", "--target-rooms", "D:R4"],
        "--target-rooms is read only with --template flatten, not with --template exclusionary",
    ),
    (
        ["--coalition", "D", "--search", "--step", ""],
        f"--step '': not {STEP_GRAMMAR}",
    ),
]


class TestManipulate:
    @pytest.mark.parametrize("mode", [["--search"], ["--template", "flatten"]])
    def test_amounts_past_the_decimal_cap_print_as_ratios(self, tmp_path, capsys, mode):
        # A's values would be 6,601-character decimals; they print as a/b,
        # which json writes and parse_money reads back.
        doc = long_decimal_house()
        path = tmp_path / "house.json"
        path.write_text(json.dumps(doc))
        code = main(
            ["manipulate", str(path), "--coalition", "B", "--objective", "min-pay:B"]
            + mode
            + ["--format", "json"]
        )
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        reported = json.loads(captured.out)["reported_values"]
        assert reported["A"] == doc["agents"][0]["reported_values"]
        truth = load_scenario(path).truth()
        for i, a in enumerate("AB"):
            assert [parse_money(v) for v in reported[a]] == list(truth.row(i))

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

    def test_search_evaluates_the_objective_once_per_side(
        self, baseline_file, capsys, monkeypatch
    ):
        # Once on the manipulated outcome and once on the honest one, both
        # in the deviation report; the search itself scores on its grid.
        seen = []
        real = MinimizeCoalitionPayments.value

        def counted(self, *args):
            seen.append(args[-1])
            return real(self, *args)

        monkeypatch.setattr(MinimizeCoalitionPayments, "value", counted)
        argv = ["manipulate", baseline_file, "--coalition", "D", "--objective",
                "min-pay:D", "--search", "--format", "json"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)

        def paid(side):
            price = doc[side]["prices"][doc[side]["assignment"]["D"]]
            return Fraction(price["num"], price["den"])

        assert [o.payment_of("D") for o in seen] == [paid("manipulated"), paid("honest")]
        assert paid("manipulated") < paid("honest")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("rounds", [1, None])
    def test_unconverged_search_says_so(self, baseline_file, capsys, monkeypatch, fmt, rounds):
        # (D, E) settles in the second round; one round stops it short.
        # stdout still holds the whole answer, and stderr one line.
        if rounds is not None:
            monkeypatch.setattr(manipulation, "MAX_ROUNDS", rounds)
        argv = ["manipulate", baseline_file, "--coalition", "D,E", "--objective",
                "min-pay:D,E", "--search", "--format", fmt]
        assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ("" if rounds is None else (
            "rentdiv: the search stopped at its round limit (MAX_ROUNDS = 1) without "
            "converging; the reports are its last best responses\n"
        ))
        if fmt == "json":
            assert set(json.loads(out)) >= {"honest", "manipulated", "reported_values"}
        else:
            assert out.endswith("objective satisfied: yes\n")

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
                "1/1000",
            ]
        )
        # 36,000 steps per row; five agents are allowed 8,000.
        assert code == EXIT_BUDGET

    def test_search_exit_budget_beyond_printable_counts(self, baseline_file, capsys):
        # 36 * 10**1100 steps per row: the refusal names the cap, not that
        # count, and its C(36 * 10**1100 + 4, 4) rows.
        argv = ["manipulate", baseline_file, "--coalition", "A", "--objective",
                "min-pay:A", "--search", "--step", "1e-1100"]
        assert main(argv) == EXIT_BUDGET
        assert capsys.readouterr().err == (
            "rentdiv: a search with n = 5 allows at most 8000 grid steps per row "
            "(rent/step): n^3 * steps may not exceed 1000000\n"
        )

    @pytest.mark.parametrize(
        "flags,where,shown",
        [
            (["--step", "1e-10000000"], "--step", "'1e-10000000'"),
            (["--step", "1" * 4001], "--step", "'11111111111111111111'..."),
            (["--objective", "subsidize:A@R1<=1e5000"], "objective", "'1e5000'"),
        ],
        ids=["step-exponent", "step-length", "cap-exponent"],
    )
    def test_huge_amount_refused_fast(self, baseline_file, capsys, flags, where, shown):
        argv = ["manipulate", baseline_file, "--coalition", "A", "--search"]
        if "--objective" not in flags:
            argv += ["--objective", "min-pay:A"]
        start = time.perf_counter()
        assert main(argv + flags) == EXIT_INVALID
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"rentdiv: {where}: refusing amount {shown}: an exact amount has at most "
            "4000 characters and a decimal exponent between -4000 and 4000\n"
        )

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
            ("min-pay:D,D", "'D' appears twice"),
            ("exclude:D,E,D@R1", "'D' appears twice"),
            ("exclude:D@R1,R2,R1", "'R1' appears twice"),
            ("exclude:D,D@R1,R1", "'D' appears twice"),
            ("min-pay:", "empty label"),
            ("min-pay:D,", "empty label"),
            ("max-util:", "empty label"),
            ("exclude:@R1", "empty label"),
            ("exclude:D@R1,", "empty label"),
            ("subsidize:@R1<=7", "empty label"),
            ("subsidize:E@<=7", "empty label"),
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

    def test_room_labels_are_read_verbatim(self, tmp_path, capsys):
        # The baseline with room R1 labelled " R1": every flag names a room
        # by its exact label, as --objective does, so " R1" is that room and
        # " R4" is no room at all.
        doc = json.dumps(scenario_to_dict(builtin_scenario("baseline")))
        doc = doc.replace('"R1"', '" R1"')
        path = tmp_path / "padded.json"
        path.write_text(doc)
        argv = ["manipulate", str(path), "--coalition", "D", "--objective", "min-pay:D"]
        for flags in (
            ["--template", "defensive", "--contested", "D: R1+R2"],
            ["--template", "flatten", "--target-rooms", "D: R1"],
        ):
            assert main(argv + flags) == EXIT_OK
            assert capsys.readouterr().err == ""
        assert main(argv + ["--template", "flatten", "--target-rooms", "D: R4"]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"rentdiv: --target-rooms 'D: R4': unknown room ' R4'; "
            f"expected {TARGET_ROOMS_GRAMMAR}\n"
        )

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


def _golden_digest(code, out, err) -> str:
    """SHA-256 of one command's (exit code, stdout, stderr)."""
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


FORMATS = ("text", "json", "csv")
# {<slug>} stands for that builtin scenario saved to a file, {no_expected} for
# the baseline saved without its expected outcome.
MANIPULATE = ["manipulate", "{baseline}", "--coalition"]
GOLDEN_COMMANDS = {
    **{
        f"solve {slug} {fmt}": ["solve", "{" + slug + "}", "--format", fmt]
        for slug in BUILTIN_SLUGS
        for fmt in FORMATS
    },
    **{
        f"verify --all-builtin {fmt}": ["verify", "--all-builtin", "--format", fmt]
        for fmt in FORMATS
    },
    **{
        f"verify --builtin {slug} {fmt}": ["verify", "--builtin", slug, "--format", fmt]
        for slug in BUILTIN_SLUGS
        for fmt in FORMATS
    },
    **{f"table {fmt}": ["table", "--format", fmt] for fmt in FORMATS},
    "template exclusionary": MANIPULATE
    + ["A,B,C", "--objective", "exclude:D,E@R1,R2,R3", "--template", "exclusionary"],
    "template defensive": MANIPULATE
    + ["D,E", "--objective", "min-pay:D,E", "--template", "defensive",
       "--contested", "D:R1+R2,E:R2+R3", "--format", "json"],
    "template flatten": MANIPULATE
    + ["D,E", "--objective", "min-pay:D,E", "--template", "flatten", "--format", "csv"],
    "search one member": MANIPULATE + ["D", "--objective", "max-util:D", "--search"],
    "search two members": MANIPULATE
    + ["D,E", "--objective", "min-pay:D,E", "--search", "--format", "json"],
    "search exclude": MANIPULATE
    + ["A", "--objective", "exclude:D@R1", "--search", "--format", "json"],
    "search subsidize": MANIPULATE
    + ["D", "--objective", "subsidize:E@R1<=7", "--search", "--format", "csv"],
    "search min-pay one member": MANIPULATE + ["D", "--objective", "min-pay:D", "--search"],
    # Exit 2, one per invalid-input message of cmd_verify and cmd_manipulate.
    "verify unknown builtin": ["verify", "--builtin", "nope"],
    "verify no source": ["verify"],
    "verify no expected": ["verify", "{no_expected}"],
    "unknown coalition agent": MANIPULATE
    + ["D,Z", "--objective", "min-pay:D", "--search"],
    "unknown objective kind": MANIPULATE
    + ["D", "--objective", "conquer:world", "--search"],
    "objective unknown label": MANIPULATE
    + ["D", "--objective", "min-pay:Z", "--search"],
    "template without coalition": [
        "manipulate", "{baseline}", "--objective", "min-pay:D", "--template", "flatten"
    ],
    "exclusionary needs exclude": MANIPULATE
    + ["A,B,C", "--objective", "min-pay:A", "--template", "exclusionary"],
    "exclusionary size mismatch": MANIPULATE
    + ["A,B", "--objective", "exclude:D,E@R1,R2,R3", "--template", "exclusionary"],
    "defensive needs contested": MANIPULATE
    + ["D", "--objective", "min-pay:D", "--template", "defensive"],
    "template or search": MANIPULATE + ["D", "--objective", "min-pay:D"],
}
# SHA-256 of each command's (exit code, stdout, stderr) as first recorded.
GOLDEN_DIGESTS = {
    "defensive needs contested": "f2e0dbbe0ec5b68bcddd1f31c2c22c61436537dcf4d85cf5b7d5062590fe67e0",
    "exclusionary needs exclude": "cd04798e443bfd9a882815af3102829395ca3b91c665e048959f04f36fff854a",
    "exclusionary size mismatch": "37426f0c038ee5895dec2a686e5fec57631ec03b4e8b493e0350996055e2e24f",
    "objective unknown label": "7156c8e8bf433ba78ed74d6a97c6a65817c79c3265c91044b0a4c0505253c710",
    "search exclude": "eb00939c959541db9ec18d05cf7e0a817da73553419ce135640b7e6fc7990895",
    "search min-pay one member": "6f4a44c19f51c07d4d5623f06152532b813be12dfa6921ffb760380d5c09215e",
    "search one member": "b263ff50c3d7af24e10f31e614564342d21132da9bff6abd2dabe4e8685561b1",
    "search subsidize": "6a327fea934cc0d37eb87df59ffe0580989fb5e3aefd9e3a1822ff7e89684cb8",
    "search two members": "db6d29e0569e1e8234fcb3b9e1bb76e17d4826adb6367930554369dd836e5e08",
    "solve baseline csv": "8a0f26d9b0e8af4031b4953c51abb975efc6fe1363ce9c74933b51fdb40007dc",
    "solve baseline json": "150c5497720620a45f7aadae2c4e6570f52d888a0062858831d8aa1a14c8522b",
    "solve baseline text": "d662f26b42165728528e5f0d5e5d86401d96a145f075fe03641530a7bae79f0b",
    "solve benevolent-collusion csv": "16905f7ffdac3d72348dd0b43489a31ad39556c4fab6826e6c84cf2fbe6c0410",
    "solve benevolent-collusion json": "2d7c591ed5dbca77f3df4dbb132203300869c8cc2c0f471c25ca658e8ccaa8fd",
    "solve benevolent-collusion text": "eac72c18b23c5aa661f67c819a8e78cd4ec8c2205452aab0e0c19684ebf0a443",
    "solve cost-minimization csv": "152d643457aa926dba9300fc965d6665416686c2510c6d30e55e5c67b2a5e69c",
    "solve cost-minimization json": "d2a52879a53d2224768d18781cd01d7456eaa28a8e687facb98fd187e079a449",
    "solve cost-minimization text": "75726f7c837f4d5bd4d7e1941151d55e22741b3eb8d5aa94a51fefff6f3cd45d",
    "solve exclusionary-collusion csv": "3628a8f4ab87d3030653b682c95fb158361c61acb0df0c5cbe660b4c464bcfc6",
    "solve exclusionary-collusion json": "caa22a316db5109ad89b5b29a1bbe8ca7aee3c01521700cec073cad0549dff86",
    "solve exclusionary-collusion text": "ec309622e418c8f7fd6576f21b628380df7e346f5751305e4e4ead87df498444",
    "solve failed-counter-attack csv": "709accc04fecba59cb3a444b48a0b439e001c74ce644ac6813a0d3aaa4cd7dc9",
    "solve failed-counter-attack json": "b1882474c30b0165eb74df36bb7590630ce858b259889e19955921d19662b858",
    "solve failed-counter-attack text": "b10110542bd8fb3289a0fd302cc3e43e2ff8e815d0e7edaed4748ed7a18c2c0f",
    "table csv": "93a039a35b961fad913b9681fbfcd8dd2d2f7621d5324b2b54d67b98f06b4b0f",
    "table json": "04f65ea113079d270214558ea841b2acd21951ca045db56a38b6a10f0e9f552c",
    "table text": "934f9b97a18a68d886dc7f9411fb76b76a7fa5d29d49030911fe56bfd702f703",
    "template defensive": "782f30d45819db3484e75e4e440a3dce132d3f20fd41054f821d90d7e4f177a3",
    "template exclusionary": "c7c0993f86b78f4054dd3fde60f4f7a7ff96e2e38b2cd9bbf39981c53f8c26a5",
    "template flatten": "c6e1c76c4febfddb08c6c460c074e70b6a45b96f4bf920a781e7dd38c991193d",
    "template or search": "5387a4a67940cc90eae95804300d37a9eab739a1e6fbd81fbe803d5f5bf3c9f1",
    "template without coalition": "c295769f04a589d70ab70d3bf82073abf0339a18ab5ffc3ed1db99f5db0f3d83",
    "unknown coalition agent": "f42b8e1fa8ad9cce878a47b776ee8ec1d78029cdaa148dfdeeb3c8c5531f00bc",
    "unknown objective kind": "860bb88f09699f2bd9d64f228060f43fc7441fd7521eeb1062f445687df05eb9",
    "verify --all-builtin csv": "c2e07306290cb574543b38f79eb67efa8cb38b939e2b05f4ea8f2910763d3020",
    "verify --all-builtin json": "bdd0f6c9cee56d521ce4dd06bd1dd8eead0ef5485f62dddc979602d499baf4cc",
    "verify --all-builtin text": "04a4a728194c7713551fc943f2889b5adcad0ebfd2c1a5457f4d918b706f9915",
    "verify --builtin baseline csv": "f832785c0963a94a2c19ef9de85df3e1d1a71a530bae2ee39a4dada843d1fd91",
    "verify --builtin baseline json": "24f3423447194b9bcc114eb43e6e94e28140a91b4e0828de32e5a4366f763f73",
    "verify --builtin baseline text": "f4f1b45c9d29257510a78692c3566bc6fa9673e5b64f8fd002b7a1445352ec41",
    "verify --builtin benevolent-collusion csv": "bf8b527491f2633e9d6b82164422f393b2363e7483f4e4e2a1ac62c43e3428ef",
    "verify --builtin benevolent-collusion json": "5126cbbed7067e26643dc4ed14f4415a5d39d0bf3d72a8937eb74f1c17e6e6bd",
    "verify --builtin benevolent-collusion text": "0d2b6e1cbb270df9448fbaa75c63a3ccc6fcf1bba0ec87880fae0486e0d495ad",
    "verify --builtin cost-minimization csv": "3f354fe3f96a8cc7bdce5f18cd92f36ab5b7924ba95b50b9fc34cba279dc2e13",
    "verify --builtin cost-minimization json": "863747c5c98d90267288ae2900e4eb8f91bb7bf5711b2ac06dbc7ec574b93d0a",
    "verify --builtin cost-minimization text": "acd1c213290241f77cb4d2efe9e12f72a64ad01a84c3a9afb23f5103901eaae1",
    "verify --builtin exclusionary-collusion csv": "227f092a61142cf79aff3f0116215207698c2230ffa02f6e838e3e86f594d947",
    "verify --builtin exclusionary-collusion json": "d51fed99dfc958adcb8ab95af355cdb1ffa4c8d8dd8097702b5817bf04f2ec35",
    "verify --builtin exclusionary-collusion text": "972d6553d453d68428bab351e7df7d5b7d9bf3984644488a718dc7f97cdb4816",
    "verify --builtin failed-counter-attack csv": "e0092a0d13897f80bdfc2890d78f1cf5e9ddaac86c6b5925804d3c3b81ca96bd",
    "verify --builtin failed-counter-attack json": "2fd53cef4328f485d214ca49672a844fd21c2d8b757cb668b0643e69fb6ad6df",
    "verify --builtin failed-counter-attack text": "4a22ee1343e78e36ce7b5c29856727183b26f19dd8214bf0ac0501f19bd9e034",
    "verify no expected": "7de323e318dcca2695543dd157f6c5c8b914b2ffe44a8750e555c2181f862791",
    "verify no source": "7990c3446d4a73b8c47f421bbfa3af696a6a9809841c7a2c6b8576fa4d11493e",
    "verify unknown builtin": "9750fc1be4a688a492f5ded80d7953ea35e9646c27106e492d9c1c8ffe61bd66",
}


class TestGoldenOutputs:
    """Every command's whole output, pinned: a change to any byte of stdout
    or stderr, or to an exit code, updates its digest deliberately."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        out = {}
        for slug in BUILTIN_SLUGS:
            out[slug] = str(root / f"{slug}.json")
            save_scenario(builtin_scenario(slug), out[slug])
        out["no_expected"] = str(root / "no-expected.json")
        save_scenario(
            dataclasses.replace(builtin_scenario("baseline"), expected=None),
            out["no_expected"],
        )
        return out

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_output_digest(self, files, capsys, name):
        code = main([a.format(**files) for a in GOLDEN_COMMANDS[name]])
        captured = capsys.readouterr()
        assert _golden_digest(code, captured.out, captured.err) == GOLDEN_DIGESTS[name]
