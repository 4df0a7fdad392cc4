"""Command-line front door.

Subcommands::

    rentdiv solve <scenario.json> [--format text|json|csv]
    rentdiv verify (<scenario.json> | --builtin <slug> | --all-builtin) [--format ...]
    rentdiv manipulate <scenario.json> --coalition A,B --objective SPEC
            (--template exclusionary
             | --template flatten [--target-rooms D:R4,E:R5]
             | --template defensive --contested D:R1+R2,...
             | --search [--step N]) [--format ...]
    rentdiv table [--format ...]

Objective grammar (OBJECTIVE_GRAMMAR): ``exclude:D,E@R1,R2,R3`` |
``min-pay:D[,E]`` | ``subsidize:E@R1<=7`` | ``max-util:A``.

A flag that the chosen mode does not read is refused, not ignored, and an
empty value is refused, never read as an absent flag.

Every text and csv table, from any command, goes through one writer,
``_write_table``: a header and rows of cells, as csv or as padded text
columns.  json documents go through ``_write_json``.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input, 3 search
budget exceeded (n**3 * rent/step over ``manipulation.SEARCH_BUDGET``).  The
budget bounds one best response; a k-member search runs at most
``manipulation.MAX_ROUNDS`` * k of them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

# `manipulation` is imported inside the two functions that use it, so
# `solve`, `verify` and `table` never compile it.
from . import matching, pricing, scenarios
from .model import (
    Outcome,
    RentDivisionError,
    SearchSpaceTooLarge,
    ValidationError,
    format_exact,
    parse_money,
    render_money,
)
from .scenarios import BUILTIN_SLUGS, ParseError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _write_json(doc, out) -> None:
    """Write ``doc`` as indented JSON.  Exact amounts can pass the digits that
    Python converts an int to text with, so that limit is lifted for this
    call only; a Python without the limit has none to lift."""
    lift = getattr(sys, "set_int_max_str_digits", lambda _: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift(0)
    try:
        text = json.dumps(doc, indent=2)
    finally:
        lift(limit)
    out.write(text + "\n")


def _rational_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "decimal": render_money(x)}


def _outcome_json(instance, outcome: Outcome) -> dict:
    return {
        "assignment": dict(outcome.assignment.mapping),
        "prices": {
            r: _rational_json(outcome.prices.price_of(r)) for r in instance.room_ids
        },
        "utilities": {
            a: _rational_json(outcome.utilities[a]) for a in instance.agent_ids
        },
        "welfare": _rational_json(outcome.welfare),
        "min_utility": _rational_json(outcome.min_utility),
    }


def _write_table(out, fmt, header, rows, widths=None) -> None:
    """Write ``header`` and ``rows`` as csv, or as text columns joined by one
    space, each cell padded to its width in ``widths``: a negative width
    aligns the column left, a positive one right."""
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
        return
    for row in [header, *rows]:
        cells = (cell.ljust(-w) if w < 0 else cell.rjust(w) for cell, w in zip(row, widths))
        out.write(" ".join(cells) + "\n")


def _write_outcome(out, fmt, instance, outcome: Outcome) -> None:
    """An outcome's table, one row per room; text adds the minimum utility."""
    rows = []
    for r in instance.room_ids:
        a = outcome.assignment.agent_of(r)
        rows.append(
            (r, a, render_money(outcome.prices.price_of(r)), render_money(outcome.utilities[a]))
        )
    _write_table(out, fmt, ("room", "agent", "price", "utility"), rows, (-6, -6, 8, 8))
    if fmt == "text":
        out.write(f"minimum utility: {render_money(outcome.min_utility)}\n")


def cmd_solve(args, out) -> int:
    scenario = scenarios.load_scenario(args.scenario)
    outcome = pricing.solve(scenario.instance, scenario.reported_matrix)
    if args.format == "json":
        _write_json(_outcome_json(scenario.instance, outcome), out)
    else:
        _write_outcome(out, args.format, scenario.instance, outcome)
    return EXIT_OK


def _report_json(scenario, outcome, report) -> dict:
    return {
        "scenario": scenario.slug,
        "verdict": report.verdict,
        "price_diffs": {
            r: _rational_json(d) for r, d in report.price_diffs.items()
        },
        "assignment_equivalent": report.assignment_equivalent,
        "expected_is_envy_free": report.expected_is_envy_free,
        "expected_is_maximin": report.expected_is_maximin,
        "computed": _outcome_json(scenario.instance, outcome),
    }


def _report_text(scenario, outcome, report, out):
    out.write(f"== {scenario.name} [{scenario.slug}]: {report.verdict}\n")
    if report.verdict != "match":
        out.write(
            f"   assignment equivalent to expected: "
            f"{'yes' if report.assignment_equivalent else 'no'}\n"
        )
    nonzero = {r: d for r, d in report.price_diffs.items() if d}
    if nonzero:
        for r, d in nonzero.items():
            out.write(f"   price diff {r}: {render_money(d)}\n")
        out.write(
            f"   expected prices envy-free: "
            f"{'yes' if report.expected_is_envy_free else 'no'}; "
            f"maximin-optimal: {'yes' if report.expected_is_maximin else 'no'}\n"
        )
        out.write(f"   computed minimum utility: {render_money(outcome.min_utility)}\n")


def cmd_verify(args, out) -> int:
    # An empty file name or slug counts as given, and is refused as such.
    sources = {"a scenario file": args.scenario is not None,
               "--builtin": args.builtin is not None,
               "--all-builtin": args.all_builtin}
    given = [name for name, present in sources.items() if present]
    if not given:
        raise ParseError("verify needs a scenario file, --builtin or --all-builtin")
    if len(given) > 1:
        raise ParseError(
            f"verify takes one of a scenario file, --builtin or --all-builtin, "
            f"not {' and '.join(given)}"
        )
    if args.all_builtin:
        items = scenarios.builtin_scenarios()
    elif args.builtin is not None:
        try:
            items = [scenarios.builtin_scenario(args.builtin)]
        except KeyError:
            raise ParseError(
                f"unknown builtin scenario {args.builtin!r}; "
                f"pick from {', '.join(BUILTIN_SLUGS)}"
            ) from None
    else:
        items = [scenarios.load_scenario(args.scenario)]

    results = []
    for s in items:
        if s.expected is None:
            raise ParseError(f"scenario {s.slug!r} has no expected outcome to verify against")
        outcome, report = scenarios.run_scenario(s)
        results.append((s, outcome, report))

    if args.format == "json":
        _write_json([_report_json(s, o, r) for s, o, r in results], out)
    elif args.format == "csv":
        rows = [(s.slug, r.verdict, r.assignment_equivalent) for s, _, r in results]
        _write_table(out, "csv", ("scenario", "verdict", "assignment_equivalent"), rows)
    else:
        for s, o, r in results:
            _report_text(s, o, r, out)
    any_mismatch = any(r.verdict == "mismatch" for _, _, r in results)
    return EXIT_MISMATCH if any_mismatch else EXIT_OK


OBJECTIVE_GRAMMAR = (
    "exclude:D,E@R1,R2,R3 | min-pay:D[,E] | subsidize:E@R1<=7 | max-util:A"
)


def _split_labels(spec: str, bad) -> list:
    """The comma-separated labels of ``spec``; ``bad(reason)`` is raised for
    an empty label or a label named twice."""
    labels = spec.split(",")
    if "" in labels:
        raise bad("empty label")
    repeated = next((x for x in labels if labels.count(x) > 1), None)
    if repeated is not None:
        raise bad(f"{repeated!r} appears twice")
    return labels


def _parse_objective(spec: str):
    from . import manipulation

    def bad(reason):
        return ParseError(
            f"{reason}; expected one of {OBJECTIVE_GRAMMAR}", f"objective {spec!r}"
        )

    kind, colon, rest = spec.partition(":")
    if not colon:
        raise bad("missing ':' after the kind")
    if kind == "exclude":
        agents_part, at, rooms_part = rest.partition("@")
        if not at:
            raise bad("missing '@' before the rooms")
        return manipulation.ExcludeFromRooms(
            _split_labels(agents_part, bad), _split_labels(rooms_part, bad)
        )
    if kind == "min-pay":
        return manipulation.MinimizeCoalitionPayments(_split_labels(rest, bad))
    if kind == "subsidize":
        agent, at, rest = rest.partition("@")
        room, le, cap = rest.partition("<=")
        if not (at and le):
            raise bad("missing '@' before the room or '<=' before the cap")
        if not (agent and room):
            raise bad("empty label")
        try:
            cap = parse_money(cap)
        except ValidationError as exc:
            raise ParseError(str(exc), "objective") from None
        except (ValueError, ZeroDivisionError):
            raise bad(f"cap {cap!r} is not an exact amount") from None
        return manipulation.SubsidizeAgent(agent, room, cap)
    if kind == "max-util":
        if not rest:
            raise bad("empty label")
        return manipulation.MaximizeTrueUtility(rest)
    raise bad(f"unknown objective kind {kind!r}")


COALITION_GRAMMAR = "A[,B,...], each agent named once"
CONTESTED_GRAMMAR = "D:R1+R2[,E:R3+R4], two distinct rooms per coalition member"
TARGET_ROOMS_GRAMMAR = "D:R4[,E:R5], one room per coalition member"
STEP_GRAMMAR = "a positive exact amount such as 1, 0.5 or 1/4"


def _parse_member_rooms(flag, spec, grammar, instance, coalition, width) -> dict:
    """{member: tuple of `width` rooms} from ``agent:room[+room]`` entries,
    one for each coalition member."""

    def bad(reason):
        return ParseError(f"{reason}; expected {grammar}", f"{flag} {spec!r}")

    out = {}
    for part in spec.split(","):
        agent, colon, rooms = part.partition(":")
        rooms = tuple(rooms.split("+"))
        if not colon:
            raise bad(f"missing ':' after the agent in {part!r}")
        if agent not in coalition:
            raise bad(f"{agent!r} is not a --coalition member")
        if agent in out:
            raise bad(f"{agent!r} appears twice")
        unknown = [r for r in rooms if r not in instance.room_ids]
        if unknown:
            raise bad(f"unknown room {unknown[0]!r}")
        if len(set(rooms)) != width:
            raise bad(f"{agent!r} needs {width} distinct room(s), not {'+'.join(rooms)!r}")
        out[agent] = rooms
    missing = [a for a in coalition if a not in out]
    if missing:
        raise bad(f"no entry for coalition member {missing[0]!r}")
    return out


def _parse_step(spec: str) -> Fraction:
    try:
        step = parse_money(spec)
    except ValidationError as exc:
        raise ParseError(str(exc), "--step") from None
    except (ValueError, ZeroDivisionError):
        step = None
    if step is None or step <= 0:
        raise ParseError(f"not {STEP_GRAMMAR}", f"--step {spec!r}")
    return step


def _deviation_json(instance, report) -> dict:
    return {
        "reported_values": {
            a: [format_exact(v) for v in report.reported_matrix.row(i)]
            for i, a in enumerate(instance.agent_ids)
        },
        "objective_satisfied": report.objective_satisfied,
        "objective_value": (
            report.objective_value
            if isinstance(report.objective_value, bool)
            else _rational_json(report.objective_value)
        ),
        "honest": _outcome_json(instance, report.honest_outcome),
        "manipulated": _outcome_json(instance, report.manipulated_outcome),
        "payment_delta": {
            a: _rational_json(d) for a, d in report.payment_delta.items()
        },
        "true_utility_delta": {
            a: _rational_json(d) for a, d in report.true_utility_delta.items()
        },
        "envy_under_truth": [list(pair) for pair in report.envy_under_truth],
    }


def _write_deviation(out, fmt, instance, report) -> None:
    """The deviation report as text, or its delta table alone as csv."""
    deltas = [
        (a, render_money(report.payment_delta[a]), render_money(report.true_utility_delta[a]))
        for a in instance.agent_ids
    ]
    if fmt == "csv":
        _write_table(out, fmt, ("agent", "payment_delta", "true_utility_delta"), deltas)
        return
    for side, outcome in (
        ("honest", report.honest_outcome),
        ("manipulated", report.manipulated_outcome),
    ):
        out.write(f"{side} outcome:\n")
        _write_outcome(out, fmt, instance, outcome)
    _write_table(out, fmt, ("agent", "pay delta", "true-util delta"), deltas, (-6, 10, 16))
    if report.envy_under_truth:
        pairs = ", ".join(f"{a} envies {b}" for a, b in report.envy_under_truth)
        out.write(f"envy under truth: {pairs}\n")
    out.write(f"objective satisfied: {'yes' if report.objective_satisfied else 'no'}\n")


def cmd_manipulate(args, out) -> int:
    from . import manipulation

    scenario = scenarios.load_scenario(args.scenario)
    instance = scenario.instance
    true_matrix = scenario.truth()

    def bad(reason):
        return ParseError(
            f"{reason}; expected {COALITION_GRAMMAR}", f"--coalition {args.coalition!r}"
        )

    coalition = [] if args.coalition is None else _split_labels(args.coalition, bad)
    unknown = [a for a in coalition if a not in instance.agent_ids]
    if unknown:
        raise ParseError(f"unknown coalition agent(s): {', '.join(unknown)}")
    objective = _parse_objective(args.objective)
    manipulation._check_objective(instance, objective)

    step = Fraction(1) if args.step is None else _parse_step(args.step)
    if args.template and args.search:
        raise ParseError("--template and --search exclude each other; pick one")
    if not (args.template or args.search):
        raise ParseError("pick one of --template or --search")
    mode = f"--template {args.template}" if args.template else "--search"
    for flag, value, reader in (
        ("--contested", args.contested, "--template defensive"),
        ("--target-rooms", args.target_rooms, "--template flatten"),
        ("--step", args.step, "--search"),
    ):
        if value is not None and mode != reader:
            raise ParseError(f"{flag} is read only with {reader}, not with {mode}")
    if args.template:
        if not coalition:
            raise ParseError("--template needs --coalition")
        if args.template == "exclusionary":
            if not isinstance(objective, manipulation.ExcludeFromRooms):
                raise ParseError("the exclusionary template needs an exclude:... objective")
            claimed = [
                r for r in instance.room_ids if r in objective.rooms
            ]
            victims = [r for r in instance.room_ids if r not in objective.rooms]
            if len(claimed) != len(coalition):
                raise ParseError("coalition size must match the number of claimed rooms")
            reported = manipulation.template_exclusionary(
                instance, true_matrix, coalition, claimed, victims
            )
        elif args.template == "flatten":
            if args.target_rooms is not None:
                own = _parse_member_rooms(
                    "--target-rooms",
                    args.target_rooms,
                    TARGET_ROOMS_GRAMMAR,
                    instance,
                    coalition,
                    1,
                )
                own = {a: rooms[0] for a, rooms in own.items()}
            else:
                honest = matching.max_welfare_assignment(instance, true_matrix).assignment
                own = {a: honest.room_of(a) for a in coalition}
            reported = manipulation.template_flatten(
                instance, true_matrix, coalition, own
            )
        else:  # defensive, the last choice argparse allows
            if not args.contested:
                raise ParseError("the defensive template needs --contested D:R1+R2,...")
            contested = _parse_member_rooms(
                "--contested", args.contested, CONTESTED_GRAMMAR, instance, coalition, 2
            )
            reported = manipulation.template_defensive(
                instance, true_matrix, coalition, contested
            )
        report = manipulation.evaluate_deviation(instance, true_matrix, reported, objective)
    else:
        report = manipulation.coalition_search(instance, true_matrix, coalition, objective, step)

    if args.format == "json":
        _write_json(_deviation_json(instance, report), out)
    else:
        _write_deviation(out, args.format, instance, report)
    if not report.converged:
        # After the answer is rendered, so a refusal never follows it.
        _err(
            f"the search stopped at its round limit (MAX_ROUNDS = {manipulation.MAX_ROUNDS}) "
            "without converging; the reports are its last best responses"
        )
    return EXIT_OK


def cmd_table(args, out) -> int:
    blocks = [(s, *scenarios.run_scenario(s)) for s in scenarios.builtin_scenarios()]
    if args.format == "json":
        _write_json(
            [
                {
                    "name": s.name,
                    "slug": s.slug,
                    "verdict": r.verdict,
                    "expected_prices": {
                        room: _rational_json(s.expected.prices.price_of(room))
                        for room in s.instance.room_ids
                    },
                    "computed": _outcome_json(s.instance, o),
                }
                for s, o, r in blocks
            ],
            out,
        )
        return EXIT_OK

    # Per scenario, one row per room: room, agent, computed price, expected price.
    tables = [
        [
            (room, o.assignment.agent_of(room), render_money(o.prices.price_of(room)),
             render_money(s.expected.prices.price_of(room)))
            for room in s.instance.room_ids
        ]
        for s, o, _ in blocks
    ]
    if args.format == "csv":
        header = ("scenario", "room", "agent", "computed_price", "expected_price", "verdict")
        rows = [(s.slug, *row, r.verdict) for (s, _, r), t in zip(blocks, tables) for row in t]
        _write_table(out, "csv", header, rows)
        return EXIT_OK
    for (s, _, r), table in zip(blocks, tables):
        out.write(f"== {s.name}\n")
        _write_table(out, "text", ("room", "agent", "computed", "expected"), table, (-6, -6, 9, 9))
        out.write(f"verdict: {r.verdict}\n\n")
    return EXIT_OK


def _err(msg: str) -> None:
    # One line, whatever line breaks a label in the message holds.
    msg = "\\n".join(msg.splitlines())
    print(f"rentdiv: {msg}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rentdiv",
        description="Exact maximin envy-free rent division and manipulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )

    p = sub.add_parser("solve", help="solve a scenario file")
    p.add_argument("scenario")
    add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="compare computed and expected outcomes")
    p.add_argument("scenario", nargs="?")
    p.add_argument("--builtin", metavar="SLUG")
    p.add_argument("--all-builtin", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("manipulate", help="build and score a misreport")
    p.add_argument("scenario")
    p.add_argument("--coalition", metavar="A,B,...")
    p.add_argument("--objective", required=True, metavar="SPEC")
    p.add_argument("--template", choices=("exclusionary", "flatten", "defensive"))
    p.add_argument("--search", action="store_true")
    p.add_argument("--contested", metavar="D:R1+R2,...")
    p.add_argument(
        "--target-rooms",
        metavar="D:R4,E:R5",
        help="flatten template: room receiving each member's leftover unit "
        "(default: the member's room under honest reports)",
    )
    p.add_argument("--step", help="search grid unit (default 1)")
    add_format(p)
    p.set_defaults(func=cmd_manipulate)

    p = sub.add_parser("table", help="reproduce all builtin scenarios side by side")
    add_format(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The whole output is rendered first, so a refusal writes none of it.
    out = io.StringIO()
    try:
        code = args.func(args, out)
    except SearchSpaceTooLarge as exc:
        _err(str(exc))
        return EXIT_BUDGET
    except (RentDivisionError, OSError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INVALID
    sys.stdout.write(out.getvalue())
    return code


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
