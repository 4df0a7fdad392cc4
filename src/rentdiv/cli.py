"""Command-line front door.

Subcommands::

    rentdiv solve <scenario.json> [--format text|json|csv]
    rentdiv verify (<scenario.json> | --builtin <slug> | --all-builtin) [--format ...]
    rentdiv manipulate <scenario.json> --coalition A,B --objective SPEC
            (--template exclusionary|flatten|defensive | --search)
            [--contested D:R1+R2,...] [--target-rooms D:R4,E:R5]
            [--step N] [--format ...]
    rentdiv table [--format ...]

Objective grammar (OBJECTIVE_GRAMMAR): ``exclude:D,E@R1,R2,R3`` |
``min-pay:D[,E]`` | ``subsidize:E@R1<=7`` | ``max-util:A``.

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
from . import pricing, scenarios
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
    """Write ``doc`` as indented JSON, or refuse it whole: the exact
    numerators and denominators of an answer can pass the digits that Python
    converts to text, where the text formats still round to cents."""
    try:
        text = json.dumps(doc, indent=2)
    except ValueError:
        raise RentDivisionError(
            "--format json cannot print this answer: an exact amount in it has "
            "more digits than Python converts to text; --format text and csv "
            "round it to cents"
        ) from None
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


def _print_outcome_text(instance, outcome: Outcome, out):
    out.write(f"{'room':<6} {'agent':<6} {'price':>8} {'utility':>8}\n")
    for r in instance.room_ids:
        a = outcome.assignment.agent_of(r)
        out.write(
            f"{r:<6} {a:<6} {render_money(outcome.prices.price_of(r)):>8} "
            f"{render_money(outcome.utilities[a]):>8}\n"
        )
    out.write(f"minimum utility: {render_money(outcome.min_utility)}\n")


def _print_outcome_csv(instance, outcome: Outcome, out):
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["room", "agent", "price", "utility"])
    for r in instance.room_ids:
        a = outcome.assignment.agent_of(r)
        w.writerow(
            [r, a, render_money(outcome.prices.price_of(r)), render_money(outcome.utilities[a])]
        )


def cmd_solve(args, out) -> int:
    scenario = scenarios.load_scenario(args.scenario)
    outcome = pricing.solve(scenario.instance, scenario.reported_matrix)
    if args.format == "json":
        _write_json(_outcome_json(scenario.instance, outcome), out)
    elif args.format == "csv":
        _print_outcome_csv(scenario.instance, outcome, out)
    else:
        _print_outcome_text(scenario.instance, outcome, out)
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
    sources = {"a scenario file": args.scenario, "--builtin": args.builtin,
               "--all-builtin": args.all_builtin}
    given = [name for name, value in sources.items() if value]
    if not given:
        raise ParseError("verify needs a scenario file, --builtin or --all-builtin")
    if len(given) > 1:
        raise ParseError(
            f"verify takes one of a scenario file, --builtin or --all-builtin, "
            f"not {' and '.join(given)}"
        )
    if args.all_builtin:
        items = scenarios.builtin_scenarios()
    elif args.builtin:
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
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["scenario", "verdict", "assignment_equivalent"])
        for s, _, r in results:
            w.writerow([s.slug, r.verdict, r.assignment_equivalent])
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
    a label named twice."""
    labels = spec.split(",")
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
        try:
            cap = parse_money(cap)
        except ValidationError as exc:
            raise ParseError(str(exc), "objective") from None
        except (ValueError, ZeroDivisionError):
            raise bad(f"cap {cap!r} is not an exact amount") from None
        return manipulation.SubsidizeAgent(agent, room, cap)
    if kind == "max-util":
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
        agent = agent.strip()
        rooms = tuple(r.strip() for r in rooms.split("+"))
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


def _deviation_json(instance, report, reported_matrix) -> dict:
    return {
        "reported_values": {
            a: [format_exact(v) for v in reported_matrix.row(i)]
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


def _deviation_text(instance, report, out):
    out.write("honest outcome:\n")
    _print_outcome_text(instance, report.honest_outcome, out)
    out.write("manipulated outcome:\n")
    _print_outcome_text(instance, report.manipulated_outcome, out)
    out.write(f"{'agent':<6} {'pay delta':>10} {'true-util delta':>16}\n")
    for a in instance.agent_ids:
        out.write(
            f"{a:<6} {render_money(report.payment_delta[a]):>10} "
            f"{render_money(report.true_utility_delta[a]):>16}\n"
        )
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

    coalition = _split_labels(args.coalition, bad) if args.coalition else []
    unknown = [a for a in coalition if a not in instance.agent_ids]
    if unknown:
        raise ParseError(f"unknown coalition agent(s): {', '.join(unknown)}")
    objective = _parse_objective(args.objective)
    manipulation._check_objective(instance, objective)

    step = _parse_step(args.step)
    if args.template and args.search:
        raise ParseError("--template and --search exclude each other; pick one")
    if args.template:
        if not coalition:
            raise ParseError("--template needs --coalition")
        honest = None  # solved once, before the template if flatten needs it
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
            if args.target_rooms:
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
                honest = pricing.solve(instance, true_matrix)
                own = {a: honest.assignment.room_of(a) for a in coalition}
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
        if honest is None:
            honest = pricing.solve(instance, true_matrix)
        manipulated = pricing.solve(instance, reported)
        report = manipulation._deviation_report(
            instance, true_matrix, honest, manipulated, objective
        )
    elif args.search:
        # The search solves the mechanism on the truth and on the reports it
        # returns, both on its own integer form.
        reported, _, _, honest, manipulated = manipulation._coalition_search(
            instance, true_matrix, coalition, objective, step
        )
        report = manipulation._deviation_report(
            instance, true_matrix, honest, manipulated, objective
        )
    else:
        raise ParseError("pick one of --template or --search")

    if args.format == "json":
        _write_json(_deviation_json(instance, report, reported), out)
    elif args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["agent", "payment_delta", "true_utility_delta"])
        for a in instance.agent_ids:
            w.writerow(
                [
                    a,
                    render_money(report.payment_delta[a]),
                    render_money(report.true_utility_delta[a]),
                ]
            )
    else:
        _deviation_text(instance, report, out)
    return EXIT_OK


def cmd_table(args, out) -> int:
    blocks = []
    for s in scenarios.builtin_scenarios():
        outcome, report = scenarios.run_scenario(s)
        blocks.append((s, outcome, report))

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
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["scenario", "room", "agent", "computed_price", "expected_price", "verdict"])
        for s, o, r in blocks:
            for room in s.instance.room_ids:
                w.writerow(
                    [
                        s.slug,
                        room,
                        o.assignment.agent_of(room),
                        render_money(o.prices.price_of(room)),
                        render_money(s.expected.prices.price_of(room)),
                        r.verdict,
                    ]
                )
        return EXIT_OK

    for s, o, r in blocks:
        out.write(f"== {s.name}\n")
        out.write(
            f"{'room':<6} {'agent':<6} {'computed':>9} {'expected':>9}\n"
        )
        for room in s.instance.room_ids:
            expected = render_money(s.expected.prices.price_of(room))
            out.write(
                f"{room:<6} {o.assignment.agent_of(room):<6} "
                f"{render_money(o.prices.price_of(room)):>9} {expected:>9}\n"
            )
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
    p.add_argument("--step", default="1")
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
