"""Acceptance gate: nine end-to-end checks in exact rational arithmetic.

Each check prints a single pass/fail line (echoed in the terminal summary)
and enforces its runtime budget.  Every comparison is exact rational
equality, with one tolerance: checks 5 and 6 certify a maximin level by
finding the Fourier-Motzkin oracle feasible at the level and infeasible at
the level + ``CERTIFICATE_EPSILON`` (1/1000), so a better level less than
1/1000 higher would pass them.
"""

import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES, make_instance, random_rows
from rentdiv.cli import main as cli_main
from rentdiv.manipulation import (
    MinimizeCoalitionPayments,
    coalition_search,
    template_defensive,
    template_exclusionary,
    template_flatten,
)
from rentdiv.matching import max_welfare_assignment
from rentdiv.model import Assignment, parse_money
from rentdiv.oracles import (
    CERTIFICATE_EPSILON,
    all_optimal_assignments,
    brute_force_assignment,
    min_utility_feasible,
)
from rentdiv.pricing import is_envy_free, maximin_prices, solve
from rentdiv.scenarios import builtin_scenario, run_scenario

F = Fraction


def _check(num: int, desc: str, budget: float, body) -> None:
    start = time.monotonic()
    status = "FAIL"
    try:
        body()
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
        status = "PASS"
    finally:
        elapsed = time.monotonic() - start
        line = f"[{num}/9] {desc}: {status} ({elapsed:.2f}s)"
        print(line)
        ACCEPTANCE_LINES.append(line)


def _prices(s):
    return tuple(parse_money(x) for x in s.split())


def test_1_baseline_reproduction():
    def body():
        sc = builtin_scenario("baseline")
        out = solve(sc.instance, sc.reported_matrix)
        assert out.assignment == Assignment(
            {"D": "R1", "C": "R2", "E": "R3", "B": "R4", "A": "R5"}
        )
        assert out.prices.as_list(sc.instance) == _prices("9.20 9.20 8.20 5.20 4.20")
        assert set(out.utilities.values()) == {F(4, 5)}

    _check(1, "baseline honest reproduction", 1.0, body)


def test_2_room_capture_reproduction():
    def body():
        sc = builtin_scenario("exclusionary-collusion")
        out = solve(sc.instance, sc.reported_matrix)
        assert out.prices.as_list(sc.instance) == _prices("9.20 9.20 9.20 5.20 3.20")
        assert out.assignment.room_of("A") == "R1"
        assert out.assignment.room_of("B") == "R2"
        assert out.assignment.room_of("C") == "R3"
        assert {out.assignment.room_of(a) for a in "DE"}.isdisjoint({"R1", "R2", "R3"})

    _check(2, "room-capture collusion reproduction", 1.0, body)


def test_3_counter_bidding_reproduction():
    def body():
        sc = builtin_scenario("failed-counter-attack")
        out, report = run_scenario(sc)
        assert out.prices.as_list(sc.instance) == _prices("9.60 9.60 9.60 3.60 3.60")
        assert report.verdict in ("match", "equivalent-match")
        # The bidding war backfires.  Under the recorded assignment (one of
        # the tied optima) both defenders sit in 9.60 rooms, strictly above
        # their honest-baseline payments of 9.20 and 8.20.
        for agent in ("D", "E"):
            room = sc.expected.assignment.room_of(agent)
            assert out.prices.price_of(room) == F(48, 5)
        base = solve(sc.instance, sc.truth())
        assert F(48, 5) > base.payment_of("D") == F(46, 5)
        assert F(48, 5) > base.payment_of("E") == F(41, 5)

    _check(3, "counter-bidding backfire reproduction", 1.0, body)


def test_4_subsidy_reproduction():
    def body():
        sc = builtin_scenario("benevolent-collusion")
        out = solve(sc.instance, sc.reported_matrix)
        assert out.prices.as_list(sc.instance) == _prices("7.00 7.00 7.00 8.00 7.00")
        assert out.assignment.room_of("E") == "R1"
        assert out.payment_of("E") == F(7)
        base = solve(sc.instance, sc.truth())
        assert base.payment_of("E") == F(41, 5)  # 8.20 when honest

    _check(4, "benevolent subsidy reproduction", 1.0, body)


def test_5_recorded_prices_adjudicated():
    def body():
        sc = builtin_scenario("cost-minimization")
        # The recorded prices are envy-free for the recorded assignment...
        assert (
            is_envy_free(
                sc.instance,
                sc.reported_matrix,
                sc.expected.assignment,
                sc.expected.prices,
            )
            == []
        )
        assert sc.expected.prices.as_list(sc.instance) == _prices("8 8 6 7 7")
        # ...but the solver finds a strictly better minimum utility of 1.6,
        # certified from both sides by the elimination oracle.
        out = solve(sc.instance, sc.reported_matrix)
        assert out.min_utility == F(8, 5)
        assert out.prices.as_list(sc.instance) == _prices("8.40 8.40 6.40 6.40 6.40")
        assert min_utility_feasible(
            sc.instance, sc.reported_matrix, out.assignment, F(8, 5)
        )
        assert not min_utility_feasible(
            sc.instance,
            sc.reported_matrix,
            out.assignment,
            F(8, 5) + CERTIFICATE_EPSILON,
        )
        assert cli_main(["verify", "--builtin", "cost-minimization"]) == 1

    _check(5, "recorded sub-maximin prices flagged as mismatch", 5.0, body)


def test_6_optimality_certificates():
    def body():
        rng = random.Random(20260823)
        for _ in range(100):
            inst, mat = make_instance(random_rows(rng, 5))
            out = solve(inst, mat)
            assert sum(out.prices.as_list(inst)) == inst.total_rent
            assert is_envy_free(inst, mat, out.assignment, out.prices) == []
            assert min_utility_feasible(inst, mat, out.assignment, out.min_utility)
            assert not min_utility_feasible(
                inst, mat, out.assignment, out.min_utility + CERTIFICATE_EPSILON
            )

    _check(6, "optimality certificates on 100 random instances", 60.0, body)


def test_7_oracle_equivalence():
    def body():
        rng = random.Random(1159)
        for _ in range(200):
            n = rng.randint(2, 6)
            inst, mat = make_instance(random_rows(rng, n))
            a = max_welfare_assignment(inst, mat)
            b = brute_force_assignment(inst, mat)
            assert a.welfare == b.welfare
            assert a.assignment == b.assignment
            vectors = {
                maximin_prices(inst, mat, sigma).prices.as_list(inst)
                for sigma in all_optimal_assignments(inst, mat)
            }
            assert len(vectors) == 1

    _check(7, "matching routes and tied-optima prices agree on 200 instances", 60.0, body)


def test_8_search_soundness():
    def body():
        sc = builtin_scenario("baseline")
        inst, truth = sc.instance, sc.reported_matrix
        for agent in inst.agent_ids:
            rep = coalition_search(
                inst, truth, (agent,), MinimizeCoalitionPayments((agent,)), step=F(1)
            )
            assert rep.objective_value <= rep.honest_outcome.payment_of(agent)
        rep = coalition_search(
            inst,
            truth,
            ("D", "E"),
            MinimizeCoalitionPayments(("D", "E")),
            step=F(1),
        )
        assert rep.objective_value <= F(14)

    _check(8, "exhaustive search never loses to honesty; coalition beats 14.00", 600.0, body)


def test_9_template_fidelity():
    def body():
        sc = builtin_scenario("baseline")
        inst, truth = sc.instance, sc.reported_matrix

        capture = builtin_scenario("exclusionary-collusion").reported_matrix
        got = template_exclusionary(
            inst, truth, ["A", "B", "C"], ["R1", "R2", "R3"], ["R4", "R5"]
        )
        for agent in ("A", "B", "C"):
            i = inst.agent_index(agent)
            assert got.row(i) == capture.row(i)

        counter = builtin_scenario("failed-counter-attack").reported_matrix
        got = template_defensive(
            inst, truth, ["D", "E"], {"D": ("R1", "R2"), "E": ("R2", "R3")}
        )
        for agent in ("D", "E"):
            i = inst.agent_index(agent)
            assert got.row(i) == counter.row(i)

        flat = builtin_scenario("cost-minimization").reported_matrix
        got = template_flatten(inst, truth, ["D", "E"], {"D": "R4", "E": "R5"})
        for agent in ("D", "E"):
            i = inst.agent_index(agent)
            assert got.row(i) == flat.row(i)

    _check(9, "strategy templates regenerate the archetypal misreport rows", 1.0, body)
