"""Welfare-maximizing assignment: Hungarian route vs brute-force oracle."""

import random
from fractions import Fraction

import pytest

from conftest import make_instance, random_rows
from rentdiv.matching import max_welfare_assignment
from rentdiv.oracles import (
    BRUTE_FORCE_LIMIT,
    InstanceTooLarge,
    all_optimal_assignments,
    brute_force_assignment,
    tie_break_key,
)
from rentdiv.model import Assignment
from rentdiv.scenarios import builtin_scenario


class TestSmallCases:
    def test_two_by_two_diagonal(self):
        inst, mat = make_instance([(2, 1), (1, 2)], total=3)
        res = max_welfare_assignment(inst, mat)
        assert res.assignment == Assignment({"A": "R1", "B": "R2"})
        assert res.welfare == Fraction(4)

    def test_single_agent(self):
        inst, mat = make_instance([(5,)], total=5)
        res = max_welfare_assignment(inst, mat)
        assert res.assignment == Assignment({"A": "R1"})
        assert res.welfare == Fraction(5)

    def test_brute_force_limit(self):
        rows = [[Fraction(1)] * 10 for _ in range(10)]
        inst, mat = make_instance(rows, total=10)
        with pytest.raises(InstanceTooLarge):
            brute_force_assignment(inst, mat)
        with pytest.raises(InstanceTooLarge):
            all_optimal_assignments(inst, mat)
        assert BRUTE_FORCE_LIMIT == 9


class TestTieBreak:
    def test_baseline_has_exactly_two_optima(self, baseline):
        # B and D value R1 (10) and R4 (6) identically, so swapping them
        # preserves the optimal welfare of 40; no other swap does.
        inst, mat = baseline
        optima = all_optimal_assignments(inst, mat)
        assert len(optima) == 2
        expected = {
            Assignment({"A": "R5", "B": "R4", "C": "R2", "D": "R1", "E": "R3"}),
            Assignment({"A": "R5", "B": "R1", "C": "R2", "D": "R4", "E": "R3"}),
        }
        assert set(optima) == expected

    def test_baseline_canonical_pick(self, baseline):
        # B and D tie on value for R1, so the later roster position (D) wins.
        inst, mat = baseline
        res = max_welfare_assignment(inst, mat)
        assert res.assignment == Assignment(
            {"A": "R5", "B": "R4", "C": "R2", "D": "R1", "E": "R3"}
        )
        assert res.welfare == Fraction(40)
        assert all_optimal_assignments(inst, mat)[0] == res.assignment

    def test_strongest_claimant_beats_roster_order(self):
        # Room R1 can go to A (value 15) or E (value 10) at equal welfare;
        # the higher value must win even though both optima exist.
        sc = builtin_scenario("exclusionary-collusion")
        res = max_welfare_assignment(sc.instance, sc.reported_matrix)
        assert res.assignment.room_of("A") == "R1"
        assert res.assignment == Assignment(
            {"A": "R1", "B": "R2", "C": "R3", "D": "R4", "E": "R5"}
        )

    def test_tie_break_key_orders_by_room_value_then_agent(self):
        rows = [
            (Fraction(10), Fraction(6)),
            (Fraction(10), Fraction(6)),
        ]
        ident = (0, 1)
        swapped = (1, 0)
        assert tie_break_key(swapped, rows) > tie_break_key(ident, rows)

    def test_all_optimal_starts_with_canonical(self, baseline):
        inst, mat = baseline
        assert (
            all_optimal_assignments(inst, mat)[0]
            == max_welfare_assignment(inst, mat).assignment
        )


class TestOracleAgreement:
    def test_routes_agree_on_random_instances(self):
        rng = random.Random(20240817)
        for _ in range(60):
            n = rng.randint(2, 6)
            inst, mat = make_instance(random_rows(rng, n))
            a = max_welfare_assignment(inst, mat)
            b = brute_force_assignment(inst, mat)
            assert a.welfare == b.welfare
            assert a.assignment == b.assignment

    def test_routes_agree_under_heavy_ties(self):
        # Flat matrices maximize the number of tied optima.
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 5)
            rows = []
            for _ in range(n):
                head = [Fraction(rng.choice((6, 6, 6, 7))) for _ in range(n - 1)]
                rows.append(tuple(head + [Fraction(36) - sum(head)]))
            inst, mat = make_instance(rows, total=36)
            a = max_welfare_assignment(inst, mat)
            b = brute_force_assignment(inst, mat)
            assert a.welfare == b.welfare
            assert a.assignment == b.assignment
            optima = all_optimal_assignments(inst, mat)
            assert optima[0] == a.assignment
            assert a.assignment in optima
