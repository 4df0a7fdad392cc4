"""Misreport templates, deviation scoring and exhaustive best-response search."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import make_instance, random_rows
from rentdiv.manipulation import (
    SEARCH_BLOCK,
    ExcludeFromRooms,
    InfeasibleTemplate,
    MaximizeTrueUtility,
    MinimizeCoalitionPayments,
    MinimizeOwnPayment,
    SearchSpaceTooLarge,
    SubsidizeAgent,
    _composition_blocks,
    _FastMechanism,
    _prepare_search,
    _score_blocks,
    _score_value,
    best_response_search,
    coalition_search,
    evaluate_deviation,
    exclusion_check,
    objective_satisfied,
    objective_value,
    template_defensive,
    template_exclusionary,
    template_flatten,
)
from rentdiv.matching import (
    all_optimal_assignments,
    brute_force_assignment,
    max_welfare_assignment,
)
from rentdiv.pricing import envy_closure, envy_matrix, maximin_prices, solve
from rentdiv.scenarios import builtin_scenario

F = Fraction


class TestObjectives:
    def test_unknown_agent_rejected(self, baseline):
        inst, mat = baseline
        with pytest.raises(Exception):
            evaluate_deviation(inst, mat, mat, MinimizeOwnPayment("Z"))

    def test_exclusion_check(self):
        sc = builtin_scenario("exclusionary-collusion")
        out = solve(sc.instance, sc.reported_matrix)
        assert exclusion_check(out, ("D", "E"), ("R1", "R2", "R3"))
        assert not exclusion_check(out, ("A",), ("R1",))

    def test_predicate_vs_optimization_semantics(self, baseline):
        inst, truth = baseline
        honest = solve(inst, truth)
        # Honesty never *strictly improves* on itself.
        assert not objective_satisfied(
            inst, truth, honest, honest, MinimizeOwnPayment("D")
        )
        assert not objective_satisfied(
            inst, truth, honest, honest, MaximizeTrueUtility("D")
        )
        # Predicates just check the condition on the manipulated outcome.
        assert objective_satisfied(
            inst, truth, honest, honest, SubsidizeAgent("D", "R1", F(46, 5))
        )
        assert not objective_satisfied(
            inst, truth, honest, honest, ExcludeFromRooms(("D",), ("R1",))
        )

    def test_objective_value_uses_true_preferences(self):
        sc = builtin_scenario("exclusionary-collusion")
        out = solve(sc.instance, sc.reported_matrix)
        # B sits in R2 at 9.20; B's TRUE value for R2 is 9, not the reported 15.
        v = objective_value(
            sc.instance, sc.truth(), out, MaximizeTrueUtility("B")
        )
        assert v == F(-1, 5)


class TestEvaluateDeviation:
    def test_exclusionary_scenario_report(self):
        sc = builtin_scenario("exclusionary-collusion")
        objective = ExcludeFromRooms(("D", "E"), ("R1", "R2", "R3"))
        rep = evaluate_deviation(sc.instance, sc.truth(), sc.reported_matrix, objective)
        assert rep.objective_satisfied is True
        assert rep.objective_value is True
        assert rep.payment_delta == {
            "A": F(5),
            "B": F(4),
            "C": F(0),
            "D": F(-4),
            "E": F(-5),
        }
        assert rep.true_utility_delta == {
            "A": F(0),
            "B": F(-1),
            "C": F(-2),
            "D": F(0),
            "E": F(0),
        }
        # Overpaying coalitionists envy the cheap rooms; the victims, whose
        # payments dropped with their room quality, envy nobody.
        assert set(rep.envy_under_truth) == {
            ("A", "E"),
            ("B", "A"),
            ("B", "D"),
            ("B", "E"),
            ("C", "A"),
            ("C", "B"),
            ("C", "D"),
            ("C", "E"),
        }

    def test_honest_deviation_is_neutral(self, baseline):
        inst, truth = baseline
        rep = evaluate_deviation(inst, truth, truth, MinimizeOwnPayment("A"))
        assert set(rep.payment_delta.values()) == {F(0)}
        assert set(rep.true_utility_delta.values()) == {F(0)}
        assert rep.envy_under_truth == ()
        assert rep.objective_satisfied is False


class TestTemplates:
    def test_exclusionary_regenerates_coalition_rows(self, baseline):
        inst, truth = baseline
        sc = builtin_scenario("exclusionary-collusion")
        rep = template_exclusionary(
            inst, truth, ["A", "B", "C"], ["R1", "R2", "R3"], ["R4", "R5"]
        )
        for agent in ("A", "B", "C"):
            i = inst.agent_index(agent)
            assert rep.row(i) == sc.reported_matrix.row(i)
        # Non-members keep their true rows.
        for agent in ("D", "E"):
            i = inst.agent_index(agent)
            assert rep.row(i) == truth.row(i)

    def test_defensive_regenerates_defender_rows(self, baseline):
        inst, truth = baseline
        sc = builtin_scenario("failed-counter-attack")
        rep = template_defensive(
            inst, truth, ["D", "E"], {"D": ("R1", "R2"), "E": ("R2", "R3")}
        )
        for agent in ("D", "E"):
            i = inst.agent_index(agent)
            assert rep.row(i) == sc.reported_matrix.row(i)

    def test_flatten_regenerates_coalition_rows(self, baseline):
        inst, truth = baseline
        sc = builtin_scenario("cost-minimization")
        rep = template_flatten(inst, truth, ["D", "E"], {"D": "R4", "E": "R5"})
        for agent in ("D", "E"):
            i = inst.agent_index(agent)
            assert rep.row(i) == sc.reported_matrix.row(i)

    def test_template_rows_sum_to_rent(self, baseline):
        inst, truth = baseline
        rep = template_exclusionary(
            inst, truth, ["A", "B"], ["R1", "R2"], ["R4", "R5"]
        )
        for i in range(inst.n):
            assert sum(rep.row(i)) == inst.total_rent

    def test_exclusionary_infeasible_when_overcommitted(self, baseline):
        inst, truth = baseline
        with pytest.raises(InfeasibleTemplate):
            template_exclusionary(
                inst, truth, ["A", "B"], ["R1", "R2"], ["R3", "R4", "R5"]
            )

    def test_defensive_infeasible_when_bids_exceed_rent(self, baseline):
        inst, truth = baseline
        with pytest.raises(InfeasibleTemplate):
            template_defensive(
                inst,
                truth,
                ["D"],
                {"D": ("R1", "R2")},
                inflate_value=F(20),
            )


class TestFastMechanism:
    def test_agrees_with_exact_route(self):
        # One block per instance: the true row and two random rows of one
        # agent, each pinned against the exact matching and simplex routes.
        import numpy as np

        rng = random.Random(1234)
        for _ in range(40):
            n = rng.randint(2, 5)
            rows = random_rows(rng, n)
            inst, mat = make_instance(rows)
            agent = rng.randrange(n)
            block = [rows[agent]] + random_rows(rng, n)[:2]
            fast = _FastMechanism(inst, mat, agent, scale=1)
            perm, _, u_num = fast.solve(
                np.array([[int(v) for v in row] for row in block], dtype=np.int64)
            )
            for b, row in enumerate(block):
                reported = mat.replace_row(agent, row)
                exact = max_welfare_assignment(inst, reported)
                assert tuple(int(j) for j in perm[b]) == exact.assignment.to_indices(inst)
                sol = maximin_prices(inst, reported, exact.assignment)
                for i, name in enumerate(inst.agent_ids):
                    assert F(int(u_num[b][i]), n) == sol.utilities[name]

    # Instances per size n; rows sum to a small rent, so welfare ties abound.
    ORACLE_SIZES = {2: 30, 3: 30, 4: 20, 5: 10, 6: 4, 7: 1}

    def test_winners_match_enumeration_oracles(self):
        # The winner for room r must be the canonical optimum among the
        # assignments giving the agent r.  A row of R on r alone makes every
        # such optimum a global one (moving the agent to r costs the others at
        # most what it takes from whoever held r, which is at most R), so the
        # winner is the first of those in the enumerated, sorted optima.  The
        # first optimum overall is the assignment the mechanism picks.
        import numpy as np

        rng = random.Random(77)
        for n, count in self.ORACLE_SIZES.items():
            for _ in range(count):
                total = rng.choice((3, 4, 6))
                rows = random_rows(rng, n, total=total)
                inst, mat = make_instance(rows)
                for agent in range(n):
                    fast = _FastMechanism(inst, mat, agent, scale=1)
                    forcing, picked = [], []
                    for r in range(n):
                        row = [F(0)] * n
                        row[r] = F(total)
                        forcing.append(row)
                        optima = all_optimal_assignments(inst, mat.replace_row(agent, row))
                        group = [a.to_indices(inst) for a in optima]
                        winner = next(p for p in group if p[agent] == r)
                        assert tuple(fast.perm[r].tolist()) == winner
                        others = sum(rows[k][winner[k]] for k in range(n) if k != agent)
                        assert int(fast.others_welfare[r]) == others
                        picked.append(group[0])
                    block = [rows[agent]] + random_rows(rng, n, total=total)[:2]
                    for row in block:
                        brute = brute_force_assignment(inst, mat.replace_row(agent, row))
                        picked.append(brute.assignment.to_indices(inst))
                    perm, _, _ = fast.solve(
                        np.array(
                            [[int(v) for v in row] for row in forcing + block], dtype=np.int64
                        )
                    )
                    assert [tuple(p) for p in perm.tolist()] == picked

    # Instances per size n for the chain parity test.
    PARITY_SIZES = {2: 40, 3: 40, 4: 30, 5: 20, 6: 10, 7: 6}

    def test_chains_match_full_closure(self):
        # The kernel derives each candidate's chains from the per-room
        # closures of the others; here every candidate's whole envy matrix
        # goes through the closure instead.  Rows summing to a small rent
        # make welfare ties, settled by the tie-break, common.
        import numpy as np

        rng = random.Random(4099)
        candidates = tied = 0
        for n, count in self.PARITY_SIZES.items():
            for _ in range(count):
                total = rng.choice((2, 3, 5, 8))
                rows = [[int(v) for v in row] for row in random_rows(rng, n, total=total)]
                inst, mat = make_instance(rows, total=total)
                for agent in range(n):
                    fast = _FastMechanism(inst, mat, agent, scale=1)
                    block = [rows[agent]] + [
                        [int(v) for v in row] for row in random_rows(rng, n, total=total)
                    ]
                    perm, _, u_num = fast.solve(np.array(block, dtype=np.int64))
                    for x, sigma, u in zip(block, perm.tolist(), u_num.tolist()):
                        reported = rows[:agent] + [x] + rows[agent + 1 :]
                        closed = envy_closure(envy_matrix(reported, sigma))
                        assert all(closed[i][i] == 0 for i in range(n))
                        chains = [max(row) for row in closed]
                        welfare = sum(reported[i][sigma[i]] for i in range(n))
                        shared = welfare - total - sum(chains)
                        assert u == [shared + n * m for m in chains]
                        room_welfare = [int(w) + x[r] for r, w in enumerate(fast.others_welfare)]
                        tied += room_welfare.count(max(room_welfare)) > 1
                        candidates += 1
        assert tied > candidates // 4

    def test_ten_agents_search_matches_exact_route(self):
        # 92,378 candidates; the n! table the kernel once used stopped at 9.
        rng = random.Random(10)
        inst, mat = make_instance(random_rows(rng, 10, total=10))
        row, value = best_response_search(inst, mat, "C", MinimizeOwnPayment("C"))
        assert value == solve(inst, mat.replace_row(2, row)).payment_of("C")
        assert value < solve(inst, mat).payment_of("C")

    def test_single_agent_search(self):
        # The others' problem is empty; the one candidate is the true row.
        inst, mat = make_instance([(7,)])
        assert best_response_search(inst, mat, "A", MinimizeOwnPayment("A")) == ((F(7),), F(7))
        reported, value, converged = coalition_search(
            inst, mat, ["A"], MaximizeTrueUtility("A")
        )
        assert (reported, value, converged) == (mat, F(0), True)

    def test_compositions_lexicographic(self):
        def rows(total, parts):
            return [tuple(r) for b in _composition_blocks(total, parts) for r in b.tolist()]

        assert rows(3, 2) == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert len(rows(4, 3)) == 15
        # 3,876 rows: several blocks, every one full except the last.
        brute = [c for c in itertools.product(range(16), repeat=5) if sum(c) == 15]
        assert len(brute) > 3 * SEARCH_BLOCK
        assert [len(b) for b in _composition_blocks(15, 5)][:-1] == [SEARCH_BLOCK] * 3
        assert rows(15, 5) == brute


# SHA-256 of each full-grid score vector on the baseline scenario at step 1
# (candidates in lexicographic order, scores as decimal integers joined by
# commas), recorded from the per-candidate search the kernel replaced.
BASELINE_DIGESTS = [
    (
        "A",
        MinimizeOwnPayment("A"),
        "0969395775b5442cc9f9f0d62bcfb831994dc454314cc061fc619754fac6cca7",
    ),
    (
        "B",
        MinimizeOwnPayment("B"),
        "0efb7a40afb1a613d6e5a5e299614d8fffee113421195768d89d0e5ee31c10b7",
    ),
    (
        "C",
        MinimizeOwnPayment("C"),
        "76e132ee5a5c8987b547f0f7388aaa971c92428f7e14d98254901e3a9e308de5",
    ),
    (
        "D",
        MinimizeOwnPayment("D"),
        "2982253ec8fc7a752e25c36281f196dcae02eb8460b628876eb81e0d3eb09a32",
    ),
    (
        "E",
        MinimizeOwnPayment("E"),
        "128e4bb791f9096637a3e3d573e23e81517017cebc86f754ed31f11a58b247ef",
    ),
    (
        "A",
        ExcludeFromRooms(("A",), ("R5",)),
        "5c1a86bc9baf0b909f067e89a2b40d3458c29ce3917955713e0b4e86ebd8e2e4",
    ),
    (
        "D",
        MinimizeCoalitionPayments(("D", "E")),
        "890c698c80d335e1e94c8c7a1290f89203b4ba30b3a82e6b2cdecf1e0171b50b",
    ),
    (
        "D",
        SubsidizeAgent("E", "R1", F(8)),
        "ac086f9e1d81d438c0f8fa0dea65faed81fd37d56f4e455405526237c612381b",
    ),
    (
        "A",
        MaximizeTrueUtility("A"),
        "4d4b8bd8745cbf2311b952df6646010a3bbcdbf6814a96e44cddc710bbecb187",
    ),
]


def _grid_scores(inst, truth, agent, objective, step):
    """[(units, score)] over the whole grid, and the payment denominator."""
    step, scale = _prepare_search(inst, truth, step, 10**7)
    agent_index = inst.agent_index(agent)
    blocks = _score_blocks(inst, truth, truth, agent_index, objective, step, scale)
    return [
        (units, score)
        for block_units, block_scores in blocks
        for units, score in zip(block_units.tolist(), block_scores.tolist())
    ], inst.n * scale


class TestSearchKernel:
    @pytest.mark.parametrize(
        "agent,objective,digest",
        BASELINE_DIGESTS,
        ids=[f"{a}-{type(o).__name__}" for a, o, _ in BASELINE_DIGESTS],
    )
    def test_full_grid_digest(self, baseline, agent, objective, digest):
        inst, truth = baseline
        scores, _ = _grid_scores(inst, truth, agent, objective, F(1))
        assert len(scores) == 91390
        text = ",".join(str(int(s)) for _, s in scores)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_int64_bound_falls_back_to_exact_integers(self):
        # Scaled intermediates of this instance pass 2**63; int64 arrays
        # wrapped here and returned payments such as -6446744073709551616/3.
        r = 4 * 10**18
        inst, truth = make_instance([(r, 0, 0), (0, r, 0), (0, 0, r)])
        objective = MinimizeOwnPayment("A")
        scores, nscale = _grid_scores(inst, truth, "A", objective, F(r, 4))
        assert len(scores) == 15
        for units, score in scores:
            exact = solve(inst, truth.replace_row(0, [u * F(r, 4) for u in units]))
            assert _score_value(objective, score, nscale) == objective_value(
                inst, truth, exact, objective
            )

    def test_seven_agents_across_blocks(self):
        rng = random.Random(7)
        inst, truth = make_instance(random_rows(rng, 7, total=9), total=9)
        objective = MinimizeOwnPayment("C")
        scores, nscale = _grid_scores(inst, truth, "C", objective, F(1))
        assert len(scores) == 5005 > 4 * SEARCH_BLOCK
        ranks = {0, len(scores) - 1}
        for edge in range(SEARCH_BLOCK, len(scores), SEARCH_BLOCK):
            ranks |= {edge - 1, edge}
        for k in sorted(ranks):
            units, score = scores[k]
            exact = solve(inst, truth.replace_row(2, units))
            assert _score_value(objective, score, nscale) == exact.payment_of("C")
        best_row, value = best_response_search(inst, truth, "C", objective)
        assert value == solve(inst, truth.replace_row(2, best_row)).payment_of("C")

    @pytest.mark.parametrize(
        "agent,objective",
        [(a, MinimizeOwnPayment(a)) for a in "ABCDE"]
        + [(a, MaximizeTrueUtility(a)) for a in "ABCDE"]
        + [
            ("A", ExcludeFromRooms(("A",), ("R5",))),
            ("D", SubsidizeAgent("E", "R1", F(8))),
        ],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_value_matches_exact_route(self, baseline, agent, objective):
        inst, truth = baseline
        row, value = best_response_search(inst, truth, agent, objective)
        reported = truth.replace_row(inst.agent_index(agent), row)
        assert value == objective_value(inst, truth, solve(inst, reported), objective)

    def test_coalition_value_matches_exact_route(self, baseline):
        inst, truth = baseline
        objective = MinimizeCoalitionPayments(("D", "E"))
        reported, value, _ = coalition_search(inst, truth, ("D", "E"), objective)
        assert value == objective_value(inst, truth, solve(inst, reported), objective)

    def test_fractional_grid_and_cap(self):
        # scale 2 and a cap that is no multiple of 1/(n*scale).
        inst, truth = make_instance(
            [(F(5, 2), F(1, 2), 1), (1, F(5, 2), F(1, 2)), (F(3, 2), F(3, 2), 1)]
        )
        for agent, objective in [
            ("A", MinimizeOwnPayment("A")),
            ("B", MaximizeTrueUtility("B")),
            ("C", SubsidizeAgent("C", "R3", F(1, 7))),
        ]:
            scores, nscale = _grid_scores(inst, truth, agent, objective, F(1, 2))
            for units, score in scores:
                row = [u * F(1, 2) for u in units]
                exact = solve(inst, truth.replace_row(inst.agent_index(agent), row))
                assert _score_value(objective, score, nscale) == objective_value(
                    inst, truth, exact, objective
                )


class TestSearch:
    def test_budget_guard(self, baseline):
        inst, truth = baseline
        with pytest.raises(SearchSpaceTooLarge) as ei:
            best_response_search(
                inst, truth, "A", MinimizeOwnPayment("A"), step=F(1, 100)
            )
        assert ei.value.count > ei.value.budget

    def test_step_must_divide_rent(self, baseline):
        inst, truth = baseline
        with pytest.raises(ValueError):
            best_response_search(inst, truth, "A", MinimizeOwnPayment("A"), step=F(7))

    def test_truth_in_candidate_set(self):
        # Small instance, step 1: exhaustive search can never do worse than
        # honesty because honesty is one of the enumerated rows.
        inst, truth = make_instance([(4, 1, 1), (1, 4, 1), (1, 1, 4)], total=6)
        honest = solve(inst, truth)
        for agent in inst.agent_ids:
            row, value = best_response_search(
                inst, truth, agent, MinimizeOwnPayment(agent), step=F(1)
            )
            assert sum(row) == inst.total_rent
            assert value <= honest.payment_of(agent)

    def test_single_agent_can_cut_own_payment(self, baseline):
        inst, truth = baseline
        honest = solve(inst, truth)
        row, value = best_response_search(
            inst, truth, "A", MinimizeOwnPayment("A"), step=F(1)
        )
        # The true row lies on the unit grid, so honesty is a candidate and
        # the optimum can only improve on it; here it strictly does.
        assert value < honest.payment_of("A")
        assert value == F(17, 5)

    def test_honesty_is_a_candidate_only_on_a_dividing_step(self, baseline):
        # A's true row (10, 8, 8, 5, 5) lies on the grid of step 1/2, so the
        # search cannot lose to honesty there; on the grid of step 3 it is
        # no candidate, and A's best row there pays more than honesty.
        inst, truth = baseline
        assert solve(inst, truth).payment_of("A") == F(21, 5)
        objective = MinimizeOwnPayment("A")
        row, value = best_response_search(inst, truth, "A", objective, step=F(1, 2))
        assert value == F(17, 5)
        row, value = best_response_search(inst, truth, "A", objective, step=F(3))
        assert row == (0, 0, 0, 18, 18)
        assert value == 5

    def test_coalition_search_converges_on_small_instance(self):
        inst, truth = make_instance([(4, 1, 1), (1, 4, 1), (1, 1, 4)], total=6)
        honest = solve(inst, truth)
        objective = MinimizeCoalitionPayments(("A", "B"))
        reported, value, converged = coalition_search(
            inst, truth, ("A", "B"), objective, step=F(1)
        )
        assert converged
        honest_total = honest.payment_of("A") + honest.payment_of("B")
        assert value <= honest_total
        # Non-members are never touched.
        assert reported.row(2) == truth.row(2)
