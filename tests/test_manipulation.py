"""Misreport templates, deviation scoring and the closed-form best-response search."""

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_instance, random_rows
from rentdiv import manipulation, pricing
from rentdiv.cli import EXIT_OK, main
from rentdiv.manipulation import (
    ExcludeFromRooms,
    InfeasibleTemplate,
    MaximizeTrueUtility,
    MinimizeCoalitionPayments,
    SearchSpaceTooLarge,
    SubsidizeAgent,
    _best_response,
    _cap_runs,
    _fill_defensive_rest,
    _level_at,
    _level_terms,
    _occupants,
    _prepare_search,
    _room_tables,
    coalition_search,
    evaluate_deviation,
    template_defensive,
    template_exclusionary,
    template_flatten,
)
from rentdiv.matching import max_welfare_assignment
from rentdiv.oracles import (
    SEARCH_BLOCK,
    _composition_blocks,
    _FastMechanism,
    _priced_blocks,
    all_optimal_assignments,
    brute_force_assignment,
)
from rentdiv.pricing import envy_closure, envy_matrix, integer_form, maximin_prices, solve
from rentdiv.scenarios import builtin_scenario, builtin_scenarios

F = Fraction
# For tests that enumerate a search grid with numpy: they skip without it.
needs_numpy = pytest.mark.usefixtures("numpy")


def _fast(inst, mat, agent):
    """``_FastMechanism`` for one agent of reports with integer values."""
    scale, rows, rent = integer_form(mat.values, inst.total_rent)
    assert scale == 1
    return _FastMechanism(rows, agent, rent)


class TestObjectives:
    def test_unknown_agent_rejected(self, baseline):
        inst, mat = baseline
        with pytest.raises(Exception):
            evaluate_deviation(inst, mat, mat, MinimizeCoalitionPayments(("Z",)))

    def test_exclusion_check(self):
        sc = builtin_scenario("exclusionary-collusion")
        inst, mat = sc.instance, sc.reported_matrix
        out = solve(inst, mat)
        assert ExcludeFromRooms(("D", "E"), ("R1", "R2", "R3")).value(inst, mat, out)
        assert not ExcludeFromRooms(("A",), ("R1",)).value(inst, mat, out)

    def test_predicate_vs_optimization_semantics(self, baseline):
        inst, truth = baseline
        honest = solve(inst, truth)

        def satisfied(objective):
            return manipulation._deviation_report(
                inst, truth, honest, honest, objective
            ).objective_satisfied

        # Honesty never *strictly improves* on itself.
        assert not satisfied(MinimizeCoalitionPayments(("D",)))
        assert not satisfied(MaximizeTrueUtility("D"))
        assert not satisfied(MinimizeCoalitionPayments(("D", "E")))
        # Predicates just check the condition on the manipulated outcome.
        assert satisfied(SubsidizeAgent("D", "R1", F(46, 5)))
        assert not satisfied(ExcludeFromRooms(("D",), ("R1",)))

    def test_objective_value_uses_true_preferences(self):
        sc = builtin_scenario("exclusionary-collusion")
        out = solve(sc.instance, sc.reported_matrix)
        # B sits in R2 at 9.20; B's TRUE value for R2 is 9, not the reported 15.
        v = MaximizeTrueUtility("B").value(sc.instance, sc.truth(), out)
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
        rep = evaluate_deviation(inst, truth, truth, MinimizeCoalitionPayments(("A",)))
        assert set(rep.payment_delta.values()) == {F(0)}
        assert set(rep.true_utility_delta.values()) == {F(0)}
        assert rep.envy_under_truth == ()
        assert rep.objective_satisfied is False

    @pytest.mark.parametrize(
        "objective, calls",
        [
            # manipulated once, honest once for the improvement test
            (MinimizeCoalitionPayments(("D",)), 2),
            # a predicate reads the manipulated outcome only
            (ExcludeFromRooms(("D",), ("R1",)), 1),
        ],
    )
    def test_objective_evaluated_once_per_side(self, baseline, monkeypatch, objective, calls):
        inst, truth = baseline
        honest = solve(inst, truth)
        kind = type(objective)
        seen = []
        real = kind.value

        def counted(self, *args):
            seen.append(args[-1])
            return real(self, *args)

        monkeypatch.setattr(kind, "value", counted)
        rep = manipulation._deviation_report(inst, truth, honest, honest, objective)
        assert len(seen) == calls
        assert rep.objective_value == real(objective, inst, truth, honest)


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

    def test_defensive_infeasible_when_bids_exceed_rent(self):
        # Two bids of 12 exceed a rent of 20.
        inst, truth = make_instance([(4, 4, 4, 4, 4)] * 5)
        with pytest.raises(InfeasibleTemplate):
            template_defensive(inst, truth, ["D"], {"D": ("R1", "R2")})

    def test_defensive_rest_matches_unit_steps(self):
        # Random fractional true values, ties included, against the rule
        # taken one unit at a time; the remainder falls short of or exceeds
        # the row's start by up to 300 and 30.
        rng = random.Random(23)
        for _ in range(1000):
            m = rng.randint(1, 6)
            rest = sorted(rng.sample(range(m + 2), m))
            true_values = [F(rng.randint(0, 30 * d), d) for d in rng.choices(range(1, 101), k=m)]
            if m > 1 and rng.random() < 0.3:
                true_values[-1] = true_values[0]
            d = rng.choice([1, 3, 7, 100])
            remainder = sum(true_values) + F(rng.randint(-30 * d, 300 * d), d)
            if remainder <= 0:
                remainder = F(rng.randint(1, 50), rng.randint(1, 9))
            got, want = [None] * (m + 2), [None] * (m + 2)
            _fill_defensive_rest(got, rest, true_values, remainder)
            _fill_defensive_rest_by_units(want, rest, true_values, remainder)
            assert got == want, (rest, true_values, remainder)

    def test_defensive_time_does_not_grow_with_the_rent(self, tmp_path):
        # Rent 3,000,000: one unit at a time this took 23 s.
        rows = [["1000000"] * 3, ["1000000"] * 3, ["1500000", "1500000", "0"]]
        doc = {
            "name": "big rent",
            "total_rent": "3000000",
            "rooms": ["R1", "R2", "R3"],
            "agents": [{"id": a, "reported_values": r} for a, r in zip("ABD", rows)],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["manipulate", str(path), "--coalition", "D", "--objective", "min-pay:D",
                "--template", "defensive", "--contested", "D:R1+R2", "--format", "json"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert json.loads(out.getvalue())["reported_values"]["D"] == ["12", "12", "2999976"]


@st.composite
def template_calls(draw):
    """A house (n = 2-6, rent up to 10**9 over a denominator of 1, 2, 3 or
    100), a coalition, and claimed, victim, target and contested rooms for
    it, valid or not."""
    n = draw(st.integers(2, 6))
    d = draw(st.sampled_from([1, 2, 3, 100]))
    units = draw(st.integers(1, 10**9))
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, units), min_size=n - 1, max_size=n - 1)))
        rows.append([F(b - a, d) for a, b in zip([0] + cuts, cuts + [units])])
    inst, truth = make_instance(rows, F(units, d))
    rooms = list(inst.room_ids)
    coalition = draw(st.permutations(inst.agent_ids))[: draw(st.integers(1, n))]
    order = draw(st.permutations(rooms))
    k = len(coalition) if draw(st.booleans()) else draw(st.integers(0, n))
    claimed = order[:k]
    victims = draw(st.lists(st.sampled_from(order[k:] or rooms), unique=True))
    target = {a: draw(st.sampled_from(rooms)) for a in coalition}
    contested = {
        a: tuple(draw(st.lists(st.sampled_from(rooms), min_size=2, max_size=2, unique=True)))
        for a in coalition
    }
    return inst, truth, coalition, claimed, victims, target, contested


@settings(max_examples=300, deadline=200)
@given(template_calls())
def test_templates_keep_rows_valid_at_any_rent(call):
    # Each template returns rows that sum to the rent, are nonnegative and
    # leave non-members alone, or refuses; its time does not grow with the rent.
    inst, truth, coalition, claimed, victims, target, contested = call
    for build in (
        lambda: template_exclusionary(inst, truth, coalition, claimed, victims),
        lambda: template_flatten(inst, truth, coalition, target),
        lambda: template_defensive(inst, truth, coalition, contested),
    ):
        try:
            reported = build()
        except (InfeasibleTemplate, ValueError):
            continue
        for i, a in enumerate(inst.agent_ids):
            row = reported.row(i)
            assert sum(row) == inst.total_rent
            assert min(row) >= 0
            if a not in coalition:
                assert row == truth.row(i)


def _fill_defensive_rest_by_units(row, rest, true_values, remainder):
    """``manipulation._fill_defensive_rest`` one unit at a time: the rule as
    first written, kept as the reference for its closed form."""
    sacrifice = max(range(len(rest)), key=lambda k: (true_values[k], -rest[k]))
    alloc = list(true_values)
    alloc[sacrifice] = min(F(1), remainder)
    diff = remainder - sum(alloc)
    movable = [k for k in range(len(rest)) if k != sacrifice] or [sacrifice]
    while diff > 0:
        step = min(F(1), diff)
        k = min(movable, key=lambda k: (alloc[k], rest[k]))
        alloc[k] += step
        diff -= step
    while diff < 0:
        candidates = [k for k in movable if alloc[k] > 0] or [sacrifice]
        k = max(candidates, key=lambda k: (alloc[k], -rest[k]))
        step = min(F(1), -diff, alloc[k])
        alloc[k] -= step
        diff += step
    for k, j in enumerate(rest):
        row[j] = alloc[k]


class TestFastMechanism:
    @needs_numpy
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
            fast = _fast(inst, mat, agent)
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

    @needs_numpy
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
                    fast = _fast(inst, mat, agent)
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

    @needs_numpy
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
                    fast = _fast(inst, mat, agent)
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
        reported, value, _ = coalition_search(inst, mat, ("C",), MinimizeCoalitionPayments(("C",)))
        assert value == solve(inst, reported).payment_of("C")
        assert value < solve(inst, mat).payment_of("C")

    def test_single_agent_search(self):
        # The others' problem is empty; the one candidate is the true row.
        inst, mat = make_instance([(7,)])
        objective = MinimizeCoalitionPayments(("A",))
        assert coalition_search(inst, mat, ("A",), objective) == (mat, F(7), True)
        reported, value, converged = coalition_search(
            inst, mat, ["A"], MaximizeTrueUtility("A")
        )
        assert (reported, value, converged) == (mat, F(0), True)

    @needs_numpy
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
        MinimizeCoalitionPayments(("A",)),
        "0969395775b5442cc9f9f0d62bcfb831994dc454314cc061fc619754fac6cca7",
    ),
    (
        "B",
        MinimizeCoalitionPayments(("B",)),
        "0efb7a40afb1a613d6e5a5e299614d8fffee113421195768d89d0e5ee31c10b7",
    ),
    (
        "C",
        MinimizeCoalitionPayments(("C",)),
        "76e132ee5a5c8987b547f0f7388aaa971c92428f7e14d98254901e3a9e308de5",
    ),
    (
        "D",
        MinimizeCoalitionPayments(("D",)),
        "2982253ec8fc7a752e25c36281f196dcae02eb8460b628876eb81e0d3eb09a32",
    ),
    (
        "E",
        MinimizeCoalitionPayments(("E",)),
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


def _kind(objective):
    """An objective's test id: its class name, except that min-pay for one
    member keeps the name its cases were first recorded under."""
    if isinstance(objective, MinimizeCoalitionPayments) and len(objective.coalition) == 1:
        return "MinimizeOwnPayment"
    return type(objective).__name__


def _value(objective, score, nscale):
    """The objective value an enumeration score stands for: a numeric
    objective scores sense * value * nscale, a predicate whether it holds."""
    if objective.sense:
        return Fraction(int(score) * objective.sense, nscale)
    return bool(score)


def _grid_scores(inst, truth, agent, objective, step):
    """[(units, score)] over the whole grid, and the payment denominator."""
    grid = _prepare_search(inst, truth, step)
    blocks = _priced_blocks(inst, objective, grid, grid.truth, inst.agent_index(agent))
    return [
        (units, score)
        for block_units, block_scores, _, _ in blocks
        for units, score in zip(block_units.tolist(), block_scores.tolist())
    ], inst.n * grid.scale


class TestSearchKernel:
    @needs_numpy
    @pytest.mark.parametrize(
        "agent,objective,digest",
        BASELINE_DIGESTS,
        ids=[f"{a}-{_kind(o)}" for a, o, _ in BASELINE_DIGESTS],
    )
    def test_full_grid_digest(self, baseline, agent, objective, digest):
        inst, truth = baseline
        scores, _ = _grid_scores(inst, truth, agent, objective, F(1))
        assert len(scores) == 91390
        text = ",".join(str(int(s)) for _, s in scores)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @needs_numpy
    def test_int64_bound_falls_back_to_exact_integers(self):
        # Scaled intermediates of this instance pass 2**63; int64 arrays
        # wrapped here and returned payments such as -6446744073709551616/3.
        r = 4 * 10**18
        inst, truth = make_instance([(r, 0, 0), (0, r, 0), (0, 0, r)])
        objective = MinimizeCoalitionPayments(("A",))
        scores, nscale = _grid_scores(inst, truth, "A", objective, F(r, 4))
        assert len(scores) == 15
        for units, score in scores:
            exact = solve(inst, truth.replace_row(0, [u * F(r, 4) for u in units]))
            assert _value(objective, score, nscale) == objective.value(inst, truth, exact)

    @needs_numpy
    def test_seven_agents_across_blocks(self):
        rng = random.Random(7)
        inst, truth = make_instance(random_rows(rng, 7, total=9), total=9)
        objective = MinimizeCoalitionPayments(("C",))
        scores, nscale = _grid_scores(inst, truth, "C", objective, F(1))
        assert len(scores) == 5005 > 4 * SEARCH_BLOCK
        ranks = {0, len(scores) - 1}
        for edge in range(SEARCH_BLOCK, len(scores), SEARCH_BLOCK):
            ranks |= {edge - 1, edge}
        for k in sorted(ranks):
            units, score = scores[k]
            exact = solve(inst, truth.replace_row(2, units))
            assert _value(objective, score, nscale) == exact.payment_of("C")
        reported, value, _ = coalition_search(inst, truth, ("C",), objective)
        assert value == solve(inst, reported).payment_of("C")

    @pytest.mark.parametrize(
        "agent,objective",
        [(a, MinimizeCoalitionPayments((a,))) for a in "ABCDE"]
        + [(a, MaximizeTrueUtility(a)) for a in "ABCDE"]
        + [
            ("A", ExcludeFromRooms(("A",), ("R5",))),
            ("D", SubsidizeAgent("E", "R1", F(8))),
        ],
        ids=lambda v: v if isinstance(v, str) else _kind(v),
    )
    def test_value_matches_exact_route(self, baseline, agent, objective):
        inst, truth = baseline
        reported, value, _ = coalition_search(inst, truth, (agent,), objective)
        assert value == objective.value(inst, truth, solve(inst, reported))

    def test_coalition_value_matches_exact_route(self, baseline):
        inst, truth = baseline
        objective = MinimizeCoalitionPayments(("D", "E"))
        reported, value, _ = coalition_search(inst, truth, ("D", "E"), objective)
        assert value == objective.value(inst, truth, solve(inst, reported))

    @needs_numpy
    def test_fractional_grid_and_cap(self):
        # scale 2 and a cap that is no multiple of 1/(n*scale).
        inst, truth = make_instance(
            [(F(5, 2), F(1, 2), 1), (1, F(5, 2), F(1, 2)), (F(3, 2), F(3, 2), 1)]
        )
        for agent, objective in [
            ("A", MinimizeCoalitionPayments(("A",))),
            ("B", MaximizeTrueUtility("B")),
            ("C", SubsidizeAgent("C", "R3", F(1, 7))),
            ("A", ExcludeFromRooms(("B",), ("R1",))),
            ("C", MinimizeCoalitionPayments(("A", "C"))),
        ]:
            scores, nscale = _grid_scores(inst, truth, agent, objective, F(1, 2))
            for units, score in scores:
                row = [u * F(1, 2) for u in units]
                exact = solve(inst, truth.replace_row(inst.agent_index(agent), row))
                assert _value(objective, score, nscale) == objective.value(inst, truth, exact)


def _oracle_best_response(inst, objective, grid, rows, agent_index):
    """``_best_response`` by enumeration: the first row of best score among
    ``_priced_blocks``, in grid units, with its score, assignment and payment
    numerators."""
    best = None
    for units, scores, perm, pay in _priced_blocks(inst, objective, grid, rows, agent_index):
        k = int(scores.argmax())
        if best is None or scores[k] > best[1]:
            best = units[k], scores[k], perm[k], pay[k]
    units, score, perm, pay = best
    return units.tolist(), int(score), perm.tolist(), pay.tolist()


class TestLayoutTerms:
    """The q-free parts of the box layout against their definitions."""

    @given(
        pairs=st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=6
        ),
        s=st.integers(0, 5),
        total=st.integers(0, 24),
        q=st.integers(0, 24),
    )
    def test_least_level_is_the_least_feasible_v(self, pairs, s, total, q):
        # A family s* over the free rooms k != s* with (delta_k, e_k), and the
        # first-row bound over the rooms after s*, as in _best_response.
        q = min(q, total)
        need = total - q
        s = min(s, len(pairs) - 1)
        family = pairs[:s] + pairs[s + 1 :]
        for bounds in (family, pairs[s + 1 :]):
            got = _level_at(_level_terms(total, bounds), q)
            want = next(
                v
                for v in range(-200, 200)
                if v + sum(min(q + delta, v + e) for delta, e in bounds) >= need
            )
            assert got == want, (bounds, total, q)

    def test_cap_runs_follow_the_tie_break(self):
        # At every q, a's key vector of room r (the others' keys with a's own
        # key at r) against that of room s with x_s at the welfare tie
        # decides whether r keeps the tie.
        rng = random.Random(7)
        for trial in range(300):
            n = 2 + trial % 5
            rows = [[rng.randint(0, 3) * 2 for _ in range(n)] for _ in range(n)]
            unit = rng.choice((1, 2, 3))
            total = 4 * n
            a = rng.randrange(n)
            _, _, _, _, keys, welfare = _room_tables(rows, a)
            for r in range(n):
                runs = _cap_runs(keys, welfare, r, a, unit, total)
                assert runs[0][0] == 0 and len(runs) <= n
                for q in range(total + 1):
                    delta = [d for q0, d in runs if q0 <= q][-1]
                    for s in range(n):
                        if s == r:
                            continue
                        tied = q * unit + welfare[r] - welfare[s]
                        mine = list(keys[r])
                        mine[r] = q * unit * n + a
                        theirs = list(keys[s])
                        theirs[s] = tied * n + a
                        cap = (tied - (mine < theirs)) // unit
                        assert q + delta[s] == cap, (rows, a, r, s, q, unit)


@needs_numpy
class TestClosedForm:
    """The closed-form best response against the enumeration oracle."""

    def test_outcome_is_a_function_of_room_and_offset(self, baseline):
        # Group every candidate of each baseline grid by the room r the agent
        # wins and y = m_a - x_r, with m_a = max(0, max_s (x_s - c_s)) and
        # c_s = v_k(s) - m'_k for the occupant k of s, all from the tables.
        import numpy as np

        inst, truth = baseline
        grid = _prepare_search(inst, truth, F(1))
        n = inst.n
        for agent in sorted({a for a, _, _ in BASELINE_DIGESTS}):
            a = inst.agent_index(agent)
            perm, assigned, chain, _, _, _ = _room_tables(grid.truth, a)
            c = np.array(
                [[assigned[r][k] - chain[r][k] for k in _occupants(perm[r])] for r in range(n)]
            )
            c[np.arange(n), np.arange(n)] = 10**9  # a's own room is no chain step
            blocks = _priced_blocks(inst, MinimizeCoalitionPayments((agent,)), grid, grid.truth, a)
            outcomes = []
            for units, _, block_perm, pay in blocks:
                room = block_perm[:, a]
                x = units * grid.unit
                m_a = np.maximum(0, (x - c[room]).max(axis=1))
                y = m_a - x[np.arange(len(x)), room]
                outcomes.append(np.column_stack([room, y, block_perm, pay]))
            outcomes = np.concatenate(outcomes)
            classes = np.unique(outcomes[:, :2], axis=0)
            assert len(np.unique(outcomes, axis=0)) == len(classes) < 200

    def test_matches_enumeration_oracle(self):
        # 2,000 best responses: n = 1-6, the four objective kinds (min-pay
        # for one member and for two), steps 1
        # and 1/2, halved (fractional) truths, and rows of another agent
        # already misreported.
        rng = random.Random(2024)
        kinds = set()
        for trial in range(400):
            n = 1 + trial % 6
            total = rng.choice((2, 3, 4) if n >= 5 else (2, 3, 4, 6))
            rows = random_rows(rng, n, total=total)
            rent = F(total)
            if trial % 3 == 0:
                rows = [tuple(v / 2 for v in row) for row in rows]
                rent /= 2
            inst, truth = make_instance(rows, total=rent)
            step = F(1, 2) if trial % 2 or rent.denominator != 1 else F(1)
            grid = _prepare_search(inst, truth, step)
            agent, other = rng.choice(inst.agent_ids), rng.choice(inst.agent_ids)
            a = inst.agent_index(agent)
            matrix = grid.truth
            if other != agent and trial % 4 < 2:
                cuts = sorted(rng.randint(0, grid.steps) for _ in range(n - 1))
                matrix = list(grid.truth)
                matrix[inst.agent_index(other)] = [
                    (hi - lo) * grid.unit for lo, hi in zip([0] + cuts, cuts + [grid.steps])
                ]
            for objective in [
                MinimizeCoalitionPayments((agent,)),
                MinimizeCoalitionPayments((agent, other)),
                MaximizeTrueUtility(rng.choice(inst.agent_ids)),
                ExcludeFromRooms((other,), (rng.choice(inst.room_ids),)),
                SubsidizeAgent(
                    other, rng.choice(inst.room_ids), F(rng.randint(0, 8), rng.choice((1, 3)))
                ),
            ]:
                got = _best_response(inst, objective, grid, matrix, a)
                want = _oracle_best_response(inst, objective, grid, matrix, a)
                assert got == want, (rows, agent, matrix, objective, step)
                kinds.add((type(objective), n, step, matrix is grid.truth, rent.denominator))
        assert len({k[0] for k in kinds}) == 4
        assert {k[1] for k in kinds} == set(range(1, 7))
        assert {k[2] for k in kinds} == {F(1), F(1, 2)}
        assert {k[3] for k in kinds} == {True, False}
        assert {k[4] for k in kinds} == {1, 2}

    def test_matches_enumeration_oracle_above_two_units(self):
        # 1,500 best responses on grids with unit = step*scale above 2, so a
        # room's reachable offsets fall in up to `unit` residues: truths in
        # thirds or fifths, steps 1, 2 and 3 wherever the step divides the
        # rent, n = 2-5 and the four objective kinds.
        rng = random.Random(19)
        kinds, sizes, steps, units = set(), set(), set(), set()
        for trial in range(375):
            n = 2 + trial % 4
            total = rng.choice((2, 3, 4, 6))
            den = rng.choice((3, 5))
            rows = [tuple(v / den for v in row) for row in random_rows(rng, n, total=total * den)]
            inst, truth = make_instance(rows, total=total)
            step = F(rng.choice([s for s in (1, 2, 3) if total % s == 0]))
            grid = _prepare_search(inst, truth, step)
            agent, other = rng.choice(inst.agent_ids), rng.choice(inst.agent_ids)
            a = inst.agent_index(agent)
            for objective in [
                MinimizeCoalitionPayments((agent,)),
                MaximizeTrueUtility(rng.choice(inst.agent_ids)),
                ExcludeFromRooms((other,), (rng.choice(inst.room_ids),)),
                SubsidizeAgent(other, rng.choice(inst.room_ids), F(rng.randint(0, 8 * den), den)),
            ]:
                got = _best_response(inst, objective, grid, grid.truth, a)
                want = _oracle_best_response(inst, objective, grid, grid.truth, a)
                assert got == want, (rows, agent, objective, step)
                kinds.add(type(objective))
            sizes.add(n)
            steps.add(step)
            units.add(grid.unit)
        assert len(kinds) == 4
        assert sizes == {2, 3, 4, 5}
        assert steps == {1, 2, 3}
        assert {3, 5, 6, 9, 10, 15} <= units

    @pytest.mark.parametrize(
        "objective",
        [ExcludeFromRooms(("B",), ("R1",)), SubsidizeAgent("B", "R2", 1000)],
        ids=["exclude", "subsidize"],
    )
    def test_wide_grid_beats_enumeration(self, objective):
        # 501,501 rows, most of them optimal for these predicates: finding
        # the first must still cost less than scoring them all.
        inst, truth = make_instance([(334, 333, 333)] * 3, total=1000)
        grid = _prepare_search(inst, truth, F(1))
        start = time.perf_counter()
        got = _best_response(inst, objective, grid, grid.truth, 0)
        search = time.perf_counter() - start
        start = time.perf_counter()
        want = _oracle_best_response(inst, objective, grid, grid.truth, 0)
        enumeration = time.perf_counter() - start
        assert got == want
        assert search < enumeration

# (entry point called on the baseline's (instance, truth), the message it
# must raise as a ValueError)
UNKNOWN_LABELS = {
    "coalition_search": (
        lambda inst, truth: coalition_search(
            inst, truth, ("D", "Z"), MinimizeCoalitionPayments(("D",))
        ),
        "coalition references unknown labels: ['Z']",
    ),
    "template_flatten": (
        lambda inst, truth: template_flatten(inst, truth, ["A"], {"A": "R9"}),
        "template references unknown labels: ['R9']",
    ),
    "template_defensive": (
        lambda inst, truth: template_defensive(inst, truth, ["A"], {}),
        "contested rooms missing for A",
    ),
    "template_exclusionary": (
        lambda inst, truth: template_exclusionary(inst, truth, ["Z"], ["R1"], ["R4", "R5"]),
        "template references unknown labels: ['Z']",
    ),
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_LABELS))
def test_unknown_labels_are_named(baseline, entry):
    call, message = UNKNOWN_LABELS[entry]
    with pytest.raises(ValueError) as exc:
        call(*baseline)
    assert str(exc.value) == message


# Entry points called on the baseline's (instance, truth) and an objective.
OBJECTIVE_ENTRIES = {
    "evaluate_deviation": lambda inst, truth, o: evaluate_deviation(inst, truth, truth, o),
    "coalition_search": lambda inst, truth, o: coalition_search(inst, truth, ("D",), o),
}


@pytest.mark.parametrize("entry", sorted(OBJECTIVE_ENTRIES))
def test_unknown_objective_is_a_type_error(baseline, entry):
    objective = ("min-pay", "D")
    with pytest.raises(TypeError) as exc:
        OBJECTIVE_ENTRIES[entry](*baseline, objective)
    assert str(exc.value) == f"unknown objective {objective!r}"


class TestSearch:
    def test_budget_guard(self, baseline):
        # The budget caps n**3 * rent/step: 8,000 steps per row for five
        # agents, so rent 36 allows step 36/8000 and refuses step 36/8001.
        inst, truth = baseline
        assert _prepare_search(inst, truth, F(36, 8000)).steps == 8000
        with pytest.raises(SearchSpaceTooLarge) as ei:
            _prepare_search(inst, truth, F(36, 8001))
        assert (ei.value.n, ei.value.budget, ei.value.max_steps) == (5, 10**6, 8000)
        with pytest.raises(SearchSpaceTooLarge):
            coalition_search(
                inst, truth, ("A",), MinimizeCoalitionPayments(("A",)), step=F(1, 1000)
            )

    def test_eight_agents_at_step_one(self):
        # C(43, 7) = 3.2 * 10**7 rows, over the old budget of 10**7 rows;
        # the work, n**3 * 36 = 18,432, is far under this one.
        rng = random.Random(8)
        inst, truth = make_instance(random_rows(rng, 8, total=36))
        reported, value, _ = coalition_search(
            inst, truth, ("D",), MinimizeCoalitionPayments(("D",))
        )
        assert value == solve(inst, reported).payment_of("D")
        assert value <= solve(inst, truth).payment_of("D")

    def test_baseline_at_step_one_hundredth(self, baseline):
        # 7.0 * 10**12 rows at step 1/100, n**3 * 3600 = 450,000 steps of work.
        inst, truth = baseline
        objective = MinimizeCoalitionPayments(("A",))
        reported, value, _ = coalition_search(inst, truth, ("A",), objective, step=F(1, 100))
        assert reported.row(0) == (F(701, 100), 10, F(899, 100), 6, 4)
        assert value == F(17, 5)

    def test_step_must_divide_rent(self, baseline):
        inst, truth = baseline
        with pytest.raises(ValueError):
            coalition_search(inst, truth, ("A",), MinimizeCoalitionPayments(("A",)), step=F(7))

    def test_truth_in_candidate_set(self):
        # Small instance, step 1: exhaustive search can never do worse than
        # honesty because honesty is one of the enumerated rows.
        inst, truth = make_instance([(4, 1, 1), (1, 4, 1), (1, 1, 4)], total=6)
        honest = solve(inst, truth)
        for agent in inst.agent_ids:
            reported, value, _ = coalition_search(
                inst, truth, (agent,), MinimizeCoalitionPayments((agent,)), step=F(1)
            )
            assert sum(reported.row(inst.agent_index(agent))) == inst.total_rent
            assert value <= honest.payment_of(agent)

    def test_single_agent_can_cut_own_payment(self, baseline):
        inst, truth = baseline
        honest = solve(inst, truth)
        _, value, _ = coalition_search(
            inst, truth, ("A",), MinimizeCoalitionPayments(("A",)), step=F(1)
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
        objective = MinimizeCoalitionPayments(("A",))
        _, value, _ = coalition_search(inst, truth, ("A",), objective, step=F(1, 2))
        assert value == F(17, 5)
        reported, value, _ = coalition_search(inst, truth, ("A",), objective, step=F(3))
        assert reported.row(0) == (0, 0, 0, 18, 18)
        assert value == 5

    def test_stops_once_every_member_is_settled(self, baseline, monkeypatch):
        # A best response reads only the other rows, so the search stops as
        # soon as each member's row answers the others' current rows.
        inst, truth = baseline
        calls = []
        real = manipulation._best_response

        def counted(*args):
            calls.append(inst.agent_ids[args[4]])
            return real(*args)

        monkeypatch.setattr(manipulation, "_best_response", counted)
        _, _, converged = coalition_search(inst, truth, ("C",), MinimizeCoalitionPayments(("C",)))
        assert converged
        assert calls == ["C"]
        calls.clear()
        objective = MinimizeCoalitionPayments(("D", "E"))
        reported, value, converged = coalition_search(inst, truth, ("D", "E"), objective)
        assert calls == ["D", "E", "D"]
        assert reported.row(3) == (0, 12, 10, 7, 7)
        assert reported.row(4) == (0, 0, 15, 10, 11)
        assert reported.values[:3] == truth.values[:3]
        assert (value, converged) == (F(62, 5), True)

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
        # Any iterable names the members, a one-shot generator too.
        members = (a for a in ("A", "B"))
        assert coalition_search(inst, truth, members, objective) == (reported, value, converged)


def _one_of_each_kind(inst, agent, other):
    """One objective of each of the four kinds, min-pay for one member and
    for two, for a search by `agent`."""
    return [
        MinimizeCoalitionPayments((agent,)),
        MinimizeCoalitionPayments((agent, other)),
        MaximizeTrueUtility(agent),
        ExcludeFromRooms((other,), (inst.room_ids[0],)),
        SubsidizeAgent(other, inst.room_ids[-1], F(1)),
    ]


class TestSearchOutcome:
    """The outcome the search builds from its winning candidate is the
    mechanism's outcome on the reports it returns, and its honest outcome,
    priced on its own integer form, is the mechanism's outcome on the truth:
    equal as Outcomes, so in assignment, prices, utilities, welfare and
    min_utility."""

    @staticmethod
    def search(inst, truth, coalition, objective, step=F(1)):
        reported, converged, honest, outcome = manipulation._coalition_search(
            inst, truth, coalition, objective, step
        )
        assert honest == solve(inst, truth)
        assert outcome == solve(inst, reported)
        value = objective.value(inst, truth, outcome)
        assert coalition_search(inst, truth, coalition, objective, step) == (
            reported, value, converged
        )
        return converged

    def test_random_tie_heavy_instances(self):
        rng = random.Random(9)
        for trial in range(20):
            n = 2 + trial % 4
            inst, truth = make_instance(random_rows(rng, n, total=rng.choice((4, 6))))
            agent, other = rng.sample(inst.agent_ids, 2)
            step = F(1, 1 + trial % 2)
            for objective in _one_of_each_kind(inst, agent, other):
                coalition = getattr(objective, "coalition", None) or (agent,)
                self.search(inst, truth, coalition, objective, step)
                if trial % 3 == 0:
                    self.search(inst, truth, (agent, other), objective, step)

    def test_builtins(self):
        for sc in builtin_scenarios():
            inst, truth = sc.instance, sc.truth()
            agents = inst.agent_ids
            for k, agent in enumerate(agents):
                other = agents[(k + 1) % len(agents)]
                objective = _one_of_each_kind(inst, agent, other)[k % 5]
                coalition = getattr(objective, "coalition", None) or (agent,)
                self.search(inst, truth, coalition, objective)

    def test_fractional_truth(self):
        # scale 2: the payments are numerators over n * scale = 6.
        inst, truth = make_instance(
            [(F(5, 2), F(1, 2), 1), (1, F(5, 2), F(1, 2)), (F(3, 2), F(3, 2), 1)]
        )
        for objective in _one_of_each_kind(inst, "A", "C"):
            self.search(inst, truth, ("A",), objective, F(1, 2))
            self.search(inst, truth, ("A", "C"), objective, F(1, 2))

    @needs_numpy
    def test_mixed_denominators(self):
        # Rent 73/2 and values in eighths: one scale makes the truth, the
        # grid and the rent integral.  Step 1/4 leaves it at 8; step 73/6
        # folds in a 3 the values lack, so the scale is 24.
        rows = [
            (F(100, 8), F(97, 8), F(95, 8)),
            (F(73, 8), F(120, 8), F(99, 8)),
            (F(91, 8), F(91, 8), F(110, 8)),
        ]
        inst, truth = make_instance(rows, total=F(73, 2))
        for step, form in [(F(1, 4), (8, 2, 146, 292)), (F(73, 6), (24, 292, 3, 876))]:
            grid = _prepare_search(inst, truth, step)
            assert (grid.scale, grid.unit, grid.steps, grid.rent) == form
            for objective in _one_of_each_kind(inst, "B", "C"):
                self.search(inst, truth, ("B",), objective, step)
                got = _best_response(inst, objective, grid, grid.truth, 1)
                assert got == _oracle_best_response(inst, objective, grid, grid.truth, 1)

    def test_one_payment_formula(self, baseline, monkeypatch):
        # maximin_prices' closed form and the search kernel price with the
        # same function.
        calls = []
        real = pricing.payment_numerators

        def counted(d, rent):
            calls.append(len(d))
            return real(d, rent)

        monkeypatch.setattr(pricing, "payment_numerators", counted)
        inst, truth = baseline
        solve(inst, truth)  # every chain is 0: the closed form
        assert calls == [5]
        calls.clear()
        self.search(inst, truth, ("A",), MinimizeCoalitionPayments(("A",)))
        assert len(calls) > 1

    def test_exact_integer_fallback(self):
        # Past the int64 bound the kernel's arrays hold Python integers.
        r = 4 * 10**18
        inst, truth = make_instance([(r, 0, 0), (0, r, 0), (0, 0, r)])
        objective = MinimizeCoalitionPayments(("A", "B"))
        self.search(inst, truth, ("A", "B"), objective, F(r, 4))

    def test_unconverged_search(self, baseline, monkeypatch):
        # (D, E) needs a third best response to settle; one round stops
        # after E's, with the outcome of the rows in place then.
        monkeypatch.setattr(manipulation, "MAX_ROUNDS", 1)
        calls = []
        real = manipulation._best_response

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(manipulation, "_best_response", counted)
        inst, truth = baseline
        objective = MinimizeCoalitionPayments(("D", "E"))
        assert not self.search(inst, truth, ("D", "E"), objective)
        # The budget bounds one best response; a k-member search runs at
        # most MAX_ROUNDS * k of them.  ``search`` runs it twice, through
        # ``_coalition_search`` and through ``coalition_search``.
        assert calls == [3, 4] * 2
