"""Envy-free maximin pricing: simplex route, Fourier-Motzkin oracle, leximin,
envy-chain closure."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import make_instance, random_rows
from rentdiv import matching, pricing
from rentdiv.matching import max_welfare_assignment
from rentdiv.model import (
    Assignment,
    PriceVector,
    RentDivisionError,
    ValidationError,
    ValuationMatrix,
    parse_money,
    validate_instance,
)
from rentdiv.oracles import (
    CERTIFICATE_EPSILON,
    FM_VARIABLE_LIMIT,
    TooManyVariables,
    all_optimal_assignments,
    brute_force_assignment,
    ef_constraint_system,
    fm_feasible,
    min_utility_feasible,
    with_min_utility,
)
from rentdiv.pricing import (
    EQ,
    LE,
    LinearProgram,
    NotWelfareMaximizing,
    _leximin_utilities,
    _maximin_level,
    envy_closure,
    envy_matrix,
    is_envy_free,
    maximin_level,
    maximin_prices,
    simplex_solve,
    solve,
)

F = Fraction


def _level_and_chains(inst, mat, assignment):
    """(t*, [m_i]) as Fractions, from the integer form of ``_maximin_level``."""
    (scale, _, _), _, level, chains = _maximin_level(inst, mat, assignment)
    return F(level, inst.n * scale), [F(m, scale) for m in chains]


class TestSimplex:
    def test_bounded_optimum(self):
        lp = LinearProgram(
            objective=[F(1), F(1)],
            rows=[([F(1), F(0)], LE, F(2)), ([F(0), F(1)], LE, F(3))],
            free=[False, False],
        )
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.objective_value == F(5)
        assert res.x == [F(2), F(3)]

    def test_infeasible(self):
        lp = LinearProgram(
            objective=[F(0)],
            rows=[([F(1)], LE, F(-1))],
            free=[False],
        )
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(
            objective=[F(1)],
            rows=[([F(-1)], LE, F(0))],
            free=[False],
        )
        assert simplex_solve(lp).status == "unbounded"

    def test_equality_with_free_variable(self):
        lp = LinearProgram(
            objective=[F(-1)],
            rows=[([F(1)], EQ, F(-5))],
            free=[True],
        )
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.x == [F(-5)]
        assert res.objective_value == F(5)

    def test_exact_rational_pivoting(self):
        # Optimum at x = 1/3, y = 1/3: only exact arithmetic lands there.
        lp = LinearProgram(
            objective=[F(1), F(1)],
            rows=[
                ([F(2), F(1)], LE, F(1)),
                ([F(1), F(2)], LE, F(1)),
            ],
            free=[False, False],
        )
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert res.x == [F(1, 3), F(1, 3)]
        assert res.objective_value == F(2, 3)


class TestFourierMotzkin:
    def test_feasible_triangle(self):
        cons = (
            ((F(1), F(1)), LE, F(1)),
            ((F(-1), F(0)), LE, F(0)),
            ((F(0), F(-1)), LE, F(0)),
        )
        assert fm_feasible(cons, 2)

    def test_infeasible_pair(self):
        cons = (
            ((F(1),), LE, F(0)),
            ((F(-1),), LE, F(-1)),  # x >= 1 and x <= 0
        )
        assert not fm_feasible(cons, 1)

    def test_equality_expansion(self):
        cons = (
            ((F(1), F(1)), EQ, F(2)),
            ((F(1), F(0)), LE, F(3)),
        )
        assert fm_feasible(cons, 2)
        cons_bad = (
            ((F(1), F(1)), EQ, F(2)),
            ((F(1), F(1)), LE, F(1)),
        )
        assert not fm_feasible(cons_bad, 2)

    def test_variable_limit(self):
        k = FM_VARIABLE_LIMIT + 1
        cons = (((F(1),) * k, LE, F(0)),)
        with pytest.raises(TooManyVariables):
            fm_feasible(cons, k)

    def test_agrees_with_simplex_on_random_systems(self):
        # Independent-route check: FM elimination vs simplex phase 1 on the
        # same random inequality systems over free variables.
        rng = random.Random(99)
        for _ in range(120):
            nv = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [F(rng.randint(-3, 3)) for _ in range(nv)]
                rel = EQ if rng.random() < 0.25 else LE
                rows.append((tuple(coeffs), rel, F(rng.randint(-4, 4))))
            by_fm = fm_feasible(tuple(rows), nv)
            lp = LinearProgram(
                objective=[F(0)] * nv,
                rows=[(list(c), rel, rhs) for c, rel, rhs in rows],
                free=[True] * nv,
            )
            by_simplex = simplex_solve(lp).status != "infeasible"
            assert by_fm == by_simplex


class TestEnvyFreeness:
    def test_violations_reported_with_slack(self, baseline):
        inst, mat = baseline
        sigma = max_welfare_assignment(inst, mat).assignment
        uniform = PriceVector.from_list(inst, [F(36, 5)] * 5)
        violations = is_envy_free(inst, mat, sigma, uniform)
        assert violations
        # A sits in R5 with utility 5 - 7.2 = -2.2 but values R1 at 10,
        # so A envies R1 with slack (10 - 7.2) - (-2.2) = 5.
        assert ("A", "R1", F(5)) in violations

    def test_maximin_solution_is_envy_free(self, baseline):
        inst, mat = baseline
        sigma = max_welfare_assignment(inst, mat).assignment
        sol = maximin_prices(inst, mat, sigma)
        assert is_envy_free(inst, mat, sigma, sol.prices) == []

    def test_constraint_system_shape(self, baseline):
        inst, mat = baseline
        sigma = max_welfare_assignment(inst, mat).assignment
        sys_ = ef_constraint_system(inst, mat, sigma)
        assert sys_.n == 5
        assert len(sys_.constraints) == 5 * 4 + 1
        assert sum(1 for _, rel, _ in sys_.constraints if rel == EQ) == 1
        floored = with_min_utility(sys_, inst, mat, sigma, F(0))
        assert len(floored.constraints) == len(sys_.constraints) + 5


def _equal_split_prices(inst, mat, assignment):
    """Prices giving every agent (welfare - R)/n, envy-free or not."""
    sigma = assignment.to_indices(inst)
    share = (sum(mat.value(i, sigma[i]) for i in range(inst.n)) - inst.total_rent) / inst.n
    plist = [F(0)] * inst.n
    for i in range(inst.n):
        plist[sigma[i]] = mat.value(i, sigma[i]) - share
    return PriceVector.from_list(inst, plist)


class TestMaximin:
    def test_baseline_exact(self, baseline):
        inst, mat = baseline
        sigma = max_welfare_assignment(inst, mat).assignment
        sol = maximin_prices(inst, mat, sigma)
        assert sol.prices.as_list(inst) == tuple(
            parse_money(s) for s in ("9.20", "9.20", "8.20", "5.20", "4.20")
        )
        assert set(sol.utilities.values()) == {F(4, 5)}
        assert sol.min_utility == F(4, 5)

    def test_leximin_forces_unequal_utilities(self):
        # Three colluders sit far above the two victims; leximin pins the
        # surplus split at (5.8, 5.8, 5.8, 0.8, 0.8).
        from rentdiv.scenarios import builtin_scenario

        sc = builtin_scenario("exclusionary-collusion")
        out = solve(sc.instance, sc.reported_matrix)
        assert [out.utilities[a] for a in sc.instance.agent_ids] == [
            F(29, 5),
            F(29, 5),
            F(29, 5),
            F(4, 5),
            F(4, 5),
        ]

    def test_rejects_suboptimal_assignment(self, baseline):
        inst, mat = baseline
        bad = Assignment({"A": "R1", "B": "R2", "C": "R3", "D": "R4", "E": "R5"})
        with pytest.raises(NotWelfareMaximizing):
            maximin_prices(inst, mat, bad)

    def test_suboptimal_message_names_the_optimum(self, baseline):
        inst, mat = baseline
        bad = Assignment({"A": "R1", "B": "R2", "C": "R3", "D": "R4", "E": "R5"})
        best = max_welfare_assignment(inst, mat).welfare
        with pytest.raises(NotWelfareMaximizing, match=f"< optimum {best}$"):
            maximin_prices(inst, mat, bad)

    def test_prices_identical_across_tied_optima(self, baseline):
        inst, mat = baseline
        optima = all_optimal_assignments(inst, mat)
        assert len(optima) == 2
        vectors = {maximin_prices(inst, mat, a).prices.as_list(inst) for a in optima}
        assert len(vectors) == 1

    def test_equal_split_shortcut_matches_lp_route(self, baseline):
        inst, mat = baseline
        result = max_welfare_assignment(inst, mat)
        sigma = result.assignment
        # Every chain is 0, so maximin_prices takes the equal split.
        assert _level_and_chains(inst, mat, sigma)[1] == [0] * inst.n
        shortcut = _equal_split_prices(inst, mat, sigma)
        assert is_envy_free(inst, mat, sigma, shortcut) == []
        by_lp = _leximin_utilities(
            inst, mat, sigma.to_indices(inst), nonnegative_prices=False
        )
        assert set(by_lp) == {F(4, 5)}
        assert shortcut.as_list(inst) == maximin_prices(inst, mat, sigma).prices.as_list(
            inst
        )

    def test_equal_split_declines_when_not_envy_free(self):
        from rentdiv.scenarios import builtin_scenario

        sc = builtin_scenario("exclusionary-collusion")
        inst, mat = sc.instance, sc.reported_matrix
        result = max_welfare_assignment(inst, mat)
        sigma = result.assignment
        assert any(_level_and_chains(inst, mat, sigma)[1])
        assert is_envy_free(inst, mat, sigma, _equal_split_prices(inst, mat, sigma))

    def test_zero_chains_iff_equal_split_envy_free(self):
        rng = random.Random(4)
        zero = 0
        for trial in range(150):
            n = 2 + trial % 5
            inst, mat = make_instance(random_rows(rng, n, total=rng.choice((6, 36))))
            result = max_welfare_assignment(inst, mat)
            chains = _level_and_chains(inst, mat, result.assignment)[1]
            equal = _equal_split_prices(inst, mat, result.assignment)
            envy_free = is_envy_free(inst, mat, result.assignment, equal) == []
            assert envy_free == (not any(chains))
            sol = maximin_prices(inst, mat, result.assignment)
            assert is_envy_free(inst, mat, result.assignment, sol.prices) == []
            assert (sol.prices.as_list(inst) == equal.as_list(inst)) == envy_free
            zero += envy_free
        assert 10 < zero < 140


    def test_leximin_is_level_plus_chains(self):
        # Every envy-free u with minimum t* has u_i >= t* + m_i, and both
        # sides sum to W - R, so the maximin utilities are exactly t* + m:
        # the LP route must land there whenever some chain is positive.
        rng = random.Random(6)
        positive = 0
        for trial in range(60):
            n = 2 + trial % 6
            inst, mat = make_instance(random_rows(rng, n, total=rng.choice((6, 36))))
            sigma = max_welfare_assignment(inst, mat).assignment
            level, chains = _level_and_chains(inst, mat, sigma)
            if not any(chains):
                continue
            positive += 1
            by_lp = _leximin_utilities(
                inst, mat, sigma.to_indices(inst), nonnegative_prices=False
            )
            assert by_lp == [level + m for m in chains]
        assert positive > 15

    def test_maximin_prices_returns_the_solve_outcome(self):
        # Equal as Outcomes: assignment, prices, utilities, welfare and
        # min_utility, on tie-heavy instances that take both routes.
        rng = random.Random(8)
        routes = set()
        for trial in range(18):
            n = 2 + trial % 6
            inst, mat = make_instance(random_rows(rng, n, total=rng.choice((6, 36))))
            out = solve(inst, mat)
            assert maximin_prices(inst, mat, out.assignment) == out
            routes.add(any(_level_and_chains(inst, mat, out.assignment)[1]))
        assert routes == {False, True}


class TestValidateOnce:
    # Reports that break the input contract, each as the baseline's rows
    # with one change: a missing row, a short row, a negative value, a row
    # that misses the rent.
    INVALID = {
        "missing-row": lambda rows: rows[:-1],
        "short-row": lambda rows: [rows[0][:-1]] + rows[1:],
        "negative": lambda rows: [(-1, *rows[0][1:-1], rows[0][-1] + 1)] + rows[1:],
        "row-sum": lambda rows: [(rows[0][0] + 1, *rows[0][1:])] + rows[1:],
    }

    def test_solve_validates_once(self, baseline, monkeypatch):
        inst, mat = baseline
        calls = []

        def counted(*args):
            calls.append(args)
            return validate_instance(*args)

        for module in (matching, pricing):
            monkeypatch.setattr(module, "validate_instance", counted)
        out = solve(inst, mat)
        assert len(calls) == 1
        solve(inst, mat, nonnegative_prices=True)
        assert len(calls) == 2
        # The public pricing step still checks the reports it is given.
        assert maximin_prices(inst, mat, out.assignment) == out
        assert len(calls) == 3

    @pytest.mark.parametrize("change", sorted(INVALID))
    def test_invalid_reports_raise_the_contract_error(self, baseline, change):
        inst, mat = baseline
        bad = ValuationMatrix.from_rows(self.INVALID[change](list(mat.values)))
        with pytest.raises(ValidationError) as expected:
            validate_instance(inst, bad)
        honest = solve(inst, mat).assignment
        for call in (lambda: solve(inst, bad), lambda: maximin_prices(inst, bad, honest)):
            with pytest.raises(ValidationError) as got:
                call()
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)


class TestNonnegativePrices:
    # A = (18,18,0), B = (18,18,0), C = (35,1,0), R = 36: the canonical
    # optimum parks A on the worthless R3, whose unconstrained price is
    # negative (-17/3); clamping prices at zero costs surplus.
    ROWS = [(18, 18, 0), (18, 18, 0), (35, 1, 0)]

    def test_unconstrained_price_goes_negative(self):
        inst, mat = make_instance(self.ROWS, total=36)
        out = solve(inst, mat)
        assert out.assignment == Assignment({"A": "R3", "B": "R2", "C": "R1"})
        assert out.prices.as_list(inst) == (F(88, 3), F(37, 3), F(-17, 3))
        assert set(out.utilities.values()) == {F(17, 3)}

    def test_flag_clamps_at_zero(self):
        inst, mat = make_instance(self.ROWS, total=36)
        out = solve(inst, mat, nonnegative_prices=True)
        assert out.prices.as_list(inst) == (F(18), F(18), F(0))
        assert out.utilities == {"A": F(0), "B": F(0), "C": F(17)}
        assert out.min_utility == F(0)
        assert is_envy_free(inst, mat, out.assignment, out.prices) == []

    def test_no_nonnegative_envy_free_prices(self):
        # The 4th `contested` input of the benchmark's seed 1: every
        # envy-free price vector charges some room a negative price, so the
        # floor leaves no price vector to choose from.
        rows = [
            (44, 129, 140, 87, 188, 12),
            (12, 159, 31, 27, 281, 90),
            (237, 176, 111, 25, 8, 43),
            (275, 76, 8, 108, 120, 13),
            (5, 126, 259, 131, 36, 43),
            (57, 152, 225, 94, 42, 30),
        ]
        inst, mat = make_instance(rows, total=600)
        assert min(solve(inst, mat).prices.as_list(inst)) < 0
        with pytest.raises(RentDivisionError, match="no envy-free price vector is nonnegative"):
            solve(inst, mat, nonnegative_prices=True)

    def test_maximin_prices_returns_the_solve_outcome(self):
        inst, mat = make_instance(self.ROWS, total=36)
        out = solve(inst, mat, nonnegative_prices=True)
        assert maximin_prices(inst, mat, out.assignment, nonnegative_prices=True) == out


class TestCertificates:
    def test_baseline_optimum_certified(self, baseline):
        inst, mat = baseline
        out = solve(inst, mat)
        assert min_utility_feasible(inst, mat, out.assignment, out.min_utility)
        assert not min_utility_feasible(
            inst, mat, out.assignment, out.min_utility + CERTIFICATE_EPSILON
        )

    def test_random_instances_certified(self):
        rng = random.Random(31337)
        for _ in range(25):
            inst, mat = make_instance(random_rows(rng, 4))
            out = solve(inst, mat)
            assert sum(out.prices.as_list(inst)) == inst.total_rent
            assert is_envy_free(inst, mat, out.assignment, out.prices) == []
            assert min_utility_feasible(inst, mat, out.assignment, out.min_utility)
            assert not min_utility_feasible(
                inst, mat, out.assignment, out.min_utility + CERTIFICATE_EPSILON
            )

    def test_min_utility_never_exceeds_equal_share(self):
        rng = random.Random(4242)
        for _ in range(25):
            inst, mat = make_instance(random_rows(rng, 5))
            out = solve(inst, mat)
            share = (out.welfare - inst.total_rent) / inst.n
            assert out.min_utility <= share


class TestEnvyClosure:
    """The envy-chain closure against the LP route, the FM oracle and brute
    force.  Small rents make value ties, and so tied optima, common."""

    def test_level_equals_solver_min_utility(self):
        rng = random.Random(8191)
        for n in (2, 3, 4, 5, 6, 7):
            for _ in range({6: 12, 7: 3}.get(n, 25)):
                inst, mat = make_instance(random_rows(rng, n, total=2 * n))
                out = solve(inst, mat)
                assert maximin_level(inst, mat, out.assignment) == out.min_utility

    def test_level_on_fractional_values(self):
        # Rows with denominators 2, 3 and 5: the exact route closes the
        # values scaled to integers, the Fraction closure must agree.
        rng = random.Random(2029)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                rows = []
                for _ in range(n):
                    d = rng.choice((2, 3, 5))
                    rows.append([v / d for v in random_rows(rng, n, total=2 * n * d)[0]])
                inst, mat = make_instance(rows, total=2 * n)
                out = solve(inst, mat)
                closed = envy_closure(envy_matrix(mat.values, out.assignment.to_indices(inst)))
                chains = _level_and_chains(inst, mat, out.assignment)[1]
                assert chains == [max(row) for row in closed]
                assert maximin_level(inst, mat, out.assignment) == out.min_utility

    def test_level_same_on_every_optimal_assignment(self):
        rng = random.Random(524287)
        tied = 0
        for n in (2, 3, 4, 5, 6):
            for _ in range(25):
                inst, mat = make_instance(random_rows(rng, n, total=n + 1))
                optima = all_optimal_assignments(inst, mat)
                tied += len(optima) > 1
                assert len({maximin_level(inst, mat, sigma) for sigma in optima}) == 1
        assert tied > 25

    def test_level_certified_by_fourier_motzkin(self):
        rng = random.Random(127)
        for _ in range(10):
            inst, mat = make_instance(random_rows(rng, 4, total=8))
            sigma = max_welfare_assignment(inst, mat).assignment
            level = maximin_level(inst, mat, sigma)
            assert min_utility_feasible(inst, mat, sigma, level)
            assert not min_utility_feasible(
                inst, mat, sigma, level + CERTIFICATE_EPSILON
            )

    def test_no_positive_cycle_iff_welfare_maximizing(self):
        rng = random.Random(65537)
        for n in (2, 3, 4, 5, 6):
            for _ in range(80):
                inst, mat = make_instance(random_rows(rng, n, total=n + 2))
                perm = list(range(n))
                rng.shuffle(perm)
                sigma = Assignment.from_indices(inst, perm)
                closed = envy_closure(envy_matrix(mat.values, perm))
                no_positive = all(closed[i][i] <= 0 for i in range(n))
                welfare = sum(mat.value(i, perm[i]) for i in range(n))
                optimal = welfare == brute_force_assignment(inst, mat).welfare
                assert no_positive == optimal
                if not optimal:
                    with pytest.raises(NotWelfareMaximizing):
                        maximin_level(inst, mat, sigma)

    def test_closure_is_longest_path(self):
        # Brute-force heaviest simple chains on a graph with no positive cycle.
        inst, mat = make_instance([(24, 12, 0), (20, 10, 6), (4, 8, 24)])
        sigma = max_welfare_assignment(inst, mat).assignment
        d = envy_matrix(mat.values, sigma.to_indices(inst))
        closed = envy_closure(d)
        for i, j in itertools.permutations(range(3), 2):
            (k,) = {0, 1, 2} - {i, j}
            assert closed[i][j] == max(d[i][j], d[i][k] + d[k][j])
        assert [closed[i][i] for i in range(3)] == [0, 0, 0]
        assert [max(row) for row in closed] == [F(2), F(0), F(0)]
        assert maximin_level(inst, mat, sigma) == F(20, 3)
