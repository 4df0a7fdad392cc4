"""Envy-free maximin pricing: simplex route, Fourier-Motzkin oracle, leximin,
envy-chain closure."""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import make_instance, random_rows
from rentdiv import matching, pricing
from rentdiv.matching import max_welfare_assignment
from rentdiv.model import (
    Assignment,
    Instance,
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
    fm_feasible,
    min_utility_feasible,
)
from rentdiv.pricing import (
    EQ,
    LE,
    LinearProgram,
    NotWelfareMaximizing,
    _leximin_utilities,
    _maximin_level,
    _maximin_lp,
    _tight_envy,
    envy_closure,
    envy_matrix,
    integer_form,
    is_envy_free,
    maximin_level,
    maximin_prices,
    simplex_solve,
    solve,
)

F = Fraction


def _meets(rows, x):
    """Whether x satisfies every (coeffs, relation, rhs) row exactly."""
    for coeffs, rel, rhs in rows:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if (lhs > rhs) if rel == LE else (lhs != rhs):
            return False
    return True


def _solve_square(a, b):
    """The unique x with a.x = b by Gaussian elimination over Fractions, or
    None when the square system is singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _nonnegativity(lp):
    nv = len(lp.objective)
    return [
        ([F(-1) if k == j else F(0) for k in range(nv)], LE, F(0))
        for j in range(nv)
        if not lp.free[j]
    ]


def _vertex_optimum(lp):
    """(status, optimal value) of a bounded LP by exact vertex enumeration:
    each n-subset of its constraints, all tight, solved and kept when it
    meets every constraint.  A nonempty bounded polytope has a vertex, so no
    vertex means infeasible."""
    cons = list(lp.rows) + _nonnegativity(lp)
    best = None
    for subset in itertools.combinations(cons, len(lp.objective)):
        x = _solve_square([c for c, _, _ in subset], [b for _, _, b in subset])
        if x is not None and _meets(cons, x):
            value = sum(c * v for c, v in zip(lp.objective, x))
            best = value if best is None else max(best, value)
    return ("infeasible", None) if best is None else ("optimal", best)


def _random_boxed_lp(rng, free_share=0.5):
    """1-3 variables, each free with probability ``free_share``, else
    nonnegative; 1-4 random '<=' or '==' rows with right-hand sides of both
    signs, zero and fractions; every variable boxed by |x_j| <= B."""
    amounts = [F(k) for k in range(-3, 4)] + [F(1, 2), F(-3, 2), F(2, 3), F(-5, 3)]
    nv = rng.randint(1, 3)
    rows = [
        ([rng.choice(amounts) for _ in range(nv)], rng.choice([LE, EQ]), rng.choice(amounts))
        for _ in range(rng.randint(1, 4))
    ]
    bound = rng.choice([F(1), F(2), F(7, 2)])
    for j in range(nv):
        for sign in (1, -1):
            rows.append(([F(sign) if k == j else F(0) for k in range(nv)], LE, bound))
    return LinearProgram(
        objective=[rng.choice(amounts) for _ in range(nv)],
        rows=rows,
        free=[rng.random() < free_share for _ in range(nv)],
    )


def _tableau_width(lp):
    """nv + slacks + artificials + 1: one column per variable, a slack per
    '<=' row, an artificial per equality and per '<=' row with b < 0, and
    the right-hand side."""
    slacks = sum(rel == LE for _, rel, _ in lp.rows)
    artificials = sum(rel == EQ or b < 0 for _, rel, b in lp.rows)
    return len(lp.objective) + slacks + artificials + 1


@pytest.fixture
def pivots(monkeypatch):
    """(tableau width, pivot column) of every ``pricing._pivot`` call."""
    seen = []
    real = pricing._pivot

    def counted(tableau, basis, row, col):
        seen.append((len(tableau[0]), col))
        return real(tableau, basis, row, col)

    monkeypatch.setattr(pricing, "_pivot", counted)
    return seen


def _level_and_chains(inst, mat, assignment):
    """(t*, [m_i]) as Fractions, from the integer form of ``_maximin_level``."""
    (scale, _, _), _, _, level, chains = _maximin_level(inst, mat, assignment)
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

    def test_agrees_with_vertex_enumeration(self):
        rng = random.Random(2016)
        statuses = []
        for _ in range(400):
            lp = _random_boxed_lp(rng)
            status, value = _vertex_optimum(lp)
            res = simplex_solve(lp)
            assert res.status == status
            if status == "optimal":
                assert res.objective_value == value
                assert _meets(lp.rows + _nonnegativity(lp), res.x)
            statuses.append(status)
        # Both kinds of answer are exercised.
        assert {"optimal", "infeasible"} <= set(statuses)

    def test_all_free_agrees_with_vertex_enumeration(self):
        # One column per free variable: it enters rising or, negated, falling,
        # and a row whose basic variable is free never leaves.
        rng = random.Random(2030)
        statuses = []
        for _ in range(300):
            lp = _random_boxed_lp(rng, free_share=1)
            assert all(lp.free)
            status, value = _vertex_optimum(lp)
            res = simplex_solve(lp)
            assert res.status == status
            if status == "optimal":
                assert res.objective_value == value
                assert _meets(lp.rows, res.x)
            statuses.append(status)
        assert {"optimal", "infeasible"} <= set(statuses)
        assert sum(s == "optimal" for s in statuses) > 100

    @pytest.mark.parametrize(
        "objective, status",
        [([F(1), F(0)], "optimal"), ([F(1), F(1)], "unbounded"), ([F(1), F(-2)], "unbounded")],
    )
    def test_free_variable_in_no_row(self, objective, status):
        # Like t in every freeze probe: a free column of zeros reads 0 when
        # the objective ignores it, and is unbounded either way when it counts.
        rows = [([F(1), F(0)], LE, F(3))]
        lp = LinearProgram(objective=objective, rows=rows, free=[False, True])
        res = simplex_solve(lp)
        assert res.status == status
        if status == "optimal":
            assert (res.x, res.objective_value) == ([F(3), F(0)], F(3))

    @pytest.mark.parametrize(
        "objective, rows, x",
        [
            # Phase 1 drives x negative to meet the equality; phase 2 keeps it.
            ([F(0), F(-1)], [([F(1), F(1)], EQ, F(-4)), ([F(0), F(1)], LE, F(2))], [F(-4), F(0)]),
            # The slack basis is feasible at the origin; phase 2 lowers x.
            ([F(-1), F(0)], [([F(-1), F(-1)], LE, F(3)), ([F(0), F(1)], LE, F(2))], [F(-5), F(2)]),
        ],
    )
    def test_free_variable_with_negative_optimum(self, objective, rows, x):
        lp = LinearProgram(objective=objective, rows=rows, free=[True, False])
        res = simplex_solve(lp)
        value = sum(c * v for c, v in zip(objective, x))
        assert (res.status, res.x, res.objective_value) == ("optimal", x, value)
        assert _vertex_optimum(lp) == ("optimal", value)

    def test_one_column_per_variable(self, pivots):
        # No (+, -) split: every tableau is nv + slacks + artificials + 1
        # wide, and every pivot column lies left of the right-hand side.
        rng = random.Random(2031)
        lps = [_random_boxed_lp(rng, free_share) for free_share in (0, 0.5, 1) for _ in range(60)]
        inst, mat = make_instance(TestNonnegativePrices.ROWS, total=36)
        assignment = max_welfare_assignment(inst, mat).assignment
        (_, rows, rent), sigma, closed, _, _ = _maximin_level(inst, mat, assignment)
        envy = _tight_envy(rows, sigma, closed)
        for nonnegative_prices in (False, True):
            for agent in (None, 0, 1, 2):
                floors = [None] * 3 if agent is None else [F(17, 3)] * 3
                lps.append(_maximin_lp(rows, rent, sigma, envy, floors, nonnegative_prices, agent))
        total = 0
        for lp in lps:
            del pivots[:]
            simplex_solve(lp)
            width = _tableau_width(lp)
            assert all(w == width and col < width - 1 for w, col in pivots)
            total += len(pivots)
        assert total > 200

    @pytest.mark.parametrize(
        "rows, value, x",
        [
            # A redundant all-zero equality: its artificial stays basic at 0.
            (
                [([F(1), F(0)], LE, F(2)), ([F(0), F(1)], LE, F(3)), ([F(0), F(0)], EQ, F(0))],
                F(8),
                [F(2), F(3)],
            ),
            # Only the negated '<=' row and the equality need an artificial;
            # the first row starts on its slack.
            (
                [([F(1), F(1)], LE, F(4)), ([F(-1), F(0)], LE, F(-1)), ([F(1), F(-1)], EQ, F(0))],
                F(6),
                [F(2), F(2)],
            ),
        ],
    )
    def test_mixed_starting_basis(self, rows, value, x):
        lp = LinearProgram(objective=[F(1), F(2)], rows=rows, free=[False, False])
        res = simplex_solve(lp)
        assert (res.status, res.objective_value, res.x) == ("optimal", value, x)
        assert _vertex_optimum(lp) == ("optimal", value)

    def test_slack_start_needs_no_pivot(self, pivots):
        # '<=' rows with b >= 0 start feasible on their slacks, so an LP whose
        # optimum is the origin is solved without a single pivot.
        lp = LinearProgram(
            objective=[F(-1), F(-1)],
            rows=[([F(1), F(1)], LE, F(3)), ([F(1), F(-2)], LE, F(0))],
            free=[False, False],
        )
        res = simplex_solve(lp)
        assert (res.status, res.x, res.objective_value) == ("optimal", [F(0), F(0)], F(0))
        assert pivots == []


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
        # n = 30 in fifths, so the integer form's scale is 5: the refusal
        # names the same optimum in a fraction of the tie-break's time.
        n = 30
        rows = [[v / 5 for v in row] for row in random_rows(random.Random(30), n, 10 * n)]
        agents = tuple(f"A{i}" for i in range(n))
        inst = Instance(tuple(f"R{j}" for j in range(n)), agents, Fraction(2 * n))
        mat = ValuationMatrix.from_rows(rows)
        identity = Assignment({a: f"R{i}" for i, a in enumerate(agents)})
        welfare = sum(row[i] for i, row in enumerate(rows))
        best = max_welfare_assignment(inst, mat).welfare
        assert welfare < best and best.denominator == 5
        start = time.perf_counter()
        with pytest.raises(NotWelfareMaximizing) as refused:
            maximin_prices(inst, mat, identity)
        assert time.perf_counter() - start < 0.5
        assert str(refused.value) == f"assignment welfare {welfare} < optimum {best}"

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
        (scale, rows, rent), perm, closed, _, _ = _maximin_level(inst, mat, sigma)
        by_lp = _leximin_utilities(rows, rent, perm, closed, nonnegative_prices=False)
        assert {u / scale for u in by_lp} == {F(4, 5)}
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
            (scale, rows, rent), perm, closed, _, _ = _maximin_level(inst, mat, sigma)
            by_lp = _leximin_utilities(rows, rent, perm, closed, nonnegative_prices=False)
            assert [u / scale for u in by_lp] == [level + m for m in chains]
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


class TestTightEnvyRows:
    """The leximin LP carries only the envy rows that are tight on the
    closure; the rest are implied by chains of tight ones.  Held against the
    LP over all n*(n-1) envy rows, on tie-heavy houses."""

    @staticmethod
    def houses():
        rng = random.Random(29)
        for trial in range(24):
            n = 2 + trial % 6
            yield make_instance(random_rows(rng, n, total=rng.choice((6, 36))))
        # Rows in halves, thirds and fifths (an integer form of scale 30),
        # with three positive chains.
        rng = random.Random(0)
        rows = [[v / d for v in random_rows(rng, 4, 12 * d)[0]] for d in (2, 3, 5, 2)]
        yield make_instance(rows, total=12)

    def test_kept_rows_have_the_optima_of_all_rows(self):
        rng = random.Random(2029)
        dropped = probed = 0
        for inst, mat in self.houses():
            n = inst.n
            assignment = max_welfare_assignment(inst, mat).assignment
            (_, rows, rent), sigma, closed, level, _ = _maximin_level(inst, mat, assignment)
            every = [(i, j) for i in range(n) for j in range(n) if j != sigma[i]]
            kept = _tight_envy(rows, sigma, closed)
            assert set(kept) <= set(every)
            rest = [pair for pair in every if pair not in kept]
            dropped += len(rest)
            for nonnegative_prices in (False, True):
                # Floors within 3/n of t* (level is n*t*), some of them
                # above what the envy-free prices allow.
                floors = [
                    None if rng.random() < 0.4 else F(level + rng.randint(-3, 3), n)
                    for _ in range(n)
                ]
                for agent in (None, *range(n)):
                    args = (floors, nonnegative_prices, agent)
                    tight = simplex_solve(_maximin_lp(rows, rent, sigma, kept, *args))
                    full = simplex_solve(_maximin_lp(rows, rent, sigma, every, *args))
                    assert tight.status == full.status
                    if tight.status != "optimal":
                        continue
                    probed += 1
                    assert tight.objective_value == full.objective_value
                    x = tight.x
                    for i, j in rest:
                        assert x[sigma[i]] - x[j] <= rows[i][sigma[i]] - rows[i][j]
        assert dropped > 100 and probed > 100

    @staticmethod
    def lp_house():
        from rentdiv.scenarios import builtin_scenario

        sc = builtin_scenario("exclusionary-collusion")
        return sc.instance, sc.reported_matrix

    @pytest.mark.parametrize("nonnegative_prices", [False, True])
    def test_one_closure_per_priced_assignment(self, monkeypatch, nonnegative_prices):
        # The LP route picks its tight rows from the closure that checked
        # the assignment and gave the chains.
        inst, mat = self.lp_house()
        assignment = max_welfare_assignment(inst, mat).assignment
        assert any(_level_and_chains(inst, mat, assignment)[1])  # the LP route
        closures = []
        real = pricing.envy_closure
        monkeypatch.setattr(pricing, "envy_closure", lambda d: closures.append(d) or real(d))
        solve(inst, mat, nonnegative_prices)
        assert len(closures) == 1

    @pytest.mark.parametrize("nonnegative_prices", [False, True])
    def test_leximin_lps_carry_the_tight_closure_edges(self, monkeypatch, nonnegative_prices):
        inst, mat = self.lp_house()
        n = inst.n
        sigma = max_welfare_assignment(inst, mat).assignment.to_indices(inst)
        _, rows, _ = integer_form(mat.values, inst.total_rent)
        d = envy_matrix(rows, sigma)
        closed = envy_closure(d)
        tight = {
            (sigma[i], sigma[k])
            for i in range(n)
            for k in range(n)
            if i != k and d[i][k] == closed[i][k]
        }
        assert len(tight) < n * (n - 1)
        seen = []
        real = pricing.simplex_solve

        def recording(lp):
            seen.append(lp)
            return real(lp)

        monkeypatch.setattr(pricing, "simplex_solve", recording)
        solve(inst, mat, nonnegative_prices)
        assert seen
        for lp in seen:
            envy = {
                (coeffs.index(1), coeffs.index(-1))
                for coeffs, _, _ in lp.rows
                if 1 in coeffs[:n] and -1 in coeffs[:n]
            }
            assert envy == tight
            assert len(lp.rows) == len(tight) + 1 + n


class TestPriceFloorAsSign:
    """Under the price floor, ``_maximin_lp`` makes the prices nonnegative
    variables instead of adding n rows -p_j <= 0."""

    def test_prices_are_not_free_under_the_floor(self):
        inst, mat = make_instance(TestNonnegativePrices.ROWS, total=36)
        n = inst.n
        assignment = max_welfare_assignment(inst, mat).assignment
        (_, rows, rent), sigma, closed, _, _ = _maximin_level(inst, mat, assignment)
        envy = _tight_envy(rows, sigma, closed)
        levels = {}
        for nonnegative_prices in (False, True):
            for floors, agent in (([None] * n, None), ([F(0)] * n, 0)):
                lp = _maximin_lp(rows, rent, sigma, envy, floors, nonnegative_prices, agent)
                assert lp.free == [not nonnegative_prices] * n + [True]
                assert len(lp.rows) == len(envy) + 1 + n
            lp = _maximin_lp(rows, rent, sigma, envy, [None] * n, nonnegative_prices)
            res = simplex_solve(lp)
            levels[nonnegative_prices] = res.objective_value
            assert (min(res.x[:n]) >= 0) == nonnegative_prices
        # Without the floor A's room costs -17/3; with it the level falls to 0.
        assert levels == {False: F(17, 3), True: F(0)}

    def test_same_optima_as_floor_rows(self):
        # The same LP with free prices and the n rows -p_j <= 0 has the same
        # status and optimal value, for rounds and probes at random floors.
        rng = random.Random(2032)
        statuses = []
        for inst, mat in TestTightEnvyRows.houses():
            n = inst.n
            assignment = max_welfare_assignment(inst, mat).assignment
            (_, rows, rent), sigma, closed, level, _ = _maximin_level(inst, mat, assignment)
            envy = _tight_envy(rows, sigma, closed)
            floors = [
                None if rng.random() < 0.4 else F(level + rng.randint(-3, 3), n) for _ in range(n)
            ]
            for agent in (None, *range(n)):
                lp = _maximin_lp(rows, rent, sigma, envy, floors, True, agent)
                signed = _maximin_lp(rows, rent, sigma, envy, floors, False, agent)
                for j in range(n):
                    signed.rows.append(([-1 if k == j else 0 for k in range(n + 1)], LE, 0))
                by_sign, by_rows = simplex_solve(lp), simplex_solve(signed)
                assert by_sign.status == by_rows.status
                statuses.append(by_sign.status)
                if by_sign.status == "optimal":
                    assert by_sign.objective_value == by_rows.objective_value
                    assert min(by_sign.x[:n]) >= 0
        assert statuses.count("optimal") > 40 and statuses.count("infeasible") > 40


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


class TestLpRouteDigest:
    """``solve`` on seeded random houses, each with and without the price
    floor, hashed: the assignment and the exact prices, or the refusal.  A
    change to the simplex or the leximin loop that moves any answer updates
    the digest deliberately."""

    DIGEST = "817098beaf933ad5cd6712fa6de045060bea7d897f0bed3b67b652a05829b58a"

    @staticmethod
    def answers():
        rng = random.Random(30)
        for house in range(72):
            n = 2 + house % 5
            rent = n * rng.choice((1, 2, 5))  # small rents: ties are common
            if house % 3 == 2:
                rows = [[v / 3 for v in row] for row in random_rows(rng, n, 3 * rent)]
            else:
                rows = random_rows(rng, n, rent)
            inst, mat = make_instance(rows, total=rent)
            for nonnegative_prices in (False, True):
                try:
                    out = solve(inst, mat, nonnegative_prices=nonnegative_prices)
                except RentDivisionError as refused:
                    yield f"refused: {refused}"
                else:
                    prices = " ".join(map(str, out.prices.as_list(inst)))
                    yield f"{out.assignment.to_indices(inst)} {prices}"

    def test_answers_match_the_digest(self):
        start = time.perf_counter()
        answers = list(self.answers())
        assert time.perf_counter() - start < 5
        assert sum(a.startswith("refused") for a in answers) > 1
        digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
        assert digest == self.DIGEST


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
