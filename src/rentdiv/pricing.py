"""Envy-free maximin pricing over exact rationals.

Given a welfare-maximizing assignment, the envy-free price vectors form a
polytope: one budget equality plus n*(n-1) envy inequalities, of which the
leximin LP keeps only the tight ones (below).  The price vector returned here
maximizes the minimum utility and then applies a leximin refinement so the
result is canonical.

The exact routes run on one integer form per operation (``integer_form``):
the values and the rent scaled by their common denominator, and by a
misreport search's step.  ``Fraction``s are built once, with the ``Outcome``.

The envy graph gives both certificates in closed form.  Its edge i -> k
weighs v_i(room of k) - v_k(room of k); one Floyd-Warshall closure
(``envy_closure``) on the integer form yields m_i, the heaviest envy chain
leaving agent i.  The assignment is welfare-maximizing iff no envy cycle is
positive, and the largest minimum utility of any envy-free price vector is
t* = (W - R - sum(m))/n (``maximin_level``).  ``rentdiv verify`` certifies
maximin optimality with it.  The misreport search (``manipulation``) runs the
same closure once per room of the searching agent, and prices with the same
formula (``payment_numerators``).

``maximin_prices`` checks the assignment with its one closure, takes one of
two routes to the utilities on the integer form, and prices both the same
way, through ``payment_numerators``, into the mechanism's ``Outcome``:

- the closed form u_i = t* + m_i, when every m_i is 0 (the equal split of the
  surplus) and prices may be negative;
- otherwise the leximin LP (``_leximin_utilities``): two-phase simplex with
  Bland's rule, phase 1 started from the slack basis, maximizing the minimum
  utility and freezing forced agents.  Its envy rows are only the tight ones
  of the same closure, where the edge i -> k is itself a heaviest chain;
  every other envy row is implied by a chain of tight ones, so the optima
  are those of all n*(n-1).  The tableau has one column per variable: the
  free prices and level t enter rising or, negated in place, falling.  The
  price floor (``nonnegative_prices``) is the prices' sign, not n more rows.

``solve`` is ``maximin_prices`` on the canonical welfare-maximizing
assignment (``matching.max_welfare_assignment``).

A Fourier-Motzkin feasibility oracle (``min_utility_feasible``), sharing no
code with either, is a test-only cross-check; its names resolve only from
``rentdiv.oracles``, which no command imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import matching
from .model import (
    Assignment,
    Instance,
    Outcome,
    PriceVector,
    RentDivisionError,
    ValidationError,
    ValuationMatrix,
    abbreviate,
    build_outcome,
    compute_utilities,
    to_rational,
    validate_instance,
)

class NotWelfareMaximizing(RentDivisionError):
    """Envy-free prices only exist for welfare-maximizing assignments."""


# ---------------------------------------------------------------------------
# Linear programming: exact two-phase simplex with Bland's anti-cycling rule
# ---------------------------------------------------------------------------

LE = "<="
EQ = "=="


@dataclass
class LinearProgram:
    """maximize c.x subject to rows (coeffs, '<='|'==', rhs); free[i] marks
    unconstrained variables, others are >= 0."""

    objective: list
    rows: list  # list of (coeffs: list, relation: str, rhs)
    free: list  # list of bool, one per variable

    def __post_init__(self):
        nv = len(self.objective)
        if len(self.free) != nv:
            raise ValidationError("free flags must match variable count")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != nv:
                raise ValidationError("row width does not match variable count")
            if rel not in (LE, EQ):
                raise ValidationError(f"unknown relation {rel!r}")


@dataclass
class SimplexResult:
    status: str  # 'optimal' | 'unbounded' | 'infeasible'
    x: list | None = None
    objective_value: Fraction | None = None


def _pivot(tableau, basis, row, col):
    trow = tableau[row]
    inv = 1 / trow[col]
    nonzero = [j for j, a in enumerate(trow) if a]
    for j in nonzero:
        trow[j] *= inv
    for r, other in enumerate(tableau):
        f = other[col]
        if f and r != row:
            for j in nonzero:
                other[j] -= f * trow[j]
    basis[row] = col


def _run_simplex(tableau, basis, ncols, free, sign):
    """Maximize; objective stored (negated) in the last tableau row.

    Bland's rule: entering = lowest eligible column, leaving = lowest-index
    basic variable among the minimum-ratio rows.  A column is eligible when
    raising its variable would raise the objective; a nonbasic free column
    also when lowering it would, and it is then negated in place (``sign``
    records the flip) so that it enters rising.  A row whose basic variable
    is free bounds nothing and never leaves, so each free variable enters
    at most once.
    """
    zero = Fraction(0)
    obj = tableau[-1]
    m = len(tableau) - 1
    while True:
        col = -1
        for j in range(ncols):
            c = obj[j]
            if c < zero or (c > zero and free[j]):
                col = j
                break
        if col < 0:
            return "optimal"
        if obj[col] > zero:
            for trow in tableau:
                trow[col] = -trow[col]
            sign[col] = -sign[col]
        row = -1
        best_ratio = None
        for r in range(m):
            a = tableau[r][col]
            if a > zero and not free[basis[r]]:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[row])
                ):
                    best_ratio = ratio
                    row = r
        if row < 0:
            return "unbounded"
        _pivot(tableau, basis, row, col)


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Exact optimal basic solution of an LP; deterministic for a given LP.

    Each variable has one tableau column.  A free variable's column is
    negated whenever the variable enters falling, and its value is read back
    with that sign.  Phase 1 starts from the slack basis: only equalities and
    '<=' rows with a negative right-hand side get an artificial variable, so
    the tableau is nv + slacks + artificials + 1 wide."""
    zero = Fraction(0)
    one = Fraction(1)
    nv = len(lp.objective)
    m = len(lp.rows)

    # Slacks for inequalities, in the columns after the variables.
    slack_col = {}
    for r, (_, rel, _) in enumerate(lp.rows):
        if rel == LE:
            slack_col[r] = nv + len(slack_col)
    total_struct = nv + len(slack_col)

    # Normalize to b >= 0.  A '<=' row whose slack keeps coefficient +1
    # starts with that slack basic; the other rows (equalities and negated
    # '<=' rows) each get an artificial, in columns after the slacks.
    rhs = [to_rational(b) for _, _, b in lp.rows]
    needs_artificial = [r not in slack_col or rhs[r] < zero for r in range(m)]
    nart = sum(needs_artificial)
    width = total_struct + nart + 1
    artificial_cols = iter(range(total_struct, total_struct + nart))
    tableau = []
    basis = []
    for r, (coeffs, _, _) in enumerate(lp.rows):
        row = [to_rational(c) if c else zero for c in coeffs] + [zero] * (width - nv)
        if r in slack_col:
            row[slack_col[r]] = one
        b = rhs[r]
        if b < zero:
            row = [-c for c in row]
            b = -b
        if needs_artificial[r]:
            basis.append(next(artificial_cols))
            row[basis[r]] = one
        else:
            basis.append(slack_col[r])
        row[-1] = b
        tableau.append(row)
    free = list(lp.free) + [False] * (width - nv)
    sign = [1] * nv

    # Phase 1: minimize the sum of artificials (maximize its negation).
    phase1 = [zero] * width
    for r in range(m):
        if needs_artificial[r]:
            for j in range(width):
                phase1[j] -= tableau[r][j]
    for j in range(total_struct, total_struct + nart):
        phase1[j] = zero
    tableau.append(phase1)
    status = _run_simplex(tableau, basis, total_struct + nart, free, sign)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise AssertionError("phase 1 cannot be unbounded")
    if tableau[-1][-1] != zero:
        return SimplexResult(status="infeasible")
    tableau.pop()

    # Drive any artificial still basic (at zero) out of the basis.
    for r in range(m):
        if basis[r] >= total_struct:
            for j in range(total_struct):
                if tableau[r][j]:
                    _pivot(tableau, basis, r, j)
                    break
            # A row with no structural coefficient is redundant; its
            # artificial stays basic at zero and is simply never entered.

    # Phase 2, on the columns as phase 1 left their signs.
    obj = [zero] * width
    for v, c in enumerate(lp.objective):
        if c:
            obj[v] = -sign[v] * to_rational(c)
    tableau.append(obj)
    for r in range(m):
        col = basis[r]
        f = tableau[-1][col]
        if f:
            for j in range(width):
                if tableau[r][j]:
                    tableau[-1][j] -= f * tableau[r][j]
    status = _run_simplex(tableau, basis, total_struct, free, sign)
    if status == "unbounded":
        return SimplexResult(status="unbounded")

    x = [zero] * nv
    for r in range(m):
        if basis[r] < nv:
            x[basis[r]] = sign[basis[r]] * tableau[r][-1]

    value = Fraction(0)
    for c, xv in zip(lp.objective, x):
        value += to_rational(c) * xv
    return SimplexResult(status="optimal", x=x, objective_value=value)


# ---------------------------------------------------------------------------
# Envy-chain closure
# ---------------------------------------------------------------------------


def envy_closure(d):
    """Heaviest-walk closure of envy weights d[i][k], by Floyd-Warshall.

    ``d`` is a square list of lists of numbers that add and compare exactly
    (Python integers are fastest); the result is a new list of lists.  With a
    zero diagonal, a positive diagonal entry of the result is a positive envy
    cycle; without one, row i's maximum is m_i, the heaviest chain leaving i.
    """
    d = list(d)  # rows are replaced, never written to
    for k in range(len(d)):
        dk = d[k]
        for i, row in enumerate(d):
            via = row[k]
            d[i] = [x if x >= via + y else via + y for x, y in zip(row, dk)]
    return d


def envy_matrix(rows, sigma):
    """d[i][k] = rows[i][sigma[k]] - rows[k][sigma[k]], the least u_i - u_k
    that envy-freeness allows when agent k holds room sigma[k]."""
    own = [rows[k][room] for k, room in enumerate(sigma)]
    return [[row[room] - v for room, v in zip(sigma, own)] for row in rows]


def integer_form(rows, rent, step=1):
    """(scale, int rows, int rent): the values and the rent times ``scale``,
    the least common multiple of their denominators and the ``step``'s, so a
    grid of that step is integral too.  The only place values are scaled."""
    scale = math.lcm(
        rent.denominator, step.denominator, *(v.denominator for row in rows for v in row)
    )
    rows = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    return scale, rows, rent.numerator * (scale // rent.denominator)


def payment_numerators(d, rent):
    """Payments times n*scale from d_i = v_i(sigma_i) - u_i on the integer
    form, where the utilities u need be known only up to a common shift t:
    the budget fixes n*t = sum(d) - R, so agent i pays d_i - t, that is
    n*d_i - (sum(d) - R) over n*scale.  The closed form passes u = m (the
    shift is t*), the LP its leximin utilities (the shift is 0)."""
    excess = sum(d) - rent
    return [len(d) * di - excess for di in d]


def maximin_level(
    instance: Instance, matrix: ValuationMatrix, assignment: Assignment
) -> Fraction:
    """The largest minimum utility of any envy-free price vector for the
    assignment: t* = (W - R - sum(m))/n, exact, in O(n^3).

    Every envy-free utility vector u satisfies u_i - min(u) >= m_i, and the
    budget fixes sum(u) = W - R, so min(u) <= t*; u = m + t* is envy-free and
    attains it.  Raises NotWelfareMaximizing when no envy-free prices exist.
    """
    validate_instance(instance, matrix)
    (scale, _, _), _, _, level, _ = _maximin_level(instance, matrix, assignment)
    return Fraction(level, instance.n * scale)


def _maximin_level(instance, matrix, assignment):
    """(form, sigma, closure, n*t*, chains m_i) on validated reports, all on
    their ``integer_form``; raises NotWelfareMaximizing on a positive envy cycle,
    since rotating rooms along it would raise welfare by its weight, naming
    the optimum from one Hungarian value of the integer rows."""
    form = scale, rows, rent = integer_form(matrix.values, instance.total_rent)
    sigma = assignment.to_indices(instance)
    welfare = sum(row[j] for row, j in zip(rows, sigma))
    closed = envy_closure(envy_matrix(rows, sigma))
    if any(closed[i][i] > 0 for i in range(instance.n)):
        best = matching._hungarian_value(rows)
        raise NotWelfareMaximizing(
            f"assignment welfare {abbreviate(Fraction(welfare, scale))} < "
            f"optimum {abbreviate(Fraction(best, scale))}"
        )
    chains = [max(row) for row in closed]
    return form, sigma, closed, welfare - rent - sum(chains), chains


# ---------------------------------------------------------------------------
# Maximin / leximin envy-free prices
# ---------------------------------------------------------------------------


def is_envy_free(
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
    prices: PriceVector,
) -> list:
    """(agent, room, v_i(room) - p(room) - u_i) for every room an agent
    envies, that is where that slack is positive, agents in roster order and
    rooms in room order; empty means EF."""
    utilities = compute_utilities(instance, matrix, assignment, prices)
    price = prices.as_list(instance)
    return [
        (agent, room, slack)
        for agent, row in zip(instance.agent_ids, matrix.values)
        for room, v, p in zip(instance.room_ids, row, price)
        if (slack := v - p - utilities[agent]) > 0
    ]


def _maximin_lp(rows, rent, sigma, envy, floors, nonnegative_prices, objective_agent=None):
    """LP over variables (p_0..p_{n-1}, t) on the integer form ``rows``,
    ``rent``: maximize t (or u_a) subject to "agent i does not envy room j"
    for each (i, j) in ``envy``, budget balance, and u_i >= floors[i] where
    given (u_i >= t elsewhere): len(envy) + 1 + n rows.  t is free; the
    prices are free too, or nonnegative variables when
    ``nonnegative_prices``, so the floor adds no row.  ``_leximin_utilities``
    passes the tight pairs only (``_tight_envy``)."""
    n = len(rows)
    nv = n + 1  # prices + t
    lp_rows = []
    for i, j in envy:
        row, si = rows[i], sigma[i]
        coeffs = [0] * nv
        coeffs[si] = 1
        coeffs[j] = -1
        lp_rows.append((coeffs, LE, row[si] - row[j]))
    lp_rows.append(([1] * n + [0], EQ, rent))
    for row, si, floor in zip(rows, sigma, floors):
        coeffs = [0] * nv
        coeffs[si] = 1
        if floor is None:
            # u_i >= t  <=>  t + p_{sigma(i)} <= v_i(sigma(i))
            coeffs[n] = 1
            lp_rows.append((coeffs, LE, row[si]))
        else:
            # u_i >= floor  <=>  p_{sigma(i)} <= v_i(sigma(i)) - floor
            lp_rows.append((coeffs, LE, row[si] - floor))
    objective = [0] * nv
    if objective_agent is None:
        objective[n] = 1
    else:
        # u_a = const - p_{sigma(a)}
        objective[sigma[objective_agent]] = -1
    free = [not nonnegative_prices] * n + [True]
    return LinearProgram(objective=objective, rows=lp_rows, free=free)


def maximin_prices(
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
    nonnegative_prices: bool = False,
    *,
    _validated: bool = False,
) -> Outcome:
    """The assignment's ``Outcome`` at the envy-free prices that maximize the
    minimum utility, leximin-refined.

    Raises NotWelfareMaximizing when the assignment does not maximize welfare
    (the envy-free polytope is empty exactly then), and RentDivisionError when
    ``nonnegative_prices`` is set and no envy-free price vector is nonnegative.
    ``solve`` passes ``_validated=True`` for the reports it has validated.
    """
    if not _validated:
        validate_instance(instance, matrix)
    (scale, rows, rent), sigma, closed, _, chains = _maximin_level(instance, matrix, assignment)
    if nonnegative_prices or any(chains):
        utilities = _leximin_utilities(rows, rent, sigma, closed, nonnegative_prices)
    else:
        utilities = chains  # u = t* + m, needed only up to the shift t*
    d = [row[j] - u for row, j, u in zip(rows, sigma, utilities)]
    pay = payment_numerators(d, rent)
    return priced_outcome(instance, matrix, sigma, pay, instance.n * scale)


def priced_outcome(instance, matrix, sigma, pay, denominator):
    """The ``Outcome`` when agent i takes room sigma[i] and pays
    pay[i]/denominator: where exact payments on the integer form become
    ``Fraction``s."""
    prices = [Fraction(0)] * instance.n
    for j, p in zip(sigma, pay):
        prices[j] = Fraction(p, denominator)
    return build_outcome(
        instance, matrix, Assignment.from_indices(instance, sigma),
        PriceVector.from_list(instance, prices),
    )


def _tight_envy(rows, sigma, closed):
    """(i, sigma[k]) for every i != k whose envy edge d[i][k] equals the
    closure C[i][k] (``closed``), in agent and then room order.

    Without a positive envy cycle, every edge on a heaviest i -> k walk is
    tight (a slack one could be replaced by a heavier walk), so the tight
    rows imply u_i - u_k >= C[i][k] >= d[i][k]: the rows dropped here cut
    nothing from the envy-free polytope.
    """
    holder = {j: k for k, j in enumerate(sigma)}
    return [
        (i, j)
        for i, (row, chains) in enumerate(zip(rows, closed))
        for j in range(len(sigma))
        if (k := holder[j]) != i and row[j] - rows[k][j] == chains[k]
    ]


def _leximin_utilities(rows, rent, sigma, closed, nonnegative_prices):
    """Leximin utilities on the integer form ``rows``, ``rent`` (times its
    scale): iteratively maximize the minimum utility, freezing forced agents.

    Precondition: sigma has no positive envy cycle, which ``_maximin_level``
    has checked on its envy closure ``closed``.  Every LP then carries only
    the tight envy rows (``_tight_envy``); the feasible set of each round and
    probe, and so every optimal value and the result, are those of all n*(n-1)
    rows.

    An agent whose utility sits strictly above the current optimum in the
    returned solution is witnessed as unforced; agents at the optimum are
    confirmed forced (or not) by re-solving with that agent's utility as the
    objective.  Only optimal values decide a level or a verdict; the optimal
    vertex the simplex happens to reach only saves probes.
    """
    n = len(rows)
    envy = _tight_envy(rows, sigma, closed)
    floors = [None] * n
    while any(f is None for f in floors):
        res = simplex_solve(_maximin_lp(rows, rent, sigma, envy, floors, nonnegative_prices))
        if res.status != "optimal":
            # Without the price floor the program is feasible for every
            # welfare-maximizing assignment, and each later round keeps the
            # last optimum feasible, so only the floor can empty it.
            raise RentDivisionError(
                "no envy-free price vector is nonnegative for this assignment"
            )
        t_star = res.x[n]
        u_now = [row[si] - res.x[si] for row, si in zip(rows, sigma)]
        newly_frozen = []
        trial = [t_star if f is None else f for f in floors]
        for i in range(n):
            if floors[i] is not None:
                continue
            if u_now[i] > t_star:
                continue  # current solution witnesses u_i above the level
            probe = simplex_solve(
                _maximin_lp(rows, rent, sigma, envy, trial, nonnegative_prices, objective_agent=i)
            )
            if probe.status != "optimal":  # pragma: no cover
                raise AssertionError(f"freeze probe is {probe.status}")
            if rows[i][sigma[i]] - probe.x[sigma[i]] == t_star:
                newly_frozen.append(i)
        if not newly_frozen:  # pragma: no cover - at least one agent is forced
            raise AssertionError("leximin refinement made no progress")
        for i in newly_frozen:
            floors[i] = t_star
    return floors


def solve(
    instance: Instance,
    matrix: ValuationMatrix,
    nonnegative_prices: bool = False,
) -> Outcome:
    """Run the whole mechanism: welfare-max assignment, then maximin prices.
    The reports are validated once, by ``max_welfare_assignment``."""
    assignment = matching.max_welfare_assignment(instance, matrix).assignment
    return maximin_prices(instance, matrix, assignment, nonnegative_prices, _validated=True)
