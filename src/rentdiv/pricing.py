"""Envy-free maximin pricing over exact rationals.

Given a welfare-maximizing assignment, the envy-free price vectors form a
polytope: one budget equality plus n*(n-1) envy inequalities.  The price
vector returned here maximizes the minimum utility and then applies a leximin
refinement so the result is canonical.

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

``maximin_prices`` checks the assignment with the closure, takes one of two
routes to the utilities, and returns the mechanism's ``Outcome`` for the
assignment at the resulting prices:

- the closed form u_i = t* + m_i, when every m_i is 0 (the equal split of the
  surplus) and prices may be negative;
- otherwise the leximin LP (``_leximin_utilities``): two-phase simplex with
  Bland's rule, maximizing the minimum utility and freezing forced agents.

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
            raise ValueError("free flags must match variable count")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != nv:
                raise ValueError("row width does not match variable count")
            if rel not in (LE, EQ):
                raise ValueError(f"unknown relation {rel!r}")


@dataclass
class SimplexResult:
    status: str  # 'optimal' | 'unbounded' | 'infeasible'
    x: list | None = None
    objective_value: Fraction | None = None


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    trow = tableau[row]
    inv = 1 / piv
    for j in range(len(trow)):
        if trow[j]:
            trow[j] *= inv
    for r, other in enumerate(tableau):
        if r != row and other[col]:
            f = other[col]
            for j in range(len(other)):
                if trow[j]:
                    other[j] -= f * trow[j]
    basis[row] = col


def _run_simplex(tableau, basis, ncols):
    """Maximize; objective stored (negated) in the last tableau row.

    Bland's rule: entering = lowest eligible column, leaving = lowest-index
    basic variable among the minimum-ratio rows.
    """
    zero = Fraction(0)
    obj = tableau[-1]
    m = len(tableau) - 1
    while True:
        col = -1
        for j in range(ncols):
            if obj[j] < zero:
                col = j
                break
        if col < 0:
            return "optimal"
        row = -1
        best_ratio = None
        for r in range(m):
            a = tableau[r][col]
            if a > zero:
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
    """Exact optimal basic solution of an LP; deterministic for a given LP."""
    zero = Fraction(0)
    one = Fraction(1)

    # Column layout: free variables split into (+, -) halves.
    col_of_var = []  # var -> (pos_col, neg_col | None)
    ncols = 0
    for is_free in lp.free:
        if is_free:
            col_of_var.append((ncols, ncols + 1))
            ncols += 2
        else:
            col_of_var.append((ncols, None))
            ncols += 1

    m = len(lp.rows)
    rows = []
    rels = []
    rhs = []
    for coeffs, rel, b in lp.rows:
        expanded = [zero] * ncols
        for v, c in enumerate(coeffs):
            if c:
                pos, neg = col_of_var[v]
                expanded[pos] += to_rational(c)
                if neg is not None:
                    expanded[neg] -= to_rational(c)
        rows.append(expanded)
        rels.append(rel)
        rhs.append(to_rational(b))

    # Slacks for inequalities.
    nslack = sum(1 for rel in rels if rel == LE)
    slack_col = {}
    k = ncols
    for r, rel in enumerate(rels):
        if rel == LE:
            slack_col[r] = k
            k += 1
    total_struct = ncols + nslack

    # Normalize to b >= 0 and add one artificial per row.
    tableau = []
    basis = []
    for r in range(m):
        row = rows[r] + [zero] * (nslack + m + 1)
        if r in slack_col:
            row[slack_col[r]] = one
        b = rhs[r]
        if b < zero:
            row = [-c for c in row]
            b = -b
        row[total_struct + r] = one
        row[-1] = b
        tableau.append(row)
        basis.append(total_struct + r)

    width = total_struct + m + 1

    # Phase 1: minimize the sum of artificials (maximize its negation).
    phase1 = [zero] * width
    for r in range(m):
        for j in range(width):
            phase1[j] -= tableau[r][j]
    for r in range(m):
        phase1[total_struct + r] = zero
    tableau.append(phase1)
    status = _run_simplex(tableau, basis, total_struct + m)
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

    # Phase 2.
    obj = [zero] * width
    for v, c in enumerate(lp.objective):
        if c:
            pos, neg = col_of_var[v]
            obj[pos] -= to_rational(c)
            if neg is not None:
                obj[neg] += to_rational(c)
    tableau.append(obj)
    for r in range(m):
        col = basis[r]
        f = tableau[-1][col]
        if f:
            for j in range(width):
                if tableau[r][j]:
                    tableau[-1][j] -= f * tableau[r][j]
    status = _run_simplex(tableau, basis, total_struct)
    if status == "unbounded":
        return SimplexResult(status="unbounded")

    x_cols = [zero] * width
    for r in range(m):
        x_cols[basis[r]] = tableau[r][-1]
    x = []
    for pos, neg in col_of_var:
        val = x_cols[pos]
        if neg is not None:
            val -= x_cols[neg]
        x.append(val)

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
    """Payments times n*scale at the utilities u = t* + m, from d_i =
    v_i(sigma_i) - m_i on the integer form: n*t* = sum(d) - R, so agent i
    pays d_i - t*, that is n*d_i - (sum(d) - R) over n*scale."""
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
    (scale, _, _), _, level, _ = _maximin_level(instance, matrix, assignment)
    return Fraction(level, instance.n * scale)


def _maximin_level(instance, matrix, assignment):
    """(form, sigma, n*t*, chains m_i) on validated reports, all on their
    ``integer_form``; raises NotWelfareMaximizing on a positive envy cycle,
    since rotating rooms along it would raise welfare by its weight."""
    form = scale, rows, rent = integer_form(matrix.values, instance.total_rent)
    sigma = assignment.to_indices(instance)
    welfare = sum(row[j] for row, j in zip(rows, sigma))
    closed = envy_closure(envy_matrix(rows, sigma))
    if any(closed[i][i] > 0 for i in range(instance.n)):
        best = matching.max_welfare_assignment(instance, matrix).welfare
        raise NotWelfareMaximizing(
            f"assignment welfare {abbreviate(Fraction(welfare, scale))} < "
            f"optimum {abbreviate(best)}"
        )
    chains = [max(row) for row in closed]
    return form, sigma, welfare - rent - sum(chains), chains


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


def _maximin_lp(instance, matrix, sigma, floors, nonnegative_prices, objective_agent=None):
    """LP over variables (p_0..p_{n-1}, t): maximize t (or u_a) subject to EF,
    budget balance, u_i >= floors[i] where given, and p_j >= 0 when
    ``nonnegative_prices``."""
    n = instance.n
    zero = Fraction(0)
    nv = n + 1  # prices + t
    rows = []
    for i in range(n):
        si = sigma[i]
        for j in range(n):
            if j == si:
                continue
            coeffs = [zero] * nv
            coeffs[si] += 1
            coeffs[j] -= 1
            rows.append((coeffs, LE, matrix.value(i, si) - matrix.value(i, j)))
    rows.append(([Fraction(1)] * n + [zero], EQ, instance.total_rent))
    for i in range(n):
        if floors[i] is None:
            # u_i >= t  <=>  t + p_{sigma(i)} <= v_i(sigma(i))
            coeffs = [zero] * nv
            coeffs[sigma[i]] = Fraction(1)
            coeffs[n] = Fraction(1)
            rows.append((coeffs, LE, matrix.value(i, sigma[i])))
        else:
            # u_i >= floor  <=>  p_{sigma(i)} <= v_i(sigma(i)) - floor
            coeffs = [zero] * nv
            coeffs[sigma[i]] = Fraction(1)
            rows.append((coeffs, LE, matrix.value(i, sigma[i]) - floors[i]))
    if nonnegative_prices:
        for j in range(n):
            coeffs = [zero] * nv
            coeffs[j] = Fraction(-1)
            rows.append((coeffs, LE, zero))
    objective = [zero] * nv
    if objective_agent is None:
        objective[n] = Fraction(1)
    else:
        # u_a = const - p_{sigma(a)}
        objective[sigma[objective_agent]] = Fraction(-1)
    return LinearProgram(objective=objective, rows=rows, free=[True] * nv)


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
    (scale, rows, rent), sigma, _, chains = _maximin_level(instance, matrix, assignment)
    if nonnegative_prices or any(chains):
        utilities = _leximin_utilities(instance, matrix, sigma, nonnegative_prices)
        pay = [matrix.value(i, j) - u for i, (j, u) in enumerate(zip(sigma, utilities))]
        return priced_outcome(instance, matrix, assignment, pay, 1)
    # u = t* + m, here the equal split of the surplus.
    d = [row[j] - m for row, j, m in zip(rows, sigma, chains)]
    pay = payment_numerators(d, rent)
    return priced_outcome(instance, matrix, assignment, pay, instance.n * scale)


def priced_outcome(instance, matrix, assignment, pay, denominator):
    """The ``Outcome`` of ``assignment`` when agent i pays pay[i]/denominator:
    where exact payments on the integer form become ``Fraction``s."""
    prices = [Fraction(0)] * instance.n
    for j, p in zip(assignment.to_indices(instance), pay):
        prices[j] = Fraction(p, denominator)
    return build_outcome(instance, matrix, assignment, PriceVector.from_list(instance, prices))


def _leximin_utilities(instance, matrix, sigma, nonnegative_prices):
    """Iteratively maximize the minimum utility, freezing forced agents.

    An agent whose utility sits strictly above the current optimum in the
    returned solution is witnessed as unforced; agents at the optimum are
    confirmed forced (or not) by re-solving with that agent's utility as the
    objective.
    """
    n = instance.n
    floors = [None] * n
    while any(f is None for f in floors):
        res = simplex_solve(
            _maximin_lp(instance, matrix, sigma, floors, nonnegative_prices)
        )
        if res.status != "optimal":
            # Without the price floor the program is feasible for every
            # welfare-maximizing assignment, and each later round keeps the
            # last optimum feasible, so only the floor can empty it.
            raise RentDivisionError(
                "no envy-free price vector is nonnegative for this assignment"
            )
        t_star = res.x[n]
        u_now = [
            matrix.value(i, sigma[i]) - res.x[sigma[i]] for i in range(n)
        ]
        newly_frozen = []
        trial = list(floors)
        for i in range(n):
            trial[i] = t_star if floors[i] is None else floors[i]
        for i in range(n):
            if floors[i] is not None:
                continue
            if u_now[i] > t_star:
                continue  # current solution witnesses u_i above the level
            probe = simplex_solve(
                _maximin_lp(
                    instance, matrix, sigma, trial, nonnegative_prices, objective_agent=i
                )
            )
            if probe.status != "optimal":  # pragma: no cover
                raise AssertionError(f"freeze probe is {probe.status}")
            best_ui = matrix.value(i, sigma[i]) - probe.x[sigma[i]]
            if best_ui == t_star:
                newly_frozen.append(i)
        if not newly_frozen:  # pragma: no cover - at least one agent is forced
            raise AssertionError("leximin refinement made no progress")
        for i in newly_frozen:
            floors[i] = t_star

    return list(floors)


def solve(
    instance: Instance,
    matrix: ValuationMatrix,
    nonnegative_prices: bool = False,
) -> Outcome:
    """Run the whole mechanism: welfare-max assignment, then maximin prices.
    The reports are validated once, by ``max_welfare_assignment``."""
    assignment = matching.max_welfare_assignment(instance, matrix).assignment
    return maximin_prices(instance, matrix, assignment, nonnegative_prices, _validated=True)
