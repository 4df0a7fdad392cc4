"""Envy-free maximin pricing over exact rationals.

Given a welfare-maximizing assignment, the envy-free price vectors form a
polytope: one budget equality plus n*(n-1) envy inequalities.  The price
vector returned here maximizes the minimum utility and then applies a leximin
refinement so the result is canonical.

The envy graph gives both certificates in closed form.  Its edge i -> k
weighs v_i(room of k) - v_k(room of k); one exact Floyd-Warshall closure
(``envy_closure``, on lists of Python integers: the values scaled by their
common denominator) yields m_i, the heaviest envy chain leaving agent i.  The
assignment is welfare-maximizing iff no envy cycle is positive, and the
largest minimum utility of any envy-free price vector is
t* = (W - R - sum(m))/n (``maximin_level``).  ``rentdiv verify`` certifies
maximin optimality with it.  The misreport search (``manipulation``) runs the
same closure once per room of the searching agent.

``maximin_prices`` checks the assignment with the closure and then takes one
of two routes to the utilities:

- the closed form u_i = t* + m_i, when every m_i is 0 (the equal split of the
  surplus) and prices may be negative;
- otherwise the leximin LP (``_leximin_utilities``): two-phase simplex with
  Bland's rule, maximizing the minimum utility and freezing forced agents.

A Fourier-Motzkin feasibility oracle (``min_utility_feasible``), sharing no
code with either, is kept as a test-only cross-check.
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
    build_outcome,
    compute_utilities,
    to_rational,
    validate_instance,
)

FM_VARIABLE_LIMIT = 6
CERTIFICATE_EPSILON = Fraction(1, 1000)


class NotWelfareMaximizing(RentDivisionError):
    """Envy-free prices only exist for welfare-maximizing assignments."""


class TooManyVariables(RentDivisionError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"{n} variables exceeds the Fourier-Motzkin limit of {FM_VARIABLE_LIMIT}"
        )


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
# Envy-free constraint systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EFConstraintSystem:
    """Envy-freeness constraints in price space p_0..p_{n-1}.

    Holds exactly n*(n-1) envy inequalities (coeffs, '<=', rhs) plus the
    budget equality sum(p) = R.
    """

    n: int
    constraints: tuple  # tuple of (coeffs: tuple, relation, rhs)


def ef_constraint_system(
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
) -> EFConstraintSystem:
    n = instance.n
    sigma = assignment.to_indices(instance)
    cons = []
    zero = Fraction(0)
    for i in range(n):
        si = sigma[i]
        for j in range(n):
            if j == si:
                continue
            coeffs = [zero] * n
            coeffs[si] += 1
            coeffs[j] -= 1
            cons.append(
                (tuple(coeffs), LE, matrix.value(i, si) - matrix.value(i, j))
            )
    cons.append((tuple([Fraction(1)] * n), EQ, instance.total_rent))
    return EFConstraintSystem(n=n, constraints=tuple(cons))


def with_min_utility(
    system: EFConstraintSystem,
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
    floor: Fraction,
) -> EFConstraintSystem:
    """Add u_i >= floor for every agent, expressed on the price variables."""
    sigma = assignment.to_indices(instance)
    extra = []
    zero = Fraction(0)
    for i in range(system.n):
        coeffs = [zero] * system.n
        coeffs[sigma[i]] = Fraction(1)
        extra.append((tuple(coeffs), LE, matrix.value(i, sigma[i]) - to_rational(floor)))
    return EFConstraintSystem(n=system.n, constraints=system.constraints + tuple(extra))


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility oracle (shares no solver code with the simplex)
# ---------------------------------------------------------------------------


def _fm_normalize(coeffs, rhs):
    """Scale a row by a positive rational so entries are coprime integers."""
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    denom = denom * rhs.denominator // math.gcd(denom, rhs.denominator)
    ints = [int(c * denom) for c in coeffs]
    rint = int(rhs * denom)
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    g = math.gcd(g, abs(rint))
    if g > 1:
        ints = [v // g for v in ints]
        rint //= g
    return tuple(Fraction(v) for v in ints), Fraction(rint)


def fm_feasible(constraints, num_vars: int) -> bool:
    """Decide feasibility of linear constraints by exact variable elimination.

    ``constraints`` is an iterable of (coeffs, '<='|'==', rhs) over at most
    ``num_vars`` <= 6 variables.  Equalities are expanded into inequality
    pairs; variables are eliminated greedily (fewest positive*negative
    combinations first) with duplicate/dominated row pruning.
    """
    if num_vars > FM_VARIABLE_LIMIT:
        raise TooManyVariables(num_vars)

    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = tuple(to_rational(c) for c in coeffs)
        rhs = to_rational(rhs)
        rows.append((coeffs, rhs))
        if rel == EQ:
            rows.append((tuple(-c for c in coeffs), -rhs))
        elif rel != LE:
            raise ValueError(f"unknown relation {rel!r}")

    remaining = list(range(num_vars))
    while remaining:
        # Prune duplicates, keeping the tightest rhs per coefficient vector.
        pruned = {}
        for coeffs, rhs in rows:
            key, r = _fm_normalize(coeffs, rhs)
            if key not in pruned or r < pruned[key]:
                pruned[key] = r
        rows = [(k, v) for k, v in pruned.items()]

        def cost(var):
            pos = sum(1 for c, _ in rows if c[var] > 0)
            neg = sum(1 for c, _ in rows if c[var] < 0)
            return pos * neg

        var = min(remaining, key=cost)
        remaining.remove(var)

        pos_rows, neg_rows, zero_rows = [], [], []
        for coeffs, rhs in rows:
            a = coeffs[var]
            if a > 0:
                pos_rows.append((coeffs, rhs))
            elif a < 0:
                neg_rows.append((coeffs, rhs))
            else:
                zero_rows.append((coeffs, rhs))
        new_rows = list(zero_rows)
        for (cp, rp) in pos_rows:
            ap = cp[var]
            for (cn, rn) in neg_rows:
                an = -cn[var]
                coeffs = tuple(
                    cn[j] / an + cp[j] / ap for j in range(num_vars)
                )
                new_rows.append((coeffs, rn / an + rp / ap))
        rows = new_rows

    return all(rhs >= 0 for _, rhs in rows)


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


def _scaled_rows(rows, scale):
    """Rows of Fractions times ``scale``, a common multiple of their
    denominators, as Python integers."""
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


def _envy_chains(instance, matrix, assignment, welfare):
    """m_i per agent; raises NotWelfareMaximizing on a positive envy cycle,
    since rotating rooms along it would raise welfare by its weight.

    The closure runs on the values scaled by their common denominator, so it
    adds Python integers instead of Fractions.
    """
    scale = math.lcm(*(v.denominator for row in matrix.values for v in row))
    rows = _scaled_rows(matrix.values, scale)
    closed = envy_closure(envy_matrix(rows, assignment.to_indices(instance)))
    if any(closed[i][i] > 0 for i in range(instance.n)):
        best = matching.max_welfare_assignment(instance, matrix).welfare
        raise NotWelfareMaximizing(f"assignment welfare {welfare} < optimum {best}")
    return [Fraction(max(row), scale) for row in closed]


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
    return _maximin_level(instance, matrix, assignment)[0]


def _maximin_level(instance, matrix, assignment):
    """(t*, chains m_i) for the assignment, on reports already validated."""
    sigma = assignment.to_indices(instance)
    welfare = sum(matrix.value(i, sigma[i]) for i in range(instance.n))
    chains = _envy_chains(instance, matrix, assignment, welfare)
    return (welfare - instance.total_rent - sum(chains)) / instance.n, chains


# ---------------------------------------------------------------------------
# Maximin / leximin envy-free prices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaximinSolution:
    prices: PriceVector
    utilities: dict  # agent_id -> Fraction
    min_utility: Fraction
    tight_envy_edges: tuple  # (agent_id, room_id) pairs where envy binds


def is_envy_free(
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
    prices: PriceVector,
) -> list:
    """Violated envy pairs (agent, room) with positive slack; empty means EF."""
    return [v for v in _envy_slacks(instance, matrix, assignment, prices) if v[2] > 0]


def _envy_slacks(instance, matrix, assignment, prices):
    """(agent, room, v_i(room) - p(room) - u_i) for every room an agent does
    not hold, agents in roster order and rooms in room order: a positive
    slack is envy, a zero slack a tight envy edge."""
    utilities = compute_utilities(instance, matrix, assignment, prices)
    price = prices.as_list(instance)
    for agent, row in zip(instance.agent_ids, matrix.values):
        own, u = assignment.room_of(agent), utilities[agent]
        for room, v, p in zip(instance.room_ids, row, price):
            if room != own:
                yield agent, room, v - p - u


def _maximin_lp(instance, matrix, sigma, floors, objective_agent=None):
    """LP over variables (p_0..p_{n-1}, t): maximize t (or u_a) subject to EF,
    budget balance, and u_i >= floors[i] where given."""
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
) -> MaximinSolution:
    """Envy-free prices maximizing the minimum utility, leximin-refined.

    Raises NotWelfareMaximizing when the assignment does not maximize welfare
    (the envy-free polytope is empty exactly then).
    """
    validate_instance(instance, matrix)
    n = instance.n
    sigma = assignment.to_indices(instance)
    level, chains = _maximin_level(instance, matrix, assignment)
    if nonnegative_prices or any(chains):
        utilities_vec = _leximin_utilities(
            instance, matrix, sigma, nonnegative_prices
        )
    else:
        # u = t* + m, here the equal split of the surplus.
        utilities_vec = [level + m for m in chains]

    plist = [Fraction(0)] * n
    for i in range(n):
        plist[sigma[i]] = matrix.value(i, sigma[i]) - utilities_vec[i]
    prices = PriceVector.from_list(instance, plist)
    tight = tuple(
        (agent, room)
        for agent, room, slack in _envy_slacks(instance, matrix, assignment, prices)
        if slack == 0
    )
    return MaximinSolution(
        prices=prices,
        utilities=dict(zip(instance.agent_ids, utilities_vec)),
        min_utility=min(utilities_vec),
        tight_envy_edges=tight,
    )


def _leximin_utilities(instance, matrix, sigma, nonnegative_prices):
    """Iteratively maximize the minimum utility, freezing forced agents.

    An agent whose utility sits strictly above the current optimum in the
    returned solution is witnessed as unforced; agents at the optimum are
    confirmed forced (or not) by re-solving with that agent's utility as the
    objective.
    """
    n = instance.n

    def augment(lp):
        if nonnegative_prices:
            zero = Fraction(0)
            for j in range(n):
                coeffs = [zero] * (n + 1)
                coeffs[j] = Fraction(-1)
                lp.rows.append((coeffs, LE, zero))
        return lp

    floors = [None] * n
    while any(f is None for f in floors):
        res = simplex_solve(augment(_maximin_lp(instance, matrix, sigma, floors)))
        if res.status != "optimal":  # pragma: no cover
            raise AssertionError(f"maximin LP is {res.status}")
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
                augment(_maximin_lp(instance, matrix, sigma, trial, objective_agent=i))
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
    """Run the whole mechanism: welfare-max assignment, then maximin prices."""
    result = matching.max_welfare_assignment(instance, matrix)
    solution = maximin_prices(
        instance, matrix, result.assignment, nonnegative_prices=nonnegative_prices
    )
    return build_outcome(instance, matrix, result.assignment, solution.prices)


def min_utility_feasible(
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
    floor: Fraction,
) -> bool:
    """Fourier-Motzkin probe: is there an EF price vector with all u_i >= floor?"""
    system = ef_constraint_system(instance, matrix, assignment)
    system = with_min_utility(system, instance, matrix, assignment, floor)
    return fm_feasible(system.constraints, instance.n)
