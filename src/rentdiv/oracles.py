"""Test-only oracles: slow, independent routes that cross-check the solver.

No command imports this module.  It holds three groups of code:

- the Fourier-Motzkin feasibility oracle (``min_utility_feasible``), which
  certifies a minimum utility by exact variable elimination and shares no
  code with the simplex or the envy-chain closure of ``pricing``;
- the n! enumerators (``all_optimal_assignments``, ``brute_force_assignment``
  and their ``tie_break_key``), which check the Hungarian matching and its
  canonical tie-break in ``matching``;
- the numpy enumeration of every report row of a search grid
  (``_FastMechanism``, ``_priced_blocks``), which the closed-form best
  response in ``manipulation`` is held to.  numpy is imported inside those
  functions only, so the module imports without it.

``pricing`` and ``matching`` still resolve the public names of the first two
groups, and ``rentdiv`` those it exported, on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .manipulation import (
    ExcludeFromRooms,
    MaximizeTrueUtility,
    MinimizeCoalitionPayments,
    SubsidizeAgent,
    _room_tables,
)
from .matching import WelfareResult
from .model import (
    Assignment,
    Instance,
    RentDivisionError,
    ValuationMatrix,
    to_rational,
    validate_instance,
)
from .pricing import EQ, LE

FM_VARIABLE_LIMIT = 6
CERTIFICATE_EPSILON = Fraction(1, 1000)


class TooManyVariables(RentDivisionError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"{n} variables exceeds the Fourier-Motzkin limit of {FM_VARIABLE_LIMIT}"
        )


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


# ---------------------------------------------------------------------------
# n! enumeration of the welfare optima
# ---------------------------------------------------------------------------

BRUTE_FORCE_LIMIT = 9


class InstanceTooLarge(RentDivisionError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"n={n} exceeds the enumeration limit of {BRUTE_FORCE_LIMIT}")


def tie_break_key(perm, rows) -> tuple:
    """Sort key for the canonical tie-break: the optimum MAXIMIZING this key
    wins.  ``perm`` maps agent index -> room index; ``rows`` is the value
    matrix the assignment was optimized against."""
    n = len(perm)
    inv = [0] * n
    for agent, room in enumerate(perm):
        inv[room] = agent
    return tuple((rows[inv[j]][j], inv[j]) for j in range(n))


def brute_force_assignment(
    instance: Instance, matrix: ValuationMatrix
) -> WelfareResult:
    """Exhaustive oracle: the first of ``all_optimal_assignments`` (n <= 9)."""
    best = all_optimal_assignments(instance, matrix)[0]
    sigma = best.to_indices(instance)
    return WelfareResult(best, sum(matrix.value(i, j) for i, j in enumerate(sigma)))


def all_optimal_assignments(
    instance: Instance, matrix: ValuationMatrix
) -> list:
    """Every welfare-maximizing assignment, in canonical tie-break order
    (n <= 9).  The first element is the assignment the solver returns."""
    validate_instance(instance, matrix)
    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(n)
    rows = matrix.values
    best_w = None
    optima: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        w = sum(rows[i][perm[i]] for i in range(n))
        if best_w is None or w > best_w:
            best_w = w
            optima = [perm]
        elif w == best_w:
            optima.append(perm)
    optima.sort(key=lambda p: tie_break_key(p, rows), reverse=True)
    return [Assignment.from_indices(instance, perm) for perm in optima]


# ---------------------------------------------------------------------------
# numpy enumeration of a search grid
# ---------------------------------------------------------------------------

SEARCH_BLOCK = 1024  # candidate rows scored per array pass


def _composition_blocks(total: int, parts: int):
    """All rows of `parts` nonnegative ints summing to `total`, in
    lexicographic order, as int64 arrays of at most SEARCH_BLOCK rows.

    Rows are unranked, so no array spans the whole grid.  Of the N(s, p) =
    C(s + p - 1, p - 1) compositions of s into p parts, N(s, p) - N(s - h, p)
    have a first part below h; so the first part of the row of a given rank
    is one searchsorted over the column N(., p), and so on part by part.
    """
    import numpy as np

    count = np.array(
        [[math.comb(s + p - 1, p - 1) for p in range(1, parts + 1)] for s in range(total + 1)],
        dtype=np.int64,
    )
    size = int(count[total, -1])
    for start in range(0, size, SEARCH_BLOCK):
        rank = np.arange(start, min(start + SEARCH_BLOCK, size), dtype=np.int64)
        rest = np.full(len(rank), total, dtype=np.int64)
        block = np.empty((len(rank), parts), dtype=np.int64)
        for k in range(parts - 1):
            col = count[:, parts - k - 1]
            left = np.searchsorted(col, col[rest] - rank)
            block[:, k] = rest - left
            rank -= col[rest] - col[left]
            rest = left
        block[:, -1] = rest
        yield block


class _FastMechanism:
    """The mechanism on integer-scaled values, batched over the report rows
    x of one searching agent a while every other row stays fixed: the
    enumeration oracle the tests hold ``manipulation._best_response`` to.

    It reads the reports and the rent in integer form (``pricing.integer_form``),
    and the per-room tables from ``manipulation._room_tables``.  For a block of
    B rows, welfare is a (B, n) array, and winners tied on welfare are
    settled room by room on the value*n + agent keys.  Maximin utilities are
    u_i = (W - R - sum(m))/n + m_i, with m_i the heaviest walk leaving i in
    the envy graph.  The edge k -> a weighs v_k(r) - x[r], so other agent i's
    heaviest walk into a is reach_r[i] - x[r]; the winner has no positive
    envy cycle, so a heaviest walk visits a at most once, and per candidate
        m_a = max(0, max_{k != a} (x[sigma_r(k)] - v_k(sigma_r(k)) + m'_k)),
        m_i = max(m'_i, reach_r[i] - x[r] + m_a),
    that is O(n) array work.

    Values lie in [0, R] for the scaled rent R, envy weights in [-R, R] and
    chains in [0, (n-1)R]; the largest intermediate, a coalition's summed
    payment numerator over n*scale, is at most 2*n**3*R in absolute value.
    When 4*n**3*(R + 1) does not fit in int64 the same arrays are built with
    dtype=object, so arithmetic is exact Python integers and never wraps.
    """

    def __init__(self, rows, agent: int, rent: int):
        import numpy as np

        n = len(rows)
        self.n = n
        self.agent = agent
        self.rent = rent
        self.dtype = np.int64 if 4 * n**3 * (rent + 1) < 2**63 else object
        perm, assigned, chain, reach, keys, welfare = _room_tables(rows, agent)
        self.perm = np.array(perm, dtype=np.intp)
        self.assigned, self.chain, self.reach, self.keys = (
            np.array(a, dtype=self.dtype) for a in (assigned, chain, reach, keys)
        )
        self.others_welfare = np.array(welfare, dtype=self.dtype)

    def solve(self, rows):
        """Canonical assignment and maximin utilities for a (B, n) block of
        scaled report rows of the searching agent.

        Returns (perm, assigned, u_num): agent -> room per candidate, each
        agent's reported value of its room, and utilities as numerators over
        n*scale.
        """
        import numpy as np

        n, a = self.n, self.agent
        ar = np.arange(n)
        block = np.arange(len(rows))
        welfare = self.others_welfare + rows
        alive = welfare == welfare.max(axis=1, keepdims=True)
        tied = np.flatnonzero(alive.sum(axis=1) > 1)
        if tied.size:
            keys = np.broadcast_to(self.keys, (tied.size, n, n)).copy()
            keys[:, ar, ar] = rows[tied] * n + a
            left = alive[tied]
            for j in range(n):
                col = np.where(left, keys[:, :, j], -1)
                left &= col == col.max(axis=1, keepdims=True)
            alive[tied] = left
        room = alive.argmax(axis=1)

        perm = self.perm[room]
        own = rows[block, room]
        assigned = self.assigned[room]
        assigned[:, a] = own
        chain = self.chain[room]
        # Column a adds own - own + 0, the empty walk.
        m_a = (rows[block[:, None], perm] - assigned + chain).max(axis=1)
        m = np.maximum(chain, self.reach[room] + (m_a - own)[:, None])
        m[:, a] = m_a
        shared = welfare[block, room] - self.rent - m.sum(axis=1)
        # u_i * n * scale = shared + n * m_i
        return perm, assigned, shared[:, None] + n * m


def _scores(instance, true_rows, objective, perm, pay, nscale):
    """Exact integer score per candidate, larger is better.  ``pay`` holds
    payment numerators over ``nscale``; ``true_rows`` is the scaled truth."""
    import numpy as np

    if isinstance(objective, ExcludeFromRooms):
        targets = [instance.agent_index(a) for a in sorted(objective.targets)]
        rooms = [instance.room_index(r) for r in objective.rooms]
        return ~np.isin(perm[:, targets], rooms).any(axis=1)
    if isinstance(objective, MinimizeCoalitionPayments):
        members = sorted(instance.agent_index(a) for a in objective.coalition)
        return -pay[:, members].sum(axis=1)
    if isinstance(objective, SubsidizeAgent):
        ben = instance.agent_index(objective.beneficiary)
        cap = math.floor(objective.max_price * nscale)
        return (perm[:, ben] == instance.room_index(objective.room)) & (pay[:, ben] <= cap)
    if isinstance(objective, MaximizeTrueUtility):
        who = instance.agent_index(objective.agent)
        return instance.n * true_rows[who][perm[:, who]] - pay[:, who]
    raise TypeError(f"unknown objective {objective!r}")


def _priced_blocks(instance, objective, grid, rows, agent_index):
    """Yield (units, scores, perm, pay) per block of one agent's candidate
    rows, every other row as in ``rows``, the integer rows of the search's
    ``manipulation._Grid``, in lexicographic order: a row is ``units * step``,
    ``perm`` maps each agent to its room and ``pay`` holds payment numerators
    over n*scale."""
    import numpy as np

    fast = _FastMechanism(rows, agent_index, grid.rent)
    n = instance.n
    true_rows = np.array(grid.truth, dtype=fast.dtype)
    for units in _composition_blocks(grid.steps, n):
        perm, assigned, u_num = fast.solve(units.astype(fast.dtype) * grid.unit)
        pay = n * assigned - u_num
        yield units, _scores(instance, true_rows, objective, perm, pay, n * grid.scale), perm, pay
