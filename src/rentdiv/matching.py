"""Welfare-maximizing agent->room assignment.

Two independent routes are provided: an O(n^3) Hungarian method over exact
rationals, and a factorial brute-force enumeration used as its oracle.  Both
break welfare ties the same way: rooms are claimed in index order, each going
to the agent with the highest reported value for it among those who can still
take it without sacrificing total welfare, with the later roster position
winning exact value ties.  Equivalently: among all optima, pick the one whose
room-ordered sequence of (value, agent-index) pairs is lexicographically
greatest.  This rule reproduces the observed tie choices of the live platform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Assignment,
    Instance,
    RentDivisionError,
    ValuationMatrix,
    validate_instance,
)

BRUTE_FORCE_LIMIT = 9


class InstanceTooLarge(RentDivisionError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"n={n} exceeds the enumeration limit of {BRUTE_FORCE_LIMIT}")


@dataclass(frozen=True)
class WelfareResult:
    assignment: Assignment
    welfare: Fraction


def tie_break_key(perm, rows) -> tuple:
    """Sort key for the canonical tie-break: the optimum MAXIMIZING this key
    wins.  ``perm`` maps agent index -> room index; ``rows`` is the value
    matrix the assignment was optimized against."""
    n = len(perm)
    inv = [0] * n
    for agent, room in enumerate(perm):
        inv[room] = agent
    return tuple((rows[inv[j]][j], inv[j]) for j in range(n))


def _hungarian_value(values):
    """Maximum-weight perfect matching value of a square matrix of exact
    numbers (ints or Fractions).

    Classic potentials/shortest-augmenting-path formulation on the min-cost
    matrix C - v (shifted so all costs are nonnegative).
    """
    n = len(values)
    shift = max(max(row) for row in values)
    cost = [[shift - v for v in row] for row in values]

    INF = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-based, 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return sum(values[p[j] - 1][j - 1] for j in range(1, n + 1))


def canonical_optimum(rows) -> tuple:
    """(perm, welfare) of the canonical welfare optimum of a square matrix of
    exact numbers (ints or Fractions); ``perm`` maps agent -> room.  No
    validation: rows need not sum to anything, and an empty matrix gives
    ((), 0).

    The optimum value comes from the Hungarian method; the canonical
    representative is then pinned down room by room.  Each room (in index
    order) goes to the strongest feasible claimant: among the still-free
    agents who can take it while the rest still reach the optimum (tested
    against the Hungarian value of the residual subproblem), the one with the
    highest value for the room, later roster position breaking exact ties.
    """
    n = len(rows)
    if n == 0:
        return (), 0
    best = _hungarian_value(rows)

    perm: list[int | None] = [None] * n
    free_agents = list(range(n))
    fixed = 0
    for j in range(n):
        claimant = None
        for i in free_agents:
            if claimant is not None and (rows[i][j], i) < (
                rows[claimant][j],
                claimant,
            ):
                continue
            rest_agents = [k for k in free_agents if k != i]
            if rest_agents:
                rest_rooms = [r for r in range(j + 1, n)]
                sub = [[rows[k][r] for r in rest_rooms] for k in rest_agents]
                rest = _hungarian_value(sub)
            else:
                rest = 0
            if fixed + rows[i][j] + rest == best:
                claimant = i
        if claimant is None:  # pragma: no cover - some agent must take room j
            raise AssertionError("no claimant reaches the optimal welfare")
        perm[claimant] = j
        fixed += rows[claimant][j]
        free_agents.remove(claimant)
    return tuple(perm), best


def max_welfare_assignment(
    instance: Instance, matrix: ValuationMatrix
) -> WelfareResult:
    """Welfare-maximizing assignment under the canonical tie-break
    (``canonical_optimum`` on the validated reports)."""
    validate_instance(instance, matrix)
    perm, best = canonical_optimum(matrix.values)
    return WelfareResult(Assignment.from_indices(instance, perm), best)


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
