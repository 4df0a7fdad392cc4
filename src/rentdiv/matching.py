"""Welfare-maximizing agent->room assignment.

An O(n^3) Hungarian method over exact rationals finds the optimum welfare,
and ties between optima are broken the same way every time: rooms are claimed
in index order, each going to the agent with the highest reported value for
it among those who can still take it without sacrificing total welfare, with
the later roster position winning exact value ties.  Equivalently: among all
optima, pick the one whose room-ordered sequence of (value, agent-index)
pairs is lexicographically greatest.  This rule reproduces the observed tie
choices of the live platform.

The factorial enumerators that check this route (``brute_force_assignment``,
``all_optimal_assignments``, ``tie_break_key``) live in ``rentdiv.oracles``,
which no command imports.  Two of them still resolve here, on first use,
for the benchmark's checks only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Assignment,
    Instance,
    ValuationMatrix,
    validate_instance,
)

# The two oracle names that bench/workloads.py and bench/test_bench.py read here.
_ORACLES = frozenset(("brute_force_assignment", "all_optimal_assignments"))


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class WelfareResult:
    assignment: Assignment
    welfare: Fraction


def _hungarian_value(values):
    """Maximum-weight perfect matching value of a square matrix of exact
    numbers (ints or Fractions).

    Classic potentials/shortest-augmenting-path formulation on the min-cost
    matrix C - v (shifted so all costs are nonnegative).  An empty matrix
    has value 0.
    """
    n = len(values)
    shift = max((max(row) for row in values), default=0)
    cost = [[shift - v for v in row] for row in values]

    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-based, 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [None] * (n + 1)  # None: no bound yet, as if infinite
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = None
            j1 = -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    low = minv[j]
                    if low is None or cur < low:
                        minv[j] = low = cur
                        way[j] = j0
                    if delta is None or low < delta:
                        delta = low
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
    representative is then pinned down room by room.  Each room j (in index
    order) goes to the strongest feasible claimant: among the still-free
    agents who can take it while the rest still reach the optimum (tested
    against the Hungarian value of the residual rows, the other free agents
    on rooms j+1.., which is 0 once none are left), the one with the highest
    value for the room, later roster position breaking exact ties.
    """
    n = len(rows)
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
            rest = _hungarian_value([rows[k][j + 1:] for k in free_agents if k != i])
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
