"""Coalition modelling: strategy templates, misreport search, deviation scoring.

Templates construct the three archetypal coordinated misreports (room capture,
defensive inflation, preference flattening).  The search operations enumerate
every report row on a value grid, in lexicographic order and in blocks of
SEARCH_BLOCK rows, and score each block in one array pass of the mechanism on
integer-scaled values (``_FastMechanism``): once per search, the per-room
winners and the others' envy chains come from ``matching.canonical_optimum``
and ``pricing.envy_closure``, after which each candidate costs O(n) array
work.  The arithmetic is exact: int64 where a bound shows it cannot wrap,
Python integers otherwise.  The test suite pins this kernel against the exact
simplex route and against the closure of each candidate's whole envy graph.

A search also yields the mechanism's ``Outcome`` on the reports it returns,
built from the winning candidate's assignment and integer payments, so
``rentdiv manipulate --search`` solves only the truth; the LP route is a
cross-check in the tests, not a second solve of the winning reports.

Only the search kernel uses numpy, and imports it where it runs, so that
templates, deviation reports and every command but ``--search`` never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import matching, pricing
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

class InfeasibleTemplate(RentDivisionError):
    pass


class SearchSpaceTooLarge(RentDivisionError):
    def __init__(self, count: int):
        self.count = count
        self.budget = SEARCH_BUDGET
        super().__init__(f"{count} candidate rows exceed the budget of {SEARCH_BUDGET}")


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcludeFromRooms:
    targets: frozenset
    rooms: frozenset

    def __init__(self, targets: Iterable[str], rooms: Iterable[str]):
        object.__setattr__(self, "targets", frozenset(targets))
        object.__setattr__(self, "rooms", frozenset(rooms))


@dataclass(frozen=True)
class MinimizeOwnPayment:
    agent: str

    @property
    def coalition(self) -> frozenset:
        """The coalition of one, so both min-pay objectives share a formula."""
        return frozenset((self.agent,))


@dataclass(frozen=True)
class MinimizeCoalitionPayments:
    coalition: frozenset

    def __init__(self, coalition: Iterable[str]):
        object.__setattr__(self, "coalition", frozenset(coalition))


@dataclass(frozen=True)
class SubsidizeAgent:
    beneficiary: str
    room: str
    max_price: Fraction

    def __post_init__(self):
        object.__setattr__(self, "max_price", to_rational(self.max_price))


@dataclass(frozen=True)
class MaximizeTrueUtility:
    agent: str


Objective = object  # any of the five dataclasses above
_MIN_PAY = (MinimizeOwnPayment, MinimizeCoalitionPayments)


def _check_labels(instance: Instance, what: str, agents, rooms=()) -> None:
    """Raise ValueError naming every agent or room label the instance lacks."""
    bad = (set(agents) - set(instance.agent_ids)) | (set(rooms) - set(instance.room_ids))
    if bad:
        raise ValueError(f"{what} references unknown labels: {sorted(bad)}")


def _check_objective(instance: Instance, objective) -> None:
    if isinstance(objective, ExcludeFromRooms):
        agents, rooms = objective.targets, objective.rooms
    elif isinstance(objective, _MIN_PAY):
        agents, rooms = objective.coalition, ()
    elif isinstance(objective, SubsidizeAgent):
        agents, rooms = (objective.beneficiary,), (objective.room,)
    elif isinstance(objective, MaximizeTrueUtility):
        agents, rooms = (objective.agent,), ()
    else:
        raise TypeError(f"unknown objective {objective!r}")
    _check_labels(instance, "objective", agents, rooms)


def exclusion_check(outcome: Outcome, targets: Iterable[str], rooms: Iterable[str]) -> bool:
    """True iff no target agent is assigned any of the listed rooms."""
    rooms = set(rooms)
    return all(outcome.assignment.room_of(a) not in rooms for a in targets)


def objective_value(
    instance: Instance, true_matrix: ValuationMatrix, outcome: Outcome, objective
):
    """The quantity the objective cares about, always measured against true
    values (payments are report-independent facts)."""
    if isinstance(objective, ExcludeFromRooms):
        return exclusion_check(outcome, objective.targets, objective.rooms)
    if isinstance(objective, _MIN_PAY):
        return sum(outcome.payment_of(a) for a in sorted(objective.coalition))
    if isinstance(objective, SubsidizeAgent):
        return (
            outcome.assignment.room_of(objective.beneficiary) == objective.room
            and outcome.payment_of(objective.beneficiary) <= objective.max_price
        )
    if isinstance(objective, MaximizeTrueUtility):
        utilities = compute_utilities(instance, true_matrix, outcome.assignment, outcome.prices)
        return utilities[objective.agent]
    raise TypeError(f"unknown objective {objective!r}")


def objective_satisfied(
    instance: Instance,
    true_matrix: ValuationMatrix,
    honest: Outcome,
    manipulated: Outcome,
    objective,
) -> bool:
    """Predicate objectives: did the condition hold.  Optimization objectives:
    did the manipulation strictly improve on the honest outcome."""
    value = objective_value(instance, true_matrix, manipulated, objective)
    if isinstance(objective, (ExcludeFromRooms, SubsidizeAgent)):
        return bool(value)
    baseline = objective_value(instance, true_matrix, honest, objective)
    if isinstance(objective, _MIN_PAY):
        return value < baseline
    return value > baseline


# ---------------------------------------------------------------------------
# Deviation reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationReport:
    honest_outcome: Outcome
    manipulated_outcome: Outcome
    payment_delta: dict  # agent -> Fraction (manipulated payment - honest payment)
    true_utility_delta: dict  # agent -> Fraction, both sides under TRUE values
    envy_under_truth: tuple  # (agent, agent) pairs
    objective_satisfied: bool
    objective_value: object  # Fraction or bool


def evaluate_deviation(
    instance: Instance,
    true_matrix: ValuationMatrix,
    reported_matrix: ValuationMatrix,
    objective,
) -> DeviationReport:
    """Solve the mechanism on truth and on the reports, compare under truth."""
    # Each solve validates its matrix, before the objective is checked.
    honest = pricing.solve(instance, true_matrix)
    manipulated = pricing.solve(instance, reported_matrix)
    _check_objective(instance, objective)
    return _deviation_report(instance, true_matrix, honest, manipulated, objective)


def _deviation_report(
    instance: Instance,
    true_matrix: ValuationMatrix,
    honest: Outcome,
    manipulated: Outcome,
    objective,
) -> DeviationReport:
    """Compare two solved outcomes under the true values."""
    payment_delta = {
        a: manipulated.payment_of(a) - honest.payment_of(a)
        for a in instance.agent_ids
    }
    true_honest = compute_utilities(
        instance, true_matrix, honest.assignment, honest.prices
    )
    true_manip = compute_utilities(
        instance, true_matrix, manipulated.assignment, manipulated.prices
    )
    true_utility_delta = {
        a: true_manip[a] - true_honest[a] for a in instance.agent_ids
    }
    rank = instance.agent_index
    envy = sorted(
        (
            (a, manipulated.assignment.agent_of(room))
            for a, room, _ in pricing.is_envy_free(
                instance, true_matrix, manipulated.assignment, manipulated.prices
            )
        ),
        key=lambda pair: (rank(pair[0]), rank(pair[1])),
    )
    return DeviationReport(
        honest_outcome=honest,
        manipulated_outcome=manipulated,
        payment_delta=payment_delta,
        true_utility_delta=true_utility_delta,
        envy_under_truth=tuple(envy),
        objective_satisfied=objective_satisfied(
            instance, true_matrix, honest, manipulated, objective
        ),
        objective_value=objective_value(instance, true_matrix, manipulated, objective),
    )


# ---------------------------------------------------------------------------
# Strategy templates
# ---------------------------------------------------------------------------

CLAIM_VALUE = Fraction(15)  # exclusionary: a member's bid on its claimed room
FILLER_VALUE = Fraction(9)  # exclusionary: a member's bid on each victim room
INFLATE_VALUE = Fraction(12)  # defensive: a defender's bid on each contested room


def template_exclusionary(
    instance: Instance,
    true_matrix: ValuationMatrix,
    coalition: list,
    claimed_rooms: list,
    victim_rooms: Iterable[str],
) -> ValuationMatrix:
    """Room-capture misreport: each member overbids its claimed room, parks
    filler mass on the victims' rooms, and splits the exact leftover over the
    other members' claimed rooms.

    The leftover is split into near-equal descending parts handed out in
    cyclic coalition order starting from the member after oneself.
    """
    validate_instance(instance, true_matrix)
    victim_rooms = list(dict.fromkeys(victim_rooms))
    _check_labels(instance, "template", coalition, [*claimed_rooms, *victim_rooms])
    if len(coalition) != len(claimed_rooms):
        raise ValueError("coalition and claimed_rooms must pair up")
    if set(claimed_rooms) & set(victim_rooms):
        raise ValueError("claimed and victim rooms overlap")

    room_of_member = dict(zip(coalition, claimed_rooms))
    matrix = true_matrix
    remainder = instance.total_rent - CLAIM_VALUE - FILLER_VALUE * len(victim_rooms)
    if remainder < 0:
        raise InfeasibleTemplate(
            f"claim {CLAIM_VALUE} plus fillers exceed the rent by {-remainder}"
        )
    k = len(coalition) - 1
    if k == 0 and remainder != 0:
        raise InfeasibleTemplate(
            "a lone member cannot place the leftover on other claimed rooms"
        )
    for m, agent in enumerate(coalition):
        row = [Fraction(0)] * instance.n
        row[instance.room_index(room_of_member[agent])] = CLAIM_VALUE
        for r in victim_rooms:
            row[instance.room_index(r)] = FILLER_VALUE
        if k:
            parts = _descending_parts(remainder, k)
            others = coalition[m + 1 :] + coalition[:m]
            for other, part in zip(others, parts):
                row[instance.room_index(room_of_member[other])] = part
        matrix = matrix.replace_row(instance.agent_index(agent), row)
    validate_instance(instance, matrix)
    return matrix


def _descending_parts(total: Fraction, k: int) -> list:
    """Split a nonnegative amount into k near-equal parts, largest first."""
    if total.denominator == 1:
        base, extra = divmod(total.numerator, k)
        return [Fraction(base + 1)] * extra + [Fraction(base)] * (k - extra)
    return [total / k] * k


def template_flatten(
    instance: Instance,
    true_matrix: ValuationMatrix,
    coalition: Iterable[str],
    own_room: dict,
) -> ValuationMatrix:
    """Indifference misreport: floor(R/n) on every room, the leftover cent
    mass on the member's own room."""
    validate_instance(instance, true_matrix)
    coalition = list(coalition)
    _check_labels(instance, "template", coalition, own_room.values())
    for agent in coalition:
        if agent not in own_room:
            raise ValueError(f"own_room missing for {agent}")
    n = instance.n
    base = Fraction(math.floor(instance.total_rent / n))
    leftover = instance.total_rent - n * base
    matrix = true_matrix
    for agent in coalition:
        row = [base] * n
        row[instance.room_index(own_room[agent])] += leftover
        matrix = matrix.replace_row(instance.agent_index(agent), row)
    validate_instance(instance, matrix)
    return matrix


def template_defensive(
    instance: Instance,
    true_matrix: ValuationMatrix,
    defenders: Iterable[str],
    contested: dict,
) -> ValuationMatrix:
    """Counter-bidding misreport: each defender inflates its two contested
    rooms and spreads the exact leftover over the remaining rooms.

    Leftover rule (calibrated against the archetypal defender rows): the
    remaining room the defender truly values most is sacrificed down to a
    token 1, the others start from their true values, and the row is then
    corrected in unit steps - additions go to the currently cheapest
    non-sacrificed room, removals come off the currently richest (ties break
    to the lower room index).
    """
    validate_instance(instance, true_matrix)
    defenders = list(defenders)
    rooms = [r for pair in contested.values() for r in pair]
    _check_labels(instance, "template", defenders, rooms)
    matrix = true_matrix
    remainder = instance.total_rent - 2 * INFLATE_VALUE
    if remainder < 0:
        raise InfeasibleTemplate(
            f"two bids of {INFLATE_VALUE} exceed the rent {instance.total_rent}"
        )
    for agent in defenders:
        if agent not in contested:
            raise ValueError(f"contested rooms missing for {agent}")
        pair = contested[agent]
        if len(set(pair)) != 2:
            raise ValueError(f"{agent} must contest two distinct rooms")
        i = instance.agent_index(agent)
        row = [Fraction(0)] * instance.n
        for r in pair:
            row[instance.room_index(r)] = INFLATE_VALUE
        rest = [
            j
            for j in range(instance.n)
            if instance.room_ids[j] not in pair
        ]
        if rest and remainder > 0:
            _fill_defensive_rest(row, rest, [true_matrix.value(i, j) for j in rest], remainder)
        elif remainder > 0:
            raise InfeasibleTemplate("no rooms left to carry the leftover")
        matrix = matrix.replace_row(i, row)
    validate_instance(instance, matrix)
    return matrix


def _fill_defensive_rest(row, rest, true_values, remainder):
    sacrifice = max(range(len(rest)), key=lambda k: (true_values[k], -rest[k]))
    alloc = list(true_values)
    alloc[sacrifice] = min(Fraction(1), remainder)
    diff = remainder - sum(alloc)
    movable = [k for k in range(len(rest)) if k != sacrifice] or [sacrifice]
    while diff > 0:
        step = min(Fraction(1), diff)
        k = min(movable, key=lambda k: (alloc[k], rest[k]))
        alloc[k] += step
        diff -= step
    while diff < 0:
        candidates = [k for k in movable if alloc[k] > 0] or [sacrifice]
        k = max(candidates, key=lambda k: (alloc[k], -rest[k]))
        step = min(Fraction(1), -diff, alloc[k])
        alloc[k] -= step
        diff += step
    for k, j in enumerate(rest):
        row[j] = alloc[k]


# ---------------------------------------------------------------------------
# Exhaustive misreport search
# ---------------------------------------------------------------------------

SEARCH_BUDGET = 10**7  # candidate rows per member; beyond it a search refuses
SEARCH_BLOCK = 1024  # candidate rows scored per array pass
MAX_ROUNDS = 10  # coalition rounds before a search gives up on convergence


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
    x of one searching agent a while every other row stays fixed.

    Fix the room r the agent gets.  Among the assignments that give it r, the
    agent adds the same welfare and the same (value, agent) entry at room r
    to the canonical tie-break, so the canonical optimum of that group is the
    canonical optimum sigma_r of the others on the other rooms
    (``matching.canonical_optimum``), whatever x is.  These n per-room
    winners are found once; for a block of B rows, welfare is then a (B, n)
    array, and winners tied on welfare are settled room by room on
    value*n + agent keys, which order exactly like the (value, agent) pairs.

    Maximin utilities are u_i = (W - R - sum(m))/n + m_i, with m_i the
    heaviest walk leaving i in the envy graph whose edge i -> k weighs
    v_i(sigma(k)) - v_k(sigma(k)).  Only the edges at a depend on x, so the
    closure C_r of the others' envy graph under sigma_r
    (``pricing.envy_closure``) is also found once per room, giving each
    other agent i its chain m'_i = max_k C_r[i][k] among the others and its
    heaviest walk into a, reach_r[i] - x[r] with reach_r[i] =
    max_k (C_r[i][k] + v_k(r)), since the edge k -> a weighs v_k(r) - x[r].
    The winner has no positive envy cycle, so a heaviest walk visits a at
    most once, and per candidate
        m_a = max(0, max_{k != a} (x[sigma_r(k)] - v_k(sigma_r(k)) + m'_k)),
        m_i = max(m'_i, reach_r[i] - x[r] + m_a),
    that is O(n) array work.

    Values lie in [0, R] for the scaled rent R, envy weights in [-R, R] and
    chains in [0, (n-1)R]; the largest intermediate, a coalition's summed
    payment numerator over n*scale, is at most 2*n**3*R in absolute value.
    When 4*n**3*(R + 1) does not fit in int64 the same arrays are built with
    dtype=object, so arithmetic is exact Python integers and never wraps.
    """

    def __init__(self, instance: Instance, matrix: ValuationMatrix, agent: int, scale: int):
        import numpy as np

        n = instance.n
        self.n = n
        self.agent = agent
        rent = instance.total_rent * scale
        if rent.denominator != 1:
            raise ValueError(f"scale {scale} does not make the rent integral")
        self.rent = int(rent)
        self.dtype = np.int64 if 4 * n**3 * (self.rent + 1) < 2**63 else object
        rows = pricing._scaled_rows(matrix.values, scale)
        others = [k for k in range(n) if k != agent]
        # Per room r of the searching agent, indexed by agent: the winning
        # assignment, each agent's value of its room, m'_i and reach_r[i] (0
        # at the agent), tie-break keys by room; and the others' welfare.
        perm, assigned, chain, reach, keys, welfare = [], [], [], [], [], []
        for r in range(n):
            rooms = [j for j in range(n) if j != r]
            sub, w = matching.canonical_optimum([[rows[k][j] for j in rooms] for k in others])
            sigma = [r] * n
            for k, j in zip(others, sub):
                sigma[k] = rooms[j]
            closed = pricing.envy_closure(
                pricing.envy_matrix([rows[k] for k in others], [sigma[k] for k in others])
            )
            chain_r, reach_r = [0] * n, [0] * n
            for k, row in zip(others, closed):
                chain_r[k] = max(row)
                reach_r[k] = max(c + rows[o][r] for c, o in zip(row, others))
            occupant = [0] * n
            for k, j in enumerate(sigma):
                occupant[j] = k
            perm.append(sigma)
            assigned.append([rows[k][j] for k, j in enumerate(sigma)])
            chain.append(chain_r)
            reach.append(reach_r)
            keys.append([rows[k][j] * n + k for j, k in enumerate(occupant)])
            welfare.append(w)
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
    if isinstance(objective, _MIN_PAY):
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


def _score_value(objective, score, nscale):
    """The objective value a score stands for, as ``objective_value`` gives it."""
    if isinstance(objective, (ExcludeFromRooms, SubsidizeAgent)):
        return bool(score)
    if isinstance(objective, MaximizeTrueUtility):
        return Fraction(int(score), nscale)
    return Fraction(-int(score), nscale)


def _priced_blocks(instance, true_matrix, matrix, agent_index, objective, step, scale):
    """Yield (units, scores, perm, pay) per block of one agent's candidate
    rows, in lexicographic order: a row is ``units * step``, ``perm`` maps
    each agent to its room and ``pay`` holds payment numerators over n*scale."""
    import numpy as np

    fast = _FastMechanism(instance, matrix, agent_index, scale)
    n = instance.n
    step_int = int(step * scale)
    true_rows = np.array(pricing._scaled_rows(true_matrix.values, scale), dtype=fast.dtype)
    for units in _composition_blocks(int(instance.total_rent / step), n):
        perm, assigned, u_num = fast.solve(units.astype(fast.dtype) * step_int)
        pay = n * assigned - u_num
        yield units, _scores(instance, true_rows, objective, perm, pay, n * scale), perm, pay


def _score_blocks(instance, true_matrix, matrix, agent_index, objective, step, scale):
    """(units, scores) of each block of ``_priced_blocks``."""
    for units, scores, _, _ in _priced_blocks(
        instance, true_matrix, matrix, agent_index, objective, step, scale
    ):
        yield units, scores


def _best_response(instance, true_matrix, matrix, agent_index, objective, step, scale):
    """(row, value, perm, pay) of the best report row, with that row's
    assignment and payment numerators as ``_priced_blocks`` gives them; ties
    go to the first row in lexicographic order."""
    best = None
    for units, scores, perm, pay in _priced_blocks(
        instance, true_matrix, matrix, agent_index, objective, step, scale
    ):
        k = int(scores.argmax())
        if best is None or scores[k] > best[1]:
            best = units[k], scores[k], perm[k], pay[k]
    units, score, perm, pay = best
    row = tuple(int(u) * step for u in units)
    return row, _score_value(objective, score, instance.n * scale), perm, pay


def _prepare_search(instance, true_matrix, step):
    validate_instance(instance, true_matrix)
    step = to_rational(step)
    if step <= 0:
        raise ValueError("step must be positive")
    units = instance.total_rent / step
    if units.denominator != 1:
        raise ValueError("step must divide the total rent")
    count = math.comb(int(units) + instance.n - 1, instance.n - 1)
    if count > SEARCH_BUDGET:
        raise SearchSpaceTooLarge(count)
    scale = math.lcm(
        step.denominator,
        instance.total_rent.denominator,
        *(v.denominator for row in true_matrix.values for v in row),
    )
    return step, scale


def best_response_search(
    instance: Instance,
    true_matrix: ValuationMatrix,
    agent: str,
    objective,
    step=Fraction(1),
):
    """Exhaustively enumerate one agent's report rows, all others truthful:
    ``coalition_search`` for the coalition of one.

    Returns (best_row, achieved_value) where the value is measured against
    true preferences.  Ties go to the lexicographically smallest row.  The
    true row is a candidate only when ``step`` divides each of the agent's
    true values; only then can the result never score worse than honesty.
    """
    reported, value, _ = coalition_search(instance, true_matrix, (agent,), objective, step)
    return reported.row(instance.agent_index(agent)), value


def coalition_search(
    instance: Instance,
    true_matrix: ValuationMatrix,
    coalition: Iterable[str],
    objective,
    step=Fraction(1),
):
    """Coordinate-ascent over coalition members' rows.

    Cycles through members in roster order, replacing each row with its best
    response holding the others fixed.  A best response reads only the other
    rows, so a member's row stays one until another member's row changes.
    The search stops, converged, as soon as every member's row is a best
    response to the current rows of the others, or unconverged after
    MAX_ROUNDS rounds.  Returns (reported_matrix, achieved_value, converged).
    As in ``best_response_search``, the value can be worse than honesty's
    when ``step`` does not divide every member's true values.
    """
    return _coalition_search(instance, true_matrix, coalition, objective, step)[:3]


def _coalition_search(instance, true_matrix, coalition, objective, step):
    """``coalition_search``'s result plus the mechanism's ``Outcome`` on the
    returned reports.

    The last best response was scored with every other row at its value in
    the returned matrix, so its winning candidate's assignment and payments
    are those of ``pricing.solve`` on that matrix, converged or not; the
    outcome is built from them without solving again.
    """
    _check_objective(instance, objective)
    coalition = set(coalition)
    _check_labels(instance, "coalition", coalition)
    step, scale = _prepare_search(instance, true_matrix, step)
    members = [i for i, a in enumerate(instance.agent_ids) if a in coalition]
    if not members:
        raise ValueError("coalition is empty")

    current = true_matrix
    settled = 0  # members, up to this one, whose rows are best responses
    for turn in range(MAX_ROUNDS * len(members)):
        agent_index = members[turn % len(members)]
        # The value is that of `current` once this row is in place.
        row, value, perm, pay = _best_response(
            instance, true_matrix, current, agent_index, objective, step, scale
        )
        if row == current.row(agent_index):
            settled += 1
        else:
            current = current.replace_row(agent_index, row)
            settled = 1
        if settled == len(members):
            break

    perm = perm.tolist()
    nscale = instance.n * scale
    prices = [Fraction(0)] * instance.n
    for room, numerator in zip(perm, pay.tolist()):
        prices[room] = Fraction(numerator, nscale)
    outcome = build_outcome(
        instance,
        current,
        Assignment.from_indices(instance, perm),
        PriceVector.from_list(instance, prices),
    )
    return current, value, settled == len(members), outcome
