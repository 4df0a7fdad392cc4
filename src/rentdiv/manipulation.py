"""Coalition modelling: strategy templates, misreport search, deviation scoring.

An objective scores an outcome against the true values.  There are four
kinds, one class each, with the CLI spelling and the sense:

- ``ExcludeFromRooms`` (``exclude:``), a predicate: no target agent gets any
  of the rooms;
- ``SubsidizeAgent`` (``subsidize:``), a predicate: the beneficiary gets the
  room and pays at most the cap;
- ``MinimizeCoalitionPayments`` (``min-pay:``), minimised: the members'
  total payment, one member's own payment for a coalition of one;
- ``MaximizeTrueUtility`` (``max-util:``), maximised: the agent's utility
  under its true values.

Templates construct the three archetypal coordinated misreports (room capture,
defensive inflation, preference flattening).  The search finds one agent's
best report row on a value grid without scoring rows one by one: once the
room the agent wins is fixed, the mechanism's outcome depends on its row only
through one integer, its chain offset y, and the rows that reach each room
and offset form boxes with closed-form bounds (``_best_response``).  The
per-room tables behind it, the others' canonical optima and envy chains,
come once per best response from ``matching.canonical_optimum`` and
``pricing.envy_closure`` (``_room_tables``), and the payments from
``pricing.payment_numerators``, as in ``pricing.maximin_prices``.  All of it
is exact integer arithmetic on one integer form per search (``_Grid``).

A search also yields the mechanism's ``Outcome`` on the reports it returns,
built from the best row's assignment and integer payments, and the honest
``Outcome``, priced on the canonical optimum of the same integer form, so
``rentdiv manipulate --search`` runs no ``Fraction`` Hungarian.

The module runs in pure Python.  The tests hold the search to the numpy
enumeration oracle in ``rentdiv.oracles``, which scores every report row of
the grid (``_FastMechanism``); no command imports it.
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
    RentDivisionError,
    SearchSpaceTooLarge,
    ValuationMatrix,
    abbreviate,
    compute_utilities,
    to_rational,
    validate_instance,
)


class InfeasibleTemplate(RentDivisionError):
    pass


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


# An objective kind states its own rules: ``labels()``, the (agents, rooms) it
# names; ``value(instance, true_matrix, outcome)``, measured against the true
# values; ``sense``, 0 for a predicate, -1 if minimised, +1 if maximised; and
# ``margin(instance, grid, perm)``, margin(r, pay) on a search's _Grid where
# the searcher wins room r, under assignment perm[r] and payment numerators
# pay over n*scale.  A predicate holds where the margin is nonnegative; a
# numeric objective's margin is sense * value * n*scale, as in oracles._scores.


@dataclass(frozen=True)
class ExcludeFromRooms:
    targets: frozenset
    rooms: frozenset
    sense = 0

    def __init__(self, targets: Iterable[str], rooms: Iterable[str]):
        object.__setattr__(self, "targets", frozenset(targets))
        object.__setattr__(self, "rooms", frozenset(rooms))

    def labels(self):
        return self.targets, self.rooms

    def value(self, instance, true_matrix, outcome) -> bool:
        return all(outcome.assignment.room_of(a) not in self.rooms for a in self.targets)

    def margin(self, instance, grid, perm):
        targets = [instance.agent_index(a) for a in self.targets]
        rooms = {instance.room_index(r) for r in self.rooms}
        ok = [all(p[t] not in rooms for t in targets) for p in perm]
        return lambda r, pay: 0 if ok[r] else -1


@dataclass(frozen=True)
class MinimizeCoalitionPayments:
    coalition: frozenset
    sense = -1

    def __init__(self, coalition: Iterable[str]):
        object.__setattr__(self, "coalition", frozenset(coalition))

    def labels(self):
        return self.coalition, ()

    def value(self, instance, true_matrix, outcome) -> Fraction:
        return sum(outcome.payment_of(a) for a in sorted(self.coalition))

    def margin(self, instance, grid, perm):
        members = [instance.agent_index(a) for a in self.coalition]
        return lambda r, pay: -sum(pay[i] for i in members)


@dataclass(frozen=True)
class SubsidizeAgent:
    beneficiary: str
    room: str
    max_price: Fraction
    sense = 0

    def __post_init__(self):
        object.__setattr__(self, "max_price", to_rational(self.max_price))

    def labels(self):
        return (self.beneficiary,), (self.room,)

    def value(self, instance, true_matrix, outcome) -> bool:
        return (
            outcome.assignment.room_of(self.beneficiary) == self.room
            and outcome.payment_of(self.beneficiary) <= self.max_price
        )

    def margin(self, instance, grid, perm):
        ben = instance.agent_index(self.beneficiary)
        room = instance.room_index(self.room)
        cap = math.floor(self.max_price * instance.n * grid.scale)
        return lambda r, pay: cap - pay[ben] if perm[r][ben] == room else -1


@dataclass(frozen=True)
class MaximizeTrueUtility:
    agent: str
    sense = 1

    def labels(self):
        return (self.agent,), ()

    def value(self, instance, true_matrix, outcome) -> Fraction:
        utilities = compute_utilities(instance, true_matrix, outcome.assignment, outcome.prices)
        return utilities[self.agent]

    def margin(self, instance, grid, perm):
        who = instance.agent_index(self.agent)
        truth = grid.truth[who]
        return lambda r, pay: instance.n * truth[perm[r][who]] - pay[who]


_OBJECTIVES = (ExcludeFromRooms, MinimizeCoalitionPayments, SubsidizeAgent, MaximizeTrueUtility)


def _check_labels(instance: Instance, what: str, agents, rooms=()) -> None:
    """Raise ValueError naming every agent or room label the instance lacks."""
    bad = (set(agents) - set(instance.agent_ids)) | (set(rooms) - set(instance.room_ids))
    if bad:
        raise ValueError(f"{what} references unknown labels: {sorted(bad)}")


def _check_objective(instance: Instance, objective) -> None:
    if not isinstance(objective, _OBJECTIVES):
        raise TypeError(f"unknown objective {objective!r}")
    _check_labels(instance, "objective", *objective.labels())


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
    objective_satisfied: bool  # predicate holds, or strictly beats honesty
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
    """Compare two solved outcomes under the true values.  ``honest`` is the
    mechanism's outcome on ``true_matrix``, so its utilities are the true
    ones already.  The objective is evaluated once per side, on the honest
    one only for a numeric objective."""
    payment_delta = {
        a: manipulated.payment_of(a) - honest.payment_of(a)
        for a in instance.agent_ids
    }
    true_manip = compute_utilities(
        instance, true_matrix, manipulated.assignment, manipulated.prices
    )
    true_utility_delta = {
        a: true_manip[a] - honest.utilities[a] for a in instance.agent_ids
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
    value = objective.value(instance, true_matrix, manipulated)
    if objective.sense:
        satisfied = objective.sense * (value - objective.value(instance, true_matrix, honest)) > 0
    else:
        satisfied = bool(value)
    return DeviationReport(
        honest_outcome=honest,
        manipulated_outcome=manipulated,
        payment_delta=payment_delta,
        true_utility_delta=true_utility_delta,
        envy_under_truth=tuple(envy),
        objective_satisfied=satisfied,
        objective_value=value,
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
            f"claim {CLAIM_VALUE} plus fillers exceed the rent by {abbreviate(-remainder)}"
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
            f"two bids of {INFLATE_VALUE} exceed the rent {abbreviate(instance.total_rent)}"
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
    """Spread a defender's ``remainder`` over the rooms ``rest`` (indices
    into ``row``, which is written in place), as ``template_defensive``
    describes.

    The unit steps are not taken one by one: the whole units of a shortfall
    go where one-at-a-time steps would put them (``_least_unit_counts``) and
    its fraction to the least (alloc, room) after them, so the time does not
    grow with the rent.  An excess is removed one unit at a time: it is the
    contested bids and the sacrificed room's token less the true values they
    replace, so at most 2 * INFLATE_VALUE + 1, and it takes at most that many
    steps plus one per room.
    """
    sacrifice = max(range(len(rest)), key=lambda k: (true_values[k], -rest[k]))
    alloc = list(true_values)
    alloc[sacrifice] = min(Fraction(1), remainder)
    diff = remainder - sum(alloc)
    movable = [k for k in range(len(rest)) if k != sacrifice] or [sacrifice]
    if diff > 0:
        whole = math.floor(diff)
        for k, units in _least_unit_counts(alloc, movable, rest, whole).items():
            alloc[k] += units
        if diff > whole:
            k = min(movable, key=lambda k: (alloc[k], rest[k]))
            alloc[k] += diff - whole
    while diff < 0:
        candidates = [k for k in movable if alloc[k] > 0] or [sacrifice]
        k = max(candidates, key=lambda k: (alloc[k], -rest[k]))
        step = min(Fraction(1), -diff, alloc[k])
        alloc[k] -= step
        diff += step
    for k, j in enumerate(rest):
        row[j] = alloc[k]


def _least_unit_counts(alloc, movable, rest, units):
    """{k: units added to alloc[k]} when ``units`` whole units go, one at a
    time, to the least (alloc[k], rest[k]) over ``movable``.

    Room k's j-th unit lands at the integer level floor(alloc[k]) + j, and
    within one level the units go in the order of (alloc[k] -
    floor(alloc[k]), rest[k]).  So every room fills up to the highest level
    ``top`` with sum(max(0, top - floor(alloc[k]))) <= units, and the units
    left over go to the rooms at ``top``, in that order.
    """
    floors = {k: alloc[k].numerator // alloc[k].denominator for k in movable}
    levels = sorted(floors.values())
    below = 0  # the sum of the m lowest floors
    for m, f in enumerate(levels, 1):
        below += f
        top = (units + below) // m
        if m == len(levels) or top < levels[m]:
            break
    counts = {k: max(0, top - f) for k, f in floors.items()}
    at_top = sorted(
        (k for k, f in floors.items() if f <= top),
        key=lambda k: (alloc[k] - floors[k], rest[k]),
    )
    for k in at_top[: units - sum(counts.values())]:
        counts[k] += 1
    return counts


# ---------------------------------------------------------------------------
# Misreport search
# ---------------------------------------------------------------------------

# n**3 * grid steps per row, the cost of one best response, beyond which a
# search refuses.  A k-member search runs at most MAX_ROUNDS * k of them.
SEARCH_BUDGET = 10**6
MAX_ROUNDS = 10  # coalition rounds before a search gives up on convergence


@dataclass(frozen=True)
class _Grid:
    """A search's ``pricing.integer_form`` with the step folded in: the true
    rows and the rent times ``scale``, one grid step ``unit`` = step*scale,
    and the ``steps`` = rent/step in a row."""

    scale: int
    truth: list
    rent: int
    unit: int
    steps: int


def _room_tables(rows, agent):
    """The mechanism's data per room r the searching agent may win, none of
    it read from that agent's own row: (perm, assigned, chain, reach, keys,
    welfare), each a list indexed by r, on scaled integer reports ``rows``.

    Among the assignments that give the agent room r, the agent adds the same
    welfare and the same (value, agent) entry at room r to the canonical
    tie-break, so their canonical optimum sigma_r is that of the others on
    the other rooms (``matching.canonical_optimum``), whatever the agent
    reports.  ``perm[r]`` maps each agent to its room under sigma_r,
    ``assigned[r]`` is each agent's value of that room, ``keys[r]`` the
    tie-break key value*n + agent of each room's occupant by room (value*n +
    agent orders exactly like the (value, agent) pair), and ``welfare[r]``
    the others' welfare W_-r.  The agent's own entries, ``assigned[r][a]``
    and ``keys[r][r]``, hold the value 0 as a placeholder, which
    ``_best_response`` reads as the empty walk's c_r = 0.

    The envy edge i -> k weighs v_i(sigma(k)) - v_k(sigma(k)); only the
    edges at the agent read its row.  From the closure C_r of the others'
    envy graph under sigma_r (``pricing.envy_closure``), ``chain[r][i]`` is
    m'_i = max_k C_r[i][k], the heaviest chain of i among the others, and
    ``reach[r][i]`` is max_k (C_r[i][k] + v_k(r)); both are 0 at the agent.
    """
    n = len(rows)
    others = [k for k in range(n) if k != agent]
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
        perm.append(sigma)
        assigned.append([0 if k == agent else rows[k][j] for k, j in enumerate(sigma)])
        chain.append(chain_r)
        reach.append(reach_r)
        keys.append([assigned[r][k] * n + k for k in _occupants(sigma)])
        welfare.append(w)
    return perm, assigned, chain, reach, keys, welfare


def _occupants(sigma):
    """Room -> agent, the inverse of an agent -> room list."""
    occupant = [0] * len(sigma)
    for k, j in enumerate(sigma):
        occupant[j] = k
    return occupant


def _tie_rule(keys, r, s):
    """Whether room r beats room s on a welfare tie when that does not hang
    on the searching agent's row, else None.  The winner's key vector,
    keys[r] with the agent's own key at room r, is the larger one: the first
    room where keys[r] and keys[s] differ decides, unless it is r or s,
    where one side is the agent's key."""
    for j in range(min(r, s)):
        if keys[r][j] != keys[s][j]:
            return keys[r][j] > keys[s][j]
    return None


def _cap_runs(keys, welfare, r, a, unit, total):
    """The caps of room r on the other rooms as (q0, delta) runs in q0
    order: while a holds q own units, from q0 up to the next run's q0 (up to
    ``total`` after the last), a wins r only with x_s <= q + delta[s] grid
    units on each other room s.

    With D = W_-r - W_-s, the cap is the tied x_s = q*unit + D, one less
    when a welfare tie goes to s, so delta[s] is D // unit or (D - 1) //
    unit.  Unless a key before both rooms decides (``_tie_rule``), the tie
    goes to the larger key at room min(r, s), where one side is a's: for r <
    s, a's key q*unit*n + a beats keys[s][r] from some q on, and for r > s,
    keys[r][s] beats the tied key (q*unit + D)*n + a below some q.  Each
    room switches at most once, so room r has at most n runs.
    """
    n = len(keys)
    other = [s for s in range(n) if s != r]
    rule = {s: _tie_rule(keys, r, s) for s in other}
    starts = {0}
    for s in other:
        if rule[s] is None and r < s:  # the least q where a's key is larger
            starts.add((keys[s][r] - a) // (unit * n) + 1)
        elif rule[s] is None:  # the least q where the tied key is as large
            starts.add(-(((welfare[r] - welfare[s]) * n + a - keys[r][s]) // (unit * n)))
    runs = []
    for q0 in sorted(q for q in starts if 0 <= q <= total):
        delta = [0] * n
        for s in other:
            tied = q0 * unit + welfare[r] - welfare[s]  # the x_s of a welfare tie
            wins = rule[s]
            if wins is None and r < s:
                wins = q0 * unit * n + a > keys[s][r]
            elif wins is None:
                wins = keys[r][s] > tied * n + a
            delta[s] = (welfare[r] - welfare[s] - (not wins)) // unit
        if not runs or runs[-1][1] != delta:
            runs.append((q0, delta))
    return runs


def _level_terms(total, bounds):
    """Terms (b, k, m) of the least level over the (delta, e) pairs in
    ``bounds``: at q own units, the least integer v with v + sum(min(q +
    delta, v + e)) >= total - q is the largest (b - k*q) // m.

    The sum is the least, over the ways to pick one term per pair, of
    sum(q + delta) + sum(e - delta - q) + j*v over the j pairs that take v +
    e; for each j the j smallest (e - delta) bind, so v needs (j + 1)*v >=
    total - sum(delta) - (their sum) - (len(bounds) + 1 - j)*q for every j.
    Each term is that ceiling, with m = j + 1 and b = the right side's
    constant plus j.
    """
    k = len(bounds) + 1
    deficit = total - sum(delta for delta, _ in bounds)
    terms = [(deficit, k, 1)]
    for m, d in enumerate(sorted(e - delta for delta, e in bounds), 2):
        deficit -= d
        terms.append((deficit + m - 1, k + 1 - m, m))
    return terms


def _level_at(terms, q):
    """The least level of ``_level_terms`` at q own units."""
    return max((b - k * q) // m for b, k, m in terms)


def _lex_first(n, fixed, free, need):
    """The lexicographically first row of n grid units with the ``fixed``
    (room, units) entries and, on the ``free`` (room, bound) entries in room
    order, 0 <= u <= bound summing to ``need``; the bounds admit one."""
    row = [0] * n
    for k, u in fixed:
        row[k] = u
    left = sum(b for _, b in free)
    for k, b in free:
        left -= b
        row[k] = max(0, need - left)
        need -= row[k]
    return row


def _merge(spans):
    """Sorted [t1, t2] integer spans with overlapping or adjacent ones joined."""
    merged = []
    for t1, t2 in spans:
        if merged and t1 <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], t2)
        else:
            merged.append([t1, t2])
    return merged


def _best_response(instance, objective, grid, rows, agent_index):
    """(units, score, perm, pay) of the best report row of one agent, every
    other row as in ``rows``, the integer rows of ``grid``: the row in grid
    units, its score (a numeric objective's margin, or whether a predicate
    holds), and that row's assignment (agent -> room) and payment numerators
    over n*scale as lists of ints.  Ties go to the first row in lexicographic
    order.  It gives what the enumeration oracle
    ``oracles._priced_blocks`` gives, without scoring rows.

    Fix the room r the agent a wins; the outcome then hangs on a's row x
    through y = m_a - x_r alone: each other agent i has m_i = max(m'_i,
    reach_r[i] + y), and with d_i = v_i(sigma_r(i)) - m_i and d_a = -y the
    payments are ``pricing.payment_numerators(d)``.

    The rows in which a wins r with q units on it cap every other room s,
    x_s <= x_r + W_-r - W_-s, strictly when a welfare tie goes to s (the
    tie-break reads only x_r or x_s there).  Since m_a = max(0, max_s (x_s -
    c_s)) with c_s = v_k(s) - m'_k for the occupant k of s, they split into
    one family of boxes per room s* that attains m_a, indexed by v = u_s*:
    y = v*step - c_s* - x_r and each free room k holds u_k <= min(cap_k, v +
    e_k), e_k = floor((c_k - c_s*)/step).  The family s* = r is the empty
    walk, m_a = 0: c_r = 0 and v is held at 0.  Feasibility grows with v, so
    each family's v form one interval.  Each cap is q + delta_s, with delta
    constant on the at most n runs of q of ``_cap_runs``, so the least v of
    a family at q is a maximum of n - 1 terms linear in q
    (``_level_terms``), built once per run.

    With T grid steps in a row, the boxes of room r reach the points y =
    rho + unit*t on runs of t, per residue rho: T + 1 points on the empty
    walk and at most 2T + 1 per other family, so at most (n - 1)(2T + 1) + T
    + 1.  Each reachable point is scored once, in O(n), so the best score
    costs O(n**3 * T).  The first optimal row is the least, over the optimal
    boxes, of a box's first row.  Over a family, that row falls in
    lexicographic order as v rises until the free rooms before s* are empty,
    and rises with v after, so one v per family is a candidate.  Laying out
    the boxes is O(n**3 * T) integer work with no sort, against the C(T + n
    - 1, n - 1) rows of the grid.  Per q, only the (s*, lowest v, highest v)
    of each nonempty family are kept; the first-row pass rebuilds the caps
    of the boxes it visits.
    """
    n, a = instance.n, agent_index
    unit, total = grid.unit, grid.steps
    perm, assigned, chain, reach, keys, welfare = _room_tables(rows, a)
    margin = objective.margin(instance, grid, perm)

    def payments(r, y):
        # d_i = v_i(sigma_r(i)) - max(m'_i, reach_r[i] + y), inlined: this
        # runs once per reachable point
        d = [v - (c if c > h + y else h + y) for v, c, h in zip(assigned[r], chain[r], reach[r])]
        d[a] = -y
        return pricing.payment_numerators(d, grid.rent)

    # The boxes of each room r, by cap run (``_cap_runs``): the run's deltas
    # and, per own units q, the (s*, lowest v, highest v) of each nonempty
    # family, s* = r being the empty walk.  Grid points y = rho + unit*t
    # reached in r, as t-spans per residue rho.
    layout, reached = [], []
    for r in range(n):
        occupant = _occupants(perm[r])
        other = [s for s in range(n) if s != r]
        c = [assigned[r][k] - chain[r][k] for k in occupant]  # c[r] = 0
        e = [[(ck - cs) // unit for ck in c] for cs in c]
        # Family s* reaches y = residue + unit*t at t = v + offset - q, and
        # its chain alone asks v*unit >= c_s* and v + e_k >= 0.
        residue = [-cs % unit for cs in c]
        offset = [-cs // unit for cs in c]
        lowest = [
            max(0, -offset[s], *(-e[s][k] for k in other if k != s)) for s in range(n)
        ]
        runs, spans = [], {}
        reached_by = [spans.setdefault(rho, []) for rho in residue]
        cap_runs = _cap_runs(keys, welfare, r, a, unit, total)
        for (q0, delta), (q1, _) in zip(cap_runs, cap_runs[1:] + [(total + 1, None)]):
            deltas = [delta[s] for s in other]
            terms = [
                _level_terms(total, [(delta[k], e[s][k]) for k in other if k != s])
                for s in range(n)
            ]
            boxes = []
            # No cap falls below 0.
            for q in range(max(q0, -min(deltas, default=0)), q1):
                need = total - q
                if sum(min(q + d, need) for d in deltas) < need:
                    continue
                families = []
                for s, bound, into in zip(range(n), terms, reached_by):
                    hi = 0 if s == r else min(q + delta[s], need)
                    if lowest[s] > hi:
                        continue
                    lo = max(lowest[s], _level_at(bound, q))
                    if lo <= hi:
                        families.append((s, lo, hi))
                        shift = offset[s] - q
                        into.append((lo + shift, hi + shift))
                if families:
                    boxes.append((q, families))
            runs.append((delta, boxes))
        layout.append((other, c, e, residue, offset, runs))
        reached.append({rho: _merge(sorted(found)) for rho, found in spans.items()})

    # Score each reachable point once, keeping the points of the best score
    # so far by room and residue; a predicate scores whether it holds.
    best = top = None
    for r, runs in enumerate(reached):
        for rho, found in runs.items():
            for t1, t2 in found:
                for t in range(t1, t2 + 1):
                    m = margin(r, payments(r, rho + unit * t))
                    m = m if objective.sense else int(m >= 0)
                    if best is None or m > best:
                        best, top = m, [{} for _ in range(n)]
                    if m == best:
                        top[r].setdefault(rho, []).append(t)
    optimal = [{rho: _merge((t, t) for t in ts) for rho, ts in room.items()} for room in top]

    # The first optimal row, with each visited box's caps rebuilt.
    first = pick = None
    for r, (other, c, e, residue, offset, runs) in enumerate(layout):
        if not optimal[r]:
            continue
        for delta, boxes in runs:
            # The least level of a family's free rooms after s*.
            after = [
                _level_terms(total, [(delta[k], e[s][k]) for k in other if k > s])
                for s in range(n)
            ]
            for q, families in boxes:
                need = total - q
                caps = [q + d for d in delta]
                for s, lo, hi in families:
                    shift = q - offset[s]  # v = t + shift
                    spans = [
                        (max(lo, t1 + shift), min(hi, t2 + shift))
                        for t1, t2 in optimal[r].get(residue[s], ())
                    ]
                    spans = [(v1, v2) for v1, v2 in spans if v1 <= v2]
                    if not spans:
                        continue
                    empty = _level_at(after[s], q)
                    v = next((max(v1, empty) for v1, v2 in spans if v2 >= empty), spans[-1][1])
                    free = [(k, min(caps[k], v + e[s][k])) for k in other if k != s]
                    # (r, q) last: the empty walk holds v = 0 at s* = r.
                    row = _lex_first(n, [(s, v), (r, q)], free, need - v)
                    if first is None or row < first:
                        first, pick = row, (r, (v - q) * unit - c[s])

    r, y = pick
    return first, best, perm[r], payments(r, y)


def _prepare_search(instance, true_matrix, step):
    """The search's ``_Grid``; a best response costs about n**3 * steps.

    Refuses a grid whose one best response exceeds ``SEARCH_BUDGET``; a
    k-member search runs at most MAX_ROUNDS * k best responses.
    """
    validate_instance(instance, true_matrix)
    step = to_rational(step)
    if step <= 0:
        raise ValueError("step must be positive")
    scale, truth, rent = pricing.integer_form(true_matrix.values, instance.total_rent, step)
    unit = int(step * scale)
    steps, left = divmod(rent, unit)
    if left:
        raise ValueError("step must divide the total rent")
    if instance.n**3 * steps > SEARCH_BUDGET:
        raise SearchSpaceTooLarge(instance.n, SEARCH_BUDGET)
    return _Grid(scale, truth, rent, unit, steps)


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
    MAX_ROUNDS rounds.  Returns (reported_matrix, achieved_value, converged),
    the value measured against the true values on the outcome ``_search``
    builds.  A member's ties go to its lexicographically smallest row.  The
    true rows are candidates only when ``step`` divides every member's true
    values; only then can the value never be worse than honesty's.
    """
    _, reported, converged, outcome = _search(instance, true_matrix, coalition, objective, step)
    return reported, objective.value(instance, true_matrix, outcome), converged


def _coalition_search(instance, true_matrix, coalition, objective, step):
    """(reported_matrix, converged, honest, manipulated): the search of
    ``coalition_search`` and the mechanism's ``Outcome``s on the truth and
    on the returned reports, on which the caller evaluates the objective.

    Both come from the search's integer form, with no ``Fraction`` Hungarian.
    The honest assignment is the canonical optimum of the scaled truth
    ``grid.truth``: scaling by a positive integer keeps every comparison and
    every tie, so it is ``pricing.solve``'s; ``pricing.maximin_prices``
    prices it.
    """
    grid, reported, converged, manipulated = _search(
        instance, true_matrix, coalition, objective, step
    )
    perm, _ = matching.canonical_optimum(grid.truth)
    honest = pricing.maximin_prices(
        instance, true_matrix, Assignment.from_indices(instance, perm), _validated=True
    )
    return reported, converged, honest, manipulated


def _search(instance, true_matrix, coalition, objective, step):
    """(grid, reported_matrix, converged, manipulated): the coordinate ascent
    of ``coalition_search`` on its ``_Grid``, and the mechanism's
    ``Outcome`` on the returned reports, unscored.  The reports live as the
    grid's integer rows; the returned matrix is built from them once.

    The last best response was scored with every other row at its value in
    the returned matrix, so its winning candidate's assignment and payments
    are those of ``pricing.solve`` on that matrix, converged or not; the
    outcome is built from them without solving again.  Only
    ``_coalition_search`` prices the truth: its leximin LP can cost more.
    """
    _check_objective(instance, objective)
    coalition = set(coalition)
    _check_labels(instance, "coalition", coalition)
    grid = _prepare_search(instance, true_matrix, step)
    members = [i for i, a in enumerate(instance.agent_ids) if a in coalition]
    if not members:
        raise ValueError("coalition is empty")

    rows = list(grid.truth)
    settled = 0  # members, up to this one, whose rows are best responses
    for turn in range(MAX_ROUNDS * len(members)):
        agent_index = members[turn % len(members)]
        units, _, perm, pay = _best_response(instance, objective, grid, rows, agent_index)
        row = [u * grid.unit for u in units]
        if row == rows[agent_index]:
            settled += 1
        else:
            rows[agent_index] = row
            settled = 1
        if settled == len(members):
            break

    reported = ValuationMatrix.from_rows(
        [Fraction(v, grid.scale) for v in row] for row in rows
    )
    assignment = Assignment.from_indices(instance, perm)
    outcome = pricing.priced_outcome(instance, reported, assignment, pay, instance.n * grid.scale)
    return grid, reported, settled == len(members), outcome
