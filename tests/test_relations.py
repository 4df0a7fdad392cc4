"""Exact relations of ``pricing.solve`` that need no oracle, and two
properties of the misreport lab.

The relations, on the default route (no price floor):

- Scale: multiplying every value and the rent by c > 0 keeps the assignment
  and multiplies every price by c.
- Room shift: adding d to every agent's value of one room, and d to the
  rent, keeps the assignment and the utilities; that room's price moves by d
  and no other price moves.
- Relabel: permuting agents and rooms permutes the prices with the rooms
  and the utilities with the agents.  The canonical tie-break reads roster
  and room order, so the assignment permutes with them only where the
  welfare optimum is unique; distinct values do not make it so.

No relation needs an enumeration, so each can check the solver at any size
it accepts.  Here they run on n = 2-6: integer houses, tie-heavy integer
houses (rent n or 2n) and houses valued in thirds.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from conftest import make_instance
from rentdiv.manipulation import MaximizeTrueUtility, MinimizeCoalitionPayments, coalition_search
from rentdiv.model import RentDivisionError
from rentdiv.oracles import all_optimal_assignments
from rentdiv.pricing import solve

F = Fraction
KINDS = ("integer", "tie-heavy", "thirds")


def examples(count):
    """Settings for ``count`` examples, drawn from a fixed seed so that every
    run checks the same houses in about the same time.  A house on the LP
    route takes up to a few hundred milliseconds, so there is no deadline."""
    return settings(max_examples=count, deadline=None, derandomize=True)


@st.composite
def houses(draw, kinds=KINDS):
    """(rows, rent) of n = 2-6 agents: integer values with a rent of n to
    10n, integer values with a rent of n or 2n, or values in thirds."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(kinds))
    rent = draw(st.sampled_from((n, 2 * n)) if kind == "tie-heavy" else st.integers(n, 10 * n))
    units = 3 if kind == "thirds" else 1
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, rent * units), min_size=n - 1, max_size=n - 1)))
        rows.append([F(b - a, units) for a, b in zip([0, *cuts], [*cuts, rent * units])])
    return rows, rent


@examples(40)
@given(houses(), st.fractions(min_value=F(1, 10), max_value=10, max_denominator=10))
def test_scale(house, c):
    rows, rent = house
    inst, mat = make_instance(rows, total=rent)
    out = solve(inst, mat)
    scaled = solve(*make_instance([[c * v for v in row] for row in rows], total=c * rent))
    assert scaled.assignment == out.assignment
    assert scaled.prices.as_list(inst) == tuple(c * p for p in out.prices.as_list(inst))


@examples(30)
@given(houses(), st.data())
def test_room_shift(house, data):
    rows, rent = house
    room = data.draw(st.integers(0, len(rows) - 1))
    # Every value stays nonnegative, and the rent positive.
    lowest = min(row[room] for row in rows)
    d = data.draw(st.fractions(min_value=-lowest, max_value=rent, max_denominator=6))
    assume(rent + d > 0)
    inst, mat = make_instance(rows, total=rent)
    shifted_rows = [[v + d if j == room else v for j, v in enumerate(row)] for row in rows]
    out = solve(inst, mat)
    shifted = solve(*make_instance(shifted_rows, total=rent + d))
    assert shifted.assignment == out.assignment
    assert shifted.utilities == out.utilities
    prices = list(out.prices.as_list(inst))
    prices[room] += d
    assert shifted.prices.as_list(inst) == tuple(prices)


@examples(60)
@given(houses(), st.data())
def test_relabel(house, data):
    # Agent k of the relabelled house is agent agents[k] of the house, and
    # its room l is room rooms[l].
    rows, rent = house
    n = len(rows)
    agents = data.draw(st.permutations(range(n)))
    rooms = data.draw(st.permutations(range(n)))
    inst, mat = make_instance(rows, total=rent)
    out = solve(inst, mat)
    relabelled = solve(
        *make_instance([[rows[i][j] for j in rooms] for i in agents], total=rent)
    )
    prices = out.prices.as_list(inst)
    assert relabelled.prices.as_list(inst) == tuple(prices[j] for j in rooms)
    utilities = [out.utilities[a] for a in inst.agent_ids]
    assert [relabelled.utilities[a] for a in inst.agent_ids] == [utilities[i] for i in agents]
    if len(all_optimal_assignments(inst, mat)) == 1:
        sigma = out.assignment.to_indices(inst)
        assert relabelled.assignment.to_indices(inst) == tuple(
            rooms.index(sigma[i]) for i in agents
        )


@examples(40)
@given(houses(), st.booleans())
def test_every_utility_is_nonnegative(house, nonnegative_prices):
    # Envy-freeness on agent i's row gives u_i >= v_i(j) - p_j for every
    # room j, and summing over j gives n * u_i >= sum_j v_i(j) - rent = 0.
    # So an agent who reports truthfully never ends below 0, whatever the
    # others report.
    rows, rent = house
    inst, mat = make_instance(rows, total=rent)
    try:
        out = solve(inst, mat, nonnegative_prices=nonnegative_prices)
    except RentDivisionError:
        assert nonnegative_prices  # no envy-free price vector is nonnegative
        return
    assert min(out.utilities.values()) >= 0


@examples(20)
@given(houses(kinds=("integer", "tie-heavy")), st.data())
def test_a_best_response_never_loses_to_honesty(house, data):
    # At step 1 the true row of an integer house is a candidate.
    rows, rent = house
    inst, mat = make_instance(rows, total=rent)
    agent = data.draw(st.sampled_from(inst.agent_ids))
    rep = coalition_search(inst, mat, (agent,), MinimizeCoalitionPayments((agent,)))
    assert rep.objective_value <= rep.honest_outcome.payment_of(agent)
    rep = coalition_search(inst, mat, (agent,), MaximizeTrueUtility(agent))
    assert rep.objective_value >= rep.honest_outcome.utilities[agent]
