"""Hunt for profitable misreports with the closed-form best-response search.

For one agent at a time (all other agents honest), the search returns the
integer-valued report row that drives the agent's own rent lowest, the first
such row in lexicographic order, as if every row had been tried; it bounds
the rows per won room and chain offset instead of scoring them one by one.
Then a two-member coalition runs coordinate ascent on the same grid.

Usage: python3 demos/03_search_for_manipulations.py
"""

from fractions import Fraction

from rentdiv import render_money, solve
from rentdiv.manipulation import (
    MinimizeCoalitionPayments,
    best_response_search,
    coalition_search,
)
from rentdiv.scenarios import builtin_scenario


def main():
    sc = builtin_scenario("baseline")
    inst, truth = sc.instance, sc.reported_matrix
    honest = solve(inst, truth)

    print("Single-agent best responses (step 1):")
    print(f"{'agent':<6} {'honest rent':>12} {'best rent':>10}  best report row")
    for agent in inst.agent_ids:
        row, value = best_response_search(
            inst, truth, agent, MinimizeCoalitionPayments((agent,)), step=Fraction(1)
        )
        cells = " ".join(f"{int(v):>2}" for v in row)
        print(
            f"{agent:<6} {render_money(honest.payment_of(agent)):>12} "
            f"{render_money(value):>10}  [{cells}]"
        )

    print()
    print("Coalition {D, E} minimizing joint rent (coordinate ascent, step 1):")
    reported, total, converged = coalition_search(
        inst, truth, ("D", "E"), MinimizeCoalitionPayments(("D", "E")), step=Fraction(1)
    )
    honest_total = honest.payment_of("D") + honest.payment_of("E")
    print(f"  honest total {render_money(honest_total)} -> {render_money(total)}")
    print(f"  converged: {converged}")
    for agent in ("D", "E"):
        cells = " ".join(f"{int(v):>2}" for v in reported.row(inst.agent_index(agent)))
        print(f"  {agent} reports [{cells}]")


if __name__ == "__main__":
    main()
