"""Hunt for profitable misreports with the closed-form best-response search.

For one agent at a time (all other agents honest), the search returns the
integer-valued report row that drives the agent's own rent lowest, the first
such row in lexicographic order, as if every row had been tried; it bounds
the rows per won room and chain offset instead of scoring them one by one.
Then a two-member coalition runs coordinate ascent on the same grid.

Usage: python3 demos/03_search_for_manipulations.py
"""

from fractions import Fraction

from rentdiv import render_money
from rentdiv.manipulation import MinimizeCoalitionPayments, coalition_search
from rentdiv.scenarios import builtin_scenario


def main():
    sc = builtin_scenario("baseline")
    inst, truth = sc.instance, sc.reported_matrix

    print("Single-agent best responses (step 1):")
    print(f"{'agent':<6} {'honest rent':>12} {'best rent':>10}  best report row")
    for agent in inst.agent_ids:
        report = coalition_search(
            inst, truth, (agent,), MinimizeCoalitionPayments((agent,)), step=Fraction(1)
        )
        row = report.reported_matrix.row(inst.agent_index(agent))
        cells = " ".join(f"{int(v):>2}" for v in row)
        print(
            f"{agent:<6} {render_money(report.honest_outcome.payment_of(agent)):>12} "
            f"{render_money(report.objective_value):>10}  [{cells}]"
        )

    print()
    print("Coalition {D, E} minimizing joint rent (coordinate ascent, step 1):")
    report = coalition_search(
        inst, truth, ("D", "E"), MinimizeCoalitionPayments(("D", "E")), step=Fraction(1)
    )
    honest_total = sum(report.honest_outcome.payment_of(a) for a in ("D", "E"))
    print(f"  honest total {render_money(honest_total)} -> {render_money(report.objective_value)}")
    print(f"  converged: {report.converged}")
    for agent in ("D", "E"):
        row = report.reported_matrix.row(inst.agent_index(agent))
        cells = " ".join(f"{int(v):>2}" for v in row)
        print(f"  {agent} reports [{cells}]")


if __name__ == "__main__":
    main()
