"""The four benchmark workloads: seeded inputs, one operation, exact checks.

Every workload yields its inputs in cycles (one cycle covers the whole size
or scenario mix once) so that a run made of whole cycles always has the same
mix.  The exception is `search`, whose cycle is one op of a single agent;
its rotation starts at the same agent on every run instead.  Inputs depend only on the seed.  The operation goes through the public
API, and `check` compares its output with facts known in advance, outside the
timed region.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from rentdiv import cli, matching, pricing
from rentdiv.model import Instance, ValuationMatrix
from rentdiv.scenarios import BUILTIN_SLUGS


def composition(rng: random.Random, total: int, parts: int) -> list:
    """Uniform random composition of `total` into `parts` nonnegative ints
    (stars and bars: `parts - 1` distinct bar positions among
    `total + parts - 1` slots)."""
    slots = total + parts - 1
    bars = sorted(rng.sample(range(slots), parts - 1))
    out, prev = [], -1
    for b in bars + [slots]:
        out.append(b - prev - 1)
        prev = b
    return out


def make_instance(rows, total: int) -> tuple:
    n = len(rows)
    instance = Instance(
        tuple(f"R{j + 1}" for j in range(n)),
        tuple(f"A{i + 1}" for i in range(n)),
        Fraction(total),
    )
    return instance, ValuationMatrix.from_rows(rows)


def top_bidder_assignment_exists(rows) -> bool:
    """Whether some assignment gives every room to one of its highest bidders.

    Exactly then the equal-split prices (every agent keeps (W - R)/n) are
    envy-free: under equal split agent i envies room j's holder k iff
    v_i(j) > v_k(j).  Decided by augmenting paths on the top-bidder graph.
    """
    n = len(rows)
    bidders = []
    for j in range(n):
        top = max(row[j] for row in rows)
        bidders.append([i for i in range(n) if rows[i][j] == top])
    room_of = [-1] * n

    def augment(j, seen):
        for i in bidders[j]:
            if i not in seen:
                seen.add(i)
                if room_of[i] < 0 or augment(room_of[i], seen):
                    room_of[i] = j
                    return True
        return False

    return all(augment(j, set()) for j in range(n))


def uncontested_rows(rng: random.Random, n: int, total: int) -> tuple:
    """Rows where agent i values its own room owners[i] at 60-80% of the rent
    and every other room below 40%, plus the owners permutation."""
    owners = list(range(n))
    rng.shuffle(owners)
    rows = []
    for i in range(n):
        own = rng.randint(6 * total // 10, 8 * total // 10)
        row = composition(rng, total - own, n - 1)
        row.insert(owners[i], own)
        rows.append(row)
    return rows, tuple(owners)


@dataclass(frozen=True)
class SolveInput:
    instance: Instance
    matrix: ValuationMatrix
    rows: tuple  # the generated integer rows, also the repeat key
    owners: tuple | None = None  # uncontested only: the constructed optimum


@dataclass(frozen=True)
class CliInput:
    argv: tuple
    key: str  # builtin slug or coalition member


def run_cli(argv) -> tuple:
    """`cli.main` with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


class SolveWorkload:
    """One op is `pricing.solve` on a generated instance."""

    sizes: tuple = ()
    candidates_per_op = 0  # misreport candidates enumerated by one op

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def cycles(self):
        while True:
            yield [self.make(n, 100 * n) for n in self.sizes]

    @staticmethod
    def run(inp: SolveInput):
        return pricing.solve(inp.instance, inp.matrix)

    @staticmethod
    def key(inp: SolveInput):
        return inp.rows

    @staticmethod
    def same(a, b) -> bool:
        return a.assignment == b.assignment and a.prices == b.prices

    def properties(self, records) -> dict:
        unequal = sum(
            1
            for r in records
            if not isinstance(r.output, Exception)
            and len(set(r.output.utilities.values())) > 1
        )
        return {
            "n_mix": list(self.sizes),
            "R": "100*n",
            "equal_split_not_envy_free_share": unequal / len(records),
        }


class Contested(SolveWorkload):
    """Random rows, redrawn until no assignment gives every room to one of its
    top bidders."""

    name = "contested"
    sizes = (5, 6)

    def make(self, n: int, total: int) -> SolveInput:
        while True:
            rows = tuple(tuple(composition(self.rng, total, n)) for _ in range(n))
            if not top_bidder_assignment_exists(rows):
                return SolveInput(*make_instance(rows, total), rows)

    @staticmethod
    def check(inp: SolveInput, out) -> str | None:
        inst, mat = inp.instance, inp.matrix
        if out.prices.total() != inst.total_rent:
            return "prices do not sum to the rent"
        if pricing.is_envy_free(inst, mat, out.assignment, out.prices):
            return "prices are not envy-free"
        oracle = matching.brute_force_assignment(inst, mat)
        if oracle.welfare != out.welfare:
            return f"welfare {out.welfare} != brute force {oracle.welfare}"
        if oracle.assignment != out.assignment:
            return "assignment differs from the brute-force canonical optimum"
        return None


class Uncontested(SolveWorkload):
    name = "uncontested"
    sizes = (10, 20, 30)

    def make(self, n: int, total: int) -> SolveInput:
        rows, owners = uncontested_rows(self.rng, n, total)
        rows = tuple(tuple(r) for r in rows)
        return SolveInput(*make_instance(rows, total), rows, owners)

    @staticmethod
    def check(inp: SolveInput, out) -> str | None:
        inst = inp.instance
        if out.assignment.to_indices(inst) != inp.owners:
            return "assignment differs from the constructed owners"
        if out.prices.total() != inst.total_rent:
            return "prices do not sum to the rent"
        share = (out.welfare - inst.total_rent) / inst.n
        if any(u != share for u in out.utilities.values()):
            return f"utilities are not all (W-R)/n = {share}"
        return None


class CliWorkload:
    """One op is one `cli.main` call with JSON output."""

    candidates_per_op = 0

    @staticmethod
    def run(inp: CliInput):
        return run_cli(inp.argv)

    @staticmethod
    def key(inp: CliInput):
        return inp.key

    @staticmethod
    def same(a, b) -> bool:
        return a == b


# Best response of each baseline agent under min-pay at step 1, as recorded
# when the benchmark was written: (best row, achieved payment).
SEARCH_EXPECTED = {
    "A": (("8", "10", "8", "6", "4"), Fraction(17, 5)),
    "B": (("0", "12", "10", "7", "7"), Fraction(21, 5)),
    "C": (("0", "0", "0", "18", "18"), Fraction(26, 5)),
    "D": (("0", "12", "10", "7", "7"), Fraction(21, 5)),
    "E": (("0", "0", "1", "18", "17"), Fraction(22, 5)),
}
SEARCH_AGENTS = tuple(SEARCH_EXPECTED)
SEARCH_N, SEARCH_RENT = 5, 36
# Candidate rows one best response enumerates: compositions of 36 into 5 parts.
SEARCH_GRID = math.comb(SEARCH_RENT + SEARCH_N - 1, SEARCH_N - 1)


def _fraction(doc: dict) -> Fraction:
    return Fraction(doc["num"], doc["den"])


class Search(CliWorkload):
    """Best-response search for one baseline agent per op, rotating A..E.

    One op takes several seconds, so a run holds only a few ops.  The
    rotation always starts at A, whatever the seed, so that every run
    measures the same agents in the same order: the agents differ in how
    often candidates tie, and a seed-chosen start would change the measured
    mix from run to run.
    """

    name = "search"
    candidates_per_op = SEARCH_GRID

    def __init__(self, seed: int):
        self.path = str(resources.files("rentdiv.fixtures").joinpath("baseline.json"))

    def cycles(self):
        for k in itertools.count():
            x = SEARCH_AGENTS[k % len(SEARCH_AGENTS)]
            argv = (
                "manipulate", self.path, "--coalition", x,
                "--objective", f"min-pay:{x}", "--search", "--format", "json",
            )
            yield [CliInput(argv, x)]

    @staticmethod
    def check(inp: CliInput, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        row, value = SEARCH_EXPECTED[inp.key]
        got_row = tuple(doc["reported_values"][inp.key])
        got_value = _fraction(doc["objective_value"])
        if got_row != row or got_value != value:
            return f"best response {got_row} @ {got_value}, expected {row} @ {value}"
        honest = doc["honest"]
        honest_pay = _fraction(honest["prices"][honest["assignment"][inp.key]])
        if got_value > honest_pay:
            return f"search pays {got_value}, more than honest {honest_pay}"
        return None

    @staticmethod
    def properties(records) -> dict:
        return {"n_mix": [SEARCH_N], "R": SEARCH_RENT, "grid_size": SEARCH_GRID}


# Verdict and exit code of `verify --builtin` per slug, in BUILTIN_SLUGS order.
VERIFY_EXPECTED = {
    "baseline": ("match", 0),
    "exclusionary-collusion": ("match", 0),
    "failed-counter-attack": ("equivalent-match", 0),
    "benevolent-collusion": ("match", 0),
    "cost-minimization": ("mismatch", 1),
}


class Verify(CliWorkload):
    """`verify --builtin` over the five builtin scenarios; the same five
    documents repeat every cycle."""

    name = "verify"

    def __init__(self, seed: int):
        self.slugs = list(BUILTIN_SLUGS)
        random.Random(seed).shuffle(self.slugs)

    def cycles(self):
        while True:
            yield [
                CliInput(("verify", "--builtin", s, "--format", "json"), s)
                for s in self.slugs
            ]

    @staticmethod
    def check(inp: CliInput, out) -> str | None:
        code, text = out
        verdict, expected_code = VERIFY_EXPECTED[inp.key]
        doc = json.loads(text)
        if len(doc) != 1 or doc[0]["scenario"] != inp.key:
            return "verify reported other scenarios than the one asked for"
        if doc[0]["verdict"] != verdict or code != expected_code:
            return f"verdict {doc[0]['verdict']} / exit {code}, expected {verdict} / {expected_code}"
        return None

    @staticmethod
    def properties(records) -> dict:
        return {"n_mix": [5], "R": 36}


WORKLOADS = {w.name: w for w in (Contested, Uncontested, Search, Verify)}
