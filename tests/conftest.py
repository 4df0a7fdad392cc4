"""Shared fixtures and factories for the test suite."""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import rentdiv
from rentdiv.model import Instance, ValuationMatrix
from rentdiv.scenarios import builtin_scenario

AGENTS = "ABCDEFGHIJKL"


def make_instance(rows, total=None):
    """Instance + matrix from integer/rational rows; rent defaults to row sum."""
    n = len(rows)
    if total is None:
        total = sum(rows[0])
    inst = Instance(
        tuple(f"R{j + 1}" for j in range(n)), tuple(AGENTS[:n]), Fraction(total)
    )
    return inst, ValuationMatrix.from_rows(
        [tuple(Fraction(v) for v in row) for row in rows]
    )


def random_rows(rng: random.Random, n: int, total: int = 36):
    """n nonnegative integer rows summing exactly to `total`."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        rows.append(
            tuple(Fraction(b - a) for a, b in zip([0] + cuts, cuts + [total]))
        )
    return rows


def long_decimal_house() -> dict:
    """A scenario document with rent 2, where A reports ((2^6600 - 1)/2^6600,
    (2^6600 + 1)/2^6600) and B (1, 1).  A's amounts are exact decimals of
    6,600 places, too long to print as one; as a/b each is 3,975 characters,
    within the amount caps."""
    big = 2**6600
    rows = {"A": [f"{big - 1}/{big}", f"{big + 1}/{big}"], "B": ["1", "1"]}
    return {
        "name": "Long decimals",
        "total_rent": "2",
        "rooms": ["R1", "R2"],
        "agents": [{"id": a, "reported_values": row} for a, row in rows.items()],
    }


def subprocess_env() -> dict:
    """The environment with this rentdiv's source directory first on
    PYTHONPATH, for tests that run it in a fresh interpreter."""
    src = str(Path(rentdiv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.fixture
def numpy():
    """numpy, which the enumeration oracles in ``rentdiv.oracles`` need.  A
    test that uses this fixture skips where numpy is not installed; the
    package itself runs without it."""
    return pytest.importorskip("numpy")


@pytest.fixture
def baseline():
    sc = builtin_scenario("baseline")
    return sc.instance, sc.reported_matrix


# One line per acceptance check, echoed after the run so the pass/fail ledger
# is visible even when pytest captures stdout.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
