"""Generated malformed scenario documents: `solve` and `verify` answer each
one, or refuse it with exit 2 and one line on stderr, and never print a
traceback or a half-written answer."""

import contextlib
import copy
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rentdiv.cli import EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from rentdiv.scenarios import builtin_scenario, scenario_to_dict


class Raw(str):
    """JSON text written as it is: an integer too long for ``json.dumps``, or
    nesting too deep for it."""


def dumps(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    return json.dumps(value)


def _document(rent, rows):
    return {
        "name": "generated",
        "total_rent": rent,
        "rooms": [f"R{j + 1}" for j in range(len(rows))],
        "agents": [{"id": chr(65 + i), "reported_values": row} for i, row in enumerate(rows)],
    }


def _coprime_after(start, count):
    found = []
    k = start
    while len(found) < count:
        if all(math.gcd(k, f) == 1 for f in found):
            found.append(k)
        k += 1
    return found


# (a) a row 1/p, 1/q, 3 for coprime 3,992-digit p and q: its sum has 7,983
# digits in its numerator and denominator.
P, Q = _coprime_after(10**3991 + 1, 2)
REPRO_A = dumps(_document("3", [[f"1/{P}", f"1/{Q}", "3"], ["1", "1", "1"], ["1", "1", "1"]]))
# (b) a 5,001-digit JSON integer as the rent.
REPRO_B = dumps(_document(Raw("9" * 5001), [["1"]]))
# (c) a valid house whose exact prices have about 6,000-digit denominators.
PS = _coprime_after(10**1990 + 1, 3)
REPRO_C = dumps(_document("3", [[f"1/{p}", f"2/{p}", f"{3 * p - 3}/{p}"] for p in PS]))
# (d) 3,995 characters and exponent 4,000, within both string caps, yet
# 7,990 digits.
HUGE = "9" * 3990 + "e4000"
REPRO_D = dumps(_document(HUGE, [[HUGE]]))
DEEP = Raw("[" * 100_000 + "]" * 100_000)

BASELINE = scenario_to_dict(builtin_scenario("baseline"))


def _paths(value, prefix=()):
    """Every (key or index) path into a JSON value, containers first."""
    yield prefix
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, prefix + (i,))


PATHS = list(_paths(BASELINE))[1:]

huge_strings = st.one_of(
    st.integers(3990, 4010).map(lambda k: "9" * k),
    st.integers(3990, 4010).map(lambda k: "1/" + "7" * k),
    st.integers(3980, 4001).map(lambda e: "9" * 3990 + f"e{e}"),
    st.integers(3980, 4001).map(lambda e: f"1e-{e}"),
)
huge_ints = st.one_of(
    st.integers(3990, 4010).map(lambda k: 10**k - 1),
    st.integers(4290, 5001).map(lambda k: Raw("9" * k)),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["0", "-1", "36", "1/0", "1e", "9.20", "R1", "A", "baseline"]),
    huge_strings,
    huge_ints,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.integers(1, 50).map(lambda k: Raw("[" * k + "]" * k)),
    ),
    max_leaves=8,
)
# A mutation replaces or deletes what a path of the baseline document holds;
# later mutations skip a path that an earlier one removed.
mutations = st.lists(
    st.tuples(st.sampled_from(PATHS), st.booleans(), values), min_size=1, max_size=4
)


def _mutated(changes):
    doc = copy.deepcopy(BASELINE)
    for path, delete, value in changes:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if delete and isinstance(parent, dict):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    return dumps(doc)


documents = st.one_of(mutations.map(_mutated), values.map(dumps))


def _run(argv):
    """(exit code, stdout, stderr, seconds) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _assert_one_line_refusal(err):
    assert err.startswith("rentdiv: ") and err.endswith("\n"), err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err, err


@settings(
    max_examples=60,
    deadline=3000,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(documents)
@example(REPRO_A)
@example(REPRO_B)
@example(REPRO_C)
@example(REPRO_D)
@example(DEEP)
@example('{"name": "x", "total_rent": "1", "rooms": ["R\\n1"], "agents": '
         '[{"id": "A\\nB", "reported_values": ["-1"]}]}')
def test_malformed_document_is_answered_or_refused(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text, encoding="utf-8")
        for command in ("solve", "verify"):
            code, out, err, _ = _run([command, str(path)])
            assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_INVALID)
            if err:
                _assert_one_line_refusal(err)
            if code == EXIT_INVALID:
                assert out == "" and err


REPROS = {"a": REPRO_A, "b": REPRO_B, "c": REPRO_C, "d": REPRO_D}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("repro", sorted(REPROS))
def test_arithmetic_past_the_digit_limit_is_refused_fast(tmp_path, repro, fmt):
    # (c) is a valid house: text and csv round its prices to cents, and
    # json, which prints them exactly, refuses it whole.
    path = tmp_path / "scenario.json"
    path.write_text(REPROS[repro], encoding="utf-8")
    code, out, err, seconds = _run(["solve", str(path), "--format", fmt])
    assert seconds < 1
    if repro == "c" and fmt != "json":
        assert code == EXIT_OK and out and not err
        return
    assert code == EXIT_INVALID and out == ""
    _assert_one_line_refusal(err)
    if repro == "c":
        assert err.startswith("rentdiv: --format json cannot print this answer")
