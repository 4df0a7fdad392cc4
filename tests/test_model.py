"""Domain model: exact money parsing, validation, assignments and outcomes."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rentdiv.model import (
    MAX_AMOUNT_CHARS,
    Assignment,
    DimensionMismatch,
    Instance,
    NegativeValue,
    PriceVector,
    RowSumMismatch,
    SearchSpaceTooLarge,
    ValidationError,
    ValuationMatrix,
    abbreviate,
    build_outcome,
    compute_utilities,
    format_exact,
    parse_money,
    render_money,
    to_rational,
    validate_instance,
)
from rentdiv.manipulation import _prepare_search
from rentdiv.pricing import is_envy_free, maximin_level, maximin_prices


def small_instance():
    inst = Instance(("R1", "R2"), ("A", "B"), Fraction(2))
    mat = ValuationMatrix.from_rows([(2, 0), (0, 2)])
    return inst, mat


# Exponent-free amount strings within the caps: decimals, ratios, and
# ratios over 2^a * 5^b, whose decimals may run past 4,000 characters.
AMOUNT_STRINGS = st.one_of(
    st.builds(
        lambda sign, whole, places: f"{sign}{whole}" + (f".{places}" if places else ""),
        st.sampled_from(["", "-"]),
        st.integers(0, 10**30),
        st.text("0123456789", max_size=60),
    ),
    st.builds(
        lambda num, den: f"{num}/{den}",
        st.integers(-(10**60), 10**60),
        st.integers(1, 10**60),
    ),
    st.builds(
        lambda num, twos, fives: f"{num}/{2**twos * 5**fives}",
        st.integers(-(10**20), 10**20),
        st.integers(0, 6000),
        st.integers(0, 2000),
    ),
)


def _chars(n: int) -> int:
    """Characters of ``str(n)``, or 4001 for more than 4,000 digits."""
    return len(str(n)) if -(10**4000) < n < 10**4000 else 4001


class TestMoney:
    def test_decimal_string_is_exact(self):
        assert parse_money("9.20") == Fraction(46, 5)
        assert parse_money("0.01") == Fraction(1, 100)
        assert parse_money("36") == Fraction(36)

    def test_ratio_string(self):
        assert parse_money("46/5") == Fraction(46, 5)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            to_rational(9.2)
        with pytest.raises(TypeError):
            parse_money(9.2)

    @pytest.mark.parametrize(
        "convert",
        [
            to_rational,
            parse_money,
            lambda x: Instance(("R1",), ("A",), x),
            lambda x: ValuationMatrix.from_rows([(1, x), (0, 1)]),
        ],
        ids=["to_rational", "parse_money", "total_rent", "matrix_entry"],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, convert, flag):
        # bool subclasses int, so only an explicit check keeps it out.
        with pytest.raises(TypeError, match="bool"):
            convert(flag)

    @pytest.mark.parametrize(
        "text", ["1e-10000000", "1E4001", "2.5e+4001", "9" * 4001, "1/" + "3" * 3999]
    )
    @pytest.mark.parametrize("convert", [to_rational, parse_money], ids=["to_rational", "parse_money"])
    def test_huge_amount_refused_fast(self, convert, text):
        start = time.perf_counter()
        with pytest.raises(ValidationError) as info:
            convert(text)
        assert time.perf_counter() - start < 1
        shown = repr(text[:20]) + ("..." if len(text) > 20 else "")
        assert str(info.value) == (
            f"refusing amount {shown}: an exact amount has at most 4000 characters "
            "and a decimal exponent between -4000 and 4000"
        )

    def test_amounts_at_the_caps_parse(self):
        assert parse_money("1e-3999") == Fraction(1, 10**3999)
        assert parse_money("2.5E+3998") == 25 * 10**3997
        assert parse_money("7" * 4000) == int("7" * 4000)
        assert parse_money("1/" + "7" * 3998) == Fraction(1, int("7" * 3998))
        assert parse_money(10**4000 - 1) == 10**4000 - 1
        # A malformed exponent keeps Fraction's own message.
        with pytest.raises(ValueError, match="Invalid literal for Fraction: '1e'"):
            parse_money("1e")

    @pytest.mark.parametrize(
        "amount,shown",
        [
            ("1e-4000", "'1e-4000'"),
            ("2.5E+4000", "'2.5E+4000'"),
            ("9" * 3990 + "e4000", "'99999999999999999999'..."),
            ("0." + "0" * 3990 + "1e-10", "'0.000000000000000000'..."),
            (10**4000, "100000000000...(4001 digits)"),
        ],
        ids=["denominator", "numerator", "within-string-caps", "decimal", "int"],
    )
    def test_amount_past_the_digit_cap_refused(self, amount, shown):
        # Each passes the length and exponent caps, and still has more digits
        # than a message or an answer may print.
        start = time.perf_counter()
        with pytest.raises(ValidationError) as info:
            parse_money(amount)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            f"refusing amount {shown}: an exact amount's numerator and "
            "denominator have at most 4000 digits"
        )

    @pytest.mark.parametrize(
        "x,text",
        [
            (Fraction(46, 5), "46/5"),
            (-(10**100) + 1, "-" + "9" * 100),
            (10**100, "100000000000...(101 digits)"),
            (Fraction(-(10**150), 10**200 + 1), "-100000000000...(151 digits)/100000000000...(201 digits)"),
        ],
    )
    def test_abbreviate(self, x, text):
        assert abbreviate(x) == text

    def test_render_two_places(self):
        assert render_money(Fraction(46, 5)) == "9.20"
        assert render_money(Fraction(0)) == "0.00"
        assert render_money(Fraction(-17, 3)) == "-5.67"

    def test_render_rounds_half_away_from_zero(self):
        assert render_money(Fraction(1, 200)) == "0.01"  # 0.005 -> up
        assert render_money(Fraction(-1, 200)) == "-0.01"
        # Amounts that round to zero cents print no sign.
        assert render_money(Fraction(-1, 1000)) == "0.00"
        assert render_money(Fraction(-1, 201)) == "0.00"

    def test_format_exact(self):
        assert format_exact(Fraction(36)) == "36"
        assert format_exact(Fraction(46, 5)) == "9.2"
        assert format_exact(Fraction(1, 3)) == "1/3"
        assert format_exact(Fraction(-46, 5)) == "-9.2"
        assert format_exact(Fraction(1, 8)) == "0.125"
        assert format_exact(Fraction(-1, 2)) == "-0.5"
        assert format_exact(Fraction(7, 2)) == "3.5"
        assert format_exact(Fraction(0)) == "0"

    def test_format_exact_decimal_cap(self):
        # A decimal is written only when parse_money reads it back: at most
        # 4,000 characters, the sign included; past that, a/b.
        # 1/2^3998 = 5^3998/10^3998, a decimal of 3,998 places.
        assert format_exact(Fraction(1, 2**3998)) == "0." + str(5**3998).rjust(3998, "0")
        assert format_exact(Fraction(-1, 2**3998)) == f"-1/{2**3998}"
        assert format_exact(Fraction(1, 2**3999)) == f"1/{2**3999}"
        assert format_exact(Fraction(2**6600 - 1, 2**6600)) == f"{2**6600 - 1}/{2**6600}"

    @given(AMOUNT_STRINGS)
    @example(f"{2**6600 - 1}/{2**6600}")
    @example(f"-1/{2**3998}")
    @example("0." + "0" * 3997 + "1")
    @example("-0." + "0" * 3996 + "1")
    @example("9" * 4000)
    def test_format_exact_round_trips(self, s):
        x = parse_money(s)
        assert parse_money(format_exact(x)) == x

    @pytest.mark.parametrize(
        "x",
        [
            Fraction(1, 10**3999 + 1),  # 4,002 characters as a/b
            Fraction(-(10**3999)),  # 4,001 characters
            Fraction(10**4500 + 1),  # past Python's 4,300-digit limit
            Fraction(1, 3**10000),  # a 4,772-digit denominator
            Fraction(1, 2**13300),  # 13,300 places, or 4,006 characters as a/b
        ],
        ids=["ratio", "integer", "digit-limit", "denominator-digit-limit", "power-of-two"],
    )
    def test_format_exact_refuses_past_the_cap(self, x):
        with pytest.raises(ValidationError, match="more than 4000 characters"):
            format_exact(x)

    # Numerators and denominators of up to about 4,500 digits (15,000 bits),
    # the denominators' odd part times 2^twos * 5^fives, so that some write
    # as decimals.  The integers are drawn from ``seed``: hypothesis prints
    # its arguments, and Python cannot print an integer past 4,300 digits.
    @given(
        negative=st.booleans(),
        num_bits=st.integers(0, 15000),
        odd_bits=st.integers(0, 15000),
        twos=st.integers(0, 15000),
        fives=st.integers(0, 6500),
        seed=st.integers(0, 2**32),
    )
    @example(negative=False, num_bits=1, odd_bits=0, twos=3998, fives=0, seed=0)
    @example(negative=True, num_bits=13300, odd_bits=0, twos=0, fives=0, seed=0)
    def test_format_exact_fits_the_cap_or_refuses(
        self, negative, num_bits, odd_bits, twos, fives, seed
    ):
        rng = random.Random(seed)
        num = rng.getrandbits(num_bits) * (-1 if negative else 1)
        x = Fraction(num, (rng.getrandbits(odd_bits) | 1) * 2**twos * 5**fives)
        try:
            s = format_exact(x)
        except ValidationError:
            # Refused only when even num/den would pass the cap.
            assert _chars(x.numerator) + 1 + _chars(x.denominator) > MAX_AMOUNT_CHARS
        else:
            assert len(s) <= MAX_AMOUNT_CHARS and parse_money(s) == x

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_cent_grid_round_trip(self, cents):
        x = Fraction(cents, 100)
        assert parse_money(render_money(x)) == x


class TestValidation:
    def test_accepts_exact_rows(self):
        inst, mat = small_instance()
        validate_instance(inst, mat)  # must not raise

    def test_zero_values_are_allowed(self):
        inst = Instance(("R1", "R2"), ("A", "B"), Fraction(2))
        validate_instance(inst, ValuationMatrix.from_rows([(0, 2), (2, 0)]))

    def test_row_sum_is_exact_no_tolerance(self):
        inst, _ = small_instance()
        bad = ValuationMatrix.from_rows([(2, Fraction(1, 1000)), (0, 2)])
        with pytest.raises(RowSumMismatch) as ei:
            validate_instance(inst, bad)
        assert ei.value.agent == "A"
        assert ei.value.actual_sum == Fraction(2001, 1000)

    def test_negative_value(self):
        inst, _ = small_instance()
        bad = ValuationMatrix.from_rows([(3, -1), (0, 2)])
        with pytest.raises(NegativeValue) as ei:
            validate_instance(inst, bad)
        assert (ei.value.agent, ei.value.room) == ("A", "R2")

    def test_dimension_mismatch(self):
        inst, _ = small_instance()
        with pytest.raises(DimensionMismatch):
            validate_instance(inst, ValuationMatrix.from_rows([(2, 0)]))
        with pytest.raises(DimensionMismatch):
            validate_instance(inst, ValuationMatrix.from_rows([(2, 0, 0), (2, 0, 0)]))

    def test_instance_contract(self):
        with pytest.raises(DimensionMismatch):
            Instance(("R1",), ("A", "B"), Fraction(2))
        with pytest.raises(ValidationError):
            Instance(("R1", "R1"), ("A", "B"), Fraction(2))
        with pytest.raises(ValidationError):
            Instance(("R1", "R2"), ("A", "B"), Fraction(0))


class TestAssignment:
    def test_index_round_trip(self):
        inst, _ = small_instance()
        a = Assignment.from_indices(inst, (1, 0))
        assert a.to_indices(inst) == (1, 0)
        assert a.room_of("A") == "R2"
        assert a.agent_of("R1") == "B"

    def test_bijection_enforced(self):
        with pytest.raises(ValidationError):
            Assignment({"A": "R1", "B": "R1"})

    def test_equality_and_hash(self):
        a = Assignment({"A": "R1", "B": "R2"})
        b = Assignment({"B": "R2", "A": "R1"})
        assert a == b
        assert hash(a) == hash(b)


class TestOutcome:
    def test_utilities_and_payment(self):
        inst, mat = small_instance()
        a = Assignment({"A": "R1", "B": "R2"})
        p = PriceVector.from_list(inst, [Fraction(1), Fraction(1)])
        out = build_outcome(inst, mat, a, p)
        assert out.utilities == {"A": Fraction(1), "B": Fraction(1)}
        assert out.welfare == Fraction(4)
        assert out.min_utility == Fraction(1)
        assert out.payment_of("A") == Fraction(1)
        assert p.total() == inst.total_rent

    def test_compute_utilities_quasilinear(self):
        inst, mat = small_instance()
        a = Assignment({"A": "R2", "B": "R1"})
        p = PriceVector.from_list(inst, [Fraction(3, 2), Fraction(1, 2)])
        u = compute_utilities(inst, mat, a, p)
        assert u == {"A": Fraction(-1, 2), "B": Fraction(-3, 2)}


# The API functions that turn an assignment's or a price vector's labels
# into indices, each called as (instance, matrix, assignment, prices).
LABEL_READERS = {
    "maximin_prices": lambda inst, mat, a, p: maximin_prices(inst, mat, a),
    "maximin_level": lambda inst, mat, a, p: maximin_level(inst, mat, a),
    "is_envy_free": is_envy_free,
    "compute_utilities": compute_utilities,
    "build_outcome": build_outcome,
}
READS_PRICES = ["is_envy_free", "compute_utilities", "build_outcome"]
FOREIGN_ASSIGNMENTS = [
    ({"A": "R1"}, "the assignment misses agent 'B'"),
    ({"A": "R1", "Z": "R2"}, "has unknown agent 'Z'"),
    ({"A": "R1", "B": "R9"}, "has unknown room 'R9'"),
]
FOREIGN_PRICES = [
    ({"R1": 2}, "the price vector misses room 'R2'"),
    ({"R1": 1, "R2": 1, "R9": 0}, "the price vector has unknown room 'R9'"),
]


class TestForeignLabels:
    """An assignment or a price vector that does not cover the instance's
    agents and rooms is refused by name, wherever its labels become
    indices (``Assignment.to_indices``, ``PriceVector.as_list``)."""

    @pytest.mark.parametrize("reader", sorted(LABEL_READERS))
    @pytest.mark.parametrize(
        "mapping, named", FOREIGN_ASSIGNMENTS, ids=["missing-agent", "unknown-agent", "unknown-room"]
    )
    def test_assignment(self, reader, mapping, named):
        inst, mat = small_instance()
        prices = PriceVector({"R1": 1, "R2": 1})
        with pytest.raises(ValidationError) as refused:
            LABEL_READERS[reader](inst, mat, Assignment(mapping), prices)
        assert named in str(refused.value)

    @pytest.mark.parametrize("reader", READS_PRICES)
    @pytest.mark.parametrize("prices, named", FOREIGN_PRICES, ids=["missing-room", "unknown-room"])
    def test_price_vector(self, reader, prices, named):
        inst, mat = small_instance()
        assignment = Assignment({"A": "R1", "B": "R2"})
        with pytest.raises(ValidationError) as refused:
            LABEL_READERS[reader](inst, mat, assignment, PriceVector(prices))
        assert str(refused.value) == named


class TestSearchSpaceTooLarge:
    def test_message_names_the_step_cap(self):
        # The message names the cap on grid steps per row for n agents,
        # never a grid's own step count, which has no bound.
        for n, cap in [(1, 10**6), (5, 8000), (8, 1953), (100, 1), (101, 0)]:
            exc = SearchSpaceTooLarge(n, 10**6)
            assert (exc.n, exc.budget, exc.max_steps) == (n, 10**6, cap)
            assert str(exc) == (
                f"a search with n = {n} allows at most {cap} grid steps per row "
                "(rent/step): n^3 * steps may not exceed 1000000"
            )

    # (a, k, b) stands for a grid of a * 10**k + b steps per row, which pytest
    # cannot print as a test id past 4300 digits; `shown` is how the refusal
    # once rendered that count.
    @pytest.mark.parametrize(
        "a,k,b,shown",
        [
            (1, 7, 1, "10000001"),
            (1, 30, -1, "9" * 30),
            (1, 30, 0, "at least 10^30"),
            (1, 4500, -1, "at least 10^4499"),
            (1, 4500, 0, "at least 10^4500"),
            (7, 9000, 3, "at least 10^9000"),
        ],
    )
    def test_message_is_short_for_any_count(self, a, k, b, shown):
        # One agent pays the whole rent on a grid of step 1; however many
        # steps that makes, the refusal names only the cap for n = 1.
        count = a * 10**k + b
        inst = Instance(("R",), ("A",), Fraction(count))
        with pytest.raises(SearchSpaceTooLarge) as ei:
            _prepare_search(inst, ValuationMatrix.from_rows([(count,)]), 1)
        assert (ei.value.n, ei.value.budget, ei.value.max_steps) == (1, 10**6, 10**6)
        assert str(ei.value) == (
            "a search with n = 1 allows at most 1000000 grid steps per row "
            "(rent/step): n^3 * steps may not exceed 1000000"
        )
        assert shown not in str(ei.value)
