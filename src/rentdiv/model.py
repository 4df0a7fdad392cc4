"""Exact domain model: instances, valuations, assignments, prices and outcomes.

All money amounts are `fractions.Fraction` values.  Nothing in the solve path
ever touches floating point; decimal strings such as "9.20" are parsed to the
exact rational 46/5 and only rendered back to cents for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


class RentDivisionError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RentDivisionError):
    """An instance/valuation pair violates the input contract."""


class DimensionMismatch(ValidationError):
    pass


class NegativeValue(ValidationError):
    def __init__(self, agent: str, room: str):
        self.agent = agent
        self.room = room
        super().__init__(f"agent {agent} reports a negative value for room {room}")


class RowSumMismatch(ValidationError):
    def __init__(self, agent: str, actual_sum: Fraction, expected_sum: Fraction):
        self.agent = agent
        self.actual_sum = actual_sum
        self.expected_sum = expected_sum
        super().__init__(
            f"agent {agent}'s values sum to {abbreviate(actual_sum)}, "
            f"expected {abbreviate(expected_sum)}"
        )


class SearchSpaceTooLarge(RentDivisionError):
    """A misreport search grid has more steps per row than its budget allows.

    A best response costs about n**3 * T integer steps for n agents and T =
    rent/step grid steps per row, so the budget caps T at budget // n**3; the
    message names that cap, never the (unbounded) T itself.
    """

    def __init__(self, n: int, budget: int):
        self.n = n
        self.budget = budget
        self.max_steps = budget // n**3
        super().__init__(
            f"a search with n = {n} allows at most {self.max_steps} grid steps "
            f"per row (rent/step): n^3 * steps may not exceed {budget}"
        )


def to_rational(x) -> Fraction:
    """Coerce ints, Fractions and exact decimal/ratio strings to Fraction.

    Floats are rejected: they would silently poison the exact solve path.
    Booleans are no amounts either, though ``bool`` subclasses ``int``.
    Strings go through ``parse_money``.
    """
    if isinstance(x, (float, bool)):
        raise TypeError(f"refusing {type(x).__name__} {x!r}; pass an int, Fraction or string")
    return parse_money(x) if isinstance(x, str) else Fraction(x)


# The longest amount string, the largest decimal exponent, and the most
# digits in a numerator or denominator, that ``parse_money`` reads:
# Fraction("1e-10000000") alone takes seconds, and Python refuses to print
# an integer past 4300 digits.
MAX_AMOUNT_CHARS = 4000
MAX_AMOUNT_EXPONENT = 4000
MAX_AMOUNT_DIGITS = 4000
_DIGITS_LIMIT = 10**MAX_AMOUNT_DIGITS

# The most digits a message prints of one integer (``abbreviate``).
MESSAGE_DIGITS = 100
_MESSAGE_LIMIT = 10**MESSAGE_DIGITS


def _abbreviate_int(n: int) -> str:
    if -_MESSAGE_LIMIT < n < _MESSAGE_LIMIT:
        return str(n)
    sign, n = "-" if n < 0 else "", abs(n)
    # A lower bound on the digit count from the bit length, then exact.
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566398))
    while n >= 10**digits:
        digits += 1
    return f"{sign}{n // 10 ** (digits - 12)}...({digits} digits)"


def abbreviate(x) -> str:
    """``str(x)`` of an int or a ``Fraction`` for a message, with a numerator
    or denominator past MESSAGE_DIGITS digits shown as its first 12 digits
    and its length: Python refuses ``str`` past 4300 digits, and an ordinary
    amount prints as before."""
    x = Fraction(x)
    num, den = _abbreviate_int(x.numerator), _abbreviate_int(x.denominator)
    return num if den == "1" else f"{num}/{den}"


def _shown(s) -> str:
    """A refused amount as a message shows it: a string's first 20
    characters, an integer abbreviated."""
    if isinstance(s, str):
        return repr(s[:20]) + ("..." if len(s) > 20 else "")
    return abbreviate(s)


def parse_money(s: str) -> Fraction:
    """Parse a decimal string like "9.20" (or "46/5") to its exact rational.

    Raises TypeError for anything but a string or an int, ValidationError
    for a string longer than MAX_AMOUNT_CHARS or with a decimal exponent
    beyond MAX_AMOUNT_EXPONENT, or for an amount whose numerator or
    denominator has more than MAX_AMOUNT_DIGITS digits, and ``Fraction``'s
    ValueError or ZeroDivisionError for a string it cannot read.
    """
    if not isinstance(s, (str, int)) or isinstance(s, bool):
        raise TypeError(f"expected a decimal string, got {type(s).__name__}")
    if isinstance(s, str):
        _, e, exponent = s.lower().partition("e")
        refuse = len(s) > MAX_AMOUNT_CHARS
        if e and not refuse:
            try:
                refuse = abs(int(exponent)) > MAX_AMOUNT_EXPONENT
            except ValueError:
                pass  # Fraction names the malformed amount
        if refuse:
            raise ValidationError(
                f"refusing amount {_shown(s)}: an exact amount has at most "
                f"{MAX_AMOUNT_CHARS} characters and a decimal exponent between "
                f"-{MAX_AMOUNT_EXPONENT} and {MAX_AMOUNT_EXPONENT}"
            )
    x = Fraction(s)
    if not (-_DIGITS_LIMIT < x.numerator < _DIGITS_LIMIT and x.denominator < _DIGITS_LIMIT):
        raise ValidationError(
            f"refusing amount {_shown(s)}: an exact amount's numerator and "
            f"denominator have at most {MAX_AMOUNT_DIGITS} digits"
        )
    return x


def render_money(x: Fraction) -> str:
    """Render an exact rational to 2 decimal places, round half away from
    zero; an amount that rounds to zero cents prints unsigned."""
    cents = (abs(x) * 100 + Fraction(1, 2)).__floor__()
    sign = "-" if x < 0 and cents else ""
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def format_exact(x: Fraction) -> str:
    """Shortest exact string for a rational: int, terminating decimal, or a/b."""
    if x.denominator == 1:
        return str(x.numerator)
    # terminating decimal iff denominator is of the form 2^a * 5^b
    d = x.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d == 1:
        # scale to an exact decimal with the minimal number of places
        places = 0
        scaled = x
        while scaled.denominator != 1:
            scaled *= 10
            places += 1
        digits = abs(scaled.numerator)
        sign = "-" if x < 0 else ""
        s = str(digits).rjust(places + 1, "0")
        return f"{sign}{s[:-places]}.{s[-places:]}"
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Instance:
    """Rooms, agents and the total rent they must cover."""

    room_ids: tuple[str, ...]
    agent_ids: tuple[str, ...]
    total_rent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "room_ids", tuple(self.room_ids))
        object.__setattr__(self, "agent_ids", tuple(self.agent_ids))
        object.__setattr__(self, "total_rent", to_rational(self.total_rent))
        if len(self.room_ids) != len(self.agent_ids):
            raise DimensionMismatch(
                f"{len(self.agent_ids)} agents vs {len(self.room_ids)} rooms"
            )
        if not self.room_ids:
            raise DimensionMismatch("need at least one agent and one room")
        if len(set(self.room_ids)) != len(self.room_ids):
            raise ValidationError("duplicate room labels")
        if len(set(self.agent_ids)) != len(self.agent_ids):
            raise ValidationError("duplicate agent labels")
        if self.total_rent <= 0:
            raise ValidationError("total rent must be positive")

    @property
    def n(self) -> int:
        return len(self.agent_ids)

    def room_index(self, room_id: str) -> int:
        return self.room_ids.index(room_id)

    def agent_index(self, agent_id: str) -> int:
        return self.agent_ids.index(agent_id)


@dataclass(frozen=True)
class ValuationMatrix:
    """Per-agent, per-room values; rows in agent roster order, columns in room order."""

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(to_rational(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ValuationMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, agent_index: int, room_index: int) -> Fraction:
        return self.values[agent_index][room_index]

    def row(self, agent_index: int) -> tuple[Fraction, ...]:
        return self.values[agent_index]

    def replace_row(self, agent_index: int, row: Iterable) -> "ValuationMatrix":
        rows = list(self.values)
        rows[agent_index] = tuple(to_rational(v) for v in row)
        return ValuationMatrix(tuple(rows))


def validate_instance(instance: Instance, matrix: ValuationMatrix) -> None:
    """Enforce the input contract: square, nonnegative, rows sum to the rent.

    The row-sum check is exact; there is no tolerance.
    """
    if matrix.n != instance.n:
        raise DimensionMismatch(
            f"matrix has {matrix.n} rows for {instance.n} agents"
        )
    for i, row in enumerate(matrix.values):
        if len(row) != instance.n:
            raise DimensionMismatch(
                f"agent {instance.agent_ids[i]} row has {len(row)} entries, "
                f"expected {instance.n}"
            )
        for j, v in enumerate(row):
            if v < 0:
                raise NegativeValue(instance.agent_ids[i], instance.room_ids[j])
        s = sum(row)
        if s != instance.total_rent:
            raise RowSumMismatch(instance.agent_ids[i], s, instance.total_rent)


class Assignment:
    """A bijection agent -> room."""

    def __init__(self, mapping: Mapping[str, str]):
        self.mapping = dict(mapping)
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValidationError("assignment is not a bijection")

    @classmethod
    def from_indices(cls, instance: Instance, perm: Iterable[int]) -> "Assignment":
        return cls(
            {instance.agent_ids[i]: instance.room_ids[j] for i, j in enumerate(perm)}
        )

    def to_indices(self, instance: Instance) -> tuple[int, ...]:
        """Room index per agent, in agent roster order."""
        return tuple(
            instance.room_index(self.mapping[a]) for a in instance.agent_ids
        )

    def room_of(self, agent_id: str) -> str:
        return self.mapping[agent_id]

    def agent_of(self, room_id: str) -> str:
        for a, r in self.mapping.items():
            if r == room_id:
                return a
        raise KeyError(room_id)

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __repr__(self):
        inner = ", ".join(f"{a}->{r}" for a, r in sorted(self.mapping.items()))
        return f"Assignment({inner})"


class PriceVector:
    """Room prices; must sum exactly to the total rent (checked by callers)."""

    def __init__(self, prices: Mapping[str, Fraction]):
        self.prices = {r: to_rational(p) for r, p in prices.items()}

    @classmethod
    def from_list(cls, instance: Instance, prices: Iterable) -> "PriceVector":
        return cls(dict(zip(instance.room_ids, prices)))

    def price_of(self, room_id: str) -> Fraction:
        return self.prices[room_id]

    def as_list(self, instance: Instance) -> tuple[Fraction, ...]:
        return tuple(self.prices[r] for r in instance.room_ids)

    def total(self) -> Fraction:
        return sum(self.prices.values(), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, PriceVector) and self.prices == other.prices

    def __repr__(self):
        inner = ", ".join(
            f"{r}={render_money(p)}" for r, p in sorted(self.prices.items())
        )
        return f"PriceVector({inner})"


@dataclass(frozen=True)
class Outcome:
    """A fully solved allocation: who gets which room at what price."""

    assignment: Assignment
    prices: PriceVector
    utilities: dict  # agent_id -> Fraction
    welfare: Fraction
    min_utility: Fraction

    def payment_of(self, agent_id: str) -> Fraction:
        return self.prices.price_of(self.assignment.room_of(agent_id))


def compute_utilities(
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
    prices: PriceVector,
) -> dict:
    """Quasilinear utilities u_i = v_i(assigned room) - price(assigned room)."""
    out = {}
    for i, agent in enumerate(instance.agent_ids):
        room = assignment.room_of(agent)
        j = instance.room_index(room)
        out[agent] = matrix.value(i, j) - prices.price_of(room)
    return out


def build_outcome(
    instance: Instance,
    matrix: ValuationMatrix,
    assignment: Assignment,
    prices: PriceVector,
) -> Outcome:
    utilities = compute_utilities(instance, matrix, assignment, prices)
    welfare = sum(
        matrix.value(i, instance.room_index(assignment.room_of(a)))
        for i, a in enumerate(instance.agent_ids)
    )
    return Outcome(
        assignment=assignment,
        prices=prices,
        utilities=utilities,
        welfare=welfare,
        min_utility=min(utilities.values()),
    )
