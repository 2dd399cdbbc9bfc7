"""Foundational types: judgements, votes, profiles, histograms, agendas, quota rules.

All numeric fields are exact rationals (``fractions.Fraction``); no floating
point value ever enters a comparison made by these types. The integer form
of a vector of rationals, :func:`integer_form`, is D, the least common
denominator of its entries, and each entry times D; it is the one place an
LCD is taken. Each :class:`FractionalVote` stores its weights' form once, as
``lcd`` and ``numerators``, for its own [0, 1] and sum-to-1 checks, the
distinct-member check of a distribution set and the rational engine's
weights and denominators. :func:`~paradox_lab.aggregation.threshold_gaps`
computes every quota gap from it, the κ checks' sign-pattern rows are the
form of each proposition's member gaps, and a histogram law's total is the
form of its per-denominator partial sums.

The canonical judgement order is the one :func:`judgements` lists, and truth
tables, vote weights and histograms are indexed in it: the premise bits read as
a binary number with the first premise as the most significant digit, so for
p=2 the judgements are (0,0), (0,1), (1,0), (1,1).
"""

from __future__ import annotations

import decimal
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence, Union

from .errors import DimensionError

RationalLike = Union[Fraction, int, str]
_RATIONAL = re.compile(r"(-?[0-9]+)(?:([/.])([0-9]+))?")  # whole, separator, part

#: A judgement is a tuple of p premise bits.
Judgement = tuple[int, ...]


def as_rational(value: RationalLike) -> Fraction:
    """Convert a Fraction, an integer (not a bool) or a rational string exactly.

    A Fraction is returned as it is. A string is an optional "-", ASCII
    digits, then optionally "/digits" or ".digits", each part read with
    ``int()``, so a part past its digit limit is refused. Anything else
    raises TypeError or ValueError.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"expected an integer, 'num/den' or a decimal, got {value!r}")
        whole, sep, part = match.groups()
        if sep == ".":  # one int() over all digits keeps 10**len(part) within the limit
            return Fraction(int(whole + part), 10 ** len(part))
        return Fraction(int(whole), int(part) if sep else 1)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"expected an integer or a rational string like '1/2', got {value!r}")
    return Fraction(operator.index(value))


def format_rational(value: Fraction) -> str:
    """Render a Fraction or an int as 'num/den', or bare when den == 1, at any length."""
    parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
    try:
        return "/".join(map(str, parts))
    except ValueError:  # a part past str()'s int digit limit; libmpdec has none
        return "/".join(str(decimal.Decimal(part)) for part in parts)


def integer_form(weights: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(D, numerators): D the least common denominator of the weights, each weight times D."""
    lcd = math.lcm(*(w.denominator for w in weights))
    return lcd, tuple(w.numerator * (lcd // w.denominator) for w in weights)


def _check_bits(bits: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(operator.index(b) if hasattr(b, "__index__") else None for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"{what} must contain only 0/1 values, got {bits!r}")
    return out


def judgements(p: int) -> tuple[Judgement, ...]:
    """All 2**p judgements in the canonical order; entry j is judgement j (0-based)."""
    return tuple(product((0, 1), repeat=p))


@dataclass(frozen=True)
class Agenda:
    """p binary premises plus one conclusion fixed by a truth table.

    ``truth_table[j]`` is the conclusion value for the judgement with 0-based
    canonical index j, so the table has exactly 2**p entries.
    """

    p: int
    truth_table: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        object.__setattr__(self, "truth_table", _check_bits(self.truth_table, "truth_table"))
        if len(self.truth_table) != 1 << self.p:
            raise DimensionError(
                f"truth table has {len(self.truth_table)} entries, expected {1 << self.p}"
            )

    @property
    def m(self) -> int:
        """Number of distinct judgements, 2**p."""
        return 1 << self.p

    @classmethod
    def from_connective(cls, p: int, fn: Callable[[Judgement], int]) -> "Agenda":
        """Build an agenda by tabulating ``fn`` over all 2**p judgements."""
        return cls(p, tuple(int(bool(fn(w))) for w in judgements(p)))

    @classmethod
    def conjunction(cls, p: int) -> "Agenda":
        """Conclusion true iff every premise is 1."""
        return cls.from_connective(p, lambda w: int(all(w)))

    @classmethod
    def projection(cls, p: int, premise: int) -> "Agenda":
        """Conclusion copies premise ``premise`` (1-based)."""
        if not 1 <= premise <= p:
            raise ValueError(f"premise {premise} out of range [1, {p}]")
        return cls.from_connective(p, lambda w: w[premise - 1])


@dataclass(frozen=True)
class FractionalVote:
    """A probability distribution over the 2**p judgements.

    A plain (non-fractional) vote is the special case with a single unit
    weight; see :meth:`point`. ``lcd`` and ``numerators`` are the
    :func:`integer_form` of the weights, derived once and left out of the
    constructor, equality, hash and repr.
    """

    weights: tuple[Fraction, ...]
    lcd: int = field(init=False, repr=False, compare=False)
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(as_rational(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        m = len(weights)
        if m == 0 or m & (m - 1):
            raise DimensionError(f"vote length must be a power of two, got {m}")
        lcd, numerators = integer_form(weights)
        if any(num < 0 or num > lcd for num in numerators):
            raise ValueError("vote weights must lie in [0, 1]")
        if sum(numerators) != lcd:
            raise ValueError(f"vote weights must sum to 1, got {format_rational(sum(weights))}")
        object.__setattr__(self, "lcd", lcd)
        object.__setattr__(self, "numerators", numerators)

    @property
    def m(self) -> int:
        return len(self.weights)

    @classmethod
    def of(cls, weights: Iterable[RationalLike]) -> "FractionalVote":
        return cls(tuple(weights))

    @classmethod
    def point(cls, judgement: Sequence[int]) -> "FractionalVote":
        """The non-fractional vote putting weight 1 on one judgement."""
        bits = _check_bits(judgement, "judgement")
        return cls(tuple(Fraction(int(w == bits)) for w in judgements(len(bits))))

    @classmethod
    def uniform(cls, p: int) -> "FractionalVote":
        m = 1 << p
        return cls(tuple(Fraction(1, m) for _ in range(m)))


@dataclass(frozen=True)
class Profile:
    """An ordered list of n fractional votes sharing one judgement space."""

    votes: tuple[FractionalVote, ...]

    def __post_init__(self):
        votes = tuple(self.votes)
        object.__setattr__(self, "votes", votes)
        if not votes:
            raise ValueError("a profile needs at least one vote")
        m = votes[0].m
        if any(v.m != m for v in votes):
            raise DimensionError("all votes in a profile must have the same length")

    @property
    def n(self) -> int:
        return len(self.votes)

    @property
    def m(self) -> int:
        return self.votes[0].m


@dataclass(frozen=True)
class Histogram:
    """Total vote weight per judgement; the sufficient statistic for quota rules."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(as_rational(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        m = len(weights)
        if m == 0 or m & (m - 1):
            raise DimensionError(f"histogram length must be a power of two, got {m}")
        if any(w < 0 for w in weights):
            raise ValueError("histogram weights must be non-negative")

    @property
    def n(self) -> Fraction:
        """Total weight."""
        return sum(self.weights, Fraction(0))

    @property
    def m(self) -> int:
        return len(self.weights)

    def __add__(self, other: "Histogram") -> "Histogram":
        if self.m != other.m:
            raise DimensionError("histogram lengths differ")
        return Histogram(tuple(a + b for a, b in zip(self.weights, other.weights)))


def histogram(profile: Profile) -> Histogram:
    """Coordinate-wise sum of the profile's votes."""
    m = profile.m
    totals = [Fraction(0)] * m
    for vote in profile.votes:
        for j, w in enumerate(vote.weights):
            totals[j] += w
    return Histogram(tuple(totals))


@dataclass(frozen=True)
class QuotaRule:
    """Per-proposition acceptance thresholds q and tie-breaking bits d.

    Component i accepts when support exceeds q_i * n, takes d_i at exact
    equality, and rejects otherwise. Thresholds are exact rationals.
    """

    thresholds: tuple[Fraction, ...]
    breakings: tuple[int, ...]

    def __post_init__(self):
        thresholds = tuple(as_rational(q) for q in self.thresholds)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "breakings", _check_bits(self.breakings, "breakings"))
        if len(self.thresholds) != len(self.breakings):
            raise DimensionError("thresholds and breakings must have equal length")
        if any(q.numerator < 0 or q.numerator > q.denominator for q in thresholds):
            raise ValueError("thresholds must lie in [0, 1]")

    @property
    def propositions(self) -> int:
        return len(self.thresholds)

    @classmethod
    def of(
        cls, thresholds: Iterable[RationalLike], breakings: Iterable[int]
    ) -> "QuotaRule":
        return cls(tuple(thresholds), tuple(breakings))

    @classmethod
    def majority(cls, propositions: int, breakings: Iterable[int]) -> "QuotaRule":
        return cls.of([Fraction(1, 2)] * propositions, breakings)
