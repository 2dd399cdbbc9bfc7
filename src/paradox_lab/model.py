"""Foundational types: judgements, votes, profiles, histograms, agendas, quota rules.

All numeric fields are exact rationals (``fractions.Fraction``); no floating
point value ever enters a comparison made by these types.

The canonical judgement order reads the premise bits as a binary number with
the first premise as the most significant digit, so for p=2 the judgements are
(0,0), (0,1), (1,0), (1,1) at 1-based indices 1..4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import DimensionError

Rational = Fraction
RationalLike = Union[Fraction, int, str]

#: A judgement is a tuple of p premise bits.
Judgement = tuple[int, ...]


def as_rational(value: RationalLike) -> Fraction:
    """Convert to an exact Fraction; floats are rejected to keep arithmetic exact."""
    if isinstance(value, float):
        raise TypeError(
            "refusing float %r: pass a string like '1/2' or '0.25', an int, or a Fraction"
            % (value,)
        )
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'num/den' (or a bare integer when den == 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _check_bits(bits: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"{what} must contain only 0/1 values, got {bits!r}")
    return out


def encode_judgement(judgement: Sequence[int], p: int | None = None) -> int:
    """1-based canonical index of a judgement (premise bits as a binary number).

    The first premise is the most significant digit: (1,0) -> 3 for p=2.
    """
    bits = _check_bits(judgement, "judgement")
    if p is not None and len(bits) != p:
        raise DimensionError(f"judgement has {len(bits)} bits, expected p={p}")
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value + 1


def decode_index(index: int, p: int) -> Judgement:
    """Inverse of :func:`encode_judgement`: 1-based index -> judgement bits."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 1 <= index <= (1 << p):
        raise ValueError(f"index {index} out of range [1, {1 << p}] for p={p}")
    value = index - 1
    return tuple((value >> (p - 1 - i)) & 1 for i in range(p))


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

    def conclusion(self, judgement: Sequence[int]) -> int:
        """Value of the conclusion for one judgement."""
        return self.truth_table[encode_judgement(judgement, self.p) - 1]

    @classmethod
    def from_connective(cls, p: int, fn: Callable[[Judgement], int]) -> "Agenda":
        """Build an agenda by tabulating ``fn`` over all 2**p judgements."""
        table = tuple(int(bool(fn(decode_index(j + 1, p)))) for j in range(1 << p))
        return cls(p, table)

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


def omega_indices(i: int, agenda: Agenda) -> tuple[int, ...]:
    """0-based judgement indices whose i-th proposition is 1 (i is 1-based).

    For i <= p these are the judgements with premise i set; for i = p+1 the
    judgements whose conclusion is 1.
    """
    if not 1 <= i <= agenda.p + 1:
        raise ValueError(f"proposition index {i} out of range [1, {agenda.p + 1}]")
    if i <= agenda.p:
        return tuple(
            j for j in range(agenda.m) if (j >> (agenda.p - i)) & 1
        )
    return tuple(j for j, v in enumerate(agenda.truth_table) if v == 1)


def omega_set(i: int, agenda: Agenda) -> frozenset[Judgement]:
    """Set of judgements whose i-th proposition is 1 (conclusion for i = p+1)."""
    return frozenset(decode_index(j + 1, agenda.p) for j in omega_indices(i, agenda))


@dataclass(frozen=True)
class FractionalVote:
    """A probability distribution over the 2**p judgements.

    A plain (non-fractional) vote is the special case with a single unit
    weight; see :meth:`point`.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(as_rational(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        m = len(weights)
        if m == 0 or m & (m - 1):
            raise DimensionError(f"vote length must be a power of two, got {m}")
        if any(w < 0 or w > 1 for w in weights):
            raise ValueError("vote weights must lie in [0, 1]")
        if sum(weights) != 1:
            raise ValueError(f"vote weights must sum to 1, got {sum(weights)}")

    @property
    def m(self) -> int:
        return len(self.weights)

    @classmethod
    def of(cls, weights: Iterable[RationalLike]) -> "FractionalVote":
        return cls(tuple(as_rational(w) for w in weights))

    @classmethod
    def point(cls, judgement: Sequence[int]) -> "FractionalVote":
        """The non-fractional vote putting weight 1 on one judgement."""
        bits = _check_bits(judgement, "judgement")
        m = 1 << len(bits)
        idx = encode_judgement(bits) - 1
        return cls(tuple(Fraction(1) if j == idx else Fraction(0) for j in range(m)))

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
        if any(q < 0 or q > 1 for q in thresholds):
            raise ValueError("thresholds must lie in [0, 1]")

    @property
    def propositions(self) -> int:
        return len(self.thresholds)

    @classmethod
    def of(
        cls, thresholds: Iterable[RationalLike], breakings: Iterable[int]
    ) -> "QuotaRule":
        return cls(tuple(as_rational(q) for q in thresholds), tuple(breakings))

    @classmethod
    def majority(cls, propositions: int, breakings: Iterable[int]) -> "QuotaRule":
        return cls.of([Fraction(1, 2)] * propositions, breakings)
