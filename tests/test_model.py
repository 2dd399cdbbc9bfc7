import decimal
import sys
from fractions import Fraction

import numpy as np
import pytest

import paradox_lab
from hypothesis import given, settings
from hypothesis import strategies as st

from paradox_lab import (
    Agenda,
    DimensionError,
    FractionalVote,
    Histogram,
    Profile,
    QuotaRule,
    as_rational,
    format_rational,
    histogram,
    judgements,
    proposition_patterns,
)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_judgement_order(p):
    # the premise bits read as a binary number, the first premise most significant
    assert judgements(2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    order = judgements(p)
    assert [int("".join(map(str, w)), 2) for w in order] == list(range(1 << p))
    for w in order:
        weights = FractionalVote.point(w).weights
        assert weights[order.index(w)] == 1 and sum(weights) == 1
    parity = Agenda.from_connective(p, lambda w: sum(w) % 2)
    assert proposition_patterns(parity) == tuple(w + (sum(w) % 2,) for w in order)


def test_public_names_resolve():
    names = paradox_lab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(paradox_lab, name)] == []
    namespace: dict = {}
    exec("from paradox_lab import *", namespace)
    assert set(names) <= set(namespace)


def test_histogram_table_values():
    profile = Profile(
        (
            FractionalVote.point((1, 0)),
            FractionalVote.point((0, 1)),
            FractionalVote.of([0, 0, Fraction(1, 2), Fraction(1, 2)]),
        )
    )
    assert histogram(profile).weights == (
        Fraction(0),
        Fraction(1),
        Fraction(3, 2),
        Fraction(1, 2),
    )


def test_histogram_single_vote_identity():
    profile = Profile((FractionalVote.point((1, 1)),))
    assert histogram(profile).weights == (0, 0, 0, 1)


def test_histogram_scalar_multiple():
    profile = Profile(tuple(FractionalVote.uniform(2) for _ in range(3)))
    assert histogram(profile).weights == tuple(Fraction(3, 4) for _ in range(4))


@st.composite
def vote_lists(draw, m=4, max_votes=5):
    votes = []
    for _ in range(draw(st.integers(1, max_votes))):
        raw = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m).filter(sum))
        total = sum(raw)
        votes.append(FractionalVote(tuple(Fraction(x, total) for x in raw)))
    return votes


@given(vote_lists(), vote_lists())
@settings(max_examples=60, deadline=None)
def test_histogram_linearity(first, second):
    combined = histogram(Profile(tuple(first + second)))
    separate = histogram(Profile(tuple(first))) + histogram(Profile(tuple(second)))
    assert combined.weights == separate.weights


def test_rational_arithmetic_is_exact():
    a, b = Fraction(1, 3), Fraction(1, 6)
    assert a + b == Fraction(1, 2)
    assert (a + b).denominator == 2
    assert as_rational("7/21") == Fraction(1, 3)
    assert as_rational("0.125") == Fraction(1, 8)
    assert format_rational(Fraction(13, 20)) == "13/20"
    assert format_rational(Fraction(4, 2)) == "2"


@pytest.mark.parametrize("value", [
    Fraction(13, 20),
    Fraction(-7),
    pytest.param(Fraction(10**5000 + 1, 3**9000), id="5001-digit-numerator"),
    pytest.param(Fraction(-3, 10**4300), id="4301-digit-denominator"),
    pytest.param(Fraction(-(10**6000)), id="6001-digit-integer"),
])
def test_format_rational_prints_any_length(value):
    # past the int-to-str digit limit the digits come from libmpdec, and the
    # limit itself is left as it was
    limit = sys.get_int_max_str_digits()
    num, slash, den = format_rational(value).partition("/")
    assert bool(slash) == (value.denominator != 1)
    assert Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den or "1"))) == value
    assert sys.get_int_max_str_digits() == limit


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.1)


@pytest.mark.parametrize("value, expected", [
    ("12", Fraction(12)),
    ("-3/4", Fraction(-3, 4)),
    ("-2.50", Fraction(-5, 2)),
    pytest.param("0." + "0" * 4298 + "1", Fraction(1, 10**4299), id="4299-digit-decimal"),
    (np.int64(3), Fraction(3)),
    (Fraction(1, 3), Fraction(1, 3)),
])
def test_as_rational_reads_the_documented_spellings(value, expected):
    q = as_rational(value)
    assert q == expected and format_rational(q)


@pytest.mark.parametrize("value", [
    True, None, np.float64(0.5), "1e3", "1e-4300", "1_000", " 1/2", "1/2\n", "+1", ".5", "5.",
    "\u0663", "1/-2", "1.5/2", "", "-",
    pytest.param("1/" + "9" * 4301, id="4301-digit-denominator"),
    pytest.param("0." + "0" * 4299 + "1", id="4300-digit-decimal"),
])
def test_as_rational_refuses_every_other_value(value):
    with pytest.raises((TypeError, ValueError)):
        as_rational(value)


def test_vote_validation():
    with pytest.raises(ValueError):
        FractionalVote.of(["1/2", "1/4"])
    with pytest.raises(ValueError):
        FractionalVote.of(["3/2", "-1/2"])


def test_profile_needs_consistent_lengths():
    with pytest.raises(DimensionError):
        Profile((FractionalVote.uniform(1), FractionalVote.uniform(2)))


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        Histogram((Fraction(-1), Fraction(2)))


def test_quota_rule_validation():
    with pytest.raises(ValueError):
        QuotaRule.of(["3/2"], (0,))
    with pytest.raises(DimensionError):
        QuotaRule.of(["1/2", "1/2"], (0,))
    with pytest.raises(ValueError):
        QuotaRule.of(["1/2"] * 2, (1.0, "1"))


def test_agenda_validation():
    with pytest.raises(DimensionError):
        Agenda(2, (0, 1))
    with pytest.raises(ValueError):
        Agenda(2, (0, 1, 2, 1))
    with pytest.raises(ValueError):
        Agenda(1, (0.9, 1))
