"""Halfspace representation of the outcome regions and their characteristic cones.

Each outcome vector alpha gets a polyhedron {x : A x <= b} in histogram space.
The offsets b encode strict quota inequalities with a unit slack;
for integer histograms that slack is loose whenever a fractional threshold
opposes the tie bit, so every polyhedron also carries exact offsets (unit
slack replaced by 1/denominator(q_i)) under which membership of an integer
histogram coincides with the quota outcome. The characteristic cone {A x <= 0}
needs no such correction: cone membership of a distribution is exactly
refinement membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import DimensionError
from .model import Agenda, FractionalVote, Histogram, QuotaRule, as_rational
from .aggregation import (
    OutcomeVector,
    _check_outcome,
    _check_proposition,
    _check_rule,
    inconsistent_outcomes,
    proposition_patterns,
)
from .conditions import check_kappa4


@dataclass(frozen=True)
class Polyhedron:
    """One outcome region {x : A x <= b} with its exact-offset variant."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    b_exact: tuple[Fraction, ...]
    alpha: OutcomeVector

    @property
    def m(self) -> int:
        return len(self.A[0])


def characteristic_vector(i: int, rule: QuotaRule, agenda: Agenda) -> tuple[Fraction, ...]:
    """The row scoring a histogram against proposition i (1-based; p+1 is the conclusion).

    Entry for judgement w is q_i - 1 when w supports proposition i and q_i
    otherwise, so dotting with a histogram gives its
    :func:`~paradox_lab.aggregation.threshold_gaps` entry i.
    """
    _check_rule(rule, agenda)
    _check_proposition(i, agenda)
    q = rule.thresholds[i - 1]
    return tuple(q - pattern[i - 1] for pattern in proposition_patterns(agenda))


def _signed_rows(rule: QuotaRule, agenda: Agenda) -> list[tuple[tuple, tuple]]:
    """Per proposition, one characteristic vector's (row, offset, exact offset) per verdict.

    The entries q and q - 1 and their negatives are computed once per
    proposition and picked by each judgement's bit.
    """
    _check_rule(rule, agenda)
    signed = []
    for q, d, column in zip(rule.thresholds, rule.breakings, zip(*proposition_patterns(agenda))):
        entries = (q, q - 1)
        negated = (-q, 1 - q)
        # verdict 0 asks -c . x <= -d, verdict 1 asks c . x <= d - 1
        zero, one, exact = Fraction(-d), Fraction(d - 1), Fraction(-1, q.denominator)
        signed.append((
            (tuple(negated[bit] for bit in column), zero, zero and exact),
            (tuple(entries[bit] for bit in column), one, one and exact),
        ))
    return signed


def _polyhedron(alpha: OutcomeVector, signed: list[tuple[tuple, tuple]]) -> Polyhedron:
    rows, b, b_exact = zip(*(pair[verdict] for pair, verdict in zip(signed, alpha)))
    return Polyhedron(rows, b, b_exact, alpha)


def build_polyhedron(alpha: Sequence[int], rule: QuotaRule, agenda: Agenda) -> Polyhedron:
    """Halfspace system whose solutions aggregate to alpha.

    Row i is sign(alpha_i) times the characteristic vector (sign(0) = -1);
    the unit-slack offset is sign(alpha_i)*d_i - [alpha_i = 1], always 0 or -1.
    Exact offsets replace each -1 by -1/denominator(q_i), which is tight for
    integer histograms.
    """
    signed = _signed_rows(rule, agenda)
    return _polyhedron(_check_outcome(alpha, agenda), signed)


def paradox_region(rule: QuotaRule, agenda: Agenda) -> tuple[Polyhedron, ...]:
    """Polyhedra of every inconsistent outcome, in canonical alpha order."""
    signed = _signed_rows(rule, agenda)
    return tuple(_polyhedron(a, signed) for a in inconsistent_outcomes(agenda))


def _as_weights(x: Union[Histogram, FractionalVote, Sequence]) -> tuple[Fraction, ...]:
    if isinstance(x, (Histogram, FractionalVote)):
        return x.weights
    return tuple(as_rational(v) for v in x)


def _products(x, poly: Polyhedron) -> list[Fraction]:
    weights = _as_weights(x)
    if len(weights) != poly.m:
        raise DimensionError(f"vector length {len(weights)} != polyhedron m {poly.m}")
    return [
        sum((r * w for r, w in zip(row, weights) if w != 0), Fraction(0))
        for row in poly.A
    ]


def in_polyhedron(x, poly: Polyhedron) -> bool:
    """Componentwise test A x <= b with the unit-slack offsets."""
    return all(v <= bound for v, bound in zip(_products(x, poly), poly.b))


def in_polyhedron_exact(x, poly: Polyhedron) -> bool:
    """Componentwise test A x <= b_exact.

    For integer histograms this is equivalent to the quota outcome equalling
    the polyhedron's alpha.
    """
    return all(v <= bound for v, bound in zip(_products(x, poly), poly.b_exact))


def in_cone(x, poly: Polyhedron) -> bool:
    """Membership in the characteristic cone {x : A x <= 0}."""
    return all(v <= 0 for v in _products(x, poly))


def cone_dimension(poly: Polyhedron, rule: QuotaRule, agenda: Agenda) -> int:
    """Dimension of the characteristic cone of an inconsistent-outcome polyhedron.

    It is m - 1 exactly when the conclusion mirrors a single premise with a
    matching threshold (the cone then lies in the hyperplane where the two
    scoring rows cancel) and m otherwise.
    """
    return agenda.m - 1 if check_kappa4(rule, agenda) else agenda.m
