"""Quota-rule evaluation, outcome consistency, paradox detection, and count space.

Every verdict here is a pure function of exact rational inputs; the verdict
on a proposition depends only on its support count and the total weight. On an
integer count out of n votes the verdict is 1 iff the count reaches
:func:`acceptance_count`; :func:`outcome_window` turns an outcome vector into
the box of count vectors that give it. Every integer-count verdict in the
package goes through these two; :func:`count_verdict` is the reference for
fractional histograms.

Every count grid of the package stops axis i at the cap c_i of
:func:`count_caps`, its index c_i holding every count of at least c_i, and
grows by the one-agent step :func:`_grid_step`; its adjoint :func:`_absorb_step`
takes a grid of values one agent back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionError
from .model import (
    Agenda,
    Histogram,
    Profile,
    QuotaRule,
    histogram,
    omega_indices,
)

#: A joint verdict on all premises and the conclusion, length p+1.
OutcomeVector = tuple[int, ...]


def _check_rule(rule: QuotaRule, agenda: Agenda) -> None:
    if rule.propositions != agenda.p + 1:
        raise DimensionError(
            f"rule covers {rule.propositions} propositions, agenda needs {agenda.p + 1}"
        )


def proposition_patterns(agenda: Agenda) -> tuple[tuple[int, ...], ...]:
    """Per-judgement 0/1 pattern over the p+1 propositions.

    Entry j is the vector (premise bits of judgement j, conclusion of j); a
    histogram's support counts are its weights dotted with these patterns.
    """
    rows = []
    for j in range(agenda.m):
        bits = tuple((j >> (agenda.p - 1 - k)) & 1 for k in range(agenda.p))
        rows.append(bits + (agenda.truth_table[j],))
    return tuple(rows)


def proposition_weight(h: Histogram, i: int, agenda: Agenda) -> Fraction:
    """Total weight of agents whose i-th judgement is 1 (conclusion for i = p+1)."""
    if h.m != agenda.m:
        raise DimensionError(f"histogram length {h.m} != agenda m {agenda.m}")
    return sum((h.weights[j] for j in omega_indices(i, agenda)), Fraction(0))


def count_verdict(count: Fraction, total: Fraction, q: Fraction, d: int) -> int:
    """Quota verdict for one proposition: 1 above q*total, d at equality, else 0."""
    bar = q * total
    if count > bar:
        return 1
    if count == bar:
        return d
    return 0


def acceptance_count(q: Fraction, d: int, n: int) -> int:
    """Smallest integer count out of n with verdict 1: ceil(q*n) if d else floor(q*n) + 1.

    Exact integer floor division; as q lies in [0, 1] the result lies in [0, n+1].
    """
    if d:
        return -(-q.numerator * n // q.denominator)
    return q.numerator * n // q.denominator + 1


def outcome_window(
    alpha: Sequence[int], rule: QuotaRule, n: int
) -> Optional[tuple[slice, ...]]:
    """Box of count vectors over [0, n]^(p+1) whose quota outcome is alpha, or None.

    Proposition i contributes [a_i, n+1) when alpha_i = 1 and [0, a_i) when
    alpha_i = 0, with a_i its :func:`acceptance_count`; None when some range
    is empty.
    """
    window = []
    for a, q, d in zip(alpha, rule.thresholds, rule.breakings):
        accept = acceptance_count(q, d, n)
        lo, hi = (accept, n + 1) if a == 1 else (0, accept)
        if lo >= hi:
            return None
        window.append(slice(lo, hi))
    return tuple(window)


def count_caps(rule: QuotaRule, n: int) -> tuple[int, ...]:
    """Caps c_i = min(a_i, n) of the count grids at n votes, a_i the :func:`acceptance_count`.

    Counts of at least c_i share one verdict, so an :func:`outcome_window`
    indexes a capped grid as it would the full (n+1)^(p+1) one.
    """
    return tuple(min(acceptance_count(q, d, n), n)
                 for q, d in zip(rule.thresholds, rule.breakings))


def _grid_step(
    grid: np.ndarray,
    weights: Sequence,
    patterns: Sequence[tuple[int, ...]],
    caps: Sequence[int],
) -> np.ndarray:
    """One-agent convolution on a capped count grid: shift-add over the vote patterns.

    Entry t of the result sums w * grid[s] over entries s and patterns with
    min(s + pattern, caps) = t: the shifts fill one spare index per axis,
    which is folded into c_i, as saturation commutes with each +0/+1 step.
    On bool grids with True weights ``+=`` is OR: the reachable counts.
    """
    shape = tuple(side + 1 for side in grid.shape)
    new = np.zeros(shape, dtype=grid.dtype)
    for w, pat in zip(weights, patterns):
        if w == 0:
            continue
        dst = tuple(slice(c, c + side) for c, side in zip(pat, grid.shape))
        # 1 * x is exact in every dtype, and skipping it spares a temporary
        new[dst] += grid if w == 1 else w * grid
    for axis, cap in enumerate(caps):
        if shape[axis] == cap + 2:
            before = (slice(None),) * axis
            new[before + (cap,)] += new[before + (cap + 1,)]
    return new[tuple(slice(0, c + 1) for c in caps)]


def _absorb_step(
    values: np.ndarray,
    weights: Sequence,
    patterns: Sequence[tuple[int, ...]],
    box: Sequence[int],
) -> np.ndarray:
    """Adjoint of :func:`_grid_step`: absorb one agent into a grid of values.

    Entry t of the result, of shape ``box``, sums w * values[min(t + pattern, c)]
    over the patterns. ``box`` is the count grid one agent earlier, so each
    of its sides is the side of ``values`` or one less; an axis on which it
    is not less is saturated, and its edge copy is the value at c_i.
    """
    edges = [(0, int(b == a)) for b, a in zip(box, values.shape)]
    padded = np.pad(values, edges, mode="edge")
    new = np.zeros(box, dtype=values.dtype)
    for w, pat in zip(weights, patterns):
        if w == 0:
            continue
        src = padded[tuple(slice(c, c + b) for c, b in zip(pat, box))]
        new += src if w == 1 else w * src
    return new


def apply_quota(h: Histogram, rule: QuotaRule, agenda: Agenda) -> OutcomeVector:
    """Evaluate the quota rule on a histogram; all comparisons are exact."""
    _check_rule(rule, agenda)
    n = h.n
    if n <= 0:
        raise ValueError("histogram must have positive total weight")
    return tuple(
        count_verdict(proposition_weight(h, i, agenda), n, rule.thresholds[i - 1],
                      rule.breakings[i - 1])
        for i in range(1, agenda.p + 2)
    )


def is_tied(h: Histogram, i: int, rule: QuotaRule, agenda: Agenda) -> bool:
    """True iff the support for proposition i equals q_i times the total weight."""
    _check_rule(rule, agenda)
    return proposition_weight(h, i, agenda) == rule.thresholds[i - 1] * h.n


def is_consistent(alpha: Sequence[int], agenda: Agenda) -> bool:
    """True iff the conclusion entry of alpha matches the truth table on its premises."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != agenda.p + 1:
        raise DimensionError(f"outcome has {len(alpha)} entries, expected {agenda.p + 1}")
    return alpha[agenda.p] == agenda.conclusion(alpha[: agenda.p])


def inconsistent_outcomes(agenda: Agenda) -> tuple[OutcomeVector, ...]:
    """All outcome vectors violating the agenda's truth table, in index order."""
    out = []
    for code in range(1 << (agenda.p + 1)):
        alpha = tuple((code >> (agenda.p - k)) & 1 for k in range(agenda.p + 1))
        if not is_consistent(alpha, agenda):
            out.append(alpha)
    return tuple(out)


def is_paradox(source: Union[Profile, Histogram], rule: QuotaRule, agenda: Agenda) -> bool:
    """True iff the aggregated outcome violates the logical connection."""
    h = histogram(source) if isinstance(source, Profile) else source
    return not is_consistent(apply_quota(h, rule, agenda), agenda)
