"""Quota-rule evaluation, outcome consistency, paradox detection, and count space.

Every verdict here is a pure function of exact rational inputs; the verdict
on a proposition depends only on its support and the total weight, through
its gap q_i * total - support_i. :func:`threshold_gaps` is the one place that
compares support with the quota: verdicts and ties of histograms, sign
patterns of distributions and the rows of the sign-pattern LPs all read it.
On an integer count out of n votes the verdict is 1 iff the count reaches
:func:`acceptance_count`, the integer form of the same comparison that every
count grid goes through.

Every count grid of the package covers, after k of n votes, the two-sided
windows of :func:`count_windows`. The one-agent step :func:`_grid_step` grows
a grid of counts, and its adjoint :func:`_absorb_step` takes a grid of
values one agent back. Both sum shifted slices of a padded grid by
:func:`_sum_shifted`; the forward steps fold window ends by
:func:`_fold_ends`. The grid after all n votes sits in the table of outcome
vectors at :func:`outcome_slices`, and :func:`paradox_table`, the one
interface between count grids and verdicts, marks the table's inconsistent
outcomes for the κ checks, the exact probabilities, whose absorption chains
start from it, and Monte Carlo alike. The reachable outcomes need no
conclusion axis: :func:`_reach_step`, the max-plus form of :func:`_grid_step`
over the premise windows, keeps per premise cell the most agents with
conclusion 1 and the most with conclusion 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError
from .model import (
    Agenda,
    Histogram,
    Profile,
    QuotaRule,
    histogram,
    integer_form,
    judgements,
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
    return tuple(w + (c,) for w, c in zip(judgements(agenda.p), agenda.truth_table))


def _check_proposition(i: int, agenda: Agenda) -> None:
    """Reject a proposition index outside 1..p+1 (p+1 is the conclusion)."""
    if not 1 <= i <= agenda.p + 1:
        raise ValueError(f"proposition index {i} out of range [1, {agenda.p + 1}]")


def threshold_gaps(
    weights: Sequence[Fraction], rule: QuotaRule, agenda: Agenda
) -> tuple[Fraction, ...]:
    """q_i * total - support_i for i = 1..p+1, exact: < 0 above the quota, 0 at a tie.

    support_i is the weight on the judgements whose proposition i is 1, and
    the total is the sum of the weights, which must be positive: a
    histogram's n, 1 for a distribution. With q_i = a_i / b_i it is
    (a_i * sum(N) - b_i * S_i) / (b_i * D) on the weights' integer form (D, N),
    S_i summing the numerators that support proposition i.
    """
    _check_rule(rule, agenda)
    if len(weights) != agenda.m:
        raise DimensionError(f"weight length {len(weights)} != agenda m {agenda.m}")
    lcd, numerators = integer_form(weights)
    total = sum(numerators)
    if total <= 0:
        raise ValueError("histogram must have positive total weight")
    return tuple(
        Fraction(q.numerator * total - q.denominator * sum(compress(numerators, column)),
                 q.denominator * lcd)
        for q, column in zip(rule.thresholds, zip(*proposition_patterns(agenda)))
    )


def acceptance_count(q: Fraction, d: int, n: int) -> int:
    """Smallest integer count out of n with verdict 1: ceil(q*n) if d else floor(q*n) + 1.

    Exact integer floor division; as q lies in [0, 1] the result lies in [0, n+1].
    """
    if d:
        return -(-q.numerator * n // q.denominator)
    return q.numerator * n // q.denominator + 1


#: Per axis, the (lo, hi) of the counts a count grid covers after some votes.
Window = tuple[tuple[int, int], ...]


def acceptance_counts(rule: QuotaRule, n: int) -> list[int]:
    """The :func:`acceptance_count` of each proposition at n votes."""
    return [acceptance_count(q, d, n) for q, d in zip(rule.thresholds, rule.breakings)]


def count_windows(rule: QuotaRule, n: int) -> list[Window]:
    """Windows of the count grids after k = 0..n of n votes, in order of k.

    Axis i covers [b_i, min(k, a_i)], b_i = max(0, a_i - (n - k) - 1). Index 0
    holds the counts up to b_i, which can no longer reach a_i, and the top
    index, once it is a_i, the counts that have reached it: merging either
    end changes no verdict.
    """
    accepts = acceptance_counts(rule, n)
    return [tuple((max(0, a + k - n - 1), min(k, a)) for a in accepts) for k in range(n + 1)]


def window_cells(window: Window) -> int:
    """Cells of the count grid on ``window``."""
    return math.prod(hi - lo + 1 for lo, hi in window)


def outcome_slices(rule: QuotaRule, n: int) -> tuple[slice, ...]:
    """Where the count grid after all n votes sits in the 2^(p+1) table of outcomes.

    Axis i of that grid has two cells, verdicts 0 and 1, unless a_i = 0 (one
    cell, verdict 1) or a_i = n+1 (one cell, verdict 0).
    """
    return tuple(slice(int(a == 0), int(a <= n) + 1) for a in acceptance_counts(rule, n))


def _fold_ends(new: np.ndarray, before: Window, after: Window, combine: np.ufunc) -> np.ndarray:
    """``new``, one index wider per window axis than ``before``, folded to ``after``.

    Leading axes are carried. ``combine`` folds the spare index into the top
    one if the top stays, and index 0 into index 1 if the bottom rises.
    """
    ahead = (slice(None),) * (new.ndim - len(before))
    for axis, ((lo, hi), (lo2, hi2)) in enumerate(zip(before, after)):
        lead = ahead + (slice(None),) * axis
        if hi2 == hi:
            top = new[lead + (hi - lo,)]
            combine(top, new[lead + (hi - lo + 1,)], out=top)
        if lo2 > lo:
            bottom = new[lead + (1,)]
            combine(bottom, new[lead + (0,)], out=bottom)
    return new[ahead + tuple(slice(lo2 - lo, hi2 - lo + 1)
                             for (lo, _), (lo2, hi2) in zip(before, after))]


def _sum_shifted(padded: np.ndarray, weights: Sequence, starts: Iterable, box: tuple) -> np.ndarray:
    """The sum of w * padded[start : start + box] over (w, start) pairs, in their order.

    Zero weights are skipped and unit ones added without a multiply (1 * x is
    exact in every dtype); products after the first term reuse one buffer.
    """
    total = buffer = None
    for w, start in zip(weights, starts):
        if w == 0:
            continue
        src = padded[tuple(slice(s, s + side) for s, side in zip(start, box))]
        if total is None:
            total = src.copy() if w == 1 else w * src
        elif w == 1:
            total += src
        else:
            buffer = np.multiply(w, src, out=buffer)
            total += buffer
    return total


def _grid_step(
    grid: np.ndarray,
    weights: Sequence,
    patterns: Sequence[tuple[int, ...]],
    before: Window,
    after: Window,
) -> np.ndarray:
    """One-agent convolution from window ``before`` to ``after``: gather, then fold.

    Entry u of a grid one index wider per axis sums w * grid[u - pattern], in
    pattern order, from ``grid`` zero-padded by one index per side. On bool
    grids with True weights the sums are ORs, the reachable counts: only the
    underflow masks of the float error check read those.
    """
    padded = np.zeros(tuple(side + 2 for side in grid.shape), dtype=grid.dtype)
    padded[(slice(1, -1),) * grid.ndim] = grid
    starts = (tuple(1 - c for c in pat) for pat in patterns)
    new = _sum_shifted(padded, weights, starts, tuple(side + 1 for side in grid.shape))
    return _fold_ends(new, before, after, np.add)


def _reach_step(
    grid: np.ndarray,
    conclusions: Sequence[int],
    patterns: Sequence[tuple[int, ...]],
    before: Window,
    after: Window,
) -> np.ndarray:
    """One-agent max-plus step over premise windows, from ``before`` to ``after``.

    Entry (0, v) of ``grid`` is the most agents with conclusion 1, and entry
    (1, v) the most with conclusion 0, among the profiles whose premise counts
    fold to cell v. Judgement j, of premise bits ``patterns[j]`` and conclusion
    ``conclusions[j]``, shifts the grid by its bits with one agent added on
    the row of its conclusion, scattered, as a raised zero pad would mark
    counts no profile reaches; shifts and folds take maxima where
    :func:`_grid_step` sums. Zeros are the identity: with every judgement
    allowed every premise cell of a window is reachable.
    """
    # raised[c] counts one more agent of conclusion c: on row 1 if c = 0, on row 0 if 1
    raised = [grid.copy(), grid.copy()]
    raised[0][1] += 1
    raised[1][0] += 1
    box = grid.shape[1:]
    new = np.zeros(grid.shape[:1] + tuple(side + 1 for side in box), dtype=grid.dtype)
    for c, pat in zip(conclusions, patterns):
        dst = new[(slice(None),) + tuple(slice(s, s + side) for s, side in zip(pat, box))]
        np.maximum(dst, raised[c], out=dst)
    return _fold_ends(new, before, after, np.maximum)


def _absorb_step(
    values: np.ndarray,
    weights: Sequence,
    patterns: Sequence[tuple[int, ...]],
    before: Window,
    after: Window,
) -> np.ndarray:
    """Adjoint of :func:`_grid_step`: absorb one agent into a grid of values.

    ``values`` lies on window ``after``, the result on ``before``: entry t
    sums w * values[class of count lo + t + pattern], in pattern order, read
    from ``values`` edge-padded by lo' - lo below and hi + 1 - hi' above.
    On bool values with True weights the sums are ORs: the cells from which
    a marked cell is reachable, which the underflow masks of the float error
    check read.
    """
    box = tuple(hi - lo + 1 for lo, hi in before)
    padded = np.empty(tuple(b + 1 for b in box), dtype=values.dtype)
    below = [lo2 - lo for (lo, _), (lo2, _) in zip(before, after)]
    padded[tuple(slice(b, b + side) for b, side in zip(below, values.shape))] = values
    for axis, (b, side) in enumerate(zip(below, values.shape)):
        view = padded.swapaxes(0, axis)
        view[:b], view[b + side :] = view[b], view[b + side - 1]
    return _sum_shifted(padded, weights, patterns, box)


def apply_quota(h: Histogram, rule: QuotaRule, agenda: Agenda) -> OutcomeVector:
    """Evaluate the quota rule on a histogram: 1 above the quota, d_i at a tie, else 0."""
    gaps = threshold_gaps(h.weights, rule, agenda)
    return tuple(int(gap < 0) if gap else d for gap, d in zip(gaps, rule.breakings))


def is_tied(h: Histogram, i: int, rule: QuotaRule, agenda: Agenda) -> bool:
    """True iff the support for proposition i equals q_i times the total weight."""
    _check_proposition(i, agenda)
    return threshold_gaps(h.weights, rule, agenda)[i - 1] == 0


def _check_outcome(alpha: Sequence[int], agenda: Agenda) -> OutcomeVector:
    """alpha as a tuple of ints, checked to hold p+1 entries, each 0 or 1."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != agenda.p + 1:
        raise DimensionError(f"outcome has {len(alpha)} entries, expected {agenda.p + 1}")
    if any(a not in (0, 1) for a in alpha):
        raise ValueError("outcome entries must be 0 or 1")
    return alpha


def is_consistent(alpha: Sequence[int], agenda: Agenda) -> bool:
    """True iff the conclusion entry of alpha matches the truth table on its premises."""
    return not paradox_table(agenda)[_check_outcome(alpha, agenda)]


def paradox_table(agenda: Agenda) -> np.ndarray:
    """Boolean table over the 2^(p+1) outcome vectors: True where alpha is inconsistent."""
    return np.not_equal.outer(np.reshape(agenda.truth_table, (2,) * agenda.p), (0, 1))


def inconsistent_outcomes(agenda: Agenda) -> tuple[OutcomeVector, ...]:
    """All outcome vectors violating the agenda's truth table, in index order."""
    return tuple(tuple(map(int, alpha)) for alpha in np.argwhere(paradox_table(agenda)))


def is_paradox(source: Union[Profile, Histogram], rule: QuotaRule, agenda: Agenda) -> bool:
    """True iff the aggregated outcome violates the logical connection."""
    h = histogram(source) if isinstance(source, Profile) else source
    return not is_consistent(apply_quota(h, rule, agenda), agenda)
