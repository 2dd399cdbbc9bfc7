"""Shared fixtures: golden instances, random instance generation, brute oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from paradox_lab import (
    Agenda,
    DistributionSet,
    FractionalVote,
    Histogram,
    Instance,
    QuotaRule,
    apply_quota,
    compositions,
    is_paradox,
    parse_instance,
)
from paradox_lab.aggregation import proposition_patterns
from paradox_lab.conditions import _phase_one

INSTANCE_DIR = Path(__file__).parent / "instances"

# acceptance counts (4, 3, 3, 2) at n = 8, one per axis of a p = 3 count grid
CAPPED_RULE = QuotaRule.of(["1/2", "1/3", "1/4", "1/5"], (1, 1, 0, 0))


@pytest.fixture(scope="session")
def theta1_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "conjunction_theta1.json")


@pytest.fixture(scope="session")
def expsmall_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "conjunction_expsmall.json")


@pytest.fixture(scope="session")
def mirror_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "single_premise_mirror.json")


@pytest.fixture(scope="session")
def three_majority_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "three_premise_majority.json")


@pytest.fixture(scope="session")
def three_quota_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "three_premise_quota.json")


def random_rule(rng: random.Random, propositions: int) -> QuotaRule:
    thresholds = []
    for _ in range(propositions):
        den = rng.randint(1, 6)
        thresholds.append(Fraction(rng.randint(0, den), den))
    breakings = tuple(rng.randint(0, 1) for _ in range(propositions))
    return QuotaRule(tuple(thresholds), breakings)


def random_distribution(rng: random.Random, m: int) -> FractionalVote:
    """Strictly positive weights on a rational grid (denominator 8..16)."""
    den = rng.choice([8, 12, 16])
    cuts = sorted(rng.sample(range(1, den), m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return FractionalVote(tuple(Fraction(x, den) for x in parts))


def random_instance(rng: random.Random, p: int | None = None, members: int | None = None):
    """A random (agenda, rule, distribution set) triple with p <= 2."""
    p = p if p is not None else rng.choice([1, 2])
    m = 1 << p
    agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(m)))
    rule = random_rule(rng, p + 1)
    count = members if members is not None else rng.choice([1, 2])
    dists = None
    while dists is None:
        candidates = tuple(random_distribution(rng, m) for _ in range(count))
        if len(set(candidates)) == count:
            dists = DistributionSet(candidates)
    return agenda, rule, dists


def random_positive_members(rng: random.Random, m: int, count: int) -> DistributionSet:
    """``count`` distinct strictly positive members, integer weights 1..9 normalized."""
    rows: list[FractionalVote] = []
    while len(rows) < count:
        ints = [rng.randint(1, 9) for _ in range(m)]
        row = FractionalVote(tuple(Fraction(x, sum(ints)) for x in ints))
        if row not in rows:
            rows.append(row)
    return DistributionSet(tuple(rows))


def negated(i: int, agenda: Agenda, rule: QuotaRule, dists: DistributionSet):
    """(agenda, rule, dists) with proposition i negated, 0-based, p being the conclusion.

    A premise flips bit i of every judgement, which permutes the truth table
    and each member's weights; the conclusion flips the truth table. Either
    way q_i becomes 1 - q_i and d_i becomes 1 - d_i, so a_i becomes
    n + 1 - a_i and the verdict on i flips for every histogram, while the
    inconsistent outcomes map onto themselves: every probability, κ flag and
    classification is unchanged.
    """
    p, m = agenda.p, agenda.m
    table, members = agenda.truth_table, dists.members
    if i < p:
        flip = 1 << (p - 1 - i)  # the first premise is the most significant bit
        table = tuple(table[j ^ flip] for j in range(m))
        members = tuple(FractionalVote(tuple(member.weights[j ^ flip] for j in range(m)))
                        for member in members)
    else:
        table = tuple(1 - t for t in table)
    thresholds, breakings = list(rule.thresholds), list(rule.breakings)
    thresholds[i], breakings[i] = 1 - thresholds[i], 1 - breakings[i]
    return (Agenda(p, table), QuotaRule(tuple(thresholds), tuple(breakings)),
            DistributionSet(members))


def brute_force_outcomes(n: int, rule: QuotaRule, agenda: Agenda) -> set:
    """Every outcome vector achieved by some profile of n votes."""
    seen = set()
    for hist in compositions(n, agenda.m):
        h = Histogram(tuple(Fraction(x) for x in hist))
        seen.add(apply_quota(h, rule, agenda))
    return seen


def brute_force_any_paradox(n: int, rule: QuotaRule, agenda: Agenda) -> bool:
    return any(
        is_paradox(Histogram(tuple(Fraction(x) for x in hist)), rule, agenda)
        for hist in compositions(n, agenda.m)
    )


def brute_force_histogram_law(counts, dists: DistributionSet) -> dict:
    """Law of the histogram, summed over all ordered profiles by their product probability.

    Profiles with a zero-weight judgement are skipped, so no entry is 0.
    """
    members = []
    for count, member in zip(counts, dists.members):
        members.extend([member] * count)
    law: dict = {}
    for combo in product(range(dists.m), repeat=len(members)):
        prob = Fraction(1)
        hist = [0] * dists.m
        for j, member in zip(combo, members):
            w = member.weights[j]
            if w == 0:
                prob = Fraction(0)
                break
            prob *= w
            hist[j] += 1
        if prob:
            law[tuple(hist)] = law.get(tuple(hist), Fraction(0)) + prob
    return law


def paradox_mass(law: dict, rule: QuotaRule, agenda: Agenda) -> Fraction:
    """Sum of a histogram law over the histograms that are paradoxes."""
    return sum(
        (
            prob
            for hist, prob in law.items()
            if is_paradox(Histogram(tuple(Fraction(x) for x in hist)), rule, agenda)
        ),
        Fraction(0),
    )


def brute_force_paradox_probability(
    counts, dists: DistributionSet, rule: QuotaRule, agenda: Agenda
) -> Fraction:
    """:func:`paradox_mass` of :func:`brute_force_histogram_law`."""
    return paradox_mass(brute_force_histogram_law(counts, dists), rule, agenda)


def scatter_grid_step(grid: np.ndarray, weights: Sequence, patterns, before, after) -> np.ndarray:
    """The one-agent forward step in scatter form: the reference for ``_grid_step``.

    Each nonzero-weight term, w * grid (grid itself for w = 1), is added into a
    zero grid one index wider per axis at the offsets of its pattern, in
    pattern order. Then, axis by axis, the spare index is added into the top
    index when the top stays and index 0 into index 1 when the bottom rises,
    and the result is the box of window ``after``.
    """
    new = np.zeros(tuple(side + 1 for side in grid.shape), dtype=grid.dtype)
    for w, pat in zip(weights, patterns):
        if w != 0:
            dst = new[tuple(slice(c, c + side) for c, side in zip(pat, grid.shape))]
            np.add(dst, grid if w == 1 else w * grid, out=dst)
    for axis, ((lo, hi), (lo2, hi2)) in enumerate(zip(before, after)):
        lead = (slice(None),) * axis
        if hi2 == hi:
            top = new[lead + (hi - lo,)]
            np.add(top, new[lead + (hi - lo + 1,)], out=top)
        if lo2 > lo:
            bottom = new[lead + (1,)]
            np.add(bottom, new[lead + (0,)], out=bottom)
    return new[tuple(slice(lo2 - lo, hi2 - lo + 1) for (lo, _), (lo2, hi2) in zip(before, after))]


def zero_start_absorb_step(values: np.ndarray, weights: Sequence, patterns, before, after):
    """The one-agent absorption step from a zero grid: the reference for ``_absorb_step``.

    ``values`` on window ``after`` is edge-padded to window ``before`` widened
    by one index per axis, and each nonzero-weight term, w times the box of
    the padded grid at the offsets of its pattern, is added into a zero grid
    in pattern order.
    """
    edges = [(lo2 - lo, hi + 1 - hi2) for (lo, hi), (lo2, hi2) in zip(before, after)]
    padded = np.pad(values, edges, mode="edge")
    box = tuple(hi - lo + 1 for lo, hi in before)
    new = np.zeros(box, dtype=values.dtype)
    for w, pat in zip(weights, patterns):
        if w != 0:
            src = padded[tuple(slice(c, c + side) for c, side in zip(pat, box))]
            new += src if w == 1 else w * src
    return new


def fraction_member_gaps(dists: DistributionSet, rule: QuotaRule, agenda: Agenda):
    """The integer sign-pattern rows from Fraction gaps: the reference for ``_member_gaps``.

    Row i is the members' gaps q_i - support_i on proposition i, each summed
    in Fractions, scaled by the LCD of their denominators.
    """
    gaps = []
    for q, column in zip(rule.thresholds, zip(*proposition_patterns(agenda))):
        row = [q - sum(w for w, bit in zip(pi.weights, column) if bit) for pi in dists.members]
        lcd = math.lcm(*(g.denominator for g in row))
        gaps.append(tuple(g.numerator * (lcd // g.denominator) for g in row))
    return tuple(gaps)


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by exact Gaussian elimination."""
    matrix = [list(map(Fraction, row)) for row in rows]
    if not matrix:
        return 0
    ncols = len(matrix[0])
    rank = 0
    col = 0
    while rank < len(matrix) and col < ncols:
        pivot_row = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / pivot
            if factor != 0:
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
        col += 1
    return rank


def lp_cone_dimension(A: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the cone {x : A x <= 0}: m minus the rank of its implicit equalities.

    Row k is an implicit equality iff no x in the cone has a_k x < 0, that is
    (scaling x) iff {A x <= 0, a_k x <= -1} is empty: one exact Phase-I LP on
    x = u - v with a slack per row, each row scaled to integers.
    """
    scaled = [[int(a * math.lcm(*(v.denominator for v in row))) for a in row] for row in A]
    equalities = []
    for k, row_k in enumerate(scaled):
        system = []
        for i, row in enumerate(scaled):
            sign = -1 if i == k else 1
            slack = [sign * (j == i) for j in range(len(scaled))]
            system.append([sign * a for a in row] + [-sign * a for a in row] + slack)
        b = [int(i == k) for i in range(len(scaled))]
        if _phase_one(system, b)[0] is None:
            equalities.append(A[k])
    return len(A[0]) - exact_rank(equalities)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    criteria = Path(__file__).with_name("test_acceptance.py").resolve()
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if report.when != "call" or not nodeid:
                continue
            if (config.rootpath / nodeid.split("::", 1)[0]).resolve() != criteria:
                continue
            name = nodeid.rsplit("::", 1)[-1]
            outcomes[name] = status.upper() if status != "passed" else "PASS"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(outcomes):
        label = "PASS" if outcomes[name] == "PASS" else "FAIL"
        terminalreporter.write_line(f"{label}  {name}")
