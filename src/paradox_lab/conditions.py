"""Refinements, outcome feasibility, and the four asymptotic-regime conditions.

Feasibility of an outcome vector at population size n is decided exactly: a
boolean reachability grid over proposition-count vectors (built once per
agenda, n and acceptance counts) is intersected with the outcome's box of
counts from :func:`~paradox_lab.aggregation.outcome_window`. The grid is the
capped count grid of :mod:`~paradox_lab.aggregation`, each axis stopping at
its acceptance count, grown one vote at a time by the same one-agent step as
the probability convolution, with True weights. Convex-hull sign-pattern
feasibility is decided by an exact Phase-I simplex on integer threshold gaps,
pivoted fraction-free, whose every answer is checked: a witness must
reproduce its pattern and an infeasible pattern must come with an integer
Farkas certificate. No solver and no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, ResourceBudgetError
from .model import Agenda, FractionalVote, QuotaRule
from .aggregation import (
    OutcomeVector,
    _check_rule,
    _grid_step,
    count_caps,
    inconsistent_outcomes,
    outcome_window,
    proposition_patterns,
)

#: Sign pattern over the p+1 propositions: +1 (above threshold), 0 (tied), -1.
SignPattern = tuple[int, ...]

DEFAULT_STATE_BUDGET = 60_000_000


@dataclass(frozen=True)
class DistributionSet:
    """A finite set of vote distributions the adversary may assign to agents."""

    members: tuple[FractionalVote, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("a distribution set needs at least one member")
        m = members[0].m
        if any(member.m != m for member in members):
            raise DimensionError("all distributions must have the same length")
        if len(set(members)) != len(members):
            raise ValueError("distribution set members must be pairwise distinct")

    @property
    def m(self) -> int:
        return self.members[0].m

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def epsilon(self) -> Fraction:
        """Smallest weight across all members; positive iff strictly positive."""
        return min(w for member in self.members for w in member.weights)

    @property
    def is_strictly_positive(self) -> bool:
        return self.epsilon > 0


def support_probability(pi: FractionalVote, i: int, agenda: Agenda) -> Fraction:
    """Probability that a vote drawn from pi has its i-th proposition equal to 1."""
    if pi.m != agenda.m:
        raise DimensionError(f"distribution length {pi.m} != agenda m {agenda.m}")
    patterns = proposition_patterns(agenda)
    return sum(
        (w for w, pat in zip(pi.weights, patterns) if pat[i - 1] == 1), Fraction(0)
    )


def sign_pattern_of(pi: FractionalVote, rule: QuotaRule, agenda: Agenda) -> SignPattern:
    """Per-proposition sign of (support probability - threshold)."""
    _check_rule(rule, agenda)
    out = []
    for i in range(1, agenda.p + 2):
        pr = support_probability(pi, i, agenda)
        q = rule.thresholds[i - 1]
        out.append(1 if pr > q else (0 if pr == q else -1))
    return tuple(out)


def refinements(
    pi: FractionalVote, rule: QuotaRule, agenda: Agenda
) -> frozenset[OutcomeVector]:
    """Outcome vectors compatible with pi's forced verdicts.

    On every proposition where pi is not tied the entry is forced; tied
    propositions may take either value.
    """
    pattern = sign_pattern_of(pi, rule, agenda)
    options = [(1,) if s > 0 else (0,) if s < 0 else (0, 1) for s in pattern]
    return frozenset(product(*options))


# ---------------------------------------------------------------------------
# Outcome feasibility over integer histograms
# ---------------------------------------------------------------------------

_reach_cache: dict[tuple, np.ndarray] = {}
_CACHE_LIMIT = 32


def _remember(cache: dict, key: tuple, value) -> None:
    """Store value under key, first dropping the oldest entry of a full cache."""
    if len(cache) >= _CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = value


def reachable_counts(
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> np.ndarray:
    """Boolean grid over proposition-count vectors achievable by n votes, capped.

    Axis i stops at c_i of :func:`~paradox_lab.aggregation.count_caps`:
    entry [t_1, ..., t_{p+1}] is True iff some integer histogram with total n
    gives each proposition i a support count s_i with min(s_i, c_i) = t_i.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_rule(rule, agenda)
    caps = count_caps(rule, n)
    cells = math.prod(c + 1 for c in caps)
    if cells > state_budget:
        raise ResourceBudgetError(
            "feasibility grid too large", required=cells, budget=state_budget
        )
    key = (agenda.p, agenda.truth_table, n, caps)
    cached = _reach_cache.get(key)
    if cached is not None:
        return cached
    patterns = proposition_patterns(agenda)
    layer = np.ones((1,) * len(caps), dtype=bool)
    for _ in range(n):
        layer = _grid_step(layer, (True,) * agenda.m, patterns, caps)
    _remember(_reach_cache, key, layer)
    return layer


def outcome_feasible(
    alpha: Sequence[int],
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """True iff some profile of n (non-fractional) votes aggregates to alpha."""
    _check_rule(rule, agenda)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != agenda.p + 1:
        raise DimensionError(f"outcome has {len(alpha)} entries, expected {agenda.p + 1}")
    window = outcome_window(alpha, rule, n)
    if window is None:
        return False
    grid = reachable_counts(n, rule, agenda, state_budget=state_budget)
    return bool(grid[window].any())


def effective_refinements(
    pi: FractionalVote,
    rule: QuotaRule,
    agenda: Agenda,
    n: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> frozenset[OutcomeVector]:
    """Refinements of pi that some n-vote profile actually aggregates to."""
    return frozenset(
        alpha
        for alpha in refinements(pi, rule, agenda)
        if outcome_feasible(alpha, n, rule, agenda, state_budget=state_budget)
    )


def check_kappa1(
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """True iff no profile of n votes aggregates to an inconsistent outcome."""
    return not _feasible_inconsistent(n, rule, agenda, state_budget)


# ---------------------------------------------------------------------------
# Sign-pattern feasibility over the convex hull (exact Phase-I simplex)
# ---------------------------------------------------------------------------

_gaps_cache: dict[tuple[int, int, int], tuple] = {}


def _member_gaps(
    dists: DistributionSet, rule: QuotaRule, agenda: Agenda
) -> tuple[tuple[int, ...], ...]:
    """gaps[i][k] = L_i * (q_{i+1} - support_{i+1}(member k)), as Python ints.

    L_i > 0 is the LCD of row i, so every sign of gaps[i] . y is that of the
    unscaled row. Shared by a set's pattern LPs and cached by identity, as
    hashing every weight per LP costs a tenth of the gaps; each entry holds
    its three objects, so no id is reused while it lives.
    """
    key = (id(dists), id(rule), id(agenda))
    if key not in _gaps_cache:
        gaps = []
        for i, q in enumerate(rule.thresholds, start=1):
            row = [q - support_probability(pi, i, agenda) for pi in dists.members]
            lcd = math.lcm(*(g.denominator for g in row))
            gaps.append(tuple(g.numerator * (lcd // g.denominator) for g in row))
        _remember(_gaps_cache, key, (dists, rule, agenda, tuple(gaps)))
    return _gaps_cache[key][3]


def _pattern_system(
    beta: SignPattern, gaps: tuple[tuple[int, ...], ...]
) -> tuple[list[list[int]], list[int]]:
    """Standard form A x = b, x = (y, t) >= 0, of the pattern on the weight cone.

    Strict rows ask -s * gap . y >= 1 through a surplus t; tied rows ask
    gap . y = 0. Signs are invariant under positive scaling of y, so unit
    slack is exact. The all-tied system admits y = 0, which is no
    distribution, so it also asks sum(y) >= 1. A and b are Python ints.
    """
    rows = [[-s * g for g in gap] if s else list(gap) for s, gap in zip(beta, gaps)]
    b = [abs(s) for s in beta]
    if not any(beta):
        rows.append([1] * len(gaps[0]))
        b.append(1)
    strict = [i for i, bi in enumerate(b) if bi]
    return [row + [-(i == r) for r in strict] for i, row in enumerate(rows)], b


def _phase_one(
    A: list[list[int]], b: list[int]
) -> tuple[Optional[list[Fraction]], Optional[list[int]]]:
    """Exact Phase-I simplex on {x >= 0 : A x = b} over integer A and b >= 0.

    Minimizes the sum of one artificial per row by Bland's rule (Bland 1977),
    which cannot cycle, on a fraction-free tableau (Bareiss 1968): the
    tableau and the cost row are det times their rational values, with
    det > 0 the determinant of the current basis. A pivot P at (r, e)
    updates every other row to (P * row - row[e] * T[r]) // det, exact by
    Sylvester's identity, and then det = P. Returns (x, None) with a basic
    feasible x, or (None, pi) with the integer Farkas certificate
    pi = det - (scaled reduced cost of each artificial), so that
    pi . A_j <= 0 for every column and pi . b > 0.
    """
    rows, cols = len(A), len(A[0])
    tableau = [row + [int(i == r) for r in range(rows)] + [bi]
               for i, (row, bi) in enumerate(zip(A, b))]
    basis = [cols + i for i in range(rows)]
    # reduced costs of the artificials' sum; the last entry is minus its value
    cost = [-sum(row[j] for row in tableau) for j in range(cols)] + [0] * rows + [-sum(b)]
    det = 1
    while True:
        enter = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            if row[enter] <= 0:
                continue
            # least row[-1] / row[enter], cross-multiplied; ties to the lower basis
            if leave is None or (row[-1] * tableau[leave][enter], basis[i]) < (
                tableau[leave][-1] * row[enter], basis[leave]
            ):
                leave = i
        pivot = tableau[leave]
        scale = pivot[enter]
        for row in tableau + [cost]:
            if row is not pivot:
                factor = row[enter]
                row[:] = [(scale * v - factor * w) // det for v, w in zip(row, pivot)]
        det = scale
        basis[leave] = enter
    if cost[-1]:
        return None, [det - cost[cols + i] for i in range(rows)]
    value = {j: row[-1] for j, row in zip(basis, tableau)}
    return [Fraction(value.get(j, 0), det) for j in range(cols)], None


def _check_pattern(beta: Sequence[int], agenda: Agenda) -> SignPattern:
    beta = tuple(int(s) for s in beta)
    if len(beta) != agenda.p + 1:
        raise DimensionError(f"pattern has {len(beta)} entries, expected {agenda.p + 1}")
    if any(s not in (-1, 0, 1) for s in beta):
        raise ValueError("sign pattern entries must be -1, 0, or +1")
    return beta


def sign_pattern_witness(
    beta: Sequence[int], dists: DistributionSet, rule: QuotaRule, agenda: Agenda
) -> Optional[FractionalVote]:
    """A convex combination of the members realizing the pattern, or None.

    Both answers are checked exactly: the witness must have pattern beta, and
    None is returned only with a verified Farkas certificate.
    """
    _check_rule(rule, agenda)
    beta = _check_pattern(beta, agenda)
    if dists.m != agenda.m:
        raise DimensionError(f"distribution length {dists.m} != agenda m {agenda.m}")
    A, b = _pattern_system(beta, _member_gaps(dists, rule, agenda))
    x, farkas = _phase_one(A, b)
    if x is None:
        if sum(map(mul, farkas, b)) <= 0 or any(
            sum(map(mul, farkas, column)) > 0 for column in zip(*A)
        ):
            raise ArithmeticError(f"pattern {beta}: the Farkas certificate does not verify")
        return None
    y = x[: dists.size]
    total = sum(y)
    columns = zip(*(member.weights for member in dists.members))
    witness = FractionalVote(tuple(sum(map(mul, y, column)) / total for column in columns))
    if sign_pattern_of(witness, rule, agenda) != beta:
        raise ArithmeticError(f"pattern {beta}: the simplex witness does not verify")
    return witness


def feasible_sign_pattern(
    beta: Sequence[int], dists: DistributionSet, rule: QuotaRule, agenda: Agenda
) -> bool:
    """True iff some distribution in the convex hull of the members has pattern beta."""
    return sign_pattern_witness(beta, dists, rule, agenda) is not None


# ---------------------------------------------------------------------------
# kappa2 / kappa3 / kappa4
# ---------------------------------------------------------------------------


def _pattern_allows(alpha: OutcomeVector, beta: SignPattern) -> bool:
    return all(
        (s == 0) or (s > 0 and a == 1) or (s < 0 and a == 0)
        for a, s in zip(alpha, beta)
    )


def _feasible_inconsistent(
    n: int, rule: QuotaRule, agenda: Agenda, state_budget: int
) -> list[OutcomeVector]:
    return [
        alpha
        for alpha in inconsistent_outcomes(agenda)
        if outcome_feasible(alpha, n, rule, agenda, state_budget=state_budget)
    ]


def check_kappa2(
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
    n: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """True iff every reachable distribution has only consistent effective refinements.

    Quantifies over the convex hull through sign patterns: the effective
    refinement set depends on the distribution only via its pattern. The
    population size enters only through which outcomes are feasible at n, so
    the answer stabilizes once n exceeds a small instance-dependent bound
    (observable by sweeping n, not assumed here).
    """
    bad = _feasible_inconsistent(n, rule, agenda, state_budget)
    return not _some_pattern_feasible(bad, True, dists, rule, agenda)


def check_kappa3(
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
    n: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """True iff some reachable distribution has only consistent effective refinements."""
    bad = _feasible_inconsistent(n, rule, agenda, state_budget)
    return _some_pattern_feasible(bad, False, dists, rule, agenda)


def _some_pattern_feasible(
    bad: list[OutcomeVector],
    touches_bad: bool,
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
) -> bool:
    """True iff the hull realizes a pattern allowing some (touches_bad) or no bad outcome."""
    return any(
        feasible_sign_pattern(beta, dists, rule, agenda)
        for beta in product((1, 0, -1), repeat=agenda.p + 1)
        if any(_pattern_allows(alpha, beta) for alpha in bad) == touches_bad
    )


def check_kappa4(rule: QuotaRule, agenda: Agenda) -> bool:
    """True iff the conclusion mirrors a single premise with a matching threshold.

    Either the truth table equals the projection onto some premise i and the
    conclusion threshold equals q_i, or it equals the negated projection and
    the conclusion threshold equals 1 - q_i.
    """
    _check_rule(rule, agenda)
    q_conclusion = rule.thresholds[agenda.p]
    for i in range(1, agenda.p + 1):
        proj = tuple((j >> (agenda.p - i)) & 1 for j in range(agenda.m))
        if agenda.truth_table == proj and q_conclusion == rule.thresholds[i - 1]:
            return True
        negated = tuple(1 - v for v in proj)
        if agenda.truth_table == negated and q_conclusion == 1 - rule.thresholds[i - 1]:
            return True
    return False


def kappa_conditions(
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
    n: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[bool, bool, bool, bool]:
    """The four condition flags as they enter the asymptotic case split.

    When the first condition holds (no paradox profile exists at n at all) the
    exponential-regime conditions are unreachable branches of the case split
    and are reported as false; the standalone checkers keep their literal
    definitions.
    """
    bad = _feasible_inconsistent(n, rule, agenda, state_budget)
    k4 = check_kappa4(rule, agenda)
    if not bad:
        return (True, False, False, k4)
    k2 = not _some_pattern_feasible(bad, True, dists, rule, agenda)
    k3 = k2 or _some_pattern_feasible(bad, False, dists, rule, agenda)
    return (False, k2, k3, k4)
