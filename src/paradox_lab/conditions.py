"""Refinements, outcome feasibility, and the four asymptotic-regime conditions.

Feasibility of an outcome vector at population size n is decided exactly: it
is one cell of the table of outcomes that n votes reach (built once per
agenda, n and acceptance counts). A verdict on the conclusion only asks
whether its count z reaches its acceptance count a, so the table needs no
conclusion axis: for each cell of the premise counts, folded on the windows
of the probability convolution, it needs the largest z (is it >= a?) and the
smallest (is it <= a - 1?), however the z between them are spread. One
integer max-plus chain over the premise windows,
:func:`~paradox_lab.aggregation._reach_step`, keeps both. The outcomes the κ
conditions ask about are that table's cells marked by
:func:`~paradox_lab.aggregation.paradox_table`. Sign patterns are
the signs of :func:`~paradox_lab.aggregation.threshold_gaps`, and convex-hull
sign-pattern feasibility is decided by an exact Phase-I simplex on the
members' gaps scaled to integers, pivoted fraction-free, whose every answer
is checked: a witness must reproduce its pattern and an infeasible pattern
must come with an integer Farkas certificate. κ2 and κ3 read one sign table
per set: each pattern's bad-touch flag, in p+1 array operations, for the
patterns that no strict row refutes alone (a row no member satisfies), the
members' own patterns first, as each member is its own witness. The simplex
runs only on the rest. No solver and no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, charge
from .model import Agenda, FractionalVote, QuotaRule, integer_form, judgements
from .aggregation import (
    OutcomeVector,
    _check_rule,
    _reach_step,
    acceptance_counts,
    count_windows,
    outcome_slices,
    paradox_table,
    proposition_patterns,
    threshold_gaps,
    window_cells,
)

#: Sign pattern over the p+1 propositions: +1 (above threshold), 0 (tied), -1.
SignPattern = tuple[int, ...]

#: The verdicts a sign allows on its proposition, as a slice of an outcome-table axis.
_SIGN_BOX = {1: slice(1, 2), 0: slice(0, 2), -1: slice(0, 1)}

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
        # a vote's integer form determines its weights, and is cheaper to hash
        if len({(member.lcd, member.numerators) for member in members}) != len(members):
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
        return min(min(member.weights) for member in self.members)

    @property
    def is_strictly_positive(self) -> bool:
        return all(all(member.numerators) for member in self.members)


def _check_inputs(dists: DistributionSet, rule: QuotaRule, agenda: Agenda) -> None:
    """Reject a rule or a distribution set whose dimensions disagree with the agenda's."""
    _check_rule(rule, agenda)
    if dists.m != agenda.m:
        raise DimensionError(f"distribution length {dists.m} != agenda m {agenda.m}")


def sign_pattern_of(pi: FractionalVote, rule: QuotaRule, agenda: Agenda) -> SignPattern:
    """Per-proposition sign of (support probability - threshold): minus that of the gap."""
    return tuple((g < 0) - (g > 0) for g in threshold_gaps(pi.weights, rule, agenda))


def refinements(
    pi: FractionalVote, rule: QuotaRule, agenda: Agenda
) -> frozenset[OutcomeVector]:
    """Outcome vectors compatible with pi's forced verdicts.

    On every proposition where pi is not tied the entry is forced; tied
    propositions may take either value.
    """
    boxes = [_SIGN_BOX[s] for s in sign_pattern_of(pi, rule, agenda)]
    return frozenset(product(*(range(box.start, box.stop) for box in boxes)))


# ---------------------------------------------------------------------------
# Outcome feasibility over integer histograms
# ---------------------------------------------------------------------------

_reach_cache: dict[tuple, tuple[int, np.ndarray]] = {}
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
    """Boolean table over the 2^(p+1) outcome vectors achievable by n votes.

    Entry alpha is True iff some integer histogram with total n aggregates to
    alpha. The conclusion's verdict asks only whether its count z reaches
    a = a_{p+1}, so (beta, 1) is reachable iff the largest z over the profiles
    of premise verdicts beta is >= a, and (beta, 0) iff the smallest is
    <= a - 1: iff the most agents of conclusion 0 is >= n - a + 1. The z of a
    premise cell can have gaps (XOR has parity gaps), but only its extremes
    matter, and :func:`~paradox_lab.aggregation._reach_step` keeps both over
    the premise windows in integers of ``np.min_scalar_type(n)``.
    ``state_budget`` caps the entries of the largest grid, 2 per premise cell.
    The table is cached with that charge: a hit is charged its stored
    entries, as a new table would be, without building the windows again.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_rule(rule, agenda)
    # the acceptance counts fix every window; a cap min(a_i, n) would not
    accepts = acceptance_counts(rule, n)
    key = (agenda, n, tuple(accepts))
    if key in _reach_cache:
        entries, table = _reach_cache[key]
        charge("feasibility grid", entries, state_budget)
        return table
    p = agenda.p
    windows = [window[:p] for window in count_windows(rule, n)]
    entries = 2 * max(map(window_cells, windows))
    charge("feasibility grid", entries, state_budget)
    grid = np.zeros((2,) + (1,) * p, dtype=np.min_scalar_type(n))
    premise_bits = judgements(p)
    for before, after in zip(windows, windows[1:]):
        grid = _reach_step(grid, agenda.truth_table, premise_bits, before, after)
    a = accepts[p]
    table = np.zeros((2,) * (p + 1), dtype=bool)
    premises = outcome_slices(rule, n)[:p]
    table[premises + (1,)] = grid[0] >= a
    table[premises + (0,)] = grid[1] >= n + 1 - a
    # every caller shares the cached table: a write would change later answers
    table.flags.writeable = False
    _remember(_reach_cache, key, (entries, table))
    return table


def check_kappa1(
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """True iff no profile of n votes aggregates to an inconsistent outcome."""
    return not _reachable_paradoxes(n, rule, agenda, state_budget).any()


# ---------------------------------------------------------------------------
# Sign-pattern feasibility over the convex hull (exact Phase-I simplex)
# ---------------------------------------------------------------------------

_gaps_cache: dict[tuple[int, int, int], tuple] = {}


def _member_gaps(
    dists: DistributionSet, rule: QuotaRule, agenda: Agenda
) -> tuple[tuple[int, ...], ...]:
    """gaps[i][k] = L_i * threshold_gaps(member k)[i], as Python ints.

    Row i is the integer form of the members' gaps on proposition i, L_i > 0
    its LCD, so every sign of gaps[i] . y is that of the unscaled row. Shared
    by a set's pattern LPs and cached by identity, as hashing every weight
    per LP costs a tenth of the gaps; each entry holds its three objects, so
    no id is reused while it lives.
    """
    key = (id(dists), id(rule), id(agenda))
    if key not in _gaps_cache:
        _check_inputs(dists, rule, agenda)
        rows = zip(*(threshold_gaps(member.weights, rule, agenda) for member in dists.members))
        gaps = tuple(integer_form(row)[1] for row in rows)
        _remember(_gaps_cache, key, (dists, rule, agenda, gaps))
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


def _own_patterns(gaps: tuple[tuple[int, ...], ...]) -> list[SignPattern]:
    """Each member's sign pattern, which that member realizes alone (y = e_k)."""
    return [tuple((g < 0) - (g > 0) for g in column) for column in zip(*gaps)]


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
    None is returned only with a verified integer Farkas certificate. A
    member whose own pattern is beta is the witness; the simplex decides the
    other patterns.
    """
    _check_inputs(dists, rule, agenda)
    beta = _check_pattern(beta, agenda)
    gaps = _member_gaps(dists, rule, agenda)
    own = _own_patterns(gaps)
    if beta in own:
        witness = dists.members[own.index(beta)]
    else:
        A, b = _pattern_system(beta, gaps)
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
        raise ArithmeticError(f"pattern {beta}: the witness does not verify")
    return witness


def feasible_sign_pattern(
    beta: Sequence[int], dists: DistributionSet, rule: QuotaRule, agenda: Agenda
) -> bool:
    """True iff some distribution in the convex hull of the members has pattern beta."""
    return sign_pattern_witness(beta, dists, rule, agenda) is not None


# ---------------------------------------------------------------------------
# kappa2 / kappa3 / kappa4
# ---------------------------------------------------------------------------


def _reachable_paradoxes(n: int, rule: QuotaRule, agenda: Agenda, state_budget: int) -> np.ndarray:
    """Boolean table of the inconsistent outcomes that n votes reach."""
    return paradox_table(agenda) & reachable_counts(n, rule, agenda, state_budget=state_budget)


def check_kappa4(rule: QuotaRule, agenda: Agenda) -> bool:
    """True iff the conclusion mirrors a single premise with a matching threshold.

    Either the truth table equals the projection onto some premise i and the
    conclusion threshold equals q_i, or it equals the negated projection and
    the conclusion threshold equals 1 - q_i.
    """
    _check_rule(rule, agenda)
    # column i of the judgements' patterns is proposition i+1 over all judgements
    *premises, conclusion = zip(*proposition_patterns(agenda))
    q_conclusion = rule.thresholds[agenda.p]
    for premise, q in zip(premises, rule.thresholds):
        if conclusion == premise and q_conclusion == q:
            return True
        if conclusion == tuple(1 - v for v in premise) and q_conclusion == 1 - q:
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

    κ1 is :func:`check_kappa1` and κ4 is :func:`check_kappa4`. κ2 (κ3) holds
    iff every (some) distribution in the convex hull of the members has only
    consistent effective refinements: refinements that some n-vote profile
    reaches. The hull is searched through sign patterns, as the effective
    refinements depend on a distribution only through its pattern. One table
    holds each pattern's bad-touch flag, without the patterns one row refutes
    and with the members' own patterns first, which the members realize; the
    simplex decides only the rest.

    When the first condition holds (no paradox profile exists at n at all) the
    exponential-regime conditions are unreachable branches of the case split
    and are reported as false.
    """
    bad = _reachable_paradoxes(n, rule, agenda, state_budget)
    k4 = check_kappa4(rule, agenda)
    if not bad.any():
        return (True, False, False, k4)
    gaps = _member_gaps(dists, rule, agenda)
    # touch[1 - s_1, ..., 1 - s_{p+1}] = bad[box of s].any(): axes in _SIGN_BOX order
    touch = bad
    for axis in range(bad.ndim):
        one, zero = touch.take(1, axis), touch.take(0, axis)
        touch = np.stack((one, one | zero, zero), axis)
    own = _own_patterns(gaps)
    # strict s on row i needs a member with -s * gap > 0, whose own sign there is s;
    # without one, e_i is the Farkas certificate of every pattern holding s
    allowed = [[s for s in (1, 0, -1) if not s or s in signs] for signs in zip(*own)]
    # the members' own patterns first: each is its member's witness, no simplex
    first = set(own)
    order = sorted(product(*allowed), key=lambda beta: beta not in first)
    touches = {beta: bool(touch[tuple(1 - s for s in beta)]) for beta in order}
    # κ2: no pattern allowing a bad outcome is realized; κ3: some other one is
    k2 = not any(
        feasible_sign_pattern(beta, dists, rule, agenda) for beta in order if touches[beta]
    )
    k3 = k2 or any(
        feasible_sign_pattern(beta, dists, rule, agenda) for beta in order if not touches[beta]
    )
    return (False, k2, k3, k4)
