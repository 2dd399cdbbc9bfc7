"""Paradox probabilities: exact convolution, Monte Carlo, adversarial extremes.

Because quota rules are anonymous and agents sample independently, the
probability depends on a distribution assignment only through its counts, and
on a profile only through its per-proposition support counts, and on each
count only through whether it reaches its acceptance count. Exact
probabilities therefore convolve one agent at a time, by
:func:`~paradox_lab.aggregation._grid_step`, over the capped grid of
support-count vectors, whose axis i stops at c_i = min(a_i, n) of
:func:`~paradox_lab.aggregation.count_caps`. Each grid holds just the vectors
reachable so far: it starts as the single zero vector and grows by one index
per axis and agent, up to prod_i (c_i + 1) cells. The rational engine runs
that kernel on Python-int numerators: member k's weights become integers over
D_k, the least common denominator of its weights, and the common denominator
prod_k D_k^(c_k) is applied once at the end. The float engines run the same
kernel in float64 when every nonzero product of n weights provably stays far
inside float64's normal range, and in longdouble otherwise (see
:func:`_float_dtype`). Every float
result is checked, as the float64 value returned, against the forward-error
bound of its nonnegative multiply-add chain (see :func:`_check_error_bound`).
The adversarial sup/inf ranges over count multisets; in every value mode one
two-block chain gives each assignment's probability (see
:func:`_exact_assignment_probabilities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import DimensionError, ResourceBudgetError
from .model import Agenda, QuotaRule
from .aggregation import (
    _check_rule,
    _grid_step,
    acceptance_count,
    count_caps,
    inconsistent_outcomes,
    outcome_window,
    proposition_patterns,
)
from .conditions import DEFAULT_STATE_BUDGET, DistributionSet, kappa_conditions

DEFAULT_TRIALS = 10**6
DEFAULT_DENOMINATOR_BITS = 4096
DEFAULT_ASSIGNMENT_BUDGET = 50_000
# auto extremes run on integer numerators below this n and in floats from it on
_AUTO_FLOAT_MIN_N = 10
# 1022 - 53: a product of weights at least 2^-969 lies 53 bits above the
# smallest normal float64, so every rounding near it stays within eps/2 relative
_FLOAT64_RANGE_BITS = 969
_MC_CHUNK = 1 << 17


class Rate(str, Enum):
    """Asymptotic regimes of the smoothed paradox likelihood."""

    ZERO = "zero"
    EXP_SMALL = "exp_small"
    INV_SQRT = "inv_sqrt"
    CONSTANT = "constant"


@dataclass(frozen=True)
class Classification:
    """Asymptotic rates for the max- and min-adversary with the condition flags."""

    max_rate: Rate
    min_rate: Rate
    kappas: tuple[bool, bool, bool, bool]


@dataclass(frozen=True)
class Assignment:
    """How many agents draw from each distribution-set member."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError("assignment counts must be non-negative")
        if sum(counts) < 1:
            raise ValueError("assignment must cover at least one agent")

    @property
    def n(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class HistogramDistribution:
    """Exact law of the integer histogram after some number of agents."""

    probabilities: Mapping[tuple[int, ...], Fraction]
    agents: int

    def total(self) -> Fraction:
        return sum(self.probabilities.values(), Fraction(0))


@dataclass(frozen=True)
class SmoothedExtremes:
    """Max/min paradox probability over all assignments, with witnesses."""

    n: int
    mode: str
    max_probability: Union[Fraction, float]
    max_witness: Assignment
    max_stderr: float
    min_probability: Union[Fraction, float]
    min_witness: Assignment
    min_stderr: float


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All count vectors of length ``parts`` summing to n, lexicographically."""
    for head in compositions_upto(n, parts - 1):
        yield head + (n - sum(head),)


def compositions_upto(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All count vectors of length ``parts`` summing to at most n."""
    if parts == 0:
        yield ()
        return
    for first in range(n + 1):
        for rest in compositions_upto(n - first, parts - 1):
            yield (first,) + rest


def _as_assignment(a: Union[Assignment, Sequence[int]]) -> Assignment:
    return a if isinstance(a, Assignment) else Assignment(tuple(a))


def _check_inputs(dists: DistributionSet, rule: QuotaRule, agenda: Agenda) -> None:
    _check_rule(rule, agenda)
    if dists.m != agenda.m:
        raise DimensionError(f"distribution length {dists.m} != agenda m {agenda.m}")


def _paradox_indicator(rule: QuotaRule, agenda: Agenda, n: int) -> np.ndarray:
    """Boolean capped count grid marking inconsistent quota outcomes at total n."""
    indicator = np.zeros(tuple(c + 1 for c in count_caps(rule, n)), dtype=bool)
    for alpha in inconsistent_outcomes(agenda):
        window = outcome_window(alpha, rule, n)
        if window is not None:
            indicator[window] = True
    return indicator


def _member_weights(dists: DistributionSet, dtype: type) -> tuple[list[list], list[int]]:
    """Each member's weights in ``dtype`` with D_k, the LCD of its weights.

    For ``object`` the weights are the integer numerators w * D_k, so c_k
    agents of member k put D_k^(c_k) into the common denominator.
    """
    weights, lcds = [], []
    for member in dists.members:
        lcd = math.lcm(*(w.denominator for w in member.weights))
        if dtype is object:
            weights.append([w.numerator * (lcd // w.denominator) for w in member.weights])
        else:
            weights.append([dtype(w.numerator) / dtype(w.denominator) for w in member.weights])
        lcds.append(lcd)
    return weights, lcds


def _float_dtype(dists: DistributionSet, n: int) -> type:
    """The float type of an n-agent chain: float64 iff n*log2(1/eps_min) <= 969.

    eps_min is the smallest positive weight over all members (zero weights
    add no term to any sum). When the test holds, every nonzero product of n
    weights, and so every nonzero cell of every grid, is at least 2^-969 and
    stays a normal float64; otherwise the chain runs in longdouble. With
    eps_min = a/b the test is b^n <= a^n * 2^969, decided in integers.
    """
    eps = min(w for member in dists.members for w in member.weights if w > 0)
    fits = eps.denominator**n <= eps.numerator**n << _FLOAT64_RANGE_BITS
    return np.float64 if fits else np.longdouble


def _error_bound(dtype: type, n: int, p: int) -> float:
    """Relative error bound of a returned float probability.

    gamma_N = N*u / (1 - N*u), u = eps(dtype)/2,
    N = n*(2^p + p + 5) + (n+1)^(p+1). Every term of a chain probability is a
    product over n one-agent steps. Each step rounds the weight (numerator,
    denominator, quotient), the multiply, at most 2^p adds into the cell and
    at most p+1 adds that fold a saturated index into its cap; the final
    multiply by the absorption grid and the sum over at most (n+1)^(p+1)
    cells add at most that many roundings more. All terms are nonnegative,
    so the computed probability is within a relative gamma_N of the exact
    one. A longdouble result is then rounded once to float64, a relative
    2^-53 more in float64's normal range, for gamma_N + 2^-53 * (1 + gamma_N)
    in all.
    """
    steps = n * ((1 << p) + p + 5) + (n + 1) ** (p + 1)
    unit = steps * float(np.finfo(dtype).eps) / 2
    gamma = unit / (1 - unit)
    if dtype is np.float64:
        return gamma
    return gamma + float(np.finfo(np.float64).eps) / 2 * (1 + gamma)


def _check_error_bound(probs: np.ndarray, dtype: type, n: int, p: int) -> np.ndarray:
    """The probabilities as returned, in float64, checked against :func:`_error_bound`.

    Raise FloatingPointError unless every float64 value lies in
    [0, 1 + bound], and unless every positive probability stays in float64's
    normal range, where the relative bound holds: a longdouble chain can go
    below it, and a positive probability must not come back as 0.0.
    """
    out = np.asarray(probs, dtype=np.float64)
    bound = 1 + _error_bound(dtype, n, p)
    if not np.all((out >= 0) & (out <= bound)):
        raise FloatingPointError(
            f"float probabilities outside [0, 1 + {bound - 1:.3g}]: "
            f"min {out.min()!r}, max {out.max()!r}"
        )
    lost = (probs > 0) & (out < np.finfo(np.float64).tiny)
    if np.any(lost):
        raise FloatingPointError(
            f"{np.count_nonzero(lost)} positive probabilities fall below float64's "
            f"normal range; use value_mode='rational'"
        )
    return out


def exact_paradox_probability(
    assignment: Union[Assignment, Sequence[int]],
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
    *,
    value_mode: str = "auto",
    denominator_bit_limit: int = DEFAULT_DENOMINATOR_BITS,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Union[Fraction, float]:
    """Probability that a profile drawn under the assignment is a paradox.

    Both engines convolve over the capped count grid of prod_i (c_i + 1)
    cells, c = :func:`~paradox_lab.aggregation.count_caps`, which
    ``state_budget`` caps. ``value_mode='rational'`` runs it on integer
    numerators and returns an exact fraction; ``'float'`` runs it in the
    dtype :func:`_float_dtype` picks and checks the result against
    :func:`_error_bound`; ``'auto'`` chooses once, before the first step:
    rational when the common denominator prod_k D_k^(c_k) has at most
    ``denominator_bit_limit`` bits, float otherwise.
    """
    if value_mode not in ("auto", "rational", "float"):
        raise ValueError(f"unknown value_mode {value_mode!r}")
    assignment = _as_assignment(assignment)
    _check_inputs(dists, rule, agenda)
    if len(assignment.counts) != dists.size:
        raise DimensionError(
            f"assignment covers {len(assignment.counts)} distributions, set has {dists.size}"
        )
    n = assignment.n
    p = agenda.p
    caps = count_caps(rule, n)
    cells = math.prod(c + 1 for c in caps)
    if cells > state_budget:
        raise ResourceBudgetError(
            "probability grid too large", required=cells, budget=state_budget
        )
    numerators, lcds = _member_weights(dists, object)
    denominator = math.prod(lcd**count for lcd, count in zip(lcds, assignment.counts))
    exact = value_mode == "rational" or (
        value_mode == "auto" and denominator.bit_length() <= denominator_bit_limit
    )
    dtype = object if exact else _float_dtype(dists, n)
    weights = numerators if exact else _member_weights(dists, dtype)[0]

    patterns = proposition_patterns(agenda)
    grid = np.ones((1,) * (p + 1), dtype=dtype)
    for member_weights, count in zip(weights, assignment.counts):
        for _ in range(count):
            grid = _grid_step(grid, member_weights, patterns, caps)
    mass = (grid * _paradox_indicator(rule, agenda, n)).sum()
    if exact:
        return Fraction(int(mass), denominator)
    return float(_check_error_bound(mass, dtype, n, p))


def histogram_distribution(
    assignment: Union[Assignment, Sequence[int]],
    dists: DistributionSet,
) -> HistogramDistribution:
    """Exact law of the integer histogram under the assignment (rational only)."""
    assignment = _as_assignment(assignment)
    if len(assignment.counts) != dists.size:
        raise DimensionError(
            f"assignment covers {len(assignment.counts)} distributions, set has {dists.size}"
        )
    numerators, lcds = _member_weights(dists, object)
    denominator = math.prod(lcd**count for lcd, count in zip(lcds, assignment.counts))
    states = {(0,) * dists.m: 1}
    for member_weights, count in zip(numerators, assignment.counts):
        sparse = [(j, w) for j, w in enumerate(member_weights) if w != 0]
        for _ in range(count):
            new: dict[tuple[int, ...], int] = {}
            for hist, num in states.items():
                for j, w in sparse:
                    key = hist[:j] + (hist[j] + 1,) + hist[j + 1 :]
                    new[key] = new.get(key, 0) + num * w
            states = new
    law = {hist: Fraction(num, denominator) for hist, num in states.items()}
    return HistogramDistribution(law, assignment.n)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def assignment_seed(master_seed: int, assignment_index: int) -> np.random.SeedSequence:
    """Generator seed for one assignment: SeedSequence(master, spawn_key=(index,)).

    The index is the assignment's position in the lexicographic enumeration of
    count vectors, so streams are independent across assignments yet fully
    reproducible from the master seed.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(assignment_index,))


def monte_carlo_estimate(
    assignment: Union[Assignment, Sequence[int]],
    dists: DistributionSet,
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    trials: int = DEFAULT_TRIALS,
    seed: Union[int, np.random.SeedSequence] = 0,
) -> tuple[float, float]:
    """Paradox frequency over i.i.d. sampled profiles, with binomial standard error.

    The generator stream is fully determined by the seed; identical
    (seed, trials, instance) inputs reproduce the estimate bit for bit.
    Sampling probabilities are float-rounded, but every verdict on a sampled
    integer histogram compares its support counts against the exact
    acceptance counts of :func:`~paradox_lab.aggregation.acceptance_count`.
    """
    assignment = _as_assignment(assignment)
    _check_inputs(dists, rule, agenda)
    if assignment.n != n:
        raise ValueError(f"assignment totals {assignment.n} agents, expected n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seed)

    chi = np.array(proposition_patterns(agenda), dtype=np.int64)
    accept = np.array(
        [acceptance_count(q, d, n) for q, d in zip(rule.thresholds, rule.breakings)],
        dtype=np.int64,
    )
    truth = np.array(agenda.truth_table, dtype=np.int64)
    powers = 1 << np.arange(agenda.p - 1, -1, -1)

    pvals = []
    for member in dists.members:
        vec = np.array([float(w) for w in member.weights], dtype=np.float64)
        pvals.append(vec / vec.sum())

    hits = 0
    done = 0
    while done < trials:
        chunk = min(_MC_CHUNK, trials - done)
        support = np.zeros((chunk, agenda.p + 1), dtype=np.int64)
        for count, member_pvals in zip(assignment.counts, pvals):
            if count == 0:
                continue
            draws = rng.multinomial(count, member_pvals, size=chunk)
            support += draws @ chi
        verdict = support >= accept
        index = verdict[:, : agenda.p].astype(np.int64) @ powers
        hits += int((truth[index] != verdict[:, agenda.p]).sum())
        done += chunk

    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


# ---------------------------------------------------------------------------
# Adversarial extremes over assignments
# ---------------------------------------------------------------------------


def _two_block_probabilities(
    weights_a: Sequence,
    weights_b: Sequence,
    split_total: int,
    rule: QuotaRule,
    agenda: Agenda,
    n_total: int,
    prefix_grid: np.ndarray,
    state_budget: int,
) -> np.ndarray:
    """P(paradox) for (k member_a agents, split_total - k member_b agents, prefix).

    One stored forward chain for member_a meets one backward absorption chain
    for member_b, so all split_total + 1 assignments cost O(m * n^(p+2))
    together instead of per assignment. All grids are capped at
    c = :func:`~paradox_lab.aggregation.count_caps` of n_total.
    ``prefix_grid`` is the count grid of the prefix's agents, of side s_i on
    axis i. Forward grid k has side min(s_i - 1 + k, c_i) + 1 on axis i, and
    the absorption grid that meets it has the same shape, so the stored
    forward chain and the backward sweep both cover
    sum_k prod_i (min(s_i - 1 + k, c_i) + 1) cells. Everything runs in the
    prefix grid's dtype, the weights' type: on integer numerators entry k is
    the numerator over D_a^k * D_b^(split_total - k) * D_prefix.
    """
    dtype = prefix_grid.dtype
    caps = count_caps(rule, n_total)
    chain_entries = sum(
        math.prod(min(s - 1 + k, c) + 1 for s, c in zip(prefix_grid.shape, caps))
        for k in range(split_total + 1)
    )
    if chain_entries > state_budget:
        raise ResourceBudgetError(
            "exact-extremes state grid too large", required=chain_entries, budget=state_budget
        )
    patterns = proposition_patterns(agenda)

    forward = [prefix_grid]
    for _ in range(split_total):
        forward.append(_grid_step(forward[-1], weights_a, patterns, caps))

    absorb = _paradox_indicator(rule, agenda, n_total).astype(dtype)
    probs = np.zeros(split_total + 1, dtype=dtype)
    for k in range(split_total, -1, -1):
        probs[k] = (forward[k] * absorb).sum()
        if k:
            # absorb one more member_b agent on forward[k - 1]'s box:
            # W(t) <- sum_w w * W(min(t + pattern, c)). An axis on which the
            # box does not shrink is saturated, and its edge copy is W at c.
            box = forward[k - 1].shape
            edges = [(0, int(b == a)) for b, a in zip(box, absorb.shape)]
            padded = np.pad(absorb, edges, mode="edge")
            new = np.zeros(box, dtype=dtype)
            for w, pat in zip(weights_b, patterns):
                if w == 0:
                    continue
                new += w * padded[tuple(slice(c, c + b) for c, b in zip(pat, box))]
            absorb = new
    return probs


def _exact_assignment_probabilities(
    dists: DistributionSet,
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    value_mode: str,
    state_budget: int,
) -> list[tuple[tuple[int, ...], Union[Fraction, float]]]:
    """Every assignment's probability, from one two-block chain per prefix.

    Members 0 and 1 are the two blocks, members 2.. the prefix. The number
    type is chosen once: 'rational' runs on integer numerators, 'float' in
    :func:`_float_dtype`'s dtype, and 'auto' is rational iff
    n < _AUTO_FLOAT_MIN_N and the worst denominator max_k D_k^n fits
    DEFAULT_DENOMINATOR_BITS. A single member runs one
    :func:`exact_paradox_probability` in that type. Float results are checked
    by :func:`_check_error_bound`.
    """
    if value_mode not in ("auto", "rational", "float"):
        raise ValueError(f"unknown value_mode {value_mode!r}")
    numerators, lcds = _member_weights(dists, object)
    exact = value_mode == "rational" or (
        value_mode == "auto"
        and n < _AUTO_FLOAT_MIN_N
        and (max(lcds) ** n).bit_length() <= DEFAULT_DENOMINATOR_BITS
    )
    if dists.size == 1:
        prob = exact_paradox_probability(
            (n,), dists, rule, agenda,
            value_mode="rational" if exact else "float", state_budget=state_budget,
        )
        return [((n,), prob)]
    dtype = object if exact else _float_dtype(dists, n)
    weights = numerators if exact else _member_weights(dists, dtype)[0]

    patterns = proposition_patterns(agenda)
    caps = count_caps(rule, n)
    results: list[tuple[tuple[int, ...], Union[Fraction, float]]] = []
    for lead in compositions_upto(n, dists.size - 2):
        split_total = n - sum(lead)
        prefix_grid = np.ones((1,) * (agenda.p + 1), dtype=dtype)
        for member_weights, count in zip(weights[2:], lead):
            for _ in range(count):
                prefix_grid = _grid_step(prefix_grid, member_weights, patterns, caps)
        probs = _two_block_probabilities(
            weights[0], weights[1], split_total, rule, agenda, n, prefix_grid, state_budget
        )
        if not exact:
            probs = _check_error_bound(probs, dtype, n, agenda.p)
        for k, prob in enumerate(probs):
            counts = (k, split_total - k) + lead
            if exact:
                denominator = math.prod(lcd**c for lcd, c in zip(lcds, counts))
                results.append((counts, Fraction(int(prob), denominator)))
            else:
                results.append((counts, float(prob)))
    return results


def smoothed_extremes(
    dists: DistributionSet,
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    mode: str = "exact",
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    value_mode: str = "auto",
    assignment_budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SmoothedExtremes:
    """Max and min paradox probability over every distribution assignment.

    Ties between assignments are broken toward the lexicographically smallest
    count vector, so witnesses are deterministic. In Monte Carlo mode each
    assignment gets its own generator stream via :func:`assignment_seed`.
    """
    _check_inputs(dists, rule, agenda)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    ell = dists.size
    total_assignments = math.comb(n + ell - 1, ell - 1)
    if total_assignments > assignment_budget:
        raise ResourceBudgetError(
            "too many distribution assignments",
            required=total_assignments,
            budget=assignment_budget,
        )

    if mode == "exact":
        evaluated = [
            (counts, prob, 0.0)
            for counts, prob in _exact_assignment_probabilities(
                dists, n, rule, agenda, value_mode, state_budget
            )
        ]
    else:
        evaluated = []
        for index, counts in enumerate(compositions(n, ell)):
            est, se = monte_carlo_estimate(
                counts, dists, n, rule, agenda, trials, assignment_seed(seed, index)
            )
            evaluated.append((counts, est, se))

    max_prob = max(entry[1] for entry in evaluated)
    min_prob = min(entry[1] for entry in evaluated)
    max_counts, _, max_se = min(
        (entry for entry in evaluated if entry[1] == max_prob), key=lambda e: e[0]
    )
    min_counts, _, min_se = min(
        (entry for entry in evaluated if entry[1] == min_prob), key=lambda e: e[0]
    )
    return SmoothedExtremes(
        n=n,
        mode=mode,
        max_probability=max_prob,
        max_witness=Assignment(max_counts),
        max_stderr=max_se,
        min_probability=min_prob,
        min_witness=Assignment(min_counts),
        min_stderr=min_se,
    )


def classify(
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
    n: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Classification:
    """Asymptotic regime of the max/min smoothed paradox likelihood at n.

    Case order: no paradox profile -> zero; all (some) hull distributions
    have only consistent effective refinements -> exponentially small for the
    max (min); single-premise conclusion with matching threshold -> n^{-1/2};
    otherwise constant.
    """
    _check_inputs(dists, rule, agenda)
    if not dists.is_strictly_positive:
        raise ValueError(
            "classification requires a strictly positive distribution set "
            f"(smallest weight is {dists.epsilon})"
        )
    k1, k2, k3, k4 = kappa_conditions(dists, rule, agenda, n, state_budget=state_budget)
    if k1:
        return Classification(Rate.ZERO, Rate.ZERO, (k1, k2, k3, k4))
    max_rate = Rate.EXP_SMALL if k2 else (Rate.INV_SQRT if k4 else Rate.CONSTANT)
    min_rate = Rate.EXP_SMALL if k3 else (Rate.INV_SQRT if k4 else Rate.CONSTANT)
    return Classification(max_rate, min_rate, (k1, k2, k3, k4))
