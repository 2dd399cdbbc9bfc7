"""Paradox probabilities: exact convolution, Monte Carlo, adversarial extremes.

Because quota rules are anonymous and agents sample independently, the
probability depends on a distribution assignment only through its counts, and
on a profile only through its per-proposition support counts, and on each
count only through whether it reaches its acceptance count. Every exact
value is therefore read from one chain that starts at the outcomes
:func:`~paradox_lab.aggregation.paradox_table` marks, on the window of all n
agents, and absorbs agents one at a time, last first, by
:func:`~paradox_lab.aggregation._absorb_step`: down to the single zero
vector for one assignment (see :func:`exact_paradox_probability`).
Monte Carlo reads its verdicts from the same table, and all assignments
share each member's sampled agents (see :func:`monte_carlo_estimate`), so
estimates are correlated across assignments while each stays unbiased with
the same Wald standard error. The rational engine runs that kernel on
integer numerators: member k's weights become integers over D_k, the
least common denominator of its weights, and the common denominator
prod_k D_k^(c_k) is applied once at the end. The numerators are int64
while every denominator the run can reach fits, Python ints beyond (see
:func:`_exact`). The float engine runs it in
float64 on every platform, and :func:`_exact` picks the engine once per
run, by one rule. Every float result is checked against its error bound:
a relative gamma_N plus an absolute A for roundings below float64's normal
range (see :func:`_error_bound`).
The adversarial sup/inf ranges over count multisets. A one-member set has one
assignment; for more members, in every value mode, one assignment tree gives
each assignment's probability: the last member's absorption chain is stored
once, and the other members' counts are walked depth-first (see
:func:`_exact_assignment_probabilities`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import DimensionError, charge
from .model import Agenda, QuotaRule, integer_form
from .aggregation import (
    Window,
    _absorb_step,
    _grid_step,
    acceptance_counts,
    count_windows,
    outcome_slices,
    paradox_table,
    proposition_patterns,
    window_cells,
)
from .conditions import DEFAULT_STATE_BUDGET, DistributionSet, _check_inputs, kappa_conditions

DEFAULT_TRIALS = 10**6
DEFAULT_DENOMINATOR_BITS = 4096
DEFAULT_ASSIGNMENT_BUDGET = 50_000
# auto extremes run on integer numerators below this n and in floats from it on
_AUTO_FLOAT_MIN_N = 10
# 1022 - 53: a chain whose products of n weights are all >= 2^-969 has A = 0
_FLOAT64_RANGE_BITS = 969
# counts one Monte Carlo chunk holds per member: trials * (n + 1) * (p + 1)
_MC_CHUNK_CELLS = 1 << 19


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
        # operator.index refuses a float rather than truncate it
        counts = tuple(operator.index(c) for c in self.counts)
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
        """Sum of the probabilities: numerators summed per denominator, then in integer form."""
        sums: dict[int, int] = {}
        for p in self.probabilities.values():
            sums[p.denominator] = sums.get(p.denominator, 0) + p.numerator
        lcd, numerators = integer_form([Fraction(s, d) for d, s in sums.items()])
        return Fraction(sum(numerators), lcd)


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
    """All count vectors of length ``parts`` summing to n, lexicographically.

    Needs parts >= 1 and n >= 0: otherwise the first step of the iteration
    raises ValueError.
    """
    if parts < 1 or n < 0:
        raise ValueError(f"compositions need parts >= 1 and n >= 0, got parts={parts}, n={n}")
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def _as_assignment(a: Union[Assignment, Sequence[int]], dists: DistributionSet) -> Assignment:
    """``a`` as an Assignment, checked to give one count to each member of ``dists``."""
    assignment = a if isinstance(a, Assignment) else Assignment(tuple(a))
    if len(assignment.counts) != dists.size:
        raise DimensionError(
            f"assignment covers {len(assignment.counts)} distributions, set has {dists.size}"
        )
    return assignment


def _int_type(largest: int) -> type:
    """The array type of nonnegative integers up to ``largest``: np.int64 if it fits, else object."""
    return np.int64 if largest <= np.iinfo(np.int64).max else object


def _member_weights(dists: DistributionSet, dtype: type) -> list[Sequence]:
    """Each member's weights in ``dtype``.

    For ``object`` and ``np.int64`` the weights are the same integer
    numerators w * D_k, so c_k agents of member k put D_k^(c_k) into the
    common denominator; :func:`_exact` says when int64 holds them.
    A float weight is w rounded once, and a bool one its nonzero mask,
    w != 0.
    """
    if dtype is object or dtype is np.int64:
        return [member.numerators for member in dists.members]
    return [[dtype(w) for w in member.weights] for member in dists.members]


def _error_bound(dists: DistributionSet, n: int, p: int) -> tuple[float, float]:
    """(gamma_N, A): an n-agent float64 chain returns P_hat with |P_hat - P| <= gamma_N*P + A.

    A rounding returns x*(1 + d) + e, |d| <= u = 2^-53; e != 0 only for a
    weight or product below 2^-1022, and |e| <= 2^-1075. A term of P is a
    product over n one-agent steps, each rounding the weight, the multiply,
    at most 2^p - 1 adds into the cell (a pad's + 0.0 terms are exact) and
    2(p+1) window-end folds (absorption reads a merged index by an exact
    copy), then the final multiply and sum over at most (n+1)^(p+1) cells.
    All terms are nonnegative, so the d's give gamma_N = N*u / (1 - N*u) for
    N = n*(2^p + 2p + 4) + (n+1)^(p+1), which counts one add per step more. A
    forward step sends a cell on with weights summing to 1, so it does not
    grow an l1 error, and an absorption step averages with them, a sup-norm
    contraction; the final sum pairs l1 norm 1 with sup norm 1. So each e
    reaches P_hat times at most (1 + gamma_N)^2 < 2, and A = R * 2^-1074 for
    the R <= n*(2^p + (2^(p+1) + 2p + 2)*(n+1)^(p+1)) + 2*(n+1)^(p+1)
    roundings of the run. A = 0 when n*log2(1/eps_min) <= 969, eps_min the
    smallest positive weight (decided in integers): every nonzero product of
    n weights is then a normal float64.
    """
    unit = (n * ((1 << p) + 2 * p + 4) + (n + 1) ** (p + 1)) * 2.0**-53
    cells = (n + 1) ** (p + 1)
    roundings = n * ((1 << p) + ((2 << p) + 2 * p + 2) * cells) + 2 * cells
    eps = min(w for member in dists.members for w in member.weights if w > 0)
    fits = eps.denominator**n <= eps.numerator**n << _FLOAT64_RANGE_BITS
    return unit / (1 - unit), 0.0 if fits else roundings * 2.0**-1074


def _check_error_bound(probs: np.ndarray, bound: tuple[float, float],
                       reaches: Callable[[], Sequence]) -> np.ndarray:
    """``probs``, checked against ``bound``, the (gamma_N, A) of :func:`_error_bound`.

    Raise FloatingPointError unless every value lies in [0, 1 + gamma_N + A],
    every positive one is at least 2^52 * A (where A adds at most 2^-52
    relative), and every 0.0 is exact: when A > 0, ``reaches()`` runs the same
    chain on bool grids with the nonzero-weight masks, and a 0.0 whose paradox
    outcomes it reaches is a positive probability lost to underflow.
    """
    gamma, absolute = bound
    if not np.all((probs >= 0) & (probs <= 1 + gamma + absolute)):
        raise FloatingPointError(
            f"float probabilities outside [0, 1 + {gamma + absolute:.3g}]: "
            f"min {probs.min()!r}, max {probs.max()!r}"
        )
    lost = (probs > 0) & (probs < 2.0**52 * absolute)
    if absolute and not np.all(probs):
        lost |= (probs == 0) & np.array(reaches(), dtype=bool)
    if np.any(lost):
        raise FloatingPointError(
            f"{np.count_nonzero(lost)} positive probabilities fall below float64's "
            f"error bound; use value_mode='rational'"
        )
    return probs


def _exact(dists: DistributionSet, n: int, p: int, value_mode: str,
           run: Callable[[type], tuple[list, list]]) -> list[tuple[tuple, Union[Fraction, float]]]:
    """(counts, probability) of each assignment of an n-agent exact run.

    The number type is chosen once, before the run: 'rational' runs on the
    integer numerators of :func:`_member_weights`, 'float' in float64, and
    'auto' is rational iff n < _AUTO_FLOAT_MIN_N and max_k D_k^n, the worst
    denominator of any n-agent assignment, fits DEFAULT_DENOMINATOR_BITS.
    The numerators run on int64 while max_k D_k^n fits it, and on Python ints
    beyond. That bound holds for every value, product and partial sum of the
    run, all nonnegative: a forward step
    (:func:`~paradox_lab.aggregation._grid_step`) sends each value on with
    numerators summing to D_k, so a grid's sum stays the product of the D_k
    of its agents so far and bounds its entries, products and partial sums;
    an absorption step (:func:`~paradox_lab.aggregation._absorb_step`)
    averages with the same numerators, so each value stays at or below the
    product of the D_k absorbed, the paradox indicator starting at 1; and a
    tree leaf's sum(grid * W) is at most its grid's sum times W's largest
    value, prod_k D_k^(c_k) <= max_k D_k^n. ``run(dtype)`` returns the count
    vectors and their chain values: an integer numerator becomes a Fraction
    over prod_k D_k^(c_k), and float values are checked by
    :func:`_check_error_bound`, ``run(bool)`` giving the underflow masks.
    """
    if value_mode not in ("auto", "rational", "float"):
        raise ValueError(f"unknown value_mode {value_mode!r}")
    lcds = [member.lcd for member in dists.members]
    if value_mode == "rational" or (
        value_mode == "auto"
        and n < _AUTO_FLOAT_MIN_N
        and (max(lcds) ** n).bit_length() <= DEFAULT_DENOMINATOR_BITS
    ):
        counts_list, values = run(_int_type(max(lcds) ** n))
        probs = [
            Fraction(int(value), math.prod(lcd**c for lcd, c in zip(lcds, counts)))
            for value, counts in zip(values, counts_list)
        ]
    else:
        counts_list, values = run(np.float64)
        probs = _check_error_bound(np.array(values, dtype=np.float64), _error_bound(dists, n, p),
                                   lambda: run(bool)[1]).tolist()
    return list(zip(counts_list, probs))


def exact_paradox_probability(
    assignment: Union[Assignment, Sequence[int]],
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
    *,
    value_mode: str = "auto",
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Union[Fraction, float]:
    """Probability that a profile drawn under the assignment is a paradox.

    Both engines start from the paradox indicator on the window of all n
    agents and absorb the agents one at a time, last first, by
    :func:`~paradox_lab.aggregation._absorb_step`, down to the one cell of no
    agents; only the newest grid is kept, and ``state_budget`` caps the cells
    of the largest window. The number type is :func:`_exact`'s, as
    :func:`smoothed_extremes` runs at this n: ``'rational'`` returns an exact
    fraction, ``'float'`` a float checked against :func:`_error_bound`, and
    ``'auto'`` either, by one rule.
    """
    assignment = _as_assignment(assignment, dists)
    _check_inputs(dists, rule, agenda)
    n = assignment.n
    patterns, windows = proposition_patterns(agenda), count_windows(rule, n)
    table = paradox_table(agenda)[outcome_slices(rule, n)]

    def run(dtype: type) -> tuple[list, list]:
        charge("count grid", max(map(window_cells, windows)), state_budget)
        weights = _member_weights(dists, dtype)
        agents = [w for w, count in zip(weights, assignment.counts) for _ in range(count)]
        values = table.astype(dtype)
        for w, before, after in reversed(list(zip(agents, windows, windows[1:]))):
            values = _absorb_step(values, w, patterns, before, after)
        return [assignment.counts], [values.item()]

    return _exact(dists, n, agenda.p, value_mode, run)[0][1]


def histogram_distribution(
    assignment: Union[Assignment, Sequence[int]],
    dists: DistributionSet,
) -> HistogramDistribution:
    """Exact law of the integer histogram under the assignment (rational only).

    A histogram is one integer key, its counts the digits base n+1. Per nonzero w_j
    an agent adds place[j] to each key and multiplies each numerator by w_j; a stable
    sort merges equal keys. Keys are int64 while (n+1)^m - 1 fits, else Python ints,
    and so are the numerators while the denominator prod_k D_k^(c_k) fits: all
    nonnegative, they sum to the product of the D_k of the agents so far, which
    bounds every product and partial sum (as in :func:`_exact`). A member with no
    agents is skipped, its D_k being no factor of that bound. Each distinct
    numerator becomes one Fraction, shared by every histogram of that value.
    """
    assignment = _as_assignment(assignment, dists)
    n, m = assignment.n, dists.m
    numerators = _member_weights(dists, object)
    denominator = math.prod(member.lcd**c for member, c in zip(dists.members, assignment.counts))
    key_type, value_type = _int_type((n + 1) ** m - 1), _int_type(denominator)
    place = np.array([(n + 1) ** e for e in range(m - 1, -1, -1)], dtype=key_type)
    keys, values = np.zeros(1, dtype=key_type), np.ones(1, dtype=value_type)
    for member_weights, count in zip(numerators, assignment.counts):
        if not count:  # its numerators may not fit value_type
            continue
        nonzero = [j for j, w in enumerate(member_weights) if w != 0]
        step, w = place[nonzero], np.array(member_weights, dtype=value_type)[nonzero]
        for _ in range(count):
            keys, values = (keys[:, None] + step).ravel(), (values[:, None] * w).ravel()
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            keys, values = keys[starts], np.add.reduceat(values, starts)
    hists = map(tuple, ((keys[:, None] // place) % (n + 1)).tolist())
    values = values.tolist()
    shared = {v: Fraction(v, denominator) for v in set(values)}
    return HistogramDistribution({h: shared[v] for h, v in zip(hists, values)}, n)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def monte_carlo_estimate(
    assignment: Union[Assignment, Sequence[int], Sequence[Union[Assignment, Sequence[int]]]],
    dists: DistributionSet,
    rule: QuotaRule,
    agenda: Agenda,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> tuple:
    """Paradox frequency over i.i.d. sampled profiles, with binomial standard error.

    The standard error is the Wald estimate sqrt(p_hat * (1 - p_hat) / trials),
    except when no trial, or every trial, is a paradox: p_hat * (1 - p_hat) is
    then 0, and the variance of a single hit, (trials - 1) / trials^2, takes its
    place, so a rare event's error is not 0.0 (for trials >= 2). ``assignment``
    may also be a list of Assignments or count vectors, as Monte Carlo
    :func:`smoothed_extremes` passes all of them; they must all total the same
    n agents, and estimates and errors then come back as two arrays in that
    order.

    All assignments share the sampled agents. Per chunk j of trials, member k
    draws its most agents once from SeedSequence(seed, spawn_key=(k, j)), one
    uniform u per agent, agent-major. The agent's judgement is the number of
    the member's rounded cumulative weights that are <= u, counted by one
    comparison per weight; a zero weight repeats its predecessor's edge, so
    it is never drawn. Member k's first c agents do not depend on how many
    it draws: an assignment's estimate is the same, bit for bit, alone or in
    any list.
    Per proposition it keeps the support after 0..c agents; an assignment's
    support sums each member's at c_k, an integer compared with the exact
    :func:`~paradox_lab.aggregation.acceptance_count`, and the verdicts index
    the outcome table.
    """
    # a list of Assignments or count vectors, not of counts
    many = not isinstance(assignment, Assignment) and not np.isscalar(next(iter(assignment), 0))
    assignments = [_as_assignment(a, dists) for a in (assignment if many else [assignment])]
    _check_inputs(dists, rule, agenda)
    totals = {a.n for a in assignments}
    if len(totals) != 1:
        raise ValueError(f"assignments total different numbers of agents: {sorted(totals)}")
    n = totals.pop()
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = np.array([a.counts for a in assignments], dtype=np.intp)
    dtype = np.min_scalar_type(n + 1)
    chi = np.array(proposition_patterns(agenda), dtype=dtype).T
    paradox = paradox_table(agenda).ravel()
    # the exact cumulative weights, rounded: the last positive weight ends at 1.0
    cdfs = [[float(c) for c in itertools.accumulate(m.weights)][:-1] for m in dists.members]
    step = max(1, _MC_CHUNK_CELLS // ((n + 1) * (agenda.p + 1)))
    hits = np.zeros(len(counts), dtype=np.int64)
    for j, start in enumerate(range(0, trials, step)):
        size = min(step, trials - start)
        prefixes = []
        for k, cdf in enumerate(cdfs):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, j)))
            drawn = rng.random((counts[:, k].max(), size))
            # each agent's judgement counts the cumulative weights <= its uniform
            judgement = np.zeros(drawn.shape, dtype=np.min_scalar_type(len(cdf)))
            for edge in cdf:
                judgement += drawn >= edge
            # propositions x agents x trials: each drawn agent's support bits
            drawn = np.take(chi, judgement, axis=1)
            prefixes.append(np.zeros((drawn.shape[1] + 1, agenda.p + 1, size), dtype=dtype))
            for c in range(drawn.shape[1]):
                np.add(prefixes[k][c], drawn[:, c], out=prefixes[k][c + 1])
        for first in range(0, len(counts), n + 1):
            rows = counts[first : first + n + 1]
            support = sum(prefix[rows[:, k]] for k, prefix in enumerate(prefixes))
            # the row-major place of each outcome vector in the outcome table
            place = np.zeros((len(rows), size), dtype=np.min_scalar_type(paradox.size - 1))
            for i, a in enumerate(acceptance_counts(rule, n)):
                place <<= 1
                place |= support[:, i] >= a
            hits[first : first + n + 1] += paradox[place].sum(axis=1)
    estimates = hits / trials
    variances = estimates * (1.0 - estimates)
    variances[(hits == 0) | (hits == trials)] = (trials - 1) / trials**2
    stderrs = np.sqrt(variances / trials)
    return (estimates, stderrs) if many else (float(estimates[0]), float(stderrs[0]))


# ---------------------------------------------------------------------------
# Adversarial extremes over assignments
# ---------------------------------------------------------------------------


def _walk(
    grid: np.ndarray,
    weights: Sequence[Sequence],
    patterns: Sequence[tuple[int, ...]],
    windows: Sequence[Window],
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Depth-first walk of the assignment tree below ``grid``, lexicographically.

    ``windows`` runs from the window of ``grid`` to that of all n agents.
    Yields (head, leaf) for every count vector ``head`` of the members with
    ``weights`` that fits, ``leaf`` being ``grid`` after those agents: one
    :func:`~paradox_lab.aggregation._grid_step` per tree node, and one grid
    held per member above the current one.
    """
    if not weights:
        yield (), grid
        return
    for k in range(len(windows)):
        if k:
            grid = _grid_step(grid, weights[0], patterns, windows[k - 1], windows[k])
        for tail, leaf in _walk(grid, weights[1:], patterns, windows[k:]):
            yield (k,) + tail, leaf


def _exact_assignment_probabilities(
    dists: DistributionSet,
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    value_mode: str,
    state_budget: int,
) -> list[tuple[tuple[int, ...], Union[Fraction, float]]]:
    """Every assignment's probability: one member's one, else one assignment tree.

    A one-member set has the one assignment (n,), of probability
    :func:`exact_paradox_probability`. For more members the last member's
    absorption chain is computed once: W_r(t) is P(paradox | counts t of the
    other n - r agents, r agents of the last member) on the window of n - r
    agents, W_0 the paradox indicator. Members 0..l-2 are walked depth-first
    in lexicographic order, one :func:`~paradox_lab.aggregation._grid_step`
    per tree node, and a leaf whose grid holds a agents is the assignment with
    n - a agents on the last member, of probability (grid * W_{n-a}).sum().
    The tree is charged the stored chain plus the l - 2 walk grids held above
    the current one, each at most the largest window. The number type is
    :func:`_exact`'s. Each ``tree`` call charges the budget and its chain dies
    with it, before the results are checked; on bool masks the tree marks the
    leaves that reach a paradox.
    """
    if dists.size == 1:
        return [((n,), exact_paradox_probability((n,), dists, rule, agenda, value_mode=value_mode,
                                                 state_budget=state_budget))]
    patterns = proposition_patterns(agenda)
    windows = count_windows(rule, n)
    cells = [window_cells(window) for window in windows]
    entries = sum(cells) + (dists.size - 2) * max(cells)
    table = paradox_table(agenda)[outcome_slices(rule, n)]

    def tree(dtype: type) -> tuple[list, list]:
        charge("assignment tree", entries, state_budget)
        weights = _member_weights(dists, dtype)
        absorb = [table.astype(dtype)]
        for before, after in reversed(list(zip(windows, windows[1:]))):
            absorb.append(_absorb_step(absorb[-1], weights[-1], patterns, before, after))
        counts_list, values = [], []
        root = np.ones((1,) * (agenda.p + 1), dtype=dtype)
        for head, grid in _walk(root, weights[:-1], patterns, windows):
            agents = sum(head)
            counts_list.append(head + (n - agents,))
            values.append((grid * absorb[n - agents]).sum())
        return counts_list, values

    return _exact(dists, n, agenda.p, value_mode, tree)


def _decided_float_extremes(
    evaluated: Sequence[tuple[tuple[int, ...], float, float]],
    dists: DistributionSet,
    n: int,
    rule: QuotaRule,
    agenda: Agenda,
    state_budget: int,
) -> list[tuple[tuple[int, ...], float, float]]:
    """The max and min entries of a float run's lexicographic ``evaluated``, decided exactly.

    A floating-point filter with an exact fallback (Shewchuk 1997). Each
    value P_hat puts its exact P in [(P_hat - A)/(1 + gamma_N),
    (P_hat + A)/(1 - gamma_N)], (gamma_N, A) from :func:`_error_bound`,
    widened by 2^-50 relative for the few roundings that compute it. Every
    assignment at the exact max has an upper end that reaches the largest
    lower end, and every one at the exact min a lower end at or below the
    smallest upper end: those are each side's candidates. A lone candidate
    keeps its float. Several are ranked by their exact values, each from one
    rational :func:`exact_paradox_probability` charged to ``state_budget``
    (a 0.0 needs none: :func:`_check_error_bound` returns only exact zeros),
    then by the lexicographic rule, and the side reports the float of its
    exact value.
    """
    values = np.array([entry[1] for entry in evaluated])
    gamma, absolute = _error_bound(dists, n, agenda.p)
    low = (values - absolute) / (1 + gamma) * (1 - 2.0**-50)
    high = (values + absolute) / (1 - gamma) * (1 + 2.0**-50)
    exact: dict[int, Fraction] = {}

    def exact_value(i: int) -> Fraction:
        if i not in exact:
            exact[i] = Fraction(0) if values[i] == 0 else exact_paradox_probability(
                evaluated[i][0], dists, rule, agenda, value_mode="rational",
                state_budget=state_budget)
        return exact[i]

    sides = []
    for pick, candidates in ((max, np.flatnonzero(high >= low.max())),
                             (min, np.flatnonzero(low <= high.min()))):
        if len(candidates) == 1:
            sides.append(evaluated[candidates[0]])
        else:  # pick returns the first extreme, and candidates run in order
            i = pick(candidates.tolist(), key=exact_value)
            sides.append((evaluated[i][0], float(exact_value(i)), 0.0))
    return sides


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
    count vector, so witnesses are deterministic. In float mode the witnesses
    are exact decisions too, the rational ones: where the error bounds of the
    float values leave more than one candidate for a side, the candidates'
    exact values decide it (see :func:`_decided_float_extremes`). In Monte
    Carlo mode all assignments share each member's sampled agents (see
    :func:`monte_carlo_estimate`).
    """
    _check_inputs(dists, rule, agenda)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    ell = dists.size
    charge("distribution assignments", math.comb(n + ell - 1, ell - 1), assignment_budget)

    if mode == "exact":
        evaluated = [
            (counts, prob, 0.0)
            for counts, prob in _exact_assignment_probabilities(
                dists, n, rule, agenda, value_mode, state_budget
            )
        ]
    else:
        counts_list = list(compositions(n, ell))
        estimates, stderrs = monte_carlo_estimate(counts_list, dists, rule, agenda, trials, seed)
        evaluated = list(zip(counts_list, estimates.tolist(), stderrs.tolist()))

    if mode == "exact" and isinstance(evaluated[0][1], float):
        top, bottom = _decided_float_extremes(evaluated, dists, n, rule, agenda, state_budget)
    else:
        # both engines list assignments lexicographically, and max/min return
        # the first extreme they meet
        top = max(evaluated, key=lambda entry: entry[1])
        bottom = min(evaluated, key=lambda entry: entry[1])
    (max_counts, max_prob, max_se), (min_counts, min_prob, min_se) = top, bottom
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
