import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradox_lab import (
    Agenda,
    DimensionError,
    FractionalVote,
    Histogram,
    Profile,
    QuotaRule,
    apply_quota,
    histogram,
    inconsistent_outcomes,
    is_consistent,
    is_paradox,
    is_tied,
    threshold_gaps,
)
from paradox_lab.aggregation import (
    _absorb_step,
    _grid_step,
    acceptance_count,
    count_windows,
    outcome_slices,
    paradox_table,
    proposition_patterns,
    window_cells,
)
from paradox_lab.conditions import reachable_counts
from conftest import random_rule, scatter_grid_step, zero_start_absorb_step

AND2 = Agenda.conjunction(2)
MAJ = QuotaRule.majority(3, (1, 1, 0))
ONE_PREMISE = Agenda.projection(1, 1)
TABLE_HIST = Histogram((Fraction(0), Fraction(1), Fraction(3, 2), Fraction(1, 2)))


def test_proposition_weights_match_table():
    # supports 2, 3/2 and 1/2 against the majority quota n/2 = 3/2
    gaps = threshold_gaps(TABLE_HIST.weights, MAJ, AND2)
    assert gaps == (Fraction(-1, 2), 0, 1)
    assert all(isinstance(g, Fraction) for g in gaps)


def test_proposition_weight_zero_support():
    h = Histogram((Fraction(3), Fraction(0), Fraction(0), Fraction(0)))
    # no support leaves each gap at the full quota q * n
    assert threshold_gaps(h.weights, MAJ, AND2) == (Fraction(3, 2),) * 3
    assert apply_quota(h, MAJ, AND2) == (0, 0, 0)


def test_apply_quota_table_instance():
    assert apply_quota(TABLE_HIST, MAJ, AND2) == (1, 1, 0)


def test_apply_quota_single_vote():
    h = histogram(Profile((FractionalVote.point((1, 1)),)))
    assert apply_quota(h, MAJ, AND2) == (1, 1, 1)


def test_apply_quota_all_tied_pair():
    # one vote on (0,0) and one on (1,1): every proposition ties at q*n = 1
    h = Histogram((Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
    assert apply_quota(h, MAJ, AND2) == (1, 1, 0)


def test_is_tied_examples():
    assert is_tied(TABLE_HIST, 2, MAJ, AND2)
    assert not is_tied(TABLE_HIST, 1, MAJ, AND2)
    rule = QuotaRule.of(["1/3", "1/3", "1/3"], (0, 0, 0))
    h = Histogram((Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    for i in (1, 2, 3):
        assert not is_tied(h, i, rule, AND2)


def test_is_tied_rejects_an_empty_histogram():
    # both readers of the gaps refuse a histogram with no weight alike
    empty = Histogram((Fraction(0),) * 4)
    for read in (lambda: is_tied(empty, 1, MAJ, AND2), lambda: apply_quota(empty, MAJ, AND2)):
        with pytest.raises(ValueError, match="positive total weight"):
            read()


def test_threshold_gaps_check_their_inputs():
    with pytest.raises(DimensionError):
        threshold_gaps(TABLE_HIST.weights[:2], MAJ, AND2)
    with pytest.raises(DimensionError):
        threshold_gaps(TABLE_HIST.weights, QuotaRule.majority(2, (1, 1)), AND2)


def test_is_consistent():
    assert not is_consistent((1, 1, 0), AND2)
    assert is_consistent((1, 0, 0), AND2)
    assert is_consistent((0, 0, 0), AND2)
    assert is_consistent((1, 1, 1), AND2)
    with pytest.raises(DimensionError):
        is_consistent((1, 1), AND2)
    with pytest.raises(ValueError):
        is_consistent((1, 1, 2), AND2)


def test_inconsistent_outcomes_count():
    assert len(inconsistent_outcomes(AND2)) == 4
    assert (1, 1, 0) in inconsistent_outcomes(AND2)


def test_paradox_table_marks_inconsistent_outcomes():
    rng = random.Random(15)
    for p in (1, 2, 3, 4):
        for _ in range(5):
            agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
            table = paradox_table(agenda)
            assert table.shape == (2,) * (p + 1) and table.dtype == bool
            for code in range(1 << (p + 1)):
                alpha = tuple((code >> (p - k)) & 1 for k in range(p + 1))
                assert table[alpha] == (not is_consistent(alpha, agenda)), (agenda, alpha)


def test_table_profile_is_paradox():
    profile = Profile(
        (
            FractionalVote.point((1, 0)),
            FractionalVote.point((0, 1)),
            FractionalVote.of([0, 0, "1/2", "1/2"]),
        )
    )
    assert is_paradox(profile, MAJ, AND2)


def test_intro_three_agent_paradox():
    profile = Profile(
        (
            FractionalVote.point((1, 0)),
            FractionalVote.point((0, 1)),
            FractionalVote.point((1, 1)),
        )
    )
    assert is_paradox(profile, MAJ, AND2)


def test_no_single_vote_paradox():
    for index in range(4):
        bits = tuple((index >> (1 - k)) & 1 for k in range(2))
        profile = Profile((FractionalVote.point(bits),))
        assert not is_paradox(profile, MAJ, AND2)


@given(st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_anonymity_under_permutation(order):
    votes = [
        FractionalVote.point((1, 0)),
        FractionalVote.point((0, 1)),
        FractionalVote.point((1, 1)),
        FractionalVote.uniform(2),
        FractionalVote.of(["1/8", "1/8", "1/4", "1/2"]),
    ]
    base = apply_quota(histogram(Profile(tuple(votes))), MAJ, AND2)
    shuffled = apply_quota(
        histogram(Profile(tuple(votes[i] for i in order))), MAJ, AND2
    )
    assert base == shuffled


def _premise_verdict(c: int, n: int, q: Fraction, d: int) -> int:
    """apply_quota's premise verdict on n votes, c of them for the one premise."""
    rule = QuotaRule((q, q), (d, d))
    return apply_quota(Histogram((n - c, c)), rule, ONE_PREMISE)[0]


def test_verdict_monotone_in_support():
    rng = random.Random(11)
    for _ in range(200):
        den = rng.randint(1, 6)
        q = Fraction(rng.randint(0, den), den)
        d = rng.randint(0, 1)
        n = rng.randint(1, 9)
        verdicts = [_premise_verdict(c, n, q, d) for c in range(n + 1)]
        assert all(a <= b for a, b in zip(verdicts, verdicts[1:]))


def test_apply_quota_agrees_with_acceptance_count():
    # denominators up to and past int64, so no fixed-width arithmetic can pass by luck
    rng = random.Random(23)
    dens = (1, 2, 3, 7, 10**18, 10**19, 2**63 + 1, 2**64 + 13)
    for _ in range(400):
        den = rng.choice(dens)
        n = rng.randint(1, 50)
        if rng.random() < 0.4:
            # thresholds at or one step off a multiple of 1/n, where ties live
            num = min(den, max(0, rng.randint(0, n) * den // n + rng.choice((-1, 0, 1))))
        else:
            num = rng.randint(0, den)
        q = Fraction(num, den)
        for d in (0, 1):
            accept = acceptance_count(q, d, n)
            assert 0 <= accept <= n + 1
            for c in range(n + 1):
                assert (c >= accept) == _premise_verdict(c, n, q, d)


def test_outcome_slices_edge_ranges():
    n = 4
    # q = 1 with d = 0 accepts no count (a = n+1), q = 0 with d = 1 rejects
    # none (a = 0): each axis ends as one cell, of verdict 0 and 1
    edge = QuotaRule.of([1, 0], [0, 1])
    assert count_windows(edge, n)[n] == ((n, n), (0, 0))
    assert outcome_slices(edge, n) == (slice(0, 1), slice(1, 2))
    mirror = Agenda(1, (0, 1))
    table = reachable_counts(n, edge, mirror)
    assert table.tolist() == [[False, True], [False, False]]
    # a_i in [1, n] ends as two cells, counts below a_i and counts from it
    inner = QuotaRule.of(["1/2", "1/4"], [1, 0])
    assert count_windows(inner, n)[n] == ((1, 2), (1, 2))
    assert outcome_slices(inner, n) == (slice(0, 2), slice(0, 2))


@pytest.mark.parametrize("dtype", [np.float64, object, bool])
def test_absorb_step_reads_the_edge_padded_grid(dtype):
    # one pattern at a time with weight 1, the step returns the shifted box of
    # its padded grid, so the 2^(p+1) patterns read every padded cell: each
    # must equal np.pad(mode="edge") of the values, bit for bit
    rng = random.Random(47)
    draw = {np.float64: rng.random, object: lambda: rng.getrandbits(80),
            bool: lambda: rng.random() < 0.5}[dtype]
    for trial in range(30):
        p, n = 1 + trial % 3, rng.randint(1, 9)
        windows = count_windows(random_rule(rng, p + 1), n)
        k = rng.randrange(n)
        before, after = windows[k], windows[k + 1]
        shape = tuple(hi - lo + 1 for lo, hi in after)
        values = np.array([draw() for _ in range(int(np.prod(shape)))], dtype=dtype)
        values = values.reshape(shape)
        edges = [(lo2 - lo, hi + 1 - hi2) for (lo, hi), (lo2, hi2) in zip(before, after)]
        padded = np.pad(values, edges, mode="edge")
        for pat in product((0, 1), repeat=p + 1):
            got = _absorb_step(values, [1], [pat], before, after)
            box = padded[tuple(slice(c, c + hi - lo + 1) for c, (lo, hi) in zip(pat, before))]
            assert got.dtype == box.dtype and np.array_equal(got, box), (trial, pat)


# per dtype: a nonzero draw for weights and grid values, and the weight's scalar type
_KERNEL_DRAWS = {
    np.float64: (lambda rng: rng.random() * 2.0 ** -rng.randrange(40), np.float64),
    object: (lambda rng: rng.getrandbits(rng.choice((8, 80))) + 1, int),
    bool: (lambda rng: True, np.bool_),
}


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        # the bytes of an object array are pointers: compare the Python ints
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, object, bool])
def test_gather_steps_are_byte_equal_to_their_references(dtype):
    # the gather steps give each cell the reference's terms in the same order,
    # plus exact zeros from the padding, so the bits agree: a float sum taken
    # in another order shows up here, where the float results are compared
    # elsewhere only within their error bound
    rng = random.Random(83)
    draw, scalar = _KERNEL_DRAWS[dtype]
    folds = {"top": 0, "bottom": 0}
    for trial in range(60):
        p, n = 1 + trial % 3, rng.randint(1, 30)
        rule = random_rule(rng, p + 1)
        if trial % 4 == 0:
            # the first axis accepts every count (a = 0), the last none (a = n+1)
            thresholds = (Fraction(0),) + rule.thresholds[1:-1] + (Fraction(1),)
            rule = QuotaRule(thresholds, (1,) + rule.breakings[1:-1] + (0,))
        windows = count_windows(rule, n)
        k = rng.choice([k for k in range(n) if window_cells(windows[k + 1]) <= 30_000])
        before, after = windows[k], windows[k + 1]
        folds["top"] += any(hi2 == hi for (_, hi), (_, hi2) in zip(before, after))
        folds["bottom"] += any(lo2 > lo for (lo, _), (lo2, _) in zip(before, after))
        patterns = proposition_patterns(Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p))))
        # zero and unit weights among the drawn ones, never all zero
        weights = [scalar(rng.choice((0, 1, draw(rng), draw(rng)))) for _ in patterns]
        weights[rng.randrange(len(weights))] = scalar(draw(rng))

        def grid(window):
            shape = tuple(hi - lo + 1 for lo, hi in window)
            cells = [draw(rng) if rng.random() < 0.8 else 0 for _ in range(window_cells(window))]
            return np.array(cells, dtype=dtype).reshape(shape)

        forward = grid(before)
        _assert_same_bits(_grid_step(forward, weights, patterns, before, after),
                          scatter_grid_step(forward, weights, patterns, before, after))
        values = grid(after)
        _assert_same_bits(_absorb_step(values, weights, patterns, before, after),
                          zero_start_absorb_step(values, weights, patterns, before, after))
    assert folds["top"] and folds["bottom"]


def test_independence_of_other_coordinates():
    # moving weight between judgements outside a proposition's support set
    # never changes that proposition's verdict
    h1 = Histogram((Fraction(2), Fraction(1), Fraction(2), Fraction(1)))
    h2 = Histogram((Fraction(3), Fraction(0), Fraction(2), Fraction(1)))
    assert threshold_gaps(h1.weights, MAJ, AND2)[0] == \
        threshold_gaps(h2.weights, MAJ, AND2)[0]
    assert apply_quota(h1, MAJ, AND2)[0] == apply_quota(h2, MAJ, AND2)[0]


def test_fractional_and_scaled_histograms_agree():
    doubled = Histogram(tuple(2 * w for w in TABLE_HIST.weights))
    assert apply_quota(doubled, MAJ, AND2) == apply_quota(TABLE_HIST, MAJ, AND2)


def test_tie_detection_beyond_float_precision():
    # a tie at one third of a quadrillion-scale electorate: float arithmetic
    # would misround this, exact rationals must not
    rule = QuotaRule.of(["1/3", "1/3", "1/3"], (1, 0, 1))
    third = 10**14 + 1
    big = 3 * third
    h = Histogram((Fraction(third), Fraction(third), Fraction(third), Fraction(0)))
    assert h.n == big
    assert is_tied(h, 2, rule, AND2)
    assert apply_quota(h, rule, AND2)[1] == 0
    bumped = Histogram(
        (Fraction(third - 1), Fraction(third + 1), Fraction(third), Fraction(0))
    )
    assert not is_tied(bumped, 2, rule, AND2)
    assert apply_quota(bumped, rule, AND2)[1] == 1
