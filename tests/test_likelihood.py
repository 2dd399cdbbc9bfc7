import math
import random
from fractions import Fraction

import numpy as np
import pytest

from paradox_lab import (
    Agenda,
    Assignment,
    DistributionSet,
    FractionalVote,
    Histogram,
    QuotaRule,
    Rate,
    ResourceBudgetError,
    classify,
    compositions,
    exact_paradox_probability,
    histogram_distribution,
    is_paradox,
    monte_carlo_estimate,
    smoothed_extremes,
)
from paradox_lab.likelihood import (
    DEFAULT_STATE_BUDGET,
    _check_error_bound,
    _error_bound,
    _exact_assignment_probabilities,
    _float_dtype,
)
from conftest import (
    CAPPED_RULE,
    brute_force_paradox_probability,
    random_instance,
    random_positive_members,
    random_rule,
)

AND2 = Agenda.conjunction(2)
MAJ = QuotaRule.majority(3, (1, 1, 0))
MIRROR = Agenda(1, (0, 1))
MIRROR_RULE = QuotaRule.majority(2, (1, 0))


def _dists(*rows) -> DistributionSet:
    return DistributionSet(tuple(FractionalVote.of(row) for row in rows))


def _random_counts(rng: random.Random, n: int, members: int) -> tuple[int, ...]:
    counts = [0] * members
    for _ in range(n):
        counts[rng.randrange(members)] += 1
    return tuple(counts)


THETA1 = _dists(["1/4"] * 4, ["1/25", "8/25", "8/25", "8/25"])
EXPSMALL = _dists(["3/25", "3/25", "3/25", "16/25"], ["1/10", "1/10", "1/10", "7/10"])
MIRROR_SET = _dists(["9/10", "1/10"], ["3/10", "7/10"])


def test_single_agent_never_paradoxical():
    assert exact_paradox_probability((1, 0), THETA1, MAJ, AND2, value_mode="rational") == 0
    assert exact_paradox_probability((0, 1), EXPSMALL, MAJ, AND2, value_mode="rational") == 0


def test_two_uniform_agents_probability():
    # four unordered vote pairs aggregate to (1,1,0): {(0,0),(1,1)},
    # {(0,1),(1,0)}, {(0,1),(1,1)}, {(1,0),(1,1)} - premise ties accept,
    # the conclusion tie rejects - so 8 of the 16 ordered profiles paradox
    prob = exact_paradox_probability((2, 0), THETA1, MAJ, AND2, value_mode="rational")
    assert prob == Fraction(1, 2)
    assert prob == brute_force_paradox_probability((2, 0), THETA1, MAJ, AND2)


def test_dp_matches_enumeration_oracle():
    rng = random.Random(3)
    for _ in range(10):
        agenda, rule, dists = random_instance(rng)
        n = rng.randint(1, 5)
        counts = [0] * dists.size
        for _ in range(n):
            counts[rng.randrange(dists.size)] += 1
        dp = exact_paradox_probability(tuple(counts), dists, rule, agenda,
                                       value_mode="rational")
        assert dp == brute_force_paradox_probability(tuple(counts), dists, rule, agenda)


def test_assignment_order_is_immaterial():
    # an ordered assignment's law depends only on the counts: evaluating the
    # reversed distribution set with swapped counts gives the same probability
    swapped = DistributionSet((THETA1.members[1], THETA1.members[0]))
    for counts in ((1, 3), (2, 2), (4, 0)):
        direct = exact_paradox_probability(counts, THETA1, MAJ, AND2, value_mode="rational")
        mirrored = exact_paradox_probability(counts[::-1], swapped, MAJ, AND2,
                                             value_mode="rational")
        assert direct == mirrored


def test_auto_mode_degrades_and_stays_close():
    exact = exact_paradox_probability((3, 2), THETA1, MAJ, AND2, value_mode="rational")
    degraded = exact_paradox_probability(
        (3, 2), THETA1, MAJ, AND2, value_mode="auto", denominator_bit_limit=8
    )
    assert isinstance(degraded, float)
    assert abs(degraded - float(exact)) < 1e-15
    floated = exact_paradox_probability((3, 2), THETA1, MAJ, AND2, value_mode="float")
    assert abs(floated - float(exact)) < 1e-15


def test_auto_mode_chooses_once_from_denominator_bits(three_majority_instance):
    inst = three_majority_instance
    counts = (3, 2)
    denominator = 1
    for member, count in zip(inst.distributions.members, counts):
        denominator *= math.lcm(*(w.denominator for w in member.weights)) ** count
    bits = denominator.bit_length()
    args = (counts, inst.distributions, inst.rule, inst.agenda)
    exact = exact_paradox_probability(*args, value_mode="rational")
    at_limit = exact_paradox_probability(*args, value_mode="auto", denominator_bit_limit=bits)
    assert isinstance(at_limit, Fraction)
    assert at_limit == exact
    below = exact_paradox_probability(*args, value_mode="auto", denominator_bit_limit=bits - 1)
    assert isinstance(below, float)
    assert abs(below - float(exact)) < 1e-15


def test_p3_many_members_match_enumeration(three_majority_instance, three_quota_instance):
    rng = random.Random(11)
    for inst in (three_majority_instance, three_quota_instance):
        for size, n in ((3, 4), (5, 3), (8, 4)):
            dists = random_positive_members(rng, inst.agenda.m, size)
            counts = _random_counts(rng, n, size)
            exact = exact_paradox_probability(counts, dists, inst.rule, inst.agenda,
                                              value_mode="rational")
            assert exact == brute_force_paradox_probability(counts, dists, inst.rule,
                                                            inst.agenda)


def test_p3_many_members_match_histogram_law(three_majority_instance, three_quota_instance):
    # cross-checks the count-grid kernel against the histogram-space law
    rng = random.Random(12)
    for inst, size, n in ((three_majority_instance, 8, 10), (three_quota_instance, 5, 8)):
        dists = random_positive_members(rng, inst.agenda.m, size)
        counts = _random_counts(rng, n, size)
        law = histogram_distribution(counts, dists)
        assert law.total() == 1
        mass = sum(
            (
                prob
                for hist, prob in law.probabilities.items()
                if is_paradox(Histogram(tuple(Fraction(x) for x in hist)),
                              inst.rule, inst.agenda)
            ),
            Fraction(0),
        )
        assert exact_paradox_probability(counts, dists, inst.rule, inst.agenda,
                                         value_mode="rational") == mass


def test_histogram_distribution_is_a_law():
    law = histogram_distribution((2, 1), THETA1)
    assert law.agents == 3
    assert law.total() == 1
    assert all(sum(h) == 3 for h in law.probabilities)


def test_two_block_matches_per_assignment():
    for n in (10, 11, 13):
        fast = smoothed_extremes(THETA1, n, MAJ, AND2, mode="exact")
        slow = smoothed_extremes(THETA1, n, MAJ, AND2, mode="exact", value_mode="rational")
        assert abs(fast.max_probability - float(slow.max_probability)) < 1e-12
        assert abs(fast.min_probability - float(slow.min_probability)) < 1e-12
        assert fast.max_witness == slow.max_witness
        assert fast.min_witness == slow.min_witness


def test_three_member_extremes_match_per_assignment():
    trio = _dists(
        ["1/4"] * 4,
        ["1/25", "8/25", "8/25", "8/25"],
        ["1/10", "1/10", "1/10", "7/10"],
    )
    fast = smoothed_extremes(trio, 11, MAJ, AND2, mode="exact")
    slow = smoothed_extremes(trio, 11, MAJ, AND2, mode="exact", value_mode="rational")
    assert abs(fast.max_probability - float(slow.max_probability)) < 1e-12
    assert abs(fast.min_probability - float(slow.min_probability)) < 1e-12
    assert fast.max_witness == slow.max_witness
    assert fast.min_witness == slow.min_witness


def _assert_rational_chain_is_exact(dists, n, rule, agenda):
    # every assignment of the rational chain against its own convolution
    chain = _exact_assignment_probabilities(dists, n, rule, agenda, "rational",
                                            DEFAULT_STATE_BUDGET)
    assert sorted(counts for counts, _ in chain) == list(compositions(n, dists.size))
    for counts, prob in chain:
        exact = exact_paradox_probability(counts, dists, rule, agenda, value_mode="rational")
        assert type(prob) is Fraction and prob == exact, (n, counts, prob, exact)


@pytest.mark.parametrize(
    "name",
    ["theta1_instance", "expsmall_instance", "mirror_instance",
     "three_majority_instance", "three_quota_instance"],
)
def test_rational_chain_matches_per_assignment_convolution(name, request):
    inst = request.getfixturevalue(name)
    for n in range(1, (10 if inst.agenda.p == 3 else 14) + 1):
        _assert_rational_chain_is_exact(inst.distributions, n, inst.rule, inst.agenda)


def test_rational_chain_with_prefix_members_matches_convolution(three_majority_instance):
    # a third member runs the prefix grids, and four p=3 members two prefix levels
    trio = DistributionSet(THETA1.members + EXPSMALL.members[1:])
    for n in range(1, 12):
        _assert_rational_chain_is_exact(trio, n, MAJ, AND2)
    inst = three_majority_instance
    quartet = random_positive_members(random.Random(7), inst.agenda.m, 4)
    for n in range(1, 7):
        _assert_rational_chain_is_exact(quartet, n, inst.rule, inst.agenda)


def test_rational_chain_matches_convolution_on_random_rules():
    # random rules cap each axis at its own acceptance count; thresholds 0
    # and 1 give caps 0 and n, and both tie bits occur. Every Fraction of the
    # chain is checked against the convolution, and the convolution against
    # profile enumeration
    rng = random.Random(101)
    thresholds, ties = set(), set()
    for trial in range(9):
        p = 1 + trial % 3
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        dists = random_positive_members(rng, agenda.m, 2 + trial % 2)
        thresholds.update(rule.thresholds)
        ties.update(rule.breakings)
        for n in range(1, 9):
            _assert_rational_chain_is_exact(dists, n, rule, agenda)
        # profile enumeration costs m^n per assignment: one assignment per n
        for n in range(1, 5):
            counts = _random_counts(rng, n, dists.size)
            assert exact_paradox_probability(
                counts, dists, rule, agenda, value_mode="rational"
            ) == brute_force_paradox_probability(counts, dists, rule, agenda)
    assert {0, 1} <= thresholds and ties == {0, 1}


def test_auto_extremes_choose_one_number_type():
    assert type(smoothed_extremes(THETA1, 9, MAJ, AND2).max_probability) is Fraction
    assert type(smoothed_extremes(THETA1, 10, MAJ, AND2).max_probability) is float
    # D = 2^460: at n=9 only (9, 0)'s denominator, 2^4140, exceeds 4096 bits,
    # and auto decides for the whole chain from that worst one: all floats
    tiny = Fraction(1, 2**460)
    dists = _dists([1 - tiny, tiny], ["3/10", "7/10"])
    for n, kind in ((8, Fraction), (9, float)):
        auto = _exact_assignment_probabilities(dists, n, MIRROR_RULE, MIRROR, "auto",
                                               DEFAULT_STATE_BUDGET)
        rational = dict(_exact_assignment_probabilities(dists, n, MIRROR_RULE, MIRROR,
                                                        "rational", DEFAULT_STATE_BUDGET))
        assert all(type(prob) is kind for _, prob in auto)
        for counts, prob in auto:
            assert prob == pytest.approx(float(rational[counts]), rel=1e-15)


def test_extremes_bounds_and_order():
    rng = random.Random(29)
    for _ in range(6):
        agenda, rule, dists = random_instance(rng, members=2)
        n = rng.randint(2, 12)
        extremes = smoothed_extremes(dists, n, rule, agenda, mode="exact")
        assert 0.0 <= extremes.min_probability <= extremes.max_probability <= 1.0


def test_single_member_extremes_collapse():
    single = DistributionSet((FractionalVote.uniform(2),))
    extremes = smoothed_extremes(single, 4, MAJ, AND2, mode="exact", value_mode="rational")
    expected = exact_paradox_probability((4,), single, MAJ, AND2, value_mode="rational")
    assert extremes.max_probability == extremes.min_probability == expected
    assert extremes.max_witness == Assignment((4,))


def test_single_member_auto_extremes_follow_the_extremes_type():
    # auto extremes switch to floats at n = 10 for one member as for two
    single = DistributionSet((FractionalVote.of(["1/4", "1/4", "1/4", "1/4"]),))
    for n, kind in ((9, Fraction), (10, float)):
        auto = smoothed_extremes(single, n, MAJ, AND2, mode="exact")
        exact = exact_paradox_probability((n,), single, MAJ, AND2, value_mode="rational")
        assert type(auto.max_probability) is kind
        assert type(auto.min_probability) is kind
        assert auto.max_probability == pytest.approx(exact, rel=1e-12)


def test_mirror_extremes_vanish_at_odd_n():
    for n in (3, 9, 15):
        extremes = smoothed_extremes(MIRROR_SET, n, MIRROR_RULE, MIRROR, mode="exact")
        assert extremes.max_probability == 0.0
        assert extremes.min_probability == 0.0
    even = smoothed_extremes(MIRROR_SET, 8, MIRROR_RULE, MIRROR, mode="exact")
    assert even.min_probability > 0.0
    assert even.min_probability <= even.max_probability


def _binomial_numerators(trials: int, accept: int) -> list[int]:
    # P(k accepts) * 10^trials for a member that accepts with probability accept/10
    return [math.comb(trials, k) * accept**k * (10 - accept) ** (trials - k)
            for k in range(trials + 1)]


@pytest.mark.parametrize(
    "n, min_witness, max_witness", [(20, (20, 0), (7, 13)), (100, (100, 0), (34, 66))]
)
def test_mirror_extremes_match_per_assignment_oracle(n, min_witness, max_witness):
    # at even n the mirror paradox is exactly n/2 accepting votes; with c agents
    # on the (9/10, 1/10) member and n - c on (3/10, 7/10) that count is the
    # convolution of Binomial(c, 1/10) and Binomial(n - c, 7/10)
    half = n // 2
    oracle = {}
    for c in range(n + 1):
        first = _binomial_numerators(c, 1)
        second = _binomial_numerators(n - c, 7)
        hits = sum(first[k] * second[half - k]
                   for k in range(max(0, half - (n - c)), min(c, half) + 1))
        oracle[(c, n - c)] = Fraction(hits, 10**n)
    low = min(oracle.values())
    high = max(oracle.values())

    extremes = smoothed_extremes(MIRROR_SET, n, MIRROR_RULE, MIRROR, mode="exact")
    assert extremes.min_probability == pytest.approx(float(low), rel=1e-12)
    assert extremes.max_probability == pytest.approx(float(high), rel=1e-12)
    assert min(k for k, v in oracle.items() if v == low) == min_witness
    assert min(k for k, v in oracle.items() if v == high) == max_witness
    assert extremes.min_witness == Assignment(min_witness)
    assert extremes.max_witness == Assignment(max_witness)


TINY = Fraction(1, 2**19)


@pytest.mark.parametrize(
    "rows, n, dtype",
    [
        # 51 * 19 = 969 agent-weight bits fit float64's guard, 52 * 19 = 988 do not
        ([[1 - TINY, TINY], ["1/2", "1/2"]], 51, np.float64),
        ([[1 - TINY, TINY], ["1/2", "1/2"]], 52, np.longdouble),
        # a zero weight adds no term, so it does not count as the smallest weight
        ([[1, 0], [1 - TINY, TINY]], 51, np.float64),
        ([[1, 0], [1 - TINY, TINY]], 52, np.longdouble),
    ],
)
def test_float_dtype_guard_boundary(rows, n, dtype):
    assert _float_dtype(_dists(*rows), n) is dtype


@pytest.mark.parametrize(
    "name, extra, ns",
    [
        pytest.param("expsmall_instance", (), (10, 12, 14), id="expsmall_instance"),
        pytest.param("theta1_instance", (), (10, 12, 14), id="theta1_instance"),
        # a third member runs the prefix grids: 66 and 78 assignments
        pytest.param("theta1_instance", EXPSMALL.members[1:], (10, 11), id="theta1_trio"),
        pytest.param("three_majority_instance", (), (10, 12), id="three_majority_instance"),
    ],
)
def test_two_block_error_within_bound(name, extra, ns, request):
    # every assignment of the two-block chain against its exact probability,
    # to within the chain's own forward-error bound
    inst = request.getfixturevalue(name)
    dists = DistributionSet(inst.distributions.members + tuple(extra))
    rule, agenda = inst.rule, inst.agenda
    for n in ns:
        bound = Fraction(_error_bound(_float_dtype(dists, n), n, agenda.p))
        chain = _exact_assignment_probabilities(
            dists, n, rule, agenda, "auto", DEFAULT_STATE_BUDGET
        )
        assert len(chain) == math.comb(n + dists.size - 1, dists.size - 1)
        for counts, prob in chain:
            exact = exact_paradox_probability(counts, dists, rule, agenda,
                                              value_mode="rational")
            assert abs(Fraction(prob) - exact) <= bound * exact, (n, counts, prob, exact)


def test_error_bound_check_rejects_out_of_range():
    bound = _error_bound(np.float64, 14, 2)
    assert 0 < bound < 1e-11
    _check_error_bound(np.array([0.0, 0.5, 1.0, 1.0 + bound / 2]), np.float64, 14, 2)
    for bad in (-1e-300, 1.0 + 2 * bound, float("nan")):
        with pytest.raises(FloatingPointError):
            _check_error_bound(np.array([0.5, bad]), np.float64, 14, 2)


def test_tiny_weight_runs_longdouble_and_matches_rational():
    # 20 * 60 agent-weight bits exceed float64's guard; the extremes still
    # sit far inside float64 (the minimum is about C(20, 10) * 2^-600)
    tiny = Fraction(1, 2**60)
    dists = _dists([1 - tiny, tiny], ["3/10", "7/10"])
    assert _float_dtype(dists, 20) is np.longdouble
    fast = smoothed_extremes(dists, 20, MIRROR_RULE, MIRROR, mode="exact")
    slow = smoothed_extremes(dists, 20, MIRROR_RULE, MIRROR, mode="exact",
                             value_mode="rational")
    assert slow.min_probability > 0
    assert fast.min_probability == pytest.approx(float(slow.min_probability), rel=1e-12)
    assert fast.max_probability == pytest.approx(float(slow.max_probability), rel=1e-12)
    assert fast.min_witness == slow.min_witness
    assert fast.max_witness == slow.max_witness


def test_longdouble_results_checked_as_returned_float64():
    # a longdouble chain whose results are rounded to float64: (7, 1) and
    # (8, 0) are positive but below 2^-1074, and the other assignments carry
    # the rounding to float64 on top of gamma_N
    tiny = Fraction(1, 2**460)
    dists = _dists([1 - tiny, tiny], ["3/10", "7/10"])
    n = 8
    assert _float_dtype(dists, n) is np.longdouble
    bound = Fraction(_error_bound(np.longdouble, n, MIRROR.p))
    for k in range(n + 1):
        counts = (k, n - k)
        exact = exact_paradox_probability(counts, dists, MIRROR_RULE, MIRROR,
                                          value_mode="rational")
        assert exact > 0
        if k >= 7:
            with pytest.raises(FloatingPointError):
                exact_paradox_probability(counts, dists, MIRROR_RULE, MIRROR,
                                          value_mode="float")
        else:
            prob = exact_paradox_probability(counts, dists, MIRROR_RULE, MIRROR,
                                             value_mode="float")
            assert abs(Fraction(prob) - exact) <= bound * exact, (counts, prob, exact)
    with pytest.raises(FloatingPointError):
        _exact_assignment_probabilities(dists, n, MIRROR_RULE, MIRROR, "float",
                                        DEFAULT_STATE_BUDGET)


def test_monte_carlo_reproducible_and_calibrated():
    exact = exact_paradox_probability((2, 0), THETA1, MAJ, AND2, value_mode="rational")
    est1, se1 = monte_carlo_estimate((2, 0), THETA1, 2, MAJ, AND2, trials=50_000, seed=123)
    est2, se2 = monte_carlo_estimate((2, 0), THETA1, 2, MAJ, AND2, trials=50_000, seed=123)
    assert (est1, se1) == (est2, se2)
    assert abs(est1 - float(exact)) <= 3 * se1
    other, _ = monte_carlo_estimate((2, 0), THETA1, 2, MAJ, AND2, trials=50_000, seed=124)
    assert other != est1


def test_monte_carlo_threshold_denominator_beyond_int64():
    # support * 10^18 overflows int64 at n = 10; verdicts must stay exact
    rule = QuotaRule.of(["1/2", "1/2", Fraction(5 * 10**17 + 1, 10**18)], [1, 1, 0])
    single = _dists(["1/100", "1/100", "1/100", "97/100"])
    exact = float(exact_paradox_probability((10,), single, rule, AND2, value_mode="rational"))
    trials = 20_000
    est, _ = monte_carlo_estimate((10,), single, 10, rule, AND2, trials=trials, seed=0)
    assert abs(est - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_monte_carlo_degenerate_point_mass():
    # a deterministic vote distribution is fine for sampling even though it
    # is outside the strictly-positive regime the condition checks need
    degenerate = DistributionSet((FractionalVote.point((1, 1)),))
    est, se = monte_carlo_estimate((5,), degenerate, 5, MAJ, AND2, trials=1000, seed=1)
    assert est == 0.0 and se == 0.0
    est1, _ = monte_carlo_estimate((5,), degenerate, 5, MAJ, AND2, trials=1, seed=9)
    assert est1 in (0.0, 1.0)


def test_mc_extremes_have_stderr_and_witnesses():
    extremes = smoothed_extremes(
        THETA1, 4, MAJ, AND2, mode="mc", trials=20_000, seed=5
    )
    assert extremes.mode == "mc"
    assert extremes.max_stderr > 0
    assert sum(extremes.max_witness.counts) == 4
    again = smoothed_extremes(THETA1, 4, MAJ, AND2, mode="mc", trials=20_000, seed=5)
    assert again.max_probability == extremes.max_probability
    assert again.min_probability == extremes.min_probability


def test_constant_instance_min_fit_parameters():
    # the odd-n minimum series approaches its quarter-level plateau
    # exponentially; freeze the fitted parameters against known-good values
    series = []
    for n in range(3, 62, 2):
        ext = smoothed_extremes(THETA1, n, MAJ, AND2, mode="exact")
        series.append((n, float(ext.min_probability)))
    from paradox_lab import fit_curve

    fit = fit_curve(series, "exp_plus_const")
    a, b, c = fit.parameters
    assert abs(a - (-0.27476)) < 0.02
    assert abs(b - 0.18796) < 0.02
    assert abs(c - 0.25) < 0.005
    assert fit.r_squared > 0.999


def test_exponential_instance_log_probability_decreases():
    values = []
    for n in range(4, 15, 2):
        ext = smoothed_extremes(EXPSMALL, n, MAJ, AND2, mode="exact",
                                value_mode="rational")
        values.append(float(ext.max_probability))
    logs = [math.log(v) for v in values]
    assert all(a > b for a, b in zip(logs, logs[1:]))


def test_classify_golden_cases():
    got = classify(THETA1, MAJ, AND2, 10)
    assert (got.max_rate, got.min_rate) == (Rate.CONSTANT, Rate.CONSTANT)
    got = classify(EXPSMALL, MAJ, AND2, 10)
    assert (got.max_rate, got.min_rate) == (Rate.EXP_SMALL, Rate.EXP_SMALL)
    got = classify(MIRROR_SET, MIRROR_RULE, MIRROR, 9)
    assert (got.max_rate, got.min_rate) == (Rate.ZERO, Rate.ZERO)
    got = classify(MIRROR_SET, MIRROR_RULE, MIRROR, 10)
    assert (got.max_rate, got.min_rate) == (Rate.INV_SQRT, Rate.EXP_SMALL)


def test_classify_zero_rate_matches_exact_probability():
    for n in (3, 7):
        assert classify(MIRROR_SET, MIRROR_RULE, MIRROR, n).max_rate == Rate.ZERO
        assert exact_paradox_probability((n, 0), MIRROR_SET, MIRROR_RULE, MIRROR,
                                         value_mode="rational") == 0


def test_classify_rejects_non_positive_sets():
    bad = DistributionSet((FractionalVote.point((1, 1)), FractionalVote.uniform(2)))
    with pytest.raises(ValueError):
        classify(bad, MAJ, AND2, 4)


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment((0, 0))
    with pytest.raises(ValueError):
        Assignment((-1, 2))
    assert Assignment((2, 3)).n == 5


def test_compositions_cover_and_order():
    combos = list(compositions(3, 2))
    assert combos == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(5, 3))) == math.comb(7, 2)


def test_resource_budgets_raise():
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(THETA1, 30, MAJ, AND2, mode="exact", assignment_budget=10)
    with pytest.raises(ResourceBudgetError):
        exact_paradox_probability((40, 0), THETA1, MAJ, AND2,
                                  value_mode="float", state_budget=100)
    # the rational engine is charged the capped count grid, not the 20
    # histograms of three agents over four judgements: at n=3 every
    # proposition of MAJ accepts from 2 votes, so the caps are (2, 2, 2)
    # and the grid has 3^3 = 27 cells
    with pytest.raises(ResourceBudgetError):
        exact_paradox_probability((3, 0), THETA1, MAJ, AND2,
                                  value_mode="rational", state_budget=26)
    assert exact_paradox_probability((3, 0), THETA1, MAJ, AND2,
                                     value_mode="rational", state_budget=27) == (
        brute_force_paradox_probability((3, 0), THETA1, MAJ, AND2)
    )
    # at n=10 the caps are (5, 5, 6); the two-block chain stores one grid
    # per split k, of shape min(k, c_i) + 1 on axis i:
    # sum_{k=0..5} (k+1)^3 + 5 * (6 * 6 * 7) = 441 + 1260 = 1701 entries
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(THETA1, 10, MAJ, AND2, mode="exact", state_budget=1700)
    assert smoothed_extremes(THETA1, 10, MAJ, AND2, mode="exact", state_budget=1701) == (
        smoothed_extremes(THETA1, 10, MAJ, AND2, mode="exact")
    )
    # the rational chain on integer numerators is charged the same entries
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(THETA1, 10, MAJ, AND2, value_mode="rational", state_budget=1700)
    assert smoothed_extremes(THETA1, 10, MAJ, AND2, value_mode="rational",
                             state_budget=1701) == (
        smoothed_extremes(THETA1, 10, MAJ, AND2, value_mode="rational")
    )


def test_chain_budget_charges_every_axis(three_majority_instance):
    # CAPPED_RULE's caps differ by axis, (4, 3, 3, 2) at n=8, so the chain's
    # grid k has shape min(j + k, c_i) + 1 after a prefix of j agents. The
    # largest chain is the one without prefix: 1 + 2^4 + 3^4 + 4*4*4*3 and
    # five grids of 5*4*4*3, 1 + 16 + 81 + 192 + 5 * 240 = 1490 entries
    agenda = three_majority_instance.agenda
    trio = random_positive_members(random.Random(5), agenda.m, 3)
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(trio, 8, CAPPED_RULE, agenda, state_budget=1489)
    assert smoothed_extremes(trio, 8, CAPPED_RULE, agenda, state_budget=1490) == (
        smoothed_extremes(trio, 8, CAPPED_RULE, agenda)
    )
