import math
import random
from fractions import Fraction

import numpy as np
import pytest

from paradox_lab import (
    Agenda,
    Assignment,
    DimensionError,
    DistributionSet,
    FractionalVote,
    HistogramDistribution,
    QuotaRule,
    Rate,
    ResourceBudgetError,
    classify,
    compositions,
    exact_paradox_probability,
    histogram_distribution,
    monte_carlo_estimate,
    parse_instance,
    smoothed_extremes,
)
from paradox_lab import likelihood
from paradox_lab.aggregation import acceptance_count
from paradox_lab.likelihood import (
    DEFAULT_STATE_BUDGET,
    _check_error_bound,
    _error_bound,
    _exact_assignment_probabilities,
)
from conftest import (
    CAPPED_RULE,
    INSTANCE_DIR,
    brute_force_histogram_law,
    brute_force_paradox_probability,
    paradox_mass,
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
    # from n = 10 on auto runs in floats, each within 1e-15 of the rational value
    exact = exact_paradox_probability((6, 4), THETA1, MAJ, AND2, value_mode="rational")
    degraded = exact_paradox_probability((6, 4), THETA1, MAJ, AND2, value_mode="auto")
    assert isinstance(degraded, float)
    assert abs(degraded - float(exact)) < 1e-15
    floated = exact_paradox_probability((6, 4), THETA1, MAJ, AND2, value_mode="float")
    assert abs(floated - float(exact)) < 1e-15


def test_auto_mode_chooses_once_from_denominator_bits(three_majority_instance, monkeypatch):
    # auto decides from the worst n-agent denominator, max_k D_k^n, not from
    # the assignment's own: (3, 2) has 25^3 * 20^2 (23 bits) against 25^5 (24)
    inst = three_majority_instance
    counts = (3, 2)
    lcds = [math.lcm(*(w.denominator for w in member.weights))
            for member in inst.distributions.members]
    own = math.prod(lcd**count for lcd, count in zip(lcds, counts)).bit_length()
    worst = (max(lcds) ** sum(counts)).bit_length()
    assert own < worst
    args = (counts, inst.distributions, inst.rule, inst.agenda)
    exact = exact_paradox_probability(*args, value_mode="rational")
    monkeypatch.setattr(likelihood, "DEFAULT_DENOMINATOR_BITS", worst)
    at_limit = exact_paradox_probability(*args, value_mode="auto")
    assert isinstance(at_limit, Fraction)
    assert at_limit == exact
    monkeypatch.setattr(likelihood, "DEFAULT_DENOMINATOR_BITS", worst - 1)
    below = exact_paradox_probability(*args, value_mode="auto")
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
        assert exact_paradox_probability(counts, dists, inst.rule, inst.agenda,
                                         value_mode="rational") == (
            paradox_mass(law.probabilities, inst.rule, inst.agenda)
        )


def test_windowed_probability_matches_histogram_law_on_random_rules():
    # the count-window convolution against the histogram-space law, which
    # shares no grid code: random rules give acceptance counts 0 and n+1,
    # whose axes stay one cell wide, as well as folds at both window ends
    rng = random.Random(131)
    edges = set()
    # 12 trials meet every p = 1..3 with every member count 1..4
    for trial in range(12):
        p = 1 + trial % 3
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        dists = random_positive_members(rng, agenda.m, 1 + trial % 4)
        # p = 3 stops at n = 6: the law of 8 votes over 8 judgements has 6435
        # histograms, each checked in Fractions
        for n in range(1, 9 if p < 3 else 7):
            accepts = [acceptance_count(q, d, n)
                       for q, d in zip(rule.thresholds, rule.breakings)]
            edges.update("a=0" if a == 0 else "a=n+1" for a in accepts if a in (0, n + 1))
            counts = _random_counts(rng, n, dists.size)
            law = histogram_distribution(counts, dists)
            assert exact_paradox_probability(
                counts, dists, rule, agenda, value_mode="rational"
            ) == paradox_mass(law.probabilities, rule, agenda), (trial, n, counts)
    assert edges == {"a=0", "a=n+1"}


def test_histogram_distribution_is_a_law():
    law = histogram_distribution((2, 1), THETA1)
    assert law.agents == 3
    assert law.total() == 1
    assert all(sum(h) == 3 for h in law.probabilities)


def test_total_is_the_fraction_sum():
    past = 2**64 + 13  # a denominator past 2^63
    laws = [
        {},
        {(1,): Fraction(3, 7)},
        {(0, 2): Fraction(1, 6), (1, 1): Fraction(1, 4), (2, 0): Fraction(5, 12),
         (0, 1): Fraction(1, 9), (1, 0): Fraction(2, 9), (0, 0): Fraction(1, 12)},
        {(0,): Fraction(1, past), (1,): Fraction(5, 3 * past), (2,): Fraction(7, 2**70),
         (3,): Fraction(1, 3), (4,): Fraction(2, past)},
    ]
    # (20, 0) of expsmall puts 25^20 > 2^63 into the denominator
    law = histogram_distribution((20, 0), EXPSMALL)
    assert max(prob.denominator for prob in law.probabilities.values()) > 2**63
    for probabilities in laws + [law.probabilities]:
        total = HistogramDistribution(probabilities, 1).total()
        assert type(total) is Fraction
        assert total == sum(probabilities.values(), Fraction(0))
    assert law.total() == 1


def _members_with_zeros(rng: random.Random, m: int, count: int) -> DistributionSet:
    """``count`` distinct members, integer weights 0..5 normalized, the first with a 0."""
    rows: list[FractionalVote] = []
    while len(rows) < count:
        ints = [rng.randint(0, 5) for _ in range(m)]
        if not rows:
            ints[rng.randrange(m)] = 0
        if not any(ints):
            continue
        row = FractionalVote(tuple(Fraction(x, sum(ints)) for x in ints))
        if row not in rows:
            rows.append(row)
    return DistributionSet(tuple(rows))


def _assert_is_law(law, n):
    assert law.agents == n
    assert law.total() == 1
    assert all(prob != 0 for prob in law.probabilities.values())
    assert all(type(hist) is tuple and all(type(c) is int for c in hist)
               for hist in law.probabilities)


def test_histogram_distribution_matches_brute_force_law():
    # every ordered profile enumerated, against the sorted-key convolution;
    # half the sets mix zero weights into a strictly positive member
    rng = random.Random(2203)
    for trial in range(24):
        p, size = 1 + trial % 3, 1 + trial % 4
        m = 1 << p
        dists = (random_positive_members(rng, m, size) if trial % 2
                 else _members_with_zeros(rng, m, size))
        for n in range(1, 5 if p == 3 else 7):
            counts = _random_counts(rng, n, size)
            law = histogram_distribution(counts, dists)
            assert law.probabilities == brute_force_histogram_law(counts, dists), (trial, counts)
            _assert_is_law(law, n)


@pytest.mark.parametrize("n", [62, 63, 233, 234, 300])
def test_histogram_distribution_keys_past_int64(n):
    # one p = 3 member on the first two judgements: the law is Binomial(n, 1/2).
    # From n = 63 the denominator 2^n passes 2^63 - 1, so the numerators leave
    # int64, and from n = 234 so does the key of (n, 0, ..., 0), n * (n+1)^7.
    half = DistributionSet((FractionalVote((Fraction(1, 2), Fraction(1, 2)) + (Fraction(0),) * 6),))
    law = histogram_distribution((n,), half)
    assert law.probabilities == {
        (k, n - k) + (0,) * 6: Fraction(math.comb(n, k), 2**n) for k in range(n + 1)
    }
    _assert_is_law(law, n)


@pytest.mark.parametrize("counts", [(0, 5), (1, 4)])
def test_histogram_distribution_beside_a_member_past_int64(counts):
    # member 0's LCD is 10^60: with no agents of it the denominator 2^5 fits
    # int64, yet its numerators do not, so only members with agents are read
    dists = _dists([f"{10**60 - 3}/{10**60}", f"3/{10**60}"], ["1/2", "1/2"])
    law = histogram_distribution(counts, dists)
    assert law.probabilities == brute_force_histogram_law(counts, dists)
    _assert_is_law(law, sum(counts))


@pytest.mark.parametrize("n, numerator_type", [(38, np.int64), (40, object)])
def test_rational_engine_at_the_int64_switch(n, numerator_type, monkeypatch):
    # one member (1/3, 2/3) on the mirror rule: at even n the paradox is
    # exactly n/2 accepting votes, P = C(n, n/2) * 2^(n/2) / 3^n; 3^38 fits
    # int64 and 3^40 does not, so the numerators run on either side
    dtypes = []
    weights = likelihood._member_weights
    monkeypatch.setattr(likelihood, "_member_weights",
                        lambda dists, dtype: dtypes.append(dtype) or weights(dists, dtype))
    third = _dists(["1/3", "2/3"])
    expected = Fraction(math.comb(n, n // 2) * 2 ** (n // 2), 3**n)
    assert exact_paradox_probability((n,), third, MIRROR_RULE, MIRROR,
                                     value_mode="rational") == expected
    extremes = smoothed_extremes(third, n, MIRROR_RULE, MIRROR, value_mode="rational")
    assert extremes.max_probability == extremes.min_probability == expected
    assert dtypes == [numerator_type] * 2


@pytest.mark.parametrize("n", [13, 14])
def test_rational_tree_at_the_int64_switch_matches_histogram_laws(n):
    # expsmall's largest D_k is 25: 25^13 fits int64 and 25^14 does not, and
    # each histogram law's denominator 25^c * 10^(n-c) straddles it at n = 14
    for counts, prob in _exact_assignment_probabilities(EXPSMALL, n, MAJ, AND2, "rational",
                                                        DEFAULT_STATE_BUDGET):
        law = histogram_distribution(counts, EXPSMALL)
        assert prob == paradox_mass(law.probabilities, MAJ, AND2), counts


def test_assignment_tree_float_matches_rational():
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
    # a third member adds a walk level to the tree, four p=3 members two
    trio = DistributionSet(THETA1.members + EXPSMALL.members[1:])
    for n in range(1, 12):
        _assert_rational_chain_is_exact(trio, n, MAJ, AND2)
    inst = three_majority_instance
    quartet = random_positive_members(random.Random(7), inst.agenda.m, 4)
    for n in range(1, 7):
        _assert_rational_chain_is_exact(quartet, n, inst.rule, inst.agenda)


def test_rational_chain_with_a_zero_weight_in_the_last_member():
    # the last member's absorption steps skip its zero weight
    for dists in (_dists(["1/4"] * 4, ["1/10", "0", "1/10", "4/5"]),
                  _dists(["1/10", "0", "1/10", "4/5"])):
        for n in range(1, 10):
            _assert_rational_chain_is_exact(dists, n, MAJ, AND2)


def test_rational_chain_matches_convolution_on_random_rules():
    # random rules give each axis its own count window; thresholds 0 and 1
    # can give one-cell axes (a = 0 or n+1), and both tie bits occur. Every
    # Fraction of the chain is checked against the convolution, and the
    # convolution against profile enumeration
    rng = random.Random(101)
    thresholds, ties = set(), set()
    # 12 trials meet every p = 1..3 with every member count 1..4
    for trial in range(12):
        p = 1 + trial % 3
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        dists = random_positive_members(rng, agenda.m, 1 + trial % 4)
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
    # auto is rational below n = 10 and floats from it on; with D = 2^460 at
    # n = 9 only (9, 0)'s denominator, 2^4140, exceeds 4096 bits, and auto
    # decides for the whole run from that worst one: all floats. A single
    # assignment's probability takes the number type of the extremes at its n
    tiny = Fraction(1, 2**460)
    cases = [(THETA1, MAJ, AND2, 9, Fraction), (THETA1, MAJ, AND2, 10, float)]
    cases += [(_dists([1 - tiny, tiny], ["3/10", "7/10"]), MIRROR_RULE, MIRROR, n, kind)
              for n, kind in ((8, Fraction), (9, float))]
    for dists, rule, agenda, n, kind in cases:
        auto = _exact_assignment_probabilities(dists, n, rule, agenda, "auto",
                                               DEFAULT_STATE_BUDGET)
        assert type(smoothed_extremes(dists, n, rule, agenda).max_probability) is kind
        for counts, prob in auto:
            single = exact_paradox_probability(counts, dists, rule, agenda)
            exact = exact_paradox_probability(counts, dists, rule, agenda,
                                              value_mode="rational")
            assert type(prob) is type(single) is kind
            assert prob == pytest.approx(float(exact), rel=1e-15)
            assert single == pytest.approx(float(exact), rel=1e-15)


def test_unknown_value_mode_raises_before_any_budget_charge():
    # a budget of one cell fails any charge, so the ValueError must come first
    calls = [
        lambda: exact_paradox_probability((2, 3), THETA1, MAJ, AND2, value_mode="exactish",
                                          state_budget=1),
        lambda: _exact_assignment_probabilities(THETA1, 5, MAJ, AND2, "exactish", 1),
        lambda: smoothed_extremes(THETA1, 5, MAJ, AND2, value_mode="exactish", state_budget=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'exactish'"):
            call()


def test_extremes_bounds_and_order():
    rng = random.Random(29)
    for _ in range(6):
        agenda, rule, dists = random_instance(rng, members=2)
        n = rng.randint(2, 12)
        extremes = smoothed_extremes(dists, n, rule, agenda, mode="exact")
        assert 0.0 <= extremes.min_probability <= extremes.max_probability <= 1.0


def _golden_members():
    """(one-member set, rule, agenda) for every member of every golden instance."""
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        instance = parse_instance(path)
        for member in instance.distributions.members:
            yield DistributionSet((member,)), instance.rule, instance.agenda


def test_single_member_extremes_collapse():
    # a one-member set has the one assignment (n,): both extremes are its
    # probability, bit for bit in float mode as in rational mode
    for single, rule, agenda in _golden_members():
        for value_mode, ns in (("float", (1, 5, 20, 60)), ("rational", (1, 5, 20))):
            for n in ns:
                extremes = smoothed_extremes(single, n, rule, agenda, value_mode=value_mode)
                expected = exact_paradox_probability((n,), single, rule, agenda,
                                                     value_mode=value_mode)
                assert type(extremes.max_probability) is type(expected)
                assert extremes.max_probability == extremes.min_probability == expected
                assert extremes.max_witness == extremes.min_witness == Assignment((n,))


def test_single_member_auto_extremes_follow_the_extremes_type():
    # auto extremes switch to floats at n = 10 for one member as for two, and
    # equal the one assignment's auto probability
    for single, rule, agenda in _golden_members():
        for n, kind in ((1, Fraction), (9, Fraction), (10, float), (31, float)):
            auto = smoothed_extremes(single, n, rule, agenda, mode="exact")
            expected = exact_paradox_probability((n,), single, rule, agenda)
            assert type(auto.max_probability) is type(auto.min_probability) is kind
            assert type(expected) is kind
            assert auto.max_probability == auto.min_probability == expected


def test_mirror_extremes_vanish_at_odd_n():
    # at odd n every assignment has probability 0, so all n + 1 assignments tie
    # for both extremes and each witness is the lexicographically smallest, (0, n)
    for n in (3, 9, 15):
        for kwargs in ({"mode": "exact"}, {"mode": "exact", "value_mode": "rational"},
                       {"mode": "mc", "trials": 500, "seed": n}):
            extremes = smoothed_extremes(MIRROR_SET, n, MIRROR_RULE, MIRROR, **kwargs)
            assert extremes.max_probability == extremes.min_probability == 0
            assert extremes.max_witness == extremes.min_witness == Assignment((0, n))
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
    "rows, n, exact_range",
    [
        # 51 * 19 = 969 agent-weight bits fit float64's guard, 52 * 19 = 988 do not
        ([[1 - TINY, TINY], ["1/2", "1/2"]], 51, True),
        ([[1 - TINY, TINY], ["1/2", "1/2"]], 52, False),
        # a zero weight adds no term, so it does not count as the smallest weight
        ([[1, 0], [1 - TINY, TINY]], 51, True),
        ([[1, 0], [1 - TINY, TINY]], 52, False),
    ],
)
def test_float_range_guard_boundary(rows, n, exact_range):
    # the guard sets the absolute term A of the bound, not the number type
    gamma, absolute = _error_bound(_dists(*rows), n, 1)
    assert 0 < gamma < 1e-9
    assert (absolute == 0) is exact_range
    assert absolute < 2.0**-990


@pytest.mark.parametrize(
    "name, extra, ns",
    [
        pytest.param("expsmall_instance", (), (10, 12, 14), id="expsmall_instance"),
        pytest.param("theta1_instance", (), (10, 12, 14), id="theta1_instance"),
        # a third member adds a walk level: 66 and 78 assignments
        pytest.param("theta1_instance", EXPSMALL.members[1:], (10, 11), id="theta1_trio"),
        pytest.param("three_majority_instance", (), (10, 12), id="three_majority_instance"),
    ],
)
def test_assignment_tree_error_within_bound(name, extra, ns, request):
    # every assignment of the assignment tree against its exact probability,
    # to within the tree's own forward-error bound
    inst = request.getfixturevalue(name)
    dists = DistributionSet(inst.distributions.members + tuple(extra))
    rule, agenda = inst.rule, inst.agenda
    for n in ns:
        gamma, absolute = map(Fraction, _error_bound(dists, n, agenda.p))
        chain = _exact_assignment_probabilities(
            dists, n, rule, agenda, "auto", DEFAULT_STATE_BUDGET
        )
        assert len(chain) == math.comb(n + dists.size - 1, dists.size - 1)
        for counts, prob in chain:
            exact = exact_paradox_probability(counts, dists, rule, agenda,
                                              value_mode="rational")
            assert abs(Fraction(prob) - exact) <= gamma * exact + absolute, (n, counts, prob, exact)


def test_error_bound_check_rejects_out_of_range():
    def unreachable():
        return [False, False]

    def reachable():
        return [True, True]

    gamma, absolute = bound = _error_bound(EXPSMALL, 14, 2)
    assert 0 < gamma < 1e-11 and absolute == 0
    _check_error_bound(np.array([0.0, 0.5, 1.0, 1.0 + gamma / 2]), bound, reachable)
    for bad in (-1e-300, 1.0 + 2 * gamma, float("nan")):
        with pytest.raises(FloatingPointError):
            _check_error_bound(np.array([0.5, bad]), bound, reachable)
    # past the guard: a positive value within 2^52 * A of 0, or a 0.0 whose
    # paradox outcomes a bool run reaches, may be a lost positive probability
    bound = _error_bound(_dists([1 - TINY, TINY], ["1/2", "1/2"]), 60, 1)
    floor = 2.0**52 * bound[1]
    assert 0 < floor < 1e-290
    _check_error_bound(np.array([0.5, floor]), bound, reachable)
    _check_error_bound(np.array([0.5, 0.0]), bound, unreachable)
    for bad, reaches in ((floor / 2, unreachable), (0.0, reachable)):
        with pytest.raises(FloatingPointError):
            _check_error_bound(np.array([0.5, bad]), bound, reaches)


def _witness_population():
    """80 float extremes: p from {1, 2, 2, 3}, 2 or 3 members, n 20..60 (10..25 at p = 3)."""
    rng = random.Random(5)
    for _ in range(80):
        p = rng.choice([1, 2, 2, 3])
        ell = rng.choice([2, 3])
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        dists = random_positive_members(rng, 1 << p, ell)
        n = rng.randint(10, 25) if p == 3 else rng.randint(20, 60)
        yield dists, n, rule, agenda


WITNESS_CASES = list(_witness_population())
# float64 alone names another witness in cases 0, 1 and 22: in case 0, 21
# minima are exactly tied; in case 1 all 40 assignments are exactly 1, and
# float reads 1.0000000000000009 at (34, 5); in case 22 the exact max is unique
# at (31, 0), but float reads 1.0 from (19, 12) on. Cases 30 and 69 have 9 and
# 20 candidates, of which float64 happens to name the exact witness.
DECIDED_WITNESSES = {0: ((20, 0, 0), (0, 0, 20)), 1: ((0, 39), (0, 39)), 22: ((31, 0), (0, 31))}


@pytest.mark.parametrize("case", [*range(12), 22, 30, 69])
def test_float_witnesses_are_the_rational_ones(case):
    dists, n, rule, agenda = WITNESS_CASES[case]
    fast = smoothed_extremes(dists, n, rule, agenda, value_mode="float")
    slow = smoothed_extremes(dists, n, rule, agenda, value_mode="rational")
    assert (fast.max_witness, fast.min_witness) == (slow.max_witness, slow.min_witness)
    if case in DECIDED_WITNESSES:
        assert (fast.max_witness.counts, fast.min_witness.counts) == DECIDED_WITNESSES[case]
    if case == 1:  # decided sides report the float of the exact value
        assert fast.max_probability == fast.min_probability == 1.0


def test_tiny_weight_runs_float64_and_matches_rational():
    # 20 * 60 agent-weight bits exceed float64's guard, so the bound carries
    # an absolute term; the extremes still sit far inside float64 (the
    # minimum is about C(20, 10) * 2^-600)
    tiny = Fraction(1, 2**60)
    dists = _dists([1 - tiny, tiny], ["3/10", "7/10"])
    assert _error_bound(dists, 20, MIRROR.p)[1] > 0
    fast = smoothed_extremes(dists, 20, MIRROR_RULE, MIRROR, mode="exact")
    slow = smoothed_extremes(dists, 20, MIRROR_RULE, MIRROR, mode="exact",
                             value_mode="rational")
    assert slow.min_probability > 0
    assert fast.min_probability == pytest.approx(float(slow.min_probability), rel=1e-12)
    assert fast.max_probability == pytest.approx(float(slow.max_probability), rel=1e-12)
    assert fast.min_witness == slow.min_witness
    assert fast.max_witness == slow.max_witness


def test_float_weights_of_fractions_beyond_float64_range():
    # numerator and denominator above 2^1024 do not fit a float64 each, but
    # the weight, rounded once from the exact fraction, does
    half = Fraction(2**1100 + 1, 2**1101)
    dists = _dists([half, 1 - half], ["3/10", "7/10"])
    fast = smoothed_extremes(dists, 12, MIRROR_RULE, MIRROR, value_mode="float")
    slow = smoothed_extremes(dists, 12, MIRROR_RULE, MIRROR, value_mode="rational")
    assert fast.max_probability == pytest.approx(float(slow.max_probability), rel=1e-12)
    assert fast.min_probability == pytest.approx(float(slow.min_probability), rel=1e-12)
    assert (fast.max_witness, fast.min_witness) == (slow.max_witness, slow.min_witness)


def test_probabilities_below_float64_raise():
    # (7, 1) and (8, 0) are positive but below 2^-1074, so float64 loses
    # them; the other assignments, down to about 8e-277, are within
    # gamma_N * P + A of the exact value
    tiny = Fraction(1, 2**460)
    dists = _dists([1 - tiny, tiny], ["3/10", "7/10"])
    n = 8
    gamma, absolute = map(Fraction, _error_bound(dists, n, MIRROR.p))
    assert absolute > 0
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
            assert abs(Fraction(prob) - exact) <= gamma * exact + absolute, (counts, prob, exact)
    with pytest.raises(FloatingPointError):
        _exact_assignment_probabilities(dists, n, MIRROR_RULE, MIRROR, "float",
                                        DEFAULT_STATE_BUDGET)


@pytest.mark.parametrize("n", [9, 21])
def test_true_zeros_past_the_guard_come_back_zero(n):
    # at odd n the mirror rule has no tie, so every probability is exactly 0;
    # past the guard a 0.0 is returned only once a bool run of the same chain
    # finds no paradox outcome reachable
    tiny = Fraction(1, 2**460)
    for rows in (([1 - tiny, tiny], ["3/10", "7/10"]), ([1, 0], [1 - tiny, tiny])):
        dists = _dists(*rows)
        assert _error_bound(dists, n, MIRROR.p)[1] > 0
        for k in (0, 1, n):
            prob = exact_paradox_probability((k, n - k), dists, MIRROR_RULE, MIRROR,
                                             value_mode="float")
            assert prob == 0.0 and type(prob) is float
        extremes = smoothed_extremes(dists, n, MIRROR_RULE, MIRROR, value_mode="float")
        assert extremes.max_probability == extremes.min_probability == 0.0
        assert extremes.max_witness == extremes.min_witness == Assignment((0, n))


def test_zero_weight_member_is_a_true_zero_past_the_guard():
    # at even n a tie on the mirror rule is a paradox; member (1, 0) puts no
    # agent on the second judgement, so (n, 0) is exactly 0 and the bool run
    # on its nonzero-weight masks reaches no paradox outcome, while (0, n),
    # about C(n, n/2) * 2^-2300, underflows float64 and raises
    tiny = Fraction(1, 2**460)
    dists = _dists([1, 0], [1 - tiny, tiny])
    n = 10
    assert exact_paradox_probability((n, 0), dists, MIRROR_RULE, MIRROR,
                                     value_mode="float") == 0.0
    assert exact_paradox_probability((0, n), dists, MIRROR_RULE, MIRROR,
                                     value_mode="rational") > 0
    with pytest.raises(FloatingPointError):
        exact_paradox_probability((0, n), dists, MIRROR_RULE, MIRROR, value_mode="float")
    with pytest.raises(FloatingPointError):
        smoothed_extremes(dists, n, MIRROR_RULE, MIRROR, value_mode="float")
    # at n = 52, past the guard for 2^-19, a tie needs 26 agents of the second
    # member: (k, 52 - k) is exactly 0 for k > 26, and about 2^-494 * C(52 - k, 26)
    # otherwise, so the tree's bool run must read the masks to keep its 0.0s
    dists = _dists([1, 0], [1 - TINY, TINY])
    fast = smoothed_extremes(dists, 52, MIRROR_RULE, MIRROR, value_mode="float")
    slow = smoothed_extremes(dists, 52, MIRROR_RULE, MIRROR, value_mode="rational")
    assert fast.min_probability == slow.min_probability == 0
    assert fast.min_witness == slow.min_witness == Assignment((27, 25))
    assert fast.max_probability == pytest.approx(float(slow.max_probability), rel=1e-12)
    assert fast.max_witness == slow.max_witness


def test_monte_carlo_reproducible_and_calibrated():
    exact = exact_paradox_probability((2, 0), THETA1, MAJ, AND2, value_mode="rational")
    est1, se1 = monte_carlo_estimate((2, 0), THETA1, MAJ, AND2, trials=50_000, seed=123)
    est2, se2 = monte_carlo_estimate((2, 0), THETA1, MAJ, AND2, trials=50_000, seed=123)
    assert (est1, se1) == (est2, se2)
    assert abs(est1 - float(exact)) <= 3 * se1
    other, _ = monte_carlo_estimate((2, 0), THETA1, MAJ, AND2, trials=50_000, seed=124)
    assert other != est1


def test_monte_carlo_threshold_denominator_beyond_int64():
    # support * 10^18 overflows int64 at n = 10; verdicts must stay exact
    rule = QuotaRule.of(["1/2", "1/2", Fraction(5 * 10**17 + 1, 10**18)], [1, 1, 0])
    single = _dists(["1/100", "1/100", "1/100", "97/100"])
    exact = float(exact_paradox_probability((10,), single, rule, AND2, value_mode="rational"))
    trials = 20_000
    est, _ = monte_carlo_estimate((10,), single, rule, AND2, trials=trials, seed=0)
    assert abs(est - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_assignment_length_matches_the_set():
    # one count per member, or DimensionError: zip would drop a third count
    # or a second member silently
    for counts in ((1, 1, 1), (3,)):
        with pytest.raises(DimensionError):
            monte_carlo_estimate(counts, THETA1, MAJ, AND2, trials=100)
        with pytest.raises(DimensionError):
            exact_paradox_probability(counts, THETA1, MAJ, AND2)
        with pytest.raises(DimensionError):
            histogram_distribution(counts, THETA1)


def test_monte_carlo_assignments_share_one_total():
    # n is the total of every assignment, so two totals have no n
    with pytest.raises(ValueError):
        monte_carlo_estimate([(2, 0), (2, 1)], THETA1, MAJ, AND2, trials=10)


def test_monte_carlo_reads_a_list_of_assignments_as_a_list():
    # Assignment objects and count vectors give the same two arrays; a ragged
    # list is refused at the count vector that does not fit the set
    counts = [(2, 1), (0, 3), (3, 0)]
    as_tuples = monte_carlo_estimate(counts, THETA1, MAJ, AND2, trials=2000, seed=7)
    as_objects = monte_carlo_estimate([Assignment(c) for c in counts], THETA1, MAJ, AND2,
                                      trials=2000, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(as_tuples, as_objects))
    assert len(as_objects[0]) == len(counts)
    with pytest.raises(DimensionError):
        monte_carlo_estimate([(1, 2), (3,)], THETA1, MAJ, AND2, trials=100)


def test_monte_carlo_degenerate_point_mass():
    # a deterministic vote distribution is fine for sampling even though it
    # is outside the strictly-positive regime the condition checks need
    degenerate = DistributionSet((FractionalVote.point((1, 1)),))
    est, se = monte_carlo_estimate((5,), degenerate, MAJ, AND2, trials=1000, seed=1)
    assert est == 0.0 and se == math.sqrt(999 / 1000**2 / 1000)
    est1, _ = monte_carlo_estimate((5,), degenerate, MAJ, AND2, trials=1, seed=9)
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


TRIO = _dists(["1/4"] * 4, ["1/25", "8/25", "8/25", "8/25"], ["1/10", "1/10", "1/10", "7/10"])


@pytest.mark.parametrize("dists, n, rule, agenda", [
    (TRIO, 5, MAJ, AND2),
    (MIRROR_SET, 5, MIRROR_RULE, MIRROR),
    (MIRROR_SET, 6, MIRROR_RULE, MIRROR),
])
def test_mc_extremes_equal_the_single_assignment_estimate(dists, n, rule, agenda):
    # all assignments share each member's draws, and member k's first c
    # agents do not depend on how many it draws, so one assignment's
    # estimate is the extremes' estimate of it, bit for bit
    for seed in (0, 1, 2):
        extremes = smoothed_extremes(dists, n, rule, agenda, mode="mc", trials=3000, seed=seed)
        for side in ("max", "min"):
            witness = getattr(extremes, f"{side}_witness")
            alone = monte_carlo_estimate(witness, dists, rule, agenda, trials=3000, seed=seed)
            assert alone == (getattr(extremes, f"{side}_probability"),
                             getattr(extremes, f"{side}_stderr"))


def test_mc_never_draws_a_zero_weight():
    # judgement 1 (premise 2 only) has weight 0 between positive weights; at
    # odd n a premise-2 majority without a conclusion majority needs it, so
    # every assignment's probability is 0 and so must every estimate be
    zero_between = _dists(["1/3", "0", "1/3", "1/3"], ["1/10", "0", "1/10", "4/5"])
    positive = _dists(["3/10", "1/10", "3/10", "3/10"], ["1/10", "1/10", "1/10", "7/10"])
    for n in (3, 5, 7):
        assert exact_paradox_probability((n, 0), positive, MAJ, AND2) > 0
        for counts in compositions(n, 2):
            assert exact_paradox_probability(counts, zero_between, MAJ, AND2) == 0
            assert monte_carlo_estimate(counts, zero_between, MAJ, AND2,
                                        trials=5000, seed=n)[0] == 0.0
        extremes = smoothed_extremes(zero_between, n, MAJ, AND2, mode="mc", trials=5000, seed=n)
        assert extremes.max_probability == 0.0


def test_mc_never_draws_a_zero_weight_at_either_end():
    # a zero first weight makes the first cumulative edge 0.0 and a zero last
    # weight makes the last edge 1.0; the second member never draws (1, 1),
    # so at odd n the assignment (0, n) has no paradox and estimates 0.0
    zero_ends = _dists(["0", "1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2", "0"])
    for n in (3, 5):
        assert exact_paradox_probability((0, n), zero_ends, MAJ, AND2) == 0
        counts_list = list(compositions(n, 2))
        estimates, _ = monte_carlo_estimate(counts_list, zero_ends, MAJ, AND2, 5000, n)
        for counts, estimate in zip(counts_list, estimates):
            if exact_paradox_probability(counts, zero_ends, MAJ, AND2) == 0:
                assert estimate == 0.0, counts
            else:
                assert estimate > 0.0, counts


def test_mc_standard_error_when_no_trial_or_every_trial_is_a_paradox():
    # at odd n no mirror-set trial is a paradox, and with a never-reached
    # conclusion threshold every trial of (1, 1) point masses is one: the
    # Wald error would read 0.0, the error of a single hit does not
    trials = 500
    one_hit = math.sqrt((trials - 1) / trials**2 / trials)
    for n in (3, 9):
        extremes = smoothed_extremes(MIRROR_SET, n, MIRROR_RULE, MIRROR, mode="mc",
                                     trials=trials, seed=n)
        assert extremes.max_probability == extremes.min_probability == 0.0
        assert extremes.max_stderr == extremes.min_stderr == one_hit > 0
    never = QuotaRule.of(["1/2", "1/2", 1], [1, 1, 0])
    point = DistributionSet((FractionalVote.point((1, 1)),))
    assert monte_carlo_estimate((5,), point, never, AND2, trials, seed=2) == (1.0, one_hit)


def test_mc_every_assignment_within_four_standard_errors():
    # every assignment estimated from one shared draw, as the extremes do,
    # stays unbiased with its own Wald error; the allowance is the error the
    # exact probability implies, so a zero probability must estimate 0.0
    n, trials = 5, 20_000
    counts_list = list(compositions(n, TRIO.size))
    estimates, stderrs = monte_carlo_estimate(counts_list, TRIO, MAJ, AND2, trials, 11)
    for counts, estimate, stderr in zip(counts_list, estimates, stderrs):
        exact = exact_paradox_probability(counts, TRIO, MAJ, AND2, value_mode="rational")
        assert stderr == math.sqrt(estimate * (1 - estimate) / trials)
        se = math.sqrt(float(exact * (1 - exact)) / trials)
        assert abs(estimate - float(exact)) <= 4 * se, (counts, estimate, exact)


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
    # a non-integral count is refused, not truncated to (1, 2)
    with pytest.raises(TypeError):
        Assignment((1.9, 2.9))
    with pytest.raises(TypeError):
        exact_paradox_probability((1.9, 2.9), THETA1, MAJ, AND2)


def test_compositions_cover_and_order():
    combos = list(compositions(3, 2))
    assert combos == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(5, 3))) == math.comb(7, 2)
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(4, 1)) == [(4,)]


@pytest.mark.parametrize("n, parts", [(3, 0), (3, -1), (-2, 1), (-1, 3)])
def test_compositions_reject_bad_arguments(n, parts):
    # no parts used to recurse without end; a negative total used to be yielded
    with pytest.raises(ValueError):
        list(compositions(n, parts))


def test_resource_budgets_raise():
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(THETA1, 30, MAJ, AND2, mode="exact", assignment_budget=10)
    with pytest.raises(ResourceBudgetError):
        exact_paradox_probability((40, 0), THETA1, MAJ, AND2,
                                  value_mode="float", state_budget=100)
    # the rational engine is charged the largest count window, not the 20
    # histograms of three agents over four judgements: at n=3 every
    # proposition of MAJ accepts from a = 2 votes, so after k votes each axis
    # covers [max(0, k - 2), min(k, 2)], 1, 2, 3 and 2 counts, and the
    # largest grid has 3^3 = 27 cells
    with pytest.raises(ResourceBudgetError):
        exact_paradox_probability((3, 0), THETA1, MAJ, AND2,
                                  value_mode="rational", state_budget=26)
    assert exact_paradox_probability((3, 0), THETA1, MAJ, AND2,
                                     value_mode="rational", state_budget=27) == (
        brute_force_paradox_probability((3, 0), THETA1, MAJ, AND2)
    )
    # at n=10 the acceptance counts are (5, 5, 6), and after k votes axis i
    # covers [max(0, a_i + k - 11), min(k, a_i)]: (k+1)^3 cells for k <= 5,
    # 6^3 for k = 6 and (12 - k)^3 for k = 7..10. The assignment tree stores
    # the last member's absorption grid W_r on the window of 10 - r votes,
    # for r = 0..10, and two members hold no walk grid:
    # (1 + 8 + 27 + 64 + 125 + 216) + 216 + (125 + 64 + 27 + 8) = 881 entries
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(THETA1, 10, MAJ, AND2, mode="exact", state_budget=880)
    assert smoothed_extremes(THETA1, 10, MAJ, AND2, mode="exact", state_budget=881) == (
        smoothed_extremes(THETA1, 10, MAJ, AND2, mode="exact")
    )
    # the rational chain on integer numerators is charged the same entries
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(THETA1, 10, MAJ, AND2, value_mode="rational", state_budget=880)
    assert smoothed_extremes(THETA1, 10, MAJ, AND2, value_mode="rational",
                             state_budget=881) == (
        smoothed_extremes(THETA1, 10, MAJ, AND2, value_mode="rational")
    )
    # one member reads only W_n and keeps one absorption grid at a time: it
    # is charged the largest window, 6^3 = 216 cells after 5 or 6 votes, as
    # the convolution of its one assignment (10,) is
    single = DistributionSet(THETA1.members[:1])
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(single, 10, MAJ, AND2, state_budget=215)
    with pytest.raises(ResourceBudgetError):
        exact_paradox_probability((10,), single, MAJ, AND2, state_budget=215)
    assert smoothed_extremes(single, 10, MAJ, AND2, state_budget=216) == (
        smoothed_extremes(single, 10, MAJ, AND2)
    )


def test_chain_budget_charges_every_axis(three_majority_instance):
    # CAPPED_RULE's acceptance counts differ by axis, (4, 3, 3, 2) at n=8,
    # and after k votes axis i covers [max(0, a_i + k - 9), min(k, a_i)]. The
    # windows of k = 0..8 votes have sides 1^4, 2^4, 3^4, (4, 4, 4, 3),
    # (5, 4, 4, 3) twice, (4, 4, 4, 3), 3^4 and 2^4, so the stored absorption
    # grids W_0..W_8 hold 1 + 16 + 81 + 192 + 240 + 240 + 192 + 81 + 16 = 1059
    # entries. Three members hold one walk grid of at most 240 cells above
    # the current one, for 1059 + 240 = 1299
    agenda = three_majority_instance.agenda
    trio = random_positive_members(random.Random(5), agenda.m, 3)
    with pytest.raises(ResourceBudgetError):
        smoothed_extremes(trio, 8, CAPPED_RULE, agenda, state_budget=1298)
    assert smoothed_extremes(trio, 8, CAPPED_RULE, agenda, state_budget=1299) == (
        smoothed_extremes(trio, 8, CAPPED_RULE, agenda)
    )
