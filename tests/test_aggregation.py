import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from paradox_lab import (
    Agenda,
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
    proposition_weight,
)
from paradox_lab.aggregation import acceptance_count, count_verdict, outcome_window

AND2 = Agenda.conjunction(2)
MAJ = QuotaRule.majority(3, (1, 1, 0))
TABLE_HIST = Histogram((Fraction(0), Fraction(1), Fraction(3, 2), Fraction(1, 2)))


def test_proposition_weights_match_table():
    assert proposition_weight(TABLE_HIST, 1, AND2) == 2
    assert proposition_weight(TABLE_HIST, 2, AND2) == Fraction(3, 2)
    assert proposition_weight(TABLE_HIST, 3, AND2) == Fraction(1, 2)


def test_proposition_weight_zero_support():
    h = Histogram((Fraction(3), Fraction(0), Fraction(0), Fraction(0)))
    assert proposition_weight(h, 1, AND2) == 0
    assert proposition_weight(h, 2, AND2) == 0


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


def test_is_consistent():
    assert not is_consistent((1, 1, 0), AND2)
    assert is_consistent((1, 0, 0), AND2)
    assert is_consistent((0, 0, 0), AND2)
    assert is_consistent((1, 1, 1), AND2)


def test_inconsistent_outcomes_count():
    assert len(inconsistent_outcomes(AND2)) == 4
    assert (1, 1, 0) in inconsistent_outcomes(AND2)


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


def test_verdict_monotone_in_support():
    rng = random.Random(11)
    for _ in range(200):
        den = rng.randint(1, 6)
        q = Fraction(rng.randint(0, den), den)
        d = rng.randint(0, 1)
        n = rng.randint(1, 9)
        verdicts = [count_verdict(Fraction(c), Fraction(n), q, d) for c in range(n + 1)]
        assert all(a <= b for a, b in zip(verdicts, verdicts[1:]))


def test_count_verdict_agrees_with_acceptance_count():
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
                assert (c >= accept) == count_verdict(Fraction(c), Fraction(n), q, d)


def test_outcome_window_empty_ranges():
    n = 4
    # q = 1 with d = 0 accepts no count, q = 0 with d = 1 rejects none
    edge = QuotaRule.of([1, 0], [0, 1])
    assert outcome_window((1, 0), edge, n) is None
    assert outcome_window((0, 0), edge, n) is None
    assert outcome_window((0, 1), edge, n) == (slice(0, n + 1), slice(0, n + 1))


def test_independence_of_other_coordinates():
    # moving weight between judgements outside a proposition's support set
    # never changes that proposition's verdict
    h1 = Histogram((Fraction(2), Fraction(1), Fraction(2), Fraction(1)))
    h2 = Histogram((Fraction(3), Fraction(0), Fraction(2), Fraction(1)))
    assert proposition_weight(h1, 1, AND2) == proposition_weight(h2, 1, AND2)
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
