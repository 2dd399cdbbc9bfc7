"""Negating a proposition changes no answer: an oracle at every n.

conftest's :func:`negated` maps an instance onto one whose verdict on
proposition i flips for every histogram, so every assignment's probability,
every κ flag and the classification stay the same. Negation mirrors the
count window of axis i, so the two-sided windows' top and bottom folds are
checked against each other at sizes no brute force reaches.
"""

import random

import pytest

from paradox_lab import Agenda, classify, smoothed_extremes
from paradox_lab.likelihood import _error_bound
from conftest import negated, random_positive_members, random_rule


def _population(seed: int, size: int):
    """(i, agenda, rule, dists, small n, large n): p <= 3, 1-3 members, i a random proposition."""
    rng = random.Random(seed)
    for _ in range(size):
        p = rng.randint(1, 3)
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        dists = random_positive_members(rng, agenda.m, rng.randint(1, 3))
        large = rng.randint(20, 30) if p == 3 else rng.randint(30, 60)
        yield rng.randint(0, p), agenda, rule, dists, rng.randint(1, 9), large


CASES = list(_population(10, 40))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_negation_keeps_extremes_and_classification(case):
    i, agenda, rule, dists, small, large = CASES[case]
    agenda2, rule2, dists2 = negated(i, agenda, rule, dists)
    for n, value_mode in ((small, "rational"), (large, "float")):
        ours = smoothed_extremes(dists, n, rule, agenda, value_mode=value_mode)
        theirs = smoothed_extremes(dists2, n, rule2, agenda2, value_mode=value_mode)
        assert (ours.max_witness, ours.min_witness) == (theirs.max_witness, theirs.min_witness)
        values = ((ours.max_probability, theirs.max_probability),
                  (ours.min_probability, theirs.min_probability))
        if value_mode == "rational":
            assert all(a == b for a, b in values), (n, values)
        else:  # each side is within gamma_N * P + A of the same P
            gamma, absolute = _error_bound(dists, n, agenda.p)
            for a, b in values:
                top = (max(a, b) + absolute) / (1 - gamma)
                assert abs(a - b) <= 2 * (gamma * top + absolute), (n, a, b)
        assert classify(dists, rule, agenda, n) == classify(dists2, rule2, agenda2, n)


@pytest.mark.parametrize("case", range(0, len(CASES), 3))
def test_conclusion_negation_keeps_monte_carlo_extremes_bit_for_bit(case):
    # the judgement order stays, so the same agents are drawn and every
    # verdict flips in pairs
    _, agenda, rule, dists, _, large = CASES[case]
    n = min(large, 60)
    agenda2, rule2, dists2 = negated(agenda.p, agenda, rule, dists)
    ours = smoothed_extremes(dists, n, rule, agenda, mode="mc", trials=3000, seed=case)
    theirs = smoothed_extremes(dists2, n, rule2, agenda2, mode="mc", trials=3000, seed=case)
    assert ours == theirs
