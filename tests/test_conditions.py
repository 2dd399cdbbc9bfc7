import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from paradox_lab import (
    Agenda,
    DistributionSet,
    FractionalVote,
    QuotaRule,
    check_kappa1,
    check_kappa2,
    check_kappa3,
    check_kappa4,
    effective_refinements,
    feasible_sign_pattern,
    kappa_conditions,
    outcome_feasible,
    parse_instance,
    reachable_counts,
    refinements,
    sign_pattern_of,
    sign_pattern_witness,
)
from paradox_lab import conditions
from paradox_lab.errors import ResourceBudgetError
from paradox_lab.aggregation import acceptance_count, proposition_patterns
from conftest import (
    CAPPED_RULE,
    INSTANCE_DIR,
    brute_force_outcomes,
    enumerate_histograms,
    random_instance,
    random_positive_members,
    random_rule,
)

AND2 = Agenda.conjunction(2)
MAJ = QuotaRule.majority(3, (1, 1, 0))
MIRROR = Agenda(1, (0, 1))
MIRROR_RULE = QuotaRule.majority(2, (1, 0))

PI_EXAMPLE = FractionalVote.of(["3/10", "1/5", "0", "1/2"])


def _dists(*rows) -> DistributionSet:
    return DistributionSet(tuple(FractionalVote.of(row) for row in rows))


THETA1 = _dists(["1/4"] * 4, ["1/25", "8/25", "8/25", "8/25"])
EXPSMALL = _dists(["3/25", "3/25", "3/25", "16/25"], ["1/10", "1/10", "1/10", "7/10"])
MIRROR_SET = _dists(["9/10", "1/10"], ["3/10", "7/10"])


def test_refinements_worked_example():
    assert refinements(PI_EXAMPLE, MAJ, AND2) == frozenset(
        {(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)}
    )


def test_refinements_untied_singleton():
    pi = FractionalVote.of(["1/10", "1/10", "1/10", "7/10"])
    assert refinements(pi, MAJ, AND2) == frozenset({(1, 1, 1)})


def test_refinements_uniform_premise_ties():
    # uniform ties both premises (support 1/2 each) while the conclusion's
    # support is 1/4 < 1/2, so its entry is forced to 0
    assert refinements(FractionalVote.uniform(2), MAJ, AND2) == frozenset(
        {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}
    )


def test_refinements_all_tied_needs_matching_thresholds():
    rule = QuotaRule.of(["1/2", "1/2", "1/4"], (1, 1, 0))
    assert len(refinements(FractionalVote.uniform(2), rule, AND2)) == 8


def test_effective_refinements_worked_example():
    for n in (3, 4, 6):
        assert effective_refinements(PI_EXAMPLE, MAJ, AND2, n) == frozenset(
            {(0, 1, 0), (1, 1, 0), (1, 1, 1)}
        )


def test_effective_subset_of_refinements():
    rng = random.Random(9)
    for _ in range(25):
        agenda, rule, dists = random_instance(rng)
        pi = dists.members[0]
        n = rng.randint(1, 6)
        assert effective_refinements(pi, rule, agenda, n) <= refinements(pi, rule, agenda)


def test_outcome_feasible_examples():
    assert outcome_feasible((1, 1, 1), 3, MAJ, AND2)
    assert not outcome_feasible((0, 1, 1), 3, MAJ, AND2)
    for n in range(1, 7):
        assert not outcome_feasible((0, 1, 1), n, MAJ, AND2)
    assert outcome_feasible((1, 1, 0), 2, MAJ, AND2)


def test_outcome_feasible_matches_enumeration():
    rng = random.Random(17)
    cases = [random_instance(rng)[:2] + (rng.randint(1, 5),) for _ in range(12)]
    # thresholds 0 and 1 under both breakings give acceptance counts 0, 1, n
    # and n + 1, so the grid's caps run from 0 to a full axis
    edges = list(product((0, 1), repeat=2))
    for p, n in ((1, 8), (2, 7), (3, 6)):
        for q, d in edges:
            agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
            rule = random_rule(rng, p + 1)
            thresholds, breakings = list(rule.thresholds), list(rule.breakings)
            i = rng.randrange(p + 1)
            thresholds[i], breakings[i] = Fraction(q), d
            cases.append((agenda, QuotaRule(tuple(thresholds), tuple(breakings)), n))
    # p = 3 at n = 8: one random rule, and the four edges on the four propositions
    majority3 = Agenda(3, (0, 0, 0, 1, 0, 1, 1, 1))
    cases.append((majority3, random_rule(rng, 4), 8))
    rng.shuffle(edges)
    cases.append((majority3, QuotaRule(tuple(Fraction(q) for q, _ in edges),
                                       tuple(d for _, d in edges)), 8))
    for agenda, rule, n in cases:
        achieved = brute_force_outcomes(n, rule, agenda)
        for alpha in product((0, 1), repeat=agenda.p + 1):
            assert outcome_feasible(alpha, n, rule, agenda) == (alpha in achieved)


def test_kappa1_examples():
    assert check_kappa1(1, MAJ, AND2)
    for n in (2, 3, 10, 51):
        assert not check_kappa1(n, MAJ, AND2)
    for n in range(1, 13):
        assert check_kappa1(n, MIRROR_RULE, MIRROR) == (n % 2 == 1)


def test_sign_pattern_of_members():
    assert sign_pattern_of(FractionalVote.uniform(2), MAJ, AND2) == (0, 0, -1)
    assert sign_pattern_of(
        FractionalVote.of(["1/25", "8/25", "8/25", "8/25"]), MAJ, AND2
    ) == (1, 1, -1)


def test_feasible_sign_pattern_with_ties():
    # the uniform member realizes the premise-tied pattern by itself
    assert feasible_sign_pattern((0, 0, -1), THETA1, MAJ, AND2)
    witness = sign_pattern_witness((0, 0, -1), THETA1, MAJ, AND2)
    assert witness is not None
    assert sign_pattern_of(witness, MAJ, AND2) == (0, 0, -1)
    # no mixture ties the conclusion: its support stays in [1/4, 8/25]
    assert not feasible_sign_pattern((0, 0, 0), THETA1, MAJ, AND2)


def test_feasible_sign_pattern_rejects_unreachable():
    # every mixture of the exponential pair verdicts (1,1,1) with no ties
    for beta in product((1, 0, -1), repeat=3):
        expected = beta == (1, 1, 1)
        assert feasible_sign_pattern(beta, EXPSMALL, MAJ, AND2) == expected


def test_singleton_set_has_unique_pattern():
    single = DistributionSet((FractionalVote.of(["1/10", "1/10", "1/10", "7/10"]),))
    feasible = [
        beta
        for beta in product((1, 0, -1), repeat=3)
        if feasible_sign_pattern(beta, single, MAJ, AND2)
    ]
    assert feasible == [(1, 1, 1)]


def test_lp_agrees_with_hull_grid_search():
    # every pattern seen on a 1/64 grid over the hull must be LP-feasible,
    # and every LP-feasible pattern must come with a verifying witness
    rng = random.Random(31)
    for _ in range(8):
        agenda, rule, dists = random_instance(rng, members=2)
        seen = set()
        first, second = dists.members
        for step in range(65):
            a = Fraction(step, 64)
            mix = FractionalVote(
                tuple(
                    a * w1 + (1 - a) * w2
                    for w1, w2 in zip(first.weights, second.weights)
                )
            )
            seen.add(sign_pattern_of(mix, rule, agenda))
        for beta in product((1, 0, -1), repeat=agenda.p + 1):
            witness = sign_pattern_witness(beta, dists, rule, agenda)
            if beta in seen:
                assert witness is not None
            if witness is not None:
                assert sign_pattern_of(witness, rule, agenda) == beta


def test_lp_three_member_hull():
    # three member weights in the LP: patterns seen on a simplex grid over
    # the hull must be feasible, and witnesses must verify
    rng = random.Random(57)
    for _ in range(4):
        agenda, rule, dists = random_instance(rng, members=3)
        a, b, c = dists.members
        seen = set()
        steps = 12
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                k = steps - i - j
                mix = FractionalVote(
                    tuple(
                        (Fraction(i) * wa + Fraction(j) * wb + Fraction(k) * wc)
                        / steps
                        for wa, wb, wc in zip(a.weights, b.weights, c.weights)
                    )
                )
                seen.add(sign_pattern_of(mix, rule, agenda))
        for beta in product((1, 0, -1), repeat=agenda.p + 1):
            witness = sign_pattern_witness(beta, dists, rule, agenda)
            if beta in seen:
                assert witness is not None
            if witness is not None:
                assert sign_pattern_of(witness, rule, agenda) == beta


def test_simplex_answers_verify_on_random_sets():
    # every pattern of p <= 3 sets with 2-10 strictly positive members gets
    # either a feasible point that reproduces the pattern or a Farkas vector
    # of the integer system
    rng = random.Random(61)
    feasible = infeasible = 0
    for p, big in ((1, False), (2, False), (2, False), (3, False), (3, False),
                   (3, False), (2, True), (3, True)):
        for members in (2, 5, 10):
            m = 1 << p
            agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(m)))
            rule = random_rule(rng, p + 1)
            dists = random_positive_members(rng, m, members)
            if big:
                # denominators above 2^64, so the pivots divide big ints
                dens = [2**64 + rng.randint(1, 2**40) for _ in range(p + 1)]
                rule = QuotaRule(tuple(Fraction(rng.randint(1, den - 1), den)
                                       for den in dens), rule.breakings)
            gaps = conditions._member_gaps(dists, rule, agenda)
            for beta in product((1, 0, -1), repeat=p + 1):
                A, b = conditions._pattern_system(beta, gaps)
                x, farkas = conditions._phase_one(A, b)
                witness = sign_pattern_witness(beta, dists, rule, agenda)
                if x is None:
                    infeasible += 1
                    assert witness is None
                    assert sum(pi * bi for pi, bi in zip(farkas, b)) > 0
                    for column in zip(*A):
                        assert sum(pi * a for pi, a in zip(farkas, column)) <= 0
                else:
                    feasible += 1
                    assert min(x) >= 0
                    assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
                    assert sign_pattern_of(witness, rule, agenda) == beta
    assert feasible and infeasible


def test_kappa_on_ten_member_three_premise_sets():
    # random 10-member sets whose sign-pattern LPs ran for minutes under
    # Fourier-Motzkin elimination
    path = "tests/instances/three_premise_majority.json"
    inst = parse_instance(INSTANCE_DIR / "three_premise_majority.json")
    for s in (1, 2, 3):
        dists = random_positive_members(random.Random(f"{path}:10:{s}"), inst.agenda.m, 10)
        assert kappa_conditions(dists, inst.rule, inst.agenda, 20) == (
            False, False, True, False,
        )


def _caps(rule: QuotaRule, n: int) -> tuple[int, ...]:
    return tuple(min(acceptance_count(q, d, n), n)
                 for q, d in zip(rule.thresholds, rule.breakings))


def test_reachable_counts_match_histogram_enumeration():
    # the capped grid is the image of every histogram's counts under min(s_i, c_i)
    rng = random.Random(73)
    for p in (1, 2, 3):
        for _ in range(3):
            agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
            patterns = proposition_patterns(agenda)
            for n in range(1, 9):
                rule = random_rule(rng, p + 1)
                caps = _caps(rule, n)
                expected = np.zeros(tuple(c + 1 for c in caps), dtype=bool)
                for hist in enumerate_histograms(n, agenda.m):
                    counts = tuple(
                        min(sum(h * pat[i] for h, pat in zip(hist, patterns)), caps[i])
                        for i in range(p + 1)
                    )
                    expected[counts] = True
                assert np.array_equal(reachable_counts(n, rule, agenda), expected)


def test_reachable_counts_budget_boundary(monkeypatch):
    # caps (4, 3, 3, 2) at n = 8: 5 * 4 * 4 * 3 = 240 cells
    monkeypatch.setattr(conditions, "_reach_cache", {})
    agenda = Agenda.conjunction(3)
    assert _caps(CAPPED_RULE, 8) == (4, 3, 3, 2)
    with pytest.raises(ResourceBudgetError):
        reachable_counts(8, CAPPED_RULE, agenda, state_budget=240 - 1)
    assert reachable_counts(8, CAPPED_RULE, agenda, state_budget=240).shape == (5, 4, 4, 3)


def test_reachable_counts_charges_budget_before_cache(monkeypatch):
    # a grid built under a large enough budget is not handed out under a smaller one
    monkeypatch.setattr(conditions, "_reach_cache", {})
    agenda = Agenda.conjunction(3)
    assert reachable_counts(8, CAPPED_RULE, agenda, state_budget=240).shape == (5, 4, 4, 3)
    with pytest.raises(ResourceBudgetError):
        reachable_counts(8, CAPPED_RULE, agenda, state_budget=240 - 1)
    assert len(conditions._reach_cache) == 1


def test_kappa2_kappa3_worked_examples():
    for n in (2, 3, 10):
        assert not check_kappa2(THETA1, MAJ, AND2, n)
        assert not check_kappa3(THETA1, MAJ, AND2, n)
        assert check_kappa2(EXPSMALL, MAJ, AND2, n)
        assert check_kappa3(EXPSMALL, MAJ, AND2, n)
    for n in (2, 4, 20):
        assert not check_kappa2(MIRROR_SET, MIRROR_RULE, MIRROR, n)
        assert check_kappa3(MIRROR_SET, MIRROR_RULE, MIRROR, n)


def test_kappa_flags_stabilize_in_n():
    # population size enters only through outcome feasibility, so the flags
    # settle once every relevant outcome becomes reachable
    theta_tuples = {kappa_conditions(THETA1, MAJ, AND2, n) for n in range(2, 17)}
    assert theta_tuples == {(False, False, False, False)}
    exp_tuples = {kappa_conditions(EXPSMALL, MAJ, AND2, n) for n in range(2, 17)}
    assert exp_tuples == {(False, True, True, False)}


def test_kappa2_implies_kappa3():
    rng = random.Random(43)
    for _ in range(20):
        agenda, rule, dists = random_instance(rng)
        n = rng.randint(1, 5)
        if check_kappa2(dists, rule, agenda, n):
            assert check_kappa3(dists, rule, agenda, n)


def test_kappa4_examples():
    assert check_kappa4(MIRROR_RULE, MIRROR)
    assert not check_kappa4(MAJ, AND2)
    negated = Agenda(1, (1, 0))
    rule = QuotaRule.of(["1/3", "2/3"], (1, 1))
    assert check_kappa4(rule, negated)
    assert not check_kappa4(QuotaRule.of(["1/3", "1/2"], (1, 1)), negated)
    # projection onto the second of two premises
    proj2 = Agenda.projection(2, 2)
    assert check_kappa4(QuotaRule.of(["1/4", "3/5", "3/5"], (0, 0, 0)), proj2)


def test_kappa4_ignores_breakings():
    for d in product((0, 1), repeat=2):
        assert check_kappa4(QuotaRule.majority(2, d), MIRROR)


def test_kappa_tuple_reporting_convention():
    # when no paradox profile exists the exponential-branch flags read false
    assert kappa_conditions(EXPSMALL, MAJ, AND2, 1) == (True, False, False, False)
    assert check_kappa2(EXPSMALL, MAJ, AND2, 1)
    assert check_kappa3(EXPSMALL, MAJ, AND2, 1)
    assert kappa_conditions(MIRROR_SET, MIRROR_RULE, MIRROR, 5) == (
        True, False, False, True,
    )


def test_distribution_set_validation():
    with pytest.raises(ValueError):
        DistributionSet((FractionalVote.uniform(2), FractionalVote.uniform(2)))
    with pytest.raises(ValueError):
        DistributionSet(())
    dists = _dists(["1/2", "1/2", "0", "0"], ["1/4"] * 4)
    assert dists.epsilon == 0
    assert not dists.is_strictly_positive
    assert THETA1.epsilon == Fraction(1, 25)
    assert THETA1.is_strictly_positive


def test_empty_pattern_inputs_rejected():
    with pytest.raises(ValueError):
        feasible_sign_pattern((0, 0, 2), THETA1, MAJ, AND2)
