import math
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
    Histogram,
    characteristic_vector,
    check_kappa1,
    check_kappa4,
    compositions,
    feasible_sign_pattern,
    is_tied,
    judgements,
    kappa_conditions,
    parse_instance,
    reachable_counts,
    refinements,
    sign_pattern_of,
    sign_pattern_witness,
    threshold_gaps,
)
from paradox_lab import conditions
from paradox_lab.errors import ResourceBudgetError
from paradox_lab.aggregation import (
    _grid_step,
    acceptance_count,
    count_windows,
    outcome_slices,
    paradox_table,
    proposition_patterns,
)
from conftest import (
    CAPPED_RULE,
    INSTANCE_DIR,
    brute_force_outcomes,
    fraction_member_gaps,
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
    # the refinements of pi that some n-vote profile reaches
    for n in (3, 4, 6):
        reachable = reachable_counts(n, MAJ, AND2)
        assert {alpha for alpha in refinements(PI_EXAMPLE, MAJ, AND2) if reachable[alpha]} == {
            (0, 1, 0), (1, 1, 0), (1, 1, 1)
        }


def test_outcome_feasible_examples():
    assert reachable_counts(3, MAJ, AND2)[1, 1, 1]
    assert not reachable_counts(3, MAJ, AND2)[0, 1, 1]
    for n in range(1, 7):
        assert not reachable_counts(n, MAJ, AND2)[0, 1, 1]
    assert reachable_counts(2, MAJ, AND2)[1, 1, 0]


def test_outcome_feasible_matches_enumeration():
    rng = random.Random(17)
    cases = [random_instance(rng)[:2] + (rng.randint(1, 5),) for _ in range(12)]
    # thresholds 0 and 1 under both breakings give acceptance counts 0, 1, n
    # and n + 1, so the count windows run from one cell to a full axis
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
        reachable = reachable_counts(n, rule, agenda)
        for alpha in product((0, 1), repeat=agenda.p + 1):
            assert reachable[alpha] == (alpha in achieved)


def test_kappa1_examples():
    assert check_kappa1(1, MAJ, AND2)
    for n in (2, 3, 10, 51):
        assert not check_kappa1(n, MAJ, AND2)
    for n in range(1, 13):
        assert check_kappa1(n, MIRROR_RULE, MIRROR) == (n % 2 == 1)


def test_proposition_index_out_of_range():
    pi = FractionalVote.of(["1/10", "2/10", "3/10", "4/10"])
    h = Histogram(pi.weights)
    # support 2/5 for the conclusion against the quota 1/2
    assert threshold_gaps(pi.weights, MAJ, AND2)[2] == Fraction(1, 10)
    assert sum(c * w for c, w in zip(characteristic_vector(3, MAJ, AND2), pi.weights)) == \
        Fraction(1, 10)
    for i in (0, AND2.p + 2):
        with pytest.raises(ValueError):
            is_tied(h, i, MAJ, AND2)
        with pytest.raises(ValueError):
            characteristic_vector(i, MAJ, AND2)


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


def test_one_row_certificates_agree_with_simplex(monkeypatch):
    # a pattern refuted by one strict row alone skips the simplex; the answer
    # must be the simplex's on every pattern of random sets with 1-6 members
    rng = random.Random("one-row certificates")
    phase_one = conditions._phase_one
    simplex_runs = []

    def counted(A, b):
        simplex_runs.append(1)
        return phase_one(A, b)

    monkeypatch.setattr(conditions, "_phase_one", counted)
    patterns = answers = 0
    seen = set()
    for _ in range(24):
        p = rng.randint(1, 3)
        m = 1 << p
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(m)))
        rule = random_rule(rng, p + 1)
        dists = random_positive_members(rng, m, rng.randint(1, 6))
        gaps = conditions._member_gaps(dists, rule, agenda)
        for beta in product((1, 0, -1), repeat=p + 1):
            feasible = feasible_sign_pattern(beta, dists, rule, agenda)
            assert feasible == (phase_one(*conditions._pattern_system(beta, gaps))[0] is not None)
            patterns += 1
            seen.add(feasible)
    assert len(simplex_runs) < patterns and seen == {True, False}


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


# (base instance, n, member counts) of the benchmark's classify pool families,
# whose members draw integer weights 1..20 from random.Random(f"{family}:{index}")
POOL_FAMILIES = {
    "p2": ("conjunction_expsmall", 40, tuple(range(2, 11))),
    "p3maj": ("three_premise_majority", 30, (2, 3, 4)),
    "p3quo": ("three_premise_quota", 30, (2, 3, 4)),
}


def _pool_set(family: str, index: int):
    base, n, counts = POOL_FAMILIES[family]
    inst = parse_instance(INSTANCE_DIR / f"{base}.json")
    rng = random.Random(f"{family}:{index}")
    rows: list[FractionalVote] = []
    while len(rows) < counts[index % len(counts)]:
        ints = [rng.randint(1, 20) for _ in range(inst.agenda.m)]
        row = FractionalVote(tuple(Fraction(x, sum(ints)) for x in ints))
        if row not in rows:
            rows.append(row)
    return DistributionSet(tuple(rows)), inst.rule, inst.agenda, n


def _kappa_by_enumeration(dists, rule, agenda, n):
    """The κ flags from every one of the 3^(p+1) patterns, each boxed on its own."""
    boxes = {1: slice(1, 2), 0: slice(0, 2), -1: slice(0, 1)}
    bad = paradox_table(agenda) & reachable_counts(n, rule, agenda)
    k4 = check_kappa4(rule, agenda)
    if not bad.any():
        return (True, False, False, k4)
    realized = {
        bad[tuple(boxes[s] for s in beta)].any()
        for beta in product((1, 0, -1), repeat=agenda.p + 1)
        if feasible_sign_pattern(beta, dists, rule, agenda)
    }
    return (False, True not in realized, False in realized, k4)


def _oracle_cases():
    rng = random.Random("kappa sign table")
    for _ in range(30):
        p = rng.randint(1, 3)
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        dists = random_positive_members(rng, agenda.m, rng.randint(1, 10))
        yield dists, random_rule(rng, p + 1), agenda, rng.randint(1, 12)
    # the uniform member ties both premise rows of the majority rule
    yield THETA1, MAJ, AND2, 10
    # no paradox profile at n = 1: κ1 holds
    yield EXPSMALL, MAJ, AND2, 1
    for family in POOL_FAMILIES:
        for index in range(3):
            yield _pool_set(family, index)


def test_kappa_table_matches_pattern_enumeration(monkeypatch):
    # the one-table κ2/κ3 decision against an enumeration of every pattern,
    # on random sets of 1-10 members and the benchmark's pool families; the
    # table runs the simplex on fewer patterns
    phase_one = conditions._phase_one
    simplex_runs = {"table": 0, "enumeration": 0}
    counting = None

    def counted(A, b):
        simplex_runs[counting] += 1
        return phase_one(A, b)

    monkeypatch.setattr(conditions, "_phase_one", counted)
    flags = set()
    for dists, rule, agenda, n in _oracle_cases():
        counting = "table"
        got = kappa_conditions(dists, rule, agenda, n)
        counting = "enumeration"
        assert got == _kappa_by_enumeration(dists, rule, agenda, n)
        flags.add(got[:3])
    assert flags == {
        (True, False, False), (False, False, False), (False, False, True), (False, True, True),
    }
    assert simplex_runs["table"] < simplex_runs["enumeration"]


def test_sign_screen_is_sound():
    # a strict sign that no member's own pattern has on a row leaves no
    # pattern holding it there feasible, by the witness search and by the
    # simplex alone; each member's own pattern gets a witness with that pattern
    dropped = 0
    for dists, rule, agenda, _ in _oracle_cases():
        gaps = conditions._member_gaps(dists, rule, agenda)
        signs = list(zip(*conditions._own_patterns(gaps)))
        for beta in product((1, 0, -1), repeat=agenda.p + 1):
            if all(not s or s in row for s, row in zip(beta, signs)):
                continue
            dropped += 1
            assert sign_pattern_witness(beta, dists, rule, agenda) is None
            assert conditions._phase_one(*conditions._pattern_system(beta, gaps))[0] is None
        for member in dists.members:
            own = sign_pattern_of(member, rule, agenda)
            witness = sign_pattern_witness(own, dists, rule, agenda)
            assert witness is not None and sign_pattern_of(witness, rule, agenda) == own
    assert dropped


def test_reachable_counts_match_histogram_enumeration():
    # the reachable-outcome table is the set of quota outcomes of every
    # histogram; random rules include a_i = 0 and a_i = n+1, one-cell axes
    rng = random.Random(73)
    for p in (1, 2, 3):
        for _ in range(3):
            agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
            patterns = proposition_patterns(agenda)
            for n in range(1, 9):
                rule = random_rule(rng, p + 1)
                accepts = [acceptance_count(q, d, n)
                           for q, d in zip(rule.thresholds, rule.breakings)]
                expected = np.zeros((2,) * (p + 1), dtype=bool)
                for hist in compositions(n, agenda.m):
                    alpha = tuple(
                        int(sum(h * pat[i] for h, pat in zip(hist, patterns)) >= accepts[i])
                        for i in range(p + 1)
                    )
                    expected[alpha] = True
                assert np.array_equal(reachable_counts(n, rule, agenda), expected)


def _full_grid_reachable(n, rule, agenda):
    """Reachable outcomes from the bool count grid over all p+1 axes, True weights."""
    windows, patterns = count_windows(rule, n), proposition_patterns(agenda)
    grid = np.ones((1,) * (agenda.p + 1), dtype=bool)
    for before, after in zip(windows, windows[1:]):
        grid = _grid_step(grid, (True,) * agenda.m, patterns, before, after)
    table = np.zeros((2,) * (agenda.p + 1), dtype=bool)
    table[outcome_slices(rule, n)] = grid
    return table


def test_reachable_counts_match_the_full_bool_grid(monkeypatch):
    # the max-plus grid over the premise counts keeps only the extremes of
    # the conclusion count per premise cell; the bool grid keeps every count
    monkeypatch.setattr(conditions, "_reach_cache", {})
    rng = random.Random(2305)
    cases = []
    for i in range(240):
        p = i % 3 + 1
        n = rng.randint(1, 30 if p == 3 else 40)
        # every fourth table is XOR of the premises, whose conclusion counts have parity gaps
        truth = tuple(sum(w) % 2 if i % 4 == 0 else rng.randint(0, 1) for w in judgements(p))
        rule = random_rule(rng, p + 1)
        if i % 3 == 0:
            # a_i = 0 (q = 0, d = 1) or a_i = n+1 (q = 1, d = 0) on one axis
            thresholds, breakings = list(rule.thresholds), list(rule.breakings)
            edge = rng.randrange(p + 1)
            thresholds[edge], breakings[edge] = rng.choice(((Fraction(0), 1), (Fraction(1), 0)))
            rule = QuotaRule(tuple(thresholds), tuple(breakings))
        cases.append((Agenda(p, truth), rule, n))
    # p = 1 at the uint8/uint16 boundary: a conclusion count that must reach
    # n = 256, all agents on one side, wraps to 0 in uint8
    for n in (255, 256):
        for truth in product((0, 1), repeat=2):
            for q, d in ((1, 1), (0, 0), (1, 0), (0, 1)):
                cases.append((Agenda(1, truth), QuotaRule.of(["1/3", q], (1, d)), n))
    for agenda, rule, n in cases:
        assert np.array_equal(reachable_counts(n, rule, agenda), _full_grid_reachable(n, rule, agenda))


def test_reachable_counts_budget_boundary(monkeypatch):
    # acceptance counts (4, 3, 3, 2) at n = 8: the grid covers the premise
    # windows only, and after 4 or 5 votes they are [0, 4] x [0, 3] x [0, 3],
    # the largest, of 5 * 4 * 4 = 80 cells with 2 entries each, 160 in all;
    # the table holds the 2^4 outcomes
    monkeypatch.setattr(conditions, "_reach_cache", {})
    agenda = Agenda.conjunction(3)
    with pytest.raises(ResourceBudgetError):
        reachable_counts(8, CAPPED_RULE, agenda, state_budget=160 - 1)
    assert reachable_counts(8, CAPPED_RULE, agenda, state_budget=160).shape == (2, 2, 2, 2)


def test_reachable_counts_charges_budget_before_cache(monkeypatch):
    # a table built under a large enough budget is not handed out under a
    # smaller one; 160 entries as in the boundary test above
    monkeypatch.setattr(conditions, "_reach_cache", {})
    agenda = Agenda.conjunction(3)
    assert reachable_counts(8, CAPPED_RULE, agenda, state_budget=160).shape == (2, 2, 2, 2)
    with pytest.raises(ResourceBudgetError):
        reachable_counts(8, CAPPED_RULE, agenda, state_budget=160 - 1)
    assert len(conditions._reach_cache) == 1


def test_reachable_counts_hit_builds_nothing_and_is_charged(monkeypatch):
    # a hit charges the entries stored with the table and builds no windows
    monkeypatch.setattr(conditions, "_reach_cache", {})
    agenda = Agenda.conjunction(3)
    table = reachable_counts(8, CAPPED_RULE, agenda, state_budget=160)

    def no_windows(*args):
        raise AssertionError("a cached table built its windows again")

    monkeypatch.setattr(conditions, "count_windows", no_windows)
    assert reachable_counts(8, CAPPED_RULE, agenda, state_budget=160) is table
    with pytest.raises(ResourceBudgetError) as err:
        reachable_counts(8, CAPPED_RULE, agenda, state_budget=160 - 1)
    assert (err.value.required, err.value.budget) == (160, 159)


def test_reachable_counts_cache_tells_last_windows_apart(monkeypatch):
    # a = n and a = n+1 share the cap n but end in two cells and in one
    monkeypatch.setattr(conditions, "_reach_cache", {})
    n = 4
    at_n = QuotaRule.of([1, "1/2"], [1, 1])
    beyond = QuotaRule.of([1, "1/2"], [0, 1])
    # the conclusion mirrors the premise count s: (0, 0) for s < 2, (0, 1)
    # below a and (1, 1) from a on
    assert reachable_counts(n, at_n, MIRROR).tolist() == [[True, True], [False, True]]
    assert reachable_counts(n, beyond, MIRROR).tolist() == [[True, True], [False, False]]
    assert len(conditions._reach_cache) == 2


def test_reachable_counts_cached_table_is_read_only(monkeypatch):
    # every caller shares the cached table: a write through one caller's copy
    # would flip later kappa flags (kappa1 read True at n = 5 after t[:] = False)
    monkeypatch.setattr(conditions, "_reach_cache", {})
    inst = parse_instance(INSTANCE_DIR / "conjunction_theta1.json")
    args = (inst.distributions, inst.rule, inst.agenda, 5)
    assert kappa_conditions(*args) == (False, False, False, False)
    table = reachable_counts(5, inst.rule, inst.agenda)
    with pytest.raises(ValueError):
        table[:] = False
    assert table.any()
    assert kappa_conditions(*args) == (False, False, False, False)


def test_kappa2_kappa3_worked_examples():
    # kappa1 is false at each n, so the flags are read in full
    for n in (2, 3, 10):
        assert kappa_conditions(THETA1, MAJ, AND2, n)[1:3] == (False, False)
        assert kappa_conditions(EXPSMALL, MAJ, AND2, n)[1:3] == (True, True)
    for n in (2, 4, 20):
        assert kappa_conditions(MIRROR_SET, MIRROR_RULE, MIRROR, n)[1:3] == (False, True)


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
        _, k2, k3, _ = kappa_conditions(dists, rule, agenda, n)
        assert k3 or not k2


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


def _random_vote(rng: random.Random, m: int) -> FractionalVote:
    """Weights ints / sum(ints), zeros included, each reduced on its own."""
    top = rng.choice([1, 3, 9, 40])
    ints = [0] * m
    while not any(ints):
        ints = [rng.randint(0, top) for _ in range(m)]
    return FractionalVote(tuple(Fraction(x, sum(ints)) for x in ints))


def test_member_gaps_equal_their_fraction_reference():
    # the integer rows built from each vote's integer form are the rows that
    # Fraction gaps scaled per row give, on thresholds 0 and 1, both tie bits
    # and members with zero weights
    rng = random.Random(30)
    for _ in range(300):
        p = rng.randint(1, 3)
        m = 1 << p
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(m)))
        thresholds = []
        for _ in range(p + 1):
            den = rng.randint(1, 12)
            thresholds.append(rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(0, den), den)]))
        rule = QuotaRule(tuple(thresholds), tuple(rng.randint(0, 1) for _ in range(p + 1)))
        members: list[FractionalVote] = []
        count = rng.randint(1, 10)
        while len(members) < count:
            vote = _random_vote(rng, m)
            if vote not in members:
                members.append(vote)
        dists = DistributionSet(tuple(members))
        assert conditions._member_gaps(dists, rule, agenda) == fraction_member_gaps(dists, rule, agenda)


def _row_form(i: int, weights, rule: QuotaRule, agenda: Agenda) -> Fraction:
    """characteristic_vector(i) . weights, summed in Fractions."""
    row = characteristic_vector(i, rule, agenda)
    return sum((c * w for c, w in zip(row, weights)), Fraction(0))


def test_gaps_and_lp_rows_read_the_row_form():
    # each gap is its characteristic row's product, on histograms with zero,
    # int and Fraction weights and on distributions with zero and unit
    # weights; and row i of the LP is L_i * (characteristic_vector(i) . pi_k)
    # over the members k, L_i the row's least common denominator, on the
    # golden instances and random p <= 3 sets
    rng = random.Random("gaps and lp rows read the row form")
    for _ in range(300):
        p = rng.randint(1, 3)
        m = 1 << p
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(m)))
        rule = random_rule(rng, p + 1)
        counts = [rng.choice([0, 0, 1, 5, Fraction(rng.randint(1, 9), rng.randint(1, 7))])
                  for _ in range(m)]
        counts[rng.randrange(m)] = rng.randint(1, 3)
        judgement = judgements(p)[rng.randrange(m)]
        for weights in (counts, Histogram(counts).weights, _random_vote(rng, m).weights,
                        FractionalVote.point(judgement).weights):
            gaps = threshold_gaps(weights, rule, agenda)
            assert all(type(g) is Fraction for g in gaps)
            assert gaps == tuple(_row_form(i, weights, rule, agenda) for i in range(1, p + 2))
    cases = [(inst.distributions, inst.rule, inst.agenda)
             for inst in map(parse_instance, sorted(INSTANCE_DIR.glob("*.json")))]
    for _ in range(60):
        p = rng.randint(1, 3)
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        cases.append((random_positive_members(rng, agenda.m, rng.randint(1, 8)),
                      random_rule(rng, p + 1), agenda))
    for dists, rule, agenda in cases:
        rows = []
        for i in range(1, agenda.p + 2):
            row = [_row_form(i, member.weights, rule, agenda) for member in dists.members]
            lcd = math.lcm(*(g.denominator for g in row))
            rows.append(tuple(int(g * lcd) for g in row))
        assert conditions._member_gaps(dists, rule, agenda) == tuple(rows)


def test_integer_form_matches_its_fraction_definitions():
    rng = random.Random(31)
    for _ in range(300):
        m = 1 << rng.randint(1, 3)
        members: list[FractionalVote] = []
        count = rng.randint(1, 6)
        while len(members) < count:
            vote = _random_vote(rng, m)
            if vote not in members:
                members.append(vote)
        for vote in members:
            assert vote.lcd == math.lcm(*(w.denominator for w in vote.weights))
            assert vote.numerators == tuple(w * vote.lcd for w in vote.weights)
            assert all(type(num) is int for num in vote.numerators)
        dists = DistributionSet(tuple(members))
        weights = [w for member in members for w in member.weights]
        assert dists.epsilon == min(weights)
        assert type(dists.epsilon) is Fraction
        assert dists.is_strictly_positive == (min(weights) > 0)
