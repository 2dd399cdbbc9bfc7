import random
from fractions import Fraction
from itertools import product

import pytest

from paradox_lab import (
    Agenda,
    DimensionError,
    FractionalVote,
    Histogram,
    QuotaRule,
    apply_quota,
    build_polyhedron,
    characteristic_vector,
    compositions,
    cone_dimension,
    inconsistent_outcomes,
    in_cone,
    in_polyhedron,
    in_polyhedron_exact,
    paradox_region,
    refinements,
    threshold_gaps,
)
from conftest import (
    exact_rank,
    lp_cone_dimension,
    random_distribution,
    random_rule,
)

AND2 = Agenda.conjunction(2)
MAJ = QuotaRule.majority(3, (1, 1, 0))
MIRROR = Agenda(1, (0, 1))
RULE6 = QuotaRule.of(["1/4", "13/20"], (1, 1))


def test_build_polyhedron_checks_its_outcome():
    # the outcome check of is_consistent: an entry of 2 is no verdict
    with pytest.raises(DimensionError):
        build_polyhedron((1, 1), MAJ, AND2)
    with pytest.raises(ValueError):
        build_polyhedron((2, 0), QuotaRule.majority(2, (1, 0)), MIRROR)


def test_characteristic_vectors_single_premise():
    c1 = characteristic_vector(1, RULE6, MIRROR)
    c2 = characteristic_vector(2, RULE6, MIRROR)
    assert c1 == (Fraction(1, 4), Fraction(-3, 4))
    assert c2 == (Fraction(13, 20), Fraction(-7, 20))


ONE_COMPARISON_SEED = 20


def test_rows_and_refinements_read_the_threshold_gaps():
    # the polyhedron rows, the verdicts and the refinements are one comparison
    rng = random.Random(ONE_COMPARISON_SEED)
    for _ in range(150):
        p = rng.randint(1, 3)
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        x = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(agenda.m)]
        if sum(x) == 0:
            x[0] = Fraction(1)
        gaps = threshold_gaps(x, rule, agenda)
        for i in range(1, p + 2):
            row = characteristic_vector(i, rule, agenda)
            assert gaps[i - 1] == sum(c * w for c, w in zip(row, x)), (agenda, rule, x, i)
        pi = random_distribution(rng, agenda.m)
        assert apply_quota(Histogram(pi.weights), rule, agenda) in refinements(pi, rule, agenda)


def test_characteristic_vector_constant_conclusion():
    always = Agenda(2, (1, 1, 1, 1))
    rule = QuotaRule.of(["1/2", "1/2", "2/3"], (0, 0, 0))
    c = characteristic_vector(3, rule, always)
    assert c == tuple([Fraction(2, 3) - 1] * 4)


def test_build_polyhedron_unit_slack_form():
    poly = build_polyhedron((1, 0), RULE6, MIRROR)
    assert poly.A == (
        (Fraction(1, 4), Fraction(-3, 4)),
        (Fraction(-13, 20), Fraction(7, 20)),
    )
    assert poly.b == (Fraction(0), Fraction(-1))
    assert poly.b_exact == (Fraction(0), Fraction(-1, 20))


def test_membership_meaning_of_unit_slack_offsets():
    # A x <= b holds exactly when n1 >= q1*n and n1 <= q2*n - 1
    poly = build_polyhedron((1, 0), RULE6, MIRROR)
    q1, q2 = RULE6.thresholds
    for n in range(1, 7):
        for n1 in range(n + 1):
            h = Histogram((Fraction(n - n1), Fraction(n1)))
            expected = n1 >= q1 * n and n1 <= q2 * n - 1
            assert in_polyhedron(h, poly) == expected


def test_all_ones_offsets_vanish():
    rule = QuotaRule.of(["1/2", "1/2", "1/2"], (1, 1, 1))
    poly = build_polyhedron((1, 1, 1), rule, AND2)
    assert poly.b == (0, 0, 0)


def test_table_histogram_membership():
    h = Histogram((Fraction(0), Fraction(1), Fraction(3, 2), Fraction(1, 2)))
    poly = build_polyhedron((1, 1, 0), MAJ, AND2)
    assert in_polyhedron(h, poly)
    assert in_polyhedron_exact(h, poly)


def test_membership_refuses_floats():
    poly = build_polyhedron((1, 1, 0), MAJ, AND2)
    for member in (in_polyhedron, in_polyhedron_exact, in_cone):
        with pytest.raises(TypeError):
            member((0.1, 0.2, 0.3, 0.4), poly)


def test_cone_membership_examples():
    poly = build_polyhedron((1, 1, 0), MAJ, AND2)
    assert in_cone(FractionalVote.of(["3/10", "1/5", "0", "1/2"]), poly)
    assert not in_cone(FractionalVote.of(["1/10", "1/10", "1/10", "7/10"]), poly)
    assert in_cone((Fraction(0),) * 4, poly)


def test_paradox_region_size():
    assert len(paradox_region(MAJ, AND2)) == 4
    assert {poly.alpha for poly in paradox_region(RULE6, MIRROR)} == {(0, 1), (1, 0)}


def test_paradox_region_rows_are_signed_characteristic_vectors():
    # the region's polyhedra are build_polyhedron's, and each row is the
    # signed characteristic vector with its unit-slack and exact offsets, on
    # random rules with p <= 3, thresholds 0 and 1, and both tie bits
    rng = random.Random("paradox region rows")
    seen_thresholds, seen_breakings = set(), set()
    for trial in range(40):
        p = rng.randint(1, 3)
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        if trial < 4:
            ends = tuple(Fraction(rng.randint(0, 1)) for _ in range(p + 1))
            rule = QuotaRule(ends, rule.breakings)
        seen_thresholds.update(rule.thresholds)
        seen_breakings.update(rule.breakings)
        region = paradox_region(rule, agenda)
        outcomes = inconsistent_outcomes(agenda)
        assert region == tuple(build_polyhedron(a, rule, agenda) for a in outcomes)
        for poly, alpha in zip(region, outcomes):
            assert poly.alpha == alpha
            for i, a in enumerate(alpha, 1):
                sign, q = 2 * a - 1, rule.thresholds[i - 1]
                row = tuple(sign * e for e in characteristic_vector(i, rule, agenda))
                offset = sign * rule.breakings[i - 1] - a
                exact = offset and Fraction(-1, q.denominator)
                assert (poly.A[i - 1], poly.b[i - 1], poly.b_exact[i - 1]) == (row, offset, exact)
    assert {0, 1} <= seen_thresholds and seen_breakings == {0, 1}


def _statement_one_rules():
    rng = random.Random(23)
    rules = [(AND2, MAJ), (MIRROR, QuotaRule.majority(2, (1, 0))), (MIRROR, RULE6)]
    for _ in range(4):
        p = rng.choice([1, 2])
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rules.append((agenda, random_rule(rng, p + 1)))
    return rules


@pytest.mark.parametrize("case", range(len(_statement_one_rules())))
def test_exact_membership_equals_outcome(case):
    agenda, rule = _statement_one_rules()[case]
    alphas = list(product((0, 1), repeat=agenda.p + 1))
    polys = {alpha: build_polyhedron(alpha, rule, agenda) for alpha in alphas}
    for n in range(1, 5):
        for hist in compositions(n, agenda.m):
            h = Histogram(tuple(Fraction(x) for x in hist))
            outcome = apply_quota(h, rule, agenda)
            matches = [a for a in alphas if in_polyhedron_exact(h, polys[a])]
            assert matches == [outcome]
            # unit-slack offsets are sound one-sided: membership forces the outcome
            for alpha in alphas:
                if in_polyhedron(h, polys[alpha]):
                    assert outcome == alpha


def test_characteristic_vectors_linearly_independent():
    rng = random.Random(5)
    for _ in range(10):
        p = rng.choice([1, 2, 3])
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        rows = [characteristic_vector(i, rule, agenda) for i in range(1, p + 1)]
        assert exact_rank(rows) == p


def test_cone_dimension_dichotomy():
    mirror_rule = QuotaRule.majority(2, (1, 0))
    poly = build_polyhedron((1, 0), mirror_rule, MIRROR)
    assert cone_dimension(poly, mirror_rule, MIRROR) == 1
    poly6 = build_polyhedron((1, 0), RULE6, MIRROR)
    assert cone_dimension(poly6, RULE6, MIRROR) == 2
    poly_and = build_polyhedron((1, 1, 0), MAJ, AND2)
    assert cone_dimension(poly_and, MAJ, AND2) == 4


def test_cone_dimension_matches_lp():
    # thresholds with denominators 2..5, random truth tables and tie bits
    rng = random.Random("cone-dimension")
    deficits = set()
    for _ in range(150):
        p = rng.randint(1, 3)
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        thresholds = []
        for _ in range(p + 1):
            den = rng.randint(2, 5)
            thresholds.append(Fraction(rng.randint(0, den), den))
        rule = QuotaRule(tuple(thresholds), tuple(rng.randint(0, 1) for _ in range(p + 1)))
        for poly in paradox_region(rule, agenda):
            dimension = cone_dimension(poly, rule, agenda)
            assert dimension == lp_cone_dimension(poly.A), (agenda, rule, poly.alpha)
            deficits.add(agenda.m - dimension)
    # both branches of the dichotomy occur
    assert deficits == {0, 1}


def test_cone_membership_equals_refinement():
    rng = random.Random(71)
    for _ in range(30):
        p = rng.choice([1, 2])
        agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(1 << p)))
        rule = random_rule(rng, p + 1)
        den = 8
        m = agenda.m
        cuts = sorted(rng.choices(range(den + 1), k=m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        pi = FractionalVote(tuple(Fraction(x, den) for x in parts))
        refs = refinements(pi, rule, agenda)
        for alpha in product((0, 1), repeat=p + 1):
            poly = build_polyhedron(alpha, rule, agenda)
            assert in_cone(pi, poly) == (alpha in refs)
