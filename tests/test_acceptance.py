"""Acceptance suite: one test per criterion, at the stated tolerances.

A terminal-summary hook in conftest prints one PASS/FAIL line per criterion
after the run. Criteria that sweep large n use the exact evaluation engine;
randomized criteria use fixed seeds so the suite is fully reproducible.
"""

import math
import random
import statistics
import time
from fractions import Fraction
from itertools import product

import pytest

from paradox_lab import (
    Rate,
    apply_quota,
    build_polyhedron,
    check_kappa1,
    classify,
    compositions,
    exact_paradox_probability,
    fit_curve,
    in_cone,
    in_polyhedron,
    in_polyhedron_exact,
    kappa_conditions,
    monte_carlo_estimate,
    refinements,
    smoothed_extremes,
    FractionalVote,
    Histogram,
)
from conftest import (
    brute_force_any_paradox,
    brute_force_paradox_probability,
    random_instance,
)


@pytest.fixture(scope="module")
def randomized_instances():
    """Shared randomized (agenda, rule, distributions, n, counts) pool."""
    rng = random.Random(20240601)
    pool = []
    while len(pool) < 50:
        agenda, rule, dists = random_instance(rng)
        n = rng.randint(1, 6)
        counts = [0] * dists.size
        for _ in range(n):
            counts[rng.randrange(dists.size)] += 1
        pool.append((agenda, rule, dists, n, tuple(counts)))
    return pool


def test_criterion_01_kappa_golden_tuples(theta1_instance, expsmall_instance,
                                          mirror_instance):
    started = time.time()
    inst = theta1_instance
    assert kappa_conditions(inst.distributions, inst.rule, inst.agenda, 1) == (
        True, False, False, False,
    )
    for n in (2, 3, 10, 51):
        assert kappa_conditions(inst.distributions, inst.rule, inst.agenda, n) == (
            False, False, False, False,
        )
    inst = expsmall_instance
    assert kappa_conditions(inst.distributions, inst.rule, inst.agenda, 1) == (
        True, False, False, False,
    )
    for n in (2, 3, 10, 51):
        assert kappa_conditions(inst.distributions, inst.rule, inst.agenda, n) == (
            False, True, True, False,
        )
    inst = mirror_instance
    for n in range(1, 21):
        expected = (
            (True, False, False, True) if n % 2 == 1 else (False, False, True, True)
        )
        assert kappa_conditions(inst.distributions, inst.rule, inst.agenda, n) == expected
    assert time.time() - started < 10.0


def test_criterion_02_classification_golden(theta1_instance, expsmall_instance,
                                            mirror_instance):
    inst = theta1_instance
    for n in (2, 10, 51):
        got = classify(inst.distributions, inst.rule, inst.agenda, n)
        assert (got.max_rate, got.min_rate) == (Rate.CONSTANT, Rate.CONSTANT)
    inst = expsmall_instance
    for n in (2, 10, 51):
        got = classify(inst.distributions, inst.rule, inst.agenda, n)
        assert (got.max_rate, got.min_rate) == (Rate.EXP_SMALL, Rate.EXP_SMALL)
    inst = mirror_instance
    for n in (1, 7, 19):
        got = classify(inst.distributions, inst.rule, inst.agenda, n)
        assert (got.max_rate, got.min_rate) == (Rate.ZERO, Rate.ZERO)
    for n in (2, 8, 20):
        got = classify(inst.distributions, inst.rule, inst.agenda, n)
        assert (got.max_rate, got.min_rate) == (Rate.INV_SQRT, Rate.EXP_SMALL)


def test_criterion_03_exact_probability_oracle(randomized_instances):
    started = time.time()
    for agenda, rule, dists, n, counts in randomized_instances:
        dp = exact_paradox_probability(counts, dists, rule, agenda,
                                       value_mode="rational")
        oracle = brute_force_paradox_probability(counts, dists, rule, agenda)
        assert dp == oracle, f"mismatch at p={agenda.p}, n={n}"
    assert time.time() - started < 60.0


def test_criterion_04_region_membership_suite(theta1_instance, mirror_instance):
    rng = random.Random(77)
    cases = [
        (theta1_instance.agenda, theta1_instance.rule),
        (mirror_instance.agenda, mirror_instance.rule),
    ]
    for _ in range(4):
        agenda, rule, _ = random_instance(rng)
        cases.append((agenda, rule))

    for agenda, rule in cases:
        alphas = list(product((0, 1), repeat=agenda.p + 1))
        polys = {alpha: build_polyhedron(alpha, rule, agenda) for alpha in alphas}
        for n in range(1, 6):
            for raw in compositions(n, agenda.m):
                h = Histogram(tuple(Fraction(x) for x in raw))
                outcome = apply_quota(h, rule, agenda)
                for alpha in alphas:
                    member = in_polyhedron_exact(h, polys[alpha])
                    assert member == (outcome == alpha)
                    if in_polyhedron(h, polys[alpha]):
                        assert outcome == alpha

    checked = 0
    while checked < 200:
        agenda, rule, _ = random_instance(rng)
        den = 8
        cuts = sorted(rng.choices(range(den + 1), k=agenda.m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        pi = FractionalVote(tuple(Fraction(x, den) for x in parts))
        refs = refinements(pi, rule, agenda)
        for alpha in product((0, 1), repeat=agenda.p + 1):
            assert in_cone(pi, build_polyhedron(alpha, rule, agenda)) == (alpha in refs)
        checked += 1


def test_criterion_05_constant_instance_levels(theta1_instance):
    started = time.time()
    inst = theta1_instance
    at49 = smoothed_extremes(inst.distributions, 49, inst.rule, inst.agenda, mode="exact")
    assert abs(at49.min_probability - 0.25) <= 0.02
    at99 = smoothed_extremes(inst.distributions, 99, inst.rule, inst.agenda, mode="exact")
    assert at99.max_probability >= 0.95
    assert time.time() - started < 120.0


def test_criterion_06_exponential_instance_slopes(expsmall_instance):
    inst = expsmall_instance
    maxima, minima = [], []
    for n in range(10, 101, 10):
        ext = smoothed_extremes(inst.distributions, n, inst.rule, inst.agenda,
                                mode="exact")
        maxima.append((n, ext.max_probability))
        minima.append((n, ext.min_probability))
    fit_max = fit_curve(maxima, "log_linear")
    fit_min = fit_curve(minima, "log_linear")
    assert abs(fit_max.parameters[0] - (-0.049)) <= 0.015
    assert fit_max.r_squared >= 0.99
    assert abs(fit_min.parameters[0] - (-0.0996)) <= 0.03
    assert fit_min.r_squared >= 0.99


def test_criterion_07_single_premise_rates(mirror_instance):
    inst = mirror_instance
    rows = []
    for n in range(20, 201, 20):
        ext = smoothed_extremes(inst.distributions, n, inst.rule, inst.agenda,
                                mode="exact")
        rows.append((n, ext.max_probability, ext.min_probability))

    # cross-check the min chain against the closed binomial form: with every
    # agent on the (9/10, 1/10) member the paradox needs exactly n/2 accepting
    # votes, so min(n) = C(n, n/2) * (9/100)^(n/2)
    for n, _, got_min in rows:
        closed = math.comb(n, n // 2) * (0.09) ** (n // 2)
        assert got_min == pytest.approx(closed, rel=1e-9)

    scaled = [max_p * math.sqrt(n) for n, max_p, _ in rows]
    median = statistics.median(scaled)
    assert all(abs(s - median) <= 0.2 * median for s in scaled)

    # the band's centre is the least-squares log-slope of that closed form over
    # the same n grid: ln(3/5) = ln(2*sqrt(0.09)) plus the mean of the
    # -1/(2n) term from ln C(n, n/2), which lies in (-1/40, 0) for n >= 20
    grid = [n for n, _, _ in rows]
    closed_logs = [math.log(math.comb(n, n // 2)) + (n // 2) * math.log(9 / 100)
                   for n in grid]
    centre = statistics.linear_regression(grid, closed_logs).slope
    assert math.log(3 / 5) - 1 / 40 < centre < math.log(3 / 5)

    fit_min = fit_curve([(n, mn) for n, _, mn in rows], "log_linear")
    assert abs(fit_min.parameters[0] - centre) <= 0.1, (
        "min-rate slope %.5f is more than 0.1 from the closed-form centre %.5f"
        % (fit_min.parameters[0], centre)
    )


def test_criterion_08_three_premise_settings(three_majority_instance,
                                             three_quota_instance):
    inst = three_majority_instance
    for n in (5, 10, 16):
        got = classify(inst.distributions, inst.rule, inst.agenda, n)
        assert (got.max_rate, got.min_rate) == (Rate.EXP_SMALL, Rate.EXP_SMALL)
    inst = three_quota_instance
    for n in (5, 10, 16):
        got = classify(inst.distributions, inst.rule, inst.agenda, n)
        assert (got.max_rate, got.min_rate) == (Rate.CONSTANT, Rate.EXP_SMALL)


def test_criterion_09_monte_carlo_calibration(randomized_instances):
    rng = random.Random(424242)
    cases = []
    for agenda, rule, dists, n, counts in randomized_instances:
        exact = exact_paradox_probability(counts, dists, rule, agenda,
                                          value_mode="rational")
        # keep probabilities resolvable at 10^5 trials (zero stays testable:
        # the estimator then must report exactly zero)
        if exact == 0 or exact >= Fraction(1, 100):
            cases.append((agenda, rule, dists, n, counts, exact))
        if len(cases) == 20:
            break
    assert len(cases) == 20

    within = 0
    for agenda, rule, dists, n, counts, exact in cases:
        seed = rng.randrange(2**31)
        est, se = monte_carlo_estimate(counts, dists, rule, agenda,
                                       trials=100_000, seed=seed)
        est2, se2 = monte_carlo_estimate(counts, dists, rule, agenda,
                                         trials=100_000, seed=seed)
        assert (est, se) == (est2, se2)
        if abs(est - float(exact)) <= 3 * se + 1e-15:
            within += 1
    assert within >= 19


def test_criterion_10_kappa1_vs_enumeration(randomized_instances):
    for agenda, rule, _, n, _ in randomized_instances:
        assert check_kappa1(n, rule, agenda) == (
            not brute_force_any_paradox(n, rule, agenda)
        )
