"""Shared fixtures: golden instances, random instance generation, brute oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from paradox_lab import (
    Agenda,
    DistributionSet,
    FractionalVote,
    Histogram,
    Instance,
    QuotaRule,
    apply_quota,
    is_paradox,
    parse_instance,
)

INSTANCE_DIR = Path(__file__).parent / "instances"

# caps (4, 3, 3, 2) at n = 8, one per axis of a p = 3 count grid
CAPPED_RULE = QuotaRule.of(["1/2", "1/3", "1/4", "1/5"], (1, 1, 0, 0))


@pytest.fixture(scope="session")
def theta1_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "conjunction_theta1.json")


@pytest.fixture(scope="session")
def expsmall_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "conjunction_expsmall.json")


@pytest.fixture(scope="session")
def mirror_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "single_premise_mirror.json")


@pytest.fixture(scope="session")
def three_majority_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "three_premise_majority.json")


@pytest.fixture(scope="session")
def three_quota_instance() -> Instance:
    return parse_instance(INSTANCE_DIR / "three_premise_quota.json")


def random_rule(rng: random.Random, propositions: int) -> QuotaRule:
    thresholds = []
    for _ in range(propositions):
        den = rng.randint(1, 6)
        thresholds.append(Fraction(rng.randint(0, den), den))
    breakings = tuple(rng.randint(0, 1) for _ in range(propositions))
    return QuotaRule(tuple(thresholds), breakings)


def random_distribution(rng: random.Random, m: int) -> FractionalVote:
    """Strictly positive weights on a rational grid (denominator 8..16)."""
    den = rng.choice([8, 12, 16])
    cuts = sorted(rng.sample(range(1, den), m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return FractionalVote(tuple(Fraction(x, den) for x in parts))


def random_instance(rng: random.Random, p: int | None = None, members: int | None = None):
    """A random (agenda, rule, distribution set) triple with p <= 2."""
    p = p if p is not None else rng.choice([1, 2])
    m = 1 << p
    agenda = Agenda(p, tuple(rng.randint(0, 1) for _ in range(m)))
    rule = random_rule(rng, p + 1)
    count = members if members is not None else rng.choice([1, 2])
    dists = None
    while dists is None:
        candidates = tuple(random_distribution(rng, m) for _ in range(count))
        if len(set(candidates)) == count:
            dists = DistributionSet(candidates)
    return agenda, rule, dists


def random_positive_members(rng: random.Random, m: int, count: int) -> DistributionSet:
    """``count`` distinct strictly positive members, integer weights 1..9 normalized."""
    rows: list[FractionalVote] = []
    while len(rows) < count:
        ints = [rng.randint(1, 9) for _ in range(m)]
        row = FractionalVote(tuple(Fraction(x, sum(ints)) for x in ints))
        if row not in rows:
            rows.append(row)
    return DistributionSet(tuple(rows))


def enumerate_histograms(n: int, m: int):
    """All non-negative integer histograms with total n (compositions)."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in enumerate_histograms(n - first, m - 1):
            yield (first,) + rest


def brute_force_outcomes(n: int, rule: QuotaRule, agenda: Agenda) -> set:
    """Every outcome vector achieved by some profile of n votes."""
    seen = set()
    for hist in enumerate_histograms(n, agenda.m):
        h = Histogram(tuple(Fraction(x) for x in hist))
        seen.add(apply_quota(h, rule, agenda))
    return seen


def brute_force_any_paradox(n: int, rule: QuotaRule, agenda: Agenda) -> bool:
    return any(
        is_paradox(Histogram(tuple(Fraction(x) for x in hist)), rule, agenda)
        for hist in enumerate_histograms(n, agenda.m)
    )


def brute_force_paradox_probability(
    counts, dists: DistributionSet, rule: QuotaRule, agenda: Agenda
) -> Fraction:
    """Sum over all ordered profiles of the product probability of paradoxes."""
    members = []
    for count, member in zip(counts, dists.members):
        members.extend([member] * count)
    total = Fraction(0)
    for combo in product(range(agenda.m), repeat=len(members)):
        prob = Fraction(1)
        hist = [0] * agenda.m
        for j, member in zip(combo, members):
            w = member.weights[j]
            if w == 0:
                prob = Fraction(0)
                break
            prob *= w
            hist[j] += 1
        if prob and is_paradox(
            Histogram(tuple(Fraction(x) for x in hist)), rule, agenda
        ):
            total += prob
    return total


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    criteria = Path(__file__).with_name("test_acceptance.py").resolve()
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if report.when != "call" or not nodeid:
                continue
            if (config.rootpath / nodeid.split("::", 1)[0]).resolve() != criteria:
                continue
            name = nodeid.rsplit("::", 1)[-1]
            outcomes[name] = status.upper() if status != "passed" else "PASS"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(outcomes):
        label = "PASS" if outcomes[name] == "PASS" else "FAIL"
        terminalreporter.write_line(f"{label}  {name}")
