"""Each public validation error that no other test reaches, with its type and message."""

import json
import tempfile
from pathlib import Path

import pytest

from paradox_lab import (
    Agenda,
    DimensionError,
    DistributionSet,
    FractionalVote,
    Histogram,
    Profile,
    QuotaRule,
    ValidationError,
    in_polyhedron,
    monte_carlo_estimate,
    paradox_region,
    parse_instance_dict,
    reachable_counts,
    sign_pattern_witness,
    smoothed_extremes,
)
from paradox_lab.cli import main

from conftest import INSTANCE_DIR

AND2 = Agenda.conjunction(2)
MAJ = QuotaRule.majority(3, (1, 1, 0))
THETA1 = DistributionSet((FractionalVote.uniform(2),
                          FractionalVote.of(["1/25", "8/25", "8/25", "8/25"])))
MIRROR_SET = DistributionSet((FractionalVote.of(["9/10", "1/10"]),
                              FractionalVote.of(["3/10", "7/10"])))


def _fit_on_a_missing_column() -> None:
    """``fit --column nosuch`` on a well-formed CSV, its exit code raised as SystemExit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        path.write_text("n,max_est\n1,0.5\n2,0.4\n3,0.3\n")
        raise SystemExit(main(["fit", "--family", "log_linear", "--input", str(path),
                               "--column", "nosuch"]))


def _distributions_not_a_list() -> None:
    data = json.loads((INSTANCE_DIR / "conjunction_theta1.json").read_text())
    data["distributions"] = "1/4, 1/4, 1/4, 1/4"
    parse_instance_dict(data)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: monte_carlo_estimate((2, 1), THETA1, MAJ, AND2, trials=0),
                 ValueError, "trials must be >= 1", id="mc-trials-0"),
    pytest.param(lambda: smoothed_extremes(THETA1, 0, MAJ, AND2),
                 ValueError, "n must be >= 1, got 0", id="extremes-n-0"),
    pytest.param(lambda: smoothed_extremes(THETA1, 3, MAJ, AND2, mode="x"),
                 ValueError, "unknown mode 'x'", id="extremes-mode-x"),
    pytest.param(lambda: reachable_counts(0, MAJ, AND2),
                 ValueError, "n must be >= 1, got 0", id="reachable-n-0"),
    pytest.param(lambda: DistributionSet((FractionalVote.uniform(1), FractionalVote.uniform(2))),
                 DimensionError, "same length", id="members-of-two-lengths"),
    pytest.param(lambda: smoothed_extremes(MIRROR_SET, 3, MAJ, AND2),
                 DimensionError, "distribution length 2 != agenda m 4", id="set-length-not-m"),
    pytest.param(lambda: FractionalVote.of(["1/3"] * 3),
                 DimensionError, "vote length must be a power of two, got 3", id="vote-length-3"),
    pytest.param(lambda: Histogram((1, 1, 1)),
                 DimensionError, "histogram length must be a power of two, got 3",
                 id="histogram-length-3"),
    pytest.param(lambda: Profile(()),
                 ValueError, "at least one vote", id="empty-profile"),
    pytest.param(lambda: Histogram((1, 1)) + Histogram((1, 1, 1, 1)),
                 DimensionError, "histogram lengths differ", id="histogram-sum-of-two-lengths"),
    pytest.param(lambda: Agenda(0, (0,)),
                 ValueError, "p must be >= 1, got 0", id="agenda-p-0"),
    pytest.param(lambda: Agenda.projection(2, 3),
                 ValueError, r"premise 3 out of range \[1, 2\]", id="projection-premise-3"),
    pytest.param(lambda: in_polyhedron((1, 1), paradox_region(MAJ, AND2)[0]),
                 DimensionError, "vector length 2 != polyhedron m 4",
                 id="polyhedron-vector-length"),
    pytest.param(lambda: sign_pattern_witness((1, 1), THETA1, MAJ, AND2),
                 DimensionError, "pattern has 2 entries, expected 3", id="pattern-length"),
    pytest.param(_fit_on_a_missing_column, SystemExit, "^2$", id="fit-column-nosuch-exits-2"),
    pytest.param(_distributions_not_a_list,
                 ValidationError, "^distributions: expected a list of distributions$",
                 id="distributions-not-a-list"),
])
def test_public_validation_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
