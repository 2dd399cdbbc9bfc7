"""Workload definitions: the instance files each workload writes and the operations it runs.

Every workload is a list of operations, one pass, that the runner repeats
for the length of a run. The golden instances are embedded here, so the
program only ever sees files that this module writes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

GOLDEN = {
    "conjunction_expsmall": {
        "label": "two premises, conjunction, majority with breakings (1,1,0), exponential pair",
        "p": 2,
        "truth_table": [0, 0, 0, 1],
        "thresholds": ["1/2", "1/2", "1/2"],
        "breakings": [1, 1, 0],
        "distributions": [["3/25", "3/25", "3/25", "16/25"], ["1/10", "1/10", "1/10", "7/10"]],
    },
    "conjunction_theta1": {
        "label": "two premises, conjunction, majority with breakings (1,1,0), constant-rate pair",
        "p": 2,
        "truth_table": [0, 0, 0, 1],
        "thresholds": ["1/2", "1/2", "1/2"],
        "breakings": [1, 1, 0],
        "distributions": [["1/4", "1/4", "1/4", "1/4"], ["1/25", "8/25", "8/25", "8/25"]],
    },
    "single_premise_mirror": {
        "label": "one premise mirrored by the conclusion, majority, breakings (1,0)",
        "p": 1,
        "truth_table": [0, 1],
        "thresholds": ["1/2", "1/2"],
        "breakings": [1, 0],
        "distributions": [["9/10", "1/10"], ["3/10", "7/10"]],
    },
    "three_premise_majority": {
        "label": "three premises, conclusion on {000, 010, 110}, majority thresholds",
        "p": 3,
        "truth_table": [1, 0, 1, 0, 0, 0, 1, 0],
        "thresholds": ["1/2", "1/2", "1/2", "1/2"],
        "breakings": [1, 0, 1, 0],
        "distributions": [
            ["18/25", "1/25", "1/25", "1/25", "1/25", "1/25", "1/25", "1/25"],
            ["7/20", "1/5", "1/20", "1/20", "1/20", "1/20", "1/5", "1/20"],
        ],
    },
    "three_premise_quota": {
        "label": "three premises, conclusion on {000, 010, 110}, one-fifth thresholds",
        "p": 3,
        "truth_table": [1, 0, 1, 0, 0, 0, 1, 0],
        "thresholds": ["1/5", "1/5", "1/5", "1/5"],
        "breakings": [1, 0, 1, 0],
        "distributions": [
            ["18/25", "1/25", "1/25", "1/25", "1/25", "1/25", "1/25", "1/25"],
            ["7/20", "1/5", "1/20", "1/20", "1/20", "1/20", "1/5", "1/20"],
        ],
    },
}


# `classify` checks a fixed pool of random member sets. Each family reuses one
# golden rule and draws strictly positive members; member counts cycle over the
# tuple, so a pool of `size` sets holds size / len(counts) sets of each count.
# The pool is fixed because the time of one κ check is heavy-tailed (0.002 s
# to minutes for sets of the same size): a subset drawn per seed would let one
# set decide a run's total, and sets outside the pool have no recorded answer.
POOL = {
    "p2": {"base": "conjunction_expsmall", "counts": tuple(range(2, 11)), "size": 9, "n": 40},
    "p3maj": {"base": "three_premise_majority", "counts": (2, 3, 4), "size": 6, "n": 30},
    "p3quo": {"base": "three_premise_quota", "counts": (2, 3, 4), "size": 6, "n": 30},
}
WEIGHT_RANGE = (1, 20)

LADDER = {
    "single_premise_mirror": (25, 50, 100, 200),
    "conjunction_expsmall": (20, 40, 80),
    "conjunction_theta1": (20, 40, 80),
    "three_premise_majority": (15, 30, 50),
    "three_premise_quota": (15, 30, 50),
}

MC_TRIALS = 50_000
RATIONAL_N = 6
BALANCED = (4, 4)
FLOAT_N = 20
P3_INSTANCES = ("three_premise_majority", "three_premise_quota")


def pool_set(family: str, index: int) -> dict:
    """Instance dict of pool set `index` of `family`; a pure function of both."""
    spec = POOL[family]
    golden = GOLDEN[spec["base"]]
    rng = random.Random(f"{family}:{index}")
    m = 1 << golden["p"]
    members = spec["counts"][index % len(spec["counts"])]
    rows: list[tuple[Fraction, ...]] = []
    while len(rows) < members:
        ints = [rng.randint(*WEIGHT_RANGE) for _ in range(m)]
        row = tuple(Fraction(x, sum(ints)) for x in ints)
        if row not in rows:
            rows.append(row)
    return {
        **golden,
        "label": f"{family} pool set {index}, {members} members",
        "distributions": [[str(w) for w in row] for row in rows],
    }


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    A CLI operation has `argv`; a library call has `call` =
    (function in paradox_lab.likelihood, instance name, counts, keyword args).
    `key` names the reference answer. `drop` lists answer keys that hold
    paths or labels and are not compared.
    """

    key: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    csv: str = ""
    check: str = "exact"
    drop: tuple[str, ...] = ()


@dataclass
class Plan:
    """What one pass of a workload needs: instance files and operations."""

    files: dict[str, dict] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    pool: dict[str, tuple[str, int, int]] = field(default_factory=dict)


def _path(workdir: Path, name: str) -> str:
    return str(workdir / f"{name}.json")


def _extremes_p2(seed: int, workdir: Path) -> Plan:
    plan = Plan(files={k: GOLDEN[k] for k in ("conjunction_expsmall", "conjunction_theta1")})
    csv_path = str(workdir / "sweep_expsmall.csv")
    plan.ops.append(Op(
        "sweep:conjunction_expsmall:10-60/10",
        argv=("sweep", "--instance", _path(workdir, "conjunction_expsmall"), "--mode", "exact",
              "--n-from", "10", "--n-to", "60", "--step", "10", "--output", csv_path),
        csv=csv_path,
    ))
    for n in (49, 59):
        plan.ops.append(Op(
            f"exact:conjunction_theta1:{n}",
            argv=("exact", "--instance", _path(workdir, "conjunction_theta1"), "--n", str(n)),
        ))
    for family in ("exp_decay", "log_linear"):
        plan.ops.append(Op(
            f"fit:{family}:sweep_expsmall",
            argv=("fit", "--family", family, "--input", csv_path),
            drop=("input",),
        ))
    return plan


def _rational_p3(seed: int, workdir: Path) -> Plan:
    plan = Plan(files={k: GOLDEN[k] for k in P3_INSTANCES})
    mc_seed = random.Random(seed).randrange(2**32)
    for name in P3_INSTANCES:
        path = _path(workdir, name)
        plan.ops += [
            Op(f"exact-rational:{name}:{RATIONAL_N}",
               argv=("exact", "--instance", path, "--n", str(RATIONAL_N), "--value-mode", "rational")),
            Op(f"probability-rational:{name}:{BALANCED}",
               call=("exact_paradox_probability", name, BALANCED, {"value_mode": "rational"})),
            Op(f"histogram:{name}:{BALANCED}",
               call=("histogram_distribution", name, BALANCED, {})),
            Op(f"exact:{name}:{FLOAT_N}",
               argv=("exact", "--instance", path, "--n", str(FLOAT_N))),
            Op(f"mc:{name}:{RATIONAL_N}",
               argv=("mc", "--instance", path, "--n", str(RATIONAL_N),
                     "--trials", str(MC_TRIALS), "--seed", str(mc_seed)),
               check="mc"),
        ]
    return plan


def _classify(seed: int, workdir: Path) -> Plan:
    plan = Plan(files=dict(GOLDEN))
    ops = []
    for name, ladder in LADDER.items():
        for n in ladder:
            ops.append(Op(f"check:{name}:{n}",
                          argv=("check", "--instance", _path(workdir, name), "--n", str(n))))
        ops.append(Op(f"polyhedra:{name}", argv=("polyhedra", "--instance", _path(workdir, name)),
                      drop=("label",)))
    for family, spec in POOL.items():
        for index in range(spec["size"]):
            name = f"{family}_{index:02d}"
            plan.files[name] = pool_set(family, index)
            plan.pool[name] = (family, index, len(plan.files[name]["distributions"]))
            path = _path(workdir, name)
            ops.append(Op(f"check:{name}:{spec['n']}",
                          argv=("check", "--instance", path, "--n", str(spec["n"]))))
            ops.append(Op(f"polyhedra:{spec['base']}", argv=("polyhedra", "--instance", path),
                          drop=("label",)))
    # the seed orders the pass; the reachability grids are shared within a
    # pass, so the order moves which operation builds them, not the total
    random.Random(seed).shuffle(ops)
    plan.ops = ops
    return plan


WORKLOADS = {
    "extremes-p2": _extremes_p2,
    "rational-p3": _rational_p3,
    "classify": _classify,
}


def plan(workload: str, seed: int, workdir: Path) -> Plan:
    """The instance files and operations of one pass of `workload` under `seed`."""
    return WORKLOADS[workload](seed, workdir)


def write_files(files: dict[str, dict], workdir: Path) -> list[Path]:
    """Write each instance dict as `<name>.json` in `workdir`; returns the paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in files.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        paths.append(path)
    return paths
