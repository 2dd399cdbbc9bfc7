"""Command-line surface: condition checks, extremes, sweeps, fits, region dumps.

Exit codes: 0 success, 2 validation error or a float result that fails its
error check, 3 resource budget exceeded, 4 fit failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import FitError, ResourceBudgetError, ValidationError
from .model import format_rational
from .polyhedra import paradox_region
from .likelihood import (
    DEFAULT_ASSIGNMENT_BUDGET,
    DEFAULT_STATE_BUDGET,
    DEFAULT_TRIALS,
    SmoothedExtremes,
    classify,
    smoothed_extremes,
)
from .fitting import FAMILIES, fit_curve
from .instances import Instance, parse_instance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_FIT = 4

CSV_HEADER = ("n", "max_est", "max_se", "min_est", "min_se",
              "max_witness", "min_witness", "mode")


@dataclass(frozen=True)
class SweepRow:
    n: int
    max_est: float
    max_se: float
    min_est: float
    min_se: float
    max_witness: tuple[int, ...]
    min_witness: tuple[int, ...]
    mode: str

    def as_csv(self) -> list[str]:
        return [
            str(self.n),
            repr(float(self.max_est)),
            repr(float(self.max_se)),
            repr(float(self.min_est)),
            repr(float(self.min_se)),
            ";".join(str(c) for c in self.max_witness),
            ";".join(str(c) for c in self.min_witness),
            self.mode,
        ]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow(row.as_csv())
        return buffer.getvalue()


def _row_from_extremes(extremes: SmoothedExtremes) -> SweepRow:
    return SweepRow(
        n=extremes.n,
        max_est=float(extremes.max_probability),
        max_se=float(extremes.max_stderr),
        min_est=float(extremes.min_probability),
        min_se=float(extremes.min_stderr),
        max_witness=extremes.max_witness.counts,
        min_witness=extremes.min_witness.counts,
        mode=extremes.mode,
    )


def _probability_json(value) -> dict:
    out = {"value": float(value)}
    if isinstance(value, Fraction):
        out["exact"] = format_rational(value)
    return out


def _extremes_json(extremes: SmoothedExtremes) -> dict:
    return {
        "n": extremes.n,
        "mode": extremes.mode,
        "max": {
            **_probability_json(extremes.max_probability),
            "stderr": extremes.max_stderr,
            "witness": list(extremes.max_witness.counts),
        },
        "min": {
            **_probability_json(extremes.min_probability),
            "stderr": extremes.min_stderr,
            "witness": list(extremes.min_witness.counts),
        },
    }


def _cmd_check(instance: Instance, options: dict) -> dict:
    n = options["n"]
    result = classify(
        instance.distributions, instance.rule, instance.agenda, n,
        state_budget=options["budget_states"],
    )
    return {
        "label": instance.label,
        "n": n,
        "kappa": {f"kappa{i + 1}": flag for i, flag in enumerate(result.kappas)},
        "classification": {
            "max_rate": result.max_rate.value,
            "min_rate": result.min_rate.value,
        },
    }


def _cmd_exact(instance: Instance, options: dict) -> dict:
    extremes = smoothed_extremes(
        instance.distributions, options["n"], instance.rule, instance.agenda,
        mode="exact",
        value_mode=options.get("value_mode", "auto"),
        assignment_budget=options["budget_assignments"],
        state_budget=options["budget_states"],
    )
    return {"label": instance.label, **_extremes_json(extremes)}


def _cmd_mc(instance: Instance, options: dict) -> dict:
    extremes = smoothed_extremes(
        instance.distributions, options["n"], instance.rule, instance.agenda,
        mode="mc",
        trials=options["trials"],
        seed=options["seed"],
        assignment_budget=options["budget_assignments"],
        state_budget=options["budget_states"],
    )
    return {
        "label": instance.label,
        "trials": options["trials"],
        "seed": options["seed"],
        **_extremes_json(extremes),
    }


def _sweep_values(options: dict) -> list[int]:
    start, stop = options["n_from"], options["n_to"]
    step = options.get("step") or 1
    if start < 1 or stop < start or step < 1:
        raise ValidationError("sweep", f"bad range [{start}, {stop}] step {step}")
    values = list(range(start, stop + 1, step))
    parity = options.get("parity", "all")
    if parity == "odd":
        values = [n for n in values if n % 2 == 1]
    elif parity == "even":
        values = [n for n in values if n % 2 == 0]
    elif parity != "all":
        raise ValidationError("sweep.parity", f"expected odd|even|all, got {parity!r}")
    if not values:
        raise ValidationError("sweep", "range selects no n values")
    return values


def _cmd_sweep(instance: Instance, options: dict) -> SweepResult:
    rows = []
    for n in _sweep_values(options):
        # each row gets its own stream family so estimates are independent
        # across n while staying a pure function of (seed, n)
        row_seed = int(
            np.random.SeedSequence(entropy=(options["seed"], n)).generate_state(1)[0]
        )
        extremes = smoothed_extremes(
            instance.distributions, n, instance.rule, instance.agenda,
            mode=options.get("mode", "exact"),
            trials=options["trials"],
            seed=row_seed,
            value_mode=options.get("value_mode", "auto"),
            assignment_budget=options["budget_assignments"],
            state_budget=options["budget_states"],
        )
        rows.append(_row_from_extremes(extremes))
    return SweepResult(tuple(rows))


def _cmd_fit(options: dict) -> dict:
    path = options["input"]
    column = options.get("column", "max_est")
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise ValidationError(
                    "fit.input", f"CSV has no column {column!r} (columns: {reader.fieldnames})"
                )
            series = [(float(row["n"]), float(row[column])) for row in reader]
    except FileNotFoundError:
        raise ValidationError("fit.input", f"no such file: {path}") from None
    except (KeyError, ValueError) as exc:
        raise ValidationError("fit.input", f"bad CSV contents: {exc}") from None
    result = fit_curve(series, options["family"])
    return {"input": str(path), "column": column, "points": len(series), **result.as_dict()}


def _cmd_polyhedra(instance: Instance) -> dict:
    region = paradox_region(instance.rule, instance.agenda)
    return {
        "label": instance.label,
        "polyhedra": [
            {
                "alpha": list(poly.alpha),
                "A": [[format_rational(v) for v in row] for row in poly.A],
                "b": [format_rational(v) for v in poly.b],
                "b_exact": [format_rational(v) for v in poly.b_exact],
            }
            for poly in region.polyhedra
        ],
    }


def run_command(command: str, instance: Optional[Instance], options: dict):
    """Dispatch one subcommand; returns a JSON-ready dict or a SweepResult."""
    if command == "check":
        return _cmd_check(instance, options)
    if command == "exact":
        return _cmd_exact(instance, options)
    if command == "mc":
        return _cmd_mc(instance, options)
    if command == "sweep":
        return _cmd_sweep(instance, options)
    if command == "fit":
        return _cmd_fit(options)
    if command == "polyhedra":
        return _cmd_polyhedra(instance)
    raise ValidationError("command", f"unknown command {command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradox-lab",
        description="Quota-rule judgement aggregation and paradox likelihood analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("--instance", required=True, help="instance JSON file")

    def add_budgets(p):
        p.add_argument("--budget-states", type=int, default=DEFAULT_STATE_BUDGET,
                       help="cap on probability/feasibility grid cells")
        p.add_argument("--budget-assignments", type=int, default=DEFAULT_ASSIGNMENT_BUDGET,
                       help="cap on the number of distribution assignments")

    p = sub.add_parser("check", help="condition flags and asymptotic classification")
    add_instance(p)
    p.add_argument("--n", type=int, required=True)
    add_budgets(p)

    p = sub.add_parser("exact", help="exact max/min paradox probability over assignments")
    add_instance(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--value-mode", choices=("auto", "rational", "float"), default="auto")
    add_budgets(p)

    p = sub.add_parser("mc", help="Monte Carlo max/min paradox probability")
    add_instance(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    add_budgets(p)

    p = sub.add_parser("sweep", help="extremes over a range of n, emitted as CSV")
    add_instance(p)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--parity", choices=("odd", "even", "all"), default="all")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--value-mode", choices=("auto", "rational", "float"), default="auto")
    p.add_argument("--output", help="write CSV here instead of stdout")
    add_budgets(p)

    p = sub.add_parser("fit", help="fit an asymptotic curve family to sweep CSV output")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--input", required=True, help="CSV file with n and estimate columns")
    p.add_argument("--column", default="max_est", help="value column to fit (default max_est)")

    p = sub.add_parser("polyhedra", help="dump the halfspace systems of all paradox outcomes")
    add_instance(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    options = vars(args).copy()
    command = options.pop("command")
    try:
        instance = None
        if "instance" in options:
            # condition checking and classification require strict positivity
            instance = parse_instance(
                options.pop("instance"),
                require_strictly_positive=(command == "check"),
            )
        result = run_command(command, instance, options)
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"numeric error: {exc}; rerun with --value-mode rational", file=sys.stderr)
        return EXIT_VALIDATION

    if isinstance(result, SweepResult):
        text = result.to_csv()
        output = options.get("output")
        if output:
            with open(output, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    else:
        print(json.dumps(result, indent=2))
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
