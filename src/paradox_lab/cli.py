"""Command-line surface: condition checks, extremes, sweeps, fits, region dumps.

:func:`main` builds its argparse parser on its first call and reuses it in
every later call of the process; :func:`build_parser` returns a fresh one.

Exit codes: 0 success, 2 validation error or a float result that fails its
error check, 3 resource budget exceeded, 4 fit failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
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
from .instances import parse_instance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_FIT = 4

CSV_HEADER = ("n", "max_est", "max_se", "min_est", "min_se",
              "max_witness", "min_witness", "mode")


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


def _cmd_check(args: argparse.Namespace) -> dict:
    instance = args.instance
    result = classify(
        instance.distributions, instance.rule, instance.agenda, args.n,
        state_budget=args.budget_states,
    )
    return {
        "label": instance.label,
        "n": args.n,
        "kappa": {f"kappa{i + 1}": flag for i, flag in enumerate(result.kappas)},
        "classification": {
            "max_rate": result.max_rate.value,
            "min_rate": result.min_rate.value,
        },
    }


def _extremes(args: argparse.Namespace, n: int, **engine) -> SmoothedExtremes:
    """The one call into :func:`smoothed_extremes` behind ``exact``, ``mc`` and ``sweep``."""
    instance = args.instance
    return smoothed_extremes(
        instance.distributions, n, instance.rule, instance.agenda,
        assignment_budget=args.budget_assignments, **engine,
    )


def _cmd_exact(args: argparse.Namespace) -> dict:
    extremes = _extremes(args, args.n, mode="exact", value_mode=args.value_mode,
                         state_budget=args.budget_states)
    return {"label": args.instance.label, **_extremes_json(extremes)}


def _cmd_mc(args: argparse.Namespace) -> dict:
    extremes = _extremes(args, args.n, mode="mc", trials=args.trials, seed=args.seed)
    return {
        "label": args.instance.label,
        "trials": args.trials,
        "seed": args.seed,
        **_extremes_json(extremes),
    }


def _cmd_sweep(args: argparse.Namespace) -> str:
    """The sweep as CSV text, one row per n."""
    if args.n_from < 1 or args.n_to < args.n_from or args.step < 1:
        raise ValidationError("sweep", f"bad range [{args.n_from}, {args.n_to}] step {args.step}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for n in range(args.n_from, args.n_to + 1, args.step):
        # each row gets its own stream family so estimates are independent
        # across n while staying a pure function of (seed, n)
        row_seed = int(np.random.SeedSequence(entropy=(args.seed, n)).generate_state(1)[0])
        extremes = _extremes(args, n, mode=args.mode, trials=args.trials, seed=row_seed,
                             value_mode=args.value_mode, state_budget=args.budget_states)
        writer.writerow([
            n,
            float(extremes.max_probability),
            float(extremes.max_stderr),
            float(extremes.min_probability),
            float(extremes.min_stderr),
            ";".join(map(str, extremes.max_witness.counts)),
            ";".join(map(str, extremes.min_witness.counts)),
            extremes.mode,
        ])
    return buffer.getvalue()


def _cmd_fit(args: argparse.Namespace) -> dict:
    try:
        with open(args.input, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or args.column not in reader.fieldnames:
                raise ValueError(f"no column {args.column!r} (columns: {reader.fieldnames})")
            series = []
            for row in reader:
                # a long row files its surplus values under the key None
                if None in row:
                    raise ValueError(f"line {reader.line_num} has more values than the header")
                # and a short row reads None in its missing columns
                if None in row.values():
                    raise ValueError(f"line {reader.line_num} has fewer values than the header")
                series.append((float(row["n"]), float(row[args.column])))
    except OSError as exc:
        raise ValidationError("fit.input", f"cannot read {args.input}: {exc}") from None
    except (KeyError, ValueError) as exc:
        raise ValidationError("fit.input", f"bad CSV contents: {exc}") from None
    result = fit_curve(series, args.family)
    return {"input": args.input, "column": args.column, "points": len(series), **result.as_dict()}


def _cmd_polyhedra(args: argparse.Namespace) -> dict:
    # the polyhedra share their signed rows: each row object is rendered once
    rendered = {}

    def render(row: tuple) -> list:
        if id(row) not in rendered:
            rendered[id(row)] = [format_rational(v) for v in row]
        return rendered[id(row)]

    return {
        "label": args.instance.label,
        "polyhedra": [
            {
                "alpha": list(poly.alpha),
                "A": [render(row) for row in poly.A],
                "b": [format_rational(v) for v in poly.b],
                "b_exact": [format_rational(v) for v in poly.b_exact],
            }
            for poly in paradox_region(args.instance.rule, args.instance.agenda)
        ],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradox-lab",
        description="Quota-rule judgement aggregation and paradox likelihood analysis",
    )
    # fit reads no instance and only sweep writes a file
    parser.set_defaults(instance=None, output=None)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands; each command takes the budgets it can exceed
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", required=True, help="instance JSON file")
    states = argparse.ArgumentParser(add_help=False)
    states.add_argument("--budget-states", type=int, default=DEFAULT_STATE_BUDGET,
                        help="cap on probability/feasibility grid entries")
    assignments = argparse.ArgumentParser(add_help=False)
    assignments.add_argument("--budget-assignments", type=int, default=DEFAULT_ASSIGNMENT_BUDGET,
                             help="cap on the number of distribution assignments")
    values = argparse.ArgumentParser(add_help=False)
    values.add_argument("--value-mode", choices=("auto", "rational", "float"), default="auto")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sampling.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check", parents=[instance, states],
                       help="condition flags and asymptotic classification")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("exact", parents=[instance, states, assignments, values],
                       help="exact max/min paradox probability over assignments")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_exact)

    p = sub.add_parser("mc", parents=[instance, assignments, sampling],
                       help="Monte Carlo max/min paradox probability")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_mc)

    p = sub.add_parser("sweep", parents=[instance, states, assignments, values, sampling],
                       help="extremes over a range of n, emitted as CSV")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("fit", help="fit an asymptotic curve family to sweep CSV output")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--input", required=True, help="CSV file with n and estimate columns")
    p.add_argument("--column", default="max_est", help="value column to fit (default max_est)")
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("polyhedra", parents=[instance],
                       help="dump the halfspace systems of all paradox outcomes")
    p.set_defaults(run=_cmd_polyhedra)

    return parser


def _check_writable(path: str) -> None:
    """Raise ValidationError unless ``path`` is a writable file or its directory can take one."""
    if os.path.exists(path):
        writable = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        directory = os.path.dirname(os.path.abspath(path))
        writable = os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)
    if not writable:
        raise ValidationError("sweep.output", f"cannot write {path}")


#: The parser of every :func:`main` call in this process, built by the first.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    # parse_args writes only to the namespace it returns, so calls share nothing
    args = _parser.parse_args(argv)
    try:
        # flags a command lacks read 0
        for flag in ("--seed", "--budget-states", "--budget-assignments"):
            value = getattr(args, flag[2:].replace("-", "_"), 0)
            if value < 0:
                raise ValidationError(flag, f"expected a non-negative integer, got {value}")
        # an exact sweep never reads --trials, but takes the flag, so checks it
        trials = getattr(args, "trials", 1)
        if trials < 1:
            raise ValidationError("--trials", f"expected a positive integer, got {trials}")
        if args.instance is not None:
            args.instance = parse_instance(args.instance)
        if args.output:
            _check_writable(args.output)
        # a JSON-ready dict, or CSV text for sweep
        result = args.run(args)
        text = result if isinstance(result, str) else json.dumps(result, indent=2) + "\n"
        if args.output:
            try:
                with open(args.output, "w") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ValidationError("sweep.output", f"cannot write {args.output}: {exc}") from None
        else:
            sys.stdout.write(text)
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"numeric error: {exc}; rerun with --value-mode rational", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
