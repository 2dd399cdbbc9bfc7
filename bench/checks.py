"""Turning operation outputs into answers and comparing them with the references.

Rationals, κ flags, classifications and witnesses compare exactly; floats
compare to a relative 1e-9. A Monte Carlo extreme passes when it lies within
four standard errors of the exact probability of its own witness assignment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
FLOAT_RTOL = 1e-9
MC_SIGMAS = 4.0


class Mismatch(Exception):
    """An answer that differs from its reference."""


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def csv_answer(path: str) -> list:
    """Sweep CSV rows with numeric columns parsed."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return [header] + [
        [int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]), r[5], r[6], r[7]]
        for r in body
    ]


def library_answer(value) -> object:
    """JSON-ready answer of a library call: a probability or a histogram law."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    # HistogramDistribution: its exact law, summarized by a digest of every entry
    items = sorted(value.probabilities.items())
    digest = hashlib.sha256(
        "\n".join(f"{hist}:{prob}" for hist, prob in items).encode()
    ).hexdigest()
    return {
        "agents": value.agents,
        "states": len(items),
        "total": str(value.total()),
        "sha256": digest,
    }


def compare(expected, got, where: str = "$") -> None:
    """Raise Mismatch unless `got` equals `expected` (floats to FLOAT_RTOL)."""
    if isinstance(expected, bool) or isinstance(got, bool):
        if expected is not got:
            raise Mismatch(f"{where}: expected {expected!r}, got {got!r}")
    elif isinstance(expected, float) or isinstance(got, float):
        if not (isinstance(got, (int, float)) and isinstance(expected, (int, float))):
            raise Mismatch(f"{where}: expected {expected!r}, got {got!r}")
        if not math.isclose(expected, got, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            raise Mismatch(f"{where}: expected {expected!r}, got {got!r}")
    elif isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            raise Mismatch(f"{where}: keys {sorted(expected)} != {sorted(got)}")
        for key in expected:
            compare(expected[key], got[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            raise Mismatch(f"{where}: length {len(expected)} != {len(got)}")
        for i, (a, b) in enumerate(zip(expected, got)):
            compare(a, b, f"{where}[{i}]")
    elif expected != got:
        raise Mismatch(f"{where}: expected {expected!r}, got {got!r}")


def check_mc(exact_by_witness: dict, answer: dict) -> None:
    """Each MC extreme within MC_SIGMAS standard errors of its witness's exact value.

    The standard error is the larger of the reported one and the one the
    exact probability implies, so an estimate of 0 for a rare event still
    gets a non-zero allowance.
    """
    trials = answer["trials"]
    for side in ("max", "min"):
        entry = answer[side]
        witness = ";".join(str(c) for c in entry["witness"])
        if witness not in exact_by_witness:
            raise Mismatch(f"$.{side}.witness: {witness} is not an assignment at n={answer['n']}")
        exact = Fraction(exact_by_witness[witness])
        se = max(entry["stderr"], math.sqrt(float(exact * (1 - exact)) / trials))
        if abs(entry["value"] - float(exact)) > MC_SIGMAS * se:
            raise Mismatch(
                f"$.{side}: estimate {entry['value']} is more than {MC_SIGMAS} standard "
                f"errors ({se:.3g}) from the exact {float(exact)} of {witness}"
            )
