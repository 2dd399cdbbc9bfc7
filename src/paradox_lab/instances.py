"""Instance files: parsing, validation with field paths, and serialization.

An instance bundles an agenda, a quota rule, and a distribution set:

    {
      "label": "two premises, conjunction",
      "p": 2,
      "truth_table": [0, 0, 0, 1],
      "thresholds": ["1/2", "1/2", "1/2"],
      "breakings": [1, 1, 0],
      "distributions": [["1/4", "1/4", "1/4", "1/4"],
                        ["1/25", "8/25", "8/25", "8/25"]]
    }

Rationals are integers or strings that :func:`~paradox_lab.model.as_rational`
reads ("1/2", "1" or the exact decimal "0.5"); floats are rejected so values
stay exact end to end. thresholds and breakings are arrays of length p+1 whose
final entry belongs to the conclusion; the object form {"premises": [...],
"conclusion": ...} is accepted as an equivalent spelling.

Parsing checks only what the model types cannot: JSON types and lengths,
entry bits, and each entry's [0, 1] range, so that the error names the entry.
The model types check the truth table's length, each row's sum of 1, distinct
members and matching dimensions; their ValueError, like as_rational's
TypeError or ValueError for a bad rational, is reported at the field or row
path.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import ValidationError
from .model import Agenda, FractionalVote, QuotaRule, as_rational, format_rational
from .conditions import DistributionSet, _check_inputs


@dataclass(frozen=True)
class Instance:
    """One fully specified experiment: agenda, rule, and distribution set."""

    label: str
    agenda: Agenda
    rule: QuotaRule
    distributions: DistributionSet

    def __post_init__(self):
        _check_inputs(self.distributions, self.rule, self.agenda)


def _built(path: str, make, *args):
    """``make(*args)``, its TypeError, ValueError or zero denominator reported at ``path``."""
    try:
        return make(*args)
    except ZeroDivisionError:
        raise ValidationError(path, "zero denominator") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(path, str(exc)) from None


def _rational(value, path: str) -> Fraction:
    q = _built(path, as_rational, value)
    if q.numerator < 0 or q.numerator > q.denominator:
        raise ValidationError(path, f"{format_rational(q)} outside [0, 1]")
    return q


def _bit(value, path: str) -> int:
    if type(value) is not int or value not in (0, 1):
        shown = format_rational(value) if type(value) is int else repr(value)
        raise ValidationError(path, f"expected 0 or 1, got {shown}")
    return value


def _proposition_array(value, p: int, path: str, parse_entry) -> list:
    """Length p+1 array, or {"premises": [...], "conclusion": ...}."""
    if isinstance(value, dict):
        unknown = set(value) - {"premises", "conclusion"}
        if unknown:
            raise ValidationError(path, f"unknown keys {sorted(unknown)}")
        if "premises" not in value or "conclusion" not in value:
            raise ValidationError(path, "object form needs 'premises' and 'conclusion'")
        premises = value["premises"]
        if not isinstance(premises, list) or len(premises) != p:
            raise ValidationError(f"{path}.premises", f"expected a list of length p={p}")
        entries = [
            parse_entry(v, f"{path}.premises[{i}]") for i, v in enumerate(premises)
        ]
        entries.append(parse_entry(value["conclusion"], f"{path}.conclusion"))
        return entries
    if not isinstance(value, list):
        raise ValidationError(path, "expected a list or a premises/conclusion object")
    if len(value) != p + 1:
        raise ValidationError(
            path, f"expected {p + 1} entries (p premises plus the conclusion), got {len(value)}"
        )
    return [parse_entry(v, f"{path}[{i}]") for i, v in enumerate(value)]


def parse_instance_dict(data: dict) -> Instance:
    """Validate and build an Instance from parsed JSON; errors carry field paths."""
    if not isinstance(data, dict):
        raise ValidationError("$", f"expected an object, got {type(data).__name__}")
    unknown = set(data) - {"label", "p", "truth_table", "thresholds", "breakings", "distributions"}
    if unknown:
        raise ValidationError("$", f"unknown keys {sorted(unknown)}")

    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValidationError("label", "expected a string")

    p = data.get("p")
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValidationError("p", f"expected a positive integer, got {p!r}")

    table = data.get("truth_table")
    if not isinstance(table, list):
        raise ValidationError("truth_table", "expected a list")
    truth_table = tuple(_bit(v, f"truth_table[{i}]") for i, v in enumerate(table))
    agenda = _built("truth_table", Agenda, p, truth_table)

    thresholds = _proposition_array(data.get("thresholds"), p, "thresholds", _rational)
    breakings = _proposition_array(data.get("breakings"), p, "breakings", _bit)
    rule = QuotaRule(tuple(thresholds), tuple(breakings))

    raw_dists = data.get("distributions")
    if not isinstance(raw_dists, list):
        raise ValidationError("distributions", "expected a list of distributions")
    members = []
    for k, row in enumerate(raw_dists):
        path = f"distributions[{k}]"
        if not isinstance(row, list) or len(row) != agenda.m:
            raise ValidationError(path, f"expected a list of length 2^p = {agenda.m}")
        weights = tuple(_rational(v, f"{path}[{j}]") for j, v in enumerate(row))
        members.append(_built(path, FractionalVote, weights))
    dists = _built("distributions", DistributionSet, tuple(members))

    return Instance(label, agenda, rule, dists)


def parse_instance(path: Union[str, Path]) -> Instance:
    """Load and validate an instance file.

    A distribution set that is not strictly positive loads with a
    UserWarning: probabilities are defined for it, but condition checking
    and classification reject it (:func:`~paradox_lab.likelihood.classify`
    raises ValueError).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ValidationError("$", f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # also an integer literal past the digit limit, or bytes that are not UTF-8
        raise ValidationError("$", f"invalid JSON: {exc}") from None
    instance = parse_instance_dict(data)
    if not instance.distributions.is_strictly_positive:
        warnings.warn(
            "distribution set is not strictly positive "
            f"(smallest weight {instance.distributions.epsilon})",
            stacklevel=2,
        )
    return instance


def instance_to_dict(instance: Instance) -> dict:
    """Canonical JSON-ready form; parse_instance_dict inverts it exactly."""
    return {
        "label": instance.label,
        "p": instance.agenda.p,
        "truth_table": list(instance.agenda.truth_table),
        "thresholds": [format_rational(q) for q in instance.rule.thresholds],
        "breakings": list(instance.rule.breakings),
        "distributions": [
            [format_rational(w) for w in member.weights]
            for member in instance.distributions.members
        ],
    }


def write_instance(instance: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")
