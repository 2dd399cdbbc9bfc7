import csv
import decimal
import hashlib
import io
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradox_lab import (
    DimensionError, Instance, QuotaRule, ValidationError, classify, fit_curve, paradox_region,
    parse_instance, parse_instance_dict, smoothed_extremes,
)
from paradox_lab.instances import instance_to_dict, write_instance
from paradox_lab.likelihood import DEFAULT_TRIALS
from paradox_lab.model import format_rational
from paradox_lab import cli, fitting
from paradox_lab.cli import CSV_HEADER, build_parser, main

from conftest import INSTANCE_DIR


def _base_dict() -> dict:
    return json.loads((INSTANCE_DIR / "conjunction_theta1.json").read_text())


def test_parse_golden_instance(theta1_instance):
    inst = theta1_instance
    assert inst.agenda.p == 2
    assert inst.agenda.truth_table == (0, 0, 0, 1)
    assert inst.rule.thresholds == (Fraction(1, 2),) * 3
    assert inst.rule.breakings == (1, 1, 0)
    assert inst.distributions.members[1].weights == (
        Fraction(1, 25), Fraction(8, 25), Fraction(8, 25), Fraction(8, 25),
    )


def test_parse_single_premise_object_form(mirror_instance):
    assert mirror_instance.agenda.p == 1
    assert mirror_instance.rule.thresholds == (Fraction(1, 2), Fraction(1, 2))
    assert mirror_instance.rule.breakings == (1, 0)
    assert mirror_instance.distributions.members[0].weights == (
        Fraction(9, 10), Fraction(1, 10),
    )


def test_round_trip(tmp_path, theta1_instance, mirror_instance, three_quota_instance):
    for inst in (theta1_instance, mirror_instance, three_quota_instance):
        target = tmp_path / "copy.json"
        write_instance(inst, target)
        assert parse_instance(target) == inst


def test_parse_rejects_bad_weight_sum():
    data = _base_dict()
    data["distributions"][0] = ["1/4", "1/4", "1/4", "24/100"]
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    assert "distributions[0]" in str(err.value)


def test_parse_rejects_floats_with_path():
    data = _base_dict()
    data["thresholds"][1] = 0.5
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    assert "thresholds[1]" in str(err.value)


def test_parse_rejects_wrong_lengths():
    data = _base_dict()
    data["truth_table"] = [0, 1]
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    assert "truth_table" in str(err.value)
    data = _base_dict()
    data["breakings"] = [1, 1]
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    assert "breakings" in str(err.value)


def test_parse_rejects_unknown_keys():
    data = _base_dict()
    data["extra"] = 1
    with pytest.raises(ValidationError):
        parse_instance_dict(data)


@pytest.mark.parametrize("key, value, path", [
    (None, [], "$"),
    ("label", 7, "label"),
    ("p", 0, "p"),
    ("p", True, "p"),
    ("truth_table", "0001", "truth_table"),
    ("truth_table", [0, 0, 0, 2], "truth_table[3]"),
    ("truth_table", [0, 0, True, 1], "truth_table[2]"),
    ("thresholds", "1/2", "thresholds"),
    ("thresholds", {"premises": ["1/2"] * 2, "conclusion": "1/2", "extra": 1}, "thresholds"),
    ("thresholds", {"premises": ["1/2"] * 2}, "thresholds"),
    ("thresholds", {"premises": ["1/2"], "conclusion": "1/2"}, "thresholds.premises"),
    ("thresholds", {"premises": ["1/2", "x"], "conclusion": "1/2"}, "thresholds.premises[1]"),
    ("thresholds", {"premises": ["1/2"] * 2, "conclusion": None}, "thresholds.conclusion"),
    ("thresholds", ["1/2", True, "1/2"], "thresholds[1]"),
    ("thresholds", ["1/2", "1/2", "1/0"], "thresholds[2]"),
    ("thresholds", ["1/2", "3/2", "1/2"], "thresholds[1]"),
    ("breakings", [1, 1, 2], "breakings[2]"),
    ("distributions", [], "distributions"),
    ("distributions", ["1/4"] * 4, "distributions[0]"),
    ("distributions", [["1/4"] * 3], "distributions[0]"),
    ("distributions", [["3/2", "-1/2", "0", "0"]], "distributions[0][0]"),
    ("distributions", [["1/4"] * 4, ["1/4"] * 4], "distributions"),
    # left to the model types, and reported at the field or row path
    ("distributions", [["1/4", "1/4", "1/4", "0"]], "distributions[0]"),
    ("distributions", [["1/4"] * 4, ["2/8"] * 4], "distributions"),
    ("truth_table", [0, 1], "truth_table"),
    # a bit is a JSON integer: 1.0 is refused
    ("truth_table", [0, 0, 0, 1.0], "truth_table[3]"),
    ("breakings", [1.0, 1, 0], "breakings[0]"),
])
def test_parse_errors_name_their_field(key, value, path):
    data = value if key is None else {**_base_dict(), key: value}
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    assert err.value.path == path


def _rational_outcome(text: str, path: str):
    """What parsing ``text`` at ``path`` gives: (Fraction, None) or (None, (path, message)).

    A full match of the documented spelling, an optional "-", digits, then
    optionally "/digits" or ".digits", reads as Fraction does: a zero
    denominator reports "zero denominator" and a value outside [0, 1] says so
    with the value. Any other text is refused at ``path`` with a message this
    reference leaves unchecked (None).
    """
    if re.fullmatch(r"-?[0-9]+([/.][0-9]+)?", text) is None:
        return None, (path, None)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        return None, (path, "zero denominator")
    if not 0 <= value <= 1:
        return None, (path, f"{value} outside [0, 1]")
    return value, None


def _assert_refused(data: dict, error: tuple) -> None:
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    path, message = error
    assert err.value.path == path
    assert message is None or err.value.message == message


# ASCII digits and the other characters of a rational, decimal or exponent
# spelling, plus one non-ASCII digit; and the documented spelling itself
RATIONAL_TEXT = st.one_of(
    st.text(alphabet="0123456789/.+-e_ \u0663", max_size=10),
    st.from_regex(r"-?[0-9]{1,5}([/.][0-9]{1,5})?", fullmatch=True),
)


@given(RATIONAL_TEXT)
@settings(max_examples=400, deadline=None)
def test_rational_strings_parse_as_fraction_does(text):
    data = _base_dict()
    data["thresholds"][0] = text
    value, error = _rational_outcome(text, "thresholds[0]")
    if error is None:
        q = parse_instance_dict(data).rule.thresholds[0]
        assert type(q) is Fraction and q == value
    else:
        _assert_refused(data, error)

    # a weight: the row [text, 0, 0, 0] sums to 1 only when text reads 1
    data = _base_dict()
    data["distributions"][0] = [text, "0", "0", "0"]
    value, error = _rational_outcome(text, "distributions[0][0]")
    if error is None and value != 1:
        error = ("distributions[0]", f"vote weights must sum to 1, got {value}")
    if error is None:
        w = parse_instance_dict(data).distributions.members[0].weights[0]
        assert type(w) is Fraction and w == 1
    else:
        _assert_refused(data, error)


@pytest.mark.parametrize("text", [
    "1e4300",  # an exponent: 10**4300 has 4,301 digits
    "1e-4300",  # in [0, 1], but an exponent all the same
    pytest.param("1/" + "9" * 4301, id="4301-digit-denominator"),
    # 1/10**4300 lies in [0, 1], but its denominator has 4,301 digits
    pytest.param("0." + "0" * 4299 + "1", id="4300-digit-decimal"),
])
def test_rationals_that_would_not_print_are_refused_at_their_path(text):
    data = _base_dict()
    data["thresholds"][0] = text
    _assert_refused(data, ("thresholds[0]", None))
    data = _base_dict()
    data["distributions"][0] = [text, "0", "0", "0"]
    _assert_refused(data, ("distributions[0][0]", None))


def test_parse_reports_an_integer_literal_past_the_digit_limit(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_base_dict()).replace('"p": 2', '"p": ' + "1" * 4301))
    with pytest.raises(ValidationError) as err:
        parse_instance(path)
    assert err.value.path == "$"


def _read_rational(text: str) -> Fraction:
    """'num/den' or 'num' read at any length: libmpdec has no digit limit."""
    num, _, den = text.partition("/")
    return Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den or "1")))


@pytest.mark.parametrize("key", ["thresholds", "truth_table", "breakings"])
def test_an_integer_past_the_digit_limit_is_refused_at_its_path(key):
    # parse_instance_dict called from Python can carry any int; its message prints it
    data = _base_dict()
    data[key][0] = 10**5000
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    assert err.value.path == f"{key}[0]"
    assert "1" + "0" * 5000 in err.value.message


def test_a_weight_sum_past_the_digit_limit_is_printed():
    # each weight prints, but their sum's denominator has 5,864 digits
    data = _base_dict()
    data["distributions"][0] = [f"1/{10**3000}", f"1/{3**6000}", "0", "0"]
    with pytest.raises(ValidationError) as err:
        parse_instance_dict(data)
    assert err.value.path == "distributions[0]"
    head, _, total = err.value.message.rpartition(" ")
    assert head == "vote weights must sum to 1, got"
    assert _read_rational(total) == Fraction(1, 10**3000) + Fraction(1, 3**6000)


def test_cli_exact_prints_a_probability_past_the_digit_limit(tmp_path, capsys):
    # the one member [(10^60 - 3)/10^60, 3/10^60] at n = 80: every exact
    # probability is over 10^4800, whose 4,801 digits str() refuses
    data = json.loads((INSTANCE_DIR / "single_premise_mirror.json").read_text())
    data["distributions"] = [[f"{10**60 - 3}/{10**60}", f"3/{10**60}"]]
    path = tmp_path / "mirror60.json"
    path.write_text(json.dumps(data))
    assert main(["exact", "--instance", str(path), "--value-mode", "rational", "--n", "80"]) == 0
    payload = json.loads(capsys.readouterr().out)
    inst = parse_instance(path)
    extremes = smoothed_extremes(inst.distributions, 80, inst.rule, inst.agenda,
                                 value_mode="rational")
    assert _read_rational(payload["max"]["exact"]) == extremes.max_probability
    assert len(payload["max"]["exact"].partition("/")[2]) > 4300


def test_mismatched_instance_raises_dimension_error(mirror_instance):
    # parsing never builds one; a direct build meets the one dimension check
    with pytest.raises(DimensionError):
        Instance("mismatch", mirror_instance.agenda, QuotaRule.majority(3, (1, 1, 0)),
                 mirror_instance.distributions)


def test_non_strictly_positive_warns(tmp_path):
    data = _base_dict()
    data["distributions"][0] = ["1/2", "1/2", "0", "0"]
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(data))
    with pytest.warns(UserWarning):
        parse_instance(path)


def test_emit_uses_rational_strings(theta1_instance):
    data = instance_to_dict(theta1_instance)
    assert data["thresholds"] == ["1/2", "1/2", "1/2"]
    assert data["distributions"][1][0] == "1/25"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def _golden(name: str) -> str:
    return str(INSTANCE_DIR / name)


def test_cli_check_expsmall(capsys):
    code = main(["check", "--instance", _golden("conjunction_expsmall.json"), "--n", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == {
        "kappa1": False, "kappa2": True, "kappa3": True, "kappa4": False,
    }
    assert payload["classification"] == {"max_rate": "exp_small", "min_rate": "exp_small"}


def test_cli_check_requires_strict_positivity(tmp_path, capsys):
    data = _base_dict()
    data["distributions"][0] = ["1/2", "1/2", "0", "0"]
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(data))
    # the instance loads with a warning; classification then rejects it
    with pytest.warns(UserWarning):
        code = main(["check", "--instance", str(path), "--n", "2"])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_cli_polyhedra_region_dump(tmp_path, capsys):
    data = {
        "label": "single-premise region dump",
        "p": 1,
        "truth_table": [0, 1],
        "thresholds": ["1/4", "13/20"],
        "breakings": [1, 1],
        "distributions": [["1/2", "1/2"]],
    }
    path = tmp_path / "region.json"
    path.write_text(json.dumps(data))
    code = main(["polyhedra", "--instance", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    by_alpha = {tuple(entry["alpha"]): entry for entry in payload["polyhedra"]}
    assert set(by_alpha) == {(0, 1), (1, 0)}
    entry = by_alpha[(1, 0)]
    assert entry["A"] == [["1/4", "-3/4"], ["-13/20", "7/20"]]
    assert entry["b"] == ["0", "-1"]


def test_cli_on_long_and_exponent_thresholds(tmp_path, capsys):
    # a 4,000-digit denominator is valid and prints; an exponent is refused at its path
    data = _base_dict()
    data["thresholds"][0] = "1/1" + "0" * 3999
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    assert main(["polyhedra", "--instance", str(path)]) == 0
    assert "/1" + "0" * 3999 in capsys.readouterr().out
    data["thresholds"][0] = "1e4300"
    path.write_text(json.dumps(data))
    assert main(["check", "--instance", str(path), "--n", "2"]) == 2
    assert "thresholds[0]" in capsys.readouterr().err


def test_cli_exact_reports_witnesses(capsys):
    code = main(["exact", "--instance", _golden("conjunction_theta1.json"), "--n", "4",
                 "--value-mode", "rational"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert 0.0 <= payload["min"]["value"] <= payload["max"]["value"] <= 1.0
    assert "exact" in payload["max"]
    assert sum(payload["max"]["witness"]) == 4


def test_cli_mc_deterministic(capsys):
    argv = ["mc", "--instance", _golden("conjunction_theta1.json"), "--n", "3",
            "--trials", "20000", "--seed", "11"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["max"]["stderr"] > 0


@pytest.mark.parametrize("name, n, trials, seed, expected", [
    ("conjunction_theta1.json", 5, 3000, 4, {
        "max": {"value": 0.33, "stderr": 0.0085848704125339, "witness": [0, 5]},
        "min": {"value": 0.13633333333333333, "stderr": 0.006264890410202868,
                "witness": [5, 0]},
    }),
    ("three_premise_majority.json", 6, 50_000, 0, {
        "max": {"value": 0.17096, "stderr": 0.0016836429455202194, "witness": [0, 6]},
        "min": {"value": 0.05034, "stderr": 0.0009778127059923082, "witness": [6, 0]},
    }),
])
def test_cli_mc_output_is_pinned(capsys, name, n, trials, seed, expected):
    # the exact estimates of one draw stream: a sampler that draws other
    # judgements from the same uniforms changes them, though it repeats itself
    argv = ["mc", "--instance", _golden(name), "--n", str(n), "--trials", str(trials),
            "--seed", str(seed)]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {side: payload[side] for side in ("max", "min")} == expected


@pytest.mark.parametrize("name, n, mode, extremes", [
    ("conjunction_expsmall.json", 60, "auto", {
        "max": {"value": 0.018179126495383873, "stderr": 0.0, "witness": [60, 0]},
        "min": {"value": 0.0009127523764288856, "stderr": 0.0, "witness": [0, 60]},
    }),
    ("conjunction_theta1.json", 59, "auto", {
        "max": {"value": 0.9704612527450054, "stderr": 0.0, "witness": [0, 59]},
        "min": {"value": 0.2499824650400968, "stderr": 0.0, "witness": [59, 0]},
    }),
    ("three_premise_majority.json", 20, "float", {
        "max": {"value": 0.1685872848883509, "stderr": 0.0, "witness": [0, 20]},
        "min": {"value": 0.0023577638090064527, "stderr": 0.0, "witness": [20, 0]},
    }),
])
def test_cli_exact_float_stdout_is_pinned(capsys, name, n, mode, extremes):
    # the float64 chains to the last bit: elsewhere float extremes are compared
    # only within their error bound, so a reordered sum would pass there
    assert main(["exact", "--instance", _golden(name), "--n", str(n), "--value-mode", mode]) == 0
    label = parse_instance(_golden(name)).label
    expected = {"label": label, "n": n, "mode": "exact", **extremes}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_cli_mc_threshold_denominator_beyond_int64(tmp_path, capsys):
    data = _base_dict()
    data["thresholds"][2] = f"{5 * 10**18 + 1}/{10**19}"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    code = main(["mc", "--instance", str(path), "--n", "10", "--trials", "2000", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["min"]["value"] <= payload["max"]["value"] <= 1.0


def test_cli_sweep_csv_and_fit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--instance", _golden("conjunction_expsmall.json"),
        "--n-from", "4", "--n-to", "16", "--step", "2", "--mode", "exact",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 7
    first = lines[1].split(",")
    assert first[0] == "4"
    assert ";" in first[5]

    code = main(["fit", "--family", "log_linear", "--input", str(out),
                 "--column", "max_est"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "log_linear"
    assert payload["parameters"]["slope"] < 0
    assert payload["points"] == 7


def test_cli_sweep_mc_reproducible(tmp_path):
    argv = [
        "sweep", "--instance", _golden("conjunction_theta1.json"),
        "--n-from", "2", "--n-to", "4", "--mode", "mc",
        "--trials", "5000", "--seed", "3",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
    assert "mc" in out_a.read_text()


def test_cli_numeric_error_exit_code(tmp_path, capsys):
    # at n = 12 the probability of (12, 0), about 924 * 2^-2760, is positive but
    # below float64's range: the float64 chain returns it as 0.0, and a bool run
    # of the same chain reaches a paradox outcome, so the error check fails
    data = json.loads((INSTANCE_DIR / "single_premise_mirror.json").read_text())
    tiny = Fraction(1, 2**460)
    data["distributions"] = [[str(1 - tiny), str(tiny)], ["3/10", "7/10"]]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    argv = ["exact", "--instance", str(path), "--n", "12"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "--value-mode rational" in err
    assert main(argv + ["--value-mode", "rational"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min"]["exact"] != "0"


def test_cli_validation_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["check", "--instance", str(missing), "--n", "2"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["polyhedra", "--instance", str(bad)]) == 2


def test_cli_resource_exit_code(capsys):
    code = main(["exact", "--instance", _golden("conjunction_theta1.json"),
                 "--n", "50", "--budget-assignments", "5"])
    assert code == 3
    assert "resource error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("check", "--budget-assignments"),
                                           ("mc", "--budget-states")])
def test_cli_removed_budget_flags_exit_2(command, flag, capsys):
    # check builds no assignment and Monte Carlo no grid, so neither takes that budget
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", _golden("conjunction_theta1.json"), "--n", "3", flag, "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_fit_error_exit_codes(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("n,max_est\n1,0.5\n2,0.4\n3,0.3\n")
    # too few points surfaces as a validation failure
    assert main(["fit", "--family", "exp_decay", "--input", str(csv_path)]) == 2
    missing = tmp_path / "missing.csv"
    assert main(["fit", "--family", "exp_decay", "--input", str(missing)]) == 2


def test_cli_fit_short_row_exits_2(tmp_path, capsys):
    # the short row reads None in its missing column
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("n,max_est\n1,0.5\n2,0.4\n3\n4,0.2\n5,0.1\n")
    assert main(["fit", "--family", "log_linear", "--input", str(csv_path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: fit.input: bad CSV contents: line 4 has fewer values than the header\n"
    )


def test_cli_fit_long_row_exits_2(tmp_path, capsys):
    # csv.DictReader files the surplus value of the long row under the key None
    csv_path = tmp_path / "long.csv"
    csv_path.write_text("n,max_est\n1,0.5\n2,0.4,9\n3,0.3\n4,0.2\n5,0.1\n")
    assert main(["fit", "--family", "log_linear", "--input", str(csv_path)]) == 2
    assert capsys.readouterr().err.startswith("validation error: fit.input")


@pytest.mark.parametrize("rows, message", [
    (["20,0.5", "20,0.4", "20,0.3", "20,0.2"], "all x values are identical"),
    (["1,0.5", "2,nan", "3,0.3", "4,0.2"], "series contains non-finite values"),
])
def test_cli_fit_on_a_constant_n_or_a_nan_exits_2(rows, message, tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join(["n,max_est", *rows]) + "\n")
    for family in fitting.FAMILIES:
        assert main(["fit", "--family", family, "--input", str(csv_path)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    builds = []

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted_build)
    instance = _golden("conjunction_theta1.json")
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", instance, "--n-from", "2", "--n-to", "3",
                 "--output", str(csv_path)]) == 0
    assert csv_path.read_text().startswith(",".join(CSV_HEADER))
    check = ["check", "--instance", instance, "--n", "9"]
    assert main(check) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["check", "--instance", instance])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(check) == 0
    assert capsys.readouterr().out == first and json.loads(first)["n"] == 9
    assert len(builds) == 1
    # no value an earlier call parsed becomes a default of a later one
    fit = cli._parser.parse_args(["fit", "--family", "log_linear", "--input", str(csv_path)])
    assert fit.instance is None and fit.output is None
    assert cli._parser.parse_args(check).output is None


def test_cli_fit_without_convergence_exits_4(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "series.csv"
    rows = [f"{n},{0.3 + 0.5 * math.exp(-0.2 * n) + 0.01 * (-1) ** n!r}" for n in range(2, 20)]
    csv_path.write_text("\n".join(["n,max_est", *rows]) + "\n")
    argv = ["fit", "--family", "exp_plus_const", "--input", str(csv_path)]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 1)
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("fit error: no convergence after 1 iterations")


def test_cli_sweep_rejects_step_zero(capsys):
    code = main(["sweep", "--instance", _golden("conjunction_theta1.json"),
                 "--n-from", "2", "--n-to", "4", "--step", "0"])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("mc", ["--n", "5", "--seed", "-1"]),
    ("sweep", ["--n-from", "2", "--n-to", "3", "--mode", "exact", "--seed", "-1"]),
    ("check", ["--n", "5", "--budget-states", "-5"]),
    ("sweep", ["--n-from", "2", "--n-to", "3", "--budget-states", "-5"]),
    ("exact", ["--n", "5", "--budget-assignments", "-5"]),
])
def test_cli_negative_seed_exits_2_naming_the_seed(command, extra, capsys, monkeypatch):
    # the seed and both budgets are rejected before any run, also by an exact
    # sweep that never reads the seed; a negative budget is no budget overrun
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the flags were checked")

    monkeypatch.setattr(cli, "smoothed_extremes", no_run)
    monkeypatch.setattr(cli, "classify", no_run)
    flag, value = extra[-2:]
    assert main([command, "--instance", _golden("conjunction_theta1.json"), *extra]) == 2
    assert capsys.readouterr().err == (
        f"validation error: {flag}: expected a non-negative integer, got {value}\n")


@pytest.mark.parametrize("command, extra", [
    ("mc", ["--n", "5", "--trials", "0"]),
    ("sweep", ["--n-from", "3", "--n-to", "4", "--mode", "mc", "--trials", "0"]),
    ("sweep", ["--n-from", "3", "--n-to", "4", "--mode", "exact", "--trials", "0"]),
    ("sweep", ["--n-from", "3", "--n-to", "4", "--mode", "exact", "--trials", "-5"]),
])
def test_cli_trials_below_one_exits_2_naming_the_flag(command, extra, capsys, monkeypatch):
    # every command that takes --trials rejects a count below 1 before any
    # run, also an exact sweep, which never reads it
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the flags were checked")

    monkeypatch.setattr(cli, "smoothed_extremes", no_run)
    value = extra[-1]
    assert main([command, "--instance", _golden("conjunction_theta1.json"), *extra]) == 2
    assert capsys.readouterr().err == (
        f"validation error: --trials: expected a positive integer, got {value}\n")


def test_cli_io_errors_exit_2(tmp_path, capsys, monkeypatch):
    # the destination is checked before the first row: no row runs
    def no_rows(*args, **kwargs):
        raise AssertionError("a sweep row ran before the output was checked")

    monkeypatch.setattr(cli, "smoothed_extremes", no_rows)
    for unwritable in (tmp_path / "missing-dir" / "sweep.csv", tmp_path):
        code = main(["sweep", "--instance", _golden("conjunction_theta1.json"),
                     "--n-from", "2", "--n-to", "3", "--output", str(unwritable)])
        assert code == 2
        assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "missing-dir").exists()
    code = main(["fit", "--family", "exp_decay", "--input", str(tmp_path)])
    assert code == 2
    assert "validation error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Stdout format: each command's text rebuilt from the library's extremes
# ---------------------------------------------------------------------------


def _extremes_report(extremes) -> dict:
    def side(value, stderr, witness):
        out = {"value": float(value)}
        if isinstance(value, Fraction):
            out["exact"] = format_rational(value)
        return {**out, "stderr": stderr, "witness": list(witness.counts)}

    return {
        "n": extremes.n,
        "mode": extremes.mode,
        "max": side(extremes.max_probability, extremes.max_stderr, extremes.max_witness),
        "min": side(extremes.min_probability, extremes.min_stderr, extremes.min_witness),
    }


def _sweep_csv(inst, values, mode, seed, trials=DEFAULT_TRIALS) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for n in values:
        row_seed = int(np.random.SeedSequence(entropy=(seed, n)).generate_state(1)[0])
        ext = smoothed_extremes(inst.distributions, n, inst.rule, inst.agenda,
                                mode=mode, trials=trials, seed=row_seed)
        writer.writerow([
            str(n), repr(float(ext.max_probability)), repr(float(ext.max_stderr)),
            repr(float(ext.min_probability)), repr(float(ext.min_stderr)),
            ";".join(map(str, ext.max_witness.counts)),
            ";".join(map(str, ext.min_witness.counts)), ext.mode,
        ])
    return buffer.getvalue()


def test_cli_stdout_is_the_library_result_in_a_fixed_format(
    tmp_path, capsys, theta1_instance, expsmall_instance, mirror_instance
):
    inst, path = theta1_instance, _golden("conjunction_theta1.json")
    for n, value_mode in ((7, "auto"), (5, "rational")):
        assert main(["exact", "--instance", path, "--n", str(n), "--value-mode", value_mode]) == 0
        ext = smoothed_extremes(inst.distributions, n, inst.rule, inst.agenda,
                                mode="exact", value_mode=value_mode)
        expected = {"label": inst.label, **_extremes_report(ext)}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    assert main(["mc", "--instance", path, "--n", "5", "--trials", "3000", "--seed", "4"]) == 0
    ext = smoothed_extremes(inst.distributions, 5, inst.rule, inst.agenda,
                            mode="mc", trials=3000, seed=4)
    expected = {"label": inst.label, "trials": 3000, "seed": 4, **_extremes_report(ext)}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    assert main(["sweep", "--instance", _golden("conjunction_expsmall.json"),
                 "--n-from", "4", "--n-to", "16", "--step", "3"]) == 0
    expected = _sweep_csv(expsmall_instance, range(4, 17, 3), "exact", 0)
    assert capsys.readouterr().out == expected

    # one parity branch: the odd n of 2..9
    assert main(["sweep", "--instance", _golden("single_premise_mirror.json"),
                 "--n-from", "3", "--n-to", "9", "--step", "2",
                 "--mode", "mc", "--trials", "2000", "--seed", "5"]) == 0
    expected = _sweep_csv(mirror_instance, (3, 5, 7, 9), "mc", 5, trials=2000)
    assert capsys.readouterr().out == expected

    assert main(["check", "--instance", path, "--n", "11"]) == 0
    result = classify(inst.distributions, inst.rule, inst.agenda, 11)
    expected = {
        "label": inst.label,
        "n": 11,
        "kappa": dict(zip(("kappa1", "kappa2", "kappa3", "kappa4"), result.kappas)),
        "classification": {"max_rate": result.max_rate.value,
                           "min_rate": result.min_rate.value},
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    assert main(["polyhedra", "--instance", path]) == 0
    expected = {
        "label": inst.label,
        "polyhedra": [
            {
                "alpha": list(poly.alpha),
                "A": [[format_rational(v) for v in row] for row in poly.A],
                "b": [format_rational(v) for v in poly.b],
                "b_exact": [format_rational(v) for v in poly.b_exact],
            }
            for poly in paradox_region(inst.rule, inst.agenda)
        ],
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(_sweep_csv(expsmall_instance, range(4, 17, 2), "exact", 0))
    assert main(["fit", "--family", "log_linear", "--input", str(csv_path),
                 "--column", "min_est"]) == 0
    series = [(float(row["n"]), float(row["min_est"]))
              for row in csv.DictReader(io.StringIO(csv_path.read_text()))]
    expected = {"input": str(csv_path), "column": "min_est", "points": 7,
                **fit_curve(series, "log_linear").as_dict()}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def _ten_member_p2(tmp_path) -> str:
    """A fixed ten-member set on the expsmall rule, from a named seed."""
    data = json.loads((INSTANCE_DIR / "conjunction_expsmall.json").read_text())
    rng = random.Random("ten-member p=2 set")
    rows = []
    while len(rows) < 10:
        ints = [rng.randint(1, 20) for _ in range(4)]
        row = [format_rational(Fraction(x, sum(ints))) for x in ints]
        if row not in rows:
            rows.append(row)
    data["label"] = "ten members, two premises, conjunction"
    data["distributions"] = rows
    path = tmp_path / "ten_member_p2.json"
    path.write_text(json.dumps(data))
    return str(path)


# sha256 of the stdout of check (n = 9 and 40) and polyhedra, recorded before
# the integer vote forms: every κ flag, rate and halfspace row byte for byte
KAPPA_STDOUT_SHA256 = {
    "conjunction_expsmall.json": {
        "check --n 9": "abd425c57f1f3ad6101e3934e218c30f9fbfc20f10e2222b7c98acf728bf0e50",
        "check --n 40": "f57667133e1854a46ab8c973b6e96d9f09ca4c6dc45ee5ef283ac904dc6c94c5",
        "polyhedra": "391433359385415a0e6dc78db771be59c717910d7a94313d9eb09568e23366cd",
    },
    "conjunction_theta1.json": {
        "check --n 9": "7c73b29a9c995b7773ef487af95c4b83eeb33bc1e1b32dc2cd6b993675b09e5b",
        "check --n 40": "6d041a231d2a618ce86810bc5aa4a113096aff769bfba7992195aea20d71e328",
        "polyhedra": "59faf8cd55056207305ced51520f1cc268373437e4ec4e756bb60ddffc495b9f",
    },
    "single_premise_mirror.json": {
        "check --n 9": "dc7334c9fbdaab130b62efb8c29c55ca29b51c56c7702893d87e97b5131bf68e",
        "check --n 40": "3f5f11479a3041097f282578b3e149c0a83eb75f8fac29797141097656b12e02",
        "polyhedra": "7528f21400a978fc010b18cc18a471f3371457d30fdf1c593c7e3b4b4d6519aa",
    },
    "three_premise_majority.json": {
        "check --n 9": "4f62d741c7b3df4b3b3260379da5b38256655180c4f3d69891b347663831937b",
        "check --n 40": "7fb562c412fe1643acee28ca84a62f536a0ad40abda79b200ee0a2106266cf48",
        "polyhedra": "7a89187f92bc51f40a63ffbb1aa396efcdd10011db49de94e72ab0913fcd2f83",
    },
    "three_premise_quota.json": {
        "check --n 9": "8658c253d0770eb0f555b1941da07f1f82d70e63cb5e19790d4f59e13534eb87",
        "check --n 40": "9a9e6536addcdc09a1fc3826addf6f19654e666d7e561c7f78d8c169be66d6c1",
        "polyhedra": "5d0e337a343a7d7a190a93e060f287c674cff6997cacf0060334103d48ba54c3",
    },
    "ten_member_p2": {
        "check --n 9": "69feafe8f67e2860b7d8b62dbdfc8f5af5f65c86c0e4ad41413a23893d206909",
        "check --n 40": "4a90c9431f211055d034bccfa7edb20bf854fcf4524b476700f00115c8cfce56",
        "polyhedra": "9f9acdf173bbbeff48f7164bbd90991b70af60870e724367678b761a66d596cc",
    },
}


@pytest.mark.parametrize("name", [
    "conjunction_expsmall.json", "conjunction_theta1.json", "single_premise_mirror.json",
    "three_premise_majority.json", "three_premise_quota.json", "ten_member_p2",
])
def test_cli_kappa_commands_stdout_is_pinned(tmp_path, capsys, name):
    path = _ten_member_p2(tmp_path) if name == "ten_member_p2" else _golden(name)
    digests = {}
    for argv in (["check", "--n", "9"], ["check", "--n", "40"], ["polyhedra"]):
        assert main(argv + ["--instance", path]) == 0
        digests[" ".join(argv)] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == KAPPA_STDOUT_SHA256[name]
