import json
from fractions import Fraction

import pytest

from paradox_lab import ValidationError, parse_instance, parse_instance_dict
from paradox_lab.instances import instance_to_dict, write_instance
from paradox_lab.cli import CSV_HEADER, main

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


def test_non_strictly_positive_warns_or_raises(tmp_path):
    data = _base_dict()
    data["distributions"][0] = ["1/2", "1/2", "0", "0"]
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(data))
    with pytest.warns(UserWarning):
        parse_instance(path)
    with pytest.raises(ValidationError):
        parse_instance(path, require_strictly_positive=True)


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


def test_cli_sweep_parity_filter(capsys):
    code = main([
        "sweep", "--instance", _golden("single_premise_mirror.json"),
        "--n-from", "2", "--n-to", "9", "--parity", "even", "--mode", "exact",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "4", "6", "8"]


def test_run_command_direct_surface(theta1_instance):
    from paradox_lab.cli import run_command
    from paradox_lab.likelihood import (
        DEFAULT_ASSIGNMENT_BUDGET, DEFAULT_STATE_BUDGET,
    )

    options = {
        "n": 3,
        "budget_states": DEFAULT_STATE_BUDGET,
        "budget_assignments": DEFAULT_ASSIGNMENT_BUDGET,
        "trials": 1000,
        "seed": 0,
    }
    report = run_command("check", theta1_instance, options)
    assert report["kappa"]["kappa1"] is False
    report = run_command("polyhedra", theta1_instance, options)
    assert len(report["polyhedra"]) == 4
    with pytest.raises(ValidationError):
        run_command("nope", theta1_instance, options)


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
    # below float64's range, so the longdouble chain fails its error check
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


def test_cli_fit_error_exit_codes(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("n,max_est\n1,0.5\n2,0.4\n3,0.3\n")
    # too few points surfaces as a validation failure
    assert main(["fit", "--family", "exp_decay", "--input", str(csv_path)]) == 2
    missing = tmp_path / "missing.csv"
    assert main(["fit", "--family", "exp_decay", "--input", str(missing)]) == 2
