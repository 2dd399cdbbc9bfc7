"""Tests of the benchmark itself: generator, tracing and error counting.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import GOLDEN, Op, Plan  # noqa: E402


def _tiny(seed: int, workdir: Path) -> Plan:
    """A pass that touches every traced layer in well under a second."""
    quota, expsmall = (str(workdir / f"{n}.json") for n in ("three_premise_quota", "conjunction_expsmall"))
    csv_path = str(workdir / "sweep.csv")
    return Plan(
        files={n: GOLDEN[n] for n in ("three_premise_quota", "conjunction_expsmall")},
        ops=[
            Op("check", argv=("check", "--instance", quota, "--n", "8")),
            Op("polyhedra", argv=("polyhedra", "--instance", quota), drop=("label",)),
            Op("sweep", csv=csv_path,
               argv=("sweep", "--instance", expsmall, "--n-from", "6", "--n-to", "14",
                     "--step", "2", "--output", csv_path)),
            Op("fit", argv=("fit", "--family", "log_linear", "--input", csv_path), drop=("input",)),
            Op("probability", call=("exact_paradox_probability", "three_premise_quota", (2, 1),
                                    {"value_mode": "rational"})),
            Op("histogram", call=("histogram_distribution", "three_premise_quota", (1, 1), {})),
            Op("mc:three_premise_quota:3", check="mc",
               argv=("mc", "--instance", quota, "--n", "3", "--trials", "2000", "--seed", str(seed))),
        ],
    )


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A Runner factory for the tiny workload; restores the imported program afterwards."""
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "paradox_lab"}
    yield lambda reference: run.Runner("tiny", 3, tmp_path / "work", reference)
    for name in [k for k in sys.modules if k.split(".")[0] == "paradox_lab"]:
        del sys.modules[name]
    sys.modules.update(saved)


def _reference(runner: run.Runner) -> dict:
    reference = dict(runner.answers)
    plan = _tiny(0, Path("."))
    mc = next(op for op in plan.ops if op.check == "mc")
    reference[mc.key] = record.exact_table(run.Program(), mc)
    return reference


def test_generator_is_deterministic_per_seed(tmp_path):
    first = workloads.plan("classify", 7, tmp_path)
    again = workloads.plan("classify", 7, tmp_path)
    other = workloads.plan("classify", 8, tmp_path)
    assert first.files == again.files and first.ops == again.ops
    assert [op.key for op in first.ops] != [op.key for op in other.ops]
    paths = workloads.write_files(first.files, tmp_path / "a")
    again_paths = workloads.write_files(again.files, tmp_path / "b")
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in again_paths]
    for name, (family, index, members) in first.pool.items():
        data = workloads.pool_set(family, index)
        assert data == first.files[name] and len(data["distributions"]) == members
        for row in data["distributions"]:
            weights = [Fraction(w) for w in row]
            assert sum(weights) == 1 and min(weights) > 0


def test_traced_answers_equal_untraced_and_wrappers_are_removed(tiny):
    plain = tiny({})
    plain.one_pass()
    traced = tiny({})
    tracer = spans.Tracer()
    traced.one_pass(tracer)
    assert traced.answers == plain.answers
    names = {span.name for span in tracer.spans}
    assert {f"{module}.{fn}" for module, fn in spans.TRACED} <= names
    by_index = tracer.spans
    # classify reaches kappa_conditions through the name likelihood imported
    assert any(
        s.name == "conditions.kappa_conditions" and by_index[s.parent].name == "likelihood.classify"
        for s in by_index
    )
    for name, module in sys.modules.items():
        if name.split(".")[0] == "paradox_lab":
            assert not any(hasattr(v, "__wrapped__") for v in vars(module).values() if callable(v))


def test_wrong_reference_counts_as_failure(tiny):
    first = tiny({})
    first.one_pass()
    reference = _reference(first)
    clean = tiny(reference)
    clean.one_pass()
    assert clean.failures == [] and clean.attempted == 7

    wrong = json.loads(json.dumps(reference))
    wrong["check"]["classification"]["max_rate"] = "no such rate"
    wrong["probability"] = "1/3"
    rows = wrong["sweep"]
    rows[1][1] *= 1 + 1e-6
    runner = tiny(wrong)
    runner.one_pass()
    assert sorted(f.split(":")[0] for f in runner.failures) == ["check", "probability", "sweep"]

    wrong_mc = json.loads(json.dumps(reference))
    table = wrong_mc["mc:three_premise_quota:3"]
    for key in table:
        table[key] = "1"
    runner = tiny(wrong_mc)
    runner.one_pass()
    assert [f.split(": ")[0] for f in runner.failures] == ["mc:three_premise_quota:3"]


def test_float_tolerance_and_self_time():
    checks.compare({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]})
    with pytest.raises(checks.Mismatch):
        checks.compare({"a": [1.0, "x"]}, {"a": [1.0 + 1e-6, "x"]})
    with pytest.raises(checks.Mismatch):
        checks.compare([True], [1])
    spans_ = [
        spans.Span("cli.main", 0.0, 10.0, -1),
        spans.Span("likelihood.classify", 1.0, 7.0, 0),
        spans.Span("conditions.kappa_conditions", 2.0, 6.0, 1),
        spans.Span("instances.parse_instance", 8.0, 9.0, 0),
    ]
    totals = spans.layer_totals(spans_)
    assert totals["cli.main"]["self_s"] == 3.0
    assert totals["likelihood.classify"]["self_s"] == 2.0
    assert spans.pass_metrics(spans_)["cli.main.self_s"] == 3.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0 and result.stdout == ""
