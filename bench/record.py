"""Record the reference answers in reference.json from the program as it is now.

    python3 bench/record.py

Runs one pass of every workload and stores each operation's answer. For a
Monte Carlo operation it stores instead the exact rational probability of
every assignment at that n, which `checks.check_mc` compares the estimate
with. Re-record only when a change is meant to alter an answer.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def record() -> dict:
    reference = {}
    for workload in workloads.WORKLOADS:
        workdir = run.WORK / f"record-{workload}"
        runner = run.Runner(workload, 0, workdir, {})
        try:
            timing = runner.one_pass()
            program = run.Program()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        unexpected = [f for f in runner.failures if "no reference answer" not in f]
        if unexpected:
            raise SystemExit("operations failed:\n" + "\n".join(unexpected))
        answers = dict(runner.answers)
        for op in timing["plan"].ops:
            if op.check == "mc":
                answers[op.key] = exact_table(program, op)
        reference[workload] = dict(sorted(answers.items()))
        print(f"{workload}: {len(answers)} answers, pass {sum(timing['op_wall']):.2f} s", file=sys.stderr)
    return reference


def exact_table(program: run.Program, op: workloads.Op) -> dict[str, str]:
    """Exact probability of every assignment of the op's instance at its n."""
    _, name, n = op.key.split(":")
    inst = program.instances.parse_instance_dict(workloads.GOLDEN[name])
    likelihood = program.likelihood
    return {
        ";".join(map(str, counts)): str(likelihood.exact_paradox_probability(
            counts, inst.distributions, inst.rule, inst.agenda, value_mode="rational"))
        for counts in likelihood.compositions(int(n), inst.distributions.size)
    }


if __name__ == "__main__":
    if not run.use_checkout_sources():
        raise SystemExit(f"no paradox_lab sources under {run.SRC}")
    checks.REFERENCE_PATH.write_text(json.dumps(record(), indent=1) + "\n")
