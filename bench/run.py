"""paradox-lab benchmark: one workload, closed loop, one client, in this process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run repeats passes of the workload's
operations (see workloads.py) until S seconds have passed. Before each pass
it sets up afresh: it imports `paradox_lab` from `src/` anew, so no cache of
the program survives from one pass to the next, writes the workload's
instance files and parses them. CLI commands go through
`paradox_lab.cli.main` with their stdout captured; library calls are made
only where no command exists. Every answer is checked against
`reference.json`.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
medians over passes: wall_s and cpu_s of a pass, setup_s of a set-up, and
peak_rss_mb of the process. With `--trace 1`, passes alternate untraced and
traced; the metrics are the per-layer ones from the traced passes, plus
trace.overhead_s (traced minus untraced median wall_s), and the spans go to
`bench/_work/trace-<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("cli", "instances", "conditions", "likelihood", "fitting", "polyhedra")
MIN_PASSES = 3
MAX_RUN_SECONDS = 120.0


def forget_program() -> None:
    """Drop every imported paradox_lab module and free what their caches held."""
    for name in [n for n in sys.modules if n.split(".")[0] == "paradox_lab"]:
        del sys.modules[name]
    gc.collect()


class Program:
    """The `paradox_lab` modules of one fresh import."""

    def __init__(self):
        package = importlib.import_module("paradox_lab")
        if Path(package.__file__).resolve().parent != (SRC / "paradox_lab").resolve():
            raise RuntimeError(f"imported paradox_lab from {package.__file__}, not from {SRC}")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"paradox_lab.{layer}"))


def run_op(op: workloads.Op, program: Program, instances: dict):
    """Run one operation and return its answer; raises on failure."""
    if op.call:
        function, name, counts, kwargs = op.call
        inst = instances[name]
        fn = getattr(program.likelihood, function)
        if function == "histogram_distribution":
            return checks.library_answer(fn(counts, inst.distributions))
        return checks.library_answer(fn(counts, inst.distributions, inst.rule, inst.agenda, **kwargs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = program.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    answer = checks.csv_answer(op.csv) if op.csv else json.loads(out.getvalue())
    for key in op.drop:
        answer.pop(key, None)
    return answer


def check_op(op: workloads.Op, answer, reference: dict) -> None:
    if op.key not in reference:
        raise checks.Mismatch(f"no reference answer for {op.key}")
    if op.check == "mc":
        checks.check_mc(reference[op.key], answer)
    else:
        checks.compare(reference[op.key], answer)


class Runner:
    """Runs passes of one workload and keeps their timings and failures."""

    def __init__(self, workload: str, seed: int, workdir: Path, reference: dict):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.answers: dict[str, object] = {}

    def one_pass(self, tracer: spans.Tracer | None = None) -> dict:
        """Set up afresh, then run every operation once; returns the pass's timings."""
        forget_program()
        start = time.perf_counter()
        program = Program()
        if tracer is not None:
            tracer.install()
        try:
            plan = workloads.plan(self.workload, self.seed, self.workdir)
            paths = workloads.write_files(plan.files, self.workdir)
            instances = {path.stem: program.instances.parse_instance(path) for path in paths}
            setup_s = time.perf_counter() - start
            op_wall, op_cpu = [], []
            for op in plan.ops:
                self.attempted += 1
                context = tracer.span("op", key=op.key) if tracer else contextlib.nullcontext()
                wall0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    with context:
                        answer = run_op(op, program, instances)
                    op_wall.append(time.perf_counter() - wall0)
                    op_cpu.append(time.process_time() - cpu0)
                    self.answers[op.key] = answer
                    check_op(op, answer, self.reference)
                except Exception as exc:  # every failed operation is counted, the run goes on
                    op_wall.append(time.perf_counter() - wall0)
                    op_cpu.append(time.process_time() - cpu0)
                    self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return {"setup_s": setup_s, "op_wall": op_wall, "op_cpu": op_cpu, "plan": plan}
        finally:
            if tracer is not None:
                tracer.remove()


def typical_pass(passes: list[dict], column: str) -> float:
    """Sum over the pass's operations of each operation's fastest time across passes.

    Other tenants of a shared machine slow a process by up to 2x in bursts
    that last seconds, and the burst level drifts over minutes. The fastest
    of N runs of an operation (as `timeit` reports) moves far less with them
    than the median of N passes does.
    """
    return sum(min(samples) for samples in zip(*(p[column] for p in passes)))


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict | None]:
    """Repeat passes for about `seconds`; returns the metrics and, when traced, the trace.

    Once MIN_PASSES untraced passes are done, a pass starts only if at
    least half of a median pass fits before `seconds`, so a run ends within
    about half a pass of `seconds`.
    """
    start = time.perf_counter()
    plain, traced, layer_passes, span_log, lengths = [], [], [], [], []
    while True:
        tracer = spans.Tracer() if trace and len(plain) > len(traced) else None
        pass_start = time.perf_counter()
        timing = runner.one_pass(tracer)
        lengths.append(time.perf_counter() - pass_start)
        (traced if tracer else plain).append(timing)
        if tracer is not None:
            layer_passes.append(spans.pass_metrics(tracer.spans))
            span_log.append(tracer.spans)
        print(f"pass {len(plain) + len(traced)}{' traced' if tracer else ''}: "
              f"setup {timing['setup_s']:.4f} s, wall {sum(timing['op_wall']):.3f} s, "
              f"cpu {sum(timing['op_cpu']):.3f} s", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_PASSES and (traced or not trace):
            if elapsed + statistics.median(lengths) / 2 > seconds or elapsed > MAX_RUN_SECONDS:
                break

    wall = typical_pass(plain, "op_wall")
    if not trace:
        return {
            "wall_s": (wall, "s"),
            "cpu_s": (typical_pass(plain, "op_cpu"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (statistics.median(t["setup_s"] for t in plain), "s"),
        }, None
    metrics = {name: (value, spans.unit(name)) for name, value in spans.median_metrics(layer_passes).items()}
    traced_wall = typical_pass(traced, "op_wall")
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    return metrics, {"passes": span_log, "plan": traced[-1]["plan"],
                     "wall_s": {"untraced": wall, "traced": traced_wall}}


def set_records(trace: dict) -> list[dict]:
    """Size and κ time of every pool set in the traced passes, for the heavy tail."""
    records = []
    pool = trace["plan"].pool
    for number, pass_spans in enumerate(trace["passes"]):
        roots = []
        for span in pass_spans:
            roots.append(span if span.parent < 0 else roots[span.parent])
        kappa: dict[str, float] = {}
        for span, root in zip(pass_spans, roots):
            if span.name == "conditions.kappa_conditions":
                key = root.counts.get("key", "")
                kappa[key] = kappa.get(key, 0.0) + span.seconds
        for key, seconds in kappa.items():
            name = key.split(":")[1]
            if name in pool:
                family, index, members = pool[name]
                records.append({"pass": number, "set": name, "family": family,
                                "members": members, "kappa_s": seconds})
    return records


def write_trace(path: Path, workload: str, seed: int, trace: dict) -> None:
    sets = set_records(trace)
    payload = {
        "workload": workload,
        "seed": seed,
        "wall_s": trace["wall_s"],
        "sets": sets,
        "passes": [
            [[s.name, s.start, s.end, s.parent, s.counts] for s in pass_spans]
            for pass_spans in trace["passes"]
        ],
    }
    path.write_text(json.dumps(payload) + "\n")
    if sets:
        slowest = sorted(sets, key=lambda r: r["kappa_s"], reverse=True)[:5]
        print("slowest κ checks: " + ", ".join(
            f"{r['set']} ({r['members']} members) {r['kappa_s']:.3f} s" for r in slowest
        ), file=sys.stderr)


def use_checkout_sources() -> bool:
    """Put the checkout's `src/` first on the path; False when it holds no paradox_lab."""
    if not (SRC / "paradox_lab" / "__init__.py").is_file():
        return False
    # one client, one thread: the sweep thread pool stays off
    os.environ.pop("PARADOX_LAB_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  a dependency, loaded once so set-up times the program alone
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"error: no paradox_lab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    reference = checks.load_reference()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, workdir, reference.get(args.workload, {}))
    try:
        metrics, trace = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace is not None:
        write_trace(WORK / f"trace-{args.workload}-{args.seed}.json", args.workload, args.seed, trace)
    for failure in runner.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
