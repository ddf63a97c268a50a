"""sl-extremal benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a source checkout: the package is imported from
./src and the CLI output schema is read from ./schemas.  The workload's tasks
run in a closed loop on one thread (each starts when the previous one has
returned) with the library defaults, in whole passes, as many as bring the
measured time nearest to ``--seconds`` (at least one).  After each pass its
outputs are checked against exact references (perfbench/exact.py).

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate (see tracing.py), the
result carries the per-layer metrics, and the spans are written to
perfbench/out/.  A context line (host, inputs digest, src line count,
acceptance criteria covered, tail percentile) precedes the result line.
``--workload all`` runs every workload both ways and ends with one combined
result line.
"""

from __future__ import annotations

import os

# one thread: no BLAS pools, and the package's own sweep threads stay at
# their default of one
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SL_EXTREMAL_THREADS", None)

import argparse
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import workloads
from tracing import PER_LAYER, Tracer, layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "cli-output.schema.json"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 7
# Errors at or below this count as exact: rounding-level differences between
# two correct versions must not read as accuracy regressions, and the metric
# is never 0.
ERR_FLOOR = 1e-12

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("task_p50_ms", "ms"),
              ("task_tail_ms", "ms"), ("err_max", "rel"), ("peak_rss_mb", "MB")]


def import_package():
    if not (SRC / "sl_extremal" / "__init__.py").is_file() or not SCHEMA.is_file():
        raise SystemExit("perfbench: src/sl_extremal or schemas/ not found; "
                         "run from the root of an sl-extremal checkout")
    sys.path.insert(0, str(SRC))
    import sl_extremal
    from sl_extremal import cli

    if Path(sl_extremal.__file__).resolve().parent != (SRC / "sl_extremal").resolve():
        raise SystemExit(f"perfbench: imported {sl_extremal.__file__}, not ./src")
    return sl_extremal, cli


def setup(name, seed):
    """Everything before the first task: the package's imports and input
    generation.  The check phase's own imports come later."""
    pkg, cli = import_package()
    lib = types.SimpleNamespace(
        cli_main=cli.main,
        **{n: getattr(pkg, n) for n in (
            "lambda1", "lambda1_fd", "pnorm", "wminus1_dist", "statement1_family",
            "statement2_family", "search_extremum", "StepPotential", "Potential",
            "RobinBC", "ExtremumSearchSpec", "SpikeTrainSpec")})
    tasks = workloads.build(name, seed, lib)
    plain = json.dumps([[t.kind, t.params, t.panel] for t in tasks], sort_keys=True)
    return lib, tasks, hashlib.sha256(plain.encode()).hexdigest()


def schema_validator():
    import jsonschema

    return jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text("utf-8")))


def time_setup(name, seed):
    """Median over fresh interpreters of the time to the first task."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times, digests = [], set()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise SystemExit(f"perfbench: setup probe failed: {err.strip()}")
        times.append(elapsed)
        digests.add(line.split()[1])
    return statistics.median(times), digests


def run_pass(tasks, api, p, tracer=None):
    """Run pass ``p``: the tasks in order, each starting when the previous
    one has returned.

    Returns (records, wall): one (pass, task index, seconds, output, error)
    record per task, and the pass's wall time.
    """
    clock = time.perf_counter
    records = []
    pass_start = clock()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = (p, i)
        start = clock()
        try:
            out, error = workloads.run_task(task, api), None
        except Exception:  # a failing task is counted, not fatal
            out, error = None, traceback.format_exc(limit=3)
        records.append((p, i, clock() - start, out, error))
    return records, clock() - pass_start


class Tally:
    """Checks each pass's outputs after the pass and keeps only the
    verdicts, so that stored outputs do not grow the process."""

    def __init__(self, tasks, checker):
        self.tasks, self.checker = tasks, checker
        self.attempted = self.failed = 0
        self.worst = 0.0  # over panel tasks only
        self.task_ms: list[float] = []
        self.messages: list[str] = []

    def add(self, records):
        for _, i, seconds, out, error in records:
            task = self.tasks[i]
            self.attempted += 1
            self.task_ms.append(seconds * 1e3)
            fails = [error] if error else []
            if out is not None:
                try:
                    bad, errs = self.checker.check(task, out)
                except Exception:
                    bad, errs = [traceback.format_exc(limit=3)], []
                fails += bad
                if task.panel:
                    self.worst = max([self.worst] + [e for _, e in errs])
            if fails:
                self.failed += 1
                self.messages.append(f"{task.kind} {task.params}: {fails[0]}")


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def context(args, tasks, digest):
    import numpy
    import scipy

    src_lines = sum(len(p.read_text("utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "inputs_sha256": digest,
        "tasks_per_pass": len(tasks), "panel_tasks": sum(t.panel for t in tasks),
        "criteria": workloads.CRITERIA[args.workload], "src_lines": src_lines,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
    }


def run_all(args):
    """Every workload, untraced and then traced, one fresh interpreter at a
    time; prints each run's lines, then one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: {name} --trace {trace} exited {proc.returncode}")
            lines = proc.stdout.splitlines()
            print(*lines[-2:], sep="\n", flush=True)
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        *_, digest = setup(args.workload, args.seed)
        print("ready", digest, flush=True)
        return 0

    import_package()  # fail before spawning anything outside a checkout
    if args.workload == "all":
        return run_all(args)
    setup_s, probe_digests = time_setup(args.workload, args.seed)
    lib, tasks, digest = setup(args.workload, args.seed)
    if probe_digests != {digest}:
        raise SystemExit("perfbench: the same seed generated different inputs")
    validator = schema_validator() if args.workload == "certify" else None
    tally = Tally(tasks, workloads.Checker(lib, validator))
    ctx = context(args, tasks, digest)

    if not args.trace:
        # whole passes only, so every run times the same mix of tasks; stop
        # when another pass would end more than half a pass past --seconds
        walls = []
        for p in itertools.count():
            records, wall = run_pass(tasks, lib, p)
            tally.add(records)
            walls.append(wall)
            if sum(walls) + wall / 2 > args.seconds:
                break
        tail_ms, tail_pct = tail(tally.task_ms)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "task_p50_ms": statistics.median(tally.task_ms),
            "task_tail_ms": tail_ms,
            "err_max": max(ERR_FLOOR, tally.worst),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        ctx.update(passes=len(walls), tail_percentile=tail_pct, task_samples=len(tally.task_ms))
    else:
        # untraced and traced passes alternate, in whole pairs
        tracer = Tracer()
        plain_walls, walls = [], []
        for p in itertools.count():
            records, wall = run_pass(tasks, lib, p)
            tally.add(records)
            plain_walls.append(wall)
            api = tracer.install(lib)
            try:
                records, wall = run_pass(tasks, api, p, tracer=tracer)
            finally:
                tracer.uninstall()
            tally.add(records)
            walls.append(wall)
            if sum(plain_walls) + sum(walls) + plain_walls[-1] + walls[-1] > args.seconds:
                break
        layer = layer_metrics(tracer, len(walls), {(0, i) for i in range(len(tasks))},
                              tally.checker, sum(walls) / len(walls),
                              sum(plain_walls) / len(plain_walls))
        metrics = {m: {"value": float(value), "unit": u} for m, (value, u) in layer.items()}
        ctx.update(passes=len(walls), untraced_passes=len(plain_walls), absent=tracer.absent)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json", ctx)

    ctx["failed_ratio"] = tally.failed / tally.attempted
    for message in tally.messages[:5]:
        print("perfbench: FAILED", message.strip().replace("\n", " | "), file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
