"""Benchmark of the esfem CLI studies, run from the root of a checkout:

    python3 perfbench/run.py --workload maxreg-ellipsoid --seed 1 --seconds 60 --trace 0

Every execution is one ``esfem.cli.main([<command>, "--config", <ini>,
"--out", <dir>])`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread, run one after another (a closed loop with a single client).  The
benchmark keeps starting executions while the next one should end within
``--seconds``, checks each one's outputs (``checks.py``), and prints every
metric by name with its unit, then one JSON object as the last line.

``--trace 0`` reports the end-to-end metrics: medians over the executions
of the ``cli.main`` wall time, the set-up time (spawn until ``esfem.cli`` is
imported, also sampled by import-only spawns), the peak RSS, and the
workload's fixed dofs x steps per second of wall time.  ``--trace 1``
alternates untraced and traced executions and reports the per-layer metrics
of the traced execution with the median wall time (``tracer.py``).  It also
checks that traced outputs are byte-identical to untraced ones, that the
counts repeat exactly between traced executions, and that the solver
counts add up.  The JSON's ``failed``/``attempted`` give the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check, load_references
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_run"

SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 50.0

THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "dof_steps_per_s": "1/s"}


def _unit(metric):
    if metric.endswith(".s"):
        return "s"
    return {"timestepping.step_ms": "ms", "sparse.matvec.gb_computed": "GB",
            "sparse.cg.iters_per_solve": "iter/solve",
            "studies.output_bytes": "B", "trace.overhead": "ratio"}.get(metric, "count")


def _is_count(metric):
    return _unit(metric) not in ("s", "ms", "ratio")


class Execution:
    def __init__(self, traced):
        self.traced = traced
        self.result = None
        self.outputs = {}
        self.problems = []


def spawn(args, env, cwd):
    """Run child.py; its JSON result with setup_s added, or raise RuntimeError."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), *args],
            env=env, cwd=cwd, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported_at"] - start
    return result


def _read_outputs(outdir):
    out = {}
    for path in sorted(Path(outdir).iterdir()):
        out[path.name] = path.read_bytes()
    return out


def _execute(workload, seed, traced, ini, workdir, index, env, references):
    ex = Execution(traced)
    outdir = os.path.join(workdir, f"out{index}")
    try:
        ex.result = spawn(
            ["run", "1" if traced else "0", workload.command,
             "--config", ini, "--out", outdir], env, workdir)
    except RuntimeError as exc:
        ex.problems.append(f"execution failed: {exc}")
        return ex
    if ex.result["rc"] != 0:
        ex.problems.append(f"esfem exited with {ex.result['rc']}")
    ex.problems += check(workload, seed, outdir, references)
    if os.path.isdir(outdir):
        ex.outputs = _read_outputs(outdir)
        shutil.rmtree(outdir)
    return ex


def _self_tests(workload, executions):
    """Attach trace self-test failures to the traced executions."""
    untraced = [ex for ex in executions if not ex.traced and ex.outputs]
    traced = [ex for ex in executions if ex.traced and ex.result]
    first_counts = None
    for ex in traced:
        layers = ex.result["layers"]
        if untraced and ex.outputs != untraced[0].outputs:
            ex.problems.append("traced outputs differ from untraced outputs")
        counts = {k: v for k, v in layers.items() if _is_count(k)}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            diff = sorted(k for k in counts if counts[k] != first_counts.get(k))
            ex.problems.append(f"counts differ between traced runs: {diff}")
        if workload.command == "maxreg":
            want = 2 * layers["timestepping.steps"] + 2 * layers["timestepping.solve_heat.calls"]
            if layers["sparse.cg.calls"] != want:
                ex.problems.append(f"recount: sparse.cg.calls {layers['sparse.cg.calls']}"
                                   f" != 2*steps + 2*solves = {want}")
        if layers["timestepping.dof_steps"] != workload.work + workload.uncounted:
            ex.problems.append(f"dof-steps {layers['timestepping.dof_steps']} != "
                               f"{workload.work} + {workload.uncounted} stored")
        if layers["trace.other.s"] < 0:
            ex.problems.append("layer self times exceed the traced wall time")


def _metrics(workload, executions, trace, setups):
    ran = [ex for ex in executions if ex.result]
    untraced = [ex.result for ex in ran if not ex.traced]
    if not untraced:
        return None
    wall = statistics.median(r["wall_s"] for r in untraced)
    if not trace:
        return {
            "wall_s": wall,
            "setup_s": statistics.median(setups + [ex.result["setup_s"] for ex in ran]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "dof_steps_per_s": workload.work / wall,
        }
    traced = sorted((ex for ex in ran if ex.traced), key=lambda ex: ex.result["wall_s"])
    if not traced:
        return None
    chosen = traced[(len(traced) - 1) // 2]
    metrics = dict(chosen.result["layers"])
    metrics["studies.output_bytes"] = sum(len(b) for b in chosen.outputs.values())
    metrics["trace.overhead"] = chosen.result["wall_s"] / wall
    return metrics


def child_env():
    env = dict(os.environ, **THREADS, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    env.pop("ESFEM_OUTDIR", None)
    return env


def run(workload, seed, seconds, trace, workdir):
    references = load_references()
    env = child_env()
    ini = os.path.join(workdir, "config.ini")
    with open(ini, "w", encoding="ascii") as fh:
        fh.write(workload.ini(seed))
    # the first import compiles bytecode; it is not a set-up sample
    environment = spawn(["import"], env, workdir)["environment"]
    setups = [spawn(["import"], env, workdir)["setup_s"] for _ in range(SETUP_SPAWNS)]

    plan = [False, True, True] if trace else [False]
    executions = []
    start = last = time.monotonic()
    while True:
        now = time.monotonic()
        # after the planned executions, start one only if it should end in time
        if len(executions) >= len(plan) and now + (now - last) > start + seconds:
            break
        last = now
        traced = plan[len(executions)] if len(executions) < len(plan) else (
            trace and not executions[-1].traced)
        executions.append(_execute(workload, seed, traced, ini, workdir,
                                   len(executions), env, references))
    if trace:
        _self_tests(workload, executions)
    metrics = _metrics(workload, executions, trace, setups)
    failed = sum(1 for ex in executions if ex.problems)
    for i, ex in enumerate(executions):
        if ex.result:
            print(f"execution {i}{' traced' if ex.traced else ''}: wall "
                  f"{ex.result['wall_s']:.4f} s, set-up {ex.result['setup_s']:.4f} s,"
                  f" peak RSS {ex.result['peak_rss_mb']:.1f} MB")
        for problem in ex.problems:
            print(f"execution {i}: {problem}", file=sys.stderr)
    if metrics is None:
        print("no execution produced a result", file=sys.stderr)
        return 1

    print(f"workload {workload.name}  seed {seed}  executions {len(executions)}"
          f"  traced {sum(ex.traced for ex in executions)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    units = END_TO_END_UNITS if not trace else {k: _unit(k) for k in metrics}
    for name in units:
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'error_rate':34s} {failed / len(executions):>16.6g} "
          f"({failed} failed of {len(executions)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills the running execution
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "esfem" / "__init__.py").is_file():
        print(f"no esfem sources under {SRC}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUNS)
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"esfem could not be imported: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
