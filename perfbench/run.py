"""qbattery sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the simulator is imported from ``src/``.  The
benchmark builds the workload's inputs from the seed, times the set-up of a
fresh interpreter, runs whole passes of the workload through the public API
until ``--seconds`` have passed (at least one), checks every output against an
independent reference, and prints the metrics.  With ``--trace 1`` it runs
one untraced pass (and, for a 2-worker workload, one more at one worker),
then one pass at one worker with span wrappers installed, and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object.  The benchmark never sets a BLAS thread variable; it records them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl
from setup_probe import parse_inputs
from tracing import Tracer, layer_metrics

# Set-up launches per group; one group runs before the timed passes, one
# after them and one after the check, so that the median spans the run.
SETUP_LAUNCHES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {"ops_per_s": "1/s", "cpu_s_per_op": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "experiment_cli.engine.self_s": "s",
    "experiment_cli.emit_outputs.s": "s",
    "experiment_cli.pool.cpu_util": "ratio",
    "battery_dynamics.power_trace.calls": "count",
    "battery_dynamics.power_trace.self_s": "s",
    "battery_dynamics.refine.evals": "evals/trace",
    "battery_dynamics.refine.s": "s",
    "dense_linalg.expm.grid.matrices": "count",
    "dense_linalg.expm.grid.s": "s",
    "dense_linalg.expm.refine.calls": "count",
    "dense_linalg.expm.refine.s": "s",
    "dense_linalg.expm.solve_s": "s",
    "dense_linalg.expm.squarings": "count",
    "dense_linalg.expm.gflop": "GFLOP",
    "dense_linalg.expm.gflop_per_s": "GFLOP/s",
    "dense_linalg.hermitian_eig.calls": "count",
    "dense_linalg.hermitian_eig.vector_calls": "count",
    "dense_linalg.hermitian_eig.s": "s",
    "dense_linalg.hermitian_eig.gflop": "GFLOP",
    "dense_linalg.hermitian_eig.repeat_frac": "ratio",
    "model_builders.build.s": "s",
    "model_builders.normalize_spectrum.s": "s",
    "state_prep.ground_state.s": "s",
    "tensor_core.embed_site.calls": "count",
    "tensor_core.embed_site.s": "s",
    "experiment_cli.self_s": "s",
    "battery_dynamics.self_s": "s",
    "dense_linalg.self_s": "s",
    "model_builders.self_s": "s",
    "state_prep.self_s": "s",
    "tensor_core.self_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "fail_frac": "ratio",
}


def _record(root: str, args, workers: int) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "qbattery")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workers": workers, "git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _setup_launches(cmd: list[str], times: list[float]) -> None:
    """Wall times of fresh interpreters that import qbattery and parse the
    workload's inputs, appended to ``times``."""
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)


def _timed_pass(workload, parsed, workers, outdir):
    os.makedirs(outdir, exist_ok=True)
    c0, t0 = os.times(), time.perf_counter()
    out = wl.run_pass(workload, parsed, workers, outdir)
    wall, c1 = time.perf_counter() - t0, os.times()
    own = (c1.user - c0.user) + (c1.system - c0.system)
    kids = (c1.children_user - c0.children_user) + (c1.children_system - c0.children_system)
    return {"wall": wall, "cpu": own + kids, "worker_cpu": kids if workers > 1 else own, "out": out}


def run(args, toy: bool = False) -> dict | None:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qbattery", "__init__.py")):
        print(f"error: no qbattery sources under {src}; run from the repository root", file=sys.stderr)
        return None
    workload, workers = args.workload, wl.WORKERS[args.workload]
    outdir = os.path.join(root, ".perfbench_out", f"{workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    record = _record(root, args, workers)

    inputs = wl.make_inputs(workload, args.seed, toy)
    inputs_path = os.path.join(outdir, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(wl.as_json(workload, inputs), fh, indent=1)
    setup_cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), src, inputs_path]
    setup_times: list[float] = []
    _setup_launches(setup_cmd, setup_times)

    sys.path.insert(0, src)
    import qbattery

    if os.path.dirname(os.path.abspath(qbattery.__file__)) != os.path.join(src, "qbattery"):
        print(f"error: qbattery imported from {qbattery.__file__}, not {src}", file=sys.stderr)
        return None
    parsed = parse_inputs(wl.as_json(workload, inputs))
    ops = wl.op_count(workload, inputs)

    # Whole passes while the next one is expected to end within --seconds;
    # a traced run needs only one untraced pass.  Peak RSS is read after the
    # first pass, before later passes' kept outputs can add to it.
    passes = []
    start = time.perf_counter()
    while not passes or (
        not args.trace and time.perf_counter() - start + passes[-1]["wall"] <= args.seconds
    ):
        passes.append(_timed_pass(workload, parsed, workers, os.path.join(outdir, f"pass{len(passes)}")))
        if len(passes) == 1:
            peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    checked = [p["out"] for p in passes]
    if args.trace:
        baseline = [p["wall"] for p in passes]
        if workers != 1:
            extra = _timed_pass(workload, parsed, 1, os.path.join(outdir, "serial"))
            checked.append(extra["out"])
            baseline = [extra["wall"]]
        tracer = Tracer()
        traced_dir = os.path.join(outdir, "traced")
        os.makedirs(traced_dir)
        with tracer.installed():
            checked.append(wl.run_pass(workload, parsed, 1, traced_dir))
        tracer.write(os.path.join(outdir, "trace.jsonl"))
        record["trace_missing"] = tracer.missing
        for target in tracer.missing:
            print(f"# trace target missing: {target}")
    _setup_launches(setup_cmd, setup_times)

    reference = wl.make_reference(workload, inputs)
    failed = 0
    for out in checked:
        n_failed, problems = wl.check_pass(workload, reference, out)
        failed += n_failed
        for line in problems[:20]:
            print(f"# check failed: {line}")
    attempted = ops * len(checked)
    _setup_launches(setup_cmd, setup_times)

    walls = [p["wall"] for p in passes]
    if args.trace:
        metrics = layer_metrics(tracer.spans)
        traced_wall = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(baseline) - 1.0
        metrics["experiment_cli.pool.cpu_util"] = statistics.median(
            p["worker_cpu"] / (p["wall"] * workers) for p in passes)
        metrics["fail_frac"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = {
            "ops_per_s": ops / statistics.median(walls),
            "cpu_s_per_op": statistics.median(p["cpu"] for p in passes) / ops,
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    record.update(passes=len(passes), pass_wall_s=walls, ops_per_pass=ops, setup_launch_s=setup_times)
    with open(os.path.join(outdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("# record: " + json.dumps(record))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args(argv))
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
