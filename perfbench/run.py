"""The netsafety benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 25 --trace 0

Generates the workload's bundle with ``netsafety synth`` (set-up, timed
``SETUPS`` times), then runs the analyst's batch job on it in a closed loop
in a separate process (``jobs.py``) for ``--seconds`` seconds and checks every
job's outputs (``checks.py``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics.  Run from anywhere; the package is imported from ``src/`` next to
this directory, and work files go to ``.perfbench_work/`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import layers
import workload
from spans import SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3
TIME_LIMIT_S = 170.0


def _environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def set_up(cli, name: str, seed: int, bundle: Path, trace: bool):
    """Generate the bundle ``SETUPS`` times (once, traced, with ``trace``).

    Returns the set-up wall times, the same at the reference speed, the
    determinism problems and the traced set-up metrics.
    """
    wall, reference, digests, setup_layers = [], [], [], {}
    for _ in range(1 if trace else SETUPS):
        if bundle.exists():
            shutil.rmtree(bundle)
        clock = calibrate.StepClock(kernel_runs=3)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install(layers.patch_table())
            root = tracer.begin_job("setup")
        try:
            clock.time(workload.make_bundle, cli, name, seed, bundle)
        finally:
            if tracer:
                tracer.close(root)
                tracer.uninstall()
        if tracer:
            setup_layers = layers.setup_metrics(SpanTable(tracer), tracer.counts[0], 0)
            tracer.save(bundle.parent / "setup.spans.npz")
        wall.append(clock.wall_s)
        reference.append(clock.reference_s)
        digests.append(workload.bundle_digest(bundle))
    problems = [] if len(set(digests)) == 1 else ["set-up is not deterministic: bundles differ"]
    return wall, reference, problems, setup_layers


def check_jobs(jobs: list[dict], bundle: Path, name: str, seed: int) -> tuple[list[bool], list[str]]:
    """Per-job verdicts: a job fails on an error, on outputs that differ from the
    first job's bytes, or when its outputs (those left on disk) fail the checks."""
    first = jobs[0]["digest"]
    ok = [j["error"] is None and j["digest"] == first for j in jobs]
    problems = [f"job {i}: {j['error'] or 'outputs differ from job 0'}" for i, j in enumerate(jobs) if not ok[i]]
    try:
        found = checks.structural_problems(bundle)
        if seed == workload.WORKLOADS["default_seed"]:
            found += checks.compare_to_reference(bundle, checks.REFERENCE_DIR / name)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        found = [f"outputs unreadable: {exc!r}"]
    if found:
        last = jobs[-1]["digest"]
        ok = [v and j["digest"] != last for v, j in zip(ok, jobs)]
        problems += found
    return ok, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS["workloads"]))
    parser.add_argument("--seed", type=int, default=workload.WORKLOADS["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0, help="how long the job loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "netsafety" / "cli.py").is_file():
        print(f"error: netsafety sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from netsafety import cli

    work = ROOT / ".perfbench_work" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bundle = work / "bundle"
    setup_times, setup_reference_s, problems, setup_layers = set_up(
        cli, args.workload, args.seed, bundle, bool(args.trace)
    )
    shape = workload.input_shape(bundle)

    jobs_out = work / "jobs.json"
    cmd = [
        sys.executable, str(HERE / "jobs.py"), "--src", str(SRC), "--bundle", str(bundle),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(jobs_out),
    ]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=TIME_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: job loop exceeded the time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: job process exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(jobs_out.read_text())
    jobs = result["jobs"]
    ok, job_problems = check_jobs(jobs, bundle, args.workload, args.seed)
    problems += job_problems
    try:
        shape.update(workload.output_shape(bundle))
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"output shape unreadable: {exc!r}")
    env = _environment()

    untraced = [j["seconds"] for j in jobs if not j["traced"]]
    if args.trace:
        traced = [j["seconds"] for j in jobs if j["traced"]]
        values = {**result["layers"], **setup_layers}
        values["trajectories.reparse_ratio"] = values["trajectories.rows_parsed"] / shape["rows"]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values.update({f"shape.{k}": shape.get(k, 0) for k in (
            "rows", "frames", "vehicles_per_frame", "crash_records",
            "joined_rows", "coalitions", "segment_subsets", "trt_intervals")})
        values["shape.nproc"] = env["nproc"]
        samples = len(traced)
    else:
        values = {
            "pipeline_s": statistics.median(j["reference_s"] for j in jobs if not j["traced"]),
            "setup_s": statistics.median(setup_reference_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        samples = len(untraced)

    units = _declared_metrics(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    failed = ok.count(False)
    summary = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(
        {**summary, "workload": args.workload, "seed": args.seed, "shape": shape, "environment": env,
         "setup_times": setup_times, "setup_reference_s": setup_reference_s, "problems": problems,
         "jobs": [{"seconds": j["seconds"], "reference_s": j["reference_s"], "traced": j["traced"], "ok": v}
                  for j, v in zip(jobs, ok)]},
        indent=1,
    ))
    shutil.rmtree(bundle)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"jobs: {samples} measured, {len(jobs)} attempted, error_rate = {failed / len(jobs):.3g}"
          f"; set-ups: {len(setup_times)}")
    print(f"wall-time medians (not at the reference speed): job {statistics.median(untraced):.4g} s,"
          f" set-up {statistics.median(setup_times):.4g} s")
    print("shape: " + json.dumps(shape, sort_keys=True))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
