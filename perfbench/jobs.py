"""Run the analyst's batch job on a bundle in a closed loop, one job at a time.

Run as a process of its own (``python3 perfbench/jobs.py ...``) so that its
peak resident memory covers jobs only, not bundle generation.  With
``--trace 1`` the first half of the time runs untraced jobs and the second
half traced ones; the difference of their medians is the tracing overhead.
Writes a JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import calibrate
import layers
import workload
from spans import SpanTable, Tracer


@dataclass
class JobResult:
    seconds: float  # wall time of the job's commands
    reference_s: float  # the same at the reference speed (calibrate.py)
    traced: bool
    error: str | None
    digest: str
    warnings: int


def _main(cli, argv: list[str], tracer) -> int:
    if tracer is None:
        return cli.main(argv)
    span = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(span)


def run_job(cli, bundle: Path, tracer=None) -> JobResult:
    """One job through ``netsafety.cli.main``; any non-zero exit or exception fails it."""
    outputs = workload.job_outputs(bundle)
    for path in outputs:
        path.unlink(missing_ok=True)
    argvs = workload.job_commands(bundle)
    gc.collect()
    error = None
    clock = calibrate.StepClock()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        root = tracer.begin_job() if tracer else None
        try:
            for argv in argvs:
                rc = clock.time(_main, cli, argv, tracer)
                if rc != 0:
                    error = f"netsafety {argv[0]} exited {rc}"
                    break
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=-3)
        if tracer:
            tracer.close(root)
            tracer.count("cli.warnings", len(caught))
    return JobResult(
        clock.wall_s, clock.reference_s, tracer is not None, error, workload.digest(outputs), len(caught)
    )


def run_loop(cli, bundle: Path, seconds: float, tracer=None) -> list[JobResult]:
    """Closed loop: start the next job only after the last ends, until ``seconds`` have passed."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_job(cli, bundle, tracer))
    return results


def layer_medians(tracer: Tracer, traced_jobs: int) -> dict[str, float]:
    table = SpanTable(tracer)
    per_job = [layers.job_metrics(table, tracer.counts[j], j) for j in range(traced_jobs)]
    return {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the netsafety package")
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from netsafety import cli

    bundle = Path(args.bundle)
    result: dict = {}
    if args.trace:
        jobs = run_loop(cli, bundle, args.seconds / 2)
        tracer = Tracer()
        tracer.install(layers.patch_table())
        try:
            traced = run_loop(cli, bundle, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        jobs += traced
        result["layers"] = layer_medians(tracer, len(traced))
        tracer.save(Path(args.out).with_suffix(".spans.npz"))
    else:
        jobs = run_loop(cli, bundle, args.seconds)
    result["jobs"] = [asdict(j) for j in jobs]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
