"""Tests of the benchmark itself: span arithmetic, output checks, seeding, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from run import check_jobs  # noqa: E402

from netsafety import cli  # noqa: E402

WORKLOAD = "network"  # the quickest bundle to generate
SEED = workload.WORKLOADS["default_seed"]


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_tracer_links_parents_and_sums_per_job(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    for _ in range(2):
        root = tracer.begin_job()
        outer()
        tracer.close(root)
    table = spans.SpanTable(tracer)
    # Per job: root 0..7, outer 1..6, inner 2..3 and 4..5.
    assert tracer.parent.tolist()[:4] == [-1, 0, 1, 1]
    assert table.total(["outer"], 1) == 5.0
    assert table.self_total(["outer"], 1) == 3.0
    assert table.calls(["inner"], 0) == 2
    assert table.self_total(["job"], 0) == 2.0


def test_uninstall_restores_every_patched_function():
    table = layers.patch_table()
    before = [(owner, attr, owner[attr] if isinstance(owner, dict) else getattr(owner, attr))
              for owner, attr, _, _ in table]
    tracer = spans.Tracer()
    tracer.install(table)
    tracer.uninstall()
    for owner, attr, original in before:
        assert (owner[attr] if isinstance(owner, dict) else getattr(owner, attr)) is original


def test_steps_are_converted_at_the_kernel_speed_around_them(monkeypatch):
    kernels = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda: next(kernels))
    clock_values = iter([0.0, 1.0, 5.0, 8.0])
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(clock_values))
    clock = calibrate.StepClock()
    assert clock.time(lambda x: x + 1, 1) == 2
    clock.time(lambda: None)
    # 1 s with kernels 0.01/0.03 around it, 3 s with 0.03/0.02; reference kernel 0.03 s.
    assert clock.wall_s == 4.0
    assert clock.reference_s == pytest.approx(1.0 * 0.03 / 0.02 + 3.0 * 0.03 / 0.025)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bundle"
    workload.make_bundle(cli, WORKLOAD, SEED, out)
    return out


def test_seed_changes_bundle_bytes_and_same_seed_repeats(bundle, tmp_path):
    workload.make_bundle(cli, WORKLOAD, SEED, tmp_path / "same")
    workload.make_bundle(cli, WORKLOAD, SEED + 1, tmp_path / "other")
    assert workload.bundle_digest(tmp_path / "same") == workload.bundle_digest(bundle)
    assert workload.bundle_digest(tmp_path / "other") != workload.bundle_digest(bundle)


def _perturb_one_digit(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    value = fields[4]  # ivvr of the first interval
    i = value.index(".") + 1
    fields[4] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    lines[1] = ",".join(fields)
    path.write_text("".join(lines))


def test_one_perturbed_digit_fails_the_job(bundle):
    job = asdict(jobs.run_job(cli, bundle))
    assert job["error"] is None
    assert check_jobs([job], bundle, WORKLOAD, SEED) == ([True], [])

    _perturb_one_digit(bundle / "metrics.csv")
    perturbed = dict(job, digest=workload.digest(workload.job_outputs(bundle)))
    # A later job whose bytes differ from the first fails on any seed ...
    ok, problems = check_jobs([job, perturbed], bundle, WORKLOAD, SEED + 1)
    assert ok == [True, False] and problems
    # ... and on the default seed the reference catches it even in the first job.
    ok, problems = check_jobs([perturbed], bundle, WORKLOAD, SEED)
    assert ok == [False] and any("metrics.csv" in p for p in problems)


def test_reference_tolerance_accepts_reordered_sums_only():
    assert checks._same_value("0.30000000000000004", "0.3")
    assert not checks._same_value("0.31", "0.3")
    assert not checks._same_value("", "0.3")


def _run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", WORKLOAD, "--seed", str(SEED + 1),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = _run(trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_benchmark_json_lists_the_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workload.WORKLOADS["workloads"])
