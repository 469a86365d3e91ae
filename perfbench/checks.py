"""Output checks for one job's outputs.

Structural checks hold for any seed.  On a workload's default seed the
outputs are also compared with reference outputs stored under
``reference/<workload>/`` (generated by ``make_reference.py``), number by
number within ``RTOL``/``ATOL``, so a refactor that only reorders float sums
still passes while a changed digit in the leading places fails.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

import workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-7
ATOL = 1e-9

SSM_HEADER = ["t", "follower_id", "leader_id", "ttc", "drac", "pet", "gap", "v_follower", "v_leader"]


def reference_files(bundle: Path) -> list[str]:
    """Output files pinned by the reference: metrics, report, tables, every ssm CSV."""
    ssm = [f"ssm_{s}.csv" for s in workload.segment_ids(bundle)]
    return ["metrics.csv", *workload.ASSOCIATION_FILES, *ssm]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _same_value(a, b) -> bool:
    """Equal, or both numbers (CSV cells included) within tolerance."""
    if a == b:
        return True
    if isinstance(a, str) and isinstance(b, str):
        a, b = _number(a), _number(b)
    if type(a) not in (int, float) or type(b) not in (int, float):
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _diff_json(a, b, where: str) -> str | None:
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{where}: keys {sorted(set(a) ^ set(b))} differ"
        for key in a:
            found = _diff_json(a[key], b[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _diff_json(x, y, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if _same_value(a, b) else f"{where}: {a!r} != {b!r}"


def _diff_csv(a: str, b: str, name: str) -> str | None:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b):
        return f"{name}: {len(rows_a)} lines != {len(rows_b)}"
    for lineno, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        if len(ra) != len(rb):
            return f"{name} line {lineno}: {len(ra)} fields != {len(rb)}"
        for x, y in zip(ra, rb):
            if not _same_value(x, y):
                return f"{name} line {lineno}: {x!r} != {y!r}"
    return None


def compare_to_reference(bundle: Path, ref_dir: Path) -> list[str]:
    """Differences between a job's outputs and the stored reference, beyond tolerance."""
    problems = []
    for name in reference_files(bundle):
        ref = ref_dir / f"{name}.gz"
        if not ref.exists():
            problems.append(f"reference {ref.name} missing")
            continue
        expected = gzip.decompress(ref.read_bytes()).decode()
        actual = (bundle / name).read_text()
        if name.endswith(".json"):
            found = _diff_json(json.loads(actual), json.loads(expected), name)
        else:
            found = _diff_csv(actual, expected, name)
        if found:
            problems.append(found)
    return problems


def write_reference(bundle: Path, ref_dir: Path) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    for old in ref_dir.glob("*.gz"):
        old.unlink()
    for name in reference_files(bundle):
        (ref_dir / f"{name}.gz").write_bytes(gzip.compress((bundle / name).read_bytes(), mtime=0))


def structural_problems(bundle: Path) -> list[str]:
    """Checks that hold for every seed."""
    config = json.loads((bundle / "config.json").read_text())
    segs = [s["segment_id"] for s in config["segments"]]
    grid = config["intervals"]
    problems = []

    with (bundle / "metrics.csv").open(newline="") as fh:
        metrics = list(csv.DictReader(fh))
    starts = [grid["start_seconds"] + i * grid["stride_seconds"] for i in range(grid["count"])]
    expected_keys = [(s, t) for s in segs for t in starts]
    keys = [(m["segment_id"], float(m["interval_start"])) for m in metrics]
    if keys != expected_keys:
        problems.append(
            f"metrics.csv: {len(metrics)} rows, expected {len(expected_keys)} (segments x intervals)"
        )

    report = json.loads((bundle / "association_report.json").read_text())
    analysis = report["config"]
    n_predictors = len(analysis["predictors"])
    for family in config.get("analysis", {}).get("families", analysis["families"]):
        entry = report["families"].get(family)
        if entry is None:
            problems.append(f"report: family {family} missing")
            continue
        shapley = entry.get("shapley", {})
        if shapley.get("n_coalitions") != 2**n_predictors:
            problems.append(f"report: {family} n_coalitions {shapley.get('n_coalitions')} != 2^{n_predictors}")
        cross = report["cross_segment"].get(family, {})
        subsets = sum(c["n_combinations"] for c in cross.get("combinations", []))
        if subsets != 2 ** len(segs) - 1:
            problems.append(f"report: {family} has {subsets} segment subsets, expected 2^{len(segs)} - 1")

    for s in segs:
        with (bundle / f"trajectories_{s}.csv").open() as fh:
            n_in = sum(1 for _ in fh)
        with (bundle / f"world_{s}.csv").open() as fh:
            n_out = sum(1 for _ in fh)
        if n_in != n_out:
            problems.append(f"world_{s}.csv: {n_out} lines, trajectories_{s}.csv has {n_in}")
        with (bundle / f"ssm_{s}.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != SSM_HEADER:
            problems.append(f"ssm_{s}.csv: bad header")
            continue
        times = [float(r[0]) for r in rows[1:]]
        if any(len(r) != len(SSM_HEADER) for r in rows[1:]) or times != sorted(times):
            problems.append(f"ssm_{s}.csv: malformed rows or unsorted times")
        if any(float(r[6]) <= 0 for r in rows[1:]):
            problems.append(f"ssm_{s}.csv: non-positive gap")
    return problems
