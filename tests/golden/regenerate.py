"""Regenerate the pinned golden bundle that ``tests/test_golden.py`` reproduces.

Runs ``synth`` on ``spec.json``, then ``project`` (segment S1), ``metrics``,
``ssm`` (segment S1, on the synthesized ``trajectories_S1.csv``) and
``associate --format both`` through the CLI, and writes each output named in
``GOLDEN_FILES`` gzipped beside this script. Regenerate only for an intended
output change, and record the change and its tolerance in CHANGES.md. Naming
files regenerates only those:

    PYTHONPATH=src python tests/golden/regenerate.py [world_S1.csv ...]
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

from netsafety.cli import main

HERE = Path(__file__).resolve().parent
SPEC = HERE / "spec.json"
GOLDEN_FILES = (
    "world_S1.csv",
    "metrics.csv",
    "ssm_S1.csv",
    "association_report.json",
    "correlations.csv",
    "full_model.csv",
    "shapley.csv",
    "cross_segment_correlations.csv",
    "cross_segment_holdout.csv",
)


def run_pipeline(workdir: Path) -> dict[str, str]:
    """Run the golden pipeline in ``workdir``; return each golden file's text."""
    bundle = Path(workdir) / "bundle"
    config = str(bundle / "config.json")
    steps = [
        ["synth", "--spec", str(SPEC), "--out", str(bundle)],
        ["project", "--config", config, "--in", str(bundle / "trajectories_S1.csv"),
         "--out", str(bundle / "world_S1.csv")],
        ["metrics", "--config", config],
        ["ssm", "--config", config, "--in", str(bundle / "trajectories_S1.csv"),
         "--out", str(bundle / "ssm_S1.csv")],
        ["associate", "--config", config, "--format", "both"],
    ]
    for argv in steps:
        if main(argv) != 0:
            raise RuntimeError(f"golden pipeline step failed: {argv}")
    return {name: (bundle / name).read_text() for name in GOLDEN_FILES}


def main_regenerate(names: list[str]) -> None:
    unknown = sorted(set(names) - set(GOLDEN_FILES))
    if unknown:
        raise SystemExit(f"not golden files: {unknown}")
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_pipeline(Path(tmp))
    for name in names or GOLDEN_FILES:
        text = outputs[name]
        # mtime=0 keeps the gzip bytes independent of when they were written.
        with gzip.GzipFile(HERE / f"{name}.gz", "wb", mtime=0) as fh:
            fh.write(text.encode())
        print(f"{name}.gz: {(HERE / f'{name}.gz').stat().st_size} bytes")


if __name__ == "__main__":
    main_regenerate(sys.argv[1:])
