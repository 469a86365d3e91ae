"""Workload bundles: generate one with ``netsafety synth``, list a job's commands.

A workload is a ``ScenarioSpec`` plus edits to the generated ``config.json``
(see ``workloads.json``).  The bundle's seed is the benchmark's ``--seed``
argument, passed to ``netsafety synth --seed``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

# Files a job writes besides the per-segment world_*/ssm_* files.
ASSOCIATION_FILES = (
    "association_report.json",
    "correlations.csv",
    "full_model.csv",
    "shapley.csv",
    "cross_segment_correlations.csv",
    "cross_segment_holdout.csv",
)


def edit_config(config_path: Path, edits: dict) -> None:
    """Apply a workload's config edits.

    ``every_segment`` updates each entry of ``segments``; any other key
    updates (or creates) that top-level section.
    """
    config = json.loads(config_path.read_text())
    for key, value in edits.items():
        if key == "every_segment":
            for seg in config["segments"]:
                seg.update(value)
        else:
            config.setdefault(key, {}).update(value)
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True))


def make_bundle(cli, workload: str, seed: int, out: Path) -> None:
    """``netsafety synth`` for the workload's spec and seed, then the config edits.

    ``out`` must not exist yet, so that removing an old bundle is not timed.
    """
    out.mkdir(parents=True)
    spec_path = out.parent / f"{out.name}.spec.json"
    spec_path.write_text(json.dumps(WORKLOADS["workloads"][workload]["spec"], indent=2, sort_keys=True))
    rc = cli.main(["synth", "--spec", str(spec_path), "--out", str(out), "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"netsafety synth exited {rc}")
    edit_config(out / "config.json", WORKLOADS["workloads"][workload]["config_edits"])


def segment_ids(bundle: Path) -> list[str]:
    config = json.loads((bundle / "config.json").read_text())
    return [seg["segment_id"] for seg in config["segments"]]


def job_commands(bundle: Path) -> list[list[str]]:
    """The analyst's batch job: project and ssm per segment, metrics, associate."""
    cfg = str(bundle / "config.json")
    segs = segment_ids(bundle)
    world = {s: str(bundle / f"world_{s}.csv") for s in segs}
    argvs = [
        ["project", "--config", cfg, "--in", str(bundle / f"trajectories_{s}.csv"), "--out", world[s]]
        for s in segs
    ]
    argvs.append(["metrics", "--config", cfg])
    argvs += [["ssm", "--config", cfg, "--in", world[s], "--out", str(bundle / f"ssm_{s}.csv")] for s in segs]
    argvs.append(["associate", "--config", cfg, "--format", "both"])
    return argvs


def job_outputs(bundle: Path) -> list[Path]:
    """Every file a job writes, in a fixed order."""
    names = []
    for s in segment_ids(bundle):
        names += [f"world_{s}.csv", f"world_{s}.csv.homography.json", f"ssm_{s}.csv"]
    names += ["metrics.csv", *ASSOCIATION_FILES]
    return [bundle / n for n in names]


def digest(paths) -> str:
    """sha256 over the named files' bytes; a missing file digests differently from an empty one."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"\0missing\0")
    return h.hexdigest()


def bundle_digest(bundle: Path) -> str:
    return digest(sorted(p for p in bundle.iterdir() if p.is_file()))


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def input_shape(bundle: Path) -> dict:
    """Input properties of a bundle: rows, frames, vehicles per frame, crash records."""
    rows = frames = 0
    for s in segment_ids(bundle):
        body = _csv_rows(bundle / f"trajectories_{s}.csv")
        rows += len(body)
        frames += len({r[0] for r in body})
    return {
        "rows": rows,
        "frames": frames,
        "vehicles_per_frame": rows / frames if frames else 0.0,
        "crash_records": len(_csv_rows(bundle / "crashes.csv")),
    }


def output_shape(bundle: Path) -> dict:
    """Properties the job's outputs reveal: joined rows, coalitions, subsets, TRT intervals."""
    report = json.loads((bundle / "association_report.json").read_text())
    family = report["config"]["families"][0]
    entry = report["families"][family]
    combos = report["cross_segment"][family]["combinations"]
    with (bundle / "metrics.csv").open(newline="") as fh:
        metrics = list(csv.DictReader(fh))
    return {
        "joined_rows": entry["n_rows"],
        "coalitions": entry["shapley"]["n_coalitions"],
        "segment_subsets": sum(c["n_combinations"] for c in combos),
        "trt_intervals": sum(1 for m in metrics if m["trt"] != ""),
    }
