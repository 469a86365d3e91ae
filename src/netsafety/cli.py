"""Command-line entry point for reproducible batch runs.

Subcommands cover the whole pipeline: ``synth`` generates a desk-scale
scenario bundle, ``project`` maps pixel trajectories into world meters,
``metrics`` extracts per-interval network metrics, ``ssm`` writes the
pairwise surrogate metrics of ``SampleTable.ssm_columns``, and
``associate``/``shapley`` run the crash-association statistics. Repeated runs
produce byte-identical outputs. Only two commands draw random numbers:
``synth`` from its scenario spec's ``seed`` (or ``--seed``), and ``associate``
from ``analysis.seed`` (or ``--seed``), which seeds the cross-validation folds.

Exit codes: 0 on success, 2 for input/schema/fit errors (a JSON error
object is printed to stderr). An input file that cannot be read, and an output
file that cannot be written, exit 2 with an error naming its path: every input
goes through ``config.read_input`` and every output through ``write_output``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import association, crashes, csvio, network_metrics, synth, trajectories
from .config import IntervalGrid, RunConfig, load_config, read_input
from .errors import NetSafetyError, ParameterError
from .projection import apply_homography, fit_homography, load_keypoints
from .surrogate import drac, ttc  # noqa: F401  (perfbench/layers.py traces cli.ttc and cli.drac by name)


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):  # no glibc
    _MALLOC_TRIM = None


def _release_freed_heap() -> None:
    """Hand the heap pages a command freed back to the OS (glibc's malloc_trim; elsewhere a no-op).

    glibc keeps freed heap memory resident until the free space at the heap's top passes a
    threshold that it raises as large blocks are freed. Without the trim, what a command left
    resident, and so the peak of whatever the process runs next, would follow the allocator's
    layout, which shifts with sizes as small as a path's length.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _fail(exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return 2


def write_output(path: Path, content: str | Iterable[str]) -> None:
    """Write ``content``, a string or its chunks (as ``csv_chunks`` yields them), to ``path`` as UTF-8, making the
    directory it goes in; NetSafetyError naming the path if it cannot be written. The one place an output is written."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.writelines([content] if isinstance(content, str) else content)
    except OSError as exc:
        raise NetSafetyError(f"output file cannot be written: {path} ({exc.strerror})") from None


def _prepare_segment_tracks(cfg: RunConfig, segment, path: Path):
    return trajectories.prepare_tracks(trajectories.parse_trajectories(read_input(path), cfg.fps), segment.unit_axis,
                                       cfg.prep)


def _windows_for(cfg: RunConfig, tracks: trajectories.PreparedTracks) -> list[tuple[float, float]]:
    if cfg.intervals is not None:
        return cfg.intervals.windows()
    # Fall back to slot-aligned windows covering the observed span.
    slot = cfg.analysis.slot_minutes * 60.0
    if not tracks.t.size:
        return []
    t0 = (tracks.t.min() // slot) * slot
    t1 = tracks.t.max()
    count = int((t1 - t0) // slot) + 1
    return IntervalGrid(count=count, window_seconds=slot, stride_seconds=slot, start_seconds=t0).windows()


def cmd_synth(args) -> int:
    spec = synth.ScenarioSpec.from_json(read_input(args.spec))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out = Path(args.out)
    cfg = RunConfig(spec.fps, anchor=(spec.anchor_lat, spec.anchor_lon), segments=spec.segment_configs(),
                    paths={"output_dir": out, "keypoints": out / "keypoints.json", "crashes": out / "crashes.csv",
                           "metrics": out / "metrics.csv"},
                    trajectory_paths={sid: out / f"trajectories_{sid}.csv" for sid in spec.segment_ids()},
                    intervals=spec.interval_grid(), crash_years=(synth.BASE_DATE.year,) * 2,
                    analysis=association.AnalysisConfig(slot_minutes=spec.slot_minutes, seed=spec.seed))

    # Interval metrics feed the planted crash model. An intercept-only plant reads no metric, only
    # each row's segment and window, so its table holds the keys alone and the metrics pass is skipped.
    # A plant that reads one runs the pass on the trajectory tables the simulation builds with its text.
    windows = cfg.intervals.windows()
    trajs = None if spec.plant_beta.keys() <= {"intercept"} else {}
    traj_csvs = synth.generate_trajectories(spec, tables=trajs)
    for sid, text in traj_csvs.items():
        write_output(cfg.trajectory_paths[sid], text)
    write_output(cfg.path("keypoints"), synth.identity_keypoints_json(spec))

    if trajs is None:
        tables = [network_metrics.MetricsTable.build(
            [seg.segment_id] * len(windows), seg.osr_thresholds,
            interval_start=[t0 for t0, _ in windows], interval_end=[t1 for _, t1 in windows]) for seg in cfg.segments]
    else:
        del traj_csvs, text  # written: the metrics pass does not hold the text beside the tables
        tables = [network_metrics.compute_interval_metrics(
            trajectories.prepare_tracks(trajs.pop(seg.segment_id), seg.unit_axis, cfg.prep), seg, cfg.cluster, cfg.fps,
            windows, cfg.trt) for seg in cfg.segments]
    plant = synth.generate_crash_counts(tables, spec)
    write_output(cfg.path("crashes"), synth.crash_records_csv(plant, spec))
    write_output(out / "plant.json", json.dumps(
        {"beta_star": spec.plant_beta, "sigma": plant.sigma, "noise_kind": spec.noise_kind}, indent=2, sort_keys=True))
    write_output(out / "scenario.json", spec.to_json())
    write_output(out / "config.json", cfg.to_json(out))
    return 0


def cmd_project(args) -> int:
    cfg = load_config(args.config)
    pairs = load_keypoints(read_input(cfg.path("keypoints")), cfg.tangent_plane())
    h = fit_homography(pairs)
    table = trajectories.parse_trajectories(read_input(args.infile), cfg.fps)
    # Every corner (x1, y1), (x1, y2), (x2, y1), (x2, y2) of every box in one call.
    world = apply_homography(h, table.boxes[:, [0, 1, 0, 3, 2, 1, 2, 3]].reshape(-1, 2)).reshape(-1, 4, 2)
    lo = hi = world[:, 0]
    for j in (1, 2, 3):  # (x, y) min()/max() over the corners, keeping the element the builtins keep
        lo = np.where(world[:, j] < lo, world[:, j], lo)
        hi = np.where(world[:, j] > hi, world[:, j], hi)
    out = Path(args.out)
    write_output(out, csvio.csv_chunks(trajectories.TRAJECTORY_COLUMNS,
                                       [table.frames, table.id_column(), *lo.T, *hi.T]))
    write_output(out.with_suffix(out.suffix + ".homography.json"), h.to_json())
    return 0


def cmd_metrics(args) -> int:
    cfg = load_config(args.config)
    if not cfg.segments:
        raise NetSafetyError("config defines no segments")
    if len({seg.osr_thresholds for seg in cfg.segments}) > 1:
        raise ParameterError("all segments must share osr_thresholds for one metrics file")
    if args.infile is not None:
        if len(cfg.segments) != 1:
            raise ParameterError("--in requires a single-segment config")
        paths = {cfg.segments[0].segment_id: Path(args.infile)}
    else:
        paths = cfg.trajectory_paths
    tables = []
    for seg in cfg.segments:
        if seg.segment_id not in paths:
            raise NetSafetyError(f"no trajectory path configured for segment {seg.segment_id!r}")
        tracks = _prepare_segment_tracks(cfg, seg, paths[seg.segment_id])
        tables.append(network_metrics.compute_interval_metrics(
            tracks, seg, cfg.cluster, cfg.fps, _windows_for(cfg, tracks), cfg.trt))
    out = Path(args.out) if args.out else cfg.paths.get("metrics", cfg.path("output_dir") / "metrics.csv")
    write_output(out, network_metrics.write_metrics_csv(network_metrics.MetricsTable.concat(tables)))
    return 0


def cmd_ssm(args) -> int:
    cfg = load_config(args.config)
    if not cfg.segments:
        raise NetSafetyError("config defines no segments")
    seg = cfg.segments[0]
    tracks = _prepare_segment_tracks(cfg, seg, Path(args.infile))
    columns = network_metrics.SampleTable.build(tracks, seg.unit_axis).ssm_columns(cfg.fps)
    write_output(Path(args.out), csvio.csv_chunks(list(columns), columns.values()))
    return 0


def _association_inputs(cfg: RunConfig):
    """The metrics table and the crash binning that ``associate`` and ``shapley`` analyse."""
    metrics_path, crashes_path = cfg.path("metrics"), cfg.path("crashes")
    table = network_metrics.read_metrics_csv(read_input(metrics_path))
    records = crashes.parse_crashes(read_input(crashes_path))
    return table, crashes.bin_crashes(records, cfg.segments, cfg.analysis.slot_minutes, cfg.tangent_plane(),
                                      year_range=cfg.crash_years)


def cmd_associate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.analysis = dataclasses.replace(cfg.analysis, seed=args.seed)
    report = association.run_association(*_association_inputs(cfg), cfg.analysis)
    out = cfg.path("output_dir")
    if args.format in ("json", "both"):
        write_output(out / "association_report.json", json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if args.format in ("csv", "both"):
        write_output(out / "correlations.csv", association.correlations_table_csv(report))
        write_output(out / "full_model.csv", association.full_model_table_csv(report))
        write_output(out / "shapley.csv", association.shapley_table_csv(report))
        combos, holdout = association.cross_segment_tables_csv(report)
        write_output(out / "cross_segment_correlations.csv", combos)
        write_output(out / "cross_segment_holdout.csv", holdout)
    return 0


def cmd_shapley(args) -> int:
    cfg = load_config(args.config)
    report = association.run_shapley(*_association_inputs(cfg), cfg.analysis)
    text = association.shapley_table_csv(report)
    if args.out:
        write_output(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # one parser per process; main() is called once per step of a batch job
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netsafety", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario bundle")
    p.add_argument("--spec", required=True, help="scenario spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = sub.add_parser("project", help="fit the keypoint homography and project trajectories")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True, help="pixel-domain trajectory CSV")
    p.add_argument("--out", required=True, help="world-frame trajectory CSV")

    p = sub.add_parser("metrics", help="compute per-interval network metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", default=None, help="trajectory CSV (single-segment runs)")
    p.add_argument("--out", default=None, help="metrics CSV (default from config)")

    p = sub.add_parser("ssm", help="emit pairwise surrogate safety metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True, help="world-frame trajectory CSV")
    p.add_argument("--out", required=True)

    p = sub.add_parser("associate", help="run the crash-association analyses")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--seed", type=int, default=None, help="override the analysis seed")

    p = sub.add_parser("shapley", help="Shapley attribution table only")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, so a patched cmd_<name> runs
    except NetSafetyError as exc:
        return _fail(exc)
    finally:
        _release_freed_heap()


if __name__ == "__main__":
    sys.exit(main())
