"""Command-line entry point for reproducible batch runs.

Subcommands cover the whole pipeline: ``synth`` generates a desk-scale
scenario bundle, ``project`` maps pixel trajectories into world meters,
``metrics`` extracts per-interval network metrics, ``ssm`` emits pairwise
surrogate metrics, and ``associate``/``shapley`` run the crash-association
statistics. Repeated runs produce byte-identical outputs. Each seed is read
where it is used: ``synth`` draws from its scenario spec's ``seed`` (or
``--seed``), and ``associate``/``shapley`` read ``analysis.seed`` (or
``--seed``), which seeds the cross-validation folds. The config's root
``seed`` is written by ``synth`` and read by no command; no other command
draws random numbers.

Exit codes: 0 on success, 2 for input/schema/fit errors (a JSON error
object is printed to stderr).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import association, crashes, network_metrics, synth, trajectories
from .config import IntervalGrid, RunConfig, load_config
from .errors import NetSafetyError, ParameterError
from .geo import TangentPlane
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


def _read(path: Path) -> bytes:
    """An input file's bytes, line ends made LF as by Path.read_text; NetSafetyError unless it is UTF-8 text."""
    try:
        data = Path(path).read_bytes()
        if not data.isascii():
            data.decode()
    except FileNotFoundError:
        raise NetSafetyError(f"input file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise NetSafetyError(f"input file is not {exc.encoding} text: {path} (byte {exc.start})") from None
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _prepare_segment_tracks(cfg: RunConfig, segment, path: Path):
    trajs = trajectories.parse_trajectories(_read(path), cfg.fps)
    return trajectories.prepare_tracks(
        trajs,
        segment.travel_axis,
        max_gap=cfg.prep.max_gap_frames,
        sg_window=cfg.prep.sg_window,
        sg_order=cfg.prep.sg_order,
        class_threshold_m=cfg.prep.class_threshold_m,
        min_displacement_m=cfg.prep.min_displacement_m,
    )


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
    spec = synth.ScenarioSpec.from_json(_read(Path(args.spec)))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    plane = TangentPlane(spec.anchor_lat, spec.anchor_lon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    segments = spec.segment_configs()

    # Interval metrics feed the planted crash model. An intercept-only plant reads no metric, only
    # each row's segment and window, so its table holds the keys alone and the metrics pass is skipped.
    # A plant that reads one runs the pass on the trajectory tables the simulation builds with its text.
    beta_star, windows = spec.beta_star or {"intercept": 1.5}, spec.windows()
    trajs = None if beta_star.keys() <= {"intercept"} else {}
    traj_csvs = synth.generate_trajectories(spec, tables=trajs)
    for sid, text in traj_csvs.items():
        (out / f"trajectories_{sid}.csv").write_text(text)
    (out / "keypoints.json").write_text(synth.identity_keypoints_json(spec, plane))

    if trajs is None:
        tables = [network_metrics.MetricsTable.build(
            [seg.segment_id] * len(windows), seg.osr_thresholds,
            interval_start=[t0 for t0, _ in windows], interval_end=[t1 for _, t1 in windows]) for seg in segments]
    else:
        del traj_csvs, text  # written: the metrics pass does not hold the text beside the tables
        tables = []
        for seg in segments:
            tracks = trajectories.prepare_tracks(trajs.pop(seg.segment_id), seg.travel_axis)
            tables.append(network_metrics.compute_interval_metrics(
                tracks, seg, network_metrics.ClusterConfig(), spec.fps, windows))
    plant = synth.generate_crash_counts(tables, beta_star, noise_kind=spec.noise_kind, seed=spec.seed,
                                        slot_minutes=spec.slot_minutes, target_r2=spec.target_r2)
    (out / "crashes.csv").write_text(
        synth.crash_records_csv(plant, segments, spec.slot_minutes, plane, seed=spec.seed)
    )
    (out / "plant.json").write_text(
        json.dumps(
            {"beta_star": plant.beta_star, "sigma": plant.sigma, "noise_kind": spec.noise_kind},
            indent=2,
            sort_keys=True,
        )
    )
    (out / "scenario.json").write_text(spec.to_json())

    config = {
        "fps": spec.fps,
        "seed": spec.seed,
        "anchor": [spec.anchor_lat, spec.anchor_lon],
        "paths": {
            "output_dir": ".",
            "keypoints": "keypoints.json",
            "crashes": "crashes.csv",
            "metrics": "metrics.csv",
        },
        "segments": [
            {
                "segment_id": seg.segment_id,
                "lane_count": seg.lane_count,
                "length_m": seg.length_m,
                "speed_limit": seg.speed_limit,
                "travel_axis": list(seg.travel_axis),
                "osr_thresholds": list(seg.osr_thresholds),
                "bbox": list(seg.bbox),
                "trajectories": f"trajectories_{seg.segment_id}.csv",
            }
            for seg in segments
        ],
        "intervals": vars(spec.interval_grid()),
        "analysis": {"slot_minutes": spec.slot_minutes, "seed": spec.seed},
        "crash_years": [synth.BASE_DATE.year, synth.BASE_DATE.year],
    }
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    return 0


def cmd_project(args) -> int:
    cfg = load_config(args.config)
    if cfg.keypoints_path is None:
        raise NetSafetyError("config has no paths.keypoints entry")
    pairs = load_keypoints(_read(cfg.keypoints_path), cfg.tangent_plane())
    h = fit_homography(pairs)
    table = trajectories.parse_trajectories(_read(Path(args.infile)), cfg.fps)
    # Every corner (x1, y1), (x1, y2), (x2, y1), (x2, y2) of every box in one call.
    world = apply_homography(h, table.boxes[:, [0, 1, 0, 3, 2, 1, 2, 3]].reshape(-1, 2)).reshape(-1, 4, 2)
    lo = hi = world[:, 0]
    for j in (1, 2, 3):  # (x, y) min()/max() over the corners, keeping the element the builtins keep
        lo = np.where(world[:, j] < lo, world[:, j], lo)
        hi = np.where(world[:, j] > hi, world[:, j], hi)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectories.write_csv(out, trajectories.TRAJECTORY_COLUMNS, [table.frames, table.id_column(), *lo.T, *hi.T])
    out.with_suffix(out.suffix + ".homography.json").write_text(h.to_json())
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
            tracks, seg, cfg.cluster, cfg.fps, _windows_for(cfg, tracks), trt_theta=cfg.trt.theta,
            trt_t_min=cfg.trt.t_min_seconds, free_flow=cfg.trt.free_flow))
    out = Path(args.out) if args.out else (cfg.metrics_path or cfg.output_dir / "metrics.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(network_metrics.write_metrics_csv(network_metrics.MetricsTable.concat(tables)))
    return 0


def cmd_ssm(args) -> int:
    cfg = load_config(args.config)
    if not cfg.segments:
        raise NetSafetyError("config defines no segments")
    seg = cfg.segments[0]
    tracks = _prepare_segment_tracks(cfg, seg, Path(args.infile))
    table = network_metrics.SampleTable.build(tracks, seg.travel_axis)
    follower, leader, gap, closing, pair_ttc = table.leader_pairs()
    t = table.frame / cfg.fps
    # PET: the follower's time minus when its leader passed the follower's position, on the
    # leader's passage curve (axis position made monotone over its whole track); absent if later.
    t_pass = np.full(follower.size, np.nan)
    rows_of = network_metrics.index_groups(table.vid_code)
    for code, mine in network_metrics.index_groups(table.vid_code[leader]).items():
        curve = np.maximum.accumulate(table.axis_pos[rows_of[code]])
        t_pass[mine] = np.interp(table.axis_pos[follower[mine]], curve, t[rows_of[code]], left=np.nan, right=np.nan)
    pet = t[follower] - t_pass
    columns = {
        "t": t[follower],
        "follower_id": trajectories.CodedColumn(table.vids, table.vid_code[follower]),
        "leader_id": trajectories.CodedColumn(table.vids, table.vid_code[leader]),
        "ttc": np.ma.masked_array(pair_ttc, mask=~(closing > 0)),
        "drac": np.where(closing > 0, closing * closing / gap, 0.0),
        "pet": np.ma.masked_array(pet, mask=~(pet >= 0)),
        "gap": gap, "v_follower": table.axis_speed[follower], "v_leader": table.axis_speed[leader],
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectories.write_csv(out, list(columns), columns.values())
    return 0


def _association_inputs(cfg: RunConfig):
    """The metrics table and the crash binning that ``associate`` and ``shapley`` analyse."""
    if cfg.metrics_path is None:
        raise NetSafetyError("config has no paths.metrics entry")
    if cfg.crashes_path is None:
        raise NetSafetyError("config has no paths.crashes entry")
    table = network_metrics.read_metrics_csv(_read(cfg.metrics_path))
    records = crashes.parse_crashes(_read(cfg.crashes_path))
    return table, crashes.bin_crashes(records, cfg.segments, cfg.analysis.slot_minutes, cfg.tangent_plane(),
                                      year_range=cfg.crash_years)


def cmd_associate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.analysis = dataclasses.replace(cfg.analysis, seed=args.seed)
    report = association.run_association(*_association_inputs(cfg), cfg.analysis)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("json", "both"):
        (out / "association_report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    if args.format in ("csv", "both"):
        (out / "correlations.csv").write_text(association.correlations_table_csv(report))
        (out / "full_model.csv").write_text(association.full_model_table_csv(report))
        (out / "shapley.csv").write_text(association.shapley_table_csv(report))
        combos, holdout = association.cross_segment_tables_csv(report)
        (out / "cross_segment_correlations.csv").write_text(combos)
        (out / "cross_segment_holdout.csv").write_text(holdout)
    return 0


def cmd_shapley(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.analysis = dataclasses.replace(cfg.analysis, seed=args.seed)
    report = association.run_shapley(*_association_inputs(cfg), cfg.analysis)
    text = association.shapley_table_csv(report)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
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
    p.add_argument("--seed", type=int, default=None, help="override the analysis seed")
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
