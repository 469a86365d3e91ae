"""The benchmark's tracer still finds and counts every function it wraps.

``perfbench/layers.patch_table()`` names netsafety functions by the module
attribute their callers resolve, and its counters read the arguments and
results (``len(t.points)`` of parsed and gap-filled trajectories, ``len()`` of
the vehicles in and out of the static filter, or a crash binning's
``n_assigned``, for example). A rename or an API change
would otherwise only show when the benchmark runs with ``--trace 1``. This test only imports from ``perfbench/``.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402

from netsafety import cli, crashes, trajectories  # noqa: E402
from netsafety.config import load_config  # noqa: E402

from test_cli import constant_fold, few_rows, run_bundle, skipped_poisson_fold, warns_exactly, write_spec  # noqa: E402


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


def _cut_gaps(path: Path) -> None:
    """Drop rows 5-6 (a short gap, filled) and 20-39 (a long one, split) of the longest track."""
    header, *rows = path.read_text().splitlines(keepends=True)
    vids = [row.split(",")[1] for row in rows]
    longest = max(set(vids), key=vids.count)
    own = [i for i, vid in enumerate(vids) if vid == longest]
    assert len(own) >= 45
    dropped = {own[k] for k in (5, 6, *range(20, 40))}
    path.write_text(header + "".join(row for i, row in enumerate(rows) if i not in dropped))


def _park(path: Path) -> None:
    """Append a vehicle that stands still for 30 frames, which the static filter drops."""
    with open(path, "a") as out:
        out.writelines(f"{frame},parked,5.0,1.0,9.5,3.0\n" for frame in range(30))


def test_patch_table_installs_counts_a_job_and_uninstalls(tmp_path):
    bundle = run_bundle(tmp_path)
    _cut_gaps(bundle / "trajectories_S2.csv")
    _park(bundle / "trajectories_S2.csv")
    crash_csv = bundle / "crashes.csv"
    when = crash_csv.read_text().splitlines()[1].split(",")[0]
    with open(crash_csv, "a") as out:
        out.write(f"{when},0.0,0.0,OTHER\n")  # outside every bbox: dropped
    config = str(bundle / "config.json")
    traj_s1, world_s1 = bundle / "trajectories_S1.csv", bundle / "world_S1.csv"
    argvs = [
        ["project", "--config", config, "--in", str(traj_s1), "--out", str(world_s1)],
        ["metrics", "--config", config],
        ["ssm", "--config", config, "--in", str(world_s1), "--out", str(bundle / "ssm_S1.csv")],
        ["associate", "--config", config, "--format", "both"],
    ]

    table = layers.patch_table()
    originals = [(owner, attr, _get(owner, attr)) for owner, attr, _, _ in table]
    tracer = spans.Tracer()
    tracer.install(table)
    try:
        assert all(_get(owner, attr).__wrapped__ is original for owner, attr, original in originals)
        root = tracer.begin_job()
        with warns_exactly(few_rows(11), constant_fold(4), *map(skipped_poisson_fold, range(4))):
            for argv in argvs:
                assert cli.main(argv) == 0, argv
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert all(_get(owner, attr) is original for owner, attr, original in originals)

    metrics = layers.job_metrics(spans.SpanTable(tracer), tracer.counts[0], 0)
    cfg = load_config(config)
    inputs = [traj_s1, traj_s1, bundle / "trajectories_S2.csv", world_s1]  # project, metrics x2, ssm
    segments = [None, cfg.segments[0], cfg.segments[1], cfg.segments[0]]
    tracks = [
        trajectories.prepare_tracks(trajectories.parse_trajectories(path.read_text(), cfg.fps), seg.unit_axis)
        for path, seg in zip(inputs[1:], segments[1:])
    ]
    assert metrics["projection.apply_calls"] == 1
    assert metrics["projection.fits"] == 1
    assert metrics["trajectories.rows_parsed"] == sum(_rows(path) for path in inputs)
    assert metrics["trajectories.tracks_out"] == sum(len(t) for t in tracks)
    assert metrics["network_metrics.samples"] == sum(t.frames.size for t in [*tracks[0], *tracks[1]])
    assert metrics["trajectories.gap_frames_filled"] == 2
    assert metrics["trajectories.runs_split"] == 1
    static = [t.vehicle_ids for path in inputs[1:] for t in trajectories.parse_trajectories(path.read_text(), cfg.fps)
              if math.hypot(t.points[-1].cx - t.points[0].cx, t.points[-1].cy - t.points[0].cy)
              < cfg.prep.min_displacement_m]
    assert metrics["trajectories.static_dropped"] == len(static) and ["parked"] in static
    assert metrics["cli.project_s"] > 0 and metrics["cli.ssm_s"] > 0
    report = json.loads((bundle / "association_report.json").read_text())
    assert all("phi" in report["families"][family]["shapley"] for family in cfg.analysis.families)
    assert metrics["association.coalitions"] == len(cfg.analysis.families) * 2 ** len(cfg.analysis.predictors)
    assert metrics["association.degenerate_coalitions"] == 0
    assert metrics["association.shapley_s"] > 0 and metrics["association.cross_segment_s"] > 0
    records = crashes.parse_crashes(crash_csv.read_text())
    binning = crashes.bin_crashes(records, cfg.segments, cfg.analysis.slot_minutes, cfg.tangent_plane(),
                                  year_range=cfg.crash_years)
    assert metrics["crashes.records"] == len(records) == _rows(crash_csv)
    assert metrics["crashes.assigned_ratio"] == binning.n_assigned / len(records) < 1
    assert metrics["crashes.multi_match"] == binning.n_multi_match


def test_synth_set_up_is_traced_as_the_benchmark_traces_it(tmp_path):
    """``synth.rows`` counts the data rows of the trajectory files the traced set-up writes.

    The spec's plant reads a metric, and the metrics pass runs on the tables the simulation
    builds, so the set-up parses no trajectory text.
    """
    bundle = tmp_path / "bundle"
    tracer = spans.Tracer()
    tracer.install(layers.patch_table())
    try:
        root = tracer.begin_job("setup")
        assert cli.main(["synth", "--spec", str(write_spec(tmp_path)), "--out", str(bundle)]) == 0
        tracer.close(root)
    finally:
        tracer.uninstall()
    table = spans.SpanTable(tracer)
    metrics = layers.setup_metrics(table, tracer.counts[0], 0)
    written = sorted(bundle.glob("trajectories_*.csv"))
    assert len(written) == 2
    assert metrics["synth.rows"] == sum(_rows(path) for path in written) > 0
    assert metrics["synth.trajectories_s"] > 0 and metrics["synth.plant_s"] > 0
    assert tracer.counts[0]["trajectories.rows_parsed"] == 0
    assert table.calls(["trajectories.parse_trajectories"], 0) == 0
    assert table.calls(["network_metrics.compute_interval_metrics"], 0) == len(written)
