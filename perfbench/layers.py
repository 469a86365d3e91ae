"""Which netsafety functions are traced, and the per-layer metrics derived from them.

Every entry wraps a public function at the name its caller resolves:
``cli`` calls ``trajectories.parse_trajectories`` through the module, while
``prepare_tracks`` calls ``fill_gaps`` through its own module globals, so
both are patched on ``netsafety.trajectories``; ``cmd_project`` calls the
``apply_homography`` it imported, so that one is patched on ``netsafety.cli``.
"""

from __future__ import annotations

import importlib

import numpy as np

from spans import SpanTable, Tracer

# -- counters: read counts from arguments and return values ------------------


def _counts(*pairs):
    """A counter adding ``fn(args, kwargs, result)`` to each ``key`` of ``(key, fn)`` pairs."""

    def counter(tracer: Tracer, args, kwargs, result):
        for key, fn in pairs:
            tracer.count(key, fn(args, kwargs, result))

    return counter


def _frames(args, kwargs, result) -> int:
    tracks = args[0]
    if not tracks:
        return 0
    return int(np.unique(np.concatenate([t.frames for t in tracks])).size)


def patch_table() -> list[tuple]:
    """``(owner, attribute, span name, counter)`` for every traced call site."""
    module = lambda name: importlib.import_module(f"netsafety.{name}")  # noqa: E731
    cli = module("cli")
    traj = module("trajectories")
    nm = module("network_metrics")
    cr = module("crashes")
    assoc = module("association")
    synth = module("synth")
    regression = module("stats.regression")
    shapley = module("stats.shapley")
    table = [
        (cli, "cmd_synth", "cli.cmd_synth", None),
        (cli, "cmd_project", "cli.cmd_project", None),
        (cli, "cmd_metrics", "cli.cmd_metrics", None),
        (cli, "cmd_ssm", "cli.cmd_ssm", None),
        (cli, "cmd_associate", "cli.cmd_associate", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "load_keypoints", "projection.load_keypoints", None),
        (cli, "fit_homography", "projection.fit_homography", None),
        (cli, "apply_homography", "projection.apply_homography", None),
        (cli, "ttc", "surrogate.ttc", _counts(("surrogate.closing", lambda a, k, r: r is not None))),
        (cli, "drac", "surrogate.drac", None),
        (synth, "generate_trajectories", "synth.generate_trajectories",
         _counts(("synth.rows", lambda a, k, r: sum(text.count("\n") - 1 for text in r.values())))),
        (synth, "generate_crash_counts", "synth.generate_crash_counts", None),
        (synth, "crash_records_csv", "synth.crash_records_csv", None),
        (traj, "parse_trajectories", "trajectories.parse_trajectories",
         _counts(("trajectories.rows_parsed", lambda a, k, r: sum(len(t.points) for t in r)))),
        (traj, "prepare_tracks", "trajectories.prepare_tracks",
         _counts(("trajectories.tracks_out", lambda a, k, r: len(r)))),
        (traj, "drop_static_objects", "trajectories.drop_static_objects",
         _counts(("trajectories.static_dropped", lambda a, k, r: len(a[0]) - len(r)))),
        (traj, "fill_gaps", "trajectories.fill_gaps",
         _counts(("trajectories.gap_frames_filled", lambda a, k, r: len(r[0].points) - len(a[0].points)),
                 ("trajectories.runs_split", lambda a, k, r: len(r[1])))),
        (traj, "smooth_savitzky_golay", "trajectories.smooth_savitzky_golay", None),
        (traj, "box_length_along_axis", "trajectories.box_length_along_axis", None),
        (traj, "classify_by_length", "trajectories.classify_by_length", None),
        (traj, "serialize_trajectories", "trajectories.serialize_trajectories", None),
        (nm, "compute_interval_metrics", "network_metrics.compute_interval_metrics",
         _counts(("network_metrics.frames", _frames),
                 ("network_metrics.samples", lambda a, k, r: sum(t.frames.size for t in a[0])))),
        *[(nm, f, f"network_metrics.{f}", None) for f in ("ivvr", "ovvr", "osr", "tci", "ntc")],
        (nm, "detect_congestion_events", "network_metrics.detect_congestion_events", None),
        (nm, "trt", "network_metrics.trt", None),
        (nm, "segment_free_flow_speed", "network_metrics.segment_free_flow_speed", None),
        (nm, "write_metrics_csv", "network_metrics.write_metrics_csv", None),
        (nm, "read_metrics_csv", "network_metrics.read_metrics_csv", None),
        (cr, "parse_crashes", "crashes.parse_crashes", _counts(("crashes.records", lambda a, k, r: len(r)))),
        (cr, "bin_crashes", "crashes.bin_crashes",
         _counts(("crashes.assigned", lambda a, k, r: r.n_assigned),
                 ("crashes.multi_match", lambda a, k, r: r.n_multi_match))),
        (assoc, "run_association", "association.run_association", None),
        (assoc, "build_dataset", "association.build_dataset",
         _counts(("association.offered", lambda a, k, r: len(a[0])),
                 ("association.joined", lambda a, k, r: r.n))),
        (assoc, "per_metric_correlations", "association.per_metric_correlations", None),
        (assoc, "full_model_analysis", "association.full_model_analysis",
         _counts(("association.rows", lambda a, k, r: a[0].n))),
        (assoc, "kfold_cv", "association.kfold_cv",
         _counts(("association.folds_used", lambda a, k, r: r.folds_used),
                 ("association.folds", lambda a, k, r: a[1]))),
        (assoc, "shapley_analysis", "association.shapley_analysis",
         _counts(("association.coalitions", lambda a, k, r: len(r.coalition_values)),
                 ("association.degenerate_coalitions", lambda a, k, r: len(r.degenerate_coalitions)))),
        (assoc, "cross_segment_analysis", "association.cross_segment_analysis", None),
        (assoc, "ols_fit", "stats.ols_fit", None),
        (assoc, "pearson", "stats.corr", None),
        (regression, "ols_fit", "stats.ols_fit", None),
        (regression, "poisson_fit", "stats.poisson_fit", None),
        (shapley, "ols_fit", "stats.ols_fit", None),
    ]
    # per_metric_correlations looks its functions up in this dict, which
    # captured the original objects at import time.
    table += [(assoc.CORRELATION_METHODS, m, "stats.corr", None) for m in list(assoc.CORRELATION_METHODS)]
    return table


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_metrics(spans: SpanTable, counts: dict, job: int) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    total, self_total, calls = spans.total, spans.self_total, spans.calls
    c = counts
    t = lambda *names: total(names, job)  # noqa: E731
    n = lambda *names: calls(names, job)  # noqa: E731
    compute_s = t("network_metrics.compute_interval_metrics")
    pairs = n("surrogate.ttc")
    return {
        "cli.project_s": t("cli.cmd_project"),
        "cli.metrics_s": t("cli.cmd_metrics"),
        "cli.ssm_s": t("cli.cmd_ssm"),
        "cli.associate_s": t("cli.cmd_associate"),
        "cli.project_self_s": self_total(["cli.cmd_project"], job),
        "cli.ssm_self_s": self_total(["cli.cmd_ssm"], job),
        "cli.invocations": n("cli.main"),
        "cli.warnings": c["cli.warnings"],
        "config.load_s": t("config.load_config"),
        "trajectories.parse_s": t("trajectories.parse_trajectories"),
        "trajectories.rows_parsed": c["trajectories.rows_parsed"],
        "trajectories.prepare_s": t("trajectories.prepare_tracks"),
        "trajectories.static_filter_s": t("trajectories.drop_static_objects"),
        "trajectories.gap_fill_s": t("trajectories.fill_gaps"),
        "trajectories.smooth_s": t("trajectories.smooth_savitzky_golay"),
        "trajectories.classify_s": t("trajectories.box_length_along_axis", "trajectories.classify_by_length"),
        "trajectories.static_dropped": c["trajectories.static_dropped"],
        "trajectories.gap_frames_filled": c["trajectories.gap_frames_filled"],
        "trajectories.runs_split": c["trajectories.runs_split"],
        "trajectories.tracks_out": c["trajectories.tracks_out"],
        "trajectories.serialize_s": t("trajectories.serialize_trajectories"),
        "projection.fit_s": t("projection.fit_homography"),
        "projection.fits": n("projection.fit_homography"),
        "projection.apply_calls": n("projection.apply_homography"),
        "projection.apply_s": t("projection.apply_homography"),
        "network_metrics.compute_s": compute_s,
        "network_metrics.frames": c["network_metrics.frames"],
        "network_metrics.samples": c["network_metrics.samples"],
        "network_metrics.us_per_frame": 1e6 * _ratio(compute_s, c["network_metrics.frames"]),
        "network_metrics.speed_metrics_s": t(*(f"network_metrics.{f}" for f in ("ivvr", "ovvr", "osr", "tci", "ntc"))),
        "network_metrics.trt_s": t("network_metrics.detect_congestion_events", "network_metrics.trt"),
        "network_metrics.free_flow_s": t("network_metrics.segment_free_flow_speed"),
        "network_metrics.frame_loop_self_s": self_total(["network_metrics.compute_interval_metrics"], job),
        "network_metrics.csv_s": t("network_metrics.write_metrics_csv", "network_metrics.read_metrics_csv"),
        "surrogate.pairs": pairs,
        "surrogate.s": t("surrogate.ttc", "surrogate.drac"),
        "surrogate.closing_ratio": _ratio(c["surrogate.closing"], pairs),
        "crashes.parse_s": t("crashes.parse_crashes"),
        "crashes.bin_s": t("crashes.bin_crashes"),
        "crashes.records": c["crashes.records"],
        "crashes.assigned_ratio": _ratio(c["crashes.assigned"], c["crashes.records"]),
        "crashes.multi_match": c["crashes.multi_match"],
        "association.run_s": t("association.run_association"),
        "association.dataset_s": t("association.build_dataset"),
        "association.correlations_s": t("association.per_metric_correlations"),
        "association.cv_s": t("association.full_model_analysis"),
        "association.shapley_s": t("association.shapley_analysis"),
        "association.cross_segment_s": t("association.cross_segment_analysis"),
        "association.rows": c["association.rows"],
        "association.kept_ratio": _ratio(c["association.joined"], c["association.offered"]),
        "association.coalitions": c["association.coalitions"],
        "association.degenerate_coalitions": c["association.degenerate_coalitions"],
        "association.cv_folds_used_ratio": _ratio(c["association.folds_used"], c["association.folds"]),
        "stats.ols_fits": n("stats.ols_fit"),
        "stats.ols_s": t("stats.ols_fit"),
        "stats.poisson_fits": n("stats.poisson_fit"),
        "stats.poisson_s": t("stats.poisson_fit"),
        "stats.corr_calls": n("stats.corr"),
        "stats.corr_s": t("stats.corr"),
    }


def setup_metrics(spans: SpanTable, counts: dict, job: int) -> dict[str, float]:
    """Per-layer metrics of one traced bundle generation."""
    return {
        "synth.trajectories_s": spans.total(["synth.generate_trajectories"], job),
        "synth.plant_s": spans.total(["synth.generate_crash_counts", "synth.crash_records_csv"], job),
        "synth.rows": counts["synth.rows"],
    }
