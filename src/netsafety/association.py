"""Association analysis between interval metrics and crash counts.

Builds regression datasets by joining metric rows with binned crash counts
on (segment, slot), then runs per-metric correlations, the cross-validated
full-predictor models (linear and Poisson), leave-one-segment-out
generalization checks, and Shapley attribution.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .crashes import CRASH_FAMILIES, SLOT_MINUTES, CrashBinning
from .errors import DataError, ParameterError
from .network_metrics import COLUMN_ALIASES, MetricsTable
from .stats import (
    Dataset,
    RegressionReport,
    ShapleyReport,
    kendall,
    kfold_cv,
    n_mse,
    ols_fit,
    pearson,
    predict,
    r2_score,
    shapley_values,
    spearman,
)
from .stats.regression import adjusted_r2
from .trajectories import csv_text

DEFAULT_PREDICTORS = ("ttc_cv", "ivvr", "ovvr", "osr_1.0", "tci", "ntc")
CORRELATION_METHODS = {"pearson": pearson, "spearman": spearman, "kendall": kendall}
BASELINE_COLUMNS = ("volume", "e_ttc")


@dataclass
class AnalysisConfig:
    slot_minutes: int = 10
    families: tuple[str, ...] = CRASH_FAMILIES
    methods: tuple[str, ...] = ("pearson", "spearman", "kendall")
    cv_folds: int = 5
    seed: int = 0
    predictors: tuple[str, ...] = DEFAULT_PREDICTORS
    # Manual exclusions for known camera outages: (segment_id, slot) pairs.
    exclude_slots: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.slot_minutes not in SLOT_MINUTES:
            raise ParameterError(f"slot_minutes must be one of {SLOT_MINUTES}, got {self.slot_minutes}")
        if self.cv_folds < 2:
            raise ParameterError(f"cv_folds must be at least 2, got {self.cv_folds}")
        if self.seed < 0:
            raise ParameterError(f"analysis seed must be >= 0, got {self.seed}")
        for key, known, noun, nouns in (("methods", CORRELATION_METHODS, "correlation method", "correlation methods"),
                                        ("families", CRASH_FAMILIES, "crash family", "crash families"),
                                        ("predictors", None, "metric column", None)):
            names = getattr(self, key)
            if not names:
                raise ParameterError(f"{key} must name at least one {noun}")
            if known is not None and (bad := [n for n in names if n not in known]):
                raise ParameterError(f"unknown {nouns}: {bad}")
            one = [COLUMN_ALIASES.get(n, n) for n in names]  # a name per column, not per spelling
            if twice := list(dict.fromkeys(n for n, c in zip(names, one) if one.count(c) > 1)):
                raise ParameterError(f"{key} name {twice} more than once")
        slots_per_day = 24 * 60 // self.slot_minutes
        outside = [list(entry) for entry in self.exclude_slots if not 0 <= entry[1] < slots_per_day]
        if outside:
            raise ParameterError(f"exclude_slots entry {outside[0]} needs 0 <= slot < {slots_per_day}")


def build_dataset(
    metrics: MetricsTable | Iterable[MetricsTable],
    binning: CrashBinning,
    family: str,
    predictors: Sequence[str] = DEFAULT_PREDICTORS,
    exclude_slots: Sequence[tuple[str, int]] = (),
) -> Dataset:
    """Inner-join metric rows with crash counts on (segment, slot), in (segment id, interval start) order.

    Rows whose slot has no crash data, with any absent predictor, or on the
    manual exclusion list are dropped and itemized in ``Dataset.dropped``.
    Baseline columns (traffic volume, mean pairwise TTC) ride along in
    ``extras``.
    """
    table = MetricsTable.concat(metrics)
    slots_per_day = 24 * 60 // binning.slot_minutes
    t_start = table.columns["interval_start"]
    slot = t_start // (binning.slot_minutes * 60)
    off_grid = np.flatnonzero((slot < 0) | (slot >= slots_per_day))
    if off_grid.size:
        i = off_grid[0]
        raise DataError(f"interval start {t_start[i]}s falls outside the slot grid (slot {int(slot[i])} of "
                        f"{slots_per_day}); intervals must lie within one day")
    # The crash grid and the exclusion list as flat arrays over the table's segments, at segment * slots_per_day + slot;
    # a segment the binning lacks takes the appended nan row (no crash data).
    segments, segment = np.unique(table.segment_id.astype(str), return_inverse=True)
    at = {sid: i * slots_per_day for i, sid in enumerate(segments.tolist())}
    mean = np.vstack([binning.mean_counts(family), np.full(slots_per_day, np.nan)])
    row = {sid: i for i, sid in enumerate(binning.segment_ids)}
    count = mean[[row.get(sid, -1) for sid in segments.tolist()]].ravel()
    on_list = np.zeros(count.size, dtype=bool)
    for sid, k in exclude_slots:
        if str(sid) in at and 0 <= int(k) < slots_per_day:
            on_list[at[str(sid)] + int(k)] = True
    code = segment * slots_per_day + slot.astype(np.int64)
    x = np.column_stack([table.column(p) for p in predictors])
    excluded = on_list[code]
    no_data = ~excluded & np.isnan(count[code])
    absent = ~(excluded | no_data) & np.isnan(x).any(axis=1)
    dropped = {"no_crash_data": int(no_data.sum()), "absent_metric": int(absent.sum()), "excluded": int(excluded.sum())}
    keep = ~(excluded | no_data | absent)
    if not keep.any():
        raise DataError(f"empty join for family {family!r}: no metric interval matched a crash slot "
                        f"(dropped: {dropped})")
    order = np.lexsort((t_start, segment))  # by (segment id, interval start); rows of one key in file order
    rows = order[keep[order]]
    return Dataset(x[rows], count[code[rows]], list(predictors), segment=segments[segment[rows]],
                   extras={name: table.column(name)[rows] for name in BASELINE_COLUMNS}, dropped=dropped)


def _correlation_or_none(fn, x: np.ndarray, y: np.ndarray) -> float | None:
    """``fn`` over the rows where ``x`` is defined; None for fewer than 2 rows, a constant column or response."""
    defined = ~np.isnan(x)
    x, y = x[defined], y[defined]
    if x.size < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return None
    try:
        return fn(x, y)
    except DataError:
        return None


def per_metric_correlations(d: Dataset, methods: Sequence[str]) -> dict[str, dict[str, float | None]]:
    """Correlation of each predictor (and each baseline) with the response.

    Returns {method: {column: r or None}}; None marks columns that are
    constant or (for baselines) have no defined values.
    """
    columns = [(name, d.x[:, j]) for j, name in enumerate(d.predictor_names)]
    columns += [(name, d.extras[name]) for name in BASELINE_COLUMNS if name in d.extras]
    return {method: {name: _correlation_or_none(CORRELATION_METHODS[method], col, d.y) for name, col in columns}
            for method in methods}


def full_model_analysis(d: Dataset, cfg: AnalysisConfig) -> dict[str, RegressionReport]:
    """Cross-validated linear and Poisson full-predictor models."""
    if d.n < 8 * d.m:
        warnings.warn(
            f"only {d.n} rows for {d.m} predictors (recommend n >= {8 * d.m}); estimates will be noisy",
            stacklevel=2,
        )
    return {
        "linear": kfold_cv(d, cfg.cv_folds, cfg.seed, "linear"),
        "poisson": kfold_cv(d, cfg.cv_folds, cfg.seed, "poisson"),
    }


@dataclass
class HoldoutRow:
    held_out: str
    n_test: int
    r2: float | None = None
    adj_r2: float | None = None
    n_mse: float | None = None
    unevaluable: bool = False


@dataclass
class CombinationRow:
    size: int
    n_combinations: int
    mean_abs_pooled_r: dict[str, float | None]
    mean_abs_segment_r: dict[str, float | None]


def cross_segment_analysis(d: Dataset, segment_ids: Sequence[str]) -> tuple[list[HoldoutRow], list[CombinationRow]]:
    """Generalization across segments of a family's join ``d``, taking each segment's rows by ``d.segment``.

    Segments go in sorted id order, each with its rows in join order; one of ``segment_ids`` without a row
    raises DataError naming it. Hold-out: fit on all-but-one segment, score on the unseen one (R-squared
    reported unclamped; it can go negative). Combinations: for every subset of segments, the absolute
    Pearson correlation of each predictor with the response over the pooled rows, averaged across subsets
    of the same size; the per-segment-averaged variant is reported alongside. Pooled |r| is computed from
    per-segment sums, not from stacked rows.
    """
    seg_ids = sorted(segment_ids)
    rows = [np.flatnonzero(d.segment == sid) for sid in seg_ids]
    if empty := [sid for sid, r in zip(seg_ids, rows) if not r.size]:
        raise DataError(f"segment {empty[0]!r} has no joined rows")
    if len(seg_ids) < 2:
        raise ParameterError("cross-segment analysis needs at least 2 segments")
    names = d.predictor_names
    order = np.concatenate(rows)
    x, y = d.x[order], d.y[order]
    ends = np.cumsum([r.size for r in rows])
    part = [slice(e - r.size, e) for e, r in zip(ends, rows)]  # each segment's block of x and y

    holdout: list[HoldoutRow] = []
    for sid, r, p in zip(seg_ids, rows, part):
        row = HoldoutRow(held_out=sid, n_test=r.size)
        try:
            yhat = predict(ols_fit(Dataset(np.delete(x, p, axis=0), np.delete(y, p), list(names))), x[p])
            row.r2 = r2_score(y[p], yhat)
            row.adj_r2 = adjusted_r2(row.r2, row.n_test, d.m + 1) if row.n_test > d.m + 1 else None
            row.n_mse = n_mse(y[p], yhat)
        except DataError:
            row.unevaluable = True
        holdout.append(row)

    seg_r = np.abs(np.array(
        [[_correlation_or_none(pearson, x[p, j], y[p]) for j in range(len(names))] for p in part],
        dtype=float,
    ))  # (segments, M), nan where undefined
    # Per-segment count, means, centred sums of squares and cross-products with y
    # (y is column M), min and max. A subset pools them by the pairwise update of
    # Chan, Golub & LeVeque (1983); its column is constant iff pooled min == max.
    z = [np.column_stack([x[p], y[p]]) for p in part]
    count = np.array([a.shape[0] for a in z], dtype=float)
    mean = np.array([a.mean(axis=0) for a in z])
    ss = np.array([((a - mu) ** 2).sum(axis=0) for a, mu in zip(z, mean)])
    sp = np.array([(a - mu).T @ (a[:, -1] - mu[-1]) for a, mu in zip(z, mean)])
    lo, hi = np.array([a.min(axis=0) for a in z]), np.array([a.max(axis=0) for a in z])
    combinations: list[CombinationRow] = []
    for size in range(1, len(seg_ids) + 1):
        combos = list(itertools.combinations(range(len(seg_ids)), size))
        w = np.array([[s in combo for s in range(len(seg_ids))] for combo in combos], dtype=float)
        n = w @ count
        dev = mean - (w @ (count[:, None] * mean) / n[:, None])[:, None]  # (subsets, segments, M + 1)
        wn = (w * count)[:, :, None]
        sxx = w @ ss + (wn * dev * dev).sum(axis=1)
        sxy = w @ sp + (wn * dev * dev[:, :, -1:]).sum(axis=1)
        member = w[:, :, None] > 0
        flat = np.where(member, lo, np.inf).min(axis=1) == np.where(member, hi, -np.inf).max(axis=1)
        den = sxx[:, :-1] * sxx[:, -1:]  # 0 also where a column's squares underflow, as subnormal values' do
        ok = ~(flat[:, :-1] | flat[:, -1:]) & (den != 0)
        pooled = np.abs(sxy[:, :-1]) / np.sqrt(np.where(ok, den, 1.0))
        seg_n = w @ ~np.isnan(seg_r)
        seg_mean = (w @ np.nan_to_num(seg_r)) / np.maximum(seg_n, 1)
        combinations.append(
            CombinationRow(
                size=size,
                n_combinations=len(combos),
                mean_abs_pooled_r=_column_means(names, pooled, ok),
                mean_abs_segment_r=_column_means(names, seg_mean, seg_n > 0),
            )
        )
    return holdout, combinations


def _column_means(names: Sequence[str], values: np.ndarray, valid: np.ndarray) -> dict[str, float | None]:
    """Per column, the mean of its valid entries; None when it has none."""
    return {n: (float(np.mean(values[valid[:, j], j])) if valid[:, j].any() else None) for j, n in enumerate(names)}


def shapley_analysis(d: Dataset) -> ShapleyReport:
    """Shapley attribution of adjusted R-squared across the predictors."""
    return shapley_values(d)


def _shapley_entry(d: Dataset) -> dict:
    try:
        return shapley_analysis(d).to_dict()
    except (DataError, ParameterError) as exc:
        return {"insufficient_data": str(exc)}


# ---------------------------------------------------------------------------
# Full report assembly
# ---------------------------------------------------------------------------


@dataclass
class AssociationReport:
    config: AnalysisConfig
    n_intervals: int
    families: dict[str, dict] = field(default_factory=dict)
    cross_segment: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        config = {f.name: getattr(self.config, f.name) for f in fields(self.config) if f.name != "exclude_slots"}
        return {
            "config": {k: list(v) if isinstance(v, tuple) else v for k, v in config.items()},
            "n_intervals": self.n_intervals,
            "families": self.families,
            "cross_segment": self.cross_segment,
        }


def _joined_families(
    table: MetricsTable, binning: CrashBinning, cfg: AnalysisConfig, report: AssociationReport
) -> Iterator[tuple[str, Dataset]]:
    """Each configured family with its one join; a family whose join fails is marked in ``report`` instead.

    A predictor the table has no column for raises SchemaError before any family is joined."""
    for name in cfg.predictors:
        table.column(name)
    for family in cfg.families:
        try:
            d = build_dataset(table, binning, family, cfg.predictors, cfg.exclude_slots)
        except DataError as exc:
            report.families[family] = {"insufficient_data": str(exc)}
        else:
            yield family, d


def run_association(table: MetricsTable, binning: CrashBinning, cfg: AnalysisConfig) -> AssociationReport:
    """Run every configured analysis for every crash family, on one join per family.

    Family analyses that cannot run (empty join, constant response, fewer
    rows than CV folds, ...) are marked ``insufficient_data`` with the reason
    instead of failing the whole report.
    """
    report = AssociationReport(config=cfg, n_intervals=len(table))
    segment_ids = sorted(set(table.segment_id.tolist()))
    for family, d in _joined_families(table, binning, cfg, report):
        entry = {"n_rows": d.n, "dropped": dict(d.dropped), "correlations": per_metric_correlations(d, cfg.methods)}
        try:
            entry["full_model"] = {kind: rep.to_dict() for kind, rep in full_model_analysis(d, cfg).items()}
        except DataError as exc:
            entry["full_model"] = {"insufficient_data": str(exc)}
        entry["shapley"] = _shapley_entry(d)
        report.families[family] = entry

        if len(segment_ids) >= 2:
            try:
                holdout, combos = cross_segment_analysis(d, segment_ids)
                report.cross_segment[family] = {"holdout": [vars(h) for h in holdout],
                                                "combinations": [vars(c) for c in combos]}
            except (DataError, ParameterError) as exc:
                report.cross_segment[family] = {"insufficient_data": str(exc)}
    return report


def run_shapley(table: MetricsTable, binning: CrashBinning, cfg: AnalysisConfig) -> AssociationReport:
    """Only the per-family Shapley entries of ``run_association``, for ``shapley_table_csv``."""
    report = AssociationReport(config=cfg, n_intervals=len(table))
    for family, d in _joined_families(table, binning, cfg, report):
        report.families[family] = {"shapley": _shapley_entry(d)}
    return report


# ---------------------------------------------------------------------------
# Flat CSV table writers (shapes mirror the report tables)
# ---------------------------------------------------------------------------


def _sections_run(report: AssociationReport, key: str) -> Iterator[tuple[str, dict]]:
    """(family, section) for each configured family whose ``key`` section is present and not ``insufficient_data``.

    ``key`` names a part of a family's entry, or is "cross_segment".
    """
    for family in report.config.families:
        entry = report.cross_segment if key == "cross_segment" else report.families.get(family, {})
        section = entry.get(family if key == "cross_segment" else key)
        if section and "insufficient_data" not in section:
            yield family, section


def correlations_table_csv(report: AssociationReport) -> str:
    columns = list(report.config.predictors) + list(BASELINE_COLUMNS)
    rows = [
        [method, family] + [corr.get(method, {}).get(c) for c in columns]
        for family, corr in _sections_run(report, "correlations")
        for method in report.config.methods
    ]
    return csv_text(["method", "family"] + columns, zip(*rows))


def full_model_table_csv(report: AssociationReport) -> str:
    rows = [[family, *(m["linear"][k] for k in ("f_pvalue", "r2", "adj_r2", "n_mse")), m["poisson"]["n_mse"]]
            for family, m in _sections_run(report, "full_model")]
    return csv_text(["family", "f_pvalue", "r2", "adj_r2", "n_mse_linear", "n_mse_poisson"], zip(*rows))


def shapley_table_csv(report: AssociationReport) -> str:
    rows = [[family] + [shap["phi"].get(p) for p in report.config.predictors]
            for family, shap in _sections_run(report, "shapley")]
    return csv_text(["family"] + list(report.config.predictors), zip(*rows))


def cross_segment_tables_csv(report: AssociationReport) -> tuple[str, str]:
    """Returns (combinations_csv, holdout_csv)."""
    predictors = list(report.config.predictors)
    combos, holdout = [], []
    for family, cs in _sections_run(report, "cross_segment"):
        for combo in cs["combinations"]:
            for agg_key, label in (("mean_abs_pooled_r", "pooled"), ("mean_abs_segment_r", "segment_mean")):
                combos.append([family, combo["size"], combo["n_combinations"], label]
                              + [combo[agg_key].get(p) for p in predictors])
        for row in cs["holdout"]:
            holdout.append([family, row["held_out"], row["n_test"], row["r2"], row["adj_r2"], row["n_mse"],
                            str(row["unevaluable"]).lower()])
    return (
        csv_text(["family", "size", "n_combinations", "aggregation"] + predictors, zip(*combos)),
        csv_text(["family", "held_out", "n_test", "r2", "adj_r2", "n_mse", "unevaluable"], zip(*holdout)),
    )
