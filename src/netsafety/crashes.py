"""Crash-report ingestion and aggregation into per-segment, per-slot mean counts.

Records are matched to road segments by their world-frame bounding box and
to a time-of-day slot; counts are averaged across the years the data spans,
which is what the regression tries to predict. The chi-square procedures
check the two assumptions behind that averaging: sub-samples look like the
full data (consistency across time) and hours of the day differ.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ParameterError, SchemaError
from .geo import TangentPlane
from .network_metrics import SegmentConfig
from .stats.contingency import Chi2Result, chi2_contingency_yates, chi2_oneway
from .trajectories import CsvRecords

CRASH_COLUMNS = ("timestamp", "lat", "lon", "type")


class CrashType(str, Enum):
    REAR_END = "RearEnd"
    SIDESWIPE = "Sideswipe"
    OTHER = "Other"


CRASH_FAMILIES = ("AllType", "RearEnd", "Sideswipe")
SLOT_MINUTES = (10, 15, 20, 30, 60)  # the slot lengths a run config or a synth spec may use


@dataclass(frozen=True)
class CrashRecord:
    timestamp: datetime
    lat: float
    lon: float
    crash_type: CrashType


@dataclass
class CrashCounts:
    """Counts for one (segment, slot) cell, per crash family, averaged over years."""

    segment_id: str
    slot: int
    counts: dict[str, int] = field(default_factory=lambda: {f: 0 for f in CRASH_FAMILIES})
    years_covered: int = 1

    def mean_count(self, family: str) -> float:
        if family not in self.counts:
            raise ParameterError(f"unknown crash family {family!r}; expected one of {CRASH_FAMILIES}")
        return self.counts[family] / self.years_covered


@dataclass
class CrashBinning:
    """Full (segment x slot) grid of counts plus drop accounting."""

    counts: dict[tuple[str, int], CrashCounts]
    slot_minutes: int
    years_covered: int
    n_assigned: int = 0
    n_dropped: int = 0
    n_multi_match: int = 0


def _parse_type(raw: str, unknown_seen: set[str]) -> CrashType:
    token = raw.strip().upper()
    if token == "REAR_END":
        return CrashType.REAR_END
    if token == "SIDESWIPE":
        return CrashType.SIDESWIPE
    if token != "OTHER" and token not in unknown_seen:
        unknown_seen.add(token)
        warnings.warn(f"unknown crash type {raw!r} mapped to Other", stacklevel=3)
    return CrashType.OTHER


def parse_crashes(text: str) -> list[CrashRecord]:
    """Parse the crash CSV (``timestamp,lat,lon,type``; ISO-8601 timestamps) by CsvRecords' rules."""
    rows = CsvRecords(text, CRASH_COLUMNS, "crash")
    i_stamp, i_lat, i_lon, i_type = (rows.col[c] for c in CRASH_COLUMNS)
    unknown_seen: set[str] = set()
    records = []
    for row in rows:
        stamp_raw = row[i_stamp].strip()
        try:
            stamp = datetime.fromisoformat(stamp_raw.replace("Z", "+00:00"))
        except ValueError as exc:
            raise DataError(f"line {rows.line}: unparseable timestamp {stamp_raw!r}") from exc
        try:
            lat = float(row[i_lat])
            lon = float(row[i_lon])
        except ValueError as exc:
            raise SchemaError(f"line {rows.line}: malformed coordinate ({exc})") from exc
        if not (np.isfinite(lat) and np.isfinite(lon)):
            raise SchemaError(f"line {rows.line}: non-finite coordinate ({lat}, {lon})")
        records.append(CrashRecord(stamp, lat, lon, _parse_type(row[i_type], unknown_seen)))
    return records


def _families_of(ct: CrashType) -> list[str]:
    families = ["AllType"]  # every record, Other included
    if ct == CrashType.REAR_END:
        families.append("RearEnd")
    elif ct == CrashType.SIDESWIPE:
        families.append("Sideswipe")
    return families


def bin_crashes(
    records: Iterable[CrashRecord],
    segments: Sequence[SegmentConfig],
    slot_minutes: int,
    plane: TangentPlane,
    year_range: tuple[int, int] | None = None,
) -> CrashBinning:
    """Assign records to (segment, slot-of-day) cells and average counts over years.

    A record belongs to the first segment whose bbox contains its projected
    position (overlaps are counted and warned about once); records outside
    every bbox are dropped and counted. The grid covers every segment and
    every slot of the day, zeros included. Years covered defaults to the
    distinct years present in the data, or a configured closed range.
    """
    if slot_minutes <= 0 or (slot_minutes != 60 and 60 % slot_minutes != 0):
        raise ParameterError(f"slot_minutes must divide 60 (or be 60), got {slot_minutes}")
    for seg in segments:
        if seg.bbox is None:
            raise ParameterError(f"segment {seg.segment_id!r} has no bbox for crash matching")
    slots_per_day = 24 * 60 // slot_minutes
    records = list(records)

    if year_range is not None:
        y0, y1 = year_range
        if y1 < y0:
            raise ParameterError(f"invalid year range {year_range}")
        years = y1 - y0 + 1
    else:
        observed = {r.timestamp.year for r in records}
        years = max(len(observed), 1)

    grid = {
        (seg.segment_id, slot): CrashCounts(seg.segment_id, slot, years_covered=years)
        for seg in segments
        for slot in range(slots_per_day)
    }
    assigned = dropped = multi = 0
    xs, ys = plane.to_xy(np.array([r.lat for r in records]), np.array([r.lon for r in records]))
    for rec, x, y in zip(records, xs.tolist(), ys.tolist()):
        matches = [s.segment_id for s in segments if s.bbox[0] <= x <= s.bbox[2] and s.bbox[1] <= y <= s.bbox[3]]
        if not matches:
            dropped += 1
            continue
        if len(matches) > 1:
            multi += 1
        slot = (rec.timestamp.hour * 60 + rec.timestamp.minute) // slot_minutes
        cell = grid[(matches[0], slot)]
        for family in _families_of(rec.crash_type):
            cell.counts[family] += 1
        assigned += 1
    if multi:
        warnings.warn(
            f"{multi} crash records matched multiple segment bboxes; assigned to the first match",
            stacklevel=2,
        )
    return CrashBinning(
        counts=grid,
        slot_minutes=slot_minutes,
        years_covered=years,
        n_assigned=assigned,
        n_dropped=dropped,
        n_multi_match=multi,
    )


def subsample_consistency_test(
    counts_full: Mapping[int, int] | Sequence[int],
    fraction: float,
    seed: int,
    repeats: int = 1000,
) -> tuple[float, float]:
    """Do random sub-samples distribute over slots like the full data?

    For each repeat, records are drawn uniformly without replacement at the
    given fraction and the full-vs-subset per-slot counts form a 2 x K
    contingency table tested with the Yates-corrected chi-square; the
    statistic and p-value are averaged over repeats. High mean p-values say
    the slot profile is stable under sub-sampling.
    """
    if not 0 < fraction < 1:
        raise ParameterError(f"fraction must be in (0, 1), got {fraction}")
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    if isinstance(counts_full, Mapping):
        slots = sorted(counts_full)
        full = np.array([counts_full[s] for s in slots], dtype=int)
    else:
        full = np.asarray(counts_full, dtype=int)
    keep = full > 0  # empty slots have zero margin in both rows
    full = full[keep]
    if full.size < 2:
        raise DataError("need at least two slots with crashes")
    labels = np.repeat(np.arange(full.size), full)
    n_sub = max(1, round(fraction * labels.size))
    rng = np.random.default_rng(seed)
    stats = np.empty(repeats)
    pvals = np.empty(repeats)
    for r in range(repeats):
        chosen = rng.permutation(labels.size)[:n_sub]
        subset = np.bincount(labels[chosen], minlength=full.size)
        table = np.vstack([full, subset])
        col_ok = table.sum(axis=0) > 0
        result = chi2_contingency_yates(table[:, col_ok])
        stats[r] = result.statistic
        pvals[r] = result.p_value
    return float(stats.mean()), float(pvals.mean())


def hourly_heterogeneity_test(counts: Mapping[int, int] | Sequence[int]) -> Chi2Result:
    """One-way chi-square of per-hour totals against a uniform profile.

    A small p-value means the hours of the day genuinely differ, which is
    what makes time-of-day slots informative regression rows.
    """
    if isinstance(counts, Mapping):
        observed = [counts[k] for k in sorted(counts)]
    else:
        observed = list(counts)
    if len(observed) < 2:
        raise DataError("need at least two hours of data")
    return chi2_oneway(observed)
