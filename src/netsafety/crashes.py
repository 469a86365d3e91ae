"""Crash-report ingestion and aggregation into per-segment, per-slot mean counts.

Records are matched to road segments by their world-frame bounding box and
to a time-of-day slot; counts are averaged across the years the data spans,
which is what the regression tries to predict. The chi-square procedures
check the two assumptions behind that averaging: sub-samples look like the
full data (consistency across time) and hours of the day differ.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .csvio import CsvRecords
from .errors import DataError, ParameterError
from .geo import TangentPlane
from .network_metrics import SegmentConfig
from .stats.contingency import Chi2Result, chi2_contingency_yates, chi2_oneway

CRASH_COLUMNS = ("timestamp", "lat", "lon", "type")
_CRASH_DTYPE = np.dtype([("timestamp", "M8[m]"), ("lat", np.float64), ("lon", np.float64), ("type", object)])


class CrashType(str, Enum):
    REAR_END = "RearEnd"
    SIDESWIPE = "Sideswipe"
    OTHER = "Other"


CRASH_FAMILIES = ("AllType", "RearEnd", "Sideswipe")
_CODES = {t.name: i for i, t in enumerate(CrashType)}  # a type cell's token: its CrashType code
SLOT_MINUTES = (10, 15, 20, 30, 60)  # the slot lengths a run config or a synth spec may use

# Which crash types each family counts, by CRASH_FAMILIES row and CrashType code: AllType counts every record.
_IN_FAMILY = np.array([[family in ("AllType", t.value) for t in CrashType] for family in CRASH_FAMILIES])


@dataclass(frozen=True)
class CrashRecords:
    """Crash records as columns, in file order; ``crash_type`` holds codes into ``list(CrashType)``."""

    year: np.ndarray
    minute: np.ndarray  # minute of the day, in the timestamp's own clock
    lat: np.ndarray
    lon: np.ndarray
    crash_type: np.ndarray

    def __len__(self) -> int:
        return len(self.year)


@dataclass
class CrashBinning:
    """Crash counts by family (CRASH_FAMILIES order) x segment x slot of the day, plus drop accounting.

    A nan cell has no crash data; ``bin_crashes`` fills every cell, zeros included.
    """

    segment_ids: tuple[str, ...]
    counts: np.ndarray
    slot_minutes: int
    years_covered: int
    n_assigned: int = 0
    n_dropped: int = 0
    n_multi_match: int = 0

    def mean_counts(self, family: str) -> np.ndarray:
        """The segment x slot counts of ``family`` averaged over the years covered."""
        if family not in CRASH_FAMILIES:
            raise ParameterError(f"unknown crash family {family!r}; expected one of {CRASH_FAMILIES}")
        return self.counts[CRASH_FAMILIES.index(family)] / self.years_covered


def parse_crashes(data: bytes | str) -> CrashRecords:
    """Parse the crash CSV (``timestamp,lat,lon,type``) by CsvRecords' rules.

    Cells are typed by CsvRecords' rule: ``timestamp`` an ISO-8601 timestamp, ``lat`` and ``lon``
    finite numbers. A type cell is matched to a CrashType name case-insensitively; any other counts
    as Other, with one warning per unknown name, in file order.
    """
    table, _, error = CsvRecords(data, CRASH_COLUMNS, "crash").read(_CRASH_DTYPE)
    if error:
        raise error
    cells, first, inverse = np.unique(table["type"], return_index=True, return_inverse=True)
    codes, unknown = np.zeros(cells.size, dtype=np.int64), set()
    for k in np.argsort(first).tolist():  # each distinct cell, in file order
        token = cells[k].strip().upper()
        codes[k] = _CODES.get(token, _CODES["OTHER"])
        if token not in _CODES and token not in unknown:
            unknown.add(token)
            warnings.warn(f"unknown crash type {cells[k]!r} mapped to Other", stacklevel=2)
    stamp = table["timestamp"]
    return CrashRecords(stamp.astype("M8[Y]").astype(np.int64) + 1970,
                        (stamp - stamp.astype("M8[D]")).astype(np.int64), table["lat"], table["lon"], codes[inverse])


def slots_per_day(slot_minutes: int) -> int:
    """The number of time-of-day slots of ``slot_minutes`` each; only the SLOT_MINUTES lengths are slots."""
    if slot_minutes not in SLOT_MINUTES:
        raise ParameterError(f"slot_minutes must be one of {SLOT_MINUTES}, got {slot_minutes}")
    return 24 * 60 // slot_minutes


def bin_crashes(
    records: CrashRecords,
    segments: Sequence[SegmentConfig],
    slot_minutes: int,
    plane: TangentPlane,
    year_range: tuple[int, int] | None = None,
) -> CrashBinning:
    """Assign records to (segment, slot-of-day) cells and average counts over years.

    A record belongs to the first segment whose bbox contains its projected
    position (overlaps are counted and warned about once); records outside
    every bbox, or dated outside a configured closed year range (warned about
    once), are dropped and counted. The grid covers every segment and every
    slot of the day, zeros included. Years covered defaults to the distinct
    years present in the data, or the configured range.
    """
    n_slots = slots_per_day(slot_minutes)
    for seg in segments:
        if seg.bbox is None:
            raise ParameterError(f"segment {seg.segment_id!r} has no bbox for crash matching")

    dated = np.ones(len(records), dtype=bool)
    if year_range is not None:
        y0, y1 = year_range
        if y1 < y0:
            raise ParameterError(f"invalid year range {year_range}")
        years = y1 - y0 + 1
        dated = (y0 <= records.year) & (records.year <= y1)
        if not dated.all():
            warnings.warn(f"{int((~dated).sum())} crash records dated outside {y0}-{y1} dropped", stacklevel=2)
    else:
        years = max(np.unique(records.year).size, 1)

    x, y = plane.to_xy(records.lat, records.lon)
    x, y = x[:, None], y[:, None]
    box = np.array([seg.bbox for seg in segments], dtype=float).reshape(-1, 4).T
    inside = (box[0] <= x) & (x <= box[2]) & (box[1] <= y) & (y <= box[3]) & dated[:, None]  # records x segments
    n_matches = inside.sum(axis=1)
    hit = n_matches > 0
    multi = int((n_matches > 1).sum())
    if multi:
        warnings.warn(
            f"{multi} crash records matched multiple segment bboxes; assigned to the first match",
            stacklevel=2,
        )
    first = inside[hit].argmax(axis=1) if segments else np.zeros(0, dtype=np.int64)  # argmax needs a segment
    cell = (first, records.minute[hit] // slot_minutes)
    counts = np.zeros((len(CRASH_FAMILIES), len(segments), n_slots))
    for family, in_family in zip(counts, _IN_FAMILY):
        np.add.at(family, cell, in_family[records.crash_type[hit]])
    assigned = int(hit.sum())
    return CrashBinning(
        segment_ids=tuple(seg.segment_id for seg in segments),
        counts=counts,
        slot_minutes=slot_minutes,
        years_covered=years,
        n_assigned=assigned,
        n_dropped=len(records) - assigned,
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
