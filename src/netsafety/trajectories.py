"""Trajectory ingestion, repair, smoothing, kinematics, and classification.

Trajectories arrive as per-frame bounding boxes (one CSV row per vehicle per
frame). Vehicles are treated as point objects at the bounding-box centroid;
velocity is the first difference of the centroid positions. Vehicle class is
decided purely by physical length.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParameterError, SchemaError

TRAJECTORY_COLUMNS = ("frame", "vehicle_id", "x1", "y1", "x2", "y2")

#: Default track-repair / smoothing parameters (30 fps assumptions).
DEFAULT_MAX_GAP_FRAMES = 15
DEFAULT_SG_WINDOW = 21
DEFAULT_SG_ORDER = 3
DEFAULT_CLASS_THRESHOLD_M = 8.0
DEFAULT_MIN_DISPLACEMENT_M = 2.0


class VehicleClass(str, Enum):
    CAR = "Car"
    TRUCK = "Truck"


@dataclass(frozen=True)
class TrackPoint:
    """One observed bounding box. Corners are normalized so x1 <= x2, y1 <= y2."""

    frame: int
    timestamp: float
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.frame < 0:
            raise DataError(f"negative frame index {self.frame}")
        if self.x1 > self.x2:
            x1, x2 = self.x1, self.x2
            object.__setattr__(self, "x1", x2)
            object.__setattr__(self, "x2", x1)
        if self.y1 > self.y2:
            y1, y2 = self.y1, self.y2
            object.__setattr__(self, "y1", y2)
            object.__setattr__(self, "y2", y1)

    @property
    def cx(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def cy(self) -> float:
        return 0.5 * (self.y1 + self.y2)


def _make_point(frame, fps, x1, y1, x2, y2) -> TrackPoint:
    lo_x, hi_x = (x1, x2) if x1 <= x2 else (x2, x1)
    lo_y, hi_y = (y1, y2) if y1 <= y2 else (y2, y1)
    return TrackPoint(frame=frame, timestamp=frame / fps, x1=lo_x, y1=lo_y, x2=hi_x, y2=hi_y)


@dataclass
class Trajectory:
    """Ordered track of one vehicle."""

    vehicle_id: str
    points: list[TrackPoint]
    fps: float
    vclass: VehicleClass | None = None
    length_m: float | None = None

    def frames(self) -> list[int]:
        return [p.frame for p in self.points]

    def displacement(self) -> float:
        if len(self.points) < 2:
            return 0.0
        first, last = self.points[0], self.points[-1]
        return math.hypot(last.cx - first.cx, last.cy - first.cy)


def parse_trajectories(stream: io.TextIOBase | str, fps: float) -> list[Trajectory]:
    """Parse the trajectory CSV (``frame,vehicle_id,x1,y1,x2,y2``) into trajectories.

    One Trajectory per vehicle_id with points ordered by frame. Raises
    SchemaError naming the offending line for malformed rows and DataError
    naming the vehicle for non-monotone frame sequences.
    """
    if fps <= 0:
        raise ParameterError(f"fps must be positive, got {fps}")
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("trajectory file is empty (header required)") from None
    header = [h.strip() for h in header]
    missing = [c for c in TRAJECTORY_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"trajectory header missing required columns: {missing}")
    idx = {c: header.index(c) for c in TRAJECTORY_COLUMNS}

    by_vehicle: dict[str, list[TrackPoint]] = {}
    order: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < len(header):
            raise SchemaError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            frame = int(row[idx["frame"]])
            coords = [float(row[idx[c]]) for c in ("x1", "y1", "x2", "y2")]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: malformed numeric field ({exc})") from exc
        vid = row[idx["vehicle_id"]].strip()
        if not vid:
            raise SchemaError(f"line {lineno}: empty vehicle_id")
        pts = by_vehicle.setdefault(vid, [])
        if not pts:
            order.append(vid)
        elif frame <= pts[-1].frame:
            raise DataError(
                f"vehicle {vid!r}: non-monotone frame {frame} after {pts[-1].frame} (line {lineno})"
            )
        pts.append(_make_point(frame, fps, *coords))

    return [Trajectory(vehicle_id=vid, points=by_vehicle[vid], fps=fps) for vid in order]


def serialize_trajectories(trajectories: Iterable[Trajectory]) -> str:
    """Inverse of parse_trajectories; rows grouped by vehicle, ordered by frame."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    for traj in trajectories:
        for p in traj.points:
            coords = (p.x1, p.y1, p.x2, p.y2)
            writer.writerow([p.frame, traj.vehicle_id, *(format_cell(float(v)) for v in coords)])
    return out.getvalue()


def format_cell(value) -> str:
    """One CSV cell: None is empty, any float its shortest round-trip repr, anything else str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # float(): numpy 2 reprs np.float64 as 'np.float64(x)'
    return str(value)


def fill_gaps(traj: Trajectory, max_gap: int = DEFAULT_MAX_GAP_FRAMES) -> tuple[Trajectory, list[tuple[int, int]]]:
    """Fill missing frames (gap <= max_gap) by linear interpolation of the box corners.

    Longer gaps are left open and returned as (last_frame_before, first_frame_after)
    flags so downstream stages can treat the spans on either side separately.
    Idempotent: re-running changes nothing.
    """
    if len(traj.points) < 2:
        raise DataError(f"vehicle {traj.vehicle_id!r}: need at least 2 points to fill gaps")
    filled: list[TrackPoint] = [traj.points[0]]
    flagged: list[tuple[int, int]] = []
    for prev, nxt in zip(traj.points, traj.points[1:]):
        n_missing = nxt.frame - prev.frame - 1
        if 0 < n_missing <= max_gap:
            for f in range(prev.frame + 1, nxt.frame):
                w = (f - prev.frame) / (nxt.frame - prev.frame)
                filled.append(
                    _make_point(
                        f,
                        traj.fps,
                        prev.x1 + w * (nxt.x1 - prev.x1),
                        prev.y1 + w * (nxt.y1 - prev.y1),
                        prev.x2 + w * (nxt.x2 - prev.x2),
                        prev.y2 + w * (nxt.y2 - prev.y2),
                    )
                )
        elif n_missing > max_gap:
            flagged.append((prev.frame, nxt.frame))
        filled.append(nxt)
    return (
        Trajectory(traj.vehicle_id, filled, traj.fps, vclass=traj.vclass, length_m=traj.length_m),
        flagged,
    )


@lru_cache(maxsize=32)
def _sg_projection(window: int, order: int) -> np.ndarray:
    """window x window least-squares polynomial projection matrix.

    Row k evaluates the degree-``order`` fit of a full window at offset k;
    the center row is the classic smoothing kernel.
    """
    offsets = np.arange(window, dtype=float) - window // 2
    design = np.vander(offsets, order + 1, increasing=True)
    proj = design @ np.linalg.pinv(design)
    proj.setflags(write=False)
    return proj


def smooth_savitzky_golay(series: Sequence[float], window: int, order: int) -> np.ndarray:
    """Savitzky-Golay smoothing: per-window least-squares polynomial, evaluated at center.

    Edge samples are produced by evaluating the polynomial fitted to the
    first/last full window at the edge offsets, which keeps polynomials of
    degree <= order exactly invariant over the whole output (mirror padding
    would break that at the edges). Output length equals input length.
    """
    if window % 2 == 0 or window <= order or order < 0:
        raise ParameterError(f"need odd window > order >= 0, got window={window} order={order}")
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ParameterError("series must be one-dimensional")
    if arr.size < window:
        raise ParameterError(f"series length {arr.size} shorter than window {window}")
    proj = _sg_projection(window, order)
    half = window // 2
    out = np.empty_like(arr)
    out[half : arr.size - half] = np.correlate(arr, proj[half], mode="valid")
    out[:half] = proj[:half] @ arr[:window]
    out[arr.size - half :] = proj[half + 1 :] @ arr[-window:]
    return out


def _velocity_arrays(frames: np.ndarray, xs: np.ndarray, ys: np.ndarray, fps: float):
    """Backward-difference velocities; first sample copies the second's."""
    dt = np.diff(frames) / fps
    vx = np.empty_like(xs)
    vy = np.empty_like(ys)
    vx[1:] = np.diff(xs) / dt
    vy[1:] = np.diff(ys) / dt
    vx[0] = vx[1]
    vy[0] = vy[1]
    return vx, vy


def classify_by_length(length_m: float, threshold_m: float = DEFAULT_CLASS_THRESHOLD_M) -> VehicleClass:
    """Car below the threshold, Truck at or above it."""
    if length_m <= 0:
        raise DataError(f"vehicle length must be positive, got {length_m}")
    return VehicleClass.CAR if length_m < threshold_m else VehicleClass.TRUCK


def box_length_along_axis(traj: Trajectory, travel_axis: Sequence[float]) -> float:
    """Median bounding-box extent along the travel direction (meters)."""
    ux, uy = travel_axis
    norm = math.hypot(ux, uy)
    if norm == 0:
        raise ParameterError("travel_axis must be a nonzero vector")
    ux, uy = ux / norm, uy / norm
    extents = [abs((p.x2 - p.x1) * ux) + abs((p.y2 - p.y1) * uy) for p in traj.points]
    return float(np.median(extents))


def drop_static_objects(
    trajectories: Iterable[Trajectory], min_displacement_m: float = DEFAULT_MIN_DISPLACEMENT_M
) -> list[Trajectory]:
    """Remove transitional/stationary non-vehicle tracks by net displacement."""
    return [t for t in trajectories if t.displacement() >= min_displacement_m]


@dataclass
class PreparedTrack:
    """One gap-free run of a vehicle, ready for metric extraction.

    Arrays are aligned per sample: frame index, time, centroid position,
    velocity components, scalar speed.
    """

    vehicle_id: str
    vclass: VehicleClass
    length_m: float
    frames: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    speed: np.ndarray = field(init=False)

    def __post_init__(self):
        self.speed = np.hypot(self.vx, self.vy)


def _split_runs(traj: Trajectory, flagged: list[tuple[int, int]]) -> list[list[TrackPoint]]:
    if not flagged:
        return [traj.points]
    cuts = {after for _, after in flagged}
    runs: list[list[TrackPoint]] = [[]]
    for p in traj.points:
        if p.frame in cuts and runs[-1]:
            runs.append([])
        runs[-1].append(p)
    return [r for r in runs if r]


def prepare_tracks(
    trajectories: Iterable[Trajectory],
    travel_axis: Sequence[float],
    *,
    max_gap: int = DEFAULT_MAX_GAP_FRAMES,
    sg_window: int = DEFAULT_SG_WINDOW,
    sg_order: int = DEFAULT_SG_ORDER,
    class_threshold_m: float = DEFAULT_CLASS_THRESHOLD_M,
    min_displacement_m: float = DEFAULT_MIN_DISPLACEMENT_M,
) -> list[PreparedTrack]:
    """Full preparation pipeline: static filter, gap fill, smoothing, classify, kinematics.

    Tracks are split at gaps longer than ``max_gap`` and each gap-free run of
    >= 2 points becomes one PreparedTrack (same vehicle_id across runs).
    """
    prepared: list[PreparedTrack] = []
    for traj in drop_static_objects(trajectories, min_displacement_m):
        if len(traj.points) < 2:
            continue
        filled, flagged = fill_gaps(traj, max_gap=max_gap)
        length = box_length_along_axis(filled, travel_axis)
        vclass = classify_by_length(length, class_threshold_m)
        for run_points in _split_runs(filled, flagged):
            if len(run_points) < 2:
                continue
            frames = np.array([p.frame for p in run_points], dtype=int)
            corners = np.array([[p.x1, p.y1, p.x2, p.y2] for p in run_points])
            if frames.size >= sg_window:
                corners = np.column_stack(
                    [smooth_savitzky_golay(corners[:, j], sg_window, sg_order) for j in range(4)]
                )
            cx = 0.5 * (corners[:, 0] + corners[:, 2])
            cy = 0.5 * (corners[:, 1] + corners[:, 3])
            vx, vy = _velocity_arrays(frames.astype(float), cx, cy, traj.fps)
            prepared.append(
                PreparedTrack(
                    vehicle_id=traj.vehicle_id,
                    vclass=vclass,
                    length_m=length,
                    frames=frames,
                    t=frames / traj.fps,
                    x=cx,
                    y=cy,
                    vx=vx,
                    vy=vy,
                )
            )
    return prepared
