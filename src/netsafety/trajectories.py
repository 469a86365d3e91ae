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
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

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
    """One bounding box of a Trajectory, as its ``points`` view builds it (x1 <= x2, y1 <= y2)."""

    frame: int
    timestamp: float
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def cx(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def cy(self) -> float:
        return 0.5 * (self.y1 + self.y2)


def _normalized(boxes: np.ndarray) -> np.ndarray:
    """(n, 4) corners reordered so x1 <= x2 and y1 <= y2."""
    x1, y1, x2, y2 = boxes.T
    swap_x, swap_y = x1 > x2, y1 > y2
    return np.column_stack(
        [np.where(swap_x, x2, x1), np.where(swap_y, y2, y1), np.where(swap_x, x1, x2), np.where(swap_y, y1, y2)]
    )


@dataclass(eq=False)
class Trajectory:
    """Ordered track of one vehicle: strictly increasing ``frames`` and (n, 4) ``boxes``.

    Box corners are ``x1, y1, x2, y2`` with x1 <= x2 and y1 <= y2. ``points``
    is a read-only TrackPoint view of the same rows.
    """

    vehicle_id: str
    frames: np.ndarray
    boxes: np.ndarray
    fps: float

    @property
    def points(self) -> "_PointView":
        return _PointView(self)

    def displacement(self) -> float:
        if self.frames.size < 2:
            return 0.0
        (fx1, fy1, fx2, fy2), (lx1, ly1, lx2, ly2) = self.boxes[0].tolist(), self.boxes[-1].tolist()
        return math.hypot(0.5 * (lx1 + lx2) - 0.5 * (fx1 + fx2), 0.5 * (ly1 + ly2) - 0.5 * (fy1 + fy2))


class _PointView(Sequence):
    """A Trajectory's rows as TrackPoints, each built when indexed; ``len()`` builds none."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return self._traj.frames.size

    def __getitem__(self, i: int) -> TrackPoint:
        traj = self._traj
        frame = int(traj.frames[i])
        return TrackPoint(frame, frame / traj.fps, *traj.boxes[i].tolist())


def parse_trajectories(text: str, fps: float) -> list[Trajectory]:
    """Parse the trajectory CSV (``frame,vehicle_id,x1,y1,x2,y2``) into trajectories.

    Rows stream once into per-vehicle columns; each vehicle_id becomes one Trajectory,
    in order of first appearance; vehicles may interleave. Besides the rules of
    CsvRecords, the first faulty row raises, naming its line: SchemaError for a
    malformed number, a non-finite coordinate or an empty vehicle_id; DataError for
    a negative frame or one not above the vehicle's previous frame.
    """
    if fps <= 0:
        raise ParameterError(f"fps must be positive, got {fps}")
    rows = CsvRecords(text, TRAJECTORY_COLUMNS, "trajectory")
    i_frame, i_vid, i_x1, i_y1, i_x2, i_y2 = (rows.col[c] for c in TRAJECTORY_COLUMNS)

    tracks: dict[str, tuple[list[int], list[float]]] = {}  # vehicle_id -> (frames, corners), first appearance first
    isfinite = math.isfinite
    for row in rows:
        try:
            frame = int(row[i_frame])
            x1, y1, x2, y2 = float(row[i_x1]), float(row[i_y1]), float(row[i_x2]), float(row[i_y2])
        except ValueError as exc:
            raise SchemaError(f"line {rows.line}: malformed numeric field ({exc})") from exc
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            raise SchemaError(f"line {rows.line}: non-finite coordinate in ({x1}, {y1}, {x2}, {y2})")
        if frame < 0:
            raise DataError(f"line {rows.line}: negative frame index {frame}")
        vid = row[i_vid].strip()
        if not vid:
            raise SchemaError(f"line {rows.line}: empty vehicle_id")
        track = tracks.get(vid)
        if track is None:
            track = tracks[vid] = ([], [])
        elif frame <= track[0][-1]:
            raise DataError(f"vehicle {vid!r}: non-monotone frame {frame} after {track[0][-1]} (line {rows.line})")
        if x1 > x2:
            x1, x2 = x2, x1
        if y1 > y2:
            y1, y2 = y2, y1
        track[0].append(frame)
        track[1].extend((x1, y1, x2, y2))

    # Per-vehicle arrays, not file-sized ones sliced afterwards: file-sized temporaries freed
    # mid-heap left the process's resident memory depending on the allocator's layout.
    return [
        Trajectory(vid, np.array(frames, dtype=np.int64), np.array(corners, dtype=float).reshape(-1, 4), fps)
        for vid, (frames, corners) in tracks.items()
    ]


def serialize_trajectories(trajectories: Iterable[Trajectory]) -> str:
    """Inverse of parse_trajectories; rows grouped by vehicle, ordered by frame."""
    trajs = list(trajectories)
    frames = np.concatenate([t.frames for t in trajs]) if trajs else np.empty(0, dtype=np.int64)
    boxes = np.concatenate([t.boxes for t in trajs]) if trajs else np.empty((0, 4))
    vids = [vid for t in trajs for vid in [t.vehicle_id] * t.frames.size]
    return csv_text(TRAJECTORY_COLUMNS, [frames, vids, *boxes.T])


def format_cell(value) -> str:
    """One CSV cell: None is empty, any float its shortest round-trip repr, anything else str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # float(): numpy 2 reprs np.float64 as 'np.float64(x)'
    return str(value)


class CsvRecords:
    """An input CSV's header index and data rows, read by the rules of every input table.

    Header cells are stripped of whitespace, and ``col[name]`` is the first column so
    named. Iterating yields the cells of each data row; rows whose cells are all blank
    are skipped. An empty file, a header without one of ``required`` and a row shorter
    than the header raise SchemaError, naming the file by ``what``.
    """

    def __init__(self, text: str, required: Sequence[str], what: str):
        self._reader = csv.reader(io.StringIO(text))
        header = next(self._reader, None)
        if header is None:
            raise SchemaError(f"{what} file is empty (header required)")
        header = [h.strip() for h in header]
        self.col = {name: header.index(name) for name in header}
        missing = [c for c in required if c not in self.col]
        if missing:
            raise SchemaError(f"{what} header missing required columns: {missing}")
        self._width = len(header)

    @property
    def line(self) -> int:
        """The physical line the last row read ends on (a quoted cell may span lines)."""
        return self._reader.line_num

    def __iter__(self) -> Iterator[list[str]]:
        reader, width = self._reader, self._width
        for row in reader:
            # Blankness is tested only on a short row or one whose first cell is blank.
            if len(row) < width or not row[0].strip():
                if not any(c.strip() for c in row):
                    continue
                if len(row) < width:
                    raise SchemaError(f"line {reader.line_num}: expected {width} fields, got {len(row)}")
            yield row


_CSV_QUOTED = re.compile('[,"\n]')  # a cell holding one of these is quoted


def _csv_cells(column) -> list[str]:
    """One column's cells: float arrays by repr, int arrays by str, anything else by format_cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    cells = list(map(format_cell, column))
    if _CSV_QUOTED.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _CSV_QUOTED.search(c) else c for c in cells]
    return cells


def csv_text(header: Sequence[str], columns: Iterable) -> str:
    """The CSV text of a table given column by column, in the dialect of every file written.

    Lines end in LF. A cell is quoted, inner quotes doubled, only when it holds a comma,
    a quote or a newline, as csv.writer(lineterminator="\\n") quotes it. Floats are their
    shortest round-trip repr and None is an empty cell. An empty header writes the data
    lines alone, for text built in chunks.
    """
    lines = [",".join(row) for row in zip(*map(_csv_cells, columns))]
    if header:
        lines.insert(0, ",".join(_csv_cells(header)))
    return "\n".join(lines) + "\n" if lines else ""


def fill_gaps(traj: Trajectory, max_gap: int = DEFAULT_MAX_GAP_FRAMES) -> tuple[Trajectory, list[tuple[int, int]]]:
    """Fill missing frames (gap <= max_gap) by linear interpolation of the box corners.

    Longer gaps are left open and returned as (last_frame_before, first_frame_after)
    flags so downstream stages can treat the spans on either side separately.
    Idempotent: re-running changes nothing.
    """
    frames, boxes = traj.frames, traj.boxes
    if frames.size < 2:
        raise DataError(f"vehicle {traj.vehicle_id!r}: need at least 2 points to fill gaps")
    if frames[-1] - frames[0] == frames.size - 1:  # no frame missing (frames strictly increase)
        return Trajectory(traj.vehicle_id, frames, boxes, traj.fps), []
    step = np.diff(frames)
    long_gap = step - 1 > max_gap
    flagged = list(zip(frames[:-1][long_gap].tolist(), frames[1:][long_gap].tolist()))
    fill = (step > 1) & ~long_gap
    if fill.any():
        # After the first row, step i yields rows k = 1..reps[i]: its missing
        # frames when filled (k < reps[i]), then the row it ends on.
        reps = np.where(fill, step, 1)
        i = np.repeat(np.arange(step.size), reps)
        k = np.arange(1, i.size + 1) - np.repeat(np.cumsum(reps) - reps, reps)
        mid = k < reps[i]
        w = (k / step[i])[:, None]
        interpolated = _normalized(boxes[i] + w * (boxes[i + 1] - boxes[i]))
        boxes = np.concatenate([boxes[:1], np.where(mid[:, None], interpolated, boxes[i + 1])])
        frames = np.concatenate([frames[:1], np.where(mid, frames[i] + k, frames[i + 1])])
    return Trajectory(traj.vehicle_id, frames, boxes, traj.fps), flagged


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
    b = traj.boxes
    extents = np.abs((b[:, 2] - b[:, 0]) * ux) + np.abs((b[:, 3] - b[:, 1]) * uy)
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
        if traj.frames.size < 2:
            continue
        filled, flagged = fill_gaps(traj, max_gap=max_gap)
        length = box_length_along_axis(filled, travel_axis)
        vclass = classify_by_length(length, class_threshold_m)
        # A new run starts at the first frame after each long gap.
        cuts = np.searchsorted(filled.frames, [after for _, after in flagged]).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, filled.frames.size]):
            if hi - lo < 2:
                continue
            frames = filled.frames[lo:hi]
            corners = filled.boxes[lo:hi]
            if frames.size >= sg_window:
                corners = np.column_stack(
                    [smooth_savitzky_golay(corners[:, j], sg_window, sg_order) for j in range(4)]
                )
            cx = 0.5 * (corners[:, 0] + corners[:, 2])
            cy = 0.5 * (corners[:, 1] + corners[:, 3])
            vx, vy = _velocity_arrays(frames.astype(float), cx, cy, traj.fps)
            prepared.append(
                PreparedTrack(traj.vehicle_id, vclass, length, frames, frames / traj.fps, cx, cy, vx, vy)
            )
    return prepared
