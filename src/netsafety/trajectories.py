"""Trajectory ingestion, repair, smoothing, kinematics, and classification.

Trajectories arrive as per-frame bounding boxes (one CSV row per vehicle per
frame). Vehicles are treated as point objects at the bounding-box centroid;
velocity is the first difference of the centroid positions. Vehicle class is
decided purely by physical length.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .csvio import CodedColumn, CsvRecords, csv_text
from .errors import DataError, ParameterError, SchemaError

TRAJECTORY_COLUMNS = ("frame", "vehicle_id", "x1", "y1", "x2", "y2")
_CORNERS = TRAJECTORY_COLUMNS[2:]
_TRAJECTORY_DTYPE = np.dtype([("frame", np.int64), ("vehicle_id", object), *((c, np.float64) for c in _CORNERS)])


@dataclass(frozen=True)
class TrackPrepConfig:
    """Track repair and smoothing parameters for ``prepare_tracks`` (30 fps assumptions)."""

    max_gap_frames: int = 15
    sg_window: int = 21
    sg_order: int = 3
    class_threshold_m: float = 8.0
    min_displacement_m: float = 2.0

    def __post_init__(self):
        if not (self.max_gap_frames >= 0 and self.sg_window % 2 == 1 and self.sg_window > self.sg_order >= 0
                and self.class_threshold_m > 0 and self.min_displacement_m >= 0):
            raise ParameterError("prep needs max_gap_frames >= 0, an odd sg_window > sg_order >= 0, "
                                 f"class_threshold_m > 0 and min_displacement_m >= 0, got {self}")


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
    """A segment's tracks at one ``fps``: vehicle ``vehicle_ids[v]`` owns rows ``bounds[v]:bounds[v + 1]``.

    ``frames`` strictly increase within a vehicle; ``boxes`` are (n, 4), x1 <= x2 and y1 <= y2. ``len()`` counts
    vehicles, iterating yields one-vehicle tables, and ``points`` is a read-only TrackPoint view of the rows.
    """

    vehicle_ids: list[str]
    bounds: np.ndarray
    frames: np.ndarray
    boxes: np.ndarray
    fps: float

    def __len__(self) -> int:
        return len(self.vehicle_ids)

    def __iter__(self) -> Iterator[Trajectory]:
        for vid, lo, hi in zip(self.vehicle_ids, self.bounds[:-1].tolist(), self.bounds[1:].tolist()):
            yield Trajectory([vid], np.array([0, hi - lo]), self.frames[lo:hi], self.boxes[lo:hi], self.fps)

    @property
    def points(self) -> "_PointView":
        return _PointView(self)

    def id_column(self) -> CodedColumn:
        """Each row's vehicle id."""
        return CodedColumn(self.vehicle_ids, np.repeat(np.arange(len(self)), np.diff(self.bounds)))

    def _select(self, keep: np.ndarray) -> Trajectory:
        """The table of the vehicles where ``keep`` is true."""
        sizes = np.diff(self.bounds)
        rows = np.repeat(keep, sizes)
        return Trajectory([vid for vid, k in zip(self.vehicle_ids, keep.tolist()) if k],
                          np.concatenate([[0], np.cumsum(sizes[keep])]), self.frames[rows], self.boxes[rows], self.fps)


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


def parse_trajectories(data: bytes | str, fps: float) -> Trajectory:
    """Parse the trajectory CSV (``frame,vehicle_id,x1,y1,x2,y2``) into one table.

    Each vehicle_id (stripped of whitespace) is one vehicle of the table, in order of
    first appearance; vehicles may interleave. Besides CsvRecords' rules (``frame`` an
    integer, the corners numbers), the first faulty row raises, naming its line:
    SchemaError for an empty vehicle_id; DataError for a negative frame or one not above
    the vehicle's previous frame.

    The body is read in one np.loadtxt pass. Where loadtxt refuses it (text that is not
    ASCII included) or a row fails a check, the rows are read again one at a time, to
    take what loadtxt refused or to name the first faulty row's line.
    """
    if fps <= 0:
        raise ParameterError(f"fps must be positive, got {fps}")
    records = CsvRecords(data, TRAJECTORY_COLUMNS, "trajectory")
    try:
        rows = _Rows(records.table(_TRAJECTORY_DTYPE))
    except ValueError:
        rows = None
    if rows is None or rows.faults().any():
        table, lines, error = records.read(_TRAJECTORY_DTYPE)
        rows = _Rows(table)
        rows.raise_first_fault(lines)
        if error:
            raise error
    return rows.table(fps)


class _Rows:
    """Trajectory rows as columns, checked as masks and grouped by vehicle with one stable argsort.

    ``code`` indexes ``vids``, the stripped vehicle ids in order of first appearance.
    ``corners`` are the (n, 4) boxes as read, before normalisation.
    """

    def __init__(self, table: np.ndarray):
        index: dict[str, int] = {}
        self.frame = table["frame"].copy()
        self.code = np.array([index.setdefault(vid.strip(), len(index)) for vid in table["vehicle_id"].tolist()],
                             dtype=np.intp)
        self.vids = list(index)
        self.corners = np.column_stack([table[c] for c in _CORNERS])
        self.order = np.argsort(self.code, kind="stable")  # by vehicle, in row order within one

    def faults(self) -> np.ndarray:
        """Rows failing a check: negative frame, empty id, frame not above the vehicle's last."""
        frame = self.frame[self.order]
        repeat = np.zeros(frame.size, dtype=bool)
        repeat[self.order[1:]] = (np.diff(self.code[self.order]) == 0) & (frame[1:] <= frame[:-1])
        bad = (self.frame < 0) | repeat
        if "" in self.vids:
            bad |= self.code == self.vids.index("")
        return bad

    def raise_first_fault(self, lines: list[int]) -> None:
        """Raise the error of the first faulty row, if any; ``lines`` are the rows' physical lines."""
        bad = self.faults()
        if not bad.any():
            return
        row = int(np.argmax(bad))
        line, frame, vid = lines[row], int(self.frame[row]), self.vids[self.code[row]]
        if frame < 0:
            raise DataError(f"line {line}: negative frame index {frame}")
        if not vid:
            raise SchemaError(f"line {line}: empty vehicle_id")
        previous = int(self.frame[self.order[np.flatnonzero(self.order == row)[0] - 1]])
        raise DataError(f"vehicle {vid!r}: non-monotone frame {frame} after {previous} (line {line})")

    def table(self, fps: float) -> Trajectory:
        bounds = np.concatenate([[0], np.cumsum(np.bincount(self.code, minlength=len(self.vids)))])
        return Trajectory(self.vids, bounds, self.frame[self.order], _normalized(self.corners)[self.order], fps)


def serialize_trajectories(table: Trajectory) -> str:
    """Inverse of parse_trajectories; rows grouped by vehicle, ordered by frame."""
    return csv_text(TRAJECTORY_COLUMNS, [table.frames, table.id_column(), *table.boxes.T])


def fill_gaps(table: Trajectory,
              max_gap: int = TrackPrepConfig.max_gap_frames) -> tuple[Trajectory, list[tuple[int, int]]]:
    """Fill each vehicle's missing frames (gap <= max_gap) by linear interpolation of the box corners.

    Longer gaps are left open and returned, in row order, as (last_frame_before,
    first_frame_after) flags so downstream stages can treat the spans on either side
    separately. Idempotent: re-running changes nothing.
    """
    frames, boxes, bounds = table.frames, table.boxes, table.bounds
    step = np.diff(frames)
    step[bounds[1:-1] - 1] = 1  # a step from one vehicle's last row to the next one's first: no gap
    long_gap = step - 1 > max_gap
    flagged = list(zip(frames[:-1][long_gap].tolist(), frames[1:][long_gap].tolist()))
    fill = (step > 1) & ~long_gap
    if not fill.any():
        return table, flagged
    counts = np.concatenate([[1], np.where(fill, step, 1)])  # each row, after the missing frames filled before it
    through = np.cumsum(counts)
    row = np.repeat(np.arange(frames.size), counts)  # the row each output row is, or is filled before
    back = through[row] - 1 - np.arange(row.size)  # frames from an output row to that row
    mid = back > 0
    a = row[mid] - 1  # the row before a filled frame's gap
    filled = boxes[row]
    filled[mid] = _normalized(boxes[a] + ((step[a] - back[mid]) / step[a])[:, None] * (boxes[a + 1] - boxes[a]))
    return Trajectory(table.vehicle_ids, np.append(0, through[bounds[1:] - 1]), frames[row] - back, filled,
                      table.fps), flagged


@lru_cache(maxsize=32)
def _sg_projection(window: int, order: int) -> np.ndarray:
    """window x window least-squares polynomial projection matrix.

    Row k evaluates the degree-``order`` fit of a full window at offset k;
    the center row is the classic smoothing kernel. ParameterError unless
    window is odd and window > order >= 0.
    """
    if window % 2 == 0 or window <= order or order < 0:
        raise ParameterError(f"need odd window > order >= 0, got window={window} order={order}")
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
    _sg_projection(window, order)  # checks window and order first
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ParameterError("series must be one-dimensional")
    if arr.size < window:
        raise ParameterError(f"series length {arr.size} shorter than window {window}")
    return _smooth_runs(arr[:, None], np.array([0]), np.array([arr.size]), window, order)[:, 0]


def _smooth_runs(columns: np.ndarray, lo: np.ndarray, hi: np.ndarray, window: int, order: int) -> np.ndarray:
    """smooth_savitzky_golay of every column over each run of rows ``lo[i]:hi[i]``, at least ``window`` long.

    Interiors come from one np.correlate per column over all rows, keeping the windows
    that lie inside a run; edges from the projection rows applied to each run's first
    and last window, one stacked matrix-vector product per column and end. Rows outside
    the runs are copied.
    """
    proj = _sg_projection(window, order)
    half = window // 2
    out = columns.copy()
    depth = np.zeros(columns.shape[0] + 1, dtype=np.intp)  # > 0 on rows at least half a window inside a run
    depth[lo + half] += 1
    depth[hi - half] -= 1
    interior = np.flatnonzero(np.cumsum(depth[:-1]))
    offsets = np.arange(window)
    first, last = columns[lo[:, None] + offsets], columns[(hi - window)[:, None] + offsets]  # (runs, window, k)
    head, tail = lo[:, None] + offsets[:half], (hi - half)[:, None] + offsets[:half]
    for j in range(columns.shape[1]):
        out[interior, j] = np.correlate(columns[:, j], proj[half], mode="valid")[interior - half]
        out[head, j] = (proj[:half] @ first[:, :, j, None])[..., 0]
        out[tail, j] = (proj[half + 1 :] @ last[:, :, j, None])[..., 0]
    return out


def classify_by_length(length_m: float, threshold_m: float = TrackPrepConfig.class_threshold_m) -> VehicleClass:
    """Car below the threshold, Truck at or above it."""
    if length_m <= 0:
        raise DataError(f"vehicle length must be positive, got {length_m}")
    return VehicleClass.CAR if length_m < threshold_m else VehicleClass.TRUCK


def box_length_along_axis(table: Trajectory, travel_axis: Sequence[float]) -> np.ndarray:
    """Each vehicle's median bounding-box extent along the travel direction (meters), by one sort."""
    boxes, bounds = table.boxes, table.bounds
    ux, uy = travel_axis
    norm = math.hypot(ux, uy)
    if norm == 0:
        raise ParameterError("travel_axis must be a nonzero vector")
    ux, uy = ux / norm, uy / norm
    extents = np.abs((boxes[:, 2] - boxes[:, 0]) * ux) + np.abs((boxes[:, 3] - boxes[:, 1]) * uy)
    sizes = np.diff(bounds)
    keys = np.empty(extents.size, dtype=complex)  # complex numbers sort by real part, then imaginary part
    keys.real, keys.imag = np.repeat(np.arange(sizes.size), sizes), extents
    ordered = np.sort(keys).imag
    lower, upper = ordered[bounds[:-1] + (sizes - 1) // 2], ordered[bounds[:-1] + sizes // 2]
    return np.where(sizes % 2 == 1, lower, (lower + upper) / 2)  # as np.median takes them


def drop_static_objects(table: Trajectory,
                        min_displacement_m: float = TrackPrepConfig.min_displacement_m) -> Trajectory:
    """Remove transitional/stationary non-vehicle tracks by net displacement, first centroid to last."""
    first, last = table.boxes[table.bounds[:-1]], table.boxes[table.bounds[1:] - 1]
    dx, dy = (0.5 * (last[:, :2] + last[:, 2:]) - 0.5 * (first[:, :2] + first[:, 2:])).T
    return table._select(np.array(list(map(math.hypot, dx.tolist(), dy.tolist()))) >= min_displacement_m)


@dataclass(eq=False)
class PreparedTracks:
    """A segment's gap-free runs, ready for metric extraction: run ``r`` is vehicle ``run_codes[r]``'s rows
    ``bounds[r]:bounds[r + 1]``, and ``vehicle_ids``, ``classes`` and ``lengths`` are per vehicle code.

    The rows hold frame, time, centroid and velocity. ``len()`` counts runs, and iterating yields one-run tables.
    """

    vehicle_ids: list[str]
    classes: list[VehicleClass]
    lengths: np.ndarray
    run_codes: np.ndarray
    bounds: np.ndarray
    frames: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray

    @property
    def speed(self) -> np.ndarray:
        return np.hypot(self.vx, self.vy)

    def __len__(self) -> int:
        return self.run_codes.size

    def __iter__(self) -> Iterator[PreparedTracks]:
        for v, lo, hi in zip(self.run_codes.tolist(), self.bounds[:-1].tolist(), self.bounds[1:].tolist()):
            yield PreparedTracks([self.vehicle_ids[v]], [self.classes[v]], self.lengths[v : v + 1], np.zeros(1, int),
                                 np.array([0, hi - lo]), self.frames[lo:hi], self.t[lo:hi], self.x[lo:hi],
                                 self.y[lo:hi], self.vx[lo:hi], self.vy[lo:hi])


def prepare_tracks(table: Trajectory, travel_axis: Sequence[float],
                   prep: TrackPrepConfig = TrackPrepConfig()) -> PreparedTracks:
    """Full preparation pipeline: static filter, gap fill, smoothing, classify, kinematics, each over the whole table.

    Tracks are split at gaps longer than ``prep.max_gap_frames``, and each gap-free run of >= 2 points becomes one
    run of the returned table, in row order. Its vehicles are those left with a run, in the order of ``table``.
    """
    moving = drop_static_objects(table, prep.min_displacement_m)
    filled, _ = fill_gaps(moving._select(np.diff(moving.bounds) >= 2), max_gap=prep.max_gap_frames)
    frames, boxes, bounds = filled.frames, filled.boxes, filled.bounds
    lengths = box_length_along_axis(filled, travel_axis)
    classes = [classify_by_length(length, prep.class_threshold_m) for length in lengths.tolist()]

    # A new run starts at each vehicle's first row and after each step the gap fill left above 1.
    starts = np.union1d(bounds[:-1], np.flatnonzero(np.diff(frames) > 1) + 1)
    ends = np.append(starts, frames.size)[1:]
    keep = ends - starts >= 2
    rows = np.repeat(keep, ends - starts)  # the rows of the runs kept
    starts, ends = starts[keep], ends[keep]
    long = ends - starts >= prep.sg_window
    if long.any():
        boxes = _smooth_runs(boxes, starts[long], ends[long], prep.sg_window, prep.sg_order)

    cx = 0.5 * (boxes[:, 0] + boxes[:, 2])
    cy = 0.5 * (boxes[:, 1] + boxes[:, 3])
    # Backward-difference velocities; a run's first sample copies its second's.
    dt = np.diff(frames.astype(float)) / filled.fps
    vx, vy = np.empty_like(cx), np.empty_like(cy)
    with np.errstate(divide="ignore", invalid="ignore"):  # differences across runs are overwritten or unused
        vx[1:] = np.diff(cx) / dt
        vy[1:] = np.diff(cy) / dt
    vx[starts], vy[starts] = vx[starts + 1], vy[starts + 1]

    kept, codes = np.unique(np.searchsorted(bounds, starts, side="right") - 1, return_inverse=True)
    frames = frames[rows]
    return PreparedTracks([filled.vehicle_ids[v] for v in kept.tolist()], [classes[v] for v in kept.tolist()],
                          lengths[kept], codes, np.append(0, np.cumsum(ends - starts)),
                          frames, frames / filled.fps, cx[rows], cy[rows], vx[rows], vy[rows])
