"""Network-level safety metrics per road segment and time interval.

Seven aggregate indicators of traffic-flow safety: cluster-TTC variation,
per-vehicle and fleet speed-variation rates, over-speeding rate, traffic
composition balance, length-weighted density, and congestion recovery time.
Undefined metrics are reported as None (absent), never coerced to 0.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ParameterError, SchemaError
from .trajectories import PreparedTrack, VehicleClass, format_cell

VEHICLE_CLASSES = (VehicleClass.CAR, VehicleClass.TRUCK)

DEFAULT_TRT_THETA = 0.5
DEFAULT_TRT_T_MIN_S = 30.0
FREE_FLOW_PERCENTILE = 85.0


@dataclass(frozen=True)
class SegmentConfig:
    """Static description of one monitored road segment."""

    segment_id: str
    lane_count: int
    length_m: float
    speed_limit: float  # m/s
    travel_axis: tuple[float, float] = (1.0, 0.0)
    osr_thresholds: tuple[float, ...] = (1.0,)
    bbox: tuple[float, float, float, float] | None = None  # world-frame xmin,ymin,xmax,ymax
    # Set for intersection/merge approaches: cluster TTCs are then computed
    # toward this fixed point instead of toward the leading cluster.
    collision_point: tuple[float, float] | None = None

    def __post_init__(self):
        if self.lane_count < 1:
            raise ParameterError(f"lane_count must be >= 1, got {self.lane_count}")
        if self.length_m <= 0:
            raise ParameterError(f"segment length must be positive, got {self.length_m}")
        if self.speed_limit <= 0:
            raise ParameterError(f"speed limit must be positive, got {self.speed_limit}")
        norm = math.hypot(*self.travel_axis)
        if norm == 0:
            raise ParameterError("travel_axis must be a nonzero vector")
        object.__setattr__(self, "travel_axis", (self.travel_axis[0] / norm, self.travel_axis[1] / norm))
        thetas = tuple(float(t) for t in self.osr_thresholds)
        if any(t < 1.0 for t in thetas) or any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ParameterError(f"osr_thresholds must be strictly increasing and >= 1.0, got {thetas}")
        object.__setattr__(self, "osr_thresholds", thetas)


@dataclass(frozen=True)
class ClusterConfig:
    """Clustering threshold and how often memberships are refreshed."""

    distance_threshold: float = 30.0  # meters
    membership_rate: float = 1.0  # Hz

    def __post_init__(self):
        if self.distance_threshold < 0:
            raise ParameterError("cluster distance threshold must be >= 0")
        if self.membership_rate <= 0:
            raise ParameterError("membership refresh rate must be positive")


@dataclass
class VehicleCluster:
    """Connected group of vehicles treated as one point object at its centroid."""

    members: frozenset[str]
    centroid: tuple[float, float]
    velocity: float | None = None  # mean member speed projected on the travel axis

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class FrameClusterTTC:
    """Cluster-level TTCs of one frame plus the vehicles-per-cluster ratio."""

    frame: int
    cttc_values: list[float]
    n_vehicles: int
    n_clusters: int

    @property
    def rho(self) -> float:
        return self.n_vehicles / self.n_clusters


@dataclass(frozen=True)
class CongestionEvent:
    t_begin: float
    t_recover: float
    censored: bool = False

    def __post_init__(self):
        if self.t_recover < self.t_begin:
            raise ParameterError("recovery epoch precedes event start")

    @property
    def duration(self) -> float:
        return self.t_recover - self.t_begin


@dataclass
class IntervalMetrics:
    """One (segment, interval) row of network-level metrics; None marks absent values."""

    segment_id: str
    t_start: float
    t_end: float
    ttc_cv: float | None = None
    ivvr: float | None = None
    ovvr: float | None = None
    osr: dict[float, float] = field(default_factory=dict)
    tci: float | None = None
    f_c: dict[str, float] = field(default_factory=dict)
    ntc: float | None = None
    trt: float | None = None
    n_vehicles: int = 0
    coverage: float = 0.0
    e_ttc: float | None = None


def index_groups(codes: np.ndarray) -> dict[int, np.ndarray]:
    """Positions of each distinct value in ``codes``, in ascending order, keyed by the value."""
    order = np.argsort(codes, kind="stable")
    values, starts = np.unique(codes[order], return_index=True)
    return dict(zip(values.tolist(), np.split(order, starts[1:])))


def _single_linkage_labels(px: np.ndarray, py: np.ndarray, threshold: float) -> np.ndarray:
    """Connected-component labels under pairwise Euclidean distance <= threshold."""
    n = px.size
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d2 = (px[:, None] - px[None, :]) ** 2 + (py[:, None] - py[None, :]) ** 2
    ii, jj = np.nonzero(np.triu(d2 <= threshold * threshold, k=1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return np.array([find(i) for i in range(n)], dtype=int)


def cluster_frame(
    positions: Sequence[tuple[str, tuple[float, float]]],
    distance_threshold: float,
    speeds: Mapping[str, float] | None = None,
) -> list[VehicleCluster]:
    """Single-linkage clusters: connected components under Euclidean distance <= threshold.

    Membership is transitive (a chain of close vehicles forms one cluster).
    Output is ordered by minimum member id, so it is deterministic. When a
    per-vehicle speed mapping is supplied, cluster velocity is the mean of
    member speeds.
    """
    if distance_threshold < 0:
        raise ParameterError("distance threshold must be >= 0")
    ids = [vid for vid, _ in positions]
    pts = np.array([p for _, p in positions], dtype=float).reshape(len(ids), 2)
    if not np.all(np.isfinite(pts)):
        raise DataError("vehicle positions must be finite")
    labels = _single_linkage_labels(pts[:, 0], pts[:, 1], distance_threshold)

    clusters = []
    for members in index_groups(labels).values():
        member_ids = frozenset(ids[i] for i in members)
        centroid = pts[members].mean(axis=0)
        velocity = None
        if speeds is not None:
            velocity = float(np.mean([speeds[ids[i]] for i in members]))
        clusters.append(VehicleCluster(member_ids, (float(centroid[0]), float(centroid[1])), velocity))
    clusters.sort(key=lambda c: min(c.members))
    return clusters


def _cttc_from_arrays(axis_pos: np.ndarray, axis_vel: np.ndarray) -> list[float]:
    """Cluster TTCs given axis positions/velocities, one entry per cluster with a
    strictly slower nearest-downstream leader (equal-speed leaders yield nothing)."""
    order = np.argsort(axis_pos, kind="stable")
    p = axis_pos[order]
    v = axis_vel[order]
    values: list[float] = []
    n = p.size
    for i in range(n - 1):
        v_i = v[i]
        for j in range(i + 1, n):
            if p[j] <= p[i]:  # co-located cluster is not downstream
                continue
            if v[j] <= v_i:
                if v[j] < v_i:
                    values.append(float((p[j] - p[i]) / (v_i - v[j])))
                break
    return values


def _cluster_ttc_values(
    axis_pos: np.ndarray,
    axis_vel: np.ndarray,
    travel_axis: tuple[float, float],
    collision_point: tuple[float, float] | None,
) -> list[float]:
    """Cluster TTCs toward the nearest slower downstream cluster or, when a
    collision point is set, toward that fixed point (distance over speed)."""
    if collision_point is None:
        return _cttc_from_arrays(axis_pos, axis_vel)
    point = collision_point[0] * travel_axis[0] + collision_point[1] * travel_axis[1]
    return [float((point - p) / v) for p, v in zip(axis_pos, axis_vel) if v > 0 and point > p]


def cluster_ttc(
    clusters: Sequence[VehicleCluster],
    travel_axis: tuple[float, float],
    frame: int = 0,
    collision_point: tuple[float, float] | None = None,
) -> FrameClusterTTC:
    """Cluster-level TTCs of a frame.

    Each cluster looks for its nearest downstream cluster moving no faster;
    the TTC is axis gap over closing speed. Clusters without such a leader,
    or whose leader moves at exactly the same speed, contribute no value.
    With a fixed ``collision_point`` (intersection/merge approaches), every
    cluster approaching the point contributes distance/speed instead.
    """
    ux, uy = travel_axis
    for c in clusters:
        if c.velocity is None:
            raise ParameterError("cluster velocities must be set before computing cluster TTC")
    axis_pos = np.array([c.centroid[0] * ux + c.centroid[1] * uy for c in clusters])
    axis_vel = np.array([c.velocity for c in clusters])
    return FrameClusterTTC(
        frame=frame,
        cttc_values=_cluster_ttc_values(axis_pos, axis_vel, travel_axis, collision_point),
        n_vehicles=sum(c.size for c in clusters),
        n_clusters=len(clusters),
    )


def _ttc_cv_from_pairs(frames: Iterable[tuple[Sequence[float], float]]) -> float | None:
    per_frame = []
    for values, rho in frames:
        if len(values) < 2:
            continue
        vals = np.asarray(values, dtype=float)
        per_frame.append(float(vals.std(ddof=1) / vals.mean() * rho))
    if not per_frame:
        return None
    return float(np.mean(per_frame))


def ttc_cv(frames: Iterable[FrameClusterTTC]) -> float | None:
    """Interval TTC-CV: per-frame coefficient of variation of cluster TTCs, scaled
    by vehicles-per-cluster, averaged over frames with at least two values.

    The coefficient of variation uses the sample standard deviation (n - 1);
    frames with fewer than two cluster TTCs carry no dispersion information
    and are skipped. None when no frame qualifies."""
    return _ttc_cv_from_pairs((f.cttc_values, f.rho) for f in frames)


def ivvr(speeds_by_vehicle: Mapping[str, Sequence[float]]) -> float | None:
    """Mean over vehicles of (max - min speed) / mean speed within the interval.

    Vehicles with fewer than two samples or zero mean speed are excluded.
    """
    terms = []
    excluded = []
    for vid, speeds in speeds_by_vehicle.items():
        arr = np.asarray(speeds, dtype=float)
        if arr.size < 2:
            continue
        v_av = arr.mean()
        if v_av <= 0:
            excluded.append(vid)
            continue
        terms.append(float((arr.max() - arr.min()) / v_av))
    if excluded:
        warnings.warn(f"ivvr: excluded vehicles with zero mean speed: {excluded}", stacklevel=2)
    if not terms:
        return None
    return float(np.mean(terms))


def ovvr(speeds_by_vehicle: Mapping[str, Sequence[float]]) -> float | None:
    """Mean over vehicles of |vehicle mean speed - fleet mean| / fleet mean."""
    means = [float(np.mean(speeds)) for speeds in speeds_by_vehicle.values() if len(speeds) > 0]
    if not means:
        return None
    fleet = float(np.mean(means))
    if fleet <= 0:
        return None
    return float(np.mean([abs(m - fleet) / fleet for m in means]))


def osr(
    max_speed_by_vehicle: Mapping[str, float], speed_limit: float, thresholds: Sequence[float] = (1.0,)
) -> dict[float, float]:
    """Fraction of vehicles whose peak speed exceeds each threshold x the limit (strict)."""
    if speed_limit <= 0:
        raise ParameterError(f"speed limit must be positive, got {speed_limit}")
    if not max_speed_by_vehicle:
        raise DataError("over-speeding rate needs at least one vehicle")
    ratios = np.array([v / speed_limit for v in max_speed_by_vehicle.values()])
    return {float(theta): float(np.mean(ratios > theta)) for theta in thresholds}


def tci(class_counts: Mapping[str, int]) -> tuple[float, dict[str, float]]:
    """Composition balance index over vehicle classes, with per-class shares.

    Jain-fairness form: (sum counts)^2 / (C * sum counts^2), ranging from
    1/C (single class) to 1 (equal shares). Classes with zero count still
    count toward C.
    """
    counts = np.array([class_counts[c] for c in class_counts], dtype=float)
    total = counts.sum()
    if total <= 0:
        raise DataError("composition index undefined for zero vehicles")
    c = len(counts)
    value = float(total * total / (c * np.sum(counts * counts)))
    shares = {name: float(class_counts[name] / total) for name in class_counts}
    return value, shares


def ntc(per_frame_total_length: Sequence[float], lane_count: int, length_m: float) -> float:
    """Length-weighted density: mean over frames of summed vehicle length per lane-meter."""
    if lane_count < 1 or length_m <= 0:
        raise ParameterError("need lane_count >= 1 and positive segment length")
    totals = np.asarray(per_frame_total_length, dtype=float)
    if totals.size == 0:
        raise DataError("no frames to average over")
    return float(totals.mean() / (lane_count * length_m))


def detect_congestion_events(
    speed_series: Sequence[tuple[float, float]],
    free_flow: float,
    theta: float = DEFAULT_TRT_THETA,
    t_min: float = DEFAULT_TRT_T_MIN_S,
) -> list[CongestionEvent]:
    """Below-threshold speed episodes lasting at least t_min.

    An event opens at the first instant mean speed drops below
    theta * free_flow and closes at the first instant back at or above it.
    An episode still open at the end of the series is closed there and
    marked censored.
    """
    if not 0 < theta < 1:
        raise ParameterError(f"theta must be in (0, 1), got {theta}")
    if t_min <= 0:
        raise ParameterError(f"t_min must be positive, got {t_min}")
    threshold = theta * free_flow
    events: list[CongestionEvent] = []
    t_begin: float | None = None
    last_t: float | None = None
    for t, v in speed_series:
        if last_t is not None and t <= last_t:
            raise DataError("speed series must be strictly time-ordered")
        last_t = t
        if v < threshold:
            if t_begin is None:
                t_begin = t
        elif t_begin is not None:
            if t - t_begin >= t_min:
                events.append(CongestionEvent(t_begin, t))
            t_begin = None
    if t_begin is not None and last_t is not None and last_t - t_begin >= t_min:
        events.append(CongestionEvent(t_begin, last_t, censored=True))
    return events


def trt(events: Sequence[CongestionEvent]) -> float | None:
    """Mean event duration (seconds); None when there were no events."""
    if not events:
        return None
    return float(np.mean([e.duration for e in events]))


# ---------------------------------------------------------------------------
# Interval extraction over prepared tracks
# ---------------------------------------------------------------------------


@dataclass
class SampleTable:
    """Every kinematic sample of one segment as flat arrays, sorted by frame.

    Rows keep the track order within a frame. ``axis_pos``/``axis_speed`` are
    the centroid position and velocity projected on the travel axis;
    ``vid_code`` indexes ``vids``, ``lengths`` and ``classes``.
    """

    frame: np.ndarray
    x: np.ndarray
    y: np.ndarray
    axis_pos: np.ndarray
    speed: np.ndarray
    axis_speed: np.ndarray
    vid_code: np.ndarray
    vids: list[str]
    lengths: np.ndarray  # per vid_code
    classes: list[VehicleClass]  # per vid_code

    @classmethod
    def build(cls, tracks: Sequence[PreparedTrack], travel_axis: tuple[float, float]) -> "SampleTable":
        ux, uy = travel_axis
        vids: list[str] = []
        code_of: dict[str, int] = {}
        lengths: list[float] = []
        classes: list[VehicleClass] = []
        frames, xs, ys, axis_pos, speeds, axis_speeds, codes = [], [], [], [], [], [], []
        for track in tracks:
            if track.vehicle_id not in code_of:
                code_of[track.vehicle_id] = len(vids)
                vids.append(track.vehicle_id)
                lengths.append(track.length_m)
                classes.append(track.vclass)
            code = code_of[track.vehicle_id]
            frames.append(track.frames)
            xs.append(track.x)
            ys.append(track.y)
            axis_pos.append(track.x * ux + track.y * uy)
            speeds.append(track.speed)
            axis_speeds.append(track.vx * ux + track.vy * uy)
            codes.append(np.full(track.frames.size, code, dtype=int))
        if not frames:
            empty = np.array([])
            return cls(empty.astype(int), empty, empty, empty, empty, empty, empty.astype(int), [], empty, [])
        frame = np.concatenate(frames)
        order = np.argsort(frame, kind="stable")
        return cls(
            frame=frame[order],
            x=np.concatenate(xs)[order],
            y=np.concatenate(ys)[order],
            axis_pos=np.concatenate(axis_pos)[order],
            speed=np.concatenate(speeds)[order],
            axis_speed=np.concatenate(axis_speeds)[order],
            vid_code=np.concatenate(codes)[order],
            vids=vids,
            lengths=np.array(lengths),
            classes=classes,
        )

    def leader_pairs(self) -> tuple[np.ndarray, ...]:
        """Every follower/leader pair as arrays ``(follower, leader, gap, closing, ttc)``.

        Within each frame, vehicles are ordered along the travel axis (ties by
        vehicle id) and each is paired with the next one downstream; pairs
        with a zero gap are dropped. Pairs come ordered by frame, then by
        follower position. ``follower``/``leader`` are row indices, ``gap`` is
        the leader's axis position minus the follower's, ``closing`` the
        follower's axis speed minus the leader's, and ``ttc`` is gap / closing
        where closing > 0 and nan elsewhere.
        """
        id_rank = np.argsort(np.argsort(np.array(self.vids, dtype=str)))
        order = np.lexsort((id_rank[self.vid_code], self.axis_pos, self.frame))
        follower, leader = order[:-1], order[1:]
        gap = self.axis_pos[leader] - self.axis_pos[follower]
        keep = (self.frame[follower] == self.frame[leader]) & (gap > 0)
        follower, leader, gap = follower[keep], leader[keep], gap[keep]
        closing = self.axis_speed[follower] - self.axis_speed[leader]
        ttc = np.divide(gap, closing, out=np.full(gap.size, np.nan), where=closing > 0)
        return follower, leader, gap, closing, ttc

    def free_flow_speed(self) -> float | None:
        """Reference free-flow speed: 85th percentile of per-frame mean speeds."""
        if self.frame.size == 0:
            return None
        _, starts = np.unique(self.frame, return_index=True)
        means = np.add.reduceat(self.speed, starts) / np.diff(np.append(starts, self.frame.size))
        return float(np.percentile(means, FREE_FLOW_PERCENTILE))


def segment_free_flow_speed(tracks: Sequence[PreparedTrack], travel_axis=(1.0, 0.0)) -> float | None:
    """Reference free-flow speed: 85th percentile of per-frame mean speeds."""
    return SampleTable.build(tracks, travel_axis).free_flow_speed()


def compute_interval_metrics(
    tracks: Sequence[PreparedTrack],
    segment: SegmentConfig,
    cluster_cfg: ClusterConfig,
    fps: float,
    windows: Sequence[tuple[float, float]],
    *,
    trt_theta: float = DEFAULT_TRT_THETA,
    trt_t_min: float = DEFAULT_TRT_T_MIN_S,
    free_flow: float | None = None,
) -> list[IntervalMetrics]:
    """Compute every network-level metric for each [t_start, t_end) window.

    Cluster memberships are refreshed at the configured rate (default 1 Hz)
    while cluster TTCs are evaluated every frame with the latest memberships.
    Coverage is the fraction of a window's frames inside the segment's
    observed frame span. ``e_ttc`` is the mean TTC of the window's closing
    follower/leader pairs (``SampleTable.leader_pairs``).
    """
    if fps <= 0:
        raise ParameterError(f"fps must be positive, got {fps}")
    table = SampleTable.build(tracks, segment.travel_axis)
    results: list[IntervalMetrics] = []
    have_data = table.frame.size > 0
    if have_data:
        fmin, fmax = int(table.frame[0]), int(table.frame[-1])
        if free_flow is None:
            free_flow = table.free_flow_speed()
        follower, _, _, closing, ttc = table.leader_pairs()
        pair_frame = table.frame[follower[closing > 0]]
        pair_ttc = ttc[closing > 0]
    membership_stride = max(1, round(fps / cluster_cfg.membership_rate))

    for t0, t1 in windows:
        if t1 <= t0:
            raise ParameterError(f"empty window [{t0}, {t1})")
        f0 = math.ceil(t0 * fps - 1e-9)
        f1 = math.ceil(t1 * fps - 1e-9)
        row = IntervalMetrics(segment_id=segment.segment_id, t_start=t0, t_end=t1)
        if not have_data:
            results.append(row)
            continue
        lo = max(f0, fmin)
        hi = min(f1, fmax + 1)
        row.coverage = max(0, hi - lo) / (f1 - f0)
        if hi <= lo:
            results.append(row)
            continue

        left, right = np.searchsorted(table.frame, (lo, hi))
        frame = table.frame[left:right]
        x = table.x[left:right]
        y = table.y[left:right]
        axis_pos = table.axis_pos[left:right]
        speed = table.speed[left:right]
        axis_speed = table.axis_speed[left:right]
        code = table.vid_code[left:right]

        rows_of = index_groups(code)
        speeds_by_vehicle = {table.vids[c]: speed[rows] for c, rows in rows_of.items()}
        row.n_vehicles = len(rows_of)
        if row.n_vehicles:
            row.ivvr = ivvr(speeds_by_vehicle)
            row.ovvr = ovvr(speeds_by_vehicle)
            max_speeds = {vid: float(s.max()) for vid, s in speeds_by_vehicle.items()}
            row.osr = osr(max_speeds, segment.speed_limit, segment.osr_thresholds)
            counts = {vc.value: 0 for vc in VEHICLE_CLASSES}
            for c in rows_of:
                counts[table.classes[c].value] += 1
            row.tci, row.f_c = tci(counts)

        # Frame-by-frame pass: density, clustering, cluster TTC.
        frame_totals = np.zeros(hi - lo)
        present_frames, fstarts = np.unique(frame, return_index=True)
        fbounds = np.append(fstarts, frame.size)
        mean_speed_series: list[tuple[float, float]] = []
        cluster_values: list[tuple[list[float], float]] = []
        label_of: dict[int, int] = {}  # vid_code -> cluster label from the last refresh
        next_membership = lo
        for i, f in enumerate(present_frames):
            sl = slice(fstarts[i], fbounds[i + 1])
            codes_f = code[sl]
            frame_totals[int(f) - lo] = table.lengths[codes_f].sum()
            mean_speed_series.append((f / fps, float(speed[sl].mean())))

            if f >= next_membership:
                labels = _single_linkage_labels(x[sl], y[sl], cluster_cfg.distance_threshold)
                label_of = {int(c): int(lbl) for c, lbl in zip(codes_f, labels)}
                next_membership = f + membership_stride

            # Vehicles unseen at the last refresh ride alone (fresh negative label).
            frame_labels = np.array([label_of.get(int(c), -int(c) - 1) for c in codes_f])
            uniq, inv = np.unique(frame_labels, return_inverse=True)
            counts = np.bincount(inv)
            cpos = np.bincount(inv, weights=axis_pos[sl]) / counts
            cvel = np.bincount(inv, weights=axis_speed[sl]) / counts
            values = _cluster_ttc_values(cpos, cvel, segment.travel_axis, segment.collision_point)
            cluster_values.append((values, codes_f.size / uniq.size))

        row.ttc_cv = _ttc_cv_from_pairs(cluster_values)
        row.ntc = ntc(frame_totals, segment.lane_count, segment.length_m)
        p0, p1 = np.searchsorted(pair_frame, (lo, hi))
        if p1 > p0:
            row.e_ttc = float(pair_ttc[p0:p1].mean())
        if free_flow is not None and mean_speed_series:
            events = detect_congestion_events(mean_speed_series, free_flow, trt_theta, trt_t_min)
            row.trt = trt(events)
        results.append(row)
    return results


# ---------------------------------------------------------------------------
# Metrics CSV serialization
# ---------------------------------------------------------------------------


def metrics_header(osr_thresholds: Sequence[float]) -> list[str]:
    head = ["segment_id", "interval_start", "interval_end", "ttc_cv", "ivvr", "ovvr"]
    head += [f"osr_{float(t)!r}" for t in osr_thresholds]
    head += ["tci", "f_truck", "ntc", "trt", "n_vehicles", "coverage", "e_ttc"]
    return head


def write_metrics_csv(rows: Sequence[IntervalMetrics], osr_thresholds: Sequence[float]) -> str:
    """Serialize interval metrics; absent values become empty fields."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(metrics_header(osr_thresholds))
    for r in rows:
        record = [r.segment_id, format_cell(float(r.t_start)), format_cell(float(r.t_end))]
        record += [format_cell(r.ttc_cv), format_cell(r.ivvr), format_cell(r.ovvr)]
        record += [format_cell(r.osr.get(float(t))) for t in osr_thresholds]
        record += [
            format_cell(r.tci),
            format_cell(r.f_c.get(VehicleClass.TRUCK.value)),
            format_cell(r.ntc),
            format_cell(r.trt),
            str(r.n_vehicles),
            format_cell(float(r.coverage)),
            format_cell(r.e_ttc),
        ]
        writer.writerow(record)
    return out.getvalue()


def read_metrics_csv(text: str) -> list[IntervalMetrics]:
    """Parse the metrics CSV back into IntervalMetrics rows."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("metrics file is empty") from None
    required = {"segment_id", "interval_start", "interval_end"}
    if not required <= set(header):
        raise SchemaError(f"metrics header missing {sorted(required - set(header))}")
    col = {name: i for i, name in enumerate(header)}
    osr_cols = [(float(name[len("osr_") :]), name) for name in header if name.startswith("osr_")]

    def fval(row, name, blank_ok=True):
        i = col.get(name)
        cell = row[i] if i is not None and i < len(row) else ""
        if cell == "" and blank_ok:
            return None
        try:
            return float(cell)
        except ValueError:
            raise SchemaError(f"line {reader.line_num}: column {name!r} is not a number: {cell!r}") from None

    rows = []
    for row in reader:
        if not row:
            continue
        m = IntervalMetrics(
            segment_id=row[col["segment_id"]],
            t_start=fval(row, "interval_start", blank_ok=False),
            t_end=fval(row, "interval_end", blank_ok=False),
            ttc_cv=fval(row, "ttc_cv"),
            ivvr=fval(row, "ivvr"),
            ovvr=fval(row, "ovvr"),
            tci=fval(row, "tci"),
            ntc=fval(row, "ntc"),
            trt=fval(row, "trt"),
            n_vehicles=int(fval(row, "n_vehicles") or 0),
            coverage=fval(row, "coverage") or 0.0,
            e_ttc=fval(row, "e_ttc"),
        )
        m.osr = {theta: v for theta, name in osr_cols if (v := fval(row, name)) is not None}
        f_truck = fval(row, "f_truck")
        if f_truck is not None:
            m.f_c = {VehicleClass.TRUCK.value: f_truck, VehicleClass.CAR.value: 1.0 - f_truck}
        rows.append(m)
    return rows
