"""Network-level safety metrics per road segment and time interval.

Seven aggregate indicators of traffic-flow safety: cluster-TTC variation,
per-vehicle and fleet speed-variation rates, over-speeding rate, traffic
composition balance, length-weighted density, and congestion recovery time.
Undefined metrics are absent (None from the one-interval functions, nan in a
MetricsTable), never coerced to 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, ParameterError, SchemaError
from .surrogate import closes
from .trajectories import CodedColumn, CsvRecords, PreparedTracks, VehicleClass, csv_text

VEHICLE_CLASSES = (VehicleClass.CAR, VehicleClass.TRUCK)

FREE_FLOW_PERCENTILE = 85.0


@dataclass(frozen=True)
class SegmentConfig:
    """Static description of one monitored road segment."""

    segment_id: str
    lane_count: int
    length_m: float
    speed_limit: float  # m/s
    travel_axis: tuple[float, float] = (1.0, 0.0)  # as written; the metrics read ``unit_axis``
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
        if math.hypot(*self.travel_axis) == 0:
            raise ParameterError("travel_axis must be a nonzero vector")
        thetas = tuple(float(t) for t in self.osr_thresholds)
        if any(t < 1.0 for t in thetas) or any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ParameterError(f"osr_thresholds must be strictly increasing and >= 1.0, got {thetas}")
        object.__setattr__(self, "osr_thresholds", thetas)
        if self.bbox is not None and not (self.bbox[0] <= self.bbox[2] and self.bbox[1] <= self.bbox[3]):
            # A ValueError: config.typed reports it as a value of the wrong form, naming the segment.
            raise ValueError("bbox must be [xmin, ymin, xmax, ymax] with xmin <= xmax and ymin <= ymax, "
                             f"got {list(self.bbox)}")

    @property
    def unit_axis(self) -> tuple[float, float]:
        """``travel_axis`` scaled to unit length. The field keeps the written value: scaling twice can move a bit."""
        norm = math.hypot(*self.travel_axis)
        return self.travel_axis[0] / norm, self.travel_axis[1] / norm


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


@dataclass(frozen=True)
class TrtConfig:
    """Congestion recovery time: the speed threshold as a share of free flow and the shortest episode counted."""

    theta: float = 0.5
    t_min_seconds: float = 30.0
    free_flow: float | None = None  # m/s; default: 85th percentile of frame mean speeds

    def __post_init__(self):
        if not (0 < self.theta < 1 and self.t_min_seconds > 0 and (self.free_flow is None or self.free_flow > 0)):
            raise ParameterError(f"trt needs 0 < theta < 1, t_min_seconds > 0 and free_flow null or > 0, got {self}")


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


def index_groups(codes: np.ndarray) -> dict[int, np.ndarray]:
    """Positions of each distinct value in ``codes``, in ascending order, keyed by the value."""
    order = np.argsort(codes, kind="stable")
    values, starts = np.unique(codes[order], return_index=True)
    return dict(zip(values.tolist(), np.split(order, starts[1:])))


def _single_linkage(frame: np.ndarray, x: np.ndarray, y: np.ndarray, threshold: float) -> np.ndarray:
    """Per row, the smallest row index of its single-linkage component (distance <= threshold) in its frame.

    Rows sorted by (frame, x) are swept at growing offsets while ``(x_j - x_i)**2 <= thr**2``, a term
    the squared distance never falls below. Roots hook to their smallest neighbouring root, then pointer-jump.
    """
    order = np.lexsort((x, frame))
    xs, ys = x[order], y[order]
    last = np.searchsorted(frame[order], frame[order], side="right") - 1  # last row of the same frame
    thr2 = threshold * threshold
    ends: list[np.ndarray] = [np.zeros((2, 0), dtype=int)]
    i = np.arange(order.size)
    d = 1
    while i.size:
        i = i[i + d <= last[i]]
        i = i[(xs[i + d] - xs[i]) ** 2 <= thr2]
        j = i + d
        edge = (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 <= thr2
        ends.append(order[np.stack((i[edge], j[edge]))])
        d += 1
    a, b = np.concatenate(ends, axis=1)
    label = np.arange(order.size)
    while a.size:
        la, lb = label[a], label[b]
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        split = label[a] != label[b]
        a, b = a[split], b[split]
    return label


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
    labels = _single_linkage(np.zeros(len(ids), dtype=int), pts[:, 0], pts[:, 1], distance_threshold)

    clusters = []
    for members in index_groups(labels).values():
        cx, cy = pts[members].mean(axis=0)
        velocity = None if speeds is None else float(np.mean([speeds[ids[i]] for i in members]))
        clusters.append(VehicleCluster(frozenset(ids[i] for i in members), (float(cx), float(cy)), velocity))
    clusters.sort(key=lambda c: min(c.members))
    return clusters


def _cluster_ttc(frame: np.ndarray, axis_pos: np.ndarray, axis_vel: np.ndarray, travel_axis: tuple[float, float],
                 collision_point: tuple[float, float] | None) -> tuple[np.ndarray, np.ndarray]:
    """``cluster_ttc`` over clusters listed by frame: ``(cluster index, ttc)`` arrays, grouped by frame.

    Clusters at one axis position keep their given order, as do values toward a collision point."""
    if collision_point is not None:
        point = collision_point[0] * travel_axis[0] + collision_point[1] * travel_axis[1]
        who = np.flatnonzero((axis_vel > 0) & (point > axis_pos))
        return who, (point - axis_pos[who]) / axis_vel[who]
    order = np.lexsort((axis_pos, frame))
    p, v = axis_pos[order], axis_vel[order]
    last = np.searchsorted(frame[order], frame[order], side="right") - 1  # last cluster of the same frame
    leader = np.full(order.size, -1)
    open_ = np.arange(order.size)  # clusters still looking for a leader
    d = 1
    while open_.size:
        open_ = open_[open_ + d <= last[open_]]
        j = open_ + d
        found = (p[j] > p[open_]) & ~closes(v[j], v[open_])  # a leader that does not pull away
        leader[open_[found]] = j[found]
        open_ = open_[~found]
        d += 1
    i = np.flatnonzero(leader >= 0)
    i = i[closes(v[i], v[leader[i]])]  # an equally fast leader yields no value
    j = leader[i]
    return order[i], (p[j] - p[i]) / (v[i] - v[j])


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
    if any(c.velocity is None for c in clusters):
        raise ParameterError("cluster velocities must be set before computing cluster TTC")
    axis_pos = np.array([c.centroid[0] * ux + c.centroid[1] * uy for c in clusters], dtype=float)
    axis_vel = np.array([c.velocity for c in clusters], dtype=float)
    _, values = _cluster_ttc(np.zeros(len(clusters), dtype=int), axis_pos, axis_vel, travel_axis, collision_point)
    return FrameClusterTTC(frame, values.tolist(), sum(c.size for c in clusters), len(clusters))


def _group_mean(group: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Mean of ``values`` over each group 0..n-1, summed in order; nan for a group without values."""
    count = np.bincount(group, minlength=n)
    return np.divide(np.bincount(group, weights=values, minlength=n), count, out=np.full(n, np.nan), where=count > 0)


def _frame_cvs(values: np.ndarray, owner: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """std(ddof=1) / mean * rho of each frame with 2+ ``values``, grouped by ``owner`` (an index into ``rho``).

    Returns the frames' owners, ascending, and their values."""
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    counts = np.diff(np.append(starts, values.size))
    mean = np.add.reduceat(values, starts) / counts
    dev = values - np.repeat(mean, counts)
    multi = counts > 1
    std = np.sqrt(np.add.reduceat(dev * dev, starts)[multi] / (counts[multi] - 1))
    frames = owner[starts[multi]]
    return frames, std / mean[multi] * rho[frames]


def ttc_cv(frames: Iterable[FrameClusterTTC]) -> float | None:
    """Interval TTC-CV: per-frame coefficient of variation of cluster TTCs, scaled
    by vehicles-per-cluster, averaged over frames with at least two values.

    The coefficient of variation uses the sample standard deviation (n - 1);
    frames with fewer than two cluster TTCs carry no dispersion information
    and are skipped. None when no frame qualifies."""
    frames = list(frames)
    values = np.array([v for f in frames for v in f.cttc_values], dtype=float)
    owner = np.repeat(np.arange(len(frames)), [len(f.cttc_values) for f in frames])
    _, cv = _frame_cvs(values, owner, np.array([f.rho for f in frames], dtype=float))
    return float(np.mean(cv)) if cv.size else None


def _speed_metrics(window: np.ndarray, vehicle: np.ndarray, speed: np.ndarray, n: int, speed_limit: float = 1.0,
                   thresholds: Sequence[float] = ()) -> tuple[np.ndarray, ...]:
    """Speed metrics of windows 0..n-1 from the samples ``speed`` of each ``window`` and ``vehicle`` (a code >= 0).

    Returns the window and vehicle of each vehicle seen, by window then code, with the mask of those
    ``ivvr`` excludes for a zero mean speed; and per window ``ivvr``, ``ovvr`` and the (n, thresholds)
    ``osr`` rates, nan where undefined. Each vehicle's mean sums its samples in their given order.
    """
    span = int(vehicle.max()) + 1 if vehicle.size else 1
    key = window * span + vehicle
    order = np.argsort(key, kind="stable")
    key, speed = key[order], speed[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(np.append(starts, key.size))
    mean = np.add.reduceat(speed, starts) / count
    vmax, vmin = np.maximum.reduceat(speed, starts), np.minimum.reduceat(speed, starts)
    window, vehicle = np.divmod(key[starts], span)
    use, excluded = (count >= 2) & (mean > 0), (count >= 2) & ~(mean > 0)
    fleet = _group_mean(window, mean, n)[window]
    ok = fleet > 0
    osr = [_group_mean(window, vmax / speed_limit > theta, n) for theta in thresholds]
    return (window, vehicle, excluded, _group_mean(window[use], (vmax[use] - vmin[use]) / mean[use], n),
            _group_mean(window[ok], np.abs(mean[ok] - fleet[ok]) / fleet[ok], n), np.reshape(osr, (len(osr), n)).T)


def _one_window(speeds_by_vehicle: Mapping[str, Sequence[float]]) -> tuple:
    """``_speed_metrics``' first four arguments for one window, each vehicle coded by its place in the mapping."""
    speeds = [np.asarray(s, dtype=float).ravel() for s in speeds_by_vehicle.values()]
    vehicle = np.repeat(np.arange(len(speeds)), [s.size for s in speeds])
    return np.zeros(vehicle.size, dtype=int), vehicle, np.concatenate([np.zeros(0), *speeds]), 1


def _tci(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tci`` and class shares of each row of (groups, classes) ``counts``; nan for a row without vehicles."""
    total = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return total * total / (counts.shape[1] * np.sum(counts * counts, axis=1)), counts / total[:, None]


def _absent_if_nan(value) -> float | None:
    return None if math.isnan(value) else float(value)


def ivvr(speeds_by_vehicle: Mapping[str, Sequence[float]]) -> float | None:
    """Mean over vehicles of (max - min speed) / mean speed within the interval.

    Vehicles with fewer than two samples or zero mean speed are excluded.
    """
    _, vehicle, excluded, value, _, _ = _speed_metrics(*_one_window(speeds_by_vehicle))
    if excluded.any():
        vids = list(speeds_by_vehicle)
        warnings.warn(f"ivvr: excluded vehicles with zero mean speed: {[vids[c] for c in vehicle[excluded]]}",
                      stacklevel=2)
    return _absent_if_nan(value[0])


def ovvr(speeds_by_vehicle: Mapping[str, Sequence[float]]) -> float | None:
    """Mean over vehicles of |vehicle mean speed - fleet mean| / fleet mean."""
    *_, value, _ = _speed_metrics(*_one_window(speeds_by_vehicle))
    return _absent_if_nan(value[0])


def osr(
    max_speed_by_vehicle: Mapping[str, float], speed_limit: float, thresholds: Sequence[float] = (1.0,)
) -> dict[float, float]:
    """Fraction of vehicles whose peak speed exceeds each threshold x the limit (strict)."""
    if speed_limit <= 0:
        raise ParameterError(f"speed limit must be positive, got {speed_limit}")
    if not max_speed_by_vehicle:
        raise DataError("over-speeding rate needs at least one vehicle")
    peak = np.array(list(max_speed_by_vehicle.values()), dtype=float)
    *_, rates = _speed_metrics(np.zeros(peak.size, dtype=int), np.arange(peak.size), peak, 1, speed_limit, thresholds)
    return {float(theta): rate for theta, rate in zip(thresholds, rates[0].tolist())}


def tci(class_counts: Mapping[str, int]) -> tuple[float, dict[str, float]]:
    """Composition balance index over vehicle classes, with per-class shares.

    Jain-fairness form: (sum counts)^2 / (C * sum counts^2), ranging from
    1/C (single class) to 1 (equal shares). Classes with zero count still
    count toward C.
    """
    counts = np.array([list(class_counts.values())], dtype=float)
    if counts.sum() <= 0:
        raise DataError("composition index undefined for zero vehicles")
    value, shares = _tci(counts)
    return float(value[0]), dict(zip(class_counts, shares[0].tolist()))


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
    theta: float = TrtConfig.theta,
    t_min: float = TrtConfig.t_min_seconds,
) -> list[CongestionEvent]:
    """Below-threshold speed episodes lasting at least t_min.

    An event opens at the first instant mean speed drops below
    theta * free_flow and closes at the first instant back at or above it.
    An episode still open at the end of the series is closed there and
    marked censored.
    """
    TrtConfig(theta, t_min)  # refuses either out of range
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

    Rows keep the run order within a frame. ``axis_pos``/``axis_speed`` are
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
    def build(cls, tracks: PreparedTracks, travel_axis: tuple[float, float]) -> "SampleTable":
        ux, uy = travel_axis
        order = np.argsort(tracks.frames, kind="stable")
        x, y = tracks.x[order], tracks.y[order]
        return cls(
            frame=tracks.frames[order],
            x=x,
            y=y,
            axis_pos=x * ux + y * uy,
            speed=tracks.speed[order],
            axis_speed=tracks.vx[order] * ux + tracks.vy[order] * uy,
            vid_code=np.repeat(tracks.run_codes, np.diff(tracks.bounds))[order],
            vids=tracks.vehicle_ids,
            lengths=tracks.lengths,
            classes=tracks.classes,
        )

    def leader_pairs(self) -> tuple[np.ndarray, ...]:
        """Every follower/leader pair as arrays ``(follower, leader, gap, closing, ttc)``.

        Within each frame, vehicles are ordered along the travel axis (ties by
        vehicle id) and each is paired with the next one downstream; pairs
        with a zero gap are dropped. Pairs come ordered by frame, then by
        follower position. ``follower``/``leader`` are row indices, ``gap`` is
        the leader's axis position minus the follower's, ``closing`` the
        follower's axis speed minus the leader's, and ``ttc`` is gap / closing
        where the follower closes (``surrogate.closes``), nan exactly elsewhere.
        """
        id_rank = np.argsort(np.argsort(np.array(self.vids, dtype=str)))
        order = np.lexsort((id_rank[self.vid_code], self.axis_pos, self.frame))
        follower, leader = order[:-1], order[1:]
        gap = self.axis_pos[leader] - self.axis_pos[follower]
        keep = (self.frame[follower] == self.frame[leader]) & (gap > 0)
        follower, leader, gap = follower[keep], leader[keep], gap[keep]
        v_follower, v_leader = self.axis_speed[follower], self.axis_speed[leader]
        closing = v_follower - v_leader
        ttc = np.divide(gap, closing, out=np.full(gap.size, np.nan), where=closes(v_follower, v_leader))
        return follower, leader, gap, closing, ttc

    def ssm_columns(self, fps: float) -> dict[str, np.ndarray | CodedColumn]:
        """The ``ssm`` CSV's columns by name, in order, one row per ``leader_pairs`` pair: ``ttc`` masked and
        ``drac`` 0 where the pair does not close, ``pet`` masked where the leader passed the follower later or never."""
        follower, leader, gap, closing, ttc = self.leader_pairs()
        t = self.frame / fps
        # PET: the follower's time minus when its leader passed the follower's position, on the
        # leader's passage curve (axis position made monotone over its whole track); absent if later.
        t_pass = np.full(follower.size, np.nan)
        rows_of = index_groups(self.vid_code)
        for code, mine in index_groups(self.vid_code[leader]).items():
            curve = np.maximum.accumulate(self.axis_pos[rows_of[code]])
            t_pass[mine] = np.interp(self.axis_pos[follower[mine]], curve, t[rows_of[code]], left=np.nan, right=np.nan)
        pet = t[follower] - t_pass
        return {
            "t": t[follower],
            "follower_id": CodedColumn(self.vids, self.vid_code[follower]),
            "leader_id": CodedColumn(self.vids, self.vid_code[leader]),
            "ttc": np.ma.masked_array(ttc, mask=np.isnan(ttc)),
            "drac": np.where(np.isnan(ttc), 0.0, closing * closing / gap),
            "pet": np.ma.masked_array(pet, mask=~(pet >= 0)),
            "gap": gap, "v_follower": self.axis_speed[follower], "v_leader": self.axis_speed[leader],
        }

    def frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct frames, their first rows and row counts."""
        present, starts = np.unique(self.frame, return_index=True)
        return present, starts, np.diff(np.append(starts, self.frame.size))

    def free_flow_speed(self) -> float | None:
        """Reference free-flow speed: 85th percentile of per-frame mean speeds."""
        _, starts, sizes = self.frames()
        means = np.add.reduceat(self.speed, starts) / sizes
        return float(np.percentile(means, FREE_FLOW_PERCENTILE)) if means.size else None


def segment_free_flow_speed(tracks: PreparedTracks, travel_axis=(1.0, 0.0)) -> float | None:
    """Reference free-flow speed: 85th percentile of per-frame mean speeds."""
    return SampleTable.build(tracks, travel_axis).free_flow_speed()


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``start[i]:stop[i]``."""
    n = stop - start
    return np.repeat(start - np.cumsum(n) + n, n) + np.arange(n.sum())


def _windows_ttc_cv(table: SampleTable, rows: np.ndarray, frame_of: np.ndarray, frame_rows: np.ndarray,
                    refresh: np.ndarray, threshold: float, segment: SegmentConfig) -> tuple[np.ndarray, np.ndarray]:
    """``_frame_cvs`` of the window frames (one frame of one window each) with sample ``rows``, ``frame_of`` each row.

    ``frame_rows`` counts each window frame's rows; ``refresh`` marks those where memberships refresh. Each row
    takes its vehicle's cluster at its window's last refresh; a vehicle unseen there rides alone under the label
    ``-code - 1``. Clusters are ordered by window frame, then label.
    """
    x, y, code = table.x[rows], table.y[rows], table.vid_code[rows]
    at_refresh = np.flatnonzero(refresh[frame_of])
    comp = at_refresh[_single_linkage(frame_of[at_refresh], x[at_refresh], y[at_refresh], threshold)]

    # Key each row by (its window's last refresh, vehicle) and find it among the refresh rows.
    n_codes = len(table.vids)
    _, key = np.unique((np.cumsum(refresh) - 1)[frame_of] * n_codes + code, return_inverse=True)
    found = np.full(key.size, -1)
    found[key[at_refresh]] = comp
    label = np.where(found[key] >= 0, found[key], -code - 1)

    span = n_codes + code.size  # label + n_codes lies in [0, span)
    groups, inv = np.unique(frame_of * span + label + n_codes, return_inverse=True)
    members = np.bincount(inv)
    cpos = np.bincount(inv, weights=table.axis_pos[rows]) / members
    cvel = np.bincount(inv, weights=table.axis_speed[rows]) / members
    gframe = groups // span
    rho = frame_rows / np.bincount(gframe, minlength=frame_rows.size)
    who, values = _cluster_ttc(gframe, cpos, cvel, segment.unit_axis, segment.collision_point)
    return _frame_cvs(values, gframe[who], rho)


def window_frames(windows: Sequence[tuple[float, float]], fps: float) -> tuple[list[int], list[int]]:
    """Each [t_start, t_end) window's first frame and end frame at ``fps``.

    ParameterError for a non-positive ``fps``, an empty window, a window that holds no frame instant or one
    whose frame index does not fit int64.
    """
    if fps <= 0:
        raise ParameterError(f"fps must be positive, got {fps}")
    f0, f1 = [], []
    for t0, t1 in windows:
        if t1 <= t0:
            raise ParameterError(f"empty window [{t0}, {t1})")
        if not -2.0**63 <= t0 * fps - 1e-9 <= t1 * fps - 1e-9 < 2.0**63:
            raise ParameterError(f"window [{t0}, {t1}) has a frame index beyond int64 at {fps} fps")
        f0.append(math.ceil(t0 * fps - 1e-9))
        f1.append(math.ceil(t1 * fps - 1e-9))
        if f1[-1] == f0[-1]:
            raise ParameterError(f"window [{t0}, {t1}) holds no frame at {fps} fps")
    return f0, f1


def compute_interval_metrics(
    tracks: PreparedTracks,
    segment: SegmentConfig,
    cluster_cfg: ClusterConfig,
    fps: float,
    windows: Sequence[tuple[float, float]],
    trt_cfg: TrtConfig = TrtConfig(),
) -> MetricsTable:
    """Compute every network-level metric for each [t_start, t_end) window.

    Windows may overlap and come in any order; the table's rows follow the given windows.
    Cluster memberships are refreshed at the configured rate (default 1 Hz),
    starting at each window's first frame, while cluster TTCs are evaluated
    every frame with the latest memberships. Coverage is the fraction of a
    window's frames inside the segment's observed frame span. ``e_ttc`` is the
    mean TTC of the window's closing follower/leader pairs
    (``SampleTable.leader_pairs``).
    """
    f0, f1 = window_frames(windows, fps)
    table = SampleTable.build(tracks, segment.unit_axis)
    present, starts, sizes = table.frames()
    bounds = np.append(starts, table.frame.size)
    free_flow = table.free_flow_speed() if trt_cfg.free_flow is None else trt_cfg.free_flow
    follower, _, _, _, ttc = table.leader_pairs()
    closing = ~np.isnan(ttc)  # exactly the pairs that close
    pair_frame, pair_ttc = table.frame[follower[closing]], ttc[closing]

    # Each window's frames inside the observed span, [lo, hi); of them, present[fa:fb] hold samples.
    n = len(f0)
    first, end = (int(present[0]), int(present[-1]) + 1) if present.size else (0, 0)
    lo = np.maximum(np.array(f0, dtype=np.int64), first)
    hi = np.maximum(np.minimum(np.array(f1, dtype=np.int64), end), lo)
    fa, fb = np.searchsorted(present, lo), np.searchsorted(present, hi)
    pa, pb = np.searchsorted(pair_frame, lo), np.searchsorted(pair_frame, hi)
    length_at = np.zeros(end - first)  # summed vehicle length of every frame of the span
    length_at[present - first] = np.add.reduceat(table.lengths[table.vid_code], starts)
    frame_speed = np.add.reduceat(table.speed, starts) / sizes

    # Every window's present frames ("window frames", window by window) and their sample rows.
    frame_index = _ranges(fa, fb)
    frame_base = np.cumsum(fb - fa) - (fb - fa)  # each window's first window frame
    frame_rows = sizes[frame_index]
    rows = _ranges(bounds[fa], bounds[fb])
    frame_of = np.repeat(np.arange(frame_index.size), frame_rows)
    window_of = np.repeat(np.arange(n), bounds[fb] - bounds[fa])

    # Memberships refresh at a window's first frame, then at its first frame >= stride frames after the last.
    # A stride past the observed span refreshes only at the first frame, as the span itself does.
    stride = max(1, round(min(fps / cluster_cfg.membership_rate, end - first)))
    next_refresh = np.searchsorted(present, present + stride)
    refresh = np.zeros(frame_index.size, dtype=bool)
    k, stop, base = fa[fb > fa], fb[fb > fa], (frame_base - fa)[fb > fa]
    while k.size:
        refresh[base + k] = True
        k = next_refresh[k]
        k, stop, base = k[k < stop], stop[k < stop], base[k < stop]
    cv_frame, cv = _windows_ttc_cv(table, rows, frame_of, frame_rows, refresh, cluster_cfg.distance_threshold, segment)
    ca, cb = np.searchsorted(cv_frame, frame_base), np.searchsorted(cv_frame, frame_base + fb - fa)

    vwin, vcode, excluded, ivvr_w, ovvr_w, osr_w = _speed_metrics(
        window_of, table.vid_code[rows], table.speed[rows], n, segment.speed_limit, segment.osr_thresholds)
    n_vehicles = np.bincount(vwin, minlength=n)
    n_classes = len(VEHICLE_CLASSES)
    vclass = np.array([VEHICLE_CLASSES.index(c) for c in table.classes], dtype=int)
    tci_w, shares = _tci(np.bincount(vwin * n_classes + vclass[vcode], minlength=n * n_classes).reshape(n, n_classes))
    for vehicles in index_groups(vwin[excluded]).values():  # window by window
        vids = [table.vids[c] for c in vcode[excluded][vehicles].tolist()]
        warnings.warn(f"ivvr: excluded vehicles with zero mean speed: {vids}")

    def each_window(value, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """``value(a, b)`` of each window's [start, stop), nan where that range is empty."""
        return np.array([value(a, b) if b > a else None for a, b in zip(start.tolist(), stop.tolist())], dtype=float)

    def window_trt(a: int, b: int) -> float | None:
        series = zip((present[a:b] / fps).tolist(), frame_speed[a:b].tolist())
        return trt(detect_congestion_events(list(series), free_flow, trt_cfg.theta, trt_cfg.t_min_seconds))

    def window_ntc(a: int, b: int) -> float:
        return ntc(length_at[a - first : b - first], segment.lane_count, segment.length_m)

    return MetricsTable.build(
        [segment.segment_id] * n, segment.osr_thresholds,
        interval_start=[t0 for t0, _ in windows], interval_end=[t1 for _, t1 in windows],
        ttc_cv=each_window(lambda a, b: cv[a:b].mean(), ca, cb), ivvr=ivvr_w, ovvr=ovvr_w,
        **{_osr_column(theta): osr_w[:, k] for k, theta in enumerate(segment.osr_thresholds)},
        tci=tci_w, f_truck=shares[:, VEHICLE_CLASSES.index(VehicleClass.TRUCK)], ntc=each_window(window_ntc, lo, hi),
        trt=np.full(n, np.nan) if free_flow is None else each_window(window_trt, fa, fb), n_vehicles=n_vehicles,
        coverage=(hi - lo) / np.subtract(f1, f0), e_ttc=each_window(lambda a, b: pair_ttc[a:b].mean(), pa, pb))


# ---------------------------------------------------------------------------
# The metrics table and its CSV
# ---------------------------------------------------------------------------


_REQUIRED_COLUMNS = ("segment_id", "interval_start", "interval_end")
_HEAD_COLUMNS = (*_REQUIRED_COLUMNS, "ttc_cv", "ivvr", "ovvr")  # then osr_<theta>...
_TAIL_COLUMNS = ("tci", "f_truck", "ntc", "trt", "n_vehicles", "coverage", "e_ttc")
_NUMERIC_COLUMNS = (*_HEAD_COLUMNS[1:], *_TAIL_COLUMNS)
COLUMN_ALIASES = {"volume": "n_vehicles"}  # the other name MetricsTable.column takes for a column


def _osr_column(theta: float) -> str:
    return f"osr_{float(theta)!r}"


def metrics_header(osr_thresholds: Sequence[float]) -> list[str]:
    return [*_HEAD_COLUMNS, *map(_osr_column, osr_thresholds), *_TAIL_COLUMNS]


def column_names(osr_thresholds: Sequence[float]) -> list[str]:
    """The names ``MetricsTable.column`` takes: ``volume`` (n_vehicles) and the metric columns, the header without
    the row key (segment and interval bounds)."""
    return ["volume", *metrics_header(osr_thresholds)[len(_REQUIRED_COLUMNS) :]]


@dataclass(frozen=True, eq=False)  # no == over arrays
class MetricsTable:
    """Network-level metrics by (segment, interval): the metrics CSV as columns.

    ``columns`` holds one array per ``metrics_header(thresholds)`` column after
    ``segment_id``, in header order: ``n_vehicles`` int, the rest float with nan
    marking an absent value. Iterating yields one-row tables, so a list extended
    by tables is one ``concat`` away from a table.
    """

    segment_id: np.ndarray  # of str
    thresholds: tuple[float, ...]
    columns: dict[str, np.ndarray]

    @classmethod
    def build(cls, segment_id: Sequence[str], thresholds: Sequence[float], **columns) -> MetricsTable:
        """Rows of ``segment_id`` with the given ``columns``; a column not given is absent (n_vehicles 0)."""
        n = len(segment_id)
        full = {name: np.full(n, np.nan) for name in metrics_header(thresholds)[1:]}
        full["n_vehicles"] = np.zeros(n, dtype=np.int64)
        for name, values in columns.items():
            full[name] = np.asarray(values, dtype=full[name].dtype)
        return cls(np.array(segment_id, dtype=object), tuple(map(float, thresholds)), full)

    @classmethod
    def concat(cls, tables: MetricsTable | Iterable[MetricsTable]) -> MetricsTable:
        """The rows of ``tables`` in order, as one table; a table is its own. ParameterError for no table or tables
        of different thresholds."""
        if isinstance(tables, MetricsTable):
            return tables
        tables = list(tables)
        if not tables or any(t.thresholds != tables[0].thresholds for t in tables):
            raise ParameterError("concatenated metrics tables must be one or more, with the same osr thresholds")
        return cls(np.concatenate([t.segment_id for t in tables]), tables[0].thresholds,
                   {name: np.concatenate([t.columns[name] for t in tables]) for name in tables[0].columns})

    def __len__(self) -> int:
        return len(self.segment_id)

    def __iter__(self) -> Iterator[MetricsTable]:
        for i in range(len(self)):
            row = slice(i, i + 1)
            yield MetricsTable(self.segment_id[row], self.thresholds, {k: v[row] for k, v in self.columns.items()})

    def column(self, name: str) -> np.ndarray:
        """The floats of metric column ``name``, or of ``volume`` (n_vehicles); SchemaError naming any other key."""
        if name not in column_names(self.thresholds):
            raise SchemaError(f"unknown metric column {name!r}; the metrics table has {column_names(self.thresholds)}")
        return self.columns[COLUMN_ALIASES.get(name, name)].astype(float)


def write_metrics_csv(table: MetricsTable) -> str:
    """The metrics CSV text of ``table``; absent values become empty fields."""
    cells = [np.ma.masked_array(c, mask=np.isnan(c)) if c.dtype.kind == "f" else c for c in table.columns.values()]
    return csv_text(metrics_header(table.thresholds), [table.segment_id, *cells])


def read_metrics_csv(data: bytes | str) -> MetricsTable:
    """Parse the metrics CSV into a MetricsTable, by CsvRecords' rules.

    Only segment_id and the interval bounds are required; columns of other names are
    ignored, and a metric column the file lacks is absent throughout. The table's
    thresholds are those of the file's osr_<theta> columns, in file order; a column whose
    theta is not a finite number, and two columns that name one threshold (osr_1 and
    osr_1.0), raise SchemaError. Cells are typed by CsvRecords' rule: n_vehicles a count,
    the other metrics finite numbers, a blank cell an absent metric (n_vehicles 0).
    """
    rows = CsvRecords(data, _REQUIRED_COLUMNS, "metrics")
    thresholds, named = [], {}  # named: table column -> file column, in file order
    for name in rows.col:
        if name.startswith("osr_"):
            try:
                theta = float(name[len("osr_") :])
            except ValueError:
                theta = math.nan
            if not math.isfinite(theta):
                raise SchemaError(f"line 1: column {name!r} is not a finite threshold: {name[len('osr_') :]!r}")
            if _osr_column(theta) in named:
                raise SchemaError(f"line 1: columns {named[_osr_column(theta)]!r} and {name!r} name one osr threshold")
            thresholds.append(theta)
            named[_osr_column(theta)] = name
        elif name in _NUMERIC_COLUMNS:
            named[name] = name
    kinds = [(name, np.uint64 if name == "n_vehicles" else np.float64) for name in named.values()]
    table, _, error = rows.read(np.dtype([("segment_id", object), *kinds]))
    if error:
        raise error
    return MetricsTable.build(table["segment_id"], thresholds, **{key: table[name] for key, name in named.items()})
