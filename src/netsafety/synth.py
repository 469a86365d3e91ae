"""Synthetic trajectory and crash-count generation with planted relationships.

Desk-scale stand-in for camera data: per-interval traffic knobs (flow, speed
spread, composition, over-speeding) vary across intervals so the network
metrics vary, then crash counts are drawn from a log-linear model on chosen
(standardized) metrics. The whole pipeline can then be checked end to end:
the planted coefficients must be recoverable.

The car-following rule is deliberately minimal (hold desired speed, match
the leader inside a 2 s headway); the harness exercises the metrics, it
does not model traffic faithfully.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable

import numpy as np

from .config import IntervalGrid, check_keys, check_value, field_types, json_input, typed
from .crashes import SLOT_MINUTES
from .errors import ParameterError, SchemaError
from .geo import TangentPlane
from .network_metrics import MetricsTable, SegmentConfig, column_names, window_frames
from .trajectories import TRAJECTORY_COLUMNS, CodedColumn, Trajectory, csv_text

HEADWAY_S = 2.0
CAR_LENGTH_M = 4.5
TRUCK_LENGTH_M = 16.0
VEHICLE_WIDTH_M = 2.0
LANE_WIDTH_M = 3.5
SEGMENT_SPACING_M = 200.0
MIN_SPAWN_GAP_M = 10.0
BASE_DATE = datetime(2021, 6, 15)
TYPE_MIX = (("REAR_END", 0.55), ("SIDESWIPE", 0.30), ("OTHER", 0.15))


@dataclass
class ScenarioSpec:
    """Generator configuration; (lo, hi) pairs are per-interval uniform ranges."""

    seed: int = 0
    fps: float = 4.0
    n_segments: int = 3
    n_intervals: int = 100  # per segment; must fit in one day of slots
    interval_seconds: float = 25.0
    slot_minutes: int = 10
    lane_count: int = 2
    segment_length_m: float = 500.0
    speed_limit: float = 30.0
    anchor_lat: float = 33.46
    anchor_lon: float = -112.06
    flow_veh_per_min: tuple[float, float] = (8.0, 18.0)
    speed_mean: tuple[float, float] = (22.0, 29.0)
    speed_std: tuple[float, float] = (0.3, 3.0)
    speed_jitter: tuple[float, float] = (0.05, 1.2)
    truck_fraction: tuple[float, float] = (0.15, 0.85)
    overspeed_fraction: tuple[float, float] = (0.0, 0.5)
    beta_star: dict[str, float] = field(default_factory=dict)
    noise_kind: str = "poisson"
    target_r2: float = 0.6

    def __post_init__(self):
        for name, kind in field_types(type(self)).items():
            with typed("scenario spec"):
                value = check_value(kind, getattr(self, name), name)
            setattr(self, name, value)
            if kind == tuple[float, float] and not 0 <= value[0] <= value[1]:
                raise ParameterError(f"{name} must be a range 0 <= lo <= hi, got {value}")
        for name, low in (("seed", 0), ("n_segments", 1)):
            if getattr(self, name) < low:
                raise ParameterError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.fps <= 0 or self.interval_seconds <= 0:
            raise ParameterError("fps and interval_seconds must be positive")
        if self.noise_kind not in ("poisson", "gaussian"):
            raise ParameterError(f"noise_kind must be 'poisson' or 'gaussian', got {self.noise_kind!r}")
        if not 0 < self.target_r2 < 1:
            raise ParameterError(f"target_r2 must be in (0, 1), got {self.target_r2}")
        self.tangent_plane()  # refuses an anchor off the globe at load
        if self.slot_minutes not in SLOT_MINUTES:
            raise ParameterError(f"slot_minutes must be one of {SLOT_MINUTES}, got {self.slot_minutes}")
        if self.n_intervals > 24 * 60 // self.slot_minutes:
            raise ParameterError(f"{self.n_intervals} intervals do not fit in one day of {self.slot_minutes}-min slots")
        if self.interval_seconds > self.slot_minutes * 60:
            raise ParameterError("interval_seconds cannot exceed the slot length")
        window_frames(self.interval_grid().windows(), self.fps)  # every window holds a frame, as metrics require
        known = ("intercept", *column_names(self.segment_configs()[0].osr_thresholds))
        for name in self.beta_star:
            if name not in known:
                raise SchemaError(f"unknown beta_star key {name!r}; the plant reads one of {list(known)}")

    @property
    def slot_seconds(self) -> float:
        return self.slot_minutes * 60.0

    @property
    def plant_beta(self) -> dict[str, float]:
        """The coefficients the crash plant draws from: ``beta_star``, or an intercept-only plant when it is empty."""
        return self.beta_star or {"intercept": 1.5}

    def tangent_plane(self) -> TangentPlane:
        return TangentPlane(self.anchor_lat, self.anchor_lon)

    def segment_ids(self) -> list[str]:
        return [f"S{k + 1}" for k in range(self.n_segments)]

    def segment_configs(self) -> list[SegmentConfig]:
        return [
            SegmentConfig(segment_id=sid, lane_count=self.lane_count, length_m=self.segment_length_m,
                          speed_limit=self.speed_limit, travel_axis=(1.0, 0.0),
                          bbox=(-5.0, k * SEGMENT_SPACING_M - 5.0, self.segment_length_m + 5.0,
                                k * SEGMENT_SPACING_M + self.lane_count * LANE_WIDTH_M + 5.0))
            for k, sid in enumerate(self.segment_ids())
        ]

    def interval_grid(self) -> IntervalGrid:
        """One window of ``interval_seconds`` at the start of each slot; ``synth`` writes it into its config."""
        return IntervalGrid(self.n_intervals, self.interval_seconds, self.slot_seconds)

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: bytes | str) -> "ScenarioSpec":
        return cls(**check_keys(json_input(text, "scenario spec", dict), field_types(cls), "scenario spec"))


def _interval_rng(spec: ScenarioSpec, segment_idx: int, interval_idx: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed, 1, segment_idx, interval_idx])


def _simulate_segment(spec: ScenarioSpec, segment_idx: int) -> tuple:
    """Every interval of one segment, advanced together one frame at a time.

    A queue is one lane of one interval, leader first; its slots hold each vehicle's x,
    desired speed, jitter and number (creation order in the segment). Returns the vehicles'
    ids, queues and lengths by number, and the rows (number, step, x) frame by frame.
    """
    n_intervals, n_lanes = spec.n_intervals, spec.lane_count
    n_frames, dt = round(spec.interval_seconds * spec.fps), 1.0 / spec.fps
    rngs = [_interval_rng(spec, segment_idx, i) for i in range(n_intervals)]
    knobs = [[float(rng.uniform(*bounds)) for bounds in (spec.flow_veh_per_min, spec.speed_mean, spec.speed_std,
              spec.speed_jitter, spec.truck_fraction, spec.overspeed_fraction)] for rng in rngs]
    state = np.zeros((4, n_intervals * n_lanes, 8))  # x, desired, jitter, number by (queue, slot)
    count = np.zeros(n_intervals * n_lanes, dtype=np.int64)
    queue = np.arange(count.size)[:, None]
    ids, queues, lengths, made = [], [], [], [0] * n_intervals

    def enter(i: int, lane: int, x: float) -> None:
        """A vehicle of interval i at x, if it is MIN_SPAWN_GAP_M behind the lane's last one."""
        nonlocal state
        q, (rng, (_, v_mean, v_std, _, truck_frac, overspeed_frac)) = i * n_lanes + lane, (rngs[i], knobs[i])
        slot = int(count[q])
        if slot and state[0, q, slot - 1] - x < MIN_SPAWN_GAP_M:
            return
        if rng.random() < overspeed_frac:
            desired = spec.speed_limit * (1.03 + 0.22 * rng.random())
        else:
            desired = min(float(rng.normal(v_mean, v_std)) if v_std > 0 else v_mean, 0.97 * spec.speed_limit)
            desired = max(desired, 3.0)
        lengths.append(TRUCK_LENGTH_M if rng.random() < truck_frac else CAR_LENGTH_M)
        made[i] += 1
        ids.append(f"S{segment_idx + 1}-i{i:03d}-{made[i]:03d}")
        queues.append(q)
        if slot == state.shape[2]:
            state = np.concatenate([state, np.zeros_like(state)], axis=2)
        state[:, q, slot] = x, desired, 0.0, len(ids) - 1
        count[q] = slot + 1

    arrivals = []
    for i, (rng, (flow, v_mean, *_)) in enumerate(zip(rngs, knobs)):
        # Seed the road at steady-state density so early frames are not empty.
        per_lane_rate = flow / 60.0 / n_lanes
        expected = per_lane_rate * spec.segment_length_m / max(v_mean, 1.0)
        for lane in range(n_lanes):
            k0 = int(rng.poisson(expected))
            for x in np.sort(rng.uniform(0.0, spec.segment_length_m, size=k0))[::-1].tolist():
                enter(i, lane, x)
        arrivals.append(rng.poisson(per_lane_rate * dt, size=(n_frames, n_lanes)))  # Poisson thinning
    arrivals = np.reshape(arrivals, (n_intervals, n_frames, n_lanes)).transpose(1, 0, 2)
    arrivals = arrivals.reshape(n_frames, count.size) > 0  # by frame, then queue
    jittery = [kn[3] > 0 for kn in knobs]
    drawn = np.repeat(np.array(jittery, dtype=bool), n_lanes)[:, None]
    ar = 1.0 - math.exp(-dt)  # AR(1) jitter decay toward ~1 s memory
    kick = np.repeat([kn[3] * math.sqrt(2 * ar) for kn in knobs], n_lanes)[:, None]
    rows = []
    for step in range(n_frames):
        # A lane takes one vehicle if one arrives and its last is MIN_SPAWN_GAP_M in; a second arrival
        # in the frame then finds the new one at 0 and is dropped.
        tail = state[0, queue[:, 0], np.maximum(count - 1, 0)]
        spawns = (arrivals[step] & ((count == 0) | (tail >= MIN_SPAWN_GAP_M))).reshape(n_intervals, n_lanes).tolist()
        per_interval = count.reshape(n_intervals, n_lanes).sum(axis=1).tolist()
        z = []  # the jitter normals by interval, lane and slot: each interval's draws in stream order
        for i, (lanes, n) in enumerate(zip(spawns, per_interval)):
            if any(lanes):  # spawn draws come between the lanes' normals
                for lane, spawn in enumerate(lanes):
                    if spawn:
                        enter(i, lane, 0.0)
                    if jittery[i]:
                        z.append(rngs[i].standard_normal(count[i * n_lanes + lane]))
            elif n and jittery[i]:  # no spawn: the lanes' normals are contiguous
                z.append(rngs[i].standard_normal(n))
        x, desired, jitter, number = state
        held = np.arange(state.shape[2]) < count[:, None]
        noise = np.zeros(held.shape)
        noise[held & drawn] = np.concatenate(z) if z else 0.0
        jitter += ar * -jitter + kick * noise  # an interval without jitter keeps 0.0
        free = np.maximum(desired + jitter, 0.5)
        x[:, 0] += free[:, 0] * dt
        for d in range(1, count.max(initial=0)):  # a follower sees its leader's advanced x
            own = free[:, d]
            x[:, d] += np.where((x[:, d - 1] - x[:, d]) / own < HEADWAY_S, np.minimum(own, free[:, d - 1]), own) * dt
        stay = held & (x <= spec.segment_length_m)
        rows.append((number[stay], x[stay]))
        if count.sum() > stay.sum():  # a vehicle leaves from any slot; the rest keep their order
            state = state[:, queue, np.argsort(~stay, axis=1, kind="stable")]
            count = stay.sum(axis=1)
    number = np.concatenate([n for n, _ in rows] or [[]]).astype(np.int64)
    step = np.repeat(np.arange(n_frames), [n.size for n, _ in rows])
    x = np.concatenate([x for _, x in rows] or [[]])
    return ids, np.array(queues, dtype=np.int64), np.array(lengths), number, step, x


def generate_trajectories(spec: ScenarioSpec, tables: dict[str, Trajectory] | None = None) -> dict[str, str]:
    """Trajectory CSV text per segment id, covering every interval of the scenario.

    The text is a pure function of the spec, and the order of the random draws is part
    of that contract: each (segment, interval) has its own generator, which draws the
    interval's knobs, the initial vehicles, the arrival counts, and then per frame and
    lane the spawned vehicles followed by one jitter normal per vehicle, leader first.
    The intervals share no generator, so a segment's intervals advance together frame
    by frame; only the order of each generator's own draws is kept. In a frame without
    a spawn an interval's normals are contiguous and come from one call. Any rewrite
    must keep that stream, so that the files stay byte-identical.

    Given ``tables``, it also fills it with each segment's Trajectory, built from the same
    arrays as the text. Floats are written as their round-trip repr, so each table equals
    ``parse_trajectories(text, spec.fps)`` bit for bit, without parsing the text.
    """
    out: dict[str, str] = {}
    base_frame = np.array([round(i * spec.slot_seconds * spec.fps) for i in range(spec.n_intervals)], dtype=np.int64)
    for k, sid in enumerate(spec.segment_ids()):
        ids, queues, lengths, number, step, x = _simulate_segment(spec, k)
        # Frames ascend within a vehicle, so a stable sort by id (string) rank gives the (id, frame) order.
        rank = np.argsort(np.argsort(ids))
        order = np.argsort(rank[number], kind="stable")
        number, x, half = number[order], x[order], lengths[number[order]] / 2.0
        interval, lane = np.divmod(queues[number], spec.lane_count)
        y_c = k * SEGMENT_SPACING_M + (np.arange(spec.lane_count) + 0.5) * LANE_WIDTH_M
        frames, x1, x2 = base_frame[interval] + step[order], x - half, x + half
        y1, y2 = y_c - VEHICLE_WIDTH_M / 2.0, y_c + VEHICLE_WIDTH_M / 2.0
        out[sid] = csv_text(TRAJECTORY_COLUMNS, [
            frames, CodedColumn(ids, number), x1, CodedColumn(y1, lane), x2, CodedColumn(y2, lane),
        ])
        if tables is not None:
            sizes = np.bincount(rank[number], minlength=len(ids))  # rows per vehicle, by id rank
            kept = np.flatnonzero(sizes)  # a vehicle that left before its first frame has no row, and no place
            by_rank = sorted(ids)
            tables[sid] = Trajectory([by_rank[r] for r in kept.tolist()], np.concatenate([[0], np.cumsum(sizes[kept])]),
                                     frames, np.column_stack([x1, y1[lane], x2, y2[lane]]), spec.fps)
    return out


@dataclass
class PlantResult:
    """Planted crash counts with the latent rates that produced them."""

    counts: dict[tuple[str, int], int]
    lam: dict[tuple[str, int], float]
    sigma: float | None  # gaussian mode only


def _standardize(column: np.ndarray) -> np.ndarray:
    std = column.std()
    return np.zeros_like(column) if std == 0 else (column - column.mean()) / std


def generate_crash_counts(metrics: MetricsTable | Iterable[MetricsTable], spec: ScenarioSpec) -> PlantResult:
    """Draw crash counts from log-linear rates on standardized metric columns.

    ``spec.plant_beta`` maps predictor column names to coefficients, plus an
    "intercept" entry. Poisson mode draws counts from the rates directly;
    gaussian mode adds normal noise around the rates (floored at zero and
    rounded), with sigma chosen so the generator's own R-squared is
    ``spec.target_r2``. Counts are keyed by (segment id, slot of ``spec.slot_minutes``).
    """
    beta_star = spec.plant_beta
    table = MetricsTable.concat(metrics)
    eta = np.full(len(table), float(beta_star.get("intercept", 0.0)))
    for name in (n for n in beta_star if n != "intercept"):
        raw = table.column(name)
        if np.isnan(raw).all():
            raw = np.zeros(len(table))
        elif np.isnan(raw).any():  # absent values carry no plant signal
            raw = np.where(np.isnan(raw), np.nanmean(raw), raw)
        eta = eta + float(beta_star[name]) * _standardize(raw)
    lam = np.exp(eta)

    rng = np.random.default_rng([spec.seed, 2])
    if spec.noise_kind == "poisson":
        try:
            counts = rng.poisson(lam)
        except ValueError as exc:  # numpy refuses a rate past about 9.2e18
            raise ParameterError(f"beta_star gives crash rates up to {lam.max():.3g}, past what a Poisson draw "
                                 f"takes ({exc})") from None
        sigma = None
    else:
        sigma = math.sqrt(float(lam.var()) * (1.0 - spec.target_r2) / spec.target_r2)
        noise = rng.standard_normal(lam.size)
        # Conditioned draw: remove the sampling correlation with the rates and
        # pin the realized noise level at sigma, so the generator's own
        # R-squared equals the target up to rounding/flooring.
        if lam.size > 2 and noise.std() > 0:
            if lam.var() > 0:
                noise = noise - np.cov(noise, lam)[0, 1] / lam.var() * (lam - lam.mean())
            noise = (noise - noise.mean()) / noise.std()
        counts = np.maximum(np.rint(lam + sigma * noise), 0.0).astype(int)

    slot = (table.columns["interval_start"] // spec.slot_seconds).astype(int)
    keys = list(zip(table.segment_id.tolist(), slot.tolist()))
    return PlantResult(dict(zip(keys, counts.tolist())), dict(zip(keys, lam.tolist())), sigma)


def crash_records_csv(plant: PlantResult, spec: ScenarioSpec) -> str:
    """Emit one crash CSV row per planted count, timestamped inside its slot, placed in its segment's bbox.

    The draw order is part of the output contract: crashes go by (segment id, slot),
    and each takes four doubles of one generator, as ``uniform`` over the slot's
    minutes, the bbox's x and then y range (1 m inside), then ``choice(p=TYPE_MIX)``.
    """
    by_id = {s.segment_id: s for s in spec.segment_configs()}
    cells = sorted(plant.counts.items())
    count = [c for _, c in cells]
    slot = np.repeat([s for (_, s), _ in cells], count)
    box = np.repeat([by_id[sid].bbox for (sid, _), _ in cells], count, axis=0).reshape(-1, 4)
    u = np.random.default_rng([spec.seed, 3]).random((slot.size, 4))
    # Generator.uniform(lo, hi) is lo + (hi - lo) * u, and choice(p=) searches the normalised cdf.
    minute_of_day = slot * spec.slot_minutes + spec.slot_minutes * u[:, 0]
    lo, hi = box[:, :2] + 1.0, box[:, 2:] - 1.0
    x, y = (lo + (hi - lo) * u[:, 1:3]).T
    cdf = np.cumsum([p for _, p in TYPE_MIX])
    crash_type = CodedColumn([name for name, _ in TYPE_MIX], np.searchsorted(cdf / cdf[-1], u[:, 3], side="right"))
    stamps = [(BASE_DATE + timedelta(minutes=m)).isoformat() for m in minute_of_day.tolist()]
    lat, lon = spec.tangent_plane().to_latlon(x, y)
    return csv_text(["timestamp", "lat", "lon", "type"], [stamps, lat, lon, crash_type])


def identity_keypoints_json(spec: ScenarioSpec) -> str:
    """Keypoints whose pixel coordinates equal their world coordinates (identity fit)."""
    plane = spec.tangent_plane()
    y_max = (spec.n_segments - 1) * SEGMENT_SPACING_M + spec.lane_count * LANE_WIDTH_M
    length = spec.segment_length_m
    corners = [(0.0, 0.0), (length, 0.0), (0.0, y_max + 10.0), (length, y_max + 10.0),
               (length / 2.0, y_max / 2.0), (length / 4.0, y_max / 3.0 + 1.0)]
    entries = []
    for u, v in corners:
        lat, lon = plane.to_latlon(u, v)
        entries.append({"u": u, "v": v, "lat": lat, "lon": lon})
    return json.dumps(entries, indent=2, sort_keys=True)
