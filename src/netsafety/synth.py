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
from typing import Mapping, Sequence

import numpy as np

from .config import IntervalGrid
from .crashes import SLOT_MINUTES
from .errors import ParameterError, SchemaError
from .geo import TangentPlane
from .network_metrics import IntervalMetrics, SegmentConfig, metric_value
from .trajectories import TRAJECTORY_COLUMNS, CodedColumn, csv_text

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
        if self.fps <= 0 or self.interval_seconds <= 0:
            raise ParameterError("fps and interval_seconds must be positive")
        if self.noise_kind not in ("poisson", "gaussian"):
            raise ParameterError(f"noise_kind must be 'poisson' or 'gaussian', got {self.noise_kind!r}")
        if self.slot_minutes not in SLOT_MINUTES:
            raise ParameterError(f"slot_minutes must be one of {SLOT_MINUTES}, got {self.slot_minutes}")
        slots_per_day = 24 * 60 // self.slot_minutes
        if self.n_intervals > slots_per_day:
            raise ParameterError(
                f"{self.n_intervals} intervals do not fit in one day of {self.slot_minutes}-min slots"
            )
        if self.interval_seconds > self.slot_minutes * 60:
            raise ParameterError("interval_seconds cannot exceed the slot length")
        for name in ("flow_veh_per_min", "speed_mean", "speed_std", "speed_jitter",
                     "truck_fraction", "overspeed_fraction"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ParameterError(f"{name} range is inverted: ({lo}, {hi})")

    @property
    def slot_seconds(self) -> float:
        return self.slot_minutes * 60.0

    def segment_ids(self) -> list[str]:
        return [f"S{k + 1}" for k in range(self.n_segments)]

    def segment_configs(self) -> list[SegmentConfig]:
        configs = []
        for k, sid in enumerate(self.segment_ids()):
            y0 = k * SEGMENT_SPACING_M
            y1 = y0 + self.lane_count * LANE_WIDTH_M
            configs.append(
                SegmentConfig(
                    segment_id=sid,
                    lane_count=self.lane_count,
                    length_m=self.segment_length_m,
                    speed_limit=self.speed_limit,
                    travel_axis=(1.0, 0.0),
                    bbox=(-5.0, y0 - 5.0, self.segment_length_m + 5.0, y1 + 5.0),
                )
            )
        return configs

    def interval_grid(self) -> IntervalGrid:
        """One window of ``interval_seconds`` at the start of each slot; ``synth`` writes it into config.json."""
        return IntervalGrid(self.n_intervals, self.interval_seconds, self.slot_seconds)

    def windows(self) -> list[tuple[float, float]]:
        return self.interval_grid().windows()

    def to_json(self) -> str:
        obj = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(self).items()}
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"scenario spec is not valid JSON: {exc}") from exc
        kwargs = {}
        for name, value in obj.items():
            if name not in cls.__dataclass_fields__:
                raise SchemaError(f"unknown scenario field {name!r}")
            kwargs[name] = tuple(value) if isinstance(value, list) and name != "beta_star" else value
        return cls(**kwargs)


@dataclass(slots=True)
class _Vehicle:
    code: int  # creation order within the interval; the row's index into the id list
    lane: int
    x: float
    desired: float
    length: float
    jitter: float = 0.0


def _interval_rng(spec: ScenarioSpec, segment_idx: int, interval_idx: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed, 1, segment_idx, interval_idx])


def _simulate_interval(spec: ScenarioSpec, segment_idx: int, interval_idx: int) -> tuple:
    """One interval of one segment: its rows' frames, vehicle ids and (n, 4) corners, by (id, frame)."""
    rng = _interval_rng(spec, segment_idx, interval_idx)
    u = lambda rng_range: float(rng.uniform(*rng_range))  # noqa: E731
    flow = u(spec.flow_veh_per_min)
    v_mean = u(spec.speed_mean)
    v_std = u(spec.speed_std)
    jitter_std = u(spec.speed_jitter)
    truck_frac = u(spec.truck_fraction)
    overspeed_frac = u(spec.overspeed_fraction)

    n_frames = round(spec.interval_seconds * spec.fps)
    dt = 1.0 / spec.fps
    base_frame = round(interval_idx * spec.slot_seconds * spec.fps)
    y_base = segment_idx * SEGMENT_SPACING_M
    fleet: list[_Vehicle] = []

    def new_vehicle(lane: int, x: float) -> _Vehicle:
        if rng.random() < overspeed_frac:
            desired = spec.speed_limit * (1.03 + 0.22 * rng.random())
        else:
            desired = min(float(rng.normal(v_mean, v_std)) if v_std > 0 else v_mean,
                          0.97 * spec.speed_limit)
            desired = max(desired, 3.0)
        length = TRUCK_LENGTH_M if rng.random() < truck_frac else CAR_LENGTH_M
        fleet.append(_Vehicle(len(fleet), lane, x, desired, length))
        return fleet[-1]

    lanes: list[list[_Vehicle]] = [[] for _ in range(spec.lane_count)]  # leader first
    # Seed the road at steady-state density so early frames are not empty.
    per_lane_rate = flow / 60.0 / spec.lane_count
    expected = per_lane_rate * spec.segment_length_m / max(v_mean, 1.0)
    for lane in range(spec.lane_count):
        k0 = int(rng.poisson(expected))
        xs = np.sort(rng.uniform(0.0, spec.segment_length_m, size=k0))[::-1]
        for x in xs:
            if lanes[lane] and lanes[lane][-1].x - x < MIN_SPAWN_GAP_M:
                continue
            lanes[lane].append(new_vehicle(lane, float(x)))

    # Pre-draw arrival counts per frame per lane (Poisson thinning).
    arrivals = rng.poisson(per_lane_rate * dt, size=(n_frames, spec.lane_count))

    row_frame, row_code, row_x = [], [], []
    ar = 1.0 - math.exp(-dt)  # AR(1) jitter decay toward ~1 s memory
    kick = jitter_std * math.sqrt(2 * ar)
    for step in range(n_frames):
        frame = base_frame + step
        for lane_idx, lane in enumerate(lanes):
            for _ in range(int(arrivals[step, lane_idx])):
                if not lane or lane[-1].x >= MIN_SPAWN_GAP_M:
                    lane.append(new_vehicle(lane_idx, 0.0))
            if jitter_std > 0:  # one normal per vehicle, leader first
                for veh, z in zip(lane, rng.standard_normal(len(lane)).tolist()):
                    veh.jitter += ar * (-veh.jitter) + kick * z
            leader = None
            for veh in lane:
                speed = max(veh.desired + veh.jitter, 0.5)
                if leader is not None and (leader.x - veh.x) / speed < HEADWAY_S:
                    speed = min(speed, max(leader.desired + leader.jitter, 0.5))
                veh.x += speed * dt
                leader = veh
            lanes[lane_idx] = lane = [v for v in lane if v.x <= spec.segment_length_m]
            row_frame += [frame] * len(lane)
            row_code += [v.code for v in lane]
            row_x += [v.x for v in lane]

    vids = [f"S{segment_idx + 1}-i{interval_idx:03d}-{k + 1:03d}" for k in range(len(fleet))]
    rank = np.argsort(np.argsort(vids))  # each vehicle's place in id (string) order
    codes = np.array(row_code, dtype=np.int64)
    # Frames ascend within a vehicle, so a stable sort by id rank gives the (id, frame) order.
    order = np.argsort(rank[codes], kind="stable")
    codes = codes[order]
    x = np.array(row_x)[order]
    half = np.array([v.length for v in fleet])[codes] / 2.0
    y_c = y_base + (np.array([v.lane for v in fleet], dtype=np.int64)[codes] + 0.5) * LANE_WIDTH_M
    corners = np.column_stack([x - half, y_c - VEHICLE_WIDTH_M / 2.0, x + half, y_c + VEHICLE_WIDTH_M / 2.0])
    return np.array(row_frame, dtype=np.int64)[order], CodedColumn(vids, codes), corners


def generate_trajectories(spec: ScenarioSpec) -> dict[str, str]:
    """Trajectory CSV text per segment id, covering every interval of the scenario.

    The text is a pure function of the spec, and the order of the random draws is part
    of that contract: each (segment, interval) has its own generator, which draws the
    interval's knobs, the initial vehicles, the arrival counts, and then per frame and
    lane the spawned vehicles followed by one jitter normal per vehicle, leader first.
    Any rewrite must keep that stream, so that the files stay byte-identical.
    """
    out: dict[str, str] = {}
    for k, sid in enumerate(spec.segment_ids()):
        parts = [csv_text(TRAJECTORY_COLUMNS, ())]
        for i in range(spec.n_intervals):  # one interval's rows at a time keeps the temporaries small
            frames, vids, corners = _simulate_interval(spec, k, i)
            parts.append(csv_text((), [frames, vids, *corners.T]))
        out[sid] = "".join(parts)
    return out


@dataclass
class PlantResult:
    """Planted crash counts with the latent rates that produced them."""

    counts: dict[tuple[str, int], int]
    lam: dict[tuple[str, int], float]
    sigma: float | None  # gaussian mode only
    beta_star: dict[str, float]


def _standardize(column: np.ndarray) -> np.ndarray:
    std = column.std()
    if std == 0:
        return np.zeros_like(column)
    return (column - column.mean()) / std


def generate_crash_counts(
    metrics: Sequence[IntervalMetrics],
    beta_star: Mapping[str, float],
    noise_kind: str = "poisson",
    seed: int = 0,
    slot_minutes: int = 10,
    sigma: float | None = None,
    target_r2: float = 0.6,
) -> PlantResult:
    """Draw crash counts from log-linear rates on standardized metric columns.

    ``beta_star`` maps predictor column names to coefficients, plus an
    "intercept" entry. Poisson mode draws counts from the rates directly;
    gaussian mode adds normal noise around the rates (floored at zero and
    rounded), with sigma either given or chosen so the generator's own
    R-squared is ``target_r2``.
    """
    if noise_kind not in ("poisson", "gaussian"):
        raise ParameterError(f"noise_kind must be 'poisson' or 'gaussian', got {noise_kind!r}")
    names = [n for n in beta_star if n != "intercept"]
    intercept = float(beta_star.get("intercept", 0.0))
    cols = {}
    for name in names:
        raw = np.array([metric_value(m, name) for m in metrics], dtype=float)  # None -> nan
        if np.isnan(raw).all():
            raw = np.zeros(len(metrics))
        elif np.isnan(raw).any():  # absent values carry no plant signal
            raw = np.where(np.isnan(raw), np.nanmean(raw), raw)
        cols[name] = _standardize(raw)
    eta = np.full(len(metrics), intercept)
    for name in names:
        eta = eta + float(beta_star[name]) * cols[name]
    lam = np.exp(eta)

    rng = np.random.default_rng([seed, 2])
    if noise_kind == "poisson":
        counts = rng.poisson(lam)
        sigma_used = None
    else:
        if sigma is None:
            var_lam = float(lam.var())
            if not 0 < target_r2 < 1:
                raise ParameterError(f"target_r2 must be in (0, 1), got {target_r2}")
            sigma = math.sqrt(var_lam * (1.0 - target_r2) / target_r2)
        noise = rng.standard_normal(lam.size)
        # Conditioned draw: remove the sampling correlation with the rates and
        # pin the realized noise level at sigma, so the generator's own
        # R-squared equals the target up to rounding/flooring.
        if lam.size > 2 and noise.std() > 0:
            if lam.var() > 0:
                noise = noise - np.cov(noise, lam)[0, 1] / lam.var() * (lam - lam.mean())
            noise = (noise - noise.mean()) / noise.std()
        counts = np.maximum(np.rint(lam + sigma * noise), 0.0).astype(int)
        sigma_used = sigma

    slot_seconds = slot_minutes * 60
    keys = [(m.segment_id, int(m.t_start // slot_seconds)) for m in metrics]
    return PlantResult(
        counts={k: int(c) for k, c in zip(keys, counts)},
        lam={k: float(v) for k, v in zip(keys, lam)},
        sigma=sigma_used,
        beta_star=dict(beta_star),
    )


def crash_records_csv(
    plant: PlantResult,
    segments: Sequence[SegmentConfig],
    slot_minutes: int,
    plane: TangentPlane,
    seed: int = 0,
) -> str:
    """Emit one crash CSV row per planted count, timestamped inside its slot.

    The draw order is part of the output contract: crashes go by (segment id, slot),
    and each takes four doubles of one generator, as ``uniform`` over the slot's
    minutes, the bbox's x and then y range (1 m inside), then ``choice(p=TYPE_MIX)``.
    """
    by_id = {s.segment_id: s for s in segments}
    cells = sorted(plant.counts.items())
    count = [c for _, c in cells]
    slot = np.repeat([s for (_, s), _ in cells], count)
    box = np.repeat([by_id[sid].bbox for (sid, _), _ in cells], count, axis=0).reshape(-1, 4)
    u = np.random.default_rng([seed, 3]).random((slot.size, 4))
    # Generator.uniform(lo, hi) is lo + (hi - lo) * u, and choice(p=) searches the normalised cdf.
    minute_of_day = slot * slot_minutes + slot_minutes * u[:, 0]
    lo, hi = box[:, :2] + 1.0, box[:, 2:] - 1.0
    x, y = (lo + (hi - lo) * u[:, 1:3]).T
    cdf = np.cumsum([p for _, p in TYPE_MIX])
    crash_type = CodedColumn([name for name, _ in TYPE_MIX], np.searchsorted(cdf / cdf[-1], u[:, 3], side="right"))
    stamps = [(BASE_DATE + timedelta(minutes=m)).isoformat() for m in minute_of_day.tolist()]
    lat, lon = plane.to_latlon(x, y)
    return csv_text(["timestamp", "lat", "lon", "type"], [stamps, lat, lon, crash_type])


def identity_keypoints_json(spec: ScenarioSpec, plane: TangentPlane) -> str:
    """Keypoints whose pixel coordinates equal their world coordinates (identity fit)."""
    y_max = (spec.n_segments - 1) * SEGMENT_SPACING_M + spec.lane_count * LANE_WIDTH_M
    corners = [
        (0.0, 0.0),
        (spec.segment_length_m, 0.0),
        (0.0, y_max + 10.0),
        (spec.segment_length_m, y_max + 10.0),
        (spec.segment_length_m / 2.0, y_max / 2.0),
        (spec.segment_length_m / 4.0, y_max / 3.0 + 1.0),
    ]
    entries = []
    for u, v in corners:
        lat, lon = plane.to_latlon(u, v)
        entries.append({"u": u, "v": v, "lat": lat, "lon": lon})
    return json.dumps(entries, indent=2, sort_keys=True)
