"""Pairwise surrogate safety metrics for individual vehicle encounters.

Longitudinal positions are coordinates along the travel axis with the leader
ahead of the follower (X_L > X_F). Decelerations passed as ``b`` are signed
(negative while braking); deceleration *parameters* (braking capabilities,
MADR) are magnitudes and must be positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError, GeometryError, ParameterError

INITIAL_DR_ONSET = 0.5  # m/s^2; below this a sample does not count as braking


@dataclass(frozen=True)
class PairState:
    """Instantaneous leader/follower state along the travel axis."""

    x_leader: float
    x_follower: float
    v_leader: float
    v_follower: float

    def gap(self) -> float:
        return self.x_leader - self.x_follower


@dataclass(frozen=True)
class SsmConfig:
    """Sampling configuration for exposure-style metrics."""

    madr: float  # maximum available deceleration rate, m/s^2 (magnitude)
    timestep: float  # observation period between samples, s

    def __post_init__(self):
        if self.madr <= 0:
            raise ParameterError(f"MADR must be positive, got {self.madr}")
        if self.timestep <= 0:
            raise ParameterError(f"timestep must be positive, got {self.timestep}")


@dataclass(frozen=True)
class EnvelopeParams:
    """Per-vehicle capability envelope for minimum-safe-distance boundaries.

    Acceleration/deceleration fields are magnitudes (> 0). ``response_time``
    is the delay before the vehicle reacts; ``mu`` is the lateral wander
    margin added to the lateral boundary.
    """

    response_time: float
    accel_max: float
    brake_min: float
    brake_max: float
    lat_accel_max: float = 0.2
    lat_brake_min: float = 1.0
    mu: float = 0.5

    def __post_init__(self):
        if self.response_time < 0:
            raise ParameterError("response_time must be >= 0")
        for name in ("accel_max", "brake_min", "brake_max", "lat_accel_max", "lat_brake_min"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.mu < 0:
            raise ParameterError("mu must be >= 0")


def closes(v_follower, v_leader):
    """Whether the follower closes on its leader: the one rule of every TTC and DRAC. Scalars or arrays; NaN never."""
    return v_follower > v_leader


def ttc(p: PairState) -> float | None:
    """Time to collision if both vehicles hold speed; None when not closing.

    A negative leader speed models head-on approach. Equal speeds give an
    infinite horizon and are reported as None rather than a value.
    """
    if p.gap() <= 0:
        raise GeometryError(f"leader must be ahead of follower (gap {p.gap():.3f} m)")
    closing = p.v_follower - p.v_leader
    return p.gap() / closing if closes(p.v_follower, p.v_leader) else None


def pet(t_first_leaves: float, t_second_arrives: float) -> float:
    """Post-encroachment time: second arrival minus first departure at the conflict point."""
    if t_second_arrives < t_first_leaves:
        raise DataError(
            f"arrival {t_second_arrives} precedes departure {t_first_leaves}; check event ordering"
        )
    return t_second_arrives - t_first_leaves


def drac(p: PairState) -> float:
    """Deceleration rate (m/s^2, magnitude) the follower needs to avoid impact; 0 if not closing."""
    if p.gap() <= 0:
        raise GeometryError(f"leader must be ahead of follower (gap {p.gap():.3f} m)")
    closing = p.v_follower - p.v_leader
    return closing * closing / p.gap() if closes(p.v_follower, p.v_leader) else 0.0


def cpi(
    drac_samples: Sequence[tuple[float, bool]] | Sequence[tuple[float, int]],
    cfg: SsmConfig,
    total_time: float,
) -> float:
    """Fraction of a vehicle's travel time with DRAC at or above MADR.

    ``drac_samples`` holds (drac_value, active_flag) pairs at cfg.timestep
    spacing; inactive samples contribute nothing.
    """
    if total_time <= 0:
        raise ParameterError(f"total travel time must be positive, got {total_time}")
    exceeded = sum(cfg.timestep * bool(active) for value, active in drac_samples if value >= cfg.madr)
    return exceeded / total_time


def psd(remaining_distance: float, speed: float, madr: float) -> float:
    """Remaining distance over minimum stopping distance; inf when already stopped."""
    if remaining_distance < 0:
        raise ParameterError(f"remaining distance must be >= 0, got {remaining_distance}")
    if madr <= 0:
        raise ParameterError(f"MADR must be positive, got {madr}")
    if speed == 0:
        return math.inf  # no stopping needed
    msd = speed * speed / (2.0 * madr)
    return remaining_distance / msd


def uns(delta_v: float, v_follower: float, b: float, b_max: float) -> float:
    """Unsafety of one sample: closing speed x follower speed x braking-severity ratio.

    ``b`` is the leader's signed acceleration (negative while braking) and
    ``b_max`` its most negative achievable value.
    """
    if b_max >= 0:
        raise ParameterError(f"b_max must be negative (a braking limit), got {b_max}")
    r_d = b / b_max if b < 0 else 0.0
    return delta_v * v_follower * r_d


def ud(uns_samples: Iterable[float], d: float, total_time: float, link_length: float) -> float:
    """Unsafe density for a link: summed unsafety x sample spacing, per second-meter."""
    if total_time <= 0 or link_length <= 0:
        raise ParameterError("aggregation period and link length must be positive")
    return sum(uns_samples) * d / (total_time * link_length)


def max_speed(speeds: Sequence[float]) -> float:
    if len(speeds) == 0:
        raise DataError("empty speed series")
    return max(speeds)


def delta_v(v_follower: float, v_leader: float) -> float:
    return v_follower - v_leader


def initial_dr(decel_series: Sequence[float], onset: float = INITIAL_DR_ONSET) -> float | None:
    """First deceleration sample (magnitude) past the onset threshold; None if never braking."""
    if len(decel_series) == 0:
        raise DataError("empty deceleration series")
    for value in decel_series:
        if value > onset:
            return value
    return None


def min_safe_long_same(
    follower: EnvelopeParams,
    v_follower: float,
    leader: EnvelopeParams,
    v_leader: float,
    follower_brake: str = "own",
) -> float:
    """Minimum longitudinal gap for same-direction following, clamped at 0.

    Worst case: follower accelerates at its maximum through its response
    time, then brakes; leader brakes at its hardest. ``follower_brake``
    selects whose minimum braking bounds the follower's stopping term:
    "own" (the conventional choice) or "leader" (alternative convention).
    """
    if follower_brake not in ("own", "leader"):
        raise ParameterError(f"follower_brake must be 'own' or 'leader', got {follower_brake!r}")
    rho = follower.response_time
    a_acc = follower.accel_max
    brake = follower.brake_min if follower_brake == "own" else leader.brake_min
    v_after = v_follower + a_acc * rho
    d = (
        v_follower * rho
        + 0.5 * a_acc * rho * rho
        + v_after * v_after / (2.0 * brake)
        - v_leader * v_leader / (2.0 * leader.brake_max)
    )
    return max(d, 0.0)


def min_safe_long_opp(
    ego: EnvelopeParams, v_ego: float, other: EnvelopeParams, v_other: float
) -> float:
    """Minimum longitudinal gap for head-on approach: both reaction+braking terms, summed."""

    def side(p: EnvelopeParams, v: float) -> float:
        v = abs(v)
        v_after = v + p.accel_max * p.response_time
        return (
            v * p.response_time
            + 0.5 * p.accel_max * p.response_time**2
            + v_after * v_after / (2.0 * p.brake_min)
        )

    return side(ego, v_ego) + side(other, v_other)


def min_safe_lat(
    ego: EnvelopeParams, v_lat_ego: float, other: EnvelopeParams, v_lat_other: float
) -> float:
    """Minimum lateral separation (ego drifting toward the other), clamped at 0."""
    rho1, rho2 = ego.response_time, other.response_time
    a1, a2 = ego.lat_accel_max, other.lat_accel_max
    v1_after = v_lat_ego + a1 * rho1
    ego_term = v_lat_ego * rho1 + 0.5 * a1 * rho1 * rho1 + v1_after * v1_after / (2.0 * ego.lat_brake_min)
    v2_after = v_lat_other - a2 * rho2
    other_term = v_lat_other * rho2 - 0.5 * a2 * rho2 * rho2 - v2_after * v2_after / (2.0 * other.lat_brake_min)
    return max(ego.mu + ego_term - other_term, 0.0)


def msdf(distance: float, d_min: float) -> float:
    """Measured distance over the minimum safe distance (one axis)."""
    if d_min <= 0:
        raise ParameterError(f"minimum safe distance must be positive, got {d_min}")
    return distance / d_min


def msdce(gt_long: float, calc_long: float, gt_lat: float, calc_lat: float) -> float:
    """Relative error of computed safe distances against ground truth, both axes."""
    if gt_long <= 0 or gt_lat <= 0:
        raise ParameterError("ground-truth safe distances must be positive")
    return math.sqrt(abs(gt_long - calc_long) / gt_long + abs(gt_lat - calc_lat) / gt_lat)
