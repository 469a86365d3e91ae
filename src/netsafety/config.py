"""Run configuration: one JSON file wiring paths, segments, and analysis options.

All relative paths are resolved against the directory containing the config
file, so a generated bundle (config + data files) is relocatable.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from .association import AnalysisConfig
from .errors import ParameterError, SchemaError
from .geo import TangentPlane
from .network_metrics import DEFAULT_TRT_T_MIN_S, DEFAULT_TRT_THETA, ClusterConfig, SegmentConfig
from .trajectories import (
    DEFAULT_CLASS_THRESHOLD_M,
    DEFAULT_MAX_GAP_FRAMES,
    DEFAULT_MIN_DISPLACEMENT_M,
    DEFAULT_SG_ORDER,
    DEFAULT_SG_WINDOW,
)


def _number(value, name: str, kind=numbers.Real):
    """``value``, if it is a ``kind`` number (a bool is none); TypeError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {'an integer' if kind is numbers.Integral else 'a number'}, got {value!r}")
    return value


_integer = partial(_number, kind=numbers.Integral)


def _numbers(value, name: str, n: int | None = None, kind=numbers.Real) -> tuple:
    """``value`` as a tuple, if a list of ``n`` (any count if None) ``kind`` numbers; else TypeError naming ``name``."""
    if not isinstance(value, list) or n not in (None, len(value)):
        raise TypeError(f"{name} must be a list of {n or 'any count of'} numbers, got {value!r}")
    return tuple(_number(v, name, kind) for v in value)


@dataclass
class TrackPrepConfig:
    max_gap_frames: int = DEFAULT_MAX_GAP_FRAMES
    sg_window: int = DEFAULT_SG_WINDOW
    sg_order: int = DEFAULT_SG_ORDER
    class_threshold_m: float = DEFAULT_CLASS_THRESHOLD_M
    min_displacement_m: float = DEFAULT_MIN_DISPLACEMENT_M

    def __post_init__(self):
        for name in ("max_gap_frames", "sg_window", "sg_order"):
            _integer(getattr(self, name), name)
        if not (self.max_gap_frames >= 0 and self.sg_window % 2 == 1 and self.sg_window > self.sg_order >= 0
                and self.class_threshold_m > 0 and self.min_displacement_m >= 0):
            raise ParameterError("prep needs max_gap_frames >= 0, an odd sg_window > sg_order >= 0, "
                                 f"class_threshold_m > 0 and min_displacement_m >= 0, got {self}")


@dataclass
class IntervalGrid:
    """Explicit metric windows: ``count`` windows of ``window_seconds`` every stride."""

    count: int
    window_seconds: float
    stride_seconds: float
    start_seconds: float = 0.0

    def __post_init__(self):
        _integer(self.count, "count")
        if not (self.count >= 0 and self.window_seconds > 0 and self.stride_seconds > 0):
            raise ParameterError(f"intervals need count >= 0, window_seconds > 0 and stride_seconds > 0, got {self}")

    def windows(self) -> list[tuple[float, float]]:
        return [
            (self.start_seconds + i * self.stride_seconds,
             self.start_seconds + i * self.stride_seconds + self.window_seconds)
            for i in range(self.count)
        ]


@dataclass
class TrtConfig:
    theta: float = DEFAULT_TRT_THETA
    t_min_seconds: float = DEFAULT_TRT_T_MIN_S
    free_flow: float | None = None  # default: 85th percentile of frame mean speeds

    def __post_init__(self):
        for name in ("theta", "t_min_seconds") + (() if self.free_flow is None else ("free_flow",)):
            _number(getattr(self, name), name)


@dataclass
class RunConfig:
    fps: float
    seed: int = 0
    output_dir: Path = Path(".")
    segments: list[SegmentConfig] = field(default_factory=list)
    trajectory_paths: dict[str, Path] = field(default_factory=dict)
    keypoints_path: Path | None = None
    crashes_path: Path | None = None
    metrics_path: Path | None = None
    anchor: tuple[float, float] | None = None
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    prep: TrackPrepConfig = field(default_factory=TrackPrepConfig)
    intervals: IntervalGrid | None = None
    trt: TrtConfig = field(default_factory=TrtConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    crash_years: tuple[int, int] | None = None

    def tangent_plane(self) -> TangentPlane:
        if self.anchor is None:
            raise ParameterError("config has no anchor latitude/longitude")
        return TangentPlane(self.anchor[0], self.anchor[1])


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise SchemaError(f"config {context} is missing required field {key!r}")
    return obj[key]


def _check_keys(obj: dict, known, context: str) -> dict:
    unknown = sorted(obj.keys() - set(known))  # a non-object has no keys(): a wrong-typed value
    if unknown:
        raise SchemaError(f"config {context} has unknown key(s) {unknown}")
    return obj


@contextmanager
def _typed(context: str):
    """Report a value of the wrong type or form under ``context`` as a SchemaError."""
    try:
        yield
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"config {context} has a value of the wrong type: {exc}") from exc


def _section(cls, obj: dict, context: str):
    """Build a config dataclass from a JSON object, rejecting keys it does not define."""
    with _typed(context):
        return cls(**_check_keys(obj, (f.name for f in fields(cls)), context))


_SEGMENT_KEYS = {f.name for f in fields(SegmentConfig)} | {"trajectories"}
_SEGMENT_LISTS = {"travel_axis": 2, "osr_thresholds": None, "bbox": 4, "collision_point": 2}  # key: length
_ROOT_KEYS = {"fps", "seed", "anchor", "paths", "segments", "crash_years",
              "cluster", "prep", "intervals", "trt", "analysis"}
_PATH_KEYS = {"output_dir", "keypoints", "crashes", "metrics"}


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        raise SchemaError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"config file is not {exc.encoding} text: {path} (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"config root must be a JSON object, got {type(obj).__name__}")
    with _typed("root"):
        return _run_config(obj, path.parent)


def _run_config(obj: dict, base: Path) -> RunConfig:
    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    _check_keys(obj, _ROOT_KEYS, "root")
    paths = _check_keys(obj.get("paths", {}), _PATH_KEYS, "paths")

    segments = []
    trajectory_paths = {}
    for i, seg in enumerate(obj.get("segments", [])):
        with _typed(f"segments[{i}]"):
            _check_keys(seg, _SEGMENT_KEYS, f"segments[{i}]")
            cfg = SegmentConfig(
                segment_id=_require(seg, "segment_id", f"segments[{i}]"),
                lane_count=_integer(_require(seg, "lane_count", f"segments[{i}]"), "lane_count"),
                length_m=float(_number(_require(seg, "length_m", f"segments[{i}]"), "length_m")),
                speed_limit=float(_number(_require(seg, "speed_limit", f"segments[{i}]"), "speed_limit")),
                **{key: _numbers(seg[key], key, n) for key, n in _SEGMENT_LISTS.items() if key in seg},
            )
        if any(s.segment_id == cfg.segment_id for s in segments):
            raise SchemaError(f"config segments[{i}] repeats segment_id {cfg.segment_id!r}")
        segments.append(cfg)
        if "trajectories" in seg:
            trajectory_paths[cfg.segment_id] = resolve(seg["trajectories"])

    cluster = _section(ClusterConfig, obj.get("cluster", {}), "cluster")
    prep = _section(TrackPrepConfig, obj.get("prep", {}), "prep")
    trt = _section(TrtConfig, obj.get("trt", {}), "trt")

    with _typed("analysis"):
        analysis_obj = dict(obj.get("analysis", {}))
        for key in ("families", "methods", "predictors"):
            if key in analysis_obj:
                value = analysis_obj[key]
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise SchemaError(f"config analysis field {key!r} must be a list of strings, got {value!r}")
                analysis_obj[key] = tuple(value)
        for key in ("slot_minutes", "cv_folds", "seed"):
            _integer(analysis_obj.get(key, 0), key)
    analysis = _section(AnalysisConfig, analysis_obj, "analysis")

    intervals = None
    if "intervals" in obj:
        intervals = _section(IntervalGrid, obj["intervals"], "intervals")

    return RunConfig(
        fps=float(_number(_require(obj, "fps", "root"), "fps")),
        seed=_integer(obj.get("seed", 0), "seed"),
        output_dir=resolve(paths.get("output_dir", ".")),
        segments=segments,
        trajectory_paths=trajectory_paths,
        keypoints_path=resolve(paths["keypoints"]) if "keypoints" in paths else None,
        crashes_path=resolve(paths["crashes"]) if "crashes" in paths else None,
        metrics_path=resolve(paths["metrics"]) if "metrics" in paths else None,
        anchor=_numbers(obj["anchor"], "anchor", 2) if "anchor" in obj else None,
        cluster=cluster,
        prep=prep,
        intervals=intervals,
        trt=trt,
        analysis=analysis,
        crash_years=_numbers(obj["crash_years"], "crash_years", 2, numbers.Integral) if "crash_years" in obj else None,
    )
