"""Run configuration: one JSON file wiring paths, segments, and analysis options.

All relative paths are resolved against the directory containing the config
file, so a generated bundle (config + data files) is relocatable.
"""

from __future__ import annotations

import json
import numbers
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from pathlib import Path

from .association import AnalysisConfig
from .errors import NetSafetyError, ParameterError, SchemaError
from .geo import TangentPlane
from .network_metrics import ClusterConfig, SegmentConfig, TrtConfig
from .trajectories import TrackPrepConfig

_SCALARS = {int: (numbers.Integral, "an integer", "numbers"), float: (numbers.Real, "a number", "numbers"),
            str: (str, "a string", "strings")}  # annotation: (its values' type, what one must be, their plural)


def _what(kind, plural: bool = False) -> str:
    """What a value of annotation ``kind`` must be ("a list of 2 numbers"), or the plural noun for many of them."""
    args, origin = typing.get_args(kind), typing.get_origin(kind)
    if origin is types.UnionType:
        return _what(args[0], plural)
    if origin is tuple:
        nouns = {_what(a, True) for a in args if a is not ...}
        count = "any count of" if args[-1] is ... else len(args)
        return "lists" if plural else f"a list of {count} {nouns.pop() if len(nouns) == 1 else 'values'}"
    if origin is dict:
        return "objects" if plural else f"an object of {_what(args[1], True)}"
    return _SCALARS[kind][2 if plural else 1]  # a KeyError for an annotation the rule does not know


def check_value(kind, value, name: str):
    """``value``, if it is a JSON value of annotation ``kind``; TypeError naming ``name`` otherwise.

    ``int`` is an integer and ``float`` a finite number, a bool being neither; ``str`` is a string;
    ``X | None`` is null or an ``X``; ``tuple[A, B]`` is a list of that length and ``tuple[A, ...]`` one of
    any length, each element checked and the list returned as a tuple; ``dict[str, X]`` is an object whose
    values are checked. Any other value is returned as it is.
    """
    args, origin = typing.get_args(kind), typing.get_origin(kind)
    if origin is types.UnionType:  # X | None
        return None if value is None else check_value(args[0], value, name)
    if origin is tuple and isinstance(value, (list, tuple)):
        kinds = (args[0],) * len(value) if args[-1] is ... else args
        if len(kinds) == len(value):
            return tuple(check_value(k, v, name) for k, v in zip(kinds, value))
    elif origin is dict and isinstance(value, dict):
        for v in value.values():
            check_value(args[1], v, name)
        return value
    elif origin is None and kind in _SCALARS:
        if (isinstance(value, _SCALARS[kind][0]) and not isinstance(value, bool)
                and (kind is not float or abs(value) <= sys.float_info.max)):
            return value
    raise TypeError(f"{name} must be {_what(kind)}, got {value!r}")


field_types = cache(typing.get_type_hints)  # a dataclass's fields by name: their evaluated annotations, once per class


def check_keys(obj: dict, known, where: str) -> dict:
    unknown = sorted(obj.keys() - set(known))  # a non-object has no keys(): a wrong-typed value
    if unknown:
        raise SchemaError(f"{where} has unknown key(s) {unknown}")
    return obj


@contextmanager
def typed(where: str):
    """Report a value of the wrong type or form under ``where`` as a SchemaError."""
    try:
        yield
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where} has a value of the wrong type: {exc}") from exc


def _checked_fields(cls, obj: dict, where: str) -> dict:
    """``obj``'s values, each checked against the annotation of ``cls``'s field of its name."""
    missing = [f.name for f in fields(cls) if f.name not in obj and f.default is f.default_factory is MISSING]
    if missing:
        raise SchemaError(f"{where} is missing required field {missing[0]!r}")
    return {key: check_value(field_types(cls)[key], value, key) for key, value in obj.items()}


def _section(cls, obj: dict, where: str, extra=()):
    """Build config dataclass ``cls`` from a JSON object whose keys are its fields, or ``extra`` (left out)."""
    with typed(where):
        check_keys(obj, (*field_types(cls), *extra), where)
        return cls(**_checked_fields(cls, {k: v for k, v in obj.items() if k not in extra}, where))


@dataclass
class IntervalGrid:
    """Explicit metric windows: ``count`` windows of ``window_seconds`` every stride."""

    count: int
    window_seconds: float
    stride_seconds: float
    start_seconds: float = 0.0

    def __post_init__(self):
        if not (self.count >= 0 and self.window_seconds > 0 and self.stride_seconds > 0):
            raise ParameterError(f"intervals need count >= 0, window_seconds > 0 and stride_seconds > 0, got {self}")

    def windows(self) -> list[tuple[float, float]]:
        return [
            (self.start_seconds + i * self.stride_seconds,
             self.start_seconds + i * self.stride_seconds + self.window_seconds)
            for i in range(self.count)
        ]


@dataclass
class RunConfig:
    fps: float
    paths: dict[str, Path] = field(default_factory=lambda: {"output_dir": Path(".")})  # the resolved paths section
    segments: list[SegmentConfig] = field(default_factory=list)
    trajectory_paths: dict[str, Path] = field(default_factory=dict)
    anchor: tuple[float, float] | None = None
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    prep: TrackPrepConfig = field(default_factory=TrackPrepConfig)
    intervals: IntervalGrid | None = None
    trt: TrtConfig = field(default_factory=TrtConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    crash_years: tuple[int, int] | None = None

    def __post_init__(self):
        if self.anchor is not None:
            self.tangent_plane()  # refuses an anchor off the globe at load

    def path(self, key: str) -> Path:
        if key not in self.paths:
            raise NetSafetyError(f"config has no paths.{key} entry")
        return self.paths[key]

    def tangent_plane(self) -> TangentPlane:
        if self.anchor is None:
            raise ParameterError("config has no anchor latitude/longitude")
        return TangentPlane(self.anchor[0], self.anchor[1])

    def to_json(self, base: Path) -> str:
        """The config as ``load_config`` of a file in ``base`` reads it back: every section in full, each path
        relative to ``base`` where it lies under it, and no null (a field left out takes its default, None)."""
        def kept(obj) -> dict:
            return {key: value for key, value in vars(obj).items() if value is not None}

        def path(p: Path) -> str:  # json.dumps's hook for a value it cannot write itself: only paths come here
            return str(p.relative_to(base) if p.is_relative_to(base) else p)

        values = {key: getattr(self, key) for key in (*_ROOT_VALUES, *_SECTIONS)}
        obj = {key: kept(value) if key in _SECTIONS else value for key, value in values.items() if value is not None}
        trajectories = {sid: {"trajectories": p} for sid, p in self.trajectory_paths.items()}
        segments = [kept(seg) | trajectories.get(seg.segment_id, {}) for seg in self.segments]
        return json.dumps({**obj, "paths": self.paths, "segments": segments}, indent=2, sort_keys=True, default=path)


_SECTIONS = {"cluster": ClusterConfig, "prep": TrackPrepConfig, "intervals": IntervalGrid, "trt": TrtConfig,
             "analysis": AnalysisConfig}  # the RunConfig fields built from a JSON object of their own fields
_ROOT_VALUES = ("fps", "anchor", "crash_years")  # the RunConfig fields set from JSON as they are
_ROOT_KEYS = {*_SECTIONS, *_ROOT_VALUES, "paths", "segments"}
_PATH_KEYS = {"output_dir", "keypoints", "crashes", "metrics"}


def read_input(path: str | Path) -> bytes:
    """An input file's bytes, line ends made LF as by Path.read_text; NetSafetyError naming the path unless it is a
    readable file of UTF-8 text. The one place an input file is read."""
    try:
        data = Path(path).read_bytes()
        if not data.isascii():
            data.decode()
    except FileNotFoundError:
        raise NetSafetyError(f"input file not found: {path}") from None
    except OSError as exc:
        raise NetSafetyError(f"input file cannot be read: {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise NetSafetyError(f"input file is not {exc.encoding} text: {path} (byte {exc.start})") from None
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def json_input(data: bytes | str, what: str, kind: type[dict] | type[list]):
    """``data`` decoded as JSON whose root is a ``kind``; SchemaError naming ``what`` otherwise."""
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(obj, kind):
        raise SchemaError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, got {type(obj).__name__}")
    return obj


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    obj = json_input(read_input(path), "config file", dict)
    with typed("config root"):
        return _run_config(obj, path.parent)


def _run_config(obj: dict, base: Path) -> RunConfig:
    def resolve(p: str) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    check_keys(obj, _ROOT_KEYS, "config root")
    paths = {"output_dir": base}
    for key, value in check_keys(obj.get("paths", {}), _PATH_KEYS, "config paths").items():
        paths[key] = resolve(check_value(str, value, f"paths.{key}"))

    segments = []
    trajectory_paths = {}
    for i, seg in enumerate(obj.get("segments", [])):
        cfg = _section(SegmentConfig, seg, f"config segments[{i}]", extra=("trajectories",))
        if any(s.segment_id == cfg.segment_id for s in segments):
            raise SchemaError(f"config segments[{i}] repeats segment_id {cfg.segment_id!r}")
        segments.append(cfg)
        if "trajectories" in seg:
            with typed(f"config segments[{i}]"):
                trajectory_paths[cfg.segment_id] = resolve(check_value(str, seg["trajectories"], "trajectories"))

    sections = {key: _section(cls, obj[key], f"config {key}") for key, cls in _SECTIONS.items() if key in obj}
    root = _checked_fields(RunConfig, {key: obj[key] for key in _ROOT_VALUES if key in obj}, "config root")
    cfg = RunConfig(
        **{**root, "fps": float(root["fps"])},
        **sections,
        paths=paths,
        segments=segments,
        trajectory_paths=trajectory_paths,
    )
    for entry in cfg.analysis.exclude_slots:
        if all(s.segment_id != entry[0] for s in segments):
            raise SchemaError(f"config analysis exclude_slots entry {list(entry)} names no segment of the config")
    return cfg
