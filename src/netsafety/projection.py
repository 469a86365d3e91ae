"""Pixel-to-world perspective projection fitted from keypoint correspondences.

Camera views are mapped onto a local planar world frame with a 3x3
homography. Under the flat-road assumption the vertical coordinate is
dropped, so four non-degenerate correspondences determine the transform and
extra keypoints are absorbed by least squares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import check_value, json_input
from .errors import DataError, ParameterError, PointAtInfinityError, SchemaError
from .geo import TangentPlane

_INFINITY_EPS = 1e-12
_DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class KeypointPair:
    """One correspondence between a camera pixel and a world-frame point."""

    pixel: tuple[float, float]
    world: tuple[float, float]

    def __post_init__(self):
        for v in (*self.pixel, *self.world):
            if not math.isfinite(v):
                raise ParameterError(f"keypoint coordinates must be finite, got {v!r}")


@dataclass(frozen=True)
class Homography:
    """3x3 projective transform, scale-normalized so matrix[2,2] == 1 when nonzero.

    ``residual_rms`` is the root-mean-square reprojection error (meters) over
    the keypoints the transform was fitted on; 0 for exactly projective pairs.
    """

    matrix: np.ndarray
    residual_rms: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ParameterError(f"homography matrix must be 3x3, got shape {m.shape}")
        if abs(np.linalg.det(m)) < 1e-15:
            raise DataError("homography matrix is singular")
        if abs(m[2, 2]) > _INFINITY_EPS:
            m = m / m[2, 2]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.matrix))

    def to_json(self) -> str:
        return json.dumps(
            {"matrix": self.matrix.tolist(), "residual_rms": self.residual_rms},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Homography":
        obj = json_input(text, "homography", dict)
        return cls(np.array(obj["matrix"], dtype=float), float(obj.get("residual_rms", 0.0)))


def _normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform moving the centroid to origin, mean radius to sqrt(2)."""
    centroid = points.mean(axis=0)
    mean_dist = np.mean(np.linalg.norm(points - centroid, axis=1))
    scale = math.sqrt(2.0) / mean_dist if mean_dist > 0 else 1.0
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def fit_homography(pairs: list[KeypointPair]) -> Homography:
    """Least-squares homography from >= 4 pixel/world correspondences.

    Direct linear transform on Hartley-normalized coordinates (both point
    sets shifted to their centroid and isotropically scaled before solving,
    de-normalized after). Raises ParameterError for < 4 pairs and DataError
    for degenerate (collinear) configurations.
    """
    if len(pairs) < 4:
        raise ParameterError(f"homography fit needs at least 4 keypoint pairs, got {len(pairs)}")
    px = np.array([p.pixel for p in pairs], dtype=float)
    wd = np.array([p.world for p in pairs], dtype=float)

    t_px = _normalization(px)
    t_wd = _normalization(wd)
    px_n = (t_px @ np.column_stack([px, np.ones(len(px))]).T).T[:, :2]
    wd_n = (t_wd @ np.column_stack([wd, np.ones(len(wd))]).T).T[:, :2]

    rows = []
    for (u, v), (x, y) in zip(px_n, wd_n):
        rows.append([-u, -v, -1.0, 0.0, 0.0, 0.0, x * u, x * v, x])
        rows.append([0.0, 0.0, 0.0, -u, -v, -1.0, y * u, y * v, y])
    a = np.array(rows)

    _, sigma, vt = np.linalg.svd(a)
    # A rank below 8 means more than one null direction: collinear keypoints.
    if sigma[7] < _DEGENERACY_RTOL * sigma[0]:
        raise DataError("degenerate keypoint configuration (collinear points); homography rank deficient")
    h_n = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_wd) @ h_n @ t_px

    fitted = Homography(h)
    errors = ((apply_homography(fitted, px) - wd) ** 2).sum(axis=1).tolist()
    return Homography(fitted.matrix, residual_rms=math.sqrt(sum(errors) / len(errors)))


def apply_homography(h: Homography, pixel):
    """Map one ``(u, v)`` pixel to an ``(x, y)`` tuple, or an (N, 2) array to an (N, 2) array.

    One point is mapped as a batch of one; errors if any point maps to infinity.
    """
    batch = np.asarray(pixel, dtype=float).reshape(-1, 2)
    vec = (h.matrix @ np.column_stack([batch, np.ones(len(batch))])[..., None])[..., 0]
    lam = vec[:, 2]
    at_infinity = np.abs(lam) <= _INFINITY_EPS
    if at_infinity.any():
        (u, v), scale = batch[at_infinity][0], lam[at_infinity][0]
        raise PointAtInfinityError(f"pixel ({u}, {v}) maps to infinity (scale {scale:.3e})")
    world = vec[:, :2] / lam[:, None]
    return tuple(world[0].tolist()) if np.ndim(pixel) == 1 else world


def load_keypoints(text: bytes | str, plane: TangentPlane) -> list[KeypointPair]:
    """Parse the keypoints JSON (``[{"u":..,"v":..,"lat":..,"lon":..}, ...]``)."""
    pairs = []
    for i, entry in enumerate(json_input(text, "keypoints file", list)):
        values = {}
        for key in ("u", "v", "lat", "lon"):
            try:
                values[key] = check_value(float, entry[key], key)
            except (KeyError, TypeError):
                raise SchemaError(f"keypoint {i}: field {key!r} missing or not a number in {entry!r}") from None
        world = plane.to_xy(values["lat"], values["lon"])
        pairs.append(KeypointPair(pixel=(values["u"], values["v"]), world=world))
    return pairs
