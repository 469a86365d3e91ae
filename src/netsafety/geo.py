"""Local tangent-plane conversion between GPS degrees and planar meters.

An equirectangular approximation anchored at a reference latitude/longitude.
Adequate for the sub-kilometer road segments this toolkit works on; expect
centimeter-level distortion at 1 km from the anchor. Both directions map
floats or numpy arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

EARTH_RADIUS_M = 6371008.8  # mean Earth radius
# The factors math.radians/math.degrees (and numpy's) multiply by, so that floats
# and arrays map alike, to the same bits.
DEG_TO_RAD = math.pi / 180.0
RAD_TO_DEG = 180.0 / math.pi


@dataclass(frozen=True)
class TangentPlane:
    """Planar frame anchored at (lat0, lon0); x east, y north, meters."""

    lat0: float
    lon0: float

    def __post_init__(self):
        if not (-90 < self.lat0 < 90 and -180 <= self.lon0 <= 180):
            raise ParameterError(f"anchor needs -90 < lat < 90 and -180 <= lon <= 180, got ({self.lat0}, {self.lon0})")

    def to_xy(self, lat, lon):
        x = (lon - self.lon0) * DEG_TO_RAD * EARTH_RADIUS_M * math.cos(math.radians(self.lat0))
        y = (lat - self.lat0) * DEG_TO_RAD * EARTH_RADIUS_M
        return x, y

    def to_latlon(self, x, y):
        lat = self.lat0 + y / EARTH_RADIUS_M * RAD_TO_DEG
        lon = self.lon0 + x / (EARTH_RADIUS_M * math.cos(math.radians(self.lat0))) * RAD_TO_DEG
        return lat, lon
