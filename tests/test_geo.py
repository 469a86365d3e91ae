import math

import numpy as np
import pytest

from netsafety.errors import ParameterError
from netsafety.geo import EARTH_RADIUS_M, TangentPlane

ANCHORS = [(33.46, -112.06), (0.0, 0.0), (-45.3, 170.2), (60.1, 10.7)]


def to_xy_math(plane, lat, lon):
    """The scalar definition, on ``math``: what synth bundles and crash binnings were made with."""
    return (math.radians(lon - plane.lon0) * EARTH_RADIUS_M * math.cos(math.radians(plane.lat0)),
            math.radians(lat - plane.lat0) * EARTH_RADIUS_M)


def to_latlon_math(plane, x, y):
    return (plane.lat0 + math.degrees(y / EARTH_RADIUS_M),
            plane.lon0 + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(plane.lat0)))))


@pytest.mark.parametrize("anchor", ANCHORS)
def test_arrays_map_to_the_bits_of_the_scalar_math_definition(anchor):
    plane = TangentPlane(*anchor)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-2000.0, 2000.0, (2, 5000))
    lat, lon = plane.to_latlon(x, y)
    want = [to_latlon_math(plane, a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert list(zip(lat.tolist(), lon.tolist())) == want
    xs, ys = plane.to_xy(lat, lon)
    assert list(zip(xs.tolist(), ys.tolist())) == [to_xy_math(plane, a, b) for a, b in zip(lat.tolist(), lon.tolist())]


def test_floats_map_to_floats():
    plane = TangentPlane(*ANCHORS[0])
    lat, lon = plane.to_latlon(120.0, 45.0)
    assert (type(lat), type(lon)) == (float, float)
    assert plane.to_xy(lat, lon) == to_xy_math(plane, lat, lon)


@pytest.mark.parametrize("anchor", [(90.0, 0.0), (-90.0, 0.0), (100.0, 0.0), (0.0, 180.5), (0.0, -181.0), (math.nan, 0.0)])
def test_anchor_off_the_globe_is_refused(anchor):
    # A pole or beyond has cos(lat0) <= 0, so x would be scaled by zero or flipped.
    with pytest.raises(ParameterError, match=r"anchor needs -90 < lat < 90 and -180 <= lon <= 180"):
        TangentPlane(*anchor)


def test_anchor_at_the_antimeridian_is_kept():
    assert TangentPlane(89.9, 180.0).to_xy(89.9, 180.0) == TangentPlane(-89.9, -180.0).to_xy(-89.9, -180.0) == (0.0, 0.0)
