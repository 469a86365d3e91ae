import numpy as np
import pytest

from netsafety.errors import DataError, ParameterError, PointAtInfinityError, SchemaError
from netsafety.geo import TangentPlane
from netsafety.projection import Homography, KeypointPair, apply_homography, fit_homography, load_keypoints


def pairs_from_matrix(h, pixels):
    out = []
    for u, v in pixels:
        w = h @ np.array([u, v, 1.0])
        out.append(KeypointPair((u, v), (w[0] / w[2], w[1] / w[2])))
    return out


def random_homography(rng):
    # Affine-dominant with a small projective row: generic but far from degenerate.
    h = np.eye(3)
    h[:2, :2] += rng.normal(0, 0.2, (2, 2))
    h[:2, 2] = rng.normal(0, 50, 2)
    h[2, :2] = rng.normal(0, 1e-4, 2)
    return h


class TestFit:
    def test_identity_from_equal_pairs(self):
        pts = [(0, 0), (100, 0), (0, 100), (100, 100)]
        fit = fit_homography([KeypointPair(p, p) for p in pts])
        np.testing.assert_allclose(fit.matrix, np.eye(3), atol=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_translation(self):
        pts = [(0, 0), (100, 0), (0, 100), (100, 100)]
        fit = fit_homography([KeypointPair(p, (p[0] + 10, p[1] + 5)) for p in pts])
        expected = np.array([[1, 0, 10], [0, 1, 5], [0, 0, 1]], dtype=float)
        np.testing.assert_allclose(fit.matrix, expected, atol=1e-9)

    def test_six_point_round_trip(self):
        rng = np.random.default_rng(42)
        h = random_homography(rng)
        pixels = rng.uniform([0, 0], [1280, 720], (6, 2))
        pairs = pairs_from_matrix(h, pixels)
        fit = fit_homography(pairs)
        for pair in pairs:
            x, y = apply_homography(fit, pair.pixel)
            assert abs(x - pair.world[0]) <= 1e-6
            assert abs(y - pair.world[1]) <= 1e-6
        assert fit.residual_rms <= 1e-9

    def test_recovers_generator_up_to_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_homography(rng)
            pixels = rng.uniform([0, 0], [1280, 720], (8, 2))
            fit = fit_homography(pairs_from_matrix(h, pixels))
            a = h / np.linalg.norm(h)
            b = fit.matrix / np.linalg.norm(fit.matrix)
            if np.sum(a * b) < 0:
                b = -b
            assert np.linalg.norm(a - b) <= 1e-6

    def test_too_few_pairs(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(ParameterError, match="4"):
            fit_homography([KeypointPair(p, p) for p in pts])

    def test_collinear_pixels_rejected(self):
        pts = [(i, 0) for i in range(5)]  # all on one line
        with pytest.raises(DataError, match="degenerate|rank"):
            fit_homography([KeypointPair(p, p) for p in pts])


class TestApply:
    def test_identity(self):
        h = Homography(np.eye(3))
        assert apply_homography(h, (3, 4)) == (3.0, 4.0)

    def test_scale_two(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        assert apply_homography(h, (3, 4)) == (6.0, 8.0)

    def test_point_at_infinity(self):
        h = Homography(np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1.0]]))  # vanishing line u = -1
        with pytest.raises(PointAtInfinityError):
            apply_homography(h, (-1.0, 5.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        base = random_homography(rng)
        for k in (0.5, -3.0, 1e4):
            a = Homography(base)
            b = Homography(base * k)
            for point in [(10, 20), (600, 300)]:
                xa, ya = apply_homography(a, point)
                xb, yb = apply_homography(b, point)
                assert xa == pytest.approx(xb, abs=1e-9)
                assert ya == pytest.approx(yb, abs=1e-9)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(9)
        h = Homography(random_homography(rng))
        inv = h.inverse()
        for point in [(100.0, 50.0), (640.0, 360.0)]:
            u, v = apply_homography(inv, apply_homography(h, point))
            assert u == pytest.approx(point[0], abs=1e-6)
            assert v == pytest.approx(point[1], abs=1e-6)

    def test_batch_matches_per_point_formula_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h = Homography(random_homography(rng))
            pixels = rng.uniform([0, 0], [1280, 720], (300, 2))
            batch = apply_homography(h, pixels)
            assert batch.shape == (300, 2)
            for (u, v), row in zip(pixels.tolist(), batch.tolist()):
                w = h.matrix @ np.array([u, v, 1.0])
                assert row == [float(w[0] / w[2]), float(w[1] / w[2])]
                assert tuple(row) == apply_homography(h, (u, v))

    def test_batch_with_one_point_at_infinity(self):
        h = Homography(np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1.0]]))  # vanishing line u = -1
        pixels = np.array([[0.0, 0.0], [3.0, 4.0], [-1.0, 5.0], [2.0, 2.0]])
        with pytest.raises(PointAtInfinityError, match=r"pixel \(-1.0, 5.0\)"):
            apply_homography(h, pixels)

    def test_empty_batch(self):
        assert apply_homography(Homography(np.eye(3)), np.empty((0, 2))).shape == (0, 2)

    def test_singular_matrix_rejected(self):
        with pytest.raises(DataError):
            Homography(np.ones((3, 3)))


class TestKeypointsFile:
    def test_load_and_project(self):
        plane = TangentPlane(33.46, -112.06)
        lat, lon = plane.to_latlon(120.0, 45.0)
        text = f'[{{"u": 10, "v": 20, "lat": {lat}, "lon": {lon}}}]'
        pairs = load_keypoints(text, plane)
        assert pairs[0].pixel == (10.0, 20.0)
        assert pairs[0].world[0] == pytest.approx(120.0, abs=1e-6)
        assert pairs[0].world[1] == pytest.approx(45.0, abs=1e-6)

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="lon"):
            load_keypoints('[{"u": 1, "v": 2, "lat": 3}]', TangentPlane(0, 0))

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            load_keypoints("not json", TangentPlane(0, 0))

    def test_json_round_trip(self):
        h = Homography(np.diag([2.0, 1.0, 1.0]), residual_rms=0.25)
        restored = Homography.from_json(h.to_json())
        np.testing.assert_allclose(restored.matrix, h.matrix)
        assert restored.residual_rms == 0.25
