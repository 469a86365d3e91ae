import math

import numpy as np
import pytest

from netsafety import trajectories
from netsafety.errors import DataError, ParameterError, SchemaError
from netsafety.trajectories import (
    TrackPoint,
    VehicleClass,
    box_length_along_axis,
    classify_by_length,
    csv_text,
    drop_static_objects,
    fill_gaps,
    format_cell,
    parse_trajectories,
    prepare_tracks,
    serialize_trajectories,
    smooth_savitzky_golay,
)

from oracles import csv_rows_oracle, fill_gaps_oracle, sg_window_fit_oracle

HEADER = "frame,vehicle_id,x1,y1,x2,y2\n"


def make_traj(frames_xy, fps=1.0, vid="v1", size=2.0):
    rows = ["frame,vehicle_id,x1,y1,x2,y2"]
    for f, x, y in frames_xy:
        rows.append(f"{f},{vid},{x - size / 2},{y - size / 2},{x + size / 2},{y + size / 2}")
    return parse_trajectories("\n".join(rows) + "\n", fps)[0]


class TestParse:
    def test_two_rows_one_vehicle(self):
        text = "frame,vehicle_id,x1,y1,x2,y2\n0,a,0,0,2,1\n1,a,1,0,3,1\n"
        trajs = parse_trajectories(text, fps=30.0)
        assert len(trajs) == 1
        assert [p.frame for p in trajs[0].points] == [0, 1]
        assert trajs[0].points[0].cx == 1.0

    def test_interleaved_vehicles_split_and_ordered(self):
        text = (
            "frame,vehicle_id,x1,y1,x2,y2\n"
            "0,a,0,0,1,1\n0,b,5,0,6,1\n1,b,6,0,7,1\n1,a,1,0,2,1\n"
        )
        trajs = parse_trajectories(text, fps=10.0)
        assert {t.vehicle_id for t in trajs} == {"a", "b"}
        for t in trajs:
            assert [p.frame for p in t.points] == [0, 1]

    def test_missing_field_names_line(self):
        text = "frame,vehicle_id,x1,y1,x2,y2\n0,a,0,0,2,1\n1,a,1,0,3\n"
        with pytest.raises(SchemaError, match="line 3"):
            parse_trajectories(text, fps=30.0)

    @pytest.mark.parametrize(
        "body,error,match",
        [
            ("0,a,0,0,1,1\n1,a,1,0,2\n", SchemaError, "line 3: expected 6 fields, got 5"),
            ("0,a,0,0,1,1\nx,a,1,0,2,1\n", SchemaError, "line 3: malformed numeric field"),
            ("0,a,0,0,1,1\n1,a,1,abc,2,1\n", SchemaError, "line 3: malformed numeric field"),
            ("0,a,0,0,1,1\n1.5,a,1,0,2,1\n", SchemaError, "line 3: malformed numeric field"),
            ("0,a,0,0,1,1\n1, ,1,0,2,1\n", SchemaError, "line 3: empty vehicle_id"),
            ("0,a,0,0,1,1\n1,a,nan,0,2,1\n", SchemaError, "line 3: non-finite coordinate"),
            ("0,a,0,0,1,1\n1,a,1,0,inf,1\n", SchemaError, "line 3: non-finite coordinate"),
            ("0,a,0,0,1,1\n1,a,1,-inf,2,1\n", SchemaError, "line 3: non-finite coordinate"),
            ("0,a,0,0,1,1\n-1,b,1,0,2,1\n", DataError, "line 3: negative frame index -1"),
            ("0,a,0,0,1,1\n2,a,1,0,2,1\n2,a,2,0,3,1\n", DataError,
             r"vehicle 'a': non-monotone frame 2 after 2 \(line 4\)"),
            ("0,a,0,0,1,1\n\n   \n1,a,1,0,2\n", SchemaError, "line 5: expected 6 fields"),
        ],
    )
    def test_malformed_row_names_line(self, body, error, match):
        with pytest.raises(error, match=match):
            parse_trajectories(HEADER + body, fps=30.0)

    def test_first_faulty_line_is_reported(self):
        with pytest.raises(SchemaError, match="line 3: non-finite"):
            parse_trajectories(HEADER + "0,a,0,0,1,1\n1,a,nan,0,2,1\n2,a,1,0\n", fps=30.0)

    def test_whitespace_only_rows_skipped(self):
        text = HEADER + "0,a,0,0,1,1\n\n  \n , , , , , \n,,\n1,a,1,0,2,1\n"
        (traj,) = parse_trajectories(text, fps=30.0)
        assert traj.frames.tolist() == [0, 1]

    def test_header_columns_in_another_order(self):
        text = HEADER + "0,a,0,0,1,1\n0,b,5,1,7,3\n1,a,1,0,2,1\n"
        shuffled = "y2,vehicle_id,extra,x2,frame,x1,y1\n1,a,q,1,0,0,0\n3,b,q,7,0,5,1\n1,a,q,2,1,1,0\n"
        for a, b in zip(parse_trajectories(text, 30.0), parse_trajectories(shuffled, 30.0), strict=True):
            assert a.vehicle_id == b.vehicle_id
            np.testing.assert_array_equal(a.frames, b.frames)
            np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_arrays_normalized_in_first_appearance_order(self):
        text = HEADER + "4,b,3,9,1,8\n0,a,0,0,1,1\n5,b,1,8,3,9\n2,a,1,0,2,1\n"
        b, a = parse_trajectories(text, fps=2.0)
        assert (b.vehicle_id, a.vehicle_id) == ("b", "a")
        assert b.frames.dtype == np.int64 and b.frames.tolist() == [4, 5]
        np.testing.assert_array_equal(b.boxes, [[1, 8, 3, 9], [1, 8, 3, 9]])
        assert a.boxes.shape == (2, 4) and a.boxes.dtype == float

    def test_points_view(self, monkeypatch):
        traj = make_traj([(0, 0, 0), (3, 2, 0), (4, 3, 1)], fps=2.0)
        built = []
        monkeypatch.setattr(trajectories, "TrackPoint", lambda *a: built.append(a) or TrackPoint(*a))
        assert len(traj.points) == 3 and built == []
        assert traj.points[-1] == TrackPoint(4, 2.0, 2.0, 0.0, 4.0, 2.0)
        assert [p.frame for p in traj.points] == [0, 3, 4]
        assert len(built) == 4

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="x2"):
            parse_trajectories("frame,vehicle_id,x1,y1,y2\n", fps=30.0)

    def test_non_monotone_frames_name_vehicle(self):
        text = "frame,vehicle_id,x1,y1,x2,y2\n5,car7,0,0,1,1\n3,car7,1,0,2,1\n"
        with pytest.raises(DataError, match="car7"):
            parse_trajectories(text, fps=30.0)

    def test_timestamps_from_fps(self):
        traj = make_traj([(0, 0, 0), (30, 1, 0)], fps=30.0)
        assert traj.points[1].timestamp == pytest.approx(1.0)

    def test_round_trip_is_lossless(self):
        text = (
            "frame,vehicle_id,x1,y1,x2,y2\n"
            "0,a,0.25,0.5,2.75,1.5\n3,a,1.1,0.5,3.6,1.5\n0,b,9,9,11,10\n"
        )
        first = parse_trajectories(text, fps=4.0)
        second = parse_trajectories(serialize_trajectories(first), fps=4.0)
        assert len(first) == len(second)
        for t1, t2 in zip(first, second):
            assert t1.vehicle_id == t2.vehicle_id
            for p1, p2 in zip(t1.points, t2.points):
                assert (p1.frame, p1.x1, p1.y1, p1.x2, p1.y2) == (p2.frame, p2.x1, p2.y1, p2.x2, p2.y2)


class TestFormatCell:
    def test_cells(self):
        assert format_cell(None) == ""
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(0.1)) == "0.1"  # not 'np.float64(0.1)'
        assert format_cell(np.float32(0.5)) == "0.5"
        assert format_cell(3) == "3"
        assert format_cell(True) == "True"
        assert format_cell("S1") == "S1"


class TestCsvText:
    IDS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rinside", " leading", ""]

    def test_matches_csv_writer_row_by_row(self):
        n = len(self.IDS)
        columns = [
            self.IDS,
            [None, np.float64(0.1), np.int64(7), True, 2.5, None, "x"],
            np.linspace(-1.0, 1e-300, n),
            np.arange(n, dtype=np.int64) - 3,
            np.array([None, 1.5, None, 0.0, -0.0, float("nan"), 3.0], dtype=object),
        ]
        header = ["id", "mixed", "float, with comma", "int", "absent"]
        assert csv_text(header, columns) == csv_rows_oracle(header, zip(*columns))

    def test_empty_header_writes_data_lines_only(self):
        columns = [np.array([1, 2]), ["a", "b"]]
        assert csv_text([], columns) == "1,a\n2,b\n"
        assert csv_text(["n", "id"], [np.array([], dtype=np.int64), []]) == "n,id\n"

    def test_quoted_ids_round_trip(self):
        trajs = [
            trajectories.Trajectory(vid, np.arange(k, k + 3), np.arange(12, dtype=float).reshape(3, 4) + k, 4.0)
            for k, vid in enumerate(["a,b", 'say "hi"', "two\nlines"])
        ]
        back = parse_trajectories(serialize_trajectories(trajs), fps=4.0)
        assert [t.vehicle_id for t in back] == [t.vehicle_id for t in trajs]
        for t1, t2 in zip(trajs, back):
            assert np.array_equal(t1.frames, t2.frames) and np.array_equal(t1.boxes, t2.boxes)


class TestFillGaps:
    def test_linear_midpoint(self):
        traj = make_traj([(0, 0.0, 0.0), (2, 10.0, 0.0)], fps=1.0)
        filled, flags = fill_gaps(traj, max_gap=5)
        assert flags == []
        assert [p.frame for p in filled.points] == [0, 1, 2]
        assert filled.points[1].cx == pytest.approx(5.0)
        assert filled.points[1].timestamp == pytest.approx(1.0)

    def test_no_gaps_identity(self):
        traj = make_traj([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        filled, flags = fill_gaps(traj)
        assert flags == []
        assert [(p.frame, p.cx) for p in filled.points] == [(0, 0), (1, 1), (2, 2)]

    def test_gap_over_threshold_left_and_flagged(self):
        traj = make_traj([(0, 0, 0), (5, 10, 0)], fps=1.0)  # 4 missing frames
        filled, flags = fill_gaps(traj, max_gap=3)
        assert [p.frame for p in filled.points] == [0, 5]
        assert flags == [(0, 5)]

    def test_boundary_gap_exactly_max_gap_filled(self):
        traj = make_traj([(0, 0, 0), (4, 8, 0)], fps=1.0)  # 3 missing frames
        filled, flags = fill_gaps(traj, max_gap=3)
        assert flags == []
        assert [p.frame for p in filled.points] == [0, 1, 2, 3, 4]

    def test_matches_per_point_oracle_bitwise(self):
        rng = np.random.default_rng(4)
        steps = rng.choice([1, 1, 1, 2, 3, 5, 9, 20], size=60)
        frames = np.cumsum(steps) + 7
        corners = rng.normal(0, 50, (frames.size, 4))
        rows = [HEADER] + [f"{f},v,{','.join(map(repr, box))}\n" for f, box in zip(frames.tolist(), corners.tolist())]
        (traj,) = parse_trajectories("".join(rows), fps=30.0)
        filled, flags = fill_gaps(traj, max_gap=8)
        want_frames, want_rows, want_flags = fill_gaps_oracle(traj.frames, traj.boxes, 8)
        assert flags == want_flags and len(flags) > 0
        assert filled.frames.tolist() == want_frames
        assert filled.boxes.tolist() == [list(r) for r in want_rows]

    def test_idempotent(self):
        traj = make_traj([(0, 0, 0), (3, 6, 3), (10, 20, 10), (30, 40, 30)], fps=2.0)
        once, flags1 = fill_gaps(traj, max_gap=8)
        twice, flags2 = fill_gaps(once, max_gap=8)
        assert flags1 == flags2
        assert [(p.frame, p.x1, p.y1, p.x2, p.y2) for p in once.points] == [
            (p.frame, p.x1, p.y1, p.x2, p.y2) for p in twice.points
        ]


class TestSavitzkyGolay:
    def test_constant_preserved(self):
        out = smooth_savitzky_golay([5.0] * 7, window=5, order=2)
        np.testing.assert_allclose(out, 5.0, atol=1e-12)

    def test_linear_ramp_preserved(self):
        ramp = np.arange(0.0, 21.0)
        out = smooth_savitzky_golay(ramp, window=5, order=2)
        np.testing.assert_allclose(out, ramp, atol=1e-12)

    def test_cubic_matches_window_fit_oracle(self):
        t = np.arange(30, dtype=float)
        series = 0.02 * t**3 - 0.5 * t**2 + 3.0 * t - 7.0
        out = smooth_savitzky_golay(series, window=7, order=3)
        np.testing.assert_allclose(out, sg_window_fit_oracle(series, 7, 3), atol=1e-9)
        np.testing.assert_allclose(out, series, atol=1e-9)

    def test_noisy_series_matches_oracle(self):
        rng = np.random.default_rng(11)
        series = rng.normal(size=60)
        for window, order in [(5, 2), (7, 3), (21, 3)]:
            np.testing.assert_allclose(
                smooth_savitzky_golay(series, window, order),
                sg_window_fit_oracle(series, window, order),
                atol=1e-9,
            )

    @pytest.mark.parametrize("window,order", [(4, 2), (5, 5), (5, 6), (3, -1)])
    def test_bad_parameters(self, window, order):
        with pytest.raises(ParameterError):
            smooth_savitzky_golay(np.zeros(30), window, order)

    def test_short_series_rejected(self):
        with pytest.raises(ParameterError, match="shorter than window"):
            smooth_savitzky_golay(np.zeros(4), 5, 2)

    def test_polynomial_preserved_at_edges(self):
        # Degree <= order series are fixed points of the filter, edges included.
        t = np.arange(25, dtype=float)
        for window, order in [(5, 2), (7, 3), (21, 3)]:
            series = 1.0 + 2.0 * t + (0.3 * t**2 if order >= 2 else 0)
            out = smooth_savitzky_golay(series, window, order)
            np.testing.assert_allclose(out, series, atol=1e-9)


def kinematics(traj):
    """The single prepared run of a gap-free track, with no static filtering."""
    (track,) = prepare_tracks([traj], (1.0, 0.0), min_displacement_m=0.0)
    return track


class TestKinematics:
    def test_unit_step_speed(self):
        traj = make_traj([(i, i * 1.0, 0.0) for i in range(5)], fps=30.0)
        track = kinematics(traj)
        assert all(s == pytest.approx(30.0) for s in track.speed)

    def test_stationary_zero(self):
        traj = make_traj([(i, 2.0, 3.0) for i in range(4)], fps=10.0)
        track = kinematics(traj)
        assert all(s == 0.0 for s in track.speed)

    def test_three_four_five(self):
        traj = make_traj([(i, 3.0 * i, 4.0 * i) for i in range(4)], fps=1.0)
        track = kinematics(traj)
        assert all(s == pytest.approx(5.0) for s in track.speed)

    def test_first_sample_copies_second(self):
        traj = make_traj([(0, 0, 0), (1, 1, 0), (2, 3, 0)], fps=1.0)
        track = kinematics(traj)
        assert track.vx[0] == track.vx[1] == pytest.approx(1.0)
        assert track.vx[2] == pytest.approx(2.0)

    def test_uniform_translation_constant_speed(self):
        rng = np.random.default_rng(2)
        dx, dy = rng.uniform(-3, 3, 2)
        fps = 12.0
        traj = make_traj([(i, 100 + i * dx, 50 + i * dy) for i in range(40)], fps=fps)
        track = kinematics(traj)
        expected = math.hypot(dx, dy) * fps
        assert all(s == pytest.approx(expected) for s in track.speed)


class TestClassification:
    def test_car(self):
        assert classify_by_length(4.5, 8.0) is VehicleClass.CAR

    def test_truck(self):
        assert classify_by_length(16.0, 8.0) is VehicleClass.TRUCK

    def test_boundary_is_truck(self):
        assert classify_by_length(8.0, 8.0) is VehicleClass.TRUCK

    def test_non_positive_rejected(self):
        with pytest.raises(DataError):
            classify_by_length(0.0)

    def test_box_length_along_axis(self):
        traj = make_traj([(0, 0, 0), (1, 1, 0)], size=4.0)
        assert box_length_along_axis(traj, (1.0, 0.0)) == pytest.approx(4.0)
        # Perpendicular travel sees the y extent instead.
        assert box_length_along_axis(traj, (0.0, 1.0)) == pytest.approx(4.0)


class TestPreparation:
    def test_static_objects_dropped(self):
        moving = make_traj([(i, i * 1.0, 0) for i in range(5)], vid="m")
        parked = make_traj([(i, 0.05 * i, 0) for i in range(5)], vid="p")
        kept = drop_static_objects([moving, parked], min_displacement_m=2.0)
        assert [t.vehicle_id for t in kept] == ["m"]

    def test_long_gap_splits_runs(self):
        traj = make_traj([(0, 0, 0), (1, 25, 0), (30, 60, 0), (31, 85, 0)], fps=1.0)
        tracks = prepare_tracks([traj], (1, 0), max_gap=5, sg_window=3, sg_order=1, min_displacement_m=1.0)
        assert len(tracks) == 2
        assert all(t.vehicle_id == "v1" for t in tracks)
        assert list(tracks[0].frames) == [0, 1]
        assert list(tracks[1].frames) == [30, 31]

    def test_short_tracks_pass_unsmoothed(self):
        traj = make_traj([(i, 10.0 * i, 0) for i in range(4)], fps=1.0)
        tracks = prepare_tracks([traj], (1, 0), sg_window=21, sg_order=3, min_displacement_m=1.0)
        assert len(tracks) == 1
        np.testing.assert_allclose(tracks[0].x, [0, 10, 20, 30])

    def test_prepare_tracks_smoothing_matches_filter(self):
        rng = np.random.default_rng(5)
        pts = [(i, float(i + rng.normal(0, 0.1)), 0.0) for i in range(30)]
        traj = make_traj(pts, fps=1.0)
        (track,) = prepare_tracks([traj], (1, 0), sg_window=7, sg_order=2, min_displacement_m=0.0)
        expected = smooth_savitzky_golay([p.cx for p in traj.points], 7, 2)
        np.testing.assert_allclose(track.x, expected, atol=1e-12)
