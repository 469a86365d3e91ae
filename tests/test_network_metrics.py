import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsafety import cli
from netsafety.config import load_config
from netsafety.errors import DataError, ParameterError, SchemaError
from netsafety.network_metrics import (
    _single_linkage,
    ClusterConfig,
    CongestionEvent,
    FrameClusterTTC,
    MetricsTable,
    SampleTable,
    SegmentConfig,
    TrtConfig,
    VehicleCluster,
    cluster_frame,
    cluster_ttc,
    compute_interval_metrics,
    detect_congestion_events,
    ivvr,
    metrics_header,
    ntc,
    osr,
    ovvr,
    read_metrics_csv,
    tci,
    trt,
    ttc_cv,
    write_metrics_csv,
)
from netsafety.trajectories import VehicleClass

from oracles import (
    MetricsRow,
    interval_metrics_oracle,
    metrics_rows,
    metrics_table_of,
    ivvr_oracle,
    osr_oracle,
    ovvr_oracle,
    pairwise_ttc_oracle,
    prepared_run,
    prepared_tracks_of,
    sample_table_oracle,
    single_linkage_bfs_oracle,
    tci_oracle,
    ttc_cv_oracle,
)


def with_warnings(fn, *args, **kw):
    """``fn(*args, **kw)`` and the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kw)
    return result, [str(w.message) for w in caught]


def seg(**kw):
    defaults = dict(segment_id="S1", lane_count=2, length_m=100.0, speed_limit=25.0)
    defaults.update(kw)
    return SegmentConfig(**defaults)


def track(vid, frames, xs, ys=None, fps=1.0, vclass=VehicleClass.CAR, length=4.5):
    frames = np.asarray(frames, dtype=int)
    xs = np.asarray(xs, dtype=float)
    ys = np.zeros_like(xs) if ys is None else np.asarray(ys, dtype=float)
    vx = np.empty_like(xs)
    vy = np.empty_like(ys)
    dt = np.diff(frames) / fps
    vx[1:] = np.diff(xs) / dt
    vy[1:] = np.diff(ys) / dt
    vx[0], vy[0] = vx[1], vy[1]
    return prepared_run(vid, vclass, length, frames, frames / fps, xs, ys, vx, vy)


class TestClusterFrame:
    def test_threshold_split(self):
        clusters = cluster_frame([("a", (0, 0)), ("b", (10, 0)), ("c", (50, 0))], 15)
        assert [sorted(c.members) for c in clusters] == [["a", "b"], ["c"]]

    def test_transitive_chaining(self):
        clusters = cluster_frame([("a", (0, 0)), ("b", (10, 0)), ("c", (20, 0))], 12)
        assert [sorted(c.members) for c in clusters] == [["a", "b", "c"]]

    def test_zero_threshold_singletons(self):
        clusters = cluster_frame([("a", (0, 0)), ("b", (10, 0)), ("c", (20, 0))], 0)
        assert [sorted(c.members) for c in clusters] == [["a"], ["b"], ["c"]]

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = rng.integers(1, 15)
            ids = [f"v{i}" for i in range(n)]
            pts = rng.uniform(0, 200, (n, 2))
            clusters = cluster_frame(list(zip(ids, map(tuple, pts))), float(rng.uniform(0, 60)))
            seen = [m for c in clusters for m in c.members]
            assert sorted(seen) == sorted(ids)  # disjoint cover

    def test_centroid_and_velocity(self):
        clusters = cluster_frame(
            [("a", (0, 0)), ("b", (10, 0))], 15, speeds={"a": 20.0, "b": 30.0}
        )
        assert clusters[0].centroid == (5.0, 0.0)
        assert clusters[0].velocity == pytest.approx(25.0)


class TestClusterTTC:
    def test_direct_arithmetic(self):
        clusters = [
            VehicleCluster(frozenset(["f"]), (0.0, 0.0), 30.0),
            VehicleCluster(frozenset(["l"]), (90.0, 0.0), 20.0),
        ]
        result = cluster_ttc(clusters, (1.0, 0.0))
        assert result.cttc_values == [pytest.approx(9.0)]
        assert result.rho == 1.0

    def test_single_cluster_no_values(self):
        clusters = [VehicleCluster(frozenset(["a", "b"]), (0.0, 0.0), 10.0)]
        assert cluster_ttc(clusters, (1.0, 0.0)).cttc_values == []

    def test_equal_speed_pair_excluded(self):
        clusters = [
            VehicleCluster(frozenset(["a"]), (0.0, 0.0), 20.0),
            VehicleCluster(frozenset(["b"]), (50.0, 0.0), 20.0),
        ]
        assert cluster_ttc(clusters, (1.0, 0.0)).cttc_values == []

    def test_nearest_slower_leader_chosen(self):
        clusters = [
            VehicleCluster(frozenset(["f"]), (0.0, 0.0), 30.0),
            VehicleCluster(frozenset(["fast"]), (40.0, 0.0), 40.0),  # faster: skipped
            VehicleCluster(frozenset(["slow"]), (100.0, 0.0), 20.0),
        ]
        result = cluster_ttc(clusters, (1.0, 0.0))
        # follower -> slow at 100 m, and fast -> slow as well
        assert sorted(round(v, 6) for v in result.cttc_values) == [3.0, 10.0]

    def test_speed_scaling_inverts_ttc(self):
        # Fixed positions, all speeds scaled by k: cluster TTCs scale by 1/k.
        rng = np.random.default_rng(23)
        pos = np.sort(rng.uniform(0, 300, 6))
        speeds = rng.uniform(10, 30, 6)
        k = 2.5

        def values(scale):
            clusters = [
                VehicleCluster(frozenset([f"v{i}"]), (float(pos[i]), 0.0), float(scale * speeds[i]))
                for i in range(6)
            ]
            return cluster_ttc(clusters, (1.0, 0.0)).cttc_values

        base = values(1.0)
        scaled = values(k)
        assert len(base) == len(scaled)
        np.testing.assert_allclose(sorted(scaled), np.array(sorted(base)) / k, rtol=1e-12)

    def test_zero_threshold_matches_pairwise_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            pos = np.sort(rng.uniform(0, 400, n)) + np.arange(n) * 1e-3
            speeds = rng.uniform(15, 35, n)
            ids = [f"v{i}" for i in range(n)]
            clusters = cluster_frame(
                [(ids[i], (pos[i], 0.0)) for i in range(n)], 0.0,
                speeds={ids[i]: speeds[i] for i in range(n)},
            )
            got = sorted(cluster_ttc(clusters, (1.0, 0.0)).cttc_values)
            expected = sorted(pairwise_ttc_oracle(list(pos), list(speeds)).values())
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g == e  # exact equality: same formula on the same floats


class TestTtcCv:
    def test_hand_value(self):
        frame = FrameClusterTTC(0, [4.0, 6.0], n_vehicles=6, n_clusters=2)
        # sample std sqrt(2), mean 5, rho 3
        assert ttc_cv([frame]) == pytest.approx(0.8485281374238569, rel=1e-12)

    def test_zero_dispersion(self):
        frame = FrameClusterTTC(0, [5.0, 5.0], n_vehicles=4, n_clusters=2)
        assert ttc_cv([frame]) == 0.0

    def test_mean_over_frames(self):
        f1 = FrameClusterTTC(0, [4.0, 6.0], 6, 2)
        f2 = FrameClusterTTC(1, [5.0, 5.0], 4, 2)
        assert ttc_cv([f1, f2]) == pytest.approx(ttc_cv([f1]) / 2)

    def test_no_qualifying_frame_absent(self):
        assert ttc_cv([FrameClusterTTC(0, [3.0], 2, 2)]) is None

    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            frames = []
            for f in range(int(rng.integers(0, 6))):
                values = rng.uniform(0.5, 30.0, int(rng.integers(0, 5))).tolist()
                n_clusters = len(values) + int(rng.integers(1, 3))
                frames.append(FrameClusterTTC(f, values, n_clusters + int(rng.integers(0, 6)), n_clusters))
            want = ttc_cv_oracle(frames)
            assert ttc_cv(frames) == (None if want is None else pytest.approx(want, rel=1e-12, abs=0.0))


class TestSpeedMetrics:
    def test_ivvr_direct(self):
        assert ivvr({"a": [30.0, 20.0, 25.0]}) == pytest.approx(0.4)

    def test_ivvr_constant_fleet(self):
        assert ivvr({"a": [20.0, 20.0], "b": [25.0, 25.0]}) == 0.0

    def test_ivvr_mean_of_terms(self):
        assert ivvr({"a": [30.0, 20.0, 25.0], "b": [10.0, 10.0]}) == pytest.approx(0.2)

    def test_ovvr_homogeneous(self):
        assert ovvr({"a": [20.0], "b": [20.0]}) == 0.0

    def test_ovvr_direct(self):
        assert ovvr({"a": [20.0], "b": [30.0]}) == pytest.approx(0.2)

    def test_ovvr_three_vehicles(self):
        assert ovvr({"a": [10.0], "b": [20.0], "c": [30.0]}) == pytest.approx(1 / 3)

    def test_osr_strict_boundary(self):
        rates = osr({"a": 30.0, "b": 20.0, "c": 25.0}, speed_limit=25.0)
        assert rates[1.0] == pytest.approx(1 / 3)

    def test_osr_all_below(self):
        assert osr({"a": 20.0, "b": 24.0}, 25.0)[1.0] == 0.0

    def test_osr_threshold_family(self):
        rates = osr({"a": 30.0, "b": 31.0}, 25.0, thresholds=[1.0, 1.2])
        assert rates == {1.0: pytest.approx(1.0), 1.2: pytest.approx(0.5)}

    def test_osr_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        speeds = {f"v{i}": float(rng.uniform(10, 40)) for i in range(25)}
        thetas = [1.0, 1.05, 1.1, 1.3, 1.5]
        rates = osr(speeds, 25.0, thresholds=thetas)
        values = [rates[t] for t in thetas]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_relabeling_invariance(self):
        speeds = {"a": [22.0, 28.0], "b": [30.0, 26.0], "c": [18.0, 19.0]}
        renamed = {"x": speeds["a"], "y": speeds["b"], "z": speeds["c"]}
        assert ivvr(speeds) == ivvr(renamed)
        assert ovvr(speeds) == ovvr(renamed)
        assert osr({k: max(v) for k, v in speeds.items()}, 25.0) == osr(
            {k: max(v) for k, v in renamed.items()}, 25.0
        )

    def test_speed_scaling_invariance(self):
        speeds = {"a": [22.0, 28.0], "b": [30.0, 26.0]}
        scaled = {k: [2.0 * s for s in v] for k, v in speeds.items()}
        assert ivvr(scaled) == pytest.approx(ivvr(speeds))
        assert ovvr(scaled) == pytest.approx(ovvr(speeds))

    def test_match_per_vehicle_oracles(self):
        # Vehicles with no sample, one sample, or standing still (excluded from ivvr with a warning).
        rng = np.random.default_rng(6)
        for _ in range(300):
            speeds = {f"v{i}": rng.uniform(0.0, 40.0, int(rng.integers(0, 12))) * (rng.random() < 0.8)
                      for i in range(int(rng.integers(0, 7)))}
            (got, got_warnings), (want, want_warnings) = with_warnings(ivvr, speeds), with_warnings(ivvr_oracle, speeds)
            assert got_warnings == want_warnings
            for a, b in ((got, want), (ovvr(speeds), ovvr_oracle(speeds))):
                assert a == (None if b is None else pytest.approx(b, rel=1e-12, abs=0.0))
            peaks = {v: float(s.max()) for v, s in speeds.items() if s.size}
            if peaks:
                assert osr(peaks, 25.0, [1.0, 1.1, 1.5]) == osr_oracle(peaks, 25.0, [1.0, 1.1, 1.5])
            counts = {"Car": int(rng.integers(0, 9)), "Truck": int(rng.integers(1, 9)), "Bus": int(rng.integers(0, 3))}
            assert tci(counts) == tci_oracle(counts)  # exact: sums of integers


class TestTci:
    def test_balanced(self):
        value, shares = tci({"Car": 10, "Truck": 10})
        assert value == pytest.approx(1.0)
        assert shares == {"Car": 0.5, "Truck": 0.5}

    def test_fully_unbalanced(self):
        value, _ = tci({"Car": 20, "Truck": 0})
        assert value == pytest.approx(0.5)

    def test_two_class_identity(self):
        value, shares = tci({"Car": 1, "Truck": 3})
        assert value == pytest.approx(0.8)
        f1, f2 = shares["Car"], shares["Truck"]
        assert value == pytest.approx(1.0 / (2.0 * (1.0 - 2.0 * f1 * f2)))

    def test_identity_over_random_counts(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            n1, n2 = int(rng.integers(0, 500)), int(rng.integers(0, 500))
            if n1 + n2 == 0:
                continue
            value, shares = tci({"Car": n1, "Truck": n2})
            f1, f2 = shares["Car"], shares["Truck"]
            assert abs(value - 1.0 / (2.0 * (1.0 - 2.0 * f1 * f2))) <= 1e-12

    def test_zero_total_undefined(self):
        with pytest.raises(DataError):
            tci({"Car": 0, "Truck": 0})


class TestNtc:
    def test_two_cars(self):
        assert ntc([9.0] * 5, lane_count=2, length_m=100.0) == pytest.approx(0.045)

    def test_car_plus_truck(self):
        assert ntc([20.5] * 3, lane_count=3, length_m=100.0) == pytest.approx(20.5 / 300)

    def test_empty_road(self):
        assert ntc([0.0, 0.0], lane_count=2, length_m=100.0) == 0.0


class TestCongestion:
    def test_no_events(self):
        series = [(float(t), 20.0) for t in range(0, 100, 5)]
        assert detect_congestion_events(series, free_flow=20.0) == []

    def test_single_dip(self):
        series = [(float(t), 5.0 if 100 <= t < 160 else 20.0) for t in range(0, 300, 5)]
        events = detect_congestion_events(series, free_flow=20.0, theta=0.5, t_min=30.0)
        assert [(e.t_begin, e.t_recover, e.censored) for e in events] == [(100.0, 160.0, False)]

    def test_two_dips_ordered(self):
        def v(t):
            return 3.0 if (50 <= t < 90) or (200 <= t < 260) else 20.0

        series = [(float(t), v(t)) for t in range(0, 400, 5)]
        events = detect_congestion_events(series, free_flow=20.0, theta=0.5, t_min=30.0)
        assert [(e.t_begin, e.t_recover) for e in events] == [(50.0, 90.0), (200.0, 260.0)]

    def test_short_dip_ignored(self):
        series = [(float(t), 5.0 if 100 <= t < 110 else 20.0) for t in range(0, 200, 5)]
        assert detect_congestion_events(series, 20.0, t_min=30.0) == []

    def test_censored_at_end(self):
        series = [(float(t), 5.0 if t >= 100 else 20.0) for t in range(0, 200, 5)]
        events = detect_congestion_events(series, 20.0, t_min=30.0)
        assert len(events) == 1 and events[0].censored

    def test_trt_mean(self):
        events = [CongestionEvent(0.0, 30.0), CongestionEvent(100.0, 160.0)]
        assert trt(events) == pytest.approx(45.0)

    def test_trt_instant_recovery(self):
        assert trt([CongestionEvent(10.0, 10.0)]) == 0.0

    def test_trt_empty_absent(self):
        assert trt([]) is None


class TestConfigs:
    def test_travel_axis_normalized(self):
        s = seg(travel_axis=(3.0, 4.0))
        assert s.travel_axis == (3.0, 4.0)
        assert s.unit_axis == pytest.approx((0.6, 0.8))

    def test_bad_thresholds(self):
        with pytest.raises(ParameterError):
            seg(osr_thresholds=(1.2, 1.0))
        with pytest.raises(ParameterError):
            seg(osr_thresholds=(0.5,))

    def test_bad_cluster_config(self):
        with pytest.raises(ParameterError):
            ClusterConfig(distance_threshold=-1)

    @pytest.mark.parametrize("values", [{"theta": 1.0}, {"theta": 0.0}, {"t_min_seconds": 0.0}, {"free_flow": 0.0}])
    def test_bad_trt_config(self, values):
        with pytest.raises(ParameterError, match=r"^trt needs 0 < theta < 1, "):
            TrtConfig(**values)

    def test_congestion_events_check_theta_and_t_min_as_trt_config_does(self):
        for values in ({"theta": 2.0}, {"t_min": -5.0}):
            with pytest.raises(ParameterError, match=r"^trt needs "):
                detect_congestion_events([(0.0, 1.0)], 20.0, **values)


class TestIntervalExtraction:
    def test_single_vehicle_constant_speed(self):
        tracks = prepared_tracks_of([track("a", range(20), np.arange(20) * 2.0)])
        rows = metrics_rows(compute_interval_metrics(tracks, seg(), ClusterConfig(10.0), 1.0, [(0.0, 20.0)]))
        row = rows[0]
        assert row.n_vehicles == 1
        assert row.ivvr == pytest.approx(0.0)
        assert row.ovvr == pytest.approx(0.0)
        assert row.ttc_cv is None  # one cluster, no dispersion information
        assert row.tci == pytest.approx(0.5)
        assert row.coverage == pytest.approx(1.0)

    def test_empty_input_gives_absent_rows(self):
        empty = prepared_tracks_of([])
        rows = metrics_rows(compute_interval_metrics(empty, seg(), ClusterConfig(), 1.0, [(0.0, 10.0)]))
        row = rows[0]
        assert row.n_vehicles == 0 and row.coverage == 0.0
        assert row.ivvr is None and row.ntc is None and row.ttc_cv is None

    def test_ntc_includes_empty_frames(self):
        # Car a on frames 0-9, car b on 15-19; frames 10-14 are empty road (zeros).
        tracks = prepared_tracks_of([
            track("a", range(10), np.arange(10) * 2.0, length=4.5),
            track("b", range(15, 20), 50 + np.arange(5) * 2.0, length=4.5),
        ])
        rows = metrics_rows(compute_interval_metrics(tracks, seg(), ClusterConfig(5.0), 1.0, [(0.0, 20.0)]))
        expected = (10 * 4.5 + 5 * 0.0 + 5 * 4.5) / 20 / (2 * 100.0)
        assert rows[0].ntc == pytest.approx(expected)

    def test_coverage_partial_window(self):
        tracks = prepared_tracks_of([track("a", range(10), np.arange(10) * 2.0)])
        rows = metrics_rows(compute_interval_metrics(tracks, seg(), ClusterConfig(), 1.0, [(0.0, 40.0)]))
        assert rows[0].coverage == pytest.approx(0.25)

    def test_cluster_pipeline_ttc_cv_present_with_three_platoons(self):
        tracks = prepared_tracks_of([
            track("a", range(10), 0 + np.arange(10) * 30.0),
            track("b", range(10), 120 + np.arange(10) * 24.0),
            track("c", range(10), 260 + np.arange(10) * 18.0),
        ])
        rows = metrics_rows(compute_interval_metrics(
            tracks, seg(length_m=600.0), ClusterConfig(10.0), 1.0, [(0.0, 10.0)]
        ))
        assert rows[0].ttc_cv is not None and rows[0].ttc_cv > 0

    def test_e_ttc_matches_hand_value(self):
        # Two vehicles, constant speeds 30 and 20, initial gap 100.
        tracks = prepared_tracks_of([
            track("f", range(5), np.arange(5) * 30.0),
            track("l", range(5), 100 + np.arange(5) * 20.0),
        ])
        rows = metrics_rows(
            compute_interval_metrics(tracks, seg(length_m=300.0), ClusterConfig(5.0), 1.0, [(0.0, 5.0)]))
        gaps = [100 - 10 * i for i in range(5)]
        assert rows[0].e_ttc == pytest.approx(np.mean([g / 10.0 for g in gaps]))


class TestCollisionPointHook:
    def test_fixed_point_ttc(self):
        clusters = [
            VehicleCluster(frozenset(["a"]), (0.0, 0.0), 20.0),
            VehicleCluster(frozenset(["b"]), (60.0, 0.0), 10.0),
            VehicleCluster(frozenset(["c"]), (150.0, 0.0), -5.0),  # receding: no value
        ]
        result = cluster_ttc(clusters, (1.0, 0.0), collision_point=(100.0, 0.0))
        assert sorted(result.cttc_values) == [pytest.approx(4.0), pytest.approx(5.0)]

    def test_point_behind_cluster_skipped(self):
        clusters = [VehicleCluster(frozenset(["a"]), (120.0, 0.0), 20.0)]
        result = cluster_ttc(clusters, (1.0, 0.0), collision_point=(100.0, 0.0))
        assert result.cttc_values == []

    def test_interval_extraction_uses_hook(self):
        tracks = prepared_tracks_of([
            track("a", range(5), np.arange(5) * 20.0),
            track("b", range(5), 40 + np.arange(5) * 10.0),
        ])
        s = seg(length_m=600.0, collision_point=(500.0, 0.0))
        rows = metrics_rows(compute_interval_metrics(tracks, s, ClusterConfig(5.0), 1.0, [(0.0, 5.0)]))
        assert rows[0].ttc_cv is not None  # both approach the point -> two values per frame


class TestMetricsCsv:
    def test_round_trip(self):
        rows = [
            MetricsRow(
                segment_id="S1", t_start=0.0, t_end=600.0, ttc_cv=1.25, ivvr=0.1,
                ovvr=0.2, osr={1.0: 0.3, 1.2: 0.1}, tci=0.9,
                f_truck=0.25, ntc=0.04, trt=None,
                n_vehicles=12, coverage=1.0, e_ttc=8.5,
            ),
            MetricsRow(segment_id="S1", t_start=600.0, t_end=1200.0),
        ]
        text = write_metrics_csv(metrics_table_of(rows, [1.0, 1.2]))
        header = text.splitlines()[0]
        assert header == ",".join(metrics_header([1.0, 1.2]))
        parsed = metrics_rows(read_metrics_csv(text))
        assert parsed[0].osr == {1.0: 0.3, 1.2: 0.1}
        assert parsed[0].ttc_cv == 1.25
        assert parsed[0].f_truck == 0.25
        assert parsed[0].trt is None
        assert parsed[1].ivvr is None and parsed[1].n_vehicles == 0

    def test_absent_serialized_empty(self):
        row = MetricsRow(segment_id="S1", t_start=0.0, t_end=600.0)
        line = write_metrics_csv(metrics_table_of([row], [1.0])).splitlines()[1]
        assert line.split(",")[3] == ""  # ttc_cv empty, not zero

    @pytest.mark.parametrize("text, message", [
        ("interval_start,interval_end,segment_id\n0,25\n", "line 2: expected 3 fields, got 2"),
        ("segment_id,interval_start,interval_end,ivvr\nS1,0,25\n", "line 2: expected 4 fields, got 3"),
    ], ids=["segment_id_missing", "metric_missing"])
    def test_short_row_is_schema_error(self, text, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            read_metrics_csv(text)

    def test_two_columns_of_one_threshold_are_a_schema_error(self):
        # The last of osr_1 and osr_1.0 used to win silently.
        text = "segment_id,interval_start,interval_end,osr_1,osr_1.0\nS1,0,25,0.25,0.5\n"
        with pytest.raises(SchemaError, match=r"^line 1: columns 'osr_1' and 'osr_1\.0' name one osr threshold$"):
            read_metrics_csv(text)

    def test_two_equal_column_names_keep_the_first(self):
        table = read_metrics_csv("segment_id,interval_start,interval_end,osr_1.0,osr_1.0\nS1,0,25,0.25,0.5\n")
        assert table.thresholds == (1.0,) and table.columns["osr_1.0"].tolist() == [0.25]

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(data=st.data())
    def test_written_table_reads_back_column_for_column(self, data):
        # Random thresholds, absent cells (nan) and segment ids, a carriage return among their characters: written
        # unquoted, it gave a cell the reader refuses.
        thresholds = data.draw(st.lists(st.floats(0.5, 5.0), max_size=4, unique=True))
        n = data.draw(st.integers(0, 6))
        segment_id = st.text(st.sampled_from('S1 ,"\n\r\tx\u00e9'), max_size=4)  # some need quoting
        ids = data.draw(st.lists(segment_id, min_size=n, max_size=n))
        number = st.floats(allow_nan=False, allow_infinity=False)
        cells = st.lists(st.none() | number, min_size=n, max_size=n).map(
            lambda values: [np.nan if v is None else v for v in values])
        columns = {name: data.draw(cells) for name in metrics_header(thresholds)[3:] if name != "n_vehicles"}
        table = MetricsTable.build(ids, thresholds, **columns,
                                   interval_start=data.draw(st.lists(number, min_size=n, max_size=n)),
                                   interval_end=data.draw(st.lists(number, min_size=n, max_size=n)),
                                   n_vehicles=data.draw(st.lists(st.integers(0, 2**53), min_size=n, max_size=n)))
        back = read_metrics_csv(write_metrics_csv(table))
        assert back.segment_id.tolist() == ids and back.thresholds == table.thresholds
        assert list(back.columns) == list(table.columns)
        for name, column in table.columns.items():
            assert back.columns[name].dtype == column.dtype and back.columns[name].tobytes() == column.tobytes(), name


def assert_rows_match(got, want, rel=1e-12):
    """Same interval rows: counts, coverage and absence exactly, numbers within ``rel``.

    ``got`` is a MetricsTable, ``want`` MetricsRow rows."""
    got = metrics_rows(got)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        where = (g.segment_id, g.t_start, g.t_end)
        assert (g.segment_id, g.t_start, g.t_end, g.n_vehicles, g.coverage) == (
            w.segment_id, w.t_start, w.t_end, w.n_vehicles, w.coverage), where
        for name in ("ttc_cv", "ivvr", "ovvr", "tci", "f_truck", "ntc", "trt", "e_ttc"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a is None) == (b is None), (where, name, a, b)
            if b is not None:
                assert a == pytest.approx(b, rel=rel, abs=0.0), (where, name)
        a, b = g.osr, w.osr
        assert a.keys() == b.keys() and all(a[k] == pytest.approx(b[k], rel=rel, abs=0.0) for k in b), "osr"


def table_fields(table) -> dict:
    """A dataclass's fields, each array as its dtype, shape and bytes."""
    values = {f.name: getattr(table, f.name) for f in dataclasses.fields(table)}
    return {k: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for k, v in values.items()}


def random_scene(rng, fps=8.0, n_frames=96, gap=(40, 46)):
    """Vehicles entering at random frames, some twinned in another lane (co-located at
    equal speed), with no frames in ``gap``. Positions are dyadic rationals, so equal
    speeds and crossings are exact. Three fixed vehicles make the order of co-located
    clusters matter: at frame 16, "c0" and "c1" are both at x = 24 (at 12 and 8 m/s, two
    lanes apart) and "c2" closes on them from x = 12 at 16 m/s."""
    fixed = [(0, 40, 0.0, 12.0, 0.0, 0.0), (0, 40, 8.0, 8.0, 0.0, 7.0), (0, 40, -20.0, 16.0, 0.0, 3.5)]
    tracks, twin = [], None
    for k in range(19):
        if k >= 16:
            start, stop, x0, v, a, lane = fixed[k - 16]
        elif twin is not None and k % 3 == 2:
            start, stop, x0, v, a = twin  # same motion one lane over
        else:
            start = int(rng.integers(0, n_frames - 12))
            stop = int(rng.integers(start + 8, n_frames + 1))
            x0 = float(rng.integers(0, 60)) * 2.0
            v = float(rng.choice([8.0, 10.0, 12.0, 12.0, 16.0]))
            a = float(rng.choice([0.0, 0.0, 0.5, -0.5]))
        if k < 16:
            twin = (start, stop, x0, v, a)
            lane = float(rng.integers(0, 3)) * 3.5
        truck = rng.random() < 0.3
        frames = np.arange(start, stop)
        frames = frames[(frames < gap[0]) | (frames >= gap[1])]
        for run in (frames[frames < gap[0]], frames[frames >= gap[1]]):
            if run.size < 2:
                continue
            t = (run - start) / fps
            tracks.append(track(
                f"v{k:02d}" if k < 16 else f"c{k - 16}", run, x0 + v * t + 0.5 * a * t * t, np.full(run.size, lane), fps=fps,
                vclass=VehicleClass.TRUCK if truck else VehicleClass.CAR, length=12.0 if truck else 4.5,
            ))
    return prepared_tracks_of(tracks)


class TestFrameBatchedKernel:
    """The array kernels against the per-frame loop they replaced (``tests/oracles.py``)."""

    WINDOWS = [(0.0, 2.5), (2.5, 5.0), (1.0, 9.0), (4.875, 12.5), (11.0, 14.0)]

    @pytest.mark.parametrize("threshold", [0.0, 2.0, 30.0, 200.0])
    @pytest.mark.parametrize("rate", [1.0, 3.0])  # strides 8 and 3 frames; 3 divides no window
    def test_random_scenes_match_per_frame_oracle(self, threshold, rate):
        segments = [
            seg(length_m=400.0),
            seg(length_m=400.0, travel_axis=(3.0, 4.0)),
            seg(length_m=400.0, collision_point=(150.0, 3.5)),
        ]
        for seed in range(4):
            tracks = random_scene(np.random.default_rng(seed))
            for s in segments:
                args = (tracks, s, ClusterConfig(threshold, rate), 8.0, self.WINDOWS)
                args = (*args, TrtConfig(t_min_seconds=0.5, free_flow=24.0))
                assert_rows_match(compute_interval_metrics(*args), interval_metrics_oracle(*args))

    def test_window_order_overlap_and_outside_the_data(self):
        # Out of time order, overlapping, before the first frame (t < 0 included) and after the last
        # (frame 95); rows follow the given windows.
        windows = [(11.0, 14.0), (20.0, 30.0), (0.0, 2.5), (-6.0, -1.0), (4.875, 12.5), (-1.0, 0.5), (1.0, 9.0),
                   (2.5, 5.0), (12.0, 12.125), (0.0, 2.5)]
        for seed in range(3):
            tracks = random_scene(np.random.default_rng(seed))
            for rate in (1.0, 3.0):
                trt_cfg = TrtConfig(t_min_seconds=0.5)
                args = (tracks, seg(length_m=400.0), ClusterConfig(30.0, rate), 8.0, windows, trt_cfg)
                table = compute_interval_metrics(*args)
                assert_rows_match(table, interval_metrics_oracle(*args))
                rows = metrics_rows(table)
                assert [(r.t_start, r.t_end) for r in rows] == windows
                assert [r.coverage for r in rows][1:4:2] == [0.0, 0.0] and rows[5].coverage == 4 / 12
                assert all(r.ntc is None and r.ivvr is None and r.n_vehicles == 0 for r in rows[1:4:2])

    def test_lone_and_standing_vehicles(self):
        # "solo" is alone in the first window; "parked" stands still, so each window it is seen in
        # at least twice excludes it from ivvr with one warning.
        fps = 4.0
        tracks = prepared_tracks_of([
            track("solo", range(0, 12), 5.0 + np.arange(12) * 3.0, fps=fps),
            track("parked", range(14, 40), np.full(26, 60.0), np.full(26, 3.5), fps=fps, length=9.0,
                  vclass=VehicleClass.TRUCK),
            track("b", range(16, 40), np.arange(24) * 2.5, fps=fps),
            track("c", range(18, 40), 30.0 + np.arange(22) * 2.0, np.full(22, 7.0), fps=fps),
        ])
        windows = [(0.0, 2.0), (3.0, 6.0), (2.0, 3.75), (3.75, 10.0), (5.0, 7.0)]
        expected = ["ivvr: excluded vehicles with zero mean speed: ['parked']"] * 3  # not in (0, 2) or (2, 3.75)
        for threshold in (0.0, 10.0, 100.0):
            trt_cfg = TrtConfig(t_min_seconds=0.5)
            args = (tracks, seg(length_m=200.0), ClusterConfig(threshold, 1.0), fps, windows, trt_cfg)
            got, got_warnings = with_warnings(compute_interval_metrics, *args)
            want, want_warnings = with_warnings(interval_metrics_oracle, *args)
            assert got_warnings == want_warnings == expected
            assert_rows_match(got, want)
            got = metrics_rows(got)
            assert got[0].n_vehicles == 1 and got[0].ivvr == 0.0 and got[0].tci == 0.5

    def test_empty_window_raises_naming_the_first(self):
        tracks = prepared_tracks_of([track("a", range(20), np.arange(20) * 2.0)])
        windows = [(0.0, 5.0), (7.0, 7.0), (9.0, 8.0)]
        with pytest.raises(ParameterError, match=r"^empty window \[7\.0, 7\.0\)$"):
            compute_interval_metrics(tracks, seg(), ClusterConfig(), 1.0, windows)

    def test_window_between_frame_instants_raises(self):
        tracks = prepared_tracks_of([track("a", range(20), np.arange(20) * 2.0)])
        with pytest.raises(ParameterError, match=r"^window \[2\.25, 2\.75\) holds no frame at 1\.0 fps$"):
            compute_interval_metrics(tracks, seg(), ClusterConfig(), 1.0, [(0.0, 5.0), (2.25, 2.75)])

    def test_golden_bundle_matches_per_frame_oracle(self, tmp_path):
        spec = Path(__file__).resolve().parent / "golden" / "spec.json"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path)]) == 0
        cfg = load_config(tmp_path / "config.json")
        for s in cfg.segments:
            tracks = cli._prepare_segment_tracks(cfg, s, cfg.trajectory_paths[s.segment_id])
            # The table's vehicles are coded as joining its runs one at a time would code them.
            assert table_fields(tracks) == table_fields(prepared_tracks_of(tracks))
            assert table_fields(SampleTable.build(tracks, s.unit_axis)) == table_fields(
                sample_table_oracle(tracks, s.unit_axis))
            windows = cli._windows_for(cfg, tracks)
            for cluster in (cfg.cluster, ClusterConfig(0.0, 1.0), ClusterConfig(200.0, 0.3)):
                args = (tracks, s, cluster, cfg.fps, windows, cfg.trt)
                assert_rows_match(compute_interval_metrics(*args), interval_metrics_oracle(*args))

    def test_batched_linkage_partitions_like_bfs(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            sizes = rng.integers(0, 14, int(rng.integers(1, 5)))
            frame = np.repeat(np.arange(sizes.size), sizes)
            perm = rng.permutation(frame.size)  # rows of a frame need not be adjacent
            frame = frame[perm]
            x = rng.integers(0, 30, frame.size) * 1.5  # coarse grid: ties and duplicate points
            y = rng.integers(0, 4, frame.size) * 3.5
            threshold = float(rng.choice([0.0, 1.5, 3.5, 6.0, 200.0]))
            labels = _single_linkage(frame, x, y, threshold)
            for f in range(sizes.size):
                rows = np.flatnonzero(frame == f)
                got = {frozenset(rows[labels[rows] == lbl].tolist()) for lbl in set(labels[rows].tolist())}
                parts = single_linkage_bfs_oracle(x[rows].tolist(), y[rows].tolist(), threshold)
                assert got == {frozenset(rows[list(p)].tolist()) for p in parts}
                assert all(labels[r] == min(p) for p in got for r in p)

    def test_zero_threshold_pipeline_matches_pairwise_oracle(self):
        # d_C = 0 with distinct positions: every vehicle is its own cluster (rho = 1), so
        # the interval TTC-CV is the per-frame CV of pairwise TTCs, averaged over frames.
        rng = np.random.default_rng(9)
        fps = 2.0
        tracks = []
        for k in range(9):
            start = int(rng.integers(0, 10))
            frames = np.arange(start, start + int(rng.integers(6, 24)))
            xs = k * 35.0 + rng.uniform(10, 30) * (frames - start) / fps + rng.normal(0, 0.4, frames.size)
            tracks.append(track(f"v{k}", frames, xs, fps=fps))
        windows = [(0.0, 5.0), (5.0, 9.0), (2.0, 17.0)]
        rows = metrics_rows(compute_interval_metrics(
            prepared_tracks_of(tracks), seg(length_m=900.0), ClusterConfig(0.0, 1.0), fps, windows))
        for (t0, t1), row in zip(windows, rows):
            per_frame = []
            for f in range(int(t0 * fps), int(t1 * fps)):
                at = [(float(t.x[i]), float(t.vx[i])) for t in tracks for i in np.flatnonzero(t.frames == f)]
                pos = [p for p, _ in at]
                assert len(set(pos)) == len(pos)
                values = list(pairwise_ttc_oracle(pos, [v for _, v in at]).values())
                if len(values) >= 2:
                    per_frame.append(np.std(values, ddof=1) / np.mean(values))
            assert per_frame
            assert row.ttc_cv == pytest.approx(float(np.mean(per_frame)), rel=1e-12, abs=0.0)
