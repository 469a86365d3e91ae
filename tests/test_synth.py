import numpy as np
import pytest

from netsafety.association import metric_value
from netsafety.crashes import parse_crashes
from netsafety.errors import ParameterError
from netsafety.geo import TangentPlane
from netsafety.network_metrics import ClusterConfig, compute_interval_metrics
from netsafety.stats import pearson
from netsafety.synth import (
    ScenarioSpec,
    crash_records_csv,
    generate_crash_counts,
    generate_trajectories,
    identity_keypoints_json,
)
from netsafety.trajectories import parse_trajectories, prepare_tracks


def small_spec(**kw):
    defaults = dict(seed=0, n_segments=1, n_intervals=8, interval_seconds=20.0, fps=4.0)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def extract_metrics(spec, csvs, cluster=ClusterConfig(20.0)):
    rows = []
    for seg in spec.segment_configs():
        tracks = prepare_tracks(parse_trajectories(csvs[seg.segment_id], spec.fps), seg.travel_axis)
        rows.extend(compute_interval_metrics(tracks, seg, cluster, spec.fps, spec.windows()))
    return rows


class TestTrajectoryGeneration:
    def test_zero_flow_empty_file_with_header(self):
        spec = small_spec(flow_veh_per_min=(0.0, 0.0))
        csvs = generate_trajectories(spec)
        assert csvs["S1"] == "frame,vehicle_id,x1,y1,x2,y2\n"

    def test_deterministic_single_vehicle_constant_speed(self):
        spec = small_spec(
            n_intervals=1,
            lane_count=1,
            flow_veh_per_min=(0.8, 0.8),
            speed_std=(0.0, 0.0),
            speed_jitter=(0.0, 0.0),
            overspeed_fraction=(0.0, 0.0),
            truck_fraction=(0.0, 0.0),
            interval_seconds=30.0,
        )
        csvs = generate_trajectories(spec)
        trajs = parse_trajectories(csvs["S1"], spec.fps)
        assert len(trajs) >= 1
        for traj in trajs:
            xs = np.array([p.cx for p in traj.points])
            if len(xs) >= 3:
                steps = np.diff(xs)
                np.testing.assert_allclose(steps, steps[0], atol=1e-9)

    def test_truck_fraction_one_all_long(self):
        spec = small_spec(truck_fraction=(1.0, 1.0), flow_veh_per_min=(10, 10))
        csvs = generate_trajectories(spec)
        for traj in parse_trajectories(csvs["S1"], spec.fps):
            lengths = [p.x2 - p.x1 for p in traj.points]
            assert all(np.isclose(lengths, 16.0))

    def test_same_seed_identical_output(self):
        spec = small_spec()
        assert generate_trajectories(spec) == generate_trajectories(small_spec())

    def test_generated_files_ingest_cleanly(self):
        spec = small_spec(n_segments=2, n_intervals=4)
        csvs = generate_trajectories(spec)
        for seg in spec.segment_configs():
            trajs = parse_trajectories(csvs[seg.segment_id], spec.fps)
            assert len(trajs) > 0
            for traj in trajs:
                frames = traj.frames.tolist()
                assert all(b > a for a, b in zip(frames, frames[1:]))

    def test_truck_fraction_converges(self):
        spec = small_spec(
            n_intervals=30, truck_fraction=(0.4, 0.4), flow_veh_per_min=(15, 15),
            interval_seconds=25.0,
        )
        csvs = generate_trajectories(spec)
        trajs = parse_trajectories(csvs["S1"], spec.fps)
        assert len(trajs) >= 200
        trucks = sum((t.points[0].x2 - t.points[0].x1) > 10 for t in trajs)
        share = trucks / len(trajs)
        half_ci = 3 * np.sqrt(0.4 * 0.6 / len(trajs))
        assert abs(share - 0.4) <= half_ci

    def test_interval_grid_validation(self):
        with pytest.raises(ParameterError):
            ScenarioSpec(n_intervals=200, slot_minutes=10)  # 144 slots per day


class TestCrashPlant:
    def test_zero_beta_poisson_mean(self):
        spec = small_spec(n_intervals=8)
        rows = extract_metrics(spec, generate_trajectories(spec))
        all_counts = []
        for seed in range(40):
            plant = generate_crash_counts(
                rows, {"intercept": 1.5}, noise_kind="poisson", seed=seed, slot_minutes=10
            )
            all_counts.extend(plant.counts.values())
        lam = np.exp(1.5)
        se = np.sqrt(lam / len(all_counts))
        assert abs(np.mean(all_counts) - lam) <= 3 * se

    def test_positive_plant_recovers_sign(self):
        spec = small_spec(n_segments=1, n_intervals=40, interval_seconds=20.0)
        rows = extract_metrics(spec, generate_trajectories(spec))
        osr_col = np.array([metric_value(m, "osr_1.0") for m in rows], dtype=float)
        hits = 0
        for seed in range(20):
            plant = generate_crash_counts(
                rows, {"intercept": 2.0, "osr_1.0": 0.6}, noise_kind="poisson",
                seed=seed, slot_minutes=10,
            )
            counts = np.array([plant.counts[(m.segment_id, int(m.t_start // 600))] for m in rows])
            hits += pearson(osr_col, counts) > 0
        assert hits >= 19

    def test_fixed_seed_identical_counts(self):
        spec = small_spec()
        rows = extract_metrics(spec, generate_trajectories(spec))
        a = generate_crash_counts(rows, {"intercept": 1.0}, seed=5, slot_minutes=10)
        b = generate_crash_counts(rows, {"intercept": 1.0}, seed=5, slot_minutes=10)
        assert a.counts == b.counts

    def test_gaussian_mode_hits_target_r2(self):
        spec = small_spec(n_intervals=60, interval_seconds=20.0)
        rows = extract_metrics(spec, generate_trajectories(spec))
        plant = generate_crash_counts(
            rows, {"intercept": 2.3, "ovvr": 0.2}, noise_kind="gaussian",
            seed=0, slot_minutes=10, target_r2=0.6,
        )
        lam = np.array([plant.lam[k] for k in sorted(plant.lam)])
        counts = np.array([plant.counts[k] for k in sorted(plant.counts)], dtype=float)
        from netsafety.stats import r2_score

        assert r2_score(counts, lam) == pytest.approx(0.6, abs=0.05)
        assert plant.sigma is not None

    def test_records_round_trip_through_binning(self):
        spec = small_spec(n_intervals=6)
        rows = extract_metrics(spec, generate_trajectories(spec))
        plant = generate_crash_counts(rows, {"intercept": 1.8}, seed=2, slot_minutes=10)
        plane = TangentPlane(spec.anchor_lat, spec.anchor_lon)
        text = crash_records_csv(plant, spec.segment_configs(), spec.slot_minutes, plane, seed=2)
        records = parse_crashes(text)
        assert len(records) == sum(plant.counts.values())
        from netsafety.crashes import bin_crashes

        binning = bin_crashes(records, spec.segment_configs(), spec.slot_minutes, plane)
        for key, count in plant.counts.items():
            assert binning.counts[key].counts["AllType"] == count


class TestMetricInvariants:
    def test_interval_metric_ranges_on_generated_traffic(self):
        spec = small_spec(n_intervals=15, flow_veh_per_min=(6, 16))
        rows = extract_metrics(spec, generate_trajectories(spec))
        assert any(r.n_vehicles > 0 for r in rows)
        for r in rows:
            if r.tci is not None:
                assert 0.5 - 1e-12 <= r.tci <= 1.0 + 1e-12  # [1/C, 1] with C = 2
            for rate in r.osr.values():
                assert 0.0 <= rate <= 1.0
            for name in ("ivvr", "ovvr", "ntc"):
                value = getattr(r, name)
                if value is not None:
                    assert value >= 0.0
            if r.trt is not None:
                assert r.trt >= 0.0
            assert 0.0 <= r.coverage <= 1.0
            if r.f_c:
                assert sum(r.f_c.values()) == pytest.approx(1.0)


class TestKeypoints:
    def test_identity_keypoints_define_near_identity_fit(self):
        from netsafety.projection import fit_homography, load_keypoints

        spec = small_spec()
        plane = TangentPlane(spec.anchor_lat, spec.anchor_lon)
        pairs = load_keypoints(identity_keypoints_json(spec, plane), plane)
        fit = fit_homography(pairs)
        np.testing.assert_allclose(fit.matrix, np.eye(3), atol=1e-6)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = small_spec(beta_star={"intercept": 2.0, "ntc": 0.3}, noise_kind="gaussian")
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception, match="unknown"):
            ScenarioSpec.from_json('{"bogus": 1}')
