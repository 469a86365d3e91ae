import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from netsafety import synth, trajectories
from netsafety.cli import main
from netsafety.crashes import parse_crashes
from netsafety.errors import ParameterError
from netsafety.geo import TangentPlane
from netsafety.network_metrics import ClusterConfig, MetricsTable, compute_interval_metrics
from netsafety.stats import pearson
from netsafety.synth import (
    PlantResult,
    ScenarioSpec,
    crash_records_csv,
    generate_crash_counts,
    generate_trajectories,
    identity_keypoints_json,
)
from netsafety.trajectories import parse_trajectories, prepare_tracks

from oracles import crash_records_csv_oracle, generate_trajectories_oracle, metrics_rows


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
        osr_col = MetricsTable.concat(rows).column("osr_1.0")
        keys = [(m.segment_id, int(m.t_start // 600)) for m in metrics_rows(MetricsTable.concat(rows))]
        hits = 0
        for seed in range(20):
            plant = generate_crash_counts(
                rows, {"intercept": 2.0, "osr_1.0": 0.6}, noise_kind="poisson",
                seed=seed, slot_minutes=10,
            )
            counts = np.array([plant.counts[key] for key in keys])
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
        for (sid, slot), count in plant.counts.items():
            assert binning.counts[0, binning.segment_ids.index(sid), slot] == count  # AllType


class TestMetricInvariants:
    def test_interval_metric_ranges_on_generated_traffic(self):
        spec = small_spec(n_intervals=15, flow_veh_per_min=(6, 16))
        rows = metrics_rows(MetricsTable.concat(extract_metrics(spec, generate_trajectories(spec))))
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
            if r.f_truck is not None:
                assert 0.0 <= r.f_truck <= 1.0


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


def _ranges(lo, hi, or_zero=True):
    """(lo, hi) pairs inside [lo, hi], and (0, 0) when ``or_zero``."""
    pair = st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(lambda p: (min(p), max(p)))
    return st.one_of(st.just((0.0, 0.0)), pair) if or_zero else pair


@st.composite
def small_specs(draw):
    return ScenarioSpec(
        seed=draw(st.integers(0, 2**16)),
        fps=draw(st.sampled_from([1.0, 2.0, 4.0, 5.0])),
        n_segments=draw(st.integers(1, 2)),
        n_intervals=draw(st.integers(1, 3)),
        interval_seconds=draw(st.floats(2.0, 12.0)),
        lane_count=draw(st.integers(1, 3)),
        segment_length_m=draw(st.floats(30.0, 300.0)),
        flow_veh_per_min=draw(_ranges(10.0, 200.0, or_zero=False)),  # zero flow: EDGE_SPECS
        speed_mean=draw(_ranges(1.0, 35.0, or_zero=False)),
        speed_std=draw(_ranges(0.0, 4.0)),
        speed_jitter=draw(_ranges(0.0, 2.0)),
        truck_fraction=draw(_ranges(0.0, 1.0)),
        overspeed_fraction=draw(_ranges(0.0, 1.0)),
    )


SYNTH_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, phases=[Phase.explicit, Phase.generate])
EDGE_SPECS = [
    small_spec(n_intervals=2, speed_jitter=(0.0, 0.0)),
    small_spec(n_intervals=2, flow_veh_per_min=(0.0, 0.0)),
    small_spec(n_intervals=2, lane_count=1, flow_veh_per_min=(30.0, 40.0)),
    # Over 999 vehicles in one interval: "...-1000" sorts before "...-999", as strings do.
    small_spec(n_intervals=1, fps=1.0, interval_seconds=400.0, lane_count=3, segment_length_m=60.0,
               flow_veh_per_min=(3000.0, 3000.0), speed_mean=(25.0, 25.0)),
]
# Hazards of advancing a segment's intervals in lockstep, each checked to occur in its spec.
LOCKSTEP_SPECS = [
    # One interval stays empty while others queue up to 24 deep, in one segment.
    small_spec(seed=17, n_intervals=8, interval_seconds=10.0, flow_veh_per_min=(0.0, 200.0)),
    # A fast follower overtakes its slow leader and leaves the 30 m road from mid-queue.
    small_spec(seed=5, n_intervals=3, interval_seconds=10.0, segment_length_m=30.0, speed_mean=(3.0, 30.0),
               speed_std=(5.0, 10.0), flow_veh_per_min=(100.0, 200.0), overspeed_fraction=(0.2, 0.5)),
    small_spec(n_intervals=3, interval_seconds=10.0, lane_count=4, flow_veh_per_min=(40.0, 120.0)),
    small_spec(n_intervals=3, interval_seconds=10.0, speed_std=(0.0, 0.0)),  # a spawn draws no speed normal
]


class TestAgainstScalarDrawOracle:
    """The array-built bundle equals the scalar-draw, row-tuple generator byte for byte."""

    @SYNTH_PROPERTY
    @given(spec=small_specs())
    @example(spec=EDGE_SPECS[0])
    @example(spec=EDGE_SPECS[1])
    @example(spec=EDGE_SPECS[2])
    @example(spec=EDGE_SPECS[3])
    @example(spec=LOCKSTEP_SPECS[0])
    @example(spec=LOCKSTEP_SPECS[1])
    @example(spec=LOCKSTEP_SPECS[2])
    @example(spec=LOCKSTEP_SPECS[3])
    def test_trajectories(self, spec):
        assert generate_trajectories(spec) == generate_trajectories_oracle(spec)

    @SYNTH_PROPERTY
    @given(spec=small_specs(), counts=st.lists(st.integers(0, 6), min_size=6, max_size=6))
    @example(spec=EDGE_SPECS[0], counts=[0] * 6)
    def test_crash_records(self, spec, counts):
        keys = [(sid, slot) for sid in spec.segment_ids() for slot in range(spec.n_intervals)]  # at most 6
        plant = PlantResult(dict(zip(keys, counts)), {}, None, {})
        args = (plant, spec.segment_configs(), spec.slot_minutes, TangentPlane(spec.anchor_lat, spec.anchor_lon))
        assert crash_records_csv(*args, seed=spec.seed) == crash_records_csv_oracle(*args, seed=spec.seed)


# sha256 of every file ``netsafety synth`` writes for tests/golden/spec.json, pinned when the
# simulation drew one scalar normal per vehicle and the crashes drew scalar by scalar.
GOLDEN_SPEC_DIGESTS = {
    "config.json": "312984fb9da51b89ab701784404479ba49b8b5129a39e197a6272f21371ba21a",
    "crashes.csv": "e91e28ef6b613af656f8a9fc4a4c09ba3a1015ab696a118acf30253a73be4168",
    "keypoints.json": "8b9703ee870d8f51f3f5e95a4b926471c19eeebdce3e4ce87676345c3e671984",
    "plant.json": "be2ae8ee33ba091f2f6bd2475ed5be0715a672b72d93243ee4692c48357fbb7d",
    "scenario.json": "ce57a95a35d5a421eed4e0316a98be0fa12969cb8e180cf3d2bc758518d4b4b0",
    "trajectories_S1.csv": "8b60b66465368c0718ec0b8db0893f1781c2cd0bfb1939197d6ebe18ccdbef17",
    "trajectories_S2.csv": "a9581a6b2c19d65fae2422c6ab483efe97e2a38828da8aea989294ef9b2d0a97",
}


def test_synth_bundle_bytes_are_pinned(tmp_path):
    spec = Path(__file__).resolve().parent / "golden" / "spec.json"
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == GOLDEN_SPEC_DIGESTS


GOLDEN_SPEC = Path(__file__).resolve().parent / "golden" / "spec.json"


def test_metric_plant_synth_parses_no_trajectory_text(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synth parsed trajectory text")

    monkeypatch.setattr(trajectories, "parse_trajectories", refuse)
    assert json.loads(GOLDEN_SPEC.read_text())["beta_star"].keys() > {"intercept"}
    assert main(["synth", "--spec", str(GOLDEN_SPEC), "--out", str(tmp_path)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == GOLDEN_SPEC_DIGESTS


# The bench workloads' specs (perfbench/workloads.json), copied here so that this suite reads no perfbench file.
BENCH_WORKLOAD_SPECS = {
    "corridor": dict(beta_star={"intercept": 2.3, "osr_1.0": 0.18, "ovvr": 0.18, "ntc": 0.18}, noise_kind="gaussian",
                     n_intervals=60),
    "congested": dict(n_segments=2, n_intervals=12, interval_seconds=8.0, lane_count=4, segment_length_m=250.0,
                      flow_veh_per_min=(600.0, 700.0), speed_mean=(4.0, 20.0), speed_std=(0.5, 3.0),
                      beta_star={"intercept": 1.5}),
    "network": dict(n_segments=8, n_intervals=36, interval_seconds=4.0, flow_veh_per_min=(6.0, 14.0),
                    beta_star={"intercept": 2.3, "osr_1.0": 0.18, "ovvr": 0.18, "ntc": 0.18}, noise_kind="gaussian"),
}
# (spec, whether a simulated vehicle leaves before its first frame); the bench workloads all have such vehicles.
TABLE_SPECS = [
    pytest.param(ScenarioSpec.from_json(GOLDEN_SPEC.read_bytes()), False, id="golden"),
    *[pytest.param(ScenarioSpec(seed=seed, **kw), True, id=f"{name}-{seed}")
      for name, kw in BENCH_WORKLOAD_SPECS.items() for seed in (1, 2)],
]


def assert_tables_equal_the_parse(spec, texts, tables):
    assert tables.keys() == texts.keys() == set(spec.segment_ids())
    for sid, table in tables.items():
        parsed = parse_trajectories(texts[sid], spec.fps)
        assert table.vehicle_ids == parsed.vehicle_ids
        assert table.bounds.tolist() == parsed.bounds.tolist()
        assert (table.frames.dtype, table.frames.tolist()) == (parsed.frames.dtype, parsed.frames.tolist())
        assert table.boxes.shape == parsed.boxes.shape and table.boxes.tobytes() == parsed.boxes.tobytes()
        assert table.fps == parsed.fps


@pytest.mark.parametrize("spec, drops", TABLE_SPECS)
def test_simulated_tables_equal_the_parse_of_their_text_bit_for_bit(spec, drops):
    tables = {}
    texts = generate_trajectories(spec, tables=tables)
    assert_tables_equal_the_parse(spec, texts, tables)
    # A vehicle that leaves before its first frame is simulated but has no row: the table drops it.
    simulated = sum(len(synth._simulate_segment(spec, k)[0]) for k in range(spec.n_segments))
    assert (simulated > sum(len(table) for table in tables.values())) == drops


# sha256 of every file ``netsafety synth`` writes for a zero-flow scenario with a metric plant, pinned
# while the plant pass still parsed the trajectory text.
ZERO_FLOW_SPEC = {"n_segments": 2, "n_intervals": 6, "interval_seconds": 20.0, "flow_veh_per_min": [0, 0],
                  "beta_star": {"intercept": 1.8, "osr_1.0": 0.3}}
ZERO_FLOW_DIGESTS = {
    "config.json": "b1ac419c8dafaaa5a32758a7485f09b59529d7aceca4875ab04f200a97a00aab",
    "crashes.csv": "9d3488109a09c7a36eb586365600f5295bcfa32d3238698f9ae501515f0ace97",
    "keypoints.json": "8b9703ee870d8f51f3f5e95a4b926471c19eeebdce3e4ce87676345c3e671984",
    "plant.json": "be2ae8ee33ba091f2f6bd2475ed5be0715a672b72d93243ee4692c48357fbb7d",
    "scenario.json": "9c089b228ef1b980538c1eec67cba9e5f30b474d3045d4228ffdd114ea63c734",
    "trajectories_S1.csv": "2d29eafca9ff32ad573ac15ae2b8266a399fbdf4d2b873b269898ecd3d334190",
    "trajectories_S2.csv": "2d29eafca9ff32ad573ac15ae2b8266a399fbdf4d2b873b269898ecd3d334190",
}


def test_zero_flow_metric_plant_runs_on_empty_tables(tmp_path):
    spec = ScenarioSpec(**ZERO_FLOW_SPEC)
    tables = {}
    texts = generate_trajectories(spec, tables=tables)
    assert_tables_equal_the_parse(spec, texts, tables)
    assert all(len(table) == 0 and table.boxes.shape == (0, 4) for table in tables.values())
    (tmp_path / "spec.json").write_text(json.dumps(ZERO_FLOW_SPEC))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in (tmp_path / "o").iterdir()}
    assert digests == ZERO_FLOW_DIGESTS


# sha256 of every file ``netsafety synth`` writes for an intercept-only plant (the spec's default
# beta_star), pinned while synth still ran the metrics pass whose columns such a plant never reads.
INTERCEPT_ONLY_SPEC = {"n_segments": 2, "n_intervals": 6, "interval_seconds": 20.0}
INTERCEPT_ONLY_DIGESTS = {
    3: {
        "config.json": "ead8d9caac174289455d098038db655d2554213dd8807980dff3fa5fb30ea13e",
        "crashes.csv": "57a12769b34116bb2f66ead3eeb9021a5d14dc2d63883457a60359a7a892fccd",
        "keypoints.json": "8b9703ee870d8f51f3f5e95a4b926471c19eeebdce3e4ce87676345c3e671984",
        "plant.json": "1e4ef0fc6bc1db183ef4bfa600e12aaf48ef700f45ef1cb55d4f79f99bb8f816",
        "scenario.json": "5ba6054ef221d5d2493c2a662922e8c5abad415a79af02a9abcc63190ef8439d",
        "trajectories_S1.csv": "90be454b98f55a2e04b4592e7864e327dfadcc43d3347b0821a0fb00126d58ea",
        "trajectories_S2.csv": "47640e02ceb7e60a0c8e55a26cd90baeb98b7b14e15b1a6dc8d26e1b7b244cef",
    },
    4: {
        "config.json": "38c6bc5436f654cf6bf7ba836c3e573049a141921e3dc5f5b230349944c7b9f9",
        "crashes.csv": "a8933ffb8bcdf4c0f18cd3a0b0ab64635f358e5f61b18f4c3854877599054918",
        "keypoints.json": "8b9703ee870d8f51f3f5e95a4b926471c19eeebdce3e4ce87676345c3e671984",
        "plant.json": "1e4ef0fc6bc1db183ef4bfa600e12aaf48ef700f45ef1cb55d4f79f99bb8f816",
        "scenario.json": "2bf173429bc60fffbd55ba742ce133e600bd0f08c2087486532355edf87b9d0c",
        "trajectories_S1.csv": "e118b432fe1415e6f8068fee0083c3f5ddcf5d8a89f9cc8a286ba719441020c2",
        "trajectories_S2.csv": "3d39cfe97ee6a92c093e2446d3b3caada2faf9ac7b6eb6e4682fed65d7c4dec7",
    },
}


@pytest.mark.parametrize("seed", sorted(INTERCEPT_ONLY_DIGESTS))
def test_intercept_only_synth_bundle_bytes_are_pinned(tmp_path, seed):
    (tmp_path / "spec.json").write_text(json.dumps(INTERCEPT_ONLY_SPEC))
    out = tmp_path / "bundle"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(out), "--seed", str(seed)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == INTERCEPT_ONLY_DIGESTS[seed]


@pytest.mark.parametrize("noise_kind", ["poisson", "gaussian"])
def test_intercept_only_crashes_match_the_plant_on_the_full_metrics_pass(tmp_path, noise_kind):
    spec = ScenarioSpec(seed=5, n_segments=2, n_intervals=6, interval_seconds=20.0, noise_kind=noise_kind)
    (tmp_path / "spec.json").write_text(spec.to_json())
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 0
    rows = extract_metrics(spec, generate_trajectories(spec), ClusterConfig())
    assert MetricsTable.concat(rows).columns["n_vehicles"].any()
    plant = generate_crash_counts(rows, {"intercept": 1.5}, noise_kind=noise_kind, seed=spec.seed,
                                  slot_minutes=spec.slot_minutes, target_r2=spec.target_r2)
    plane = TangentPlane(spec.anchor_lat, spec.anchor_lon)
    expected = crash_records_csv(plant, spec.segment_configs(), spec.slot_minutes, plane, seed=spec.seed)
    assert (tmp_path / "o" / "crashes.csv").read_text() == expected
