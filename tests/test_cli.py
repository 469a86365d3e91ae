import csv
import hashlib
import itertools
import json
import math
import platform
import re
import types
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from netsafety import association, cli, network_metrics, trajectories
from netsafety.association import AnalysisConfig
from netsafety.cli import _prepare_segment_tracks, main
from netsafety.config import IntervalGrid, RunConfig, TrackPrepConfig, TrtConfig, load_config
from netsafety.network_metrics import ClusterConfig, SegmentConfig, read_metrics_csv
from netsafety.synth import ScenarioSpec
from netsafety.trajectories import parse_trajectories

from oracles import metrics_rows, ssm_rows_oracle


def write_spec(path: Path, **kw) -> Path:
    defaults = dict(
        seed=11,
        n_segments=2,
        n_intervals=6,
        interval_seconds=20.0,
        fps=4.0,
        beta_star={"intercept": 1.8, "osr_1.0": 0.3},
        noise_kind="poisson",
    )
    defaults.update(kw)
    spec = ScenarioSpec(**defaults)
    target = path / "scenario_spec.json"
    target.write_text(spec.to_json())
    return target


def run_bundle(tmp_path: Path) -> Path:
    spec_path = write_spec(tmp_path)
    out = tmp_path / "bundle"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def few_rows(n: int) -> str:
    return f"only {n} rows for 6 predictors (recommend n >= 48); estimates will be noisy"


def constant_fold(k: int) -> str:
    return f"fold {k}: held-out response constant, no R-squared"


def skipped_poisson_fold(k: int) -> str:
    return (f"fold {k} skipped: Poisson IRLS did not converge in 100 iterations (boundary MLE, e.g. an all-zero "
            "response, has no finite fit)")


@contextmanager
def warns_exactly(*messages: str):
    """Expect UserWarnings with these messages, each at least once, and no other warning."""
    with pytest.warns(UserWarning, match="|".join(f"^{re.escape(m)}$" for m in messages)) as record:
        yield
    assert sorted({str(w.message) for w in record}) == sorted(messages)


# The warnings ``associate`` raises on run_bundle's 11 rows: a small sample, folds whose held-out
# response is constant, and Poisson folds that have no finite fit.
RUN_BUNDLE_WARNINGS = (few_rows(11), constant_fold(4), *map(skipped_poisson_fold, range(5)))


NO_FRAME = "window [600.0, 625.0) holds no frame at 0.0015 fps"
PLANT_KEYS = ["intercept", "volume", "ttc_cv", "ivvr", "ovvr", "osr_1.0", "tci", "f_truck", "ntc", "trt", "n_vehicles",
              "coverage", "e_ttc"]


class TestSynthCommand:
    def test_bundle_contents(self, tmp_path):
        out = run_bundle(tmp_path)
        for name in [
            "trajectories_S1.csv",
            "trajectories_S2.csv",
            "crashes.csv",
            "keypoints.json",
            "config.json",
            "scenario.json",
            "plant.json",
        ]:
            assert (out / name).exists(), name

    def test_seed_override_changes_output(self, tmp_path):
        spec_path = write_spec(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["synth", "--spec", str(spec_path), "--out", str(a), "--seed", "1"]) == 0
        assert main(["synth", "--spec", str(spec_path), "--out", str(b), "--seed", "2"]) == 0
        assert (a / "trajectories_S1.csv").read_text() != (b / "trajectories_S1.csv").read_text()

    def test_negative_seed_override_exits_2_writing_nothing(self, tmp_path, capsys):
        # The override skipped the spec's checks: numpy's ValueError escaped (exit 1) after the output
        # directory was made.
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(write_spec(tmp_path)), "--out", str(out), "--seed", "-1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ParameterError", "seed must be >= 0, got -1")
        assert not out.exists()

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    def test_slot_length_the_config_refuses_exits_2(self, tmp_path, capsys):
        # A 7-minute slot used to give a bundle (exit 0) whose config.json every other command refused.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_segments": 2, "n_intervals": 6, "interval_seconds": 20.0, "slot_minutes": 7}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == (
            "ParameterError", "slot_minutes must be one of (10, 15, 20, 30, 60), got 7"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec, error, message", [
        ("[1]", "SchemaError", "scenario spec must be a JSON object, got list"),
        ('{"n_intervals": 2.5}', "SchemaError",
         "scenario spec has a value of the wrong type: n_intervals must be an integer, got 2.5"),
        ('{"fps": "4"}', "SchemaError",
         "scenario spec has a value of the wrong type: fps must be a number, got '4'"),
        ('{"flow_veh_per_min": [5]}', "SchemaError",
         "scenario spec has a value of the wrong type: flow_veh_per_min must be a list of 2 numbers, got [5]"),
        # n_segments 0 used to exit 0 with a bundle that every other command refused.
        ('{"n_segments": 0}', "ParameterError", "n_segments must be >= 1, got 0"),
        ('{"seed": -1}', "ParameterError", "seed must be >= 0, got -1"),
        ('{"fps": NaN}', "SchemaError",
         "scenario spec has a value of the wrong type: fps must be a number, got nan"),
        ('{"beta_star": [1]}', "SchemaError",
         "scenario spec has a value of the wrong type: beta_star must be an object of numbers, got [1]"),
        ('{"flow_veh_per_min": [-5, 1]}', "ParameterError",
         "flow_veh_per_min must be a range 0 <= lo <= hi, got (-5, 1)"),
        # These used to write trajectories_S1.csv and keypoints.json before the metrics pass refused the window.
        ('{"n_segments": 1, "n_intervals": 3, "fps": 0.0015}', "ParameterError", NO_FRAME),
        ('{"n_segments": 1, "n_intervals": 3, "fps": 0.0015, "beta_star": {"ovvr": 0.3}}', "ParameterError", NO_FRAME),
        # "osr_abc" and "segment_id" crashed with a ValueError traceback, "foo" exited 2 after writing the
        # trajectory and keypoint files, and "osr_2.0" (synth's segments have only the 1.0 threshold) exited 0
        # with an all-zero column that planted nothing.
        *((f'{{"beta_star": {{"intercept": 1.5, "{key}": 1}}}}', "SchemaError",
           f"unknown beta_star key {key!r}; the plant reads one of {PLANT_KEYS}")
          for key in ("osr_abc", "segment_id", "foo", "osr_2.0")),
        # An anchor off the globe wrote a bundle whose crashes were placed through cos(100 degrees).
        ('{"anchor_lat": 100.0}', "ParameterError",
         "anchor needs -90 < lat < 90 and -180 <= lon <= 180, got (100.0, -112.06)"),
        ('{"anchor_lon": 200.0}', "ParameterError",
         "anchor needs -90 < lat < 90 and -180 <= lon <= 180, got (33.46, 200.0)"),
    ], ids=["not-an-object", "fractional-count", "string-number", "one-number-range", "no-segments", "negative-seed",
            "nan-number", "plant-not-an-object", "negative-range", "window-without-a-frame-intercept-only",
            "window-without-a-frame-metric-plant", "plant-key-osr_abc", "plant-key-segment_id", "plant-key-foo",
            "plant-key-osr_2.0", "anchor-lat-off-the-globe", "anchor-lon-off-the-globe"])
    def test_malformed_spec_exits_2_naming_the_field(self, tmp_path, capsys, spec, error, message):
        (tmp_path / "spec.json").write_text(spec)
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == (error, message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("beta_star, passes", [
        ({}, 0), ({"intercept": 0.5}, 0), ({"volume": 0.2}, 2), ({"intercept": 1.5, "f_truck": 0.2}, 2),
    ], ids=["default", "intercept", "volume", "metric"])
    def test_metrics_pass_runs_only_for_a_plant_that_names_a_metric(self, tmp_path, monkeypatch, beta_star, passes):
        calls = []
        for module, name in ((trajectories, "parse_trajectories"), (trajectories, "prepare_tracks"),
                             (network_metrics, "compute_interval_metrics")):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        spec = write_spec(tmp_path, beta_star=beta_star)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        # The pass runs on the simulation's own tables: it parses no trajectory text.
        assert sorted(calls) == sorted(["prepare_tracks", "compute_interval_metrics"] * passes)


class TestProjectCommand:
    def test_identity_projection_round_trip(self, tmp_path):
        out = run_bundle(tmp_path)
        config = out / "config.json"
        infile = out / "trajectories_S1.csv"
        outfile = out / "world_S1.csv"
        assert main(["project", "--config", str(config), "--in", str(infile), "--out", str(outfile)]) == 0
        original = parse_trajectories(infile.read_text(), 4.0)
        projected = parse_trajectories(outfile.read_text(), 4.0)
        assert len(original) == len(projected)
        for a, b in zip(original, projected):
            for p, q in zip(a.points, b.points):
                assert abs(p.x1 - q.x1) <= 1e-6
                assert abs(p.y2 - q.y2) <= 1e-6
        h = json.loads(outfile.with_suffix(".csv.homography.json").read_text())
        np.testing.assert_allclose(np.array(h["matrix"]), np.eye(3), atol=1e-6)

    def test_rows_grouped_by_vehicle_in_first_appearance_order(self, tmp_path):
        out = run_bundle(tmp_path)
        infile, outfile = out / "trajectories_S1.csv", out / "world_S1.csv"
        assert main(["project", "--config", str(out / "config.json"), "--in", str(infile), "--out", str(outfile)]) == 0
        first_seen = list(dict.fromkeys(line.split(",")[1] for line in infile.read_text().splitlines()[1:]))
        vids = [line.split(",")[1] for line in outfile.read_text().splitlines()[1:]]
        assert len(vids) == len(infile.read_text().splitlines()) - 1
        assert [vid for vid, _ in itertools.groupby(vids)] == first_seen

    def test_missing_input_exits_2(self, tmp_path, capsys):
        out = run_bundle(tmp_path)
        code = main(
            ["project", "--config", str(out / "config.json"), "--in", str(out / "missing.csv"),
             "--out", str(out / "x.csv")]
        )
        assert code == 2
        assert "missing.csv" in json.loads(capsys.readouterr().err)["message"]


    def test_frame_beyond_int64_exits_2_naming_the_line(self, tmp_path, capsys):
        # Before the check the frame escaped as OverflowError and project exited 1 with a traceback.
        out = run_bundle(tmp_path)
        path = out / "trajectories_S1.csv"
        header, first, second, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, first, "99999999999999999999" + second[second.index(","):], *rest]))
        code = main(["project", "--config", str(out / "config.json"), "--in", str(path),
                     "--out", str(out / "world_S1.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == (
            "SchemaError", "line 3: column 'frame' is not an integer: '99999999999999999999'"
        )


class TestNonFiniteCoordinates:
    def test_every_command_exits_2_naming_the_line(self, tmp_path, capsys):
        # Before the parser checked coordinates, nan/inf passed silently and
        # metrics wrote ivvr=nan, ntc=nan.
        out = run_bundle(tmp_path)
        path = out / "trajectories_S1.csv"
        lines = path.read_text().splitlines(keepends=True)
        for lineno, column, value in ((5, 2, "nan"), (9, 4, "inf")):  # x1 on line 5, x2 on line 9
            fields = lines[lineno - 1].rstrip("\n").split(",")
            fields[column] = value
            lines[lineno - 1] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        config = str(out / "config.json")
        for argv in (
            ["project", "--config", config, "--in", str(path), "--out", str(out / "world_S1.csv")],
            ["metrics", "--config", config],
            ["ssm", "--config", config, "--in", str(path), "--out", str(out / "ssm_S1.csv")],
        ):
            assert main(argv) == 2, argv
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "SchemaError", argv
            assert err["message"] == "line 5: column 'x1' is not finite: 'nan'", argv
        assert not (out / "world_S1.csv").exists() and not (out / "metrics.csv").exists()


def interleave_rows(text: str, seed: int) -> str:
    """The same rows with vehicles interleaved at random, each vehicle's rows kept in order."""
    header, *rows = text.splitlines(keepends=True)
    slots = np.random.default_rng(seed).permutation(len(rows))
    rows_of: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        rows_of.setdefault(row.split(",")[1], []).append(i)
    out = [""] * len(rows)
    for idx in rows_of.values():
        for i, slot in zip(idx, sorted(slots[idx])):
            out[slot] = rows[i]
    return header + "".join(out)


class TestRowOrderInvariance:
    def test_interleaved_rows_give_the_same_metrics_and_ssm(self, tmp_path):
        out = run_bundle(tmp_path)
        config = str(out / "config.json")

        def run():
            assert main(["metrics", "--config", config]) == 0
            assert main(["ssm", "--config", config, "--in", str(out / "trajectories_S1.csv"),
                         "--out", str(out / "ssm_S1.csv")]) == 0
            return (out / "metrics.csv").read_text(), (out / "ssm_S1.csv").read_text()

        base_metrics, base_ssm = run()
        originals = {sid: (out / f"trajectories_{sid}.csv").read_text() for sid in ("S1", "S2")}
        for seed in (1, 2, 3):
            for sid, text in originals.items():
                shuffled = interleave_rows(text, seed)
                assert shuffled != text and sorted(shuffled.splitlines()) == sorted(text.splitlines())
                (out / f"trajectories_{sid}.csv").write_text(shuffled)
            metrics, ssm = run()
            assert ssm == base_ssm
            rows_a = list(csv.reader(metrics.splitlines()))
            rows_e = list(csv.reader(base_metrics.splitlines()))
            assert len(rows_a) == len(rows_e) and rows_a[0] == rows_e[0]
            for ra, re in zip(rows_a[1:], rows_e[1:]):
                for name, a, e in zip(rows_e[0], ra, re, strict=True):
                    if e in ("", "nan") or name == "segment_id":
                        assert a == e, name
                    else:
                        assert math.isclose(float(a), float(e), rel_tol=1e-12, abs_tol=0.0), (name, a, e)


class TestMetricsCommand:
    def test_metrics_csv_written(self, tmp_path):
        out = run_bundle(tmp_path)
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        rows = metrics_rows(read_metrics_csv((out / "metrics.csv").read_text()))
        assert len(rows) == 12  # 2 segments x 6 intervals
        assert {r.segment_id for r in rows} == {"S1", "S2"}

    def test_empty_input_explicit_grid_gives_absent_rows(self, tmp_path):
        out = run_bundle(tmp_path)
        (out / "trajectories_S1.csv").write_text("frame,vehicle_id,x1,y1,x2,y2\n")
        (out / "trajectories_S2.csv").write_text("frame,vehicle_id,x1,y1,x2,y2\n")
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        rows = metrics_rows(read_metrics_csv((out / "metrics.csv").read_text()))
        assert all(r.n_vehicles == 0 and r.ivvr is None for r in rows)

    def test_empty_input_auto_grid_header_only(self, tmp_path):
        # Without an explicit interval grid, empty input yields a header-only file.
        out = run_bundle(tmp_path)
        (out / "trajectories_S1.csv").write_text("frame,vehicle_id,x1,y1,x2,y2\n")
        (out / "trajectories_S2.csv").write_text("frame,vehicle_id,x1,y1,x2,y2\n")
        config = json.loads((out / "config.json").read_text())
        del config["intervals"]
        (out / "config_auto.json").write_text(json.dumps(config))
        assert main(["metrics", "--config", str(out / "config_auto.json")]) == 0
        text = (out / "metrics.csv").read_text()
        assert text.count("\n") == 1 and text.startswith("segment_id,")

    def test_schema_error_exits_2(self, tmp_path, capsys):
        out = run_bundle(tmp_path)
        (out / "trajectories_S1.csv").write_text("frame,vehicle_id,x1\n")
        assert main(["metrics", "--config", str(out / "config.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    def test_text_the_csv_module_refuses_exits_2(self, tmp_path, capsys):
        # Before, the csv module's error escaped and metrics exited 1 with a traceback.
        out = run_bundle(tmp_path)
        path = out / "trajectories_S1.csv"
        rows = path.read_text().splitlines(keepends=True)
        rows[1] = rows[1].replace(",", ',"', 1)  # a quote never closed
        path.write_text("".join(rows))
        assert main(["metrics", "--config", str(out / "config.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("SchemaError", "line 2: field larger than field limit (131072)")

    def test_metrics_match_scripted_recomputation(self, tmp_path):
        # Independent straight-loop recomputation of the per-interval metrics
        # from the same prepared tracks, compared at 1e-9.
        from netsafety.config import load_config
        from netsafety.trajectories import prepare_tracks

        out = run_bundle(tmp_path)
        cfg = load_config(out / "config.json")
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        rows = metrics_rows(read_metrics_csv((out / "metrics.csv").read_text()))
        seg = cfg.segments[0]
        tracks = prepare_tracks(
            parse_trajectories((out / "trajectories_S1.csv").read_text(), cfg.fps),
            seg.travel_axis,
        )
        for row in (r for r in rows if r.segment_id == seg.segment_id):
            f0, f1 = row.t_start * cfg.fps, row.t_end * cfg.fps
            per_vehicle = {}
            lengths = {}
            for tr in tracks:
                mask = (tr.frames >= f0) & (tr.frames < f1)
                if mask.any():
                    (vid,) = tr.vehicle_ids
                    per_vehicle.setdefault(vid, []).extend(tr.speed[mask].tolist())
                    lengths[vid] = float(tr.lengths[0])
            if not per_vehicle:
                assert row.n_vehicles == 0
                continue
            assert row.n_vehicles == len(per_vehicle)
            # ivvr / ovvr / osr by their definitions, written as plain loops
            terms = [
                (max(v) - min(v)) / (sum(v) / len(v))
                for v in per_vehicle.values()
                if len(v) >= 2 and sum(v) > 0
            ]
            if terms:
                assert row.ivvr == pytest.approx(sum(terms) / len(terms), abs=1e-9)
            means = [sum(v) / len(v) for v in per_vehicle.values()]
            fleet = sum(means) / len(means)
            ovvr_hand = sum(abs(m - fleet) / fleet for m in means) / len(means)
            assert row.ovvr == pytest.approx(ovvr_hand, abs=1e-9)
            over = sum(max(v) / seg.speed_limit > 1.0 for v in per_vehicle.values())
            assert row.osr[1.0] == pytest.approx(over / len(per_vehicle), abs=1e-9)
            trucks = sum(lengths[vid] >= 8.0 for vid in per_vehicle)
            cars = len(per_vehicle) - trucks
            total = cars + trucks
            tci_hand = total * total / (2 * (cars * cars + trucks * trucks))
            assert row.tci == pytest.approx(tci_hand, abs=1e-9)


class TestSsmCommand:
    def test_ssm_csv_shape(self, tmp_path):
        out = run_bundle(tmp_path)
        target = out / "ssm.csv"
        assert main(
            ["ssm", "--config", str(out / "config.json"), "--in", str(out / "trajectories_S1.csv"),
             "--out", str(target)]
        ) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "t,follower_id,leader_id,ttc,drac,pet,gap,v_follower,v_leader"
        assert len(lines) > 1
        sample = lines[1].split(",")
        assert float(sample[6]) > 0  # gap positive by construction

    def test_pairs_agree_with_metrics_e_ttc_and_brute_force(self, tmp_path):
        # metrics' e_ttc and ssm's rows come from one follower/leader pairing;
        # check both against each other and the pairs against a brute force.
        from netsafety.config import load_config
        from netsafety.surrogate import PairState, drac, ttc
        from netsafety.trajectories import prepare_tracks

        out = run_bundle(tmp_path)
        config = out / "config.json"
        infile = out / "trajectories_S1.csv"
        assert main(["metrics", "--config", str(config)]) == 0
        assert main(["ssm", "--config", str(config), "--in", str(infile), "--out", str(out / "ssm.csv")]) == 0
        cfg = load_config(config)
        seg = cfg.segments[0]
        with (out / "ssm.csv").open() as fh:
            pairs = list(csv.DictReader(fh))
        assert pairs

        ux, uy = seg.travel_axis
        by_frame: dict[int, dict[str, tuple[float, float]]] = {}
        for tr in prepare_tracks(parse_trajectories(infile.read_text(), cfg.fps), seg.travel_axis):
            (vid,) = tr.vehicle_ids
            for f, x, y, vx, vy in zip(tr.frames, tr.x, tr.y, tr.vx, tr.vy):
                by_frame.setdefault(int(f), {})[vid] = (x * ux + y * uy, vx * ux + vy * uy)
        followers = set()
        for p in pairs:
            frame = round(float(p["t"]) * cfg.fps)
            vehicles = by_frame[frame]
            pos_f, vel_f = vehicles[p["follower_id"]]
            downstream = [(pos, vid) for vid, (pos, _) in vehicles.items() if pos > pos_f]
            assert p["leader_id"] == min(downstream)[1]
            pos_l, vel_l = vehicles[p["leader_id"]]
            assert float(p["gap"]) == pytest.approx(pos_l - pos_f, rel=1e-12)
            assert (float(p["v_follower"]), float(p["v_leader"])) == (pytest.approx(vel_f), pytest.approx(vel_l))
            state = PairState(x_leader=float(p["gap"]), x_follower=0.0,
                              v_leader=float(p["v_leader"]), v_follower=float(p["v_follower"]))
            expected_ttc = ttc(state)
            if expected_ttc is None:
                assert p["ttc"] == ""
            else:
                assert float(p["ttc"]) == pytest.approx(expected_ttc, rel=1e-12)
            assert float(p["drac"]) == pytest.approx(drac(state), rel=1e-12)
            followers.add((frame, p["follower_id"]))
        # Every vehicle with someone downstream in its frame follows exactly once
        # (the synthetic positions have no exact ties).
        expected_followers = {
            (frame, vid)
            for frame, vehicles in by_frame.items()
            for vid, (pos, _) in vehicles.items()
            if any(other > pos for other, _ in vehicles.values())
        }
        assert followers == expected_followers and len(pairs) == len(followers)

        rows = metrics_rows(read_metrics_csv((out / "metrics.csv").read_text()))
        rows = [r for r in rows if r.segment_id == seg.segment_id]
        for row in rows:
            f0, f1 = math.ceil(row.t_start * cfg.fps - 1e-9), math.ceil(row.t_end * cfg.fps - 1e-9)
            ttcs = [float(p["ttc"]) for p in pairs
                    if p["ttc"] and f0 <= round(float(p["t"]) * cfg.fps) < f1]
            if ttcs:
                assert row.e_ttc == pytest.approx(sum(ttcs) / len(ttcs), rel=1e-12)
            else:
                assert row.e_ttc is None
        assert any(r.e_ttc is not None for r in rows)

    def test_matches_per_pair_oracle_byte_for_byte(self, tmp_path):
        out = run_bundle(tmp_path)
        config = out / "config.json"
        infile = out / "trajectories_S1.csv"
        assert main(["ssm", "--config", str(config), "--in", str(infile), "--out", str(out / "ssm.csv")]) == 0
        assert (out / "ssm.csv").read_text() == ssm_oracle_csv(config, infile)

        # Edited copy: rows interleaved, and the most frequent leader's track cut by a gap
        # longer than max_gap into two runs, the first moved forward to end 20 m ahead of
        # where the second starts, so the second run starts behind the first's furthest point.
        with (out / "ssm.csv").open() as f:
            leaders = [row["leader_id"] for row in csv.DictReader(f)]
        vid = max(set(leaders), key=leaders.count)
        header, *rows = infile.read_text().splitlines(keepends=True)
        own = [i for i, row in enumerate(rows) if row.split(",")[1] == vid]
        cut = len(own) // 2
        gap = load_config(config).prep.max_gap_frames + 5
        last_x, next_x = (float(rows[own[k]].split(",")[2]) for k in (cut - 1, cut + gap))
        for i in own[:cut]:
            fields = rows[i].rstrip("\n").split(",")
            for c in (2, 4):  # x1, x2
                fields[c] = repr(float(fields[c]) + (next_x - last_x) + 20.0)
            rows[i] = ",".join(fields) + "\n"
        dropped = set(own[cut : cut + gap])
        infile.write_text(interleave_rows(header + "".join(r for i, r in enumerate(rows) if i not in dropped), 1))
        assert main(["ssm", "--config", str(config), "--in", str(infile), "--out", str(out / "ssm.csv")]) == 0
        edited = (out / "ssm.csv").read_text()
        assert edited == ssm_oracle_csv(config, infile)
        t_split = int(rows[own[cut + gap]].split(",")[0]) / load_config(config).fps
        assert any(r["leader_id"] == vid and r["pet"] and float(r["t"]) >= t_split
                   for r in csv.DictReader(edited.splitlines()))

    def test_pet_on_a_leader_whose_second_run_starts_behind(self, tmp_path):
        # Leader L: run 1 at x = 0, 10, ..., 40 (frames 0-4), then a 3-frame gap (> max_gap 2),
        # run 2 at x = 25, 35, 45, 55 (frames 8-11). Its passage curve, made monotone over the
        # whole track: positions 0 10 20 30 40 40 40 45 55 at times 0 1 2 3 4 8 9 10 11.
        # Follower F at x = 12, 22, 32, 42 (frames 8-11) passes where L was at t = 1.2, 2.2,
        # 3.2 and, on the flat part then the rise to 45 m, 9 + (42 - 40) / 5 = 9.4.
        config = write_hand_config(tmp_path, prep={"max_gap_frames": 2})
        rows = ["frame,vehicle_id,x1,y1,x2,y2"]
        for vid, frames, x0 in (("L", range(0, 5), 0.0), ("L", range(8, 12), -55.0), ("F", range(8, 12), -68.0)):
            rows += [f"{f},{vid},{x0 + 10.0 * f - 2.0},-1.0,{x0 + 10.0 * f + 2.0},1.0" for f in frames]
        infile = tmp_path / "traj.csv"
        infile.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ssm.csv"
        assert main(["ssm", "--config", str(config), "--in", str(infile), "--out", str(out)]) == 0
        with out.open() as f:
            pairs = list(csv.DictReader(f))
        assert [(p["t"], p["follower_id"], p["leader_id"]) for p in pairs] == [
            (f"{f}.0", "F", "L") for f in range(8, 12)
        ]
        assert [float(p["pet"]) for p in pairs] == pytest.approx([6.8, 6.8, 6.8, 1.6], rel=1e-12)
        assert out.read_text() == ssm_oracle_csv(config, infile)

    @pytest.mark.parametrize("body, moving", [
        ("", []),
        ("0,a,-2.0,-1.0,2.0,1.0\n40,a,38.0,-1.0,42.0,1.0\n80,a,78.0,-1.0,82.0,1.0\n", ["a"]),
    ], ids=["header_only", "one_row_runs"])
    def test_table_without_runs_writes_the_header_alone(self, tmp_path, body, moving):
        # "a" moves 80 m, so the static filter keeps it, but at max_gap 15 each of its rows is a run of its own.
        config = write_hand_config(tmp_path)
        infile = tmp_path / "world.csv"
        infile.write_text("frame,vehicle_id,x1,y1,x2,y2\n" + body)
        cfg = load_config(config)
        seg = cfg.segments[0]
        assert trajectories.drop_static_objects(parse_trajectories(infile.read_text(), cfg.fps)).vehicle_ids == moving
        tracks = _prepare_segment_tracks(cfg, seg, infile)
        table = network_metrics.SampleTable.build(tracks, seg.travel_axis)
        assert len(tracks) == 0 and table.frame.size == table.vid_code.size == 0 and table.vids == []
        out = tmp_path / "ssm.csv"
        assert main(["ssm", "--config", str(config), "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text() == "t,follower_id,leader_id,ttc,drac,pet,gap,v_follower,v_leader\n"


def ssm_oracle_csv(config: Path, infile: Path) -> str:
    """What ``ssm`` should write for ``infile``, by the per-pair oracle."""
    cfg = load_config(config)
    seg = cfg.segments[0]
    return ssm_rows_oracle(_prepare_segment_tracks(cfg, seg, infile), seg.travel_axis, cfg.fps)


class TestQuarterTurnInvariance:
    def test_turning_boxes_with_the_travel_axis_changes_no_output(self, tmp_path):
        # (x, y) -> (-y, x) maps box (x1, y1, x2, y2) to (-y2, x1, -y1, x2). Only quarter turns
        # keep boxes axis-aligned; at other angles box_length_along_axis (and with it the
        # vehicle class and ntc) changes, so they are not invariant.
        out = run_bundle(tmp_path)
        config = json.loads((out / "config.json").read_text())
        config["segments"] = config["segments"][:1]
        header, *rows = (out / "trajectories_S1.csv").read_text().splitlines()
        turned = [header]
        for row in rows:
            frame, vid, x1, y1, x2, y2 = row.split(",")
            turned.append(",".join([frame, vid, repr(-float(y2)), x1, repr(-float(y1)), x2]))
        (out / "turned_S1.csv").write_text("\n".join(turned) + "\n")

        outputs = []
        for axis, name in (([1.0, 0.0], "trajectories_S1.csv"), ([0.0, 1.0], "turned_S1.csv")):
            config["segments"][0]["travel_axis"] = axis
            (out / "one.json").write_text(json.dumps(config))
            one, infile = str(out / "one.json"), str(out / name)
            assert main(["metrics", "--config", one, "--in", infile, "--out", str(out / "m.csv")]) == 0
            assert main(["ssm", "--config", one, "--in", infile, "--out", str(out / "s.csv")]) == 0
            outputs.append(((out / "m.csv").read_text(), (out / "s.csv").read_text()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count("\n") == 7 and outputs[0][1].count("\n") > 100


class TestMalformedInputExits2:
    """Bad cells in the inputs of ``associate`` and ``project`` exit 2 with a JSON error naming them."""

    def run(self, argv, capsys):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        return err["message"]

    def test_non_finite_crash_coordinate(self, tmp_path, capsys):
        out = run_bundle(tmp_path)
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        header, first, *rest = (out / "crashes.csv").read_text().splitlines(keepends=True)
        stamp, _, _, kind = first.split(",")
        (out / "crashes.csv").write_text(header + ",".join([stamp, "nan", "inf", kind]) + "".join(rest))
        message = self.run(["associate", "--config", str(out / "config.json")], capsys)
        assert message == "line 2: column 'lat' is not finite: 'nan'"

    def test_metrics_cell_not_a_number(self, tmp_path, capsys):
        out = run_bundle(tmp_path)
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))
        rows[3][rows[0].index("ivvr")] = "abc"
        (out / "metrics.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        message = self.run(["associate", "--config", str(out / "config.json")], capsys)
        assert message == "line 4: column 'ivvr' is not a number: 'abc'"

    @pytest.mark.parametrize("column, cell, message", [
        ("n_vehicles", "nan", "line 4: column 'n_vehicles' is not a count: 'nan'"),
        ("n_vehicles", "2.5", "line 4: column 'n_vehicles' is not a count: '2.5'"),
        ("coverage", "inf", "line 4: column 'coverage' is not finite: 'inf'"),
        ("ivvr", "nan", "line 4: column 'ivvr' is not finite: 'nan'"),
        ("osr_1.0", "inf", "line 4: column 'osr_1.0' is not finite: 'inf'"),
        ("e_ttc", "-inf", "line 4: column 'e_ttc' is not finite: '-inf'"),
        ("interval_start", "nan", "line 4: column 'interval_start' is not finite: 'nan'"),
    ])
    def test_metrics_cell_out_of_range(self, tmp_path, capsys, column, cell, message):
        out = run_bundle(tmp_path)
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))
        rows[3][rows[0].index(column)] = cell
        (out / "metrics.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        assert self.run(["associate", "--config", str(out / "config.json")], capsys) == message

    def test_metrics_row_short_of_the_header(self, tmp_path, capsys):
        # The missing trailing cell used to read as an absent e_ttc.
        out = run_bundle(tmp_path)
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))
        del rows[3][-1]
        (out / "metrics.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        message = self.run(["associate", "--config", str(out / "config.json")], capsys)
        assert message == f"line 4: expected {len(rows[0])} fields, got {len(rows[0]) - 1}"

    def test_metrics_header_threshold_not_a_number(self, tmp_path, capsys):
        out = run_bundle(tmp_path)
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        header, rest = (out / "metrics.csv").read_text().split("\n", 1)
        (out / "metrics.csv").write_text(header.replace("osr_1.0", "osr_abc") + "\n" + rest)
        message = self.run(["associate", "--config", str(out / "config.json")], capsys)
        assert message == "line 1: column 'osr_abc' is not a finite threshold: 'abc'"

    def test_input_that_is_not_utf8_text(self, tmp_path, capsys):
        # The decode error used to escape from Path.read_text as a traceback (exit 1).
        out = run_bundle(tmp_path)
        text = (out / "trajectories_S1.csv").read_bytes()
        (out / "bad.csv").write_bytes(text.replace(b"S1-", b"S1\xff-", 1))
        assert main(["ssm", "--config", str(out / "config.json"), "--in", str(out / "bad.csv"),
                     "--out", str(out / "ssm.csv")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NetSafetyError"
        assert err["message"].startswith(f"input file is not utf-8 text: {out / 'bad.csv'}")
        assert not (out / "ssm.csv").exists()

    def test_config_that_is_not_utf8_text(self, tmp_path, capsys):
        # The decode error used to escape from load_config as a traceback (exit 1).
        out = run_bundle(tmp_path)
        config = out / "config.json"
        config.write_bytes(config.read_bytes().replace(b'"fps"', b'"fps\xff"', 1))
        message = self.run(["metrics", "--config", str(config)], capsys)
        assert message.startswith(f"config file is not utf-8 text: {config}")
        assert not (out / "metrics.csv").exists()

    def test_keypoint_field_not_a_number(self, tmp_path, capsys):
        # "u": "0" and "u": true went through float() and loaded as the number 0.0 and 1.0.
        out = run_bundle(tmp_path)
        keypoints = json.loads((out / "keypoints.json").read_text())
        for value in ("abc", "0", True):
            keypoints[2]["u"] = value
            (out / "keypoints.json").write_text(json.dumps(keypoints))
            message = self.run(["project", "--config", str(out / "config.json"), "--in",
                                str(out / "trajectories_S1.csv"), "--out", str(out / "world_S1.csv")], capsys)
            assert message.startswith("keypoint 2: field 'u' missing or not a number")
            assert not (out / "world_S1.csv").exists()


def write_hand_config(path: Path, segment_extra=None, **sections) -> Path:
    """One 1-lane segment, three cars at 10/15/20 m/s spaced 100+ m apart, 10 frames at 1 fps."""
    rows = ["frame,vehicle_id,x1,y1,x2,y2"]
    for vid, x0, v in (("a", 0.0, 10.0), ("b", 100.0, 15.0), ("c", 250.0, 20.0)):
        rows += [f"{f},{vid},{x0 + v * f - 2.0},-1.0,{x0 + v * f + 2.0},1.0" for f in range(10)]
    (path / "traj.csv").write_text("\n".join(rows) + "\n")
    segment = {"segment_id": "S1", "lane_count": 1, "length_m": 1000.0, "speed_limit": 30.0,
               "trajectories": "traj.csv", **(segment_extra or {})}
    config = {"fps": 1.0, "segments": [segment], "paths": {"metrics": "metrics.csv"},
              "intervals": {"count": 1, "window_seconds": 10.0, "stride_seconds": 10.0}}
    for name, extra in sections.items():
        config[name] = {**config.get(name, {}), **extra}
    target = path / "config.json"
    target.write_text(json.dumps(config))
    return target


def _segment(key, value):
    """A config edit setting ``key`` of the first segment to ``value``."""
    return lambda c: {**c, "segments": [{**c["segments"][0], key: value}]}


def _in(section, key, value):
    """A config edit setting ``key`` of ``section`` to ``value``."""
    return lambda c: {**c, section: {**c.get(section, {}), key: value}}


ANNOTATED = {"segments[0]": SegmentConfig, "cluster": ClusterConfig, "prep": TrackPrepConfig, "intervals": IntervalGrid,
             "trt": TrtConfig, "analysis": AnalysisConfig, "root": RunConfig, "scenario spec": ScenarioSpec}
ROOT_VALUES = ("fps", "seed", "anchor", "crash_years")  # the RunConfig fields the config's root sets


def wrong_values(kind) -> dict:
    """Values of the wrong type for a field of annotation ``kind``, by label.

    NaN, Infinity, a numeric string (unless a string is right), true and, for a fixed-length tuple, a list of
    right elements one short.
    """
    kind = typing.get_args(kind)[0] if isinstance(kind, types.UnionType) else kind  # X | None: X
    values = {"nan": math.nan, "infinity": math.inf, "numeric_string": "1", "true": True}
    if kind is str:
        del values["numeric_string"]
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple and ... not in args:
        values["one_short"] = [{int: 1, float: 1.0, str: "S1"}[a] for a in args[1:]]
    return values


ANNOTATION_CASES = [
    pytest.param(where, name, value, id=f"{where.replace(' ', '_')}-{name}-{label}")
    for where, cls in ANNOTATED.items()
    for name, kind in typing.get_type_hints(cls).items() if where != "root" or name in ROOT_VALUES
    for label, value in wrong_values(kind).items()
]


class TestConfigValidation:
    @pytest.mark.parametrize("where, name, value", ANNOTATION_CASES)
    def test_every_annotated_field_refuses_a_value_of_the_wrong_type(self, tmp_path, capsys, where, name, value):
        # Generated from the field annotations, so a new field is covered as it is added; a field whose annotation
        # the value rule does not know fails here with a KeyError (exit 1).
        if where == "scenario spec":
            (tmp_path / "spec.json").write_text(json.dumps({name: value}))
            argv = ["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]
        else:
            path = write_hand_config(tmp_path)
            edit = {"root": lambda c: {**c, name: value}, "segments[0]": _segment(name, value)}.get(
                where, _in(where, name, value))
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
            argv, where = ["metrics", "--config", str(path)], f"config {where}"
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"].startswith(f"{where} has a value of the wrong type: {name} must be ")
        assert err["message"].endswith(f", got {value!r}")
        assert not (tmp_path / "o").exists() and not (tmp_path / "metrics.csv").exists()

    def test_collision_point_reaches_metrics(self, tmp_path):
        # Leaders outrun followers, so only the collision point yields cluster TTCs.
        assert main(["metrics", "--config", str(write_hand_config(tmp_path))]) == 0
        (plain,) = metrics_rows(read_metrics_csv((tmp_path / "metrics.csv").read_text()))
        assert plain.ttc_cv is None
        config = write_hand_config(tmp_path, {"collision_point": [1000.0, 0.0]})
        assert main(["metrics", "--config", str(config)]) == 0
        (row,) = metrics_rows(read_metrics_csv((tmp_path / "metrics.csv").read_text()))
        per_frame = []
        for f in range(10):
            ttcs = np.array([(1000.0 - (x0 + v * f)) / v for x0, v in ((0.0, 10.0), (100.0, 15.0), (250.0, 20.0))])
            per_frame.append(ttcs.std(ddof=1) / ttcs.mean())  # one vehicle per cluster: rho = 1
        assert row.ttc_cv == pytest.approx(np.mean(per_frame), rel=1e-9)

    @pytest.mark.parametrize("section", ["cluster", "prep", "trt", "analysis", "intervals"])
    def test_unknown_section_key_exits_2(self, tmp_path, capsys, section):
        config = write_hand_config(tmp_path, **{section: {"bogus_key": 1}})
        assert main(["metrics", "--config", str(config)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert section in err["message"] and "bogus_key" in err["message"]

    def test_unknown_segment_key_exits_2(self, tmp_path, capsys):
        config = write_hand_config(tmp_path, {"lane_cnt": 3})
        assert main(["metrics", "--config", str(config)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert "segments[0]" in err["message"] and "lane_cnt" in err["message"]

    @pytest.mark.parametrize("edit, message", [
        (lambda c: {**c, "paths": {"metrcs": "m.csv"}}, "config paths has unknown key(s) ['metrcs']"),
        (lambda c: {**c, "intervls": c.pop("intervals")}, "config root has unknown key(s) ['intervls']"),
        (lambda c: {**c, "segmets": c.pop("segments")}, "config root has unknown key(s) ['segmets']"),
    ], ids=["paths", "intervals", "segments"])
    def test_unknown_root_or_paths_key_exits_2(self, tmp_path, capsys, edit, message):
        # Before the check these loaded as no metrics path, slot-aligned windows and no segments.
        path = write_hand_config(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["metrics", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("SchemaError", message)

    @pytest.mark.parametrize("section, values", [
        ("intervals", {"count": -1}),
        ("intervals", {"window_seconds": 0.0}),
        ("intervals", {"stride_seconds": 0.0}),
        ("prep", {"max_gap_frames": -1}),
        ("prep", {"sg_window": 20}),
        ("prep", {"sg_window": 3, "sg_order": 3}),
        ("prep", {"sg_order": -1}),
        ("prep", {"class_threshold_m": 0.0}),
        ("prep", {"min_displacement_m": -0.5}),
    ], ids=["count", "window_seconds", "stride_seconds", "max_gap_frames", "sg_window_even",
            "sg_window_not_above_order", "sg_order", "class_threshold_m", "min_displacement_m"])
    def test_out_of_range_value_exits_2_at_load(self, tmp_path, capsys, monkeypatch, section, values):
        # Before the check "stride_seconds": 0 exited 0 and repeated the first window.
        monkeypatch.setattr("netsafety.cli._prepare_segment_tracks", None)  # never reached
        assert main(["metrics", "--config", str(write_hand_config(tmp_path, **{section: values}))]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and err["message"].startswith(f"{section} need")
        assert not (tmp_path / "metrics.csv").exists()

    def test_window_without_a_frame_exits_2(self, tmp_path, capsys):
        # At 1 fps the window [0.3, 0.6) holds no frame instant: its coverage divided by zero (exit 1, traceback).
        config = write_hand_config(tmp_path, intervals={"count": 3, "window_seconds": 0.3, "stride_seconds": 0.3})
        assert main(["metrics", "--config", str(config)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ParameterError", "window [0.3, 0.6) holds no frame at 1.0 fps")
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("section, field, value", [
        ("intervals", "count", 2.5),
        ("intervals", "count", 2.0),
        ("intervals", "count", True),
        ("prep", "max_gap_frames", 15.5),
        ("prep", "sg_window", 5.0),
        ("prep", "sg_order", False),
        ("segments", "lane_count", 2.5),
        ("segments", "lane_count", True),
        ("analysis", "cv_folds", 2.5),
        ("analysis", "seed", 1.5),
        ("analysis", "slot_minutes", 10.0),
    ], ids=["count", "count_float", "count_bool", "max_gap_frames", "sg_window", "sg_order_bool", "lane_count",
            "lane_count_bool", "cv_folds", "analysis_seed", "slot_minutes"])
    def test_non_integer_value_exits_2_naming_the_field(self, tmp_path, capsys, monkeypatch, section, field, value):
        # Before the check "count": 2.5 and "sg_window": 5.0 crashed with a traceback (TypeError, IndexError),
        # and "lane_count": 2.5 ran as 2; so did `associate` on "cv_folds": 2.5 or an analysis "seed": 1.5.
        monkeypatch.setattr("netsafety.cli._prepare_segment_tracks", None)  # never reached
        if section == "segments":
            config = write_hand_config(tmp_path, {field: value})
        else:
            config = write_hand_config(tmp_path, **{section: {field: value}})
        assert main(["metrics", "--config", str(config)]) == 2
        err = json.loads(capsys.readouterr().err)
        context = "segments[0]" if section == "segments" else section
        assert (err["error"], err["message"]) == (
            "SchemaError", f"config {context} has a value of the wrong type: {field} must be an integer, got {value!r}"
        )

    @pytest.mark.parametrize("edit, context", [
        (lambda c: {**c, "fps": "abc"}, "config root"),
        (lambda c: {**c, "segments": [{**c["segments"][0], "lane_count": "two"}]}, "config segments[0]"),
        (lambda c: {**c, "segments": [{**c["segments"][0], "bbox": 5}]}, "config segments[0]"),
        (lambda c: {**c, "cluster": {"distance_threshold": "x"}}, "config cluster"),
        (lambda c: {**c, "analysis": {"families": 5}}, "config analysis"),
        (lambda c: {**c, "paths": []}, "config root"),
        (lambda c: {**c, "paths": "metrics.csv"}, "config root"),
        (lambda c: [1], "config root"),
    ], ids=["fps", "lane_count", "bbox", "cluster", "analysis", "paths", "paths_string", "root"])
    def test_wrong_typed_value_exits_2(self, tmp_path, capsys, edit, context):
        path = write_hand_config(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["metrics", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"].startswith(context)

    @pytest.mark.parametrize("edit, context, message", [
        (_segment("travel_axis", [1]), "segments[0]", "travel_axis must be a list of 2 numbers, got [1]"),
        (_segment("collision_point", [1]), "segments[0]", "collision_point must be a list of 2 numbers, got [1]"),
        (_segment("bbox", [0, 0, 1]), "segments[0]", "bbox must be a list of 4 numbers, got [0, 0, 1]"),
        (_segment("bbox", ["a", 0, 1, 2]), "segments[0]", "bbox must be a number, got 'a'"),
        (_segment("osr_thresholds", "1"), "segments[0]",
         "osr_thresholds must be a list of any count of numbers, got '1'"),
        (_segment("travel_axis", [1, True]), "segments[0]", "travel_axis must be a number, got True"),
        (lambda c: {**c, "anchor": [33.4]}, "root", "anchor must be a list of 2 numbers, got [33.4]"),
        (lambda c: {**c, "crash_years": [2021]}, "root", "crash_years must be a list of 2 numbers, got [2021]"),
        (lambda c: {**c, "crash_years": "ab"}, "root", "crash_years must be a list of 2 numbers, got 'ab'"),
        (lambda c: {**c, "crash_years": [2021, 2021.5]}, "root", "crash_years must be an integer, got 2021.5"),
        (lambda c: {**c, "trt": {"t_min_seconds": "5"}}, "trt", "t_min_seconds must be a number, got '5'"),
        (lambda c: {**c, "trt": {"free_flow": "fast"}}, "trt", "free_flow must be a number, got 'fast'"),
        (lambda c: {**c, "trt": {"theta": None}}, "trt", "theta must be a number, got None"),
        (lambda c: {**c, "fps": True}, "root", "fps must be a number, got True"),
        (lambda c: {**c, "fps": "4"}, "root", "fps must be a number, got '4'"),
        (lambda c: {**c, "seed": 1.5}, "root", "seed must be an integer, got 1.5"),
        (_segment("length_m", "500"), "segments[0]", "length_m must be a number, got '500'"),
        (_segment("speed_limit", True), "segments[0]", "speed_limit must be a number, got True"),
        (lambda c: {**c, "fps": math.nan}, "root", "fps must be a number, got nan"),
        (lambda c: {**c, "fps": math.inf}, "root", "fps must be a number, got inf"),
        (_in("intervals", "window_seconds", math.inf), "intervals", "window_seconds must be a number, got inf"),
        (_in("intervals", "stride_seconds", math.inf), "intervals", "stride_seconds must be a number, got inf"),
        (_in("intervals", "start_seconds", math.nan), "intervals", "start_seconds must be a number, got nan"),
        (_in("intervals", "start_seconds", "0"), "intervals", "start_seconds must be a number, got '0'"),
        (_segment("segment_id", 7), "segments[0]", "segment_id must be a string, got 7"),
        (lambda c: {**c, "anchor": [math.nan, 0.0]}, "root", "anchor must be a number, got nan"),
        (_segment("travel_axis", [math.nan, 1.0]), "segments[0]", "travel_axis must be a number, got nan"),
        (_segment("bbox", [math.nan, 0, 1, 1]), "segments[0]", "bbox must be a number, got nan"),
        (_segment("length_m", math.inf), "segments[0]", "length_m must be a number, got inf"),
        (_segment("speed_limit", math.inf), "segments[0]", "speed_limit must be a number, got inf"),
        (_in("cluster", "distance_threshold", math.nan), "cluster", "distance_threshold must be a number, got nan"),
        (_in("cluster", "membership_rate", math.inf), "cluster", "membership_rate must be a number, got inf"),
        (_in("trt", "free_flow", math.nan), "trt", "free_flow must be a number, got nan"),
        (_in("prep", "class_threshold_m", math.inf), "prep", "class_threshold_m must be a number, got inf"),
        (_in("prep", "min_displacement_m", math.inf), "prep", "min_displacement_m must be a number, got inf"),
        (_in("analysis", "exclude_slots", [["S1", 2.7]]), "analysis", "exclude_slots must be an integer, got 2.7"),
        (_in("paths", "metrics", 5), "root", "paths.metrics must be a string, got 5"),
        (_segment("trajectories", ["traj.csv"]), "segments[0]", "trajectories must be a string, got ['traj.csv']"),
    ], ids=["travel_axis", "collision_point", "bbox_short", "bbox_string", "osr_thresholds_string", "travel_axis_bool",
            "anchor", "crash_years_short", "crash_years_string", "crash_years_float", "t_min_seconds", "free_flow",
            "theta", "fps_bool", "fps_string", "seed_float", "length_m_string", "speed_limit_bool", "fps_nan",
            "fps_infinity", "window_seconds_infinity", "stride_seconds_infinity", "start_seconds_nan",
            "start_seconds_string", "segment_id_number", "anchor_nan", "travel_axis_nan", "bbox_nan",
            "length_m_infinity", "speed_limit_infinity", "distance_threshold_nan", "membership_rate_infinity",
            "free_flow_nan", "class_threshold_m_infinity", "min_displacement_m_infinity", "exclude_slots_fraction",
            "paths_number", "trajectories_list"])
    def test_malformed_list_or_number_exits_2_naming_the_key(self, tmp_path, capsys, edit, context, message):
        # Before the check the lists raised IndexError, ValueError or TypeError in metrics or associate (exit 1,
        # traceback), as did the trt strings in metrics; "osr_thresholds": "1" ran as (1.0,). The root's fps and
        # seed and a segment's length_m and speed_limit were converted: "fps": true ran as 1.0 fps, "seed": 1.5 as 1.
        # A NaN or infinite fps, window_seconds or stride_seconds and a NaN or string start_seconds exited 1 with a
        # traceback; the other NaN and infinite values ran (exit 0), "segment_id": 7 lost every crash of its
        # segment (no_crash_data), and the exclude_slots slot 2.7 ran as slot 2. A path that is no string exited 2
        # with pathlib's message, which named no key.
        path = write_hand_config(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        for command in ("metrics", "associate"):
            assert main([command, "--config", str(path)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert (err["error"], err["message"]) == ("SchemaError", f"config {context} has a value of the wrong type: "
                                                                     f"{message}")
        assert not (tmp_path / "metrics.csv").exists()

    def test_integer_fps_loads_as_a_float(self, tmp_path):
        path = write_hand_config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "fps": 30}))
        fps = load_config(path).fps
        assert fps == 30.0 and type(fps) is float

    def test_repeated_segment_id_exits_2_naming_it(self, tmp_path, capsys):
        # Both segments ran as S1: metrics exited 0 with two S1 row sets, each from the second segment's file.
        out = run_bundle(tmp_path)
        config = out / "config.json"
        obj = json.loads(config.read_text())
        obj["segments"][1]["segment_id"] = "S1"
        config.write_text(json.dumps(obj))
        for command in ("metrics", "associate"):
            assert main([command, "--config", str(config)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert (err["error"], err["message"]) == ("SchemaError", "config segments[1] repeats segment_id 'S1'")
        assert not (out / "metrics.csv").exists() and not (out / "association_report.json").exists()

    @pytest.mark.parametrize("analysis, error, message", [
        # An empty list crashed associate with a ZeroDivisionError traceback (exit 1).
        ({"predictors": []}, "ParameterError", "predictors must name at least one metric column"),
        # A repeated predictor exited 0 with a shapley.csv of two ivvr columns from a one-key phi.
        ({"predictors": ["ivvr", "ivvr"]}, "ParameterError", "predictors name ['ivvr'] more than once"),
        # A string was split into characters: "ivvr" read as the unknown metric column 'i'.
        *(({key: value}, "SchemaError", f"config analysis has a value of the wrong type: {key} must be a list of any "
                                        f"count of strings, got {value!r}")
          for key, value in (("families", "AllType"), ("methods", "pearson"), ("predictors", "ivvr"))),
    ], ids=["empty-predictors", "repeated-predictor", "families-string", "methods-string", "predictors-string"])
    def test_analysis_list_exits_2_naming_the_key(self, tmp_path, capsys, analysis, error, message):
        out = run_bundle(tmp_path)
        config = out / "config.json"
        assert main(["metrics", "--config", str(config)]) == 0
        obj = json.loads(config.read_text())
        obj["analysis"].update(analysis)
        config.write_text(json.dumps(obj))
        assert main(["associate", "--config", str(config)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == (error, message)
        assert not (out / "association_report.json").exists()

    @pytest.mark.parametrize("entry, error, message", [
        (["S9", 0], "SchemaError", "config analysis exclude_slots entry ['S9', 0] names no segment of the config"),
        (["S1", 999], "ParameterError", "exclude_slots entry ['S1', 999] needs 0 <= slot < 144"),
        (["S1", -1], "ParameterError", "exclude_slots entry ['S1', -1] needs 0 <= slot < 144"),
    ], ids=["unknown-segment", "slot-past-the-day", "negative-slot"])
    def test_exclude_slots_entry_that_excludes_nothing_exits_2_naming_it(self, tmp_path, capsys, entry, error, message):
        # Each ran (exit 0) and excluded no row: build_dataset skips an entry outside the metrics table's slots.
        config = write_hand_config(tmp_path, analysis={"exclude_slots": [["S1", 0], entry]})
        for command in ("metrics", "associate"):
            assert main([command, "--config", str(config)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert (err["error"], err["message"]) == (error, message)

    @pytest.mark.parametrize("anchor", [[100.0, 0.0], [-90.0, 0.0], [0.0, 180.5]], ids=["lat_100", "lat_-90", "lon_180.5"])
    def test_anchor_off_the_globe_exits_2(self, tmp_path, capsys, anchor):
        # "anchor": [100, 0] exited 0 from associate, placing crashes through cos(100 degrees).
        path = write_hand_config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "anchor": anchor}))
        for command in ("metrics", "associate"):
            assert main([command, "--config", str(path)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert (err["error"], err["message"]) == (
                "ParameterError", f"anchor needs -90 < lat < 90 and -180 <= lon <= 180, got {tuple(anchor)}")
        assert not (tmp_path / "metrics.csv").exists()

    def test_refresh_stride_beyond_the_span_refreshes_once_per_window(self, tmp_path):
        # A membership_rate of 1e-300 Hz made a stride of 1e300 frames, which overflowed int64 (exit 1, traceback).
        # Any stride of at least the 10-frame span refreshes only at the window's first frame.
        tables = []
        for rate in (1e-300, 0.05):
            assert main(["metrics", "--config", str(write_hand_config(tmp_path, cluster={"membership_rate": rate}))]) == 0
            tables.append((tmp_path / "metrics.csv").read_text())
        assert tables[0] == tables[1]

    def test_window_frame_beyond_int64_exits_2_naming_the_window(self, tmp_path, capsys):
        # At 1e300 fps the window's end frame overflowed int64 in compute_interval_metrics (exit 1, traceback).
        path = write_hand_config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "fps": 1e300}))
        assert main(["metrics", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == (
            "ParameterError", "window [0.0, 10.0) has a frame index beyond int64 at 1e+300 fps")
        assert not (tmp_path / "metrics.csv").exists()


@pytest.fixture(scope="module")
def metrics_bundle(tmp_path_factory):
    """A synth bundle with its metrics.csv."""
    out = run_bundle(tmp_path_factory.mktemp("metrics_bundle"))
    assert main(["metrics", "--config", str(out / "config.json")]) == 0
    return out


class TestAssociateCommand:
    @pytest.mark.parametrize("command", ["associate", "shapley"])
    @pytest.mark.parametrize("name", ["osr_abc", "segment_id", "f_c", "osr", "t_start", "interval_start", "osr_2.0",
                                      "osr_1"])
    def test_predictor_that_is_no_metric_column_exits_2_naming_it(self, metrics_bundle, capsys, command, name):
        # osr_abc and segment_id exited 1 with a ValueError traceback, f_c and osr with a TypeError one;
        # t_start and interval_start ran as predictors, osr_1 as an alias of osr_1.0, and osr_2.0 (a threshold
        # metrics.csv lacks) exited 0 with every family "absent_metric".
        config = json.loads((metrics_bundle / "config.json").read_text())
        config["analysis"]["predictors"] = ["ivvr", name]
        path = metrics_bundle / f"config_{name}.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (json.loads(err)["error"], json.loads(err)["message"]) == (
            "SchemaError", f"unknown metric column {name!r}; the metrics table has {PLANT_KEYS[1:]}")
        assert out == "" and not (metrics_bundle / "association_report.json").exists()

    @pytest.mark.parametrize("command, override", [
        ("associate", None), ("associate", "--seed"), ("shapley", None), ("shapley", "--seed"),
    ])
    def test_negative_analysis_seed_exits_2_writing_nothing(self, metrics_bundle, tmp_path, capsys, command, override):
        # associate exited 1 with numpy's ValueError traceback, from the config's seed or --seed; shapley exited 0.
        config = json.loads((metrics_bundle / "config.json").read_text())
        config["analysis"]["seed"] = 5 if override else -1
        config["paths"] = {key: str(metrics_bundle / name) for key, name in config["paths"].items()}
        config["paths"]["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), *(["--seed", "-1"] if override else [])]
        assert main([*argv, *(["--out", str(tmp_path / "out" / "shapley.csv")] if command == "shapley" else [])]) == 2
        out, err = capsys.readouterr()
        assert (json.loads(err)["error"], json.loads(err)["message"]) == (
            "ParameterError", "analysis seed must be >= 0, got -1")
        assert out == "" and not (tmp_path / "out").exists()

    def test_end_to_end_report(self, tmp_path):
        out = run_bundle(tmp_path)
        config = out / "config.json"
        assert main(["metrics", "--config", str(config)]) == 0
        with warns_exactly(*RUN_BUNDLE_WARNINGS):
            assert main(["associate", "--config", str(config)]) == 0
        report = json.loads((out / "association_report.json").read_text())
        assert report["n_intervals"] == 12
        assert "AllType" in report["families"]
        for table in [
            "correlations.csv",
            "full_model.csv",
            "shapley.csv",
            "cross_segment_correlations.csv",
            "cross_segment_holdout.csv",
        ]:
            assert (out / table).exists()

    def test_format_json_only(self, tmp_path):
        out = run_bundle(tmp_path)
        config = out / "config.json"
        main(["metrics", "--config", str(config)])
        (out / "correlations.csv").unlink(missing_ok=True)
        with warns_exactly(*RUN_BUNDLE_WARNINGS):
            assert main(["associate", "--config", str(config), "--format", "json"]) == 0
        assert not (out / "correlations.csv").exists()
        assert (out / "association_report.json").exists()

    def test_more_folds_than_joined_rows_marks_the_full_model_insufficient(self, tmp_path):
        # 11 joined rows against 30 folds used to exit 2 with a ParameterError and no report.
        out = run_bundle(tmp_path)
        config = out / "config.json"
        obj = json.loads(config.read_text())
        obj["analysis"]["cv_folds"] = 30
        config.write_text(json.dumps(obj))
        assert main(["metrics", "--config", str(config)]) == 0
        with warns_exactly(few_rows(11)):
            assert main(["associate", "--config", str(config)]) == 0
        report = json.loads((out / "association_report.json").read_text())
        assert report["config"]["cv_folds"] == 30
        for entry in report["families"].values():
            assert entry["n_rows"] == 11
            assert entry["full_model"] == {"insufficient_data": "11 rows cannot fill 30 cross-validation folds"}
            assert "phi" in entry["shapley"]
        assert (out / "full_model.csv").read_text() == "family,f_pvalue,r2,adj_r2,n_mse_linear,n_mse_poisson\n"

    def test_fewer_than_two_folds_exits_2_at_load(self, tmp_path, capsys):
        assert main(["associate", "--config", str(write_hand_config(tmp_path, analysis={"cv_folds": 1}))]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ParameterError", "cv_folds must be at least 2, got 1")

    def test_each_family_is_joined_once(self, tmp_path, monkeypatch):
        # Cross-segment analysis used to join every family again per segment: 3 x (1 + 2) joins here.
        out = run_bundle(tmp_path)
        config = str(out / "config.json")
        assert main(["metrics", "--config", config]) == 0
        joined, build_dataset = [], association.build_dataset

        def counting_build_dataset(metrics, binning, family, *args):
            joined.append((len(metrics), family))
            return build_dataset(metrics, binning, family, *args)

        monkeypatch.setattr(association, "build_dataset", counting_build_dataset)
        with warns_exactly(*RUN_BUNDLE_WARNINGS):
            assert main(["associate", "--config", config]) == 0
        assert joined == [(12, "AllType"), (12, "RearEnd"), (12, "Sideswipe")]
        report = json.loads((out / "association_report.json").read_text())
        assert all("holdout" in report["cross_segment"][family] for family in ("AllType", "RearEnd", "Sideswipe"))

    def test_shapley_command_writes_table(self, tmp_path):
        out = run_bundle(tmp_path)
        config = out / "config.json"
        main(["metrics", "--config", str(config)])
        target = out / "shap.csv"
        assert main(["shapley", "--config", str(config), "--out", str(target)]) == 0
        assert target.read_text().startswith("family,")

    def test_shapley_command_matches_associate_without_cv_or_cross_segment(self, tmp_path, monkeypatch):
        out = run_bundle(tmp_path)
        config = str(out / "config.json")
        assert main(["metrics", "--config", config]) == 0
        with warns_exactly(*RUN_BUNDLE_WARNINGS):
            assert main(["associate", "--config", config, "--format", "both"]) == 0

        def not_for_shapley(*args, **kwargs):
            raise AssertionError("netsafety shapley ran more than the Shapley attribution")

        monkeypatch.setattr(association, "kfold_cv", not_for_shapley)
        monkeypatch.setattr(association, "cross_segment_analysis", not_for_shapley)
        target = out / "shap.csv"
        assert main(["shapley", "--config", config, "--out", str(target)]) == 0
        assert target.read_bytes() == (out / "shapley.csv").read_bytes()
        assert len(target.read_text().splitlines()) > 1


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        spec_path = write_spec(tmp_path, seed=23)
        outputs = {}
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
            config = out / "config.json"
            for sid in ("S1", "S2"):
                assert main(
                    ["project", "--config", str(config), "--in", str(out / f"trajectories_{sid}.csv"),
                     "--out", str(out / f"world_{sid}.csv")]
                ) == 0
            assert main(["metrics", "--config", str(config)]) == 0
            with warns_exactly(few_rows(10), constant_fold(3), *map(skipped_poisson_fold, (1, 3, 4))):
                assert main(["associate", "--config", str(config)]) == 0
            outputs[run] = {
                name: (out / name).read_bytes()
                for name in [
                    "metrics.csv",
                    "association_report.json",
                    "correlations.csv",
                    "full_model.csv",
                    "shapley.csv",
                    "world_S1.csv",
                ]
            }
        assert outputs["r1"] == outputs["r2"]


# sha256 of metrics.csv and every associate output for two seed-1 bundles, pinned while the metrics
# still went through one row object per window: a metric plant read at two OSR thresholds, and the
# network-style predictors (f_truck, volume and several osr_<theta>).
PINNED_BUNDLES = {
    "plant-two-osr": (
        {"n_segments": 2, "n_intervals": 12, "interval_seconds": 20.0,
         "beta_star": {"intercept": 1.5, "osr_1.0": 0.3, "ovvr": 0.2}},
        {"every_segment": {"osr_thresholds": [1.0, 1.1]}},
    ),
    "network-predictors": (
        {"n_segments": 3, "n_intervals": 16, "interval_seconds": 10.0, "flow_veh_per_min": [6.0, 14.0],
         "beta_star": {"intercept": 2.3, "osr_1.0": 0.18, "ovvr": 0.18, "ntc": 0.18}, "noise_kind": "gaussian"},
        {"every_segment": {"osr_thresholds": [1.0, 1.05, 1.1, 1.2]},
         "analysis": {"predictors": ["ivvr", "ovvr", "osr_1.0", "osr_1.05", "osr_1.1", "osr_1.2", "tci", "ntc",
                                     "f_truck", "volume"]}},
    ),
}
PINNED_DIGESTS = {
    "plant-two-osr": {
        "metrics.csv": "e538085cc6b4433b3b76ef390b7aadc387d2bf8e74f6ee761e3d74ab05766bf2",
        "association_report.json": "dd91c15c07e71e3967f6fc15a5e6576faf6d5c2af6e54fb9013d81e21d91392a",
        "correlations.csv": "8c77f3ae0c162c4918754b91d2608fa17846130fede8578ccfd75516c1dcf684",
        "full_model.csv": "69bbba96eca32a90faebf4365e2df9b39b1c8e7c3d7ba24014ba1f6a62a824a0",
        "shapley.csv": "efebdbaa70f78ded4c9427bf9a5d9adade47900116e6845405a5a484ecd8a24d",
        "cross_segment_correlations.csv": "177bda0dc7b084b845223e584d472270e03dea1c31cc2a740c1857503f1c42a9",
        "cross_segment_holdout.csv": "3b08c83a56c2494ce56c06fae0ea16129b8f5b47a6b5c9f4c29b8f6cf74331e8",
    },
    "network-predictors": {
        "metrics.csv": "f1f1f3c8adf22419ec6890c353f50f863d2208a033d061408aa1ddf7e8ee513c",
        "association_report.json": "abcaaacdbd3e7081b5e8ceef19f9eeb03b17ae19d64231caa8ab2748c14eeb9a",
        "correlations.csv": "77d9ea4da7d09e782141a465567a3330e84c6be939541f16defa1924300eaff8",
        "full_model.csv": "76fc1976a1b4ca18185d758a9efda1eeae78d906524b216308563ee410682115",
        "shapley.csv": "cf2b9ea69ec6f147e7fab40236409667eafa7a0f697ac25ea7c2a328c901f6d8",
        "cross_segment_correlations.csv": "38338f0372f9bd84e23c046145eddad9a5a7f5b8a2cbae0ca3c03715919348d8",
        "cross_segment_holdout.csv": "2e89d4a2fe786cc1da45aad47b3979068f828e7943957ec2d20f2c2ad9e64b2b",
    },
}


@pytest.mark.parametrize("bundle", sorted(PINNED_BUNDLES))
def test_metrics_and_association_bytes_are_pinned(tmp_path, bundle):
    spec, edits = PINNED_BUNDLES[bundle]
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "bundle"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(out), "--seed", "1"]) == 0
    config = json.loads((out / "config.json").read_text())
    for seg in config["segments"]:
        seg.update(edits["every_segment"])
    config["analysis"].update(edits.get("analysis", {}))
    (out / "config.json").write_text(json.dumps(config))
    with pytest.warns(UserWarning):  # the small bundles trip the small-sample warnings
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        assert main(["associate", "--config", str(out / "config.json"), "--format", "both"]) == 0
    names = ["metrics.csv", "association_report.json", "correlations.csv", "full_model.csv", "shapley.csv",
             "cross_segment_correlations.csv", "cross_segment_holdout.csv"]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    assert digests == PINNED_DIGESTS[bundle]


class TestFreedHeapRelease:
    def test_every_command_trims_the_heap_whatever_its_outcome(self, tmp_path, monkeypatch, capsys):
        pads = []
        monkeypatch.setattr(cli, "_MALLOC_TRIM", pads.append)
        run_bundle(tmp_path)
        assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
        assert pads == [0, 0]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_glibc_trim_is_found(self):
        assert cli._MALLOC_TRIM is not None
