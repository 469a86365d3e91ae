"""Invariance properties of the pipeline, checked on generated scenes.

Positions and speeds are dyadic rationals at 4 fps, so every time and position
is exact and a property can ask for byte-identical output. The closing rule is
checked on constructed two-vehicle frames at its edges. The association outputs
of a synth bundle do not depend on the order of the config's segments or of the
rows of ``metrics.csv``. The CSV writer's float cells are ``repr``'s, on any
float64 and on a fixed sweep of over a million.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from netsafety.cli import main
from netsafety.csvio import csv_text
from netsafety.network_metrics import SampleTable, VehicleCluster, cluster_ttc, read_metrics_csv
from netsafety.surrogate import PairState, drac, ttc
from netsafety.trajectories import TRAJECTORY_COLUMNS, VehicleClass

from oracles import csv_rows_oracle, metrics_rows
from test_network_metrics import assert_rows_match

FPS = 4.0
# No shrink phase: shrinking a failure of these four-command examples ran for minutes and
# grew the test process by ~2.5 MB/s; the first failing scene is reported as drawn.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=12, phases=[Phase.explicit, Phase.generate])


@st.composite
def scenes(draw):
    """Vehicles (start frame, frame count, x0, speed, lane, length) on a two-lane segment.

    A twinned vehicle drives beside another at the same position, so vehicles at
    equal positions, ordered by id, occur.
    """
    vehicle = st.tuples(
        st.integers(0, 24), st.integers(2, 48), st.integers(0, 160).map(lambda q: q / 2),
        st.integers(8, 120).map(lambda q: q / 4), st.integers(0, 1), st.sampled_from([4.5, 16.0]),
    )
    scene = []
    for v, twin in draw(st.lists(st.tuples(vehicle, st.booleans()), min_size=2, max_size=6)):
        scene += [v, (*v[:4], 1 - v[4], v[5])] if twin else [v]
    return scene


def trajectory_csv(scene, ids, shift=0) -> str:
    """One row per vehicle per frame, frames shifted by ``shift``, vehicles interleaved by frame."""
    rows = sorted(
        (start + j + shift, i, x0 + speed * j / FPS, lane * 3.5, length)
        for i, (start, n, x0, speed, lane, length) in enumerate(scene)
        for j in range(n)
    )
    frame, vid, x, y, length = zip(*rows)
    return csv_text(TRAJECTORY_COLUMNS, [
        list(frame), [ids[i] for i in vid], [a - b / 2 for a, b in zip(x, length)], [b - 1.0 for b in y],
        [a + b / 2 for a, b in zip(x, length)], [b + 1.0 for b in y],
    ])


def run(trajectories: str, start_seconds: float = 0.0) -> tuple[str, str]:
    """The ``metrics`` and ``ssm`` outputs for one segment's trajectory CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "traj.csv").write_text(trajectories)
        config = {
            "fps": FPS, "paths": {"metrics": "metrics.csv"},
            "segments": [{"segment_id": "S1", "lane_count": 2, "length_m": 300.0, "speed_limit": 20.0,
                          "trajectories": "traj.csv"}],
            "cluster": {"distance_threshold": 12.0},
            "intervals": {"count": 3, "window_seconds": 6.0, "stride_seconds": 6.0, "start_seconds": start_seconds},
        }
        (out / "config.json").write_text(json.dumps(config))
        assert main(["metrics", "--config", str(out / "config.json")]) == 0
        assert main(["ssm", "--config", str(out / "config.json"), "--in", str(out / "traj.csv"),
                     "--out", str(out / "ssm.csv")]) == 0
        return (out / "metrics.csv").read_text(), (out / "ssm.csv").read_text()


names = st.text(alphabet='Zab,"0', min_size=1, max_size=3)


@PROPERTY
@given(scene=scenes(), data=st.data())
def test_order_preserving_renaming_of_vehicle_ids(scene, data):
    ids = [f"v{i:02d}" for i in range(len(scene))]
    renamed = sorted(data.draw(st.lists(names, min_size=len(scene), max_size=len(scene), unique=True)))
    metrics, ssm = run(trajectory_csv(scene, ids))
    metrics_renamed, ssm_renamed = run(trajectory_csv(scene, renamed))
    assert metrics_renamed == metrics
    back = dict(zip(renamed, ids))
    header, *rows = csv.reader(io.StringIO(ssm_renamed))
    assert [header] + [[r[0], back[r[1]], back[r[2]], *r[3:]] for r in rows] == list(csv.reader(io.StringIO(ssm)))


@PROPERTY
@given(scene=scenes(), shift=st.integers(1, 100_000))
def test_whole_frame_time_shift(scene, shift):
    ids = [f"v{i}" for i in range(len(scene))]
    base = metrics_rows(read_metrics_csv(run(trajectory_csv(scene, ids))[0]))
    shifted = read_metrics_csv(run(trajectory_csv(scene, ids, shift), shift / FPS)[0])
    moved = [dataclasses.replace(m, t_start=m.t_start + shift / FPS, t_end=m.t_end + shift / FPS) for m in base]
    assert_rows_match(shifted, moved, rel=1e-12)


# Speed pairs at the edges of the closing rule; each is tried with either vehicle as the follower.
EDGE_SPEEDS = {
    "equal": (25.0, 25.0),
    "signed_zeros": (0.0, -0.0),
    "one_ulp": (float(np.nextafter(25.0, 26.0)), 25.0),
    "subnormal_difference": (float(np.nextafter(2.0**-1022, 1.0)), 2.0**-1022),  # two normal speeds 5e-324 apart
    "nan": (math.nan, 25.0),
}


@pytest.mark.parametrize("v_follower, v_leader", [
    pytest.param(*speeds[::order], id=f"{name}-{'ab' if order == 1 else 'ba'}")
    for name, speeds in EDGE_SPEEDS.items() for order in (1, -1)
])
def test_every_ttc_and_drac_agree_on_the_closing_rule(v_follower, v_leader):
    # One frame: the follower at axis position 0, its leader at 10.
    table = SampleTable(
        frame=np.zeros(2, dtype=np.int64), x=np.array([0.0, 10.0]), y=np.zeros(2), axis_pos=np.array([0.0, 10.0]),
        speed=np.abs([v_follower, v_leader]), axis_speed=np.array([v_follower, v_leader]), vid_code=np.arange(2),
        vids=["f", "l"], lengths=np.full(2, 4.5), classes=[VehicleClass.CAR] * 2)
    state = PairState(x_leader=10.0, x_follower=0.0, v_leader=v_leader, v_follower=v_follower)
    clusters = [VehicleCluster(frozenset("f"), (0.0, 0.0), v_follower),
                VehicleCluster(frozenset("l"), (10.0, 0.0), v_leader)]
    with np.errstate(over="ignore"):  # a subnormal closing speed gives an infinite TTC
        *_, pair_ttc = table.leader_pairs()
        ssm = table.ssm_columns(FPS)
        cluster_values = cluster_ttc(clusters, (1.0, 0.0)).cttc_values
    verdicts = {
        "leader_pairs": not np.isnan(pair_ttc[0]),
        "surrogate.ttc": ttc(state) is not None,
        "ssm ttc": not ssm["ttc"].mask[0],
        "cluster_ttc": len(cluster_values) == 1,
    }
    assert len(set(verdicts.values())) == 1, verdicts
    closing = verdicts["leader_pairs"]
    assert ssm["drac"][0] == drac(state)
    # drac is closing speed squared over the gap: 0 for a closing speed whose square underflows.
    assert (ssm["drac"][0] > 0) == (closing and (v_follower - v_leader) ** 2 > 0)


ASSOCIATION_FILES = ("association_report.json", "correlations.csv", "full_model.csv", "shapley.csv",
                     "cross_segment_correlations.csv", "cross_segment_holdout.csv")


def associate(bundle: Path, name: str, segments=None, metrics: str | None = None) -> dict[str, str]:
    """The association outputs of the bundle's config run into ``bundle/name``.

    ``segments`` replaces the config's segment list and re-runs ``metrics``; ``metrics`` is written as the
    metrics file instead.
    """
    config = json.loads((bundle / "config.json").read_text())
    config["paths"].update(metrics=f"{name}/metrics.csv", output_dir=name)
    config["segments"] = config["segments"] if segments is None else segments
    (bundle / name).mkdir(exist_ok=True)
    (bundle / f"{name}.json").write_text(json.dumps(config))
    argv = ["--config", str(bundle / f"{name}.json")]
    if metrics is not None:
        (bundle / name / "metrics.csv").write_text(metrics)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the small bundle trips the small-sample warnings
        if metrics is None:
            assert main(["metrics", *argv]) == 0
        assert main(["associate", *argv, "--format", "both"]) == 0
    return {f: (bundle / name / f).read_text() for f in ASSOCIATION_FILES}


@pytest.fixture(scope="module")
def association_bundle(tmp_path_factory):
    """A three-segment synth bundle and its association outputs: (bundle, outputs)."""
    tmp = tmp_path_factory.mktemp("association_order")
    spec = {"n_segments": 3, "n_intervals": 16, "interval_seconds": 10.0, "flow_veh_per_min": [6.0, 14.0],
            "beta_star": {"intercept": 2.3, "osr_1.0": 0.18, "ovvr": 0.18, "ntc": 0.18}, "noise_kind": "gaussian"}
    (tmp / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(tmp / "spec.json"), "--out", str(tmp / "bundle"), "--seed", "1"]) == 0
    return tmp / "bundle", associate(tmp / "bundle", "base")


@pytest.mark.parametrize("order", [(2, 1, 0), (1, 2, 0), (0, 2, 1)])
def test_config_segment_order_leaves_the_association_outputs(association_bundle, order):
    bundle, base = association_bundle
    segments = json.loads((bundle / "config.json").read_text())["segments"]
    name = "segments_" + "".join(map(str, order))
    got = associate(bundle, name, segments=[segments[i] for i in order])
    assert [f for f in ASSOCIATION_FILES if got[f] != base[f]] == []


@settings(derandomize=True, deadline=None, max_examples=6, phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_metrics_row_order_leaves_the_association_outputs(association_bundle, data):
    bundle, base = association_bundle
    header, *rows = (bundle / "base" / "metrics.csv").read_text().splitlines(keepends=True)
    got = associate(bundle, "rows", metrics=header + "".join(data.draw(st.permutations(rows))))
    assert [f for f in ASSOCIATION_FILES if got[f] != base[f]] == []


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cells=st.lists(st.tuples(st.floats(), st.floats(), st.booleans()), max_size=40))
def test_float_cells_are_repr_through_the_writer(cells):
    plain = np.array([a for a, _, _ in cells], dtype=np.float64)
    masked = np.ma.masked_array([b for _, b, _ in cells], mask=[m for _, _, m in cells], dtype=np.float64)
    # The oracle gets the masked cells as None.
    assert csv_text(["a", "b"], [plain, masked]) == csv_rows_oracle(["a", "b"], zip(plain, masked.tolist()))


def test_float_cells_are_repr_on_a_fixed_sweep():
    rng = np.random.default_rng(20260101)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{k}") for k in range(-323, 309)]])
    values = np.concatenate([
        rng.integers(0, 2**64, 2**19, dtype=np.uint64).view(np.float64),  # every class: nan, inf, subnormal, ...
        10 ** rng.uniform(-5, 17, 2**19) * rng.choice([-1.0, 1.0], 2**19),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
    ])
    assert values.size > 10**6
    mismatches = []
    for batch in np.array_split(values, 64):  # a few MB of text at a time
        want = list(map(repr, batch.tolist()))
        got = csv_text([], [batch]).split("\n")[:-1]
        mismatches += [(w, g) for w, g in itertools.zip_longest(want, got) if w != g]
    assert mismatches == []
