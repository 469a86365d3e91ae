"""Heap peaks of reading and writing one long segment, and of generating a bundle, as multiples of the text.

A command's transient memory should not hold several copies of its input: an input file is
read once as bytes, the reader keeps them, not a 4-byte-per-character stream, and the writers
format one chunk of rows at a time; ``synth`` drops the text it wrote before its plant pass.
Peaks are tracemalloc's, so numpy's buffers count and the allocator's layout does not.
"""

import tracemalloc
from pathlib import Path

import pytest

from netsafety import cli
from netsafety.config import read_input
from netsafety.synth import ScenarioSpec
from netsafety.trajectories import parse_trajectories


def heap_peak(fn):
    """``fn()``'s value and the most bytes traced at once while it runs, above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def segment(tmp_path_factory) -> Path:
    """A one-segment bundle of about 25k trajectory rows, with its world-frame file ``world.csv``."""
    out = tmp_path_factory.mktemp("memory")
    (out / "spec.json").write_text(ScenarioSpec(seed=3, n_segments=1, n_intervals=70).to_json())
    assert cli.main(["synth", "--spec", str(out / "spec.json"), "--out", str(out)]) == 0
    argv = ["project", "--config", str(out / "config.json"), "--in", str(out / "trajectories_S1.csv")]
    assert cli.main([*argv, "--out", str(out / "world.csv")]) == 0
    assert 23_000 < (out / "world.csv").read_text().count("\n") < 27_000
    return out


def test_read_peak_within_1_1x_the_input_file(segment):
    # The text used to be decoded to a str that the reader encoded back to bytes: 2.0 times the file.
    world = segment / "world.csv"
    data, peak = heap_peak(lambda: read_input(world))
    assert data == world.read_bytes()
    assert peak <= 1.1 * world.stat().st_size


def test_parse_peak_within_3_5x_the_text(segment):
    text = (segment / "world.csv").read_text()
    trajs, peak = heap_peak(lambda: parse_trajectories(text, 4.0))
    assert sum(t.frames.size for t in trajs) == text.count("\n") - 1
    assert peak <= 3.5 * len(text)


def test_ssm_peak_within_6x_the_input_file(segment):
    world = segment / "world.csv"
    argv = ["ssm", "--config", str(segment / "config.json"), "--in", str(world), "--out", str(segment / "ssm.csv")]
    code, peak = heap_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak <= 6 * world.stat().st_size


def test_project_peak_within_6x_the_input_file(segment):
    pixel = segment / "trajectories_S1.csv"
    argv = ["project", "--config", str(segment / "config.json"), "--in", str(pixel), "--out", str(segment / "w.csv")]
    code, peak = heap_peak(lambda: cli.main(argv))
    assert (code, (segment / "w.csv").read_bytes()) == (0, (segment / "world.csv").read_bytes())
    assert peak <= 6 * pixel.stat().st_size


def test_metric_plant_synth_peak_within_2_7x_the_text_it_writes(tmp_path):
    # The plant pass used to parse each segment's text back, with every segment's text still held: 3.2 times.
    spec = ScenarioSpec(seed=3, n_segments=3, n_intervals=40, beta_star={"intercept": 2.3, "ovvr": 0.18})
    (tmp_path / "spec.json").write_text(spec.to_json())
    argv = ["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0  # a first run also loads what every run loads once
    code, peak = heap_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak <= 2.7 * sum(path.stat().st_size for path in (tmp_path / "o").glob("trajectories_*.csv"))
