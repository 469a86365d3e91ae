import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from netsafety import csvio, trajectories
from netsafety.cli import main, write_output
from netsafety.config import load_config, read_input
from netsafety.csvio import csv_text, format_cell
from netsafety.errors import DataError, ParameterError, SchemaError
from netsafety.network_metrics import SampleTable
from netsafety.synth import ScenarioSpec
from netsafety.trajectories import (
    TrackPoint,
    TrackPrepConfig,
    VehicleClass,
    box_length_along_axis,
    classify_by_length,
    drop_static_objects,
    fill_gaps,
    parse_trajectories,
    prepare_tracks,
    serialize_trajectories,
    smooth_savitzky_golay,
)

from oracles import (
    csv_rows_oracle,
    displacement_oracle,
    fill_gaps_oracle,
    parse_trajectories_oracle,
    prepare_tracks_oracle,
    sg_window_fit_oracle,
    trajectory_table_of,
)

HEADER = "frame,vehicle_id,x1,y1,x2,y2\n"


def track_rows(frames_xy, vid="v1", size=2.0):
    return "".join(f"{f},{vid},{x - size / 2},{y - size / 2},{x + size / 2},{y + size / 2}\n" for f, x, y in frames_xy)


def make_traj(frames_xy, fps=1.0, vid="v1", size=2.0):
    """The one-vehicle table of a track given as (frame, centroid x, centroid y) points."""
    return parse_trajectories(HEADER + track_rows(frames_xy, vid, size), fps)


def exact(message: str) -> str:
    """A pytest.raises ``match`` pattern that only ``message`` itself matches."""
    return f"^{re.escape(message)}$"

class TestParse:
    def test_two_rows_one_vehicle(self):
        text = "frame,vehicle_id,x1,y1,x2,y2\n0,a,0,0,2,1\n1,a,1,0,3,1\n"
        trajs = parse_trajectories(text, fps=30.0)
        assert len(trajs) == 1
        assert [p.frame for p in trajs.points] == [0, 1]
        assert trajs.points[0].cx == 1.0

    def test_interleaved_vehicles_split_and_ordered(self):
        text = (
            "frame,vehicle_id,x1,y1,x2,y2\n"
            "0,a,0,0,1,1\n0,b,5,0,6,1\n1,b,6,0,7,1\n1,a,1,0,2,1\n"
        )
        trajs = parse_trajectories(text, fps=10.0)
        assert set(trajs.vehicle_ids) == {"a", "b"}
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
            ("0,a,0,0,1,1\nx,a,1,0,2,1\n", SchemaError, exact("line 3: column 'frame' is not an integer: 'x'")),
            ("0,a,0,0,1,1\n1,a,1,abc,2,1\n", SchemaError, exact("line 3: column 'y1' is not a number: 'abc'")),
            ("0,a,0,0,1,1\n1.5,a,1,0,2,1\n", SchemaError, exact("line 3: column 'frame' is not an integer: '1.5'")),
            ("0,a,0,0,1,1\n1, ,1,0,2,1\n", SchemaError, "line 3: empty vehicle_id"),
            ("0,a,0,0,1,1\n1,a,nan,0,2,1\n", SchemaError, exact("line 3: column 'x1' is not finite: 'nan'")),
            ("0,a,0,0,1,1\n1,a,1,0,inf,1\n", SchemaError, exact("line 3: column 'x2' is not finite: 'inf'")),
            ("0,a,0,0,1,1\n1,a,1,-inf,2,1\n", SchemaError, exact("line 3: column 'y1' is not finite: '-inf'")),
            ("0,a,0,0,1,1\n-1,b,1,0,2,1\n", DataError, "line 3: negative frame index -1"),
            ("0,a,0,0,1,1\n2,a,1,0,2,1\n2,a,2,0,3,1\n", DataError,
             r"vehicle 'a': non-monotone frame 2 after 2 \(line 4\)"),
            ("0,a,0,0,1,1\n\n   \n1,a,1,0,2\n", SchemaError, "line 5: expected 6 fields"),
            ("0,a,0,0,1,1\n99999999999999999999,a,1,0,2,1\n", SchemaError,
             exact("line 3: column 'frame' is not an integer: '99999999999999999999'")),
            ("0,a,0,0,1,1\n-9223372036854775809,a,1,0,2,1\n", SchemaError,
             exact("line 3: column 'frame' is not an integer: '-9223372036854775809'")),
            ("0,a,0,0,1,1\n1,a,nan,0,2,1\n99999999999999999999,a,1,0,2,1\n", SchemaError,
             exact("line 3: column 'x1' is not finite: 'nan'")),
            # np.loadtxt reads these as numbers: \x1c-\x1f as whitespace, and a non-Latin-1 character
            # in an integer cell through C's isdigit
            ("0,a,0,0,1,1\n1\x1f,a,1,0,2,1\n", SchemaError,
             exact("line 3: column 'frame' is not an integer: '1\\x1f'")),
            ("0,a,0,0,1,1\n1,a,\x1c1,0,2,1\n", SchemaError, exact("line 3: column 'x1' is not a number: '\\x1c1'")),
            ("0,a,0,0,1,1\n1\U0009c6ca,a,1,0,2,1\n", SchemaError,
             exact("line 3: column 'frame' is not an integer: '1\\U0009c6ca'")),
        ],
    )
    def test_malformed_row_names_line(self, body, error, match):
        with pytest.raises(error, match=match):
            parse_trajectories(HEADER + body, fps=30.0)

    def test_first_faulty_line_is_reported(self):
        with pytest.raises(SchemaError, match=exact("line 3: column 'x1' is not finite: 'nan'")):
            parse_trajectories(HEADER + "0,a,0,0,1,1\n1,a,nan,0,2,1\n2,a,1,0\n", fps=30.0)

    def test_whitespace_only_rows_skipped(self):
        text = HEADER + "0,a,0,0,1,1\n\n  \n , , , , , \n,,\n1,a,1,0,2,1\n"
        (traj,) = parse_trajectories(text, fps=30.0)
        assert traj.frames.tolist() == [0, 1]

    def test_header_columns_in_another_order(self):
        text = HEADER + "0,a,0,0,1,1\n0,b,5,1,7,3\n1,a,1,0,2,1\n"
        shuffled = "y2,vehicle_id,extra,x2,frame,x1,y1\n1,a,q,1,0,0,0\n3,b,q,7,0,5,1\n1,a,q,2,1,1,0\n"
        for a, b in zip(parse_trajectories(text, 30.0), parse_trajectories(shuffled, 30.0), strict=True):
            assert a.vehicle_ids == b.vehicle_ids
            np.testing.assert_array_equal(a.frames, b.frames)
            np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_arrays_normalized_in_first_appearance_order(self):
        text = HEADER + "4,b,3,9,1,8\n0,a,0,0,1,1\n5,b,1,8,3,9\n2,a,1,0,2,1\n"
        b, a = parse_trajectories(text, fps=2.0)
        assert (b.vehicle_ids, a.vehicle_ids) == (["b"], ["a"])
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
            assert t1.vehicle_ids == t2.vehicle_ids
            for p1, p2 in zip(t1.points, t2.points):
                assert (p1.frame, p1.x1, p1.y1, p1.x2, p1.y2) == (p2.frame, p2.x1, p2.y1, p2.x2, p2.y2)


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def trajectory_texts(draw):
    """Trajectory CSV text, mostly well formed, with the odd rows and cells a file can hold.

    The required columns come in any order, with extra columns and padded header cells.
    Ids hold commas, quotes, newlines, ``#``, leading spaces, a separator character or a
    non-ASCII one. Rows may be blank,
    whitespace-only, all-empty, short or long; cells may be non-finite, negative,
    malformed or quoted; a vehicle's frames may repeat or go back. Lines end in LF or
    CRLF. Frames stay inside int64.
    """
    columns = draw(st.permutations(["frame", "vehicle_id", "x1", "y1", "x2", "y2",
                                    *draw(st.lists(st.sampled_from(["note", "lane"]), max_size=2))]))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    lines = [",".join(pad + c + pad for c in columns)]
    ids = [draw(st.sampled_from(["é", "b\x1d"])) if draw(st.integers(0, 14)) == 0 else
           draw(st.text(alphabet=' a,"\n#7', min_size=1, max_size=4)) for _ in range(draw(st.integers(1, 4)))]
    last: dict[int, int] = {}
    odd = st.sampled_from(["nan", "inf", "-inf", "abc", "", " ", "1_0", "1.5", "+3", " 4 ", "٣", "0x1p3", "1e999",
                           "1\x1f", "\x1c2", "2\u00b2", "\u00a03"])
    for _ in range(draw(st.sampled_from(range(13)))):
        kind = draw(st.sampled_from(["row"] * 14 + ["blank", "spaces", "empty_cells", "short", "short", "long"]))
        if kind in ("blank", "spaces", "empty_cells"):
            lines.append({"blank": "", "spaces": "   ", "empty_cells": "," * (len(columns) - 1)}[kind])
            continue
        k = draw(st.integers(0, len(ids) - 1))
        last[k] = frame = last.get(k, draw(st.sampled_from([0, 0, 5, 5, -2, 2**63 - 100]))) + draw(
            st.sampled_from([1] * 12 + [2, 7, 0, -1]))
        cells = {
            "frame": draw(st.one_of(st.just(str(frame)), odd)) if draw(st.integers(0, 29)) == 0 else str(frame),
            "vehicle_id": ids[k],
            "note": draw(st.text(alphabet='x,"# \n', max_size=3)),
            "lane": draw(st.sampled_from(["1", "", "#"])),
        }
        for c in ("x1", "y1", "x2", "y2"):
            value = draw(st.floats(-1e6, 1e6, allow_nan=False))
            cells[c] = draw(odd) if draw(st.integers(0, 59)) == 0 else repr(value)
        row = [cells[c] for c in columns]
        row = [_quoted(c) if any(ch in c for ch in ',"\n') or draw(st.integers(0, 9)) == 0 else c for c in row]
        if kind == "short":
            row = row[: len(row) - draw(st.sampled_from([1, 1, 2, len(row) - 1]))]
        if kind == "long":
            row.append(draw(st.sampled_from(["", "9", "x,y"])))
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def parsed_vehicles(text, fps):
    """parse_trajectories' table as the oracle gives it: ``(vehicle_id, frames, boxes)`` per vehicle."""
    table = parse_trajectories(text, fps)
    assert table.fps == fps
    return [(vid, t.frames, t.boxes) for vid, t in zip(table.vehicle_ids, table, strict=True)]


def _outcome(parse, text):
    """A parse's vehicles, bit for bit, or its error's class and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vehicles = parse(text, 4.0)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the error itself
        return type(exc), str(exc)
    return [(vid, f.dtype, f.shape, f.tobytes(), b.dtype, b.shape, b.tobytes()) for vid, f, b in vehicles]


class TestParseAgainstRowLoop:
    @settings(derandomize=True, deadline=None, max_examples=400, phases=[Phase.explicit, Phase.generate])
    @given(text=trajectory_texts())
    @example(text=HEADER.replace("y2", "y2,note") + "0,a,0,0,1,1,x\n1,a,1,0,2,1\n")  # short by a column loadtxt skips
    @example(text=HEADER + '0,"#a\n, ""b""",0,0,1,1\n1,"#a\n, ""b"" ",1,0,2,1\n')  # a quoted id spans lines
    def test_same_trajectories_or_same_error(self, text):
        assert _outcome(parsed_vehicles, text) == _outcome(parse_trajectories_oracle, text)

    def test_frames_at_the_int64_bounds(self):
        (traj,) = parse_trajectories(HEADER + "0,a,0,0,1,1\n9223372036854775807,a,1,0,2,1\n", 4.0)
        assert traj.frames.tolist() == [0, 2**63 - 1]

    @staticmethod
    def fifty_vehicles(last_id):
        """The text of 20,000 rows of 50 interleaved vehicles, the last one ``last_id``, with each row's vehicle
        code, frame and corners as written."""
        code = np.arange(20_000) % 50
        frames, corners = np.arange(20_000) // 50, np.random.default_rng(5).normal(0, 99, (4, 20_000))
        vids = csvio.CodedColumn([f"v{i}" for i in range(49)] + [last_id], code)
        return csv_text(trajectories.TRAJECTORY_COLUMNS, [frames, vids, *corners]), code, frames, corners

    def test_clean_text_is_read_without_the_row_loop(self, monkeypatch):
        text, *_ = self.fifty_vehicles("a,b")  # one id quoted
        want = _outcome(parse_trajectories_oracle, text)
        monkeypatch.setattr(csvio.CsvRecords, "read", lambda self, dtype: pytest.fail("read row by row"))
        assert _outcome(parsed_vehicles, text) == want
        assert len(want) == 50

    # UTF-8 whose continuation bytes latin-1 reads as whitespace (\x85, \xa0), 3- and 4-byte characters,
    # and ids that strip to a shorter one only as Unicode text
    @pytest.mark.parametrize("last_id", ["é", "à,Å", "v\u00a0", "\u0085x", "路口 7", "\U0001f697\u3000"])
    def test_non_ascii_ids_read_back_as_written(self, last_id):
        text, code, frames, corners = self.fifty_vehicles(last_id)
        table = parse_trajectories(text, 4.0)
        assert table.vehicle_ids == [f"v{i}" for i in range(49)] + [last_id.strip()]
        by_vehicle = np.argsort(code, kind="stable")
        (x1, x2), (y1, y2) = np.sort(corners[[0, 2]], axis=0), np.sort(corners[[1, 3]], axis=0)
        assert table.bounds.tolist() == list(range(0, 20_001, 400))
        assert table.frames.tobytes() == frames[by_vehicle].tobytes()
        assert table.boxes.tobytes() == np.column_stack([x1, y1, x2, y2])[by_vehicle].tobytes()

    def test_bytes_that_are_not_utf8_raise_as_in_the_row_loop(self):
        with pytest.raises(UnicodeDecodeError):  # loadtxt would take the lone \xa0 for whitespace
            parse_trajectories(HEADER.encode() + b"0,a,0,0,1,1\xa0\n", 4.0)

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n", ",,,,,\n", "\t\n"])
    def test_header_only_reads_no_rows_without_warning(self, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = parse_trajectories(HEADER + body, 4.0)
        assert len(table) == 0 and table.frames.size == 0


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
        masked = np.ma.masked_array([0.1, 1.5, np.nan, 0.0, -0.0, np.inf, 3.0], mask=[1, 0, 1, 0, 0, 0, 1])
        header = ["id", "mixed", "float, with comma", "int", "absent", "masked"]
        # The oracle gets the masked cells as None.
        assert csv_text(header, [*columns, masked]) == csv_rows_oracle(header, zip(*columns, masked.tolist()))

    def test_coded_column_formats_each_label_once(self, monkeypatch):
        labels = ["plain", "a,b", 'say "hi"', "two\nlines", " leading"]
        codes = np.array([0, 1, 1, 3, 2, 4, 0, 2])
        want = csv_rows_oracle(["id", "n"], [(labels[c], c) for c in codes.tolist()])
        formatted = []
        monkeypatch.setattr(csvio, "format_cell", lambda value: formatted.append(value) or format_cell(value))
        assert csv_text(["id", "n"], [csvio.CodedColumn(labels, codes), codes]) == want
        assert formatted == labels + ["id", "n"]

    def test_coded_column_formats_each_label_once_across_chunks(self, monkeypatch):
        monkeypatch.setattr(csvio, "CSV_CHUNK_ROWS", 3)  # the table's 8 rows span 3 chunks
        self.test_coded_column_formats_each_label_once(monkeypatch)

    def test_empty_header_writes_data_lines_only(self):
        columns = [np.array([1, 2]), ["a", "b"]]
        assert csv_text([], columns) == "1,a\n2,b\n"
        assert csv_text(["n", "id"], [np.array([], dtype=np.int64), []]) == "n,id\n"

    def test_quoted_ids_round_trip(self):
        trajs = trajectory_table_of([
            (vid, np.arange(k, k + 3), np.arange(12, dtype=float).reshape(3, 4) + k)
            for k, vid in enumerate(["a,b", 'say "hi"', "two\nlines"])
        ], 4.0)
        back = parse_trajectories(serialize_trajectories(trajs), fps=4.0)
        assert back.vehicle_ids == trajs.vehicle_ids
        for t1, t2 in zip(trajs, back):
            assert np.array_equal(t1.frames, t2.frames) and np.array_equal(t1.boxes, t2.boxes)


def _edge_floats() -> np.ndarray:
    """Floats at the float cell kernel's edges: zeros, non-finite, subnormal, its range's ends, powers of two with
    both neighbours, and k/30."""
    powers = 2.0 ** np.arange(-60, 60, 7)
    return np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-4, np.nextafter(1e-4, 0), 9.999999999999999e15, 1e16],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers, np.arange(-60, 61) / 30,
    ])


class TestWriteCsv:
    C = csvio.CSV_CHUNK_ROWS

    @pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C + 1])
    def test_file_bytes_equal_csv_text_at_chunk_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        labels = ["plain", "a,b", 'say "hi"', "two\nlines", " leading", "a\x00b", "路口 7"]
        codes = rng.integers(0, len(labels), n)
        edges = _edge_floats()
        floats = np.concatenate([edges, rng.normal(0, 1e3, n)])[:n]
        hidden = rng.random(n) < 0.3  # the masked cells hold the edge floats
        masked = np.ma.masked_array(np.where(hidden, np.resize(edges, n), rng.normal(size=n)), mask=hidden)
        ints = np.concatenate([[-(2**63), 2**63 - 1, 0, -1], rng.integers(-(10**12), 10**12, n)])[:n]
        generic = [None if i % 3 == 0 else i / 7 if i % 3 == 1 else f"g,{i}" for i in range(n)]
        header = ["float", "masked", "int", "id", "generic"]
        columns = [floats, masked, ints, csvio.CodedColumn(labels, codes), generic]
        write_output(tmp_path / "t.csv", csvio.csv_chunks(header, columns))
        # The oracle gets the masked cells as None.
        want = csv_rows_oracle(header, zip(floats, masked.tolist(), ints, [labels[c] for c in codes], generic))
        assert (tmp_path / "t.csv").read_bytes() == csv_text(header, columns).encode() == want.encode()


def test_float_cells_decide_every_default_bundle_world_and_ssm_cell_the_rule_names(tmp_path):
    # repr formats only the cells its rule names here: none of these sits at an interval end or a tie.
    (tmp_path / "spec.json").write_text(ScenarioSpec().to_json())
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path)]) == 0
    cfg = load_config(tmp_path / "config.json")
    cells = named = fallbacks = 0
    for seg in cfg.segments:
        world = tmp_path / f"world_{seg.segment_id}.csv"
        argv = ["project", "--config", str(tmp_path / "config.json"), "--out", str(world)]
        assert main([*argv, "--in", str(tmp_path / f"trajectories_{seg.segment_id}.csv")]) == 0
        table = parse_trajectories(read_input(world), cfg.fps)
        ssm = SampleTable.build(prepare_tracks(table, seg.unit_axis, cfg.prep), seg.unit_axis).ssm_columns(cfg.fps)
        for column in [*table.boxes.T, *(c for c in ssm.values() if not isinstance(c, csvio.CodedColumn))]:
            values, absent = np.ma.getdata(column), np.ma.getmaskarray(column)
            size = np.abs(values)
            cells += values.size
            named += np.sum(~absent & ~((size == 0) | (size >= 1e-4) & (size < 1e16)))  # NaN, inf, tiny, huge
            fallbacks += csvio.float_cells(values, absent)[2]
    assert cells > 10**6
    assert fallbacks == named


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


@st.composite
def vehicle_tables(draw):
    """``(vehicle_id, frames, boxes)`` vehicles of 1-8 rows for one table, a max_gap and a minimum displacement.

    Steps between rows are 1, exactly max_gap + 1 (a gap of max_gap, filled), max_gap + 2
    (one frame more, left open) or other; max_gap may be 0. A vehicle's first frame may be
    at or below the last one's, so steps across vehicles are of any sign. The minimum
    displacement may equal a vehicle's own.
    """
    max_gap = draw(st.sampled_from([0, 0, 1, 2, 15]))
    coordinate = st.floats(-1e4, 1e4, allow_nan=False, width=64)
    vehicles = []
    for v in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 8))
        steps = draw(st.lists(st.sampled_from([1, 1, max_gap + 1, max_gap + 2, 3, 40]), min_size=n - 1, max_size=n - 1))
        frames = np.cumsum([draw(st.integers(0, 60)), *steps])
        boxes = np.array(draw(st.lists(st.tuples(*[coordinate] * 4), min_size=n, max_size=n)), dtype=float)
        vehicles.append((f"v{v}", frames, boxes))
    threshold = draw(st.one_of(st.sampled_from([0.0, 2.0, 500.0]),
                               st.sampled_from(vehicles).map(lambda v: displacement_oracle(v[2]))))
    return vehicles, max_gap, threshold


def _bits(vehicles):
    """``(vehicle_id, frames, boxes)`` vehicles bit for bit, frames as int64 and boxes as (n, 4) floats."""
    return [(vid, np.asarray(f, dtype=np.int64).tobytes(), np.asarray(b, dtype=float).reshape(-1, 4).tobytes())
            for vid, f, b in vehicles]


def _table_bits(table):
    assert table.fps == 4.0 and table.frames.dtype == np.int64 and table.boxes.dtype == float
    return _bits((vid, t.frames, t.boxes) for vid, t in zip(table.vehicle_ids, table, strict=True))


class TestWholeTablePasses:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(drawn=vehicle_tables())
    def test_match_the_per_vehicle_oracles_bitwise(self, drawn):
        vehicles, max_gap, threshold = drawn
        kept = drop_static_objects(trajectory_table_of(vehicles, 4.0), min_displacement_m=threshold)
        want = [(vid, f, b) for vid, f, b in vehicles if displacement_oracle(b) >= threshold]
        assert _table_bits(kept) == _bits(want)

        filled, flagged = fill_gaps(trajectory_table_of(vehicles, 4.0), max_gap=max_gap)
        want = [(vid, *fill_gaps_oracle(f, b, max_gap)) for vid, f, b in vehicles]
        assert flagged == [flag for *_, flags in want for flag in flags]  # in row order
        assert _table_bits(filled) == _bits((vid, f, rows) for vid, f, rows, _ in want)


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
    (track,) = prepare_tracks(traj, (1.0, 0.0), TrackPrepConfig(min_displacement_m=0.0))
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
        assert box_length_along_axis(traj, (1.0, 0.0)).tolist() == [pytest.approx(4.0)]
        # Perpendicular travel sees the y extent instead.
        assert box_length_along_axis(traj, (0.0, 1.0)).tolist() == [pytest.approx(4.0)]


class TestPreparation:
    def test_static_objects_dropped(self):
        moving = track_rows([(i, i * 1.0, 0) for i in range(5)], vid="m")
        parked = track_rows([(i, 0.05 * i, 0) for i in range(5)], vid="p")
        kept = drop_static_objects(parse_trajectories(HEADER + moving + parked, 1.0), min_displacement_m=2.0)
        assert kept.vehicle_ids == ["m"]

    def test_long_gap_splits_runs(self):
        traj = make_traj([(0, 0, 0), (1, 25, 0), (30, 60, 0), (31, 85, 0)], fps=1.0)
        prep = TrackPrepConfig(max_gap_frames=5, sg_window=3, sg_order=1, min_displacement_m=1.0)
        tracks = prepare_tracks(traj, (1, 0), prep)
        assert len(tracks) == 2
        assert all(t.vehicle_ids == ["v1"] for t in tracks)
        first, second = tracks
        assert list(first.frames) == [0, 1]
        assert list(second.frames) == [30, 31]

    def test_one_missing_frame_splits_runs_at_max_gap_0(self):
        traj = make_traj([(f, 10.0 * f, 0) for f in (0, 1, 2, 4, 5, 6)], fps=1.0)
        prep = TrackPrepConfig(max_gap_frames=0, sg_window=3, sg_order=1, min_displacement_m=1.0)
        tracks = prepare_tracks(traj, (1, 0), prep)
        assert [t.frames.tolist() for t in tracks] == [[0, 1, 2], [4, 5, 6]]

    def test_short_tracks_pass_unsmoothed(self):
        traj = make_traj([(i, 10.0 * i, 0) for i in range(4)], fps=1.0)
        tracks = prepare_tracks(traj, (1, 0), TrackPrepConfig(sg_window=21, sg_order=3, min_displacement_m=1.0))
        assert len(tracks) == 1
        np.testing.assert_allclose(tracks.x, [0, 10, 20, 30])

    def test_prepare_tracks_smoothing_matches_filter(self):
        rng = np.random.default_rng(5)
        pts = [(i, float(i + rng.normal(0, 0.1)), 0.0) for i in range(30)]
        traj = make_traj(pts, fps=1.0)
        (track,) = prepare_tracks(traj, (1, 0), TrackPrepConfig(sg_window=7, sg_order=2, min_displacement_m=0.0))
        expected = smooth_savitzky_golay([p.cx for p in traj.points], 7, 2)
        np.testing.assert_allclose(track.x, expected, atol=1e-12)

    @pytest.mark.parametrize("window, order", [(5, 2), (7, 3), (21, 3)])
    def test_matches_per_run_oracle_bitwise(self, window, order):
        rng = np.random.default_rng(window)

        def traj(vid, frames, fps=10.0, speed=12.0, length=4.5):
            frames = np.asarray(frames)
            x = speed * frames / fps + rng.normal(0, 0.2, frames.size)
            half = 0.5 * (length + rng.normal(0, 0.3, frames.size))
            y = 3.5 + rng.normal(0, 0.1, frames.size)
            return fps, (vid, frames, np.column_stack([x - half, y - 1, x + half, y + 1]))

        n = window
        trajs = [
            traj("filled", [f for f in range(3 * n) if f not in (7, 8)]),  # a short gap, filled
            traj("split", [*range(n + 3), *range(n + 40, 2 * n + 45)], fps=12.5),  # a long gap: two runs
            traj("shorter", range(n - 1), length=16.0),
            traj("equal", range(5, 5 + n)),
            traj("longer", range(4 * n), speed=-9.0),
            traj("lone_rows", [0, *range(30, 30 + n + 2), 60]),  # a one-row run at each end, dropped
            traj("pair", [3, 4], speed=40.0),
            traj("single", [3]),
            traj("static", range(2 * n), speed=0.0),
            traj("parked", range(n + 1), speed=0.1),
            *(traj(f"r{k}", np.cumsum(rng.choice([1, 1, 1, 2, 3, 30], size=rng.integers(2, 5 * n))), length=length)
              for k, length in enumerate(rng.uniform(3.0, 18.0, 12))),
        ]
        prep = TrackPrepConfig(max_gap_frames=3, sg_window=window, sg_order=order, class_threshold_m=8.0,
                               min_displacement_m=2.0)
        def fields(t):
            arrays = (t.lengths, t.run_codes, t.bounds, t.frames, t.t, t.x, t.y, t.vx, t.vy, t.speed)
            return t.vehicle_ids, t.classes, [(a.dtype, a.shape, a.tobytes()) for a in arrays]

        got, want = [], []
        for fps in (10.0, 12.5):  # a table has one fps: the 12.5 fps vehicle is prepared on its own
            vehicles = [vehicle for f, vehicle in trajs if f == fps]
            table = prepare_tracks(trajectory_table_of(vehicles, fps), (3.0, 4.0), prep)
            oracle = prepare_tracks_oracle(vehicles, fps, (3.0, 4.0), prep)
            assert fields(table) == fields(oracle)
            got += table
            want += oracle
        assert {"filled", "split", "shorter", "equal", "longer", "lone_rows", "pair"} <= {t.vehicle_ids[0] for t in got}
        assert not {"single", "static", "parked"} & {t.vehicle_ids[0] for t in got}
        assert [t.frames.tolist() for t in got if t.vehicle_ids[0] in ("filled", "split", "lone_rows")] == [
            list(range(3 * n)), list(range(30, 30 + n + 2)), list(range(n + 3)), list(range(n + 40, 2 * n + 45))]
        assert {t.classes[0] for t in got} == {VehicleClass.CAR, VehicleClass.TRUCK}
        assert [fields(t) for t in got] == [fields(t) for t in want]

