"""The reading rules every input CSV shares (trajectories, crash report, metrics)."""

import ast
import builtins
import re
from pathlib import Path

import pytest

import netsafety
from netsafety.crashes import parse_crashes
from netsafety.errors import SchemaError
from netsafety.network_metrics import read_metrics_csv, write_metrics_csv
from netsafety.trajectories import parse_trajectories

from oracles import MetricsRow, metrics_rows, metrics_table_of

def crash_rows(records):
    return list(zip(records.year.tolist(), records.minute.tolist(), records.lat.tolist()))


# reader, what its errors call the file, header, two good rows, a faulty row and its message
READERS = {
    "trajectory": (
        lambda text: [(t.vehicle_ids[0], f) for t in parse_trajectories(text, 4.0) for f in t.frames.tolist()],
        "trajectory", "frame,vehicle_id,x1,y1,x2,y2", ("0,a,0,0,1,1", "1,a,1,0,2,1"),
        "2,a,abc,0,3,1", "column 'x1' is not a number: 'abc'",
    ),
    "crash": (
        lambda text: crash_rows(parse_crashes(text)),
        "crash", "timestamp,lat,lon,type",
        ("2021-06-15T08:30:00,33.46,-112.06,REAR_END", "2021-06-15T08:40:00,33.47,-112.06,SIDESWIPE"),
        "2021-06-15T08:50:00,abc,-112.06,OTHER", "column 'lat' is not a number: 'abc'",
    ),
    "metrics": (
        lambda text: [(m.segment_id, m.t_start, m.ivvr) for m in metrics_rows(read_metrics_csv(text))],
        "metrics", "segment_id,interval_start,interval_end,ivvr", ("S1,0.0,25.0,0.5", "S1,600.0,625.0,"),
        "S1,abc,1225.0,0.25", "column 'interval_start' is not a number: 'abc'",
    ),
}


@pytest.fixture(params=list(READERS))
def reader(request):
    return READERS[request.param]


def lines(*rows) -> str:
    return "\n".join(rows) + "\n"


def test_errors_name_the_physical_line(reader):
    # The note of the first row is quoted across two lines, so the faulty row is
    # the fourth line of the file and the third record.
    read, _, header, (good, _), bad, message = reader
    text = lines(header + ",note", good + ',"two\nlines"', bad + ",x")
    with pytest.raises(SchemaError, match=f"^line 4: {message}$"):
        read(text)


def test_blank_rows_are_skipped(reader):
    read, _, header, (first, second), _, _ = reader
    width = header.count(",") + 1
    blank = ["", "   ", ",", "," * (width - 1), " ," * (width - 1) + " ", "\t" + "," * width]
    assert read(lines(header, first, *blank, second)) == read(lines(header, first, second))
    assert len(read(lines(header, first, *blank, second))) == 2


def test_header_cells_are_stripped(reader):
    read, _, header, rows, _, _ = reader
    padded = ",".join(f" {name}\t" for name in header.split(","))
    assert read(lines(padded, *rows)) == read(lines(header, *rows))


def test_schema_errors(reader):
    read, what, header, (good, _), _, _ = reader
    names = header.split(",")
    cases = [
        ("", rf"{what} file is empty \(header required\)"),
        (lines(",".join(names[:2])), rf"{what} header missing required columns: \['{names[2]}'"),
        (lines(header, good.rsplit(",", 1)[0]), f"line 2: expected {len(names)} fields, got {len(names) - 1}"),
    ]
    for text, message in cases:
        with pytest.raises(SchemaError, match=f"^{message}"):
            read(text)


@pytest.mark.parametrize("case", ["unclosed_quote", "carriage_return"])
def test_text_the_csv_module_refuses_names_the_line(reader, case):
    # Before, the csv module's error escaped the readers as _csv.Error.
    read, _, header, (first, second), _, _ = reader
    cells = second.split(",")
    if case == "unclosed_quote":  # the quoted cell runs on past the csv module's field limit
        cells[1] = '"' + cells[1]
        text, message = lines(header, first, ",".join(cells), *[first] * 20000), "field larger than field limit"
    else:
        cells[0] = cells[0][:1] + "\r" + cells[0][1:]
        text, message = lines(header, first, ",".join(cells), first), "new-line character seen in unquoted field"
    with pytest.raises(SchemaError, match=f"^line 3: {message}"):
        read(text)


def test_written_metrics_row_reads_back():
    row = MetricsRow(
        "S1", 0, 25, ttc_cv=0.5, ivvr=None, ovvr=0.125, osr={1.0: 0.25, 1.5: 0.0625}, tci=2.0,
        f_truck=0.25, ntc=0.01, trt=None, n_vehicles=7, coverage=1, e_ttc=3.5,
    )
    text = write_metrics_csv(metrics_table_of([row], [1.0, 1.5]))
    assert text.splitlines() == [
        "segment_id,interval_start,interval_end,ttc_cv,ivvr,ovvr,osr_1.0,osr_1.5,tci,f_truck,ntc,trt,"
        "n_vehicles,coverage,e_ttc",
        "S1,0.0,25.0,0.5,,0.125,0.25,0.0625,2.0,0.25,0.01,,7,1.0,3.5",
    ]
    (back,) = metrics_rows(read_metrics_csv(text))
    assert back == row and type(back.n_vehicles) is int


# reader: a header with a column of each kind the reader has, and a good row
TYPED = {
    "trajectory": (READERS["trajectory"][0], "frame,vehicle_id,x1,y1,x2,y2", "1,a,1,0,2,1"),
    "crash": (READERS["crash"][0], "timestamp,lat,lon,type", "2021-06-15T08:40:00,33.47,-112.06,SIDESWIPE"),
    "metrics": (
        lambda text: [(m.segment_id, m.t_start, m.ivvr, m.n_vehicles) for m in metrics_rows(read_metrics_csv(text))],
        "segment_id,interval_start,interval_end,ivvr,n_vehicles", "S1,600.0,625.0,0.25,3",
    ),
}


@pytest.mark.parametrize("name, column, cell, what", [
    ("trajectory", "frame", "2.0", "an integer"),
    ("trajectory", "frame", "-9223372036854775809", "an integer"),
    ("trajectory", "y1", "inf", "finite"),
    ("trajectory", "x2", "", "a number"),
    ("crash", "lat", "nan", "finite"),
    ("crash", "lon", "1,5", "a number"),  # quoted in the row
    ("crash", "timestamp", "2021-06-31T08:40:00", "an ISO-8601 timestamp"),
    ("crash", "timestamp", "", "an ISO-8601 timestamp"),
    ("crash", "lat", "", "a number"),
    ("metrics", "n_vehicles", "3.5", "a count"),
    ("metrics", "n_vehicles", "-1", "a count"),
    ("metrics", "n_vehicles", "9007199254740994", "a count"),
    ("metrics", "ivvr", "-inf", "finite"),
    ("metrics", "interval_end", "", "a number"),
])
def test_one_rule_types_every_cell(name, column, cell, what):
    read, header, good = TYPED[name]
    cells = good.split(",")
    cells[header.split(",").index(column)] = f'"{cell}"' if "," in cell else cell
    with pytest.raises(SchemaError, match=f"^{re.escape(f'line 3: column {column!r} is not {what}: {cell!r}')}$"):
        read(lines(header, good, ",".join(cells), good))


def test_blank_in_an_optional_column_is_absent():
    read, header, good = TYPED["metrics"]
    assert read(lines(header, "S1,0.0,25.0,,")) == [("S1", 0.0, None, 0)]


@pytest.mark.parametrize("rows, message", [
    # row order before column order
    (("2021-06-15T08:40:00,33.47,abc,OTHER", "2021-13-15T08:40:00,nan,-112.06,OTHER"),
     "column 'lon' is not a number: 'abc'"),
    # column order within a row
    (("2021-06-15T08:40:00,nan,abc,OTHER",), "column 'lat' is not finite: 'nan'"),
    # in one column, a number that is not finite before a cell that is no number
    (("2021-06-15T08:40:00,inf,-112.06,OTHER", "2021-06-15T08:40:00,abc,-112.06,OTHER"),
     "column 'lat' is not finite: 'inf'"),
], ids=["rows", "columns", "one-column"])
def test_first_refused_cell_is_named(rows, message):
    read, header, good = TYPED["crash"]
    with pytest.raises(SchemaError, match=f"^line 3: {re.escape(message)}$"):
        read(lines(header, good, *rows, good))


def test_timestamps_are_read_in_their_own_clock():
    read, header, _ = TYPED["crash"]
    stamps = ["2021-06-15T23:59:59.9+05:00", " 1999-12-31 00:07Z", "2020-02-29T12:30:00-11:30"]
    records = parse_crashes(lines(header, *(f"{s},33.47,-112.06,OTHER" for s in stamps)))
    assert records.year.tolist() == [2021, 1999, 2020] and records.minute.tolist() == [1439, 7, 750]


def test_only_the_reader_loops_over_rows():
    """No module but csvio (CsvRecords' own) calls csv.reader or iterates a CsvRecords."""
    offenders = []
    for path in sorted(Path(netsafety.__file__).parent.rglob("*.py")):
        if path.name == "csvio.py":
            continue
        tree = ast.parse(path.read_text())
        records = set()  # names bound to a CsvRecords(...)

        def is_records(node):
            if isinstance(node, ast.Call):
                return getattr(node.func, "id", getattr(node.func, "attr", None)) == "CsvRecords"
            return isinstance(node, ast.Name) and node.id in records

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and is_records(node.value):
                records.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "reader" and getattr(node.value, "id", None) == "csv":
                offenders.append(f"{path.name}:{node.lineno}: csv.reader")
            if isinstance(node, (ast.For, ast.comprehension)):
                iterated = [node.iter]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in dir(builtins):
                iterated = node.args  # iter(), list(), zip(), enumerate(), ...
            else:
                iterated = []
            offenders += [f"{path.name}:{node.lineno}: iterates a CsvRecords" for arg in iterated if is_records(arg)]
    assert offenders == []
