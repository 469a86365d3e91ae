"""The pinned golden bundle: every refactor must reproduce these outputs.

Strings (ids, headers, empty cells, flags) must match exactly; numbers
within a relative 1e-12, which absorbs summation-order noise only.
Regenerate with ``tests/golden/regenerate.py`` for an intended change.
"""

import csv
import gzip
import io
import json
import math
import warnings

import pytest

from golden.regenerate import GOLDEN_FILES, HERE, run_pipeline

REL = 1e-12


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _assert_cells_equal(actual: str, expected: str, where: str) -> None:
    a, e = _as_float(actual), _as_float(expected)
    if a is None or e is None or math.isnan(e):
        assert actual == expected, where
    else:
        assert math.isclose(a, e, rel_tol=REL, abs_tol=0.0), f"{where}: {actual} != {expected}"


def _assert_json_equal(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_json_equal(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_json_equal(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and math.isnan(expected):
        assert isinstance(actual, float) and math.isnan(actual), where
    elif isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        assert math.isclose(actual, expected, rel_tol=REL, abs_tol=0.0), f"{where}: {actual} != {expected}"
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    with warnings.catch_warnings():  # the tiny bundle trips the small-sample warnings
        warnings.simplefilter("ignore")
        return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_bundle_reproduced(produced, name):
    expected = gzip.decompress((HERE / f"{name}.gz").read_bytes()).decode()
    actual = produced[name]
    if name.endswith(".json"):
        _assert_json_equal(json.loads(actual), json.loads(expected), name)
        return
    rows_a = list(csv.reader(io.StringIO(actual)))
    rows_e = list(csv.reader(io.StringIO(expected)))
    assert len(rows_a) == len(rows_e), name
    assert rows_a[0] == rows_e[0], f"{name} header"
    for i, (ra, re) in enumerate(zip(rows_a, rows_e)):
        assert len(ra) == len(re), f"{name} row {i}"
        for j, (a, e) in enumerate(zip(ra, re)):
            _assert_cells_equal(a, e, f"{name} row {i} column {rows_e[0][j]}")
