import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from netsafety.crashes import (
    CRASH_FAMILIES,
    SLOT_MINUTES,
    CrashType,
    bin_crashes,
    hourly_heterogeneity_test,
    parse_crashes,
    subsample_consistency_test,
)
from netsafety.errors import DataError, ParameterError, SchemaError
from netsafety.geo import TangentPlane
from netsafety.network_metrics import SegmentConfig

from oracles import bin_crashes_oracle

PLANE = TangentPlane(33.46, -112.06)
HEADER = "timestamp,lat,lon,type\n"


def segment(sid="S1", bbox=(-5, -5, 105, 15)):
    return SegmentConfig(segment_id=sid, lane_count=2, length_m=100.0, speed_limit=25.0, bbox=bbox)


def crash_row(x, y, when="2021-06-15T12:05:00", kind="REAR_END"):
    lat, lon = PLANE.to_latlon(x, y)
    return f"{when},{lat!r},{lon!r},{kind}"


def on_plane(x, y):
    """The position bin_crashes projects a record written by crash_row(x, y) to: (x, y) to within rounding."""
    return PLANE.to_xy(*PLANE.to_latlon(x, y))


def cell(binning, sid, slot, family="AllType"):
    return binning.counts[CRASH_FAMILIES.index(family), binning.segment_ids.index(sid), slot]


class TestParse:
    def test_well_formed_row(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,REAR_END\n"
        records = parse_crashes(text)
        assert len(records) == 1
        assert list(CrashType)[records.crash_type[0]] is CrashType.REAR_END
        assert records.minute[0] // 60 == 8

    def test_unknown_type_maps_to_other(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,HEAD-ON\n"
        with pytest.warns(UserWarning, match="HEAD-ON"):
            records = parse_crashes(text)
        assert list(CrashType)[records.crash_type[0]] is CrashType.OTHER

    def test_case_insensitive_match(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,sideswipe\n"
        assert list(CrashType)[parse_crashes(text).crash_type[0]] is CrashType.SIDESWIPE

    def test_bad_date_names_line(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,REAR_END\nnot-a-date,1,2,REAR_END\n"
        message = "line 3: column 'timestamp' is not an ISO-8601 timestamp: 'not-a-date'"
        with pytest.raises(SchemaError, match=f"^{message}$"):
            parse_crashes(text)

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="type"):
            parse_crashes("timestamp,lat,lon\n")

    @pytest.mark.parametrize("lat,lon,message", [
        ("nan", "inf", "column 'lat' is not finite: 'nan'"),
        ("33.46", "-inf", "column 'lon' is not finite: '-inf'"),
        ("NaN", "-112.06", "column 'lat' is not finite: 'NaN'"),
    ])
    def test_non_finite_coordinate_names_line(self, lat, lon, message):
        # Before the check such a record was returned and bin_crashes silently dropped it.
        text = f"timestamp,lat,lon,type\n2020-01-01T08:00:00,1,2,REAR_END\n2020-01-01T08:00:00,{lat},{lon},REAR_END\n"
        with pytest.raises(SchemaError, match=f"^line 3: {message}$"):
            parse_crashes(text)


class TestBinning:
    def test_direct_binning(self):
        text = "timestamp,lat,lon,type\n" + crash_row(50, 5, "2021-06-15T12:05:00") + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE)
        assert cell(binning, "S1", 12) == 1 and cell(binning, "S1", 12, "RearEnd") == 1
        assert binning.n_assigned == 1 and binning.n_dropped == 0

    def test_outside_all_segments_dropped(self):
        text = "timestamp,lat,lon,type\n" + crash_row(500, 500) + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE)
        assert binning.n_dropped == 1 and binning.n_assigned == 0

    def test_mean_count_over_years(self):
        rows = [crash_row(50, 5, f"{2015 + k}-03-01T12:10:00") for k in range(5)] * 2
        text = "timestamp,lat,lon,type\n" + "\n".join(rows) + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE)
        assert cell(binning, "S1", 12, "RearEnd") == 10 and binning.years_covered == 5
        assert binning.mean_counts("RearEnd")[0, 12] == pytest.approx(2.0)

    def test_binning_is_total(self):
        rng = np.random.default_rng(0)
        rows = [crash_row(float(rng.uniform(-50, 150)), float(rng.uniform(-50, 50))) for _ in range(60)]
        text = "timestamp,lat,lon,type\n" + "\n".join(rows) + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 30, PLANE)
        assert binning.n_assigned + binning.n_dropped == 60

    def test_mean_count_times_years_is_integer_total(self):
        rows = [crash_row(50, 5, f"{2015 + k % 3}-03-01T07:10:00") for k in range(7)]
        text = "timestamp,lat,lon,type\n" + "\n".join(rows) + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE)
        assert binning.mean_counts("AllType")[0, 7] * binning.years_covered == pytest.approx(7.0)

    def test_overlapping_bboxes_first_match_warns(self):
        text = "timestamp,lat,lon,type\n" + crash_row(50, 5) + "\n"
        segs = [segment("A"), segment("B")]
        with pytest.warns(UserWarning, match="multiple"):
            binning = bin_crashes(parse_crashes(text), segs, 60, PLANE)
        assert cell(binning, "A", 12) == 1
        assert cell(binning, "B", 12) == 0

    def test_year_range_config(self):
        text = "timestamp,lat,lon,type\n" + crash_row(50, 5, "2017-06-15T12:05:00") + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE, year_range=(2015, 2019))
        assert binning.years_covered == 5

    def test_records_outside_the_year_range_are_dropped(self):
        # They were counted in the cell and averaged over the range's 5 years.
        rows = [crash_row(50, 5, f"{year}-06-15T12:05:00") for year in (2017, 2023, 2030)]
        text = "timestamp,lat,lon,type\n" + "\n".join(rows) + "\n"
        with pytest.warns(UserWarning, match="^2 crash records dated outside 2015-2019 dropped$"):
            binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE, year_range=(2015, 2019))
        assert cell(binning, "S1", 12) == 1 and binning.years_covered == 5
        assert (binning.n_assigned, binning.n_dropped) == (1, 2)

    def test_one_shot_iterable_without_year_range(self):
        # Counting the distinct years used to exhaust a one-shot iterable of records, so the loop assigned nothing.
        # Records are columns now: the year count and the match read the same arrays.
        records = parse_crashes("timestamp,lat,lon,type\n" + crash_row(50, 5) + "\n")
        binning = bin_crashes(records, [segment()], 60, PLANE)
        assert (binning.n_assigned, binning.years_covered) == (1, 1)
        assert cell(binning, "S1", 12) == 1

    @pytest.mark.parametrize("slot_minutes", [45, 5])
    def test_bad_slot_minutes(self, slot_minutes):
        # 5 divides 60 and was taken, a 288-slot grid that a run config and a synth spec refuse.
        message = rf"^slot_minutes must be one of \(10, 15, 20, 30, 60\), got {slot_minutes}$"
        with pytest.raises(ParameterError, match=message):
            bin_crashes(parse_crashes(HEADER), [segment()], slot_minutes, PLANE)

    def test_full_grid_has_zero_slots(self):
        binning = bin_crashes(parse_crashes(HEADER), [segment()], 60, PLANE)
        assert binning.counts.shape == (len(CRASH_FAMILIES), 1, 24)
        assert cell(binning, "S1", 0) == 0


EDGES = (-5.0, 0.0, 15.0, 50.0, 105.0)  # bbox coordinates in m; records are drawn on them too, so some lie on an edge
KINDS = ("REAR_END", "sideswipe", "OTHER", "HEAD-ON")  # every type, and an unknown one (counted as Other)


# No shrink phase: shrinking a failing example of these many draws took long.
@settings(derandomize=True, deadline=None, max_examples=150, phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_binning_matches_the_per_record_loop(data):
    slot_minutes = data.draw(st.sampled_from(SLOT_MINUTES))
    edge = st.sampled_from(EDGES)
    segments = []
    for k, (a, b, c, d) in enumerate(data.draw(st.lists(st.tuples(edge, edge, edge, edge), min_size=1, max_size=3))):
        (x0, y0), (x1, y1) = on_plane(a, c), on_plane(b, d)  # where a record drawn on the edge lands
        segments.append(segment(f"S{k}", (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))))
    place = edge | st.floats(-20.0, 120.0)
    rows = []
    for _ in range(data.draw(st.integers(0, 30))):
        k = data.draw(st.integers(0, 24 * 60 // slot_minutes - 1))
        minute = k * slot_minutes + data.draw(st.sampled_from([0, slot_minutes - 1]) | st.integers(0, slot_minutes - 1))
        when = f"{data.draw(st.integers(2015, 2020))}-03-01T{minute // 60:02d}:{minute % 60:02d}:00"
        rows.append(crash_row(data.draw(place), data.draw(place), when, data.draw(st.sampled_from(KINDS))))
    year_range = data.draw(st.none() | st.just((2016, 2018)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = parse_crashes(HEADER + "".join(row + "\n" for row in rows))
        binning = bin_crashes(records, segments, slot_minutes, PLANE, year_range=year_range)
    grid, years, assigned, dropped, multi = bin_crashes_oracle(records, segments, slot_minutes, PLANE, year_range)
    assert (binning.years_covered, binning.n_assigned, binning.n_dropped, binning.n_multi_match) == (
        years, assigned, dropped, multi)
    assert binning.segment_ids == tuple(s.segment_id for s in segments)
    assert binning.counts.shape == (len(CRASH_FAMILIES), len(segments), 24 * 60 // slot_minutes)
    for (sid, slot), counts in grid.items():
        assert [cell(binning, sid, slot, family) for family in CRASH_FAMILIES] == [counts[f] for f in CRASH_FAMILIES]


class TestSubsampleConsistency:
    def test_identical_tables_p_one(self):
        from netsafety.stats import chi2_contingency_yates

        counts = [23, 16, 18, 130, 168, 311]
        result = chi2_contingency_yates([counts, counts])
        assert result.p_value == pytest.approx(1.0, abs=1e-6)

    def test_homogeneous_profile_high_mean_p(self):
        rng = np.random.default_rng(1)
        counts = rng.multinomial(3000, np.ones(24) / 24)
        stat, p = subsample_consistency_test(counts, fraction=0.1, seed=7, repeats=300)
        assert p > 0.05

    def test_reproducible_under_seed(self):
        counts = {h: 20 + 5 * (h % 4) for h in range(24)}
        a = subsample_consistency_test(counts, 0.1, seed=3, repeats=50)
        b = subsample_consistency_test(counts, 0.1, seed=3, repeats=50)
        assert a == b

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            subsample_consistency_test([5, 5], 1.0, seed=0)

    def test_needs_two_nonempty_slots(self):
        with pytest.raises(DataError):
            subsample_consistency_test([9, 0, 0], 0.1, seed=0)


class TestHourlyHeterogeneity:
    def test_uniform(self):
        result = hourly_heterogeneity_test([5, 5, 5, 5])
        assert result.statistic == 0.0 and result.p_value == pytest.approx(1.0)

    def test_hand_value(self):
        result = hourly_heterogeneity_test([10, 20])
        assert result.statistic == pytest.approx(10 / 3)
        assert result.p_value == pytest.approx(0.0679, abs=1e-4)

    def test_peaked_counts_tiny_p(self):
        counts = {h: 5 for h in range(24)}
        counts[8] = 400
        counts[17] = 380
        assert hourly_heterogeneity_test(counts).p_value < 1e-6

    def test_needs_two_hours(self):
        with pytest.raises(DataError):
            hourly_heterogeneity_test([7])
