import numpy as np
import pytest

from netsafety.crashes import (
    CrashType,
    bin_crashes,
    hourly_heterogeneity_test,
    parse_crashes,
    subsample_consistency_test,
)
from netsafety.errors import DataError, ParameterError, SchemaError
from netsafety.geo import TangentPlane
from netsafety.network_metrics import SegmentConfig

PLANE = TangentPlane(33.46, -112.06)


def segment(sid="S1", bbox=(-5, -5, 105, 15)):
    return SegmentConfig(segment_id=sid, lane_count=2, length_m=100.0, speed_limit=25.0, bbox=bbox)


def crash_row(x, y, when="2021-06-15T12:05:00", kind="REAR_END"):
    lat, lon = PLANE.to_latlon(x, y)
    return f"{when},{lat!r},{lon!r},{kind}"


class TestParse:
    def test_well_formed_row(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,REAR_END\n"
        records = parse_crashes(text)
        assert len(records) == 1
        assert records[0].crash_type is CrashType.REAR_END
        assert records[0].timestamp.hour == 8

    def test_unknown_type_maps_to_other(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,HEAD-ON\n"
        with pytest.warns(UserWarning, match="HEAD-ON"):
            records = parse_crashes(text)
        assert records[0].crash_type is CrashType.OTHER

    def test_case_insensitive_match(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,sideswipe\n"
        assert parse_crashes(text)[0].crash_type is CrashType.SIDESWIPE

    def test_bad_date_names_line(self):
        text = "timestamp,lat,lon,type\n2021-06-15T08:30:00,33.46,-112.06,REAR_END\nnot-a-date,1,2,REAR_END\n"
        with pytest.raises(DataError, match="line 3"):
            parse_crashes(text)

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="type"):
            parse_crashes("timestamp,lat,lon\n")

    @pytest.mark.parametrize("lat,lon", [("nan", "inf"), ("33.46", "-inf"), ("NaN", "-112.06")])
    def test_non_finite_coordinate_names_line(self, lat, lon):
        # Before the check such a record was returned and bin_crashes silently dropped it.
        text = f"timestamp,lat,lon,type\n2020-01-01T08:00:00,1,2,REAR_END\n2020-01-01T08:00:00,{lat},{lon},REAR_END\n"
        with pytest.raises(SchemaError, match="^line 3: non-finite coordinate"):
            parse_crashes(text)


class TestBinning:
    def test_direct_binning(self):
        text = "timestamp,lat,lon,type\n" + crash_row(50, 5, "2021-06-15T12:05:00") + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE)
        cell = binning.counts[("S1", 12)]
        assert cell.counts["AllType"] == 1 and cell.counts["RearEnd"] == 1
        assert binning.n_assigned == 1 and binning.n_dropped == 0

    def test_outside_all_segments_dropped(self):
        text = "timestamp,lat,lon,type\n" + crash_row(500, 500) + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE)
        assert binning.n_dropped == 1 and binning.n_assigned == 0

    def test_mean_count_over_years(self):
        rows = [crash_row(50, 5, f"{2015 + k}-03-01T12:10:00") for k in range(5)] * 2
        text = "timestamp,lat,lon,type\n" + "\n".join(rows) + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE)
        cell = binning.counts[("S1", 12)]
        assert cell.counts["RearEnd"] == 10 and cell.years_covered == 5
        assert cell.mean_count("RearEnd") == pytest.approx(2.0)

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
        cell = binning.counts[("S1", 7)]
        assert cell.mean_count("AllType") * cell.years_covered == pytest.approx(7.0)

    def test_overlapping_bboxes_first_match_warns(self):
        text = "timestamp,lat,lon,type\n" + crash_row(50, 5) + "\n"
        segs = [segment("A"), segment("B")]
        with pytest.warns(UserWarning, match="multiple"):
            binning = bin_crashes(parse_crashes(text), segs, 60, PLANE)
        assert binning.counts[("A", 12)].counts["AllType"] == 1
        assert binning.counts[("B", 12)].counts["AllType"] == 0

    def test_year_range_config(self):
        text = "timestamp,lat,lon,type\n" + crash_row(50, 5, "2017-06-15T12:05:00") + "\n"
        binning = bin_crashes(parse_crashes(text), [segment()], 60, PLANE, year_range=(2015, 2019))
        assert binning.years_covered == 5

    def test_one_shot_iterable_without_year_range(self):
        # Counting the distinct years used to exhaust the iterator, so the loop assigned nothing.
        records = parse_crashes("timestamp,lat,lon,type\n" + crash_row(50, 5) + "\n")
        binning = bin_crashes(iter(records), [segment()], 60, PLANE)
        assert (binning.n_assigned, binning.years_covered) == (1, 1)
        assert binning.counts[("S1", 12)].counts["AllType"] == 1

    def test_bad_slot_minutes(self):
        with pytest.raises(ParameterError):
            bin_crashes([], [segment()], 45, PLANE)

    def test_full_grid_has_zero_slots(self):
        binning = bin_crashes([], [segment()], 60, PLANE)
        assert len(binning.counts) == 24
        assert binning.counts[("S1", 0)].counts["AllType"] == 0


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
