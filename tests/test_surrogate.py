import math

import numpy as np
import pytest

from netsafety.errors import DataError, GeometryError, ParameterError
from netsafety.surrogate import (
    EnvelopeParams,
    PairState,
    SsmConfig,
    cpi,
    delta_v,
    drac,
    initial_dr,
    max_speed,
    min_safe_lat,
    min_safe_long_opp,
    min_safe_long_same,
    msdce,
    msdf,
    pet,
    psd,
    ttc,
    ud,
    uns,
)


def pair(gap, v_f, v_l):
    return PairState(x_leader=gap, x_follower=0.0, v_leader=v_l, v_follower=v_f)


class TestTtc:
    def test_direct(self):
        assert ttc(pair(50.0, 30.0, 20.0)) == pytest.approx(5.0)

    def test_equal_speed_absent(self):
        assert ttc(pair(50.0, 25.0, 25.0)) is None

    def test_head_on(self):
        assert ttc(pair(100.0, 10.0, -10.0)) == pytest.approx(5.0)

    def test_opening_absent(self):
        assert ttc(pair(50.0, 20.0, 30.0)) is None

    @pytest.mark.parametrize("v_f, v_l", [(5.0, math.nan), (math.nan, 5.0)])
    def test_nan_speed_absent(self, v_f, v_l):
        # As in leader_pairs and ssm: a NaN speed does not close. Both gave nan.
        assert ttc(pair(10.0, v_f, v_l)) is None

    def test_bad_geometry(self):
        with pytest.raises(GeometryError):
            ttc(pair(-1.0, 30.0, 20.0))


class TestPet:
    def test_direct(self):
        assert pet(10.0, 12.0) == pytest.approx(2.0)

    def test_simultaneous(self):
        assert pet(7.0, 7.0) == 0.0

    def test_ordering_error(self):
        with pytest.raises(DataError):
            pet(12.0, 10.0)


class TestDrac:
    def test_direct(self):
        assert drac(pair(50.0, 30.0, 20.0)) == pytest.approx(2.0)

    def test_not_closing_zero(self):
        assert drac(pair(50.0, 20.0, 30.0)) == 0.0

    @pytest.mark.parametrize("v_f, v_l", [(5.0, math.nan), (math.nan, 5.0)])
    def test_nan_speed_zero(self, v_f, v_l):
        assert drac(pair(10.0, v_f, v_l)) == 0.0

    def test_short_gap(self):
        assert drac(pair(25.0, 30.0, 20.0)) == pytest.approx(4.0)

    def test_product_identity(self):
        # drac * ttc == closing speed, algebraically, for any closing pair.
        rng = np.random.default_rng(8)
        for _ in range(200):
            gap = rng.uniform(1, 200)
            v_l = rng.uniform(-10, 30)
            v_f = v_l + rng.uniform(0.1, 20)
            p = pair(gap, v_f, v_l)
            assert drac(p) * ttc(p) == pytest.approx(v_f - v_l, abs=1e-9)


class TestCpi:
    def test_never_exceeded(self):
        cfg = SsmConfig(madr=6.0, timestep=1.0)
        samples = [(2.0, 1)] * 10
        assert cpi(samples, cfg, total_time=10.0) == 0.0

    def test_always_exceeded(self):
        cfg = SsmConfig(madr=4.0, timestep=1.0)
        samples = [(5.0, 1)] * 10
        assert cpi(samples, cfg, total_time=10.0) == pytest.approx(1.0)

    def test_hand_sum(self):
        cfg = SsmConfig(madr=4.0, timestep=1.0)
        samples = [(5.0, 1)] * 3 + [(1.0, 1)] * 7
        assert cpi(samples, cfg, total_time=10.0) == pytest.approx(0.3)

    def test_inactive_samples_ignored(self):
        cfg = SsmConfig(madr=4.0, timestep=1.0)
        samples = [(5.0, 0)] * 5 + [(5.0, 1)] * 5
        assert cpi(samples, cfg, total_time=10.0) == pytest.approx(0.5)

    def test_bounded_when_span_covered(self):
        rng = np.random.default_rng(12)
        cfg = SsmConfig(madr=4.0, timestep=0.5)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            samples = [(float(rng.uniform(0, 8)), int(rng.integers(0, 2))) for _ in range(n)]
            value = cpi(samples, cfg, total_time=n * cfg.timestep)
            assert 0.0 <= value <= 1.0


class TestPsd:
    def test_direct(self):
        assert psd(50.0, 20.0, 5.0) == pytest.approx(1.25)

    def test_stopped_vehicle_flagged(self):
        assert math.isinf(psd(50.0, 0.0, 5.0))

    def test_zero_margin(self):
        assert psd(0.0, 20.0, 5.0) == 0.0


class TestUnsUd:
    def test_direct(self):
        assert uns(5.0, 25.0, b=-2.0, b_max=-8.0) == pytest.approx(31.25)

    def test_not_braking_zero(self):
        assert uns(5.0, 25.0, b=0.5, b_max=-8.0) == 0.0

    def test_full_braking_bound(self):
        assert uns(5.0, 25.0, b=-8.0, b_max=-8.0) == pytest.approx(125.0)

    def test_bad_b_max(self):
        with pytest.raises(ParameterError):
            uns(5.0, 25.0, -2.0, b_max=0.0)

    def test_ud_zero(self):
        assert ud([], d=1.0, total_time=100.0, link_length=500.0) == 0.0

    def test_ud_single_sample(self):
        assert ud([31.25], d=1.0, total_time=100.0, link_length=500.0) == pytest.approx(6.25e-4)

    def test_ud_length_scaling(self):
        a = ud([10.0, 20.0], 1.0, 100.0, 500.0)
        b = ud([10.0, 20.0], 1.0, 100.0, 1000.0)
        assert a == pytest.approx(2 * b)


class TestSimpleSeries:
    def test_max_speed(self):
        assert max_speed([10.0, 12.0, 9.0]) == 12.0

    def test_delta_v(self):
        assert delta_v(30.0, 20.0) == 10.0

    def test_initial_dr_first_over_threshold(self):
        assert initial_dr([0.1, 0.2, 1.5, 3.0], onset=0.5) == pytest.approx(1.5)

    def test_initial_dr_no_braking(self):
        assert initial_dr([0.1, 0.2], onset=0.5) is None

    def test_empty_series_errors(self):
        with pytest.raises(DataError):
            max_speed([])
        with pytest.raises(DataError):
            initial_dr([])


def params(**kw):
    defaults = dict(response_time=1.0, accel_max=2.0, brake_min=4.0, brake_max=6.0,
                    lat_accel_max=0.2, lat_brake_min=1.0, mu=0.5)
    defaults.update(kw)
    return EnvelopeParams(**defaults)


class TestEnvelope:
    def test_long_same_hand_value(self):
        # 20 + 1 + 484/8 - 225/12 = 62.75
        d = min_safe_long_same(params(), 20.0, params(), 15.0)
        assert d == pytest.approx(62.75)

    def test_long_same_clamped_to_zero(self):
        ego = params(response_time=0.0, accel_max=1.0, brake_min=10.0)
        d = min_safe_long_same(ego, 0.5, params(brake_max=100.0), 40.0)
        assert d == 0.0

    def test_long_same_stopped_leader(self):
        d = min_safe_long_same(params(), 20.0, params(), 0.0)
        assert d == pytest.approx(81.5)

    def test_long_same_leader_brake_variant(self):
        lead = params(brake_min=8.0)
        d_own = min_safe_long_same(params(), 20.0, lead, 15.0, follower_brake="own")
        d_leader = min_safe_long_same(params(), 20.0, lead, 15.0, follower_brake="leader")
        assert d_own == pytest.approx(62.75)
        assert d_leader == pytest.approx(20 + 1 + 484 / 16 - 225 / 12)

    def test_long_opp_hand_value(self):
        d = min_safe_long_opp(params(), 20.0, params(), -15.0)
        assert d == pytest.approx(81.5 + 52.125)

    def test_long_opp_stationary_reaction_terms(self):
        p = params(accel_max=1e-12)
        d = min_safe_long_opp(p, 0.0, p, 0.0)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_long_opp_monotone_in_response_time(self):
        base = min_safe_long_opp(params(), 20.0, params(), -15.0)
        slower = min_safe_long_opp(params(response_time=2.0), 20.0, params(), -15.0)
        assert slower > base

    def test_lat_hand_value(self):
        d = min_safe_lat(params(), 0.0, params(), 0.0)
        assert d == pytest.approx(0.74)

    def test_lat_zero_case(self):
        p = params(mu=0.0, lat_accel_max=1e-12)
        assert min_safe_lat(p, 0.0, p, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_lat_clamped(self):
        # Other vehicle fleeing laterally much faster than the ego drifts.
        d = min_safe_lat(params(mu=0.0), 0.0, params(lat_brake_min=100.0), 5.0)
        assert d == 0.0

    def test_envelope_monotone_in_speed_and_response(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = float(rng.uniform(0, 30))
            d1 = min_safe_long_same(params(), v, params(), 10.0)
            d2 = min_safe_long_same(params(), v + 1.0, params(), 10.0)
            assert d2 >= d1
            d3 = min_safe_long_same(params(response_time=1.5), v, params(), 10.0)
            assert d3 >= d1
            assert d1 >= 0.0

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            params(brake_min=0.0)
        with pytest.raises(ParameterError):
            min_safe_long_same(params(), 20.0, params(), 15.0, follower_brake="other")


class TestDistanceFactors:
    def test_msdf(self):
        assert msdf(20.0, 10.0) == pytest.approx(2.0)

    def test_msdf_bad_denominator(self):
        with pytest.raises(ParameterError):
            msdf(20.0, 0.0)

    def test_msdce_identity(self):
        assert msdce(10.0, 10.0, 2.0, 2.0) == 0.0

    def test_msdce_hand_value(self):
        assert msdce(10.0, 12.5, 2.0, 2.0) == pytest.approx(0.5)

    def test_msdce_bad_ground_truth(self):
        with pytest.raises(ParameterError):
            msdce(0.0, 1.0, 2.0, 2.0)
