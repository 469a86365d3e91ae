"""The self-contained tail functions against scipy as the independent oracle."""

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats as st

from netsafety.errors import ParameterError
from netsafety.stats.special import betainc, chi2_sf, f_sf, gammainc_upper


class TestGamma:
    def test_grid_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = float(rng.uniform(0.25, 80))
            x = float(rng.uniform(0, 200))
            assert gammainc_upper(a, x) == pytest.approx(float(sp.gammaincc(a, x)), abs=1e-10)

    def test_boundaries(self):
        assert gammainc_upper(3.0, 0.0) == 1.0
        assert gammainc_upper(0.5, 1e6) == pytest.approx(0.0, abs=1e-12)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            gammainc_upper(0.0, 1.0)
        with pytest.raises(ParameterError):
            gammainc_upper(1.0, -1.0)


class TestBeta:
    def test_grid_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a = float(rng.uniform(0.25, 60))
            b = float(rng.uniform(0.25, 60))
            x = float(rng.uniform(0, 1))
            assert betainc(a, b, x) == pytest.approx(float(sp.betainc(a, b, x)), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(0.5, 20, 2)
            x = float(rng.uniform(0, 1))
            assert betainc(a, b, x) == pytest.approx(1.0 - betainc(b, a, 1.0 - x), abs=1e-12)


class TestTails:
    def test_chi2_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            df = int(rng.integers(1, 80))
            x = float(rng.uniform(0, 250))
            assert chi2_sf(x, df) == pytest.approx(float(st.chi2.sf(x, df)), abs=1e-10)

    def test_f_against_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            d1 = int(rng.integers(1, 15))
            d2 = int(rng.integers(2, 300))
            f = float(rng.uniform(0.0, 50))
            mine = f_sf(f, d1, d2)
            ref = float(st.f.sf(f, d1, d2))
            assert mine == pytest.approx(ref, abs=1e-10)
            if ref > 1e-250:
                assert mine == pytest.approx(ref, rel=1e-8)

    def test_known_values(self):
        # one-way chi-square of [10, 20]: stat 10/3, df 1
        assert chi2_sf(10 / 3, 1) == pytest.approx(0.06788915486182899, abs=1e-8)
        assert chi2_sf(5.4, 1) == pytest.approx(0.020136751550346914, abs=1e-8)

    def test_f_infinite_statistic(self):
        assert f_sf(float("inf"), 3, 10) == 0.0
        assert f_sf(0.0, 3, 10) == 1.0


# Values as float.hex() literals, one case per branch: the gamma series (x < a + 1) and continued fraction, the beta
# fraction taken directly and through 1 - I_{1-x}(b, a), x at 0 and 1, and f = inf. The scipy grids above allow
# about 1e-12; these hold every bit, so a refactor of the fractions cannot move a p-value unseen.
BIT_PINS = [
    (gammainc_upper, (3.0, 1.5), "0x1.9e212bf944b7bp-1"),
    (gammainc_upper, (2.5, 10.0), "0x1.479bff968f680p-10"),
    (gammainc_upper, (3.0, 0.0), "0x1.0000000000000p+0"),
    (betainc, (2.0, 5.0, 0.1), "0x1.d40789613d32dp-4"),
    (betainc, (2.0, 5.0, 0.8), "0x1.ff2e48e8a71dep-1"),
    (betainc, (30.5, 0.5, 0.999), "0x1.9c7f010ca0c94p-1"),
    (betainc, (2.0, 5.0, 0.0), "0x0.0p+0"),
    (betainc, (2.0, 5.0, 1.0), "0x1.0000000000000p+0"),
    (chi2_sf, (10 / 3, 1), "0x1.1612f03e2775fp-4"),
    (chi2_sf, (1.0, 4), "0x1.d1d0c7aa7610fp-1"),
    (chi2_sf, (250.0, 60), "0x1.2f674bfc6e516p-81"),
    (f_sf, (2.5, 3, 40), "0x1.2c0cc1634ee8ap-4"),
    (f_sf, (0.3, 5, 12), "0x1.cea1917fea006p-1"),
    (f_sf, (40.0, 2, 298), "0x1.d7c92d7bcba30p-52"),
    (f_sf, (float("inf"), 3, 10), "0x0.0p+0"),
]


@pytest.mark.parametrize("fn, args, bits", BIT_PINS, ids=[f"{fn.__name__}{args}" for fn, args, _ in BIT_PINS])
def test_bit_pins(fn, args, bits):
    assert fn(*args).hex() == bits
