import math
import warnings

import numpy as np
import pytest

from netsafety.errors import DataError, ParameterError
from netsafety.stats import kendall, pearson, spearman
from netsafety.stats.correlation import _mean_ranks

from oracles import kendall_pairs_oracle, pearson_oracle


class TestPearson:
    def test_exact_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_anti_linearity(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DataError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            pearson([1, 2], [1, 2, 3])


class TestSpearman:
    def test_monotone_cubic(self):
        x = [1, 2, 3, 4]
        assert spearman(x, [v**3 for v in x]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 1]) == pytest.approx(-1.0)

    def test_tie_mean_ranks(self):
        # ranks of x: [1.5, 1.5, 3]; of y: [1, 2, 3] -> Pearson = sqrt(3)/2
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(math.sqrt(3) / 2)

    @pytest.mark.parametrize("x", [
        [3.0, 1.0, 2.0, 1.0, 3.0, 3.0, 0.5, 2.0],
        [4.0] * 6,
        [2.0, 1.0],
        [1.0, 1.0],
        np.random.default_rng(2).integers(0, 5, 60).astype(float),
    ], ids=["ties", "all_equal", "n2", "n2_tied", "many_ties"])
    def test_mean_ranks_match_scipy_average_ranks(self, x):
        from scipy.stats import rankdata

        np.testing.assert_array_equal(_mean_ranks(np.asarray(x)), rankdata(x, method="average"))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y))
        assert spearman(x, y**3) == pytest.approx(spearman(x, y))


class TestKendall:
    def test_full_discordance(self):
        assert kendall([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_enumeration(self):
        assert kendall([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_tied_pair_contributes_zero(self):
        # pairs: (1,2) tied in x -> 0; (1,3) +1; (2,3) +1; tau = 2*2/(3*2) = 2/3
        assert kendall([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3)

    def test_constant_input_flags_zero(self):
        with pytest.warns(UserWarning):
            assert kendall([1, 1, 1], [1, 2, 3]) == 0.0

    def test_matches_pair_loop_exactly_on_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, int(rng.integers(1, 6)), n).astype(float)
            y = rng.integers(-2, int(rng.integers(-1, 4)), n) * 0.5
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a constant draw warns
                assert kendall(x, y) == kendall_pairs_oracle(x.tolist(), y.tolist())

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert kendall(2 * x + 5, y) == pytest.approx(kendall(x, y))
        assert kendall(x, np.exp(y)) == pytest.approx(kendall(x, y))


class TestSharedProperties:
    @pytest.mark.parametrize("fn", [pearson, spearman, kendall], ids=["pearson", "spearman", "kendall"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_raises(self, fn, bad):
        # Before, pearson and kendall returned nan, and spearman([nan, 1, 2], [1, 2, 3]) was -0.5.
        for x, y in (([bad, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, bad, 3.0])):
            with pytest.raises(DataError, match="non-finite"):
                fn(x, y)

    def test_range_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            for fn in (pearson, spearman, kendall):
                assert -1.0 <= fn(x, y) <= 1.0

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        for fn in (pearson, spearman, kendall):
            assert fn(3.0 * x + 1.0, y) == pytest.approx(fn(x, y))
            assert fn(x, 0.5 * y - 2.0) == pytest.approx(fn(x, y))
