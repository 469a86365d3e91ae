import numpy as np
import pytest

from netsafety.errors import DataError, ParameterError
from netsafety.stats import Dataset, shapley_from_game, shapley_values
from netsafety.stats import shapley

from oracles import shapley_oracle, shapley_permutation_oracle, shapley_values_oracle


class TestGameEnumeration:
    def test_two_player_hand_values(self):
        game = {frozenset(): 0.0, frozenset({0}): 0.3, frozenset({1}): 0.4, frozenset({0, 1}): 0.6}
        report = shapley_from_game(2, game.__getitem__)
        assert report.phi[0] == pytest.approx(0.25)
        assert report.phi[1] == pytest.approx(0.35)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5):
            table = {
                frozenset(s): float(rng.uniform(0, 1))
                for mask in range(1 << n)
                for s in [[i for i in range(n) if mask >> i & 1]]
            }
            table[frozenset()] = 0.0
            report = shapley_from_game(n, table.__getitem__)
            oracle = shapley_permutation_oracle(n, table.__getitem__)
            np.testing.assert_allclose(report.phi, oracle, atol=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(1)
        n = 6
        table = {}
        for mask in range(1 << n):
            s = frozenset(i for i in range(n) if mask >> i & 1)
            table[s] = float(rng.uniform(0, 1)) if s else 0.0
        report = shapley_from_game(n, table.__getitem__)
        assert sum(report.phi) == pytest.approx(table[frozenset(range(n))], abs=1e-9)

    def test_dummy_player(self):
        # Player 1 never changes the value of any coalition.
        def value(s):
            return 0.5 if 0 in s else 0.0

        report = shapley_from_game(2, value)
        assert report.phi[1] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_players_equal(self):
        def value(s):
            return float(len(s & {0, 1}) > 0) * 0.4 + 0.1 * (2 in s)

        report = shapley_from_game(3, value)
        assert report.phi[0] == pytest.approx(report.phi[1], abs=1e-12)

    def test_player_cap(self):
        with pytest.raises(ParameterError):
            shapley_from_game(17, lambda s: 0.0)


def planted_dataset(rng, n=120, noise=0.05):
    x = rng.normal(size=(n, 4))
    y = 3.0 * x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, noise, n)
    return Dataset(x=x, y=y, predictor_names=["strong", "weak", "null_a", "null_b"])


class TestRegressionGame:
    def test_dominant_predictor_ranks_first(self):
        rng = np.random.default_rng(2)
        report = shapley_values(planted_dataset(rng))
        values = report.by_name()
        assert values["strong"] == max(values.values())
        assert values["strong"] > values["weak"] > max(values["null_a"], values["null_b"])

    def test_efficiency_against_full_fit(self):
        from netsafety.stats import ols_fit

        rng = np.random.default_rng(3)
        d = planted_dataset(rng)
        report = shapley_values(d)
        assert sum(report.phi) == pytest.approx(ols_fit(d).adj_r2, abs=1e-9)

    def test_duplicated_predictor_splits_value(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 2))
        y = 2.0 * x[:, 0] + rng.normal(0, 0.1, 100)
        base = shapley_values(Dataset(x=x, y=y, predictor_names=["a", "b"]))
        dup = shapley_values(
            Dataset(x=np.column_stack([x, x[:, 0]]), y=y, predictor_names=["a", "b", "a_dup"])
        )
        values = dup.by_name()
        assert values["a"] == pytest.approx(values["a_dup"], abs=1e-9)  # symmetry
        assert sum(dup.phi) == pytest.approx(sum(base.phi), abs=1e-9)  # total unchanged
        assert len(dup.degenerate_coalitions) > 0

    def test_null_predictors_near_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 3))
        y = 4.0 * x[:, 0] + rng.normal(0, 0.05, 200)
        values = shapley_values(Dataset(x=x, y=y, predictor_names=["s", "n1", "n2"])).by_name()
        assert abs(values["n1"]) < 0.02 and abs(values["n2"]) < 0.02


def assert_matches_per_coalition_oracle(d):
    """phi, every coalition value and the degenerate coalitions equal one ols_fit per coalition.

    Tolerance is 1e-12 relative to the largest magnitude: an entry near zero (a null
    predictor's phi, a noise coalition's adjusted R-squared) carries the oracle's own
    cancellation error, which exceeds 1e-12 of that entry.
    """
    report = shapley_values(d)
    phi, values, degenerate = shapley_oracle(d)
    table = np.array([values[frozenset(i for i in range(d.m) if mask >> i & 1)] for mask in range(1 << d.m)])
    np.testing.assert_allclose(report.phi, phi, rtol=1e-12, atol=1e-12 * np.max(np.abs(phi)))
    np.testing.assert_allclose(report.coalition_values, table, rtol=1e-12, atol=1e-12 * np.max(np.abs(table)))
    assert report.degenerate_coalitions == degenerate
    return report


def random_regression(seed, n=50, m=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    return x, x @ rng.normal(size=m) + rng.normal(size=n)


class TestAgainstPerCoalitionOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_designs(self, seed):
        x, y = random_regression(seed)
        report = assert_matches_per_coalition_oracle(Dataset(x, y, list("abcde")))
        assert report.degenerate_coalitions == []
        assert len(report.coalition_values) == 32

    def test_duplicated_column(self):
        x, y = random_regression(10)
        x[:, 3] = x[:, 1]
        report = assert_matches_per_coalition_oracle(Dataset(x, y, list("abcde")))
        assert frozenset({1, 3}) in report.degenerate_coalitions

    def test_collinear_triple(self):
        x, y = random_regression(11)
        x[:, 4] = 0.5 * x[:, 0] - 2.0 * x[:, 2]
        report = assert_matches_per_coalition_oracle(Dataset(x, y, list("abcde")))
        assert frozenset({0, 2, 4}) in report.degenerate_coalitions
        assert frozenset({0, 4}) not in report.degenerate_coalitions

    def test_constant_column(self):
        x, y = random_regression(12)
        x[:, 2] = 0.7
        report = assert_matches_per_coalition_oracle(Dataset(x, y, list("abcde")))
        assert len(report.degenerate_coalitions) == 16
        assert report.phi[2] == pytest.approx(0.0, abs=1e-12)

    def test_constant_response_raises(self):
        x, _ = random_regression(13)
        with pytest.raises(DataError, match="response is constant"):
            shapley_values(Dataset(x, np.full(50, 2.0), list("abcde")))


def assert_bit_identical_to_per_size_oracle(d):
    """phi, every coalition value and the degenerate coalitions are those of the per-size rank test, bit for bit."""
    report, oracle = shapley_values(d), shapley_values_oracle(d)
    assert np.array(report.phi).tobytes() == np.array(oracle.phi).tobytes()
    assert report.coalition_values.tobytes() == oracle.coalition_values.tobytes()
    assert report.degenerate_coalitions == oracle.degenerate_coalitions
    return report


def near_collinear(seed, delta, n=40):
    """Four predictors, the fourth the second plus noise of size delta."""
    x, y = random_regression(seed, n=n, m=4)
    x[:, 3] = x[:, 1] + delta * np.random.default_rng(seed).normal(size=n)
    return Dataset(x, y, list("abcd"))


def rank_test_factor(d):
    """How many times over the full design passes the rank test s_min > s_max * n * eps."""
    r = np.linalg.qr(np.column_stack([np.ones(d.n), d.x, d.y]), mode="r")
    sv = np.linalg.svd(r[:, :-1], compute_uv=False)
    return sv[-1] / (sv[0] * d.n * np.finfo(float).eps)


def near_threshold_design():
    """Passes the rank test on every coalition, but the full design by less than shapley.RANK_TEST_MARGIN."""
    d = near_collinear(0, 1e-12)
    assert 1 < rank_test_factor(d) < shapley.RANK_TEST_MARGIN
    return d


class TestAgainstPerSizeOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_designs(self, seed):
        m = 1 + seed
        x, y = random_regression(seed, n=30 + 10 * seed, m=m)
        x *= 10.0 ** np.arange(-3, m - 3)  # columns of unlike scales, as metrics are
        report = assert_bit_identical_to_per_size_oracle(Dataset(x, y, [f"p{i}" for i in range(m)]))
        assert report.degenerate_coalitions == []

    def test_near_threshold_design(self):
        report = assert_bit_identical_to_per_size_oracle(near_threshold_design())
        assert report.degenerate_coalitions == []

    def test_near_collinear_column_failing_the_test(self):
        d = near_collinear(0, 1e-14)
        assert rank_test_factor(d) < 1
        report = assert_bit_identical_to_per_size_oracle(d)
        assert frozenset({1, 3}) in report.degenerate_coalitions

    @pytest.mark.parametrize("case", ["duplicated", "collinear", "constant"])
    def test_duplicated_or_collinear_columns(self, case):
        x, y = random_regression(20)
        if case == "duplicated":
            x[:, 3] = x[:, 1]
        elif case == "collinear":
            x[:, 4] = 0.5 * x[:, 0] - 2.0 * x[:, 2]
        else:
            x[:, 2] = 0.7
        report = assert_bit_identical_to_per_size_oracle(Dataset(x, y, list("abcde")))
        assert report.degenerate_coalitions

    def test_fewest_rows(self):
        x, y = random_regression(21, n=7, m=5)  # n = M + 2
        report = assert_bit_identical_to_per_size_oracle(Dataset(x, y, list("abcde")))
        assert len(report.coalition_values) == 32


class TestOneRankTest:
    @staticmethod
    def svd_calls(monkeypatch, d):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        shapley_values(d)
        return len(calls)

    def test_well_conditioned_design_takes_one_svd(self, monkeypatch):
        x, y = random_regression(30, m=6)
        assert self.svd_calls(monkeypatch, Dataset(x, y, list("abcdef"))) == 1

    def test_near_threshold_design_tests_every_size(self, monkeypatch):
        assert self.svd_calls(monkeypatch, near_threshold_design()) == 1 + 4

    def test_coalition_tables_are_built_once_read_only(self):
        tables = shapley._coalition_tables(5)
        assert shapley._coalition_tables(5) is tables
        assert [len(masks) for _, masks, _ in tables] == [5, 10, 10, 5, 1]
        assert not any(table.flags.writeable for size in tables for table in size)
