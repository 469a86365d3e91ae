import math
import warnings

import numpy as np
import pytest

from netsafety.errors import DataError, NonConvergenceError, ParameterError, SingularDesignError
from netsafety.stats import (
    Dataset,
    adjusted_r2,
    kfold_cv,
    n_mse,
    ols_fit,
    poisson_fit,
    predict,
    r2_score,
)

from oracles import kfold_cv_oracle, ols_oracle


def dataset(x, y, names=None):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    names = names or [f"x{i}" for i in range(x.shape[1])]
    return Dataset(x=x, y=np.asarray(y, dtype=float), predictor_names=names)


class TestOls:
    def test_exact_fit(self):
        report = ols_fit(dataset([0, 1, 2], [1, 3, 5]))
        np.testing.assert_allclose(report.beta, [1.0, 2.0], atol=1e-12)
        assert report.r2 == pytest.approx(1.0)
        assert math.isinf(report.f_stat)
        assert report.f_pvalue == 0.0

    def test_constant_response_rejected(self):
        with pytest.raises(DataError, match="TSS"):
            ols_fit(dataset([0, 1, 2], [4, 4, 4]))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.normal(size=(50, 3))
            y = x @ rng.normal(size=3) + rng.normal(0, 0.7, 50)
            report = ols_fit(dataset(x, y))
            oracle = ols_oracle(x, y)
            np.testing.assert_allclose(report.beta, oracle["beta"], rtol=1e-8)
            assert report.r2 == pytest.approx(oracle["r2"], rel=1e-8)
            assert report.adj_r2 == pytest.approx(oracle["adj_r2"], rel=1e-8)
            assert report.f_stat == pytest.approx(oracle["f"], rel=1e-8)
            assert report.f_pvalue == pytest.approx(oracle["p"], rel=1e-6, abs=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        report = ols_fit(dataset(x, y))
        design = np.column_stack([np.ones(60), x])
        resid = y - design @ report.beta
        assert np.max(np.abs(design.T @ resid)) <= 1e-8

    def test_singular_design_names_columns(self):
        x = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(SingularDesignError) as err:
            ols_fit(dataset(x, np.arange(10.0) + 1, names=["a", "a_copy"]))
        assert err.value.columns == ["a_copy"]

    def test_too_few_rows(self):
        # n >= M + 2 is required; two rows with one predictor is below that.
        with pytest.raises(DataError):
            ols_fit(dataset(np.arange(2.0), [1.0, 2.0]))
        ols_fit(dataset(np.arange(3.0), [1.0, 2.0, 4.0]))  # n = M + 2 is admissible


class TestAdjustedR2:
    def test_direct(self):
        assert adjusted_r2(0.5, 11, 2) == pytest.approx(1 - 0.5 * 10 / 9)

    def test_perfect_fit_fixed_point(self):
        for n, p in [(10, 2), (30, 5)]:
            assert adjusted_r2(1.0, n, p) == pytest.approx(1.0)

    def test_single_param_no_adjustment(self):
        assert adjusted_r2(0.37, 20, 1) == pytest.approx(0.37)

    def test_bad_sizes(self):
        with pytest.raises(ParameterError):
            adjusted_r2(0.5, 3, 3)


class TestPoisson:
    def test_intercept_only_mean(self):
        report = poisson_fit(Dataset(np.empty((3, 0)), np.array([1.0, 2.0, 3.0]), []))
        assert report.beta[0] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_all_zero_diverges(self):
        with pytest.raises(NonConvergenceError):
            poisson_fit(Dataset(np.empty((4, 0)), np.zeros(4), []))

    def test_binary_group_means(self):
        x = np.array([0.0] * 6 + [1.0] * 6)
        y = np.array([2.0] * 6 + [4.0] * 6)
        report = poisson_fit(dataset(x, y))
        np.testing.assert_allclose(report.beta, [math.log(2), math.log(2)], atol=1e-8)

    def test_negative_response_rejected(self):
        with pytest.raises(DataError):
            poisson_fit(dataset([0.0, 1.0], [1.0, -1.0]))

    def test_score_equations_at_convergence(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=(80, 3))
            lam = np.exp(1.0 + x @ np.array([0.3, -0.2, 0.1]))
            y = rng.poisson(lam).astype(float)
            report = poisson_fit(dataset(x, y))
            design = np.column_stack([np.ones(80), x])
            mu = np.exp(design @ report.beta)
            assert np.max(np.abs(design.T @ (y - mu))) <= 1e-6


class TestNMse:
    def test_identity_zero(self):
        assert n_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_direct(self):
        assert n_mse([3.0], [1.0]) == pytest.approx(0.5)

    def test_modes(self):
        assert n_mse([3.0, 1.0], [1.0, 3.0], mode="sum") == pytest.approx(1.0)
        assert n_mse([3.0, 1.0], [1.0, 3.0], mode="mean") == pytest.approx(0.5)

    def test_both_zero_contributes_zero(self):
        assert n_mse([0.0, 3.0], [0.0, 1.0]) == pytest.approx(0.25)

    def test_invalid_cancelling_pair(self):
        with pytest.raises(ParameterError):
            n_mse([1.0], [-1.0])


class TestKfold:
    def test_noiseless_linear_generalizes(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 2))
        y = 1.0 + x @ np.array([2.0, -1.0])
        report = kfold_cv(dataset(x, y), k=5, seed=0)
        assert report.r2 == pytest.approx(1.0, abs=1e-9)
        assert report.n_mse == pytest.approx(0.0, abs=1e-12)
        assert report.folds_used == 5

    def test_same_seed_identical(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 2))
        y = x @ np.array([1.0, 1.0]) + rng.normal(0, 0.5, 30)
        a = kfold_cv(dataset(x, y), k=5, seed=3)
        b = kfold_cv(dataset(x, y), k=5, seed=3)
        assert a.r2 == b.r2 and a.n_mse == b.n_mse
        np.testing.assert_array_equal(a.beta, b.beta)

    def test_leave_one_out_runs(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 1))
        y = 2 * x[:, 0] + rng.normal(0, 0.1, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # single-row folds skip adj_r2
            report = kfold_cv(dataset(x, y), k=12, seed=0)
        assert report.folds_used >= 1

    def test_poisson_mode(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 2))
        y = rng.poisson(np.exp(1.0 + 0.4 * x[:, 0])).astype(float)
        report = kfold_cv(dataset(x, y), k=5, seed=1, model_kind="poisson")
        assert report.model_kind == "poisson"
        assert report.n_mse is not None and report.f_stat is None

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            kfold_cv(dataset(np.arange(5.0), np.arange(5.0) + 0.5), k=1, seed=0)

    def test_more_folds_than_rows_is_a_data_error(self):
        # Short data, not a bad call: callers that mark short data insufficient_data catch DataError.
        with pytest.raises(DataError, match="^5 rows cannot fill 6 cross-validation folds$"):
            kfold_cv(dataset(np.arange(5.0), np.arange(5.0) + 0.5), k=6, seed=0)


class TestKfoldAgainstOracle:
    """Fold assembly: every fold statistic and the full-data beta equal, bit for bit, those of the same seed's
    folds fitted one by one from the raw arrays."""

    @staticmethod
    def response(x, model_kind, rng):
        eta = 0.5 + x @ np.linspace(0.4, -0.3, x.shape[1])
        if model_kind == "poisson":
            return rng.poisson(np.exp(eta)).astype(float)
        return eta + rng.normal(0, 0.3, len(eta))

    def assert_matches_oracle(self, x, y, k, seed, model_kind):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = kfold_cv(dataset(x, y), k=k, seed=seed, model_kind=model_kind)
        want = kfold_cv_oracle(x, y, k, seed, model_kind)
        assert [str(w.message) for w in caught] == want["notes"]
        assert (report.r2, report.adj_r2, report.n_mse, report.folds_used) == (
            want["r2"], want["adj_r2"], want["n_mse"], want["folds_used"])
        np.testing.assert_array_equal(report.beta, want["beta"])
        return want["notes"]

    @pytest.mark.parametrize("model_kind", ["linear", "poisson"])
    @pytest.mark.parametrize("seed, n, m, k", [(0, 40, 2, 5), (1, 23, 3, 4), (2, 57, 1, 3), (3, 31, 4, 6)])
    def test_random_designs(self, model_kind, seed, n, m, k):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(n, m))
        assert self.assert_matches_oracle(x, self.response(x, model_kind, rng), k, seed, model_kind) == []

    @pytest.mark.parametrize("model_kind", ["linear", "poisson"])
    def test_constant_held_out_fold_and_singular_training_fold(self, model_kind):
        # Fold 1's held-out response is constant: it scores N-MSE only. Column 1 is nonzero on fold 3's rows
        # alone, so the training set without them is rank deficient and fold 3 is skipped.
        rng = np.random.default_rng(7)
        n, k, seed = 40, 5, 4
        folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
        x = np.column_stack([rng.normal(size=n), np.zeros(n)])
        x[folds[3], 1] = rng.normal(size=folds[3].size)
        y = self.response(x, model_kind, rng)
        y[folds[1]] = 2.0
        notes = self.assert_matches_oracle(x, y, k, seed, model_kind)
        assert [note.split(":")[0] for note in notes] == ["fold 1", "fold 3 skipped"]


class TestPredictAndScore:
    def test_r2_score_can_be_negative(self):
        assert r2_score([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) < 0

    @pytest.mark.parametrize("yhat", [[[1.0], [2.0], [3.0]], [1.0, 2.0]], ids=["column", "shorter"])
    def test_scores_refuse_unequal_shapes(self, yhat):
        # r2_score broadcast a column against y to 3x3 and returned -5.0 for a perfect fit, and let numpy's
        # ValueError escape for a shorter yhat; n_mse already refused both.
        for score in (r2_score, n_mse):
            with pytest.raises(ParameterError, match="^y and yhat must be equal-length 1-D sequences$"):
                score([1.0, 2.0, 3.0], yhat)

    def test_predict_linear_poisson(self):
        lin = ols_fit(dataset([0, 1, 2], [1, 3, 5]))
        np.testing.assert_allclose(predict(lin, np.array([[3.0]])), [7.0], atol=1e-9)
        poi = poisson_fit(Dataset(np.empty((3, 0)), np.array([2.0, 2.0, 2.0]), []))
        np.testing.assert_allclose(predict(poi, np.empty((2, 0))), [2.0, 2.0], atol=1e-8)
