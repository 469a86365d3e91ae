"""Linear and Poisson regression with the inference statistics used downstream.

OLS carries the overall F-test, R-squared and adjusted R-squared; Poisson
fits use a log link via iteratively reweighted least squares. In both the
design matrix gets an intercept column, and the parameter count ``p`` used
by adjusted R-squared and the F-test includes that column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NonConvergenceError, ParameterError, SingularDesignError
from .special import f_sf

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
_EXACT_FIT_RTOL = 1e-12


@dataclass
class Dataset:
    """Predictor matrix and response, with the segment id of each row of a join and counts of its dropped rows.

    ``extras`` carries optional aligned columns (baselines such as traffic
    volume) that are not part of the fitted design; NaN marks absent values
    there. ``dropped`` counts rows excluded before fitting, keyed by cause.
    """

    x: np.ndarray
    y: np.ndarray
    predictor_names: list[str]
    segment: np.ndarray | None = None
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise ParameterError(f"X must be 2-D, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ParameterError("y length must match the number of rows of X")
        if self.x.shape[1] != len(self.predictor_names):
            raise ParameterError("predictor_names must match the number of columns of X")
        if np.isnan(self.x).any() or np.isnan(self.y).any():
            raise DataError("rows admitted to fitting must not contain absent values")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


@dataclass
class RegressionReport:
    """Fit summary. For cross-validated reports the score fields hold held-out averages."""

    model_kind: str  # "linear" or "poisson"
    beta: np.ndarray
    n_obs: int
    n_params: int  # columns of the design matrix, intercept included
    sigma2: float | None = None
    r2: float | None = None
    adj_r2: float | None = None
    f_stat: float | None = None
    f_pvalue: float | None = None
    n_mse: float | None = None
    evaluation: str = "in_sample"
    folds_used: int | None = None

    def to_dict(self) -> dict:
        out = {
            "model_kind": self.model_kind,
            "beta": [float(b) for b in self.beta],
            "n_obs": self.n_obs,
            "n_params": self.n_params,
            "evaluation": self.evaluation,
        }
        for name in ("sigma2", "r2", "adj_r2", "f_stat", "f_pvalue", "n_mse", "folds_used"):
            value = getattr(self, name)
            out[name] = None if value is None else float(value)
        return out


def _design(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.shape[0]), x])


def independent_columns(x: np.ndarray) -> list[int]:
    """Greedy left-to-right maximal set of linearly independent predictor columns."""
    kept_idx: list[int] = []
    for j in range(x.shape[1]):
        if np.linalg.matrix_rank(np.column_stack([np.ones(x.shape[0]), x[:, kept_idx + [j]]])) == len(kept_idx) + 2:
            kept_idx.append(j)
    return kept_idx


def _check_rank(design: np.ndarray, names: list[str]) -> None:
    if np.linalg.matrix_rank(design) == design.shape[1]:
        return
    # Columns that do not grow the rank of the greedy pass are the collinear ones.
    keep = independent_columns(design[:, 1:])
    bad = [name for j, name in enumerate(names) if j not in keep]
    raise SingularDesignError(f"design matrix is rank deficient; collinear columns: {bad}", columns=bad)


def adjusted_r2(r2: float, n: int, p: int) -> float:
    """Penalize R-squared for model size: 1 - (1 - R2)(n - 1)/(n - p)."""
    if n <= p:
        raise ParameterError(f"need more observations than parameters (n={n}, p={p})")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p)


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    """``y`` and ``yhat`` as float arrays; ParameterError unless both are 1-D of one length."""
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ParameterError("y and yhat must be equal-length 1-D sequences")
    return y, yhat


def r2_score(y, yhat) -> float:
    """1 - RSS/TSS; can be negative on held-out data. Undefined for constant y."""
    y, yhat = _paired(y, yhat)
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0:
        raise DataError("R-squared undefined: response is constant (TSS = 0)")
    return 1.0 - float(np.sum((y - yhat) ** 2)) / tss


def n_mse(y, yhat, mode: str = "mean") -> float:
    """Normalized MSE: squared error over half the squared pairwise sum, per pair.

    Both-zero pairs contribute 0. ``mode`` selects averaging over pairs
    (default) or the plain sum.
    """
    if mode not in ("mean", "sum"):
        raise ParameterError(f"mode must be 'mean' or 'sum', got {mode!r}")
    y, yhat = _paired(y, yhat)
    terms = np.zeros(y.size)
    both_zero = (y == 0) & (yhat == 0)
    denom = (y + yhat) ** 2 / 2.0
    bad = (denom == 0) & ~both_zero
    if np.any(bad):
        raise ParameterError("pair with y + yhat = 0 but not both zero; N-MSE undefined")
    ok = ~both_zero
    terms[ok] = (y[ok] - yhat[ok]) ** 2 / denom[ok]
    return float(terms.sum() if mode == "sum" else terms.mean())


def ols_fit(d: Dataset) -> RegressionReport:
    """Ordinary least squares with intercept, plus R2, adjusted R2, and the overall F-test."""
    design = _design(d.x)
    n, p = design.shape
    if n < p + 1:
        raise DataError(f"need n >= p + 1 observations for OLS inference (n={n}, p={p})")
    _check_rank(design, d.predictor_names)
    beta, *_ = np.linalg.lstsq(design, d.y, rcond=None)
    yhat = design @ beta
    ybar = d.y.mean()
    tss = float(np.sum((d.y - ybar) ** 2))
    rss = float(np.sum((d.y - yhat) ** 2))
    if tss == 0:
        raise DataError("R-squared undefined: response is constant (TSS = 0)")
    r2 = float(np.sum((yhat - ybar) ** 2)) / tss
    sigma2 = rss / (n - p)
    if rss <= _EXACT_FIT_RTOL * tss:
        f_stat: float = math.inf
        f_p = 0.0
    else:
        f_stat = ((tss - rss) / (p - 1)) / (rss / (n - p))
        f_p = f_sf(f_stat, p - 1, n - p)
    return RegressionReport(
        model_kind="linear",
        beta=beta,
        n_obs=n,
        n_params=p,
        sigma2=sigma2,
        r2=r2,
        adj_r2=adjusted_r2(r2, n, p),
        f_stat=f_stat,
        f_pvalue=f_p,
        n_mse=n_mse(d.y, yhat),
    )


def poisson_fit(d: Dataset) -> RegressionReport:
    """Log-link Poisson regression by IRLS.

    Accepts non-negative real responses (averaged counts are valid input).
    Convergence: max absolute coefficient change below 1e-8 within 100
    iterations, else NonConvergenceError.
    """
    if np.any(d.y < 0):
        raise DataError("Poisson regression needs non-negative responses")
    design = _design(d.x)
    n, p = design.shape
    _check_rank(design, d.predictor_names)
    mu = d.y + max(d.y.mean(), 0.1) * 0.5 + 0.1
    eta = np.log(mu)
    beta = np.zeros(p)
    for _ in range(IRLS_MAX_ITER):
        w = np.sqrt(mu)
        z = eta + (d.y - mu) / mu
        beta_new, *_ = np.linalg.lstsq(design * w[:, None], z * w, rcond=None)
        if np.max(np.abs(beta_new - beta)) < IRLS_TOL:
            beta = beta_new
            break
        beta = beta_new
        eta = np.clip(design @ beta, -700, 700)
        mu = np.exp(eta)
    else:
        raise NonConvergenceError(
            f"Poisson IRLS did not converge in {IRLS_MAX_ITER} iterations "
            "(boundary MLE, e.g. an all-zero response, has no finite fit)"
        )
    mu = np.exp(np.clip(design @ beta, -700, 700))
    return RegressionReport(
        model_kind="poisson",
        beta=beta,
        n_obs=n,
        n_params=p,
        n_mse=n_mse(d.y, mu),
    )


def predict(report: RegressionReport, x: np.ndarray) -> np.ndarray:
    design = _design(np.asarray(x, dtype=float))
    eta = design @ report.beta
    if report.model_kind == "poisson":
        return np.exp(np.clip(eta, -700, 700))
    return eta


def kfold_cv(d: Dataset, k: int, seed: int, model_kind: str = "linear") -> RegressionReport:
    """K-fold cross-validation; scores averaged over held-out folds.

    The returned beta and (for linear models) F statistics come from the
    full-data fit; r2/adj_r2/n_mse are held-out averages. Folds follow the
    Dataset's row order: ``seed``'s permutation deals row positions to folds.
    Folds whose held-out response is constant are skipped with a warning.
    Fewer rows than folds is a DataError: the data, not the call, is short.
    """
    if model_kind not in ("linear", "poisson"):
        raise ParameterError(f"model_kind must be 'linear' or 'poisson', got {model_kind!r}")
    if k < 2:
        raise ParameterError(f"need k >= 2 folds, got k={k}")
    if k > d.n:
        raise DataError(f"{d.n} rows cannot fill {k} cross-validation folds")
    fit = ols_fit if model_kind == "linear" else poisson_fit
    full = fit(d)
    folds = np.array_split(np.random.default_rng(seed).permutation(d.n), k)
    p = d.m + 1
    r2_vals: list[float] = []
    adj_vals: list[float] = []
    nmse_vals: list[float] = []
    folds_used = 0
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
        y_test = d.y[test_idx]
        try:
            model = fit(Dataset(d.x[train_idx], d.y[train_idx], d.predictor_names))
        except DataError as exc:
            warnings.warn(f"fold {i} skipped: {exc}", stacklevel=2)
            continue
        yhat = predict(model, d.x[test_idx])
        folds_used += 1
        nmse_vals.append(n_mse(y_test, yhat))
        if np.all(y_test == y_test[0]):
            warnings.warn(f"fold {i}: held-out response constant, no R-squared", stacklevel=2)
            continue
        r2 = r2_score(y_test, yhat)
        r2_vals.append(r2)
        if len(test_idx) > p:
            adj_vals.append(adjusted_r2(r2, len(test_idx), p))
    if not folds_used:
        raise DataError("every cross-validation fold was skipped")
    mean = lambda vals: float(np.mean(vals)) if vals else None  # noqa: E731
    return RegressionReport(
        model_kind=model_kind,
        beta=full.beta,
        n_obs=d.n,
        n_params=p,
        r2=mean(r2_vals),
        adj_r2=mean(adj_vals),
        f_stat=full.f_stat,
        f_pvalue=full.f_pvalue,
        n_mse=mean(nmse_vals),
        evaluation="cv_mean",
        folds_used=folds_used,
    )
