"""Pearson, Spearman, and Kendall correlation coefficients."""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import DataError, ParameterError


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError(f"need two equal-length 1-D sequences, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ParameterError(f"need at least 2 observations, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("correlation undefined for a non-finite value (nan or inf)")
    return x, y


def pearson(x, y) -> float:
    """Linear correlation: centered cross-product over the product of norms."""
    x, y = _as_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0 or sy == 0:
        raise DataError("correlation undefined for a constant sequence")
    return float(np.sum(dx * dy) / (sx * sy))


def _mean_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the mean of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + 0.5 * (counts - 1) + 1.0)[inverse]


def spearman(x, y) -> float:
    """Rank correlation: Pearson on mean ranks."""
    x, y = _as_pair(x, y)
    return pearson(_mean_ranks(x), _mean_ranks(y))


def kendall(x, y) -> float:
    """Kendall tau-a: concordant minus discordant pairs over all n(n-1)/2 pairs.

    Tied pairs contribute 0 (no tie normalization); a constant sequence
    therefore yields 0, which is flagged with a warning rather than raised.
    """
    x, y = _as_pair(x, y)
    if np.all(x == x[0]) or np.all(y == y[0]):
        warnings.warn("kendall tau on a constant sequence is 0 by convention", stacklevel=2)
    sx = (x[:, None] > x).view(np.int8) - (x[:, None] < x).view(np.int8)
    sy = (y[:, None] > y).view(np.int8) - (y[:, None] < y).view(np.int8)
    n = x.size
    return float(np.sum(sx * sy) / (n * (n - 1)))  # every pair twice; the integer sum is exact
