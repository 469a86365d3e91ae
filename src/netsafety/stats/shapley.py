"""Exact Shapley attribution of model fit across predictor coalitions.

Players are predictors; the value of a coalition is the adjusted R-squared
of the OLS model built from exactly those columns (empty coalition: 0).
Exact enumeration over all 2^M coalitions, so M is capped at 16.

Every coalition fit comes from one QR factorization ``[1, X, y] = QR``.
Q has orthonormal columns, so the least-squares problem of coalition S on
the n data rows is the same problem on the (M+2)-row slice ``R[:, [0, *S]]``
against ``R[:, -1]``; the coalitions of one size are factored as one stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import DataError, ParameterError
from .regression import Dataset, adjusted_r2, independent_columns, ols_fit

MAX_PLAYERS = 16

# How far the full design A = R[:, :-1] (intercept and X) must pass the rank test
# s_min > s_max * t, t = n * eps, for every coalition slice to pass it untested:
# - a slice R[:, [0, *S]] is a column subset of A, so by Cauchy interlacing its
#   sigma_min >= sigma_min(A) and its sigma_max <= sigma_max(A);
# - LAPACK's computed singular values s of a matrix B obey |s - sigma| <= p * eps * sigma_max(B),
#   p a modestly growing function of B's shape; take p <= (M + 2)(M + 1), far above what it attains;
# - so if s_min(A) > c * t * s_max(A), a slice's s_min > (c * t * (1 - p*eps) - 2 * p*eps) * sigma_max(A)
#   and its s_max < (1 + p*eps) * sigma_max(A), and it passes once c >= (1 + 2*p/n + p*eps) / (1 - p*eps);
# - n >= M + 2 rows bound 2 * p / n by 2 * (M + 1) <= 34, so c = 36 is enough and 1024 leaves ~28x slack.
RANK_TEST_MARGIN = 1024.0


@dataclass
class ShapleyReport:
    """``coalition_values[mask]`` is the value of the coalition whose players are the set bits of mask."""

    predictor_names: list[str]
    phi: list[float]
    coalition_values: np.ndarray
    degenerate_coalitions: list[frozenset[int]] = field(default_factory=list)

    def by_name(self) -> dict[str, float]:
        return dict(zip(self.predictor_names, self.phi))

    def to_dict(self) -> dict:
        return {
            "phi": {name: float(v) for name, v in self.by_name().items()},
            "n_coalitions": len(self.coalition_values),
            "n_degenerate": len(self.degenerate_coalitions),
        }


def _members(mask: int, n_players: int) -> frozenset[int]:
    return frozenset(i for i in range(n_players) if mask >> i & 1)


def _phi(values: np.ndarray, n_players: int) -> list[float]:
    """phi_i = sum over S not containing i of |S|!(n-|S|-1)!/n! * (v(S+i) - v(S)), v indexed by bitmask.

    Efficiency (sum phi = v(all) - v(empty)) holds by construction.
    """
    masks = np.arange(1 << n_players)
    sizes = sum(masks >> i & 1 for i in range(n_players))
    fact = [math.factorial(i) for i in range(n_players + 1)]
    weights = np.array([fact[s] * fact[n_players - s - 1] / fact[n_players] for s in range(n_players)])
    phi = []
    for i in range(n_players):
        without = masks[(masks >> i & 1) == 0]
        phi.append(math.fsum(weights[sizes[without]] * (values[without | 1 << i] - values[without])))
    return phi


def shapley_from_game(n_players: int, value_fn: Callable[[frozenset[int]], float]) -> ShapleyReport:
    """Shapley values of an arbitrary coalition game by exact enumeration."""
    if not 1 <= n_players <= MAX_PLAYERS:
        raise ParameterError(f"exact enumeration supports 1..{MAX_PLAYERS} players, got {n_players}")
    values = np.array([float(value_fn(_members(mask, n_players))) for mask in range(1 << n_players)])
    return ShapleyReport([str(i) for i in range(n_players)], _phi(values, n_players), values)


@functools.cache
def _coalition_tables(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per coalition size k = 1..m, read-only: the coalitions' players, their bitmasks and their
    columns of R (intercept, players, then y)."""
    tables = []
    for k in range(1, m + 1):
        combos = np.array(list(itertools.combinations(range(m), k)))
        masks = (1 << combos).sum(axis=1)
        cols = np.hstack([np.zeros((len(combos), 1), int), combos + 1, np.full((len(combos), 1), m + 1)])
        for table in (combos, masks, cols):
            table.setflags(write=False)
        tables.append((combos, masks, cols))
    return tuple(tables)


def shapley_values(d: Dataset) -> ShapleyReport:
    """Shapley attribution of adjusted R-squared across a dataset's predictors.

    R-squared is ESS/TSS, ESS read off the R factor of the coalition's slice. A
    coalition whose slice fails ``numpy.linalg.matrix_rank``'s test (duplicated or
    collinear columns) inherits the value of its greedy independent subset of
    columns and is flagged in the report. When the full design passes that test by
    RANK_TEST_MARGIN, every coalition passes it, and the slices are not tested one by one.
    """
    m, n = d.m, d.n
    if m > MAX_PLAYERS:
        raise ParameterError(f"exact Shapley enumeration capped at {MAX_PLAYERS} predictors, got {m}")
    if n <= m + 1:
        raise ParameterError(f"need n > M + 1 rows for the full-coalition fit (n={n}, M={m})")
    r = np.linalg.qr(np.column_stack([np.ones(n), d.x, d.y]), mode="r")
    tss = float(np.sum((d.y - d.y.mean()) ** 2))
    design_sv = np.linalg.svd(r[:, :-1], compute_uv=False)
    every_full = design_sv[-1] > design_sv[0] * n * np.finfo(float).eps * RANK_TEST_MARGIN
    values = np.zeros(1 << m)
    degenerate: list[int] = []
    for k, (combos, masks, cols) in enumerate(_coalition_tables(m), start=1):
        slices = r[:, cols].transpose(1, 0, 2)  # (coalitions, M + 2, k + 2): intercept, S, then y
        if every_full:
            full = np.ones(len(masks), dtype=bool)
        else:
            sv = np.linalg.svd(slices[:, :, :-1], compute_uv=False)
            full = sv[:, -1] > sv[:, 0] * n * np.finfo(float).eps
        if full.any():
            if tss == 0:
                raise DataError("R-squared undefined: response is constant (TSS = 0)")
            ess = np.sum(np.linalg.qr(slices[full], mode="r")[:, 1:-1, -1] ** 2, axis=1)
            values[masks[full]] = adjusted_r2(ess / tss, n, k + 1)
        for combo, mask in zip(combos[~full], masks[~full]):
            cols = combo[independent_columns(d.x[:, combo])]
            sub = Dataset(d.x[:, cols], d.y, [d.predictor_names[j] for j in cols])
            values[mask] = ols_fit(sub).adj_r2 if cols.size else 0.0
            degenerate.append(int(mask))
    flagged = [_members(mask, m) for mask in sorted(degenerate)]
    return ShapleyReport(list(d.predictor_names), _phi(values, m), values, flagged)
