"""Regularized incomplete gamma/beta functions and the tail probabilities built on them.

Self-contained implementations (power series + modified-Lentz continued
fractions) so p-values need no statistical tables or external libraries.
Absolute accuracy is ~1e-12 over the ranges used by chi-square and F tests.
"""

from __future__ import annotations

import math

from ..errors import ParameterError

_MAX_ITER = 600
_EPS = 1e-15
_TINY = 1e-300


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _lentz(a: float, b: float, c: float, d: float) -> tuple[float, float, float]:
    """One modified-Lentz step through the term a / (b + ...): the next c and d, and their product."""
    d = a * d + b
    d = 1.0 / (_TINY if abs(d) < _TINY else d)
    c = b + a / c
    c = _TINY if abs(c) < _TINY else c
    return c, d, d * c


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a + 1)."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        b += 2.0
        c, d, delta = _lentz(-i * (i - a), b, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ParameterError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ParameterError(f"argument must be >= 0, got {x}")
    if x == 0:
        return 1.0
    # Series converges fastest left of the mean, continued fraction right of it.
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        c, d, delta = _lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ParameterError(f"beta parameters must be positive, got a={a} b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def chi2_sf(x: float, df: float) -> float:
    """Upper tail P(X >= x) for a chi-square variable with df degrees of freedom."""
    if df <= 0:
        raise ParameterError(f"degrees of freedom must be positive, got {df}")
    if x <= 0:
        return 1.0
    return gammainc_upper(df / 2.0, x / 2.0)


def f_sf(f: float, df_num: float, df_den: float) -> float:
    """Upper tail P(F >= f) for an F(df_num, df_den) variable."""
    if df_num <= 0 or df_den <= 0:
        raise ParameterError("F-test degrees of freedom must be positive")
    if math.isinf(f):
        return 0.0
    if f <= 0:
        return 1.0
    x = df_den / (df_den + df_num * f)
    return betainc(df_den / 2.0, df_num / 2.0, x)
