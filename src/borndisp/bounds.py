"""
Closed-form calculators for the sharp-regularity exponents and thresholds:
the dimension threshold m, the series exponents alpha_j, the necessary-range
and positive-range limits, and the gain ceiling alpha0.
"""

from __future__ import annotations


class OutOfRange(ValueError):
    """beta below the convergence threshold for alpha_j."""


def m_threshold(n: int) -> float:
    """m = (n-4)/2 + 2/(n+1)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return (n - 4) / 2.0 + 2.0 / (n + 1)


def alpha_j(n: int, beta: float, j: int) -> float:
    """alpha_j = beta - 1/2 + (j-1) - (j-1)(n-1)/2 max(0, 1/2 - beta/n)."""
    if j < 2:
        raise ValueError(f"j must be >= 2, got {j}")
    threshold = max(0.0, m_threshold(n))
    if beta < threshold:
        raise OutOfRange(
            f"beta = {beta} below max(0, m) = {threshold}: convergence not asserted"
        )
    return beta - 0.5 + (j - 1) - (j - 1) * (n - 1) / 2.0 * max(0.0, 0.5 - beta / n)


def alpha0(n: int, beta: float) -> float:
    """Gain ceiling min(beta + 1, 2 beta - (n-4)/2)."""
    return min(beta + 1.0, 2.0 * beta - (n - 4) / 2.0)


def thm11_max(n: int, beta: float) -> float | None:
    """Necessary upper limit on alpha for q - q_theta regularity:
    2 beta - (n-4)/2 on m <= beta < (n-2)/2, beta + 1 on beta >= (n-2)/2."""
    if beta >= (n - 2) / 2.0:
        return beta + 1.0
    if beta >= m_threshold(n):
        return 2.0 * beta - (n - 4) / 2.0
    return None


def thm13_sup(n: int, beta: float) -> float | None:
    """Supremum of the positive range: 2 beta - (n-3)/2 on
    (n-3)/2 < beta < (n-1)/2, beta + 1 on beta >= (n-1)/2."""
    if beta >= (n - 1) / 2.0:
        return beta + 1.0
    if beta > (n - 3) / 2.0:
        return 2.0 * beta - (n - 3) / 2.0
    return None
