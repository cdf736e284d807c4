"""Block counts and the box-dimension series of the multiplicative golden mean shift.

The golden mean shift has F_n admissible words of length n, where
F_0 = 1, F_1 = 2, F_{n+2} = F_{n+1} + F_n.  The box dimension of the
associated base-2 multiplicative subshift is
(1 / (2 ln 2)) * sum_{n >= 1} ln(F_n) / 2**n; partial sums come with a
rigorous tail bound from F_n <= 2**n.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

__all__ = ["SeriesResult", "dimB_goldenmean", "fib"]

_FIBS = [1, 2]


def fib(n: int) -> int:
    """Golden-mean block count: F_0 = 1, F_1 = 2, F_{n+2} = F_{n+1} + F_n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    while len(_FIBS) <= n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[n]


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of the dimension series with a truncation bound.

    Terms are positive, so partial sums increase with terms_used and the
    true value lies in [partial_sum, partial_sum + tail_bound].
    """

    partial_sum: Decimal
    terms_used: int
    tail_bound: Decimal


def dimB_goldenmean(terms: int, reverse: bool = False) -> SeriesResult:
    """Partial sum of (1 / (2 ln 2)) * sum ln(F_n) / 2**n over n in [1, terms].

    ``reverse`` sums the terms smallest-first, which serves as an
    independent evaluation order for cross-checking.  The tail bound uses
    ln(F_n) <= n ln 2, giving sum_{n > T} n ln2 / 2**n = ln2 * (T+2) / 2**T
    and hence a bound of (T+2) / 2**(T+1) after the prefactor.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    with localcontext() as ctx:
        ctx.prec = 40  # significant digits
        two = Decimal(2)
        indices = range(terms, 0, -1) if reverse else range(1, terms + 1)
        total = Decimal(0)
        for n in indices:
            total += Decimal(fib(n)).ln() / two**n
        value = total / (two * two.ln())
        tail = Decimal(terms + 2) / two ** (terms + 1)
    return SeriesResult(partial_sum=value, terms_used=terms, tail_bound=tail)
