"""Exact integer arithmetic for geometric position chains.

A fixed base ``l >= 2`` splits every positive integer uniquely as
``alpha * l**k`` with ``l`` not dividing ``alpha``.  The resulting chain
classes partition the positive integers, and the offset bounds proved
here are what keep multiplier-scaled constraints within finitely many
chain depths.  Everything is plain trial-division arithmetic: the base
is tiny in every intended use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Decomposition",
    "OffsetBound",
    "OffsetShift",
    "a_set",
    "decompose",
    "factorization",
    "next_prime_avoiding",
    "offset_bound",
    "offset_of",
    "product_offset_bound",
    "xi",
]


def _check_base(l: int) -> None:
    if not isinstance(l, int) or l < 2:
        raise ValueError(f"chain base must be >= 2, got {l!r}")


@dataclass(frozen=True)
class Decomposition:
    """n = alpha * base**k with base not dividing alpha."""

    alpha: int
    k: int
    base: int


@functools.lru_cache(maxsize=4096, typed=True)
def decompose(n: int, l: int) -> Decomposition:
    """Split ``n`` into its base-free part and base power (kept per typed (n, l); errors are not)."""
    _check_base(l)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")
    k = 0
    a = n
    while a % l == 0:
        a //= l
        k += 1
    return Decomposition(a, k, l)


def xi(length: int, l: int) -> int:
    """Largest n <= length not divisible by l.

    Consecutive integers are never both divisible by l >= 2, so this is
    length itself or length - 1.
    """
    _check_base(l)
    if length < 1:
        raise ValueError(f"expected a positive length, got {length!r}")
    return length if length % l else length - 1


def a_set(q: int, n: int) -> list[int]:
    """Integers in [1, n] not divisible by q."""
    if q < 2:
        raise ValueError(f"expected q >= 2, got {q!r}")
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n!r}")
    return [i for i in range(1, n + 1) if i % q]


def factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    if n < 2:
        raise ValueError(f"expected an integer >= 2, got {n!r}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def next_prime_avoiding(minimum_exclusive: int, avoid: frozenset[int] | set[int]) -> int:
    """Least prime strictly above ``minimum_exclusive`` outside ``avoid``."""
    p = max(minimum_exclusive, 1) + 1
    while p in avoid or factorization(p) != ((p, 1),):
        p += 1
    return p


@dataclass(frozen=True)
class OffsetBound:
    """Bound M with A_l * A_{l,N} contained in the union of l**i * A_l, i <= M."""

    M: int
    base: int
    N: int


def offset_bound(l: int, n: int) -> OffsetBound:
    """Offset bound for products of base-free integers with A_{l,N}.

    With l = p_1**m_1 ... p_r**m_r the bound is
    max over k in A_{l,N} and all i of floor(v_{p_i}(k) / m_i), plus one.
    A prime power l gives 1, as v_p(k) < m; otherwise each p_i**floor(log_{p_i} N)
    is in A_{l,N}, so the max is that of floor(log_{p_i**m_i} N).
    """
    _check_base(l)
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n!r}")
    facs = factorization(l)
    best = 0
    for q in [p**m for p, m in facs] if len(facs) > 1 else []:
        e, power = 0, q  # e ends as floor(log_q n), exactly
        while power <= n:
            e, power = e + 1, power * q
        best = max(best, e)
    return OffsetBound(best + 1, l, n)


class OffsetShift(NamedTuple):
    """i * u_len * alpha * l**k rewritten as j * l**(k1 + k + c)."""

    j: int
    exponent: int
    c: int


def offset_of(i: int, u_len: int, alpha: int, k: int, l: int) -> OffsetShift:
    """Exact offset decomposition of the scaled chain position.

    Both ``i`` and ``alpha`` must be base-free; k1 is the base power of
    ``u_len``.
    """
    _check_base(l)
    if i % l == 0:
        raise ValueError(f"{i} is divisible by the base {l}")
    if alpha % l == 0:
        raise ValueError(f"{alpha} is divisible by the base {l}")
    if k < 0:
        raise ValueError("exponent k must be nonnegative")
    k1 = decompose(u_len, l).k
    d = decompose(i * u_len * alpha, l)
    return OffsetShift(j=d.alpha, exponent=d.k + k, c=d.k - k1)


def product_offset_bound(l: int, u_len: int, v_len: int) -> int:
    """Offset bound c <= M for all products alpha1 * alpha * j.

    alpha1 is the base-free part of u_len, j ranges over base-free
    integers up to v_len, alpha over all base-free integers.  Splitting
    alpha1 * j off first and applying the A_l product bound to the rest
    gives M = M1 + M2.
    """
    _check_base(l)
    alpha1 = decompose(u_len, l).alpha
    m1 = 0
    for j in a_set(l, max(v_len, 1)):
        m1 = max(m1, decompose(alpha1 * j, l).k)
    m2 = offset_bound(l, alpha1 * max(v_len, 1)).M
    return m1 + m2
