import pytest
from hypothesis import given, strategies as st

from multishift.lambda_arith import (
    a_set,
    decompose,
    factorization,
    offset_bound,
    offset_of,
    product_offset_bound,
    xi,
)


def test_decompose_pinned():
    assert (decompose(96, 2).alpha, decompose(96, 2).k) == (3, 5)
    assert (decompose(7, 4).alpha, decompose(7, 4).k) == (7, 0)
    assert (decompose(243, 6).alpha, decompose(243, 6).k) == (243, 0)


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decompose(10, 1)
    with pytest.raises(ValueError):
        decompose(0, 2)


def test_decompose_cache_keeps_values_and_errors():
    # decompose is kept in a bounded cache: values match the uncached function, bad inputs raise on
    # every call (errors are not kept), and a float base never reads an int base's entry
    for _ in range(2):
        for n, l in ((10, 1), (0, 2), (-4, 3), (12, 2.0), (12, True)):
            with pytest.raises(ValueError):
                decompose(n, l)
        assert decompose(12, 2) == decompose.__wrapped__(12, 2)
    for l in range(2, 9):
        for n in range(1, 300):
            assert decompose(n, l) == decompose.__wrapped__(n, l), (n, l)
    assert decompose.cache_info().maxsize == 4096


@given(st.integers(1, 100_000), st.sampled_from([2, 3, 4, 6, 10]))
def test_decompose_roundtrip(n, l):
    d = decompose(n, l)
    assert d.alpha * l**d.k == n
    assert d.alpha % l != 0


def test_class_partition():
    # chains of the base-free representatives tile [1, N] exactly once
    for l in (2, 3, 4, 6):
        n = 10_000
        seen = [False] * (n + 1)
        for rep in range(1, n + 1):
            if rep % l == 0:
                continue
            pos = rep
            while pos <= n:
                assert not seen[pos]
                seen[pos] = True
                pos *= l
        assert all(seen[1:])


def test_xi_pinned():
    assert xi(8, 2) == 7
    assert xi(6, 4) == 6
    assert xi(6, 2) == 5


def test_a_set():
    assert a_set(6, 10) == [1, 2, 3, 4, 5, 7, 8, 9, 10]
    assert a_set(2, 8) == [1, 3, 5, 7]
    assert a_set(4, 4) == [1, 2, 3]


def test_factorization():
    assert factorization(12) == ((2, 2), (3, 1))
    assert factorization(7) == ((7, 1),)
    assert decompose(40, 2).k == 3


def test_offset_bound_pinned():
    assert offset_bound(6, 10).M == 4
    assert offset_bound(2, 1).M == 1
    # formula value: no k in A_{4,8} has 4 | k, so the max valuation term is 0
    assert offset_bound(4, 8).M == 1


def _offset_bound_by_scan(l, n):
    """Reference: the largest valuation term over every k in A_{l,N}, scanned, plus one."""
    best = 0
    for k in a_set(l, n):
        for p, m in factorization(l):
            best = max(best, decompose(k, p).k // m)
    return best + 1


def test_offset_bound_closed_form_matches_the_scan():
    # the closed form reads the largest power of each p**m below N; the scan visits every k <= N
    for l in range(2, 41):
        for n in [*range(1, 100), 127, 128, 255, 256, 599, 1000]:
            assert offset_bound(l, n).M == _offset_bound_by_scan(l, n), (l, n)
    assert offset_bound(6, 10**7).M == 24  # 2**23 <= 10**7 < 2**24
    assert 3**628 <= 10**300 < 3**629 and offset_bound(12, 10**300).M == 629
    with pytest.raises(ValueError, match="expected n >= 1, got 0"):
        offset_bound(2, 0)


@pytest.mark.parametrize("l", [2, 4, 6, 12])
def test_offset_bound_containment(l):
    # brute force: a * b lands within M chain shifts, for every N up to 20
    bounds = {n: offset_bound(l, n).M for n in range(1, 21)}
    for a in range(1, 2001):
        if a % l == 0:
            continue
        for b in a_set(l, 20):
            c = decompose(a * b, l).k
            # c <= M(l, N) must hold for every N >= b; M grows with N
            assert c <= bounds[b]


def test_offset_of_pinned():
    assert offset_of(3, 6, 2, 0, 4) == (9, 1, 1)
    assert offset_of(1, 6, 1, 3, 4) == (6, 3, 0)
    assert offset_of(1, 1, 1, 0, 2) == (1, 0, 0)
    with pytest.raises(ValueError):
        offset_of(2, 6, 1, 0, 2)
    with pytest.raises(ValueError):
        offset_of(1, 6, 4, 0, 2)


def test_offset_of_reconstructs():
    for i in (1, 3, 5):
        for alpha in (1, 2, 3, 7):
            if alpha % 4 == 0 or i % 4 == 0:
                continue
            for k in range(4):
                j, e, c = offset_of(i, 6, alpha, k, 4)
                assert i * 6 * alpha * 4**k == j * 4**e
                assert j % 4 != 0
                k1 = decompose(6, 4).k
                assert e == k1 + k + c


def test_scaled_product_offsets_stay_bounded():
    # the configuration with u-length 6 and v-length 4 at base 4 keeps c <= 2
    m = product_offset_bound(4, 6, 4)
    for alpha in a_set(4, 200):
        for k in range(6):
            for i in (1, 2, 3):
                c = offset_of(i, 6, alpha, k, 4).c
                assert c <= 2
                assert c <= m
