from fractions import Fraction
from itertools import product
from math import comb

import pytest
from conftest import count_surjections_direct

from hyperchi import (
    Polynomial,
    alternating_binomial_sum,
    bernoulli,
    coarsenings,
    combinatorics,
    composition_degree,
    enumerate_set_compositions,
    f_eval_bruteforce,
    f_polynomial,
    f_reciprocity_check,
    power_sum_polynomial,
    surjection_count,
)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    # odd indices beyond 1 vanish
    assert all(bernoulli(j) == 0 for j in range(3, 20, 2))
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_cache_is_thread_safe():
    import threading

    import hyperchi.combinatorics as combi

    combi._bernoulli_cache[:] = [Fraction(1)]
    results = {}

    def worker(tag):
        results[tag] = [bernoulli(j) for j in range(40)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = [bernoulli(j) for j in range(40)]
    assert all(results[i] == expected for i in range(8))


def test_surjection_count_small():
    assert surjection_count(2, 3) == 6 == count_surjections_direct(2, 3)
    assert surjection_count(3, 2) == 0
    assert surjection_count(1, 1) == 1
    assert surjection_count(0, 0) == 1
    assert surjection_count(0, 2) == 0


def test_surjection_count_matches_direct_enumeration():
    for n in range(5):
        for m in range(5):
            assert surjection_count(n, m) == count_surjections_direct(n, m)


def test_surjection_count_matches_block_counts():
    # surjections onto [n] = set compositions of an m-set with n blocks
    for m in range(5):
        ground = [f"x{i}" for i in range(m)]
        by_length = {}
        for comp in enumerate_set_compositions(ground):
            by_length[len(comp)] = by_length.get(len(comp), 0) + 1
        for n in range(m + 2):
            assert by_length.get(n, 0) == surjection_count(n, m)


def test_alternating_binomial_sum_examples():
    nsq = Polynomial.N**2
    assert alternating_binomial_sum(3, nsq) == 0
    assert alternating_binomial_sum(1, Polynomial.ONE) == 0
    assert alternating_binomial_sum(2, nsq) == 2


def test_alternating_sum_kills_low_degree():
    for n in range(8):
        for m in range(n):
            assert alternating_binomial_sum(n, Polynomial.monomial(m)) == 0


def test_power_sum_polynomial():
    assert power_sum_polynomial(0) == Polynomial.N
    assert power_sum_polynomial(1) == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    for p in range(6):
        poly = power_sum_polynomial(p)
        for n in range(7):
            assert poly(n) == sum(k**p for k in range(n))


def test_f_polynomial_examples():
    assert f_polynomial([1]) == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    assert f_polynomial([]) == Polynomial.ONE
    assert f_polynomial([1, 1])(3) == 2
    assert f_eval_bruteforce([2], 3) == 5
    assert f_eval_bruteforce([1, 1, 1], 2) == 0
    assert f_eval_bruteforce([], 0) == 1
    with pytest.raises(ValueError):
        f_polynomial([1, -1])


def _exponent_tuples(max_degree):
    out = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for parts in frontier:
            for p in range(max_degree + 1):
                cand = parts + (p,)
                if composition_degree(cand) <= max_degree:
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def test_f_polynomial_matches_bruteforce():
    for parts in _exponent_tuples(7):
        poly = f_polynomial(parts)
        for n in range(7):
            assert poly(n) == f_eval_bruteforce(parts, n), (parts, n)


def test_f_polynomial_from_prefixes_in_either_order():
    # every tuple of up to 4 parts in 0..3, pinned at degree + 1 points;
    # built shortest-first (each prefix cached before it is needed) and
    # longest-first (each prefix built on the way down)
    tuples = [t for k in range(5) for t in product(range(4), repeat=k)]
    expected = {
        t: [f_eval_bruteforce(t, n) for n in range(composition_degree(t) + 1)]
        for t in tuples
    }
    for order in (tuples, tuples[::-1]):
        combinatorics._f_polynomial_cached.cache_clear()
        for t in order:
            poly = f_polynomial(t)
            assert [poly(n) for n in range(len(expected[t]))] == expected[t], t


def test_f_polynomial_degree_and_constant():
    for parts in _exponent_tuples(7):
        poly = f_polynomial(parts)
        assert poly.degree == composition_degree(parts)
        if parts:
            assert poly.coefficient(0) == 0


def _prop2_coefficient(parts, i):
    """Independent nested-sum formula for the coefficient of n^(d_t - i)."""
    t = len(parts)
    d = [0]
    for p in parts:
        d.append(d[-1] + p + 1)

    def rec(k, jk):
        if k == 1:
            return Fraction(comb(d[1], jk)) * bernoulli(jk) / d[1]
        total = Fraction(0)
        for jprev in range(min(jk, d[k - 1] - 1) + 1):
            total += (
                Fraction(comb(d[k] - jprev, jk - jprev))
                * bernoulli(jk - jprev)
                / (d[k] - jprev)
                * rec(k - 1, jprev)
            )
        return total

    return rec(t, i)


def test_f_polynomial_coefficients_match_nested_formula():
    cases = [(1,), (2,), (0,), (1, 1), (2, 1), (0, 2), (1, 0), (1, 1, 1), (2, 0, 1)]
    for parts in cases:
        poly = f_polynomial(parts)
        dt = composition_degree(parts)
        for i in range(dt):
            assert poly.coefficient(dt - i) == _prop2_coefficient(parts, i), (parts, i)


def test_coarsenings():
    got = set(coarsenings((4, 2, 3, 3)))
    assert got == {
        (4, 2, 3, 3), (6, 3, 3), (4, 5, 3), (4, 2, 6),
        (6, 6), (9, 3), (4, 8), (12,),
    }
    assert len(got) == 8
    assert set(coarsenings((5,))) == {(5,)}
    assert set(coarsenings((1, 1))) == {(1, 1), (2,)}
    assert set(coarsenings(())) == {()}


def test_f_reciprocity_examples():
    assert f_reciprocity_check((1,), 2)
    assert f_reciprocity_check((), 0) and f_reciprocity_check((), 5)
    assert f_reciprocity_check((1, 1), 3)


def test_f_reciprocity_positive_parts():
    positive = [p for p in _exponent_tuples(8) if all(x >= 1 for x in p)]
    for parts in positive:
        for n in range(7):
            assert f_reciprocity_check(parts, n), (parts, n)


def test_f_reciprocity_needs_positive_leading_part():
    # the one-part identity already fails at exponent zero: F_0(-n) = -n
    # while the coarsening side gives -(n+1)
    assert not f_reciprocity_check((0,), 1)
    assert not f_reciprocity_check((0, 1), 2)
    # trailing zeros after a positive part are harmless
    assert f_reciprocity_check((1, 0), 3)
    assert f_reciprocity_check((2, 0, 0), 2)


def test_weak_chain_sum_equals_coarsening_sum():
    # sum over coarsenings of F_q(n+1) = weakly increasing chain sum
    for parts in [(1,), (2, 1), (1, 0), (0, 2), (1, 1, 1)]:
        for n in range(5):
            weak = 0
            t = len(parts)
            for ks in product(range(n + 1), repeat=t):
                if all(ks[i] <= ks[i + 1] for i in range(t - 1)):
                    term = 1
                    for k, p in zip(ks, parts):
                        term *= k**p
                    weak += term
            assert weak == sum(f_polynomial(q)(n + 1) for q in coarsenings(parts))
