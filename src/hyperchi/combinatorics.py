"""Bernoulli numbers, surjection counts, and strict-chain power sums.

The strict-chain power sum attached to a sequence of exponents
``p = (p_1, ..., p_t)`` is the function

    n  ->  sum over 0 <= k_1 < ... < k_t <= n-1 of k_1**p_1 * ... * k_t**p_t,

which is a polynomial in n of degree ``sum(p) + t`` with zero constant
coefficient.  These polynomials are the building blocks of the hypergraph
invariant; exponents may be zero here even though most classical uses
assume them positive.  ``f_polynomial`` gives them in Bernoulli
(Faulhaber) form; ``chi_polynomial`` adds the same sums as integer
values and interpolates once.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .polynomial import Polynomial, linear_combination

_bernoulli_cache = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(j: int) -> Fraction:
    """B_j with the convention B_1 = -1/2, via the binomial recurrence.

    sum_{i=0}^{m} C(m+1, i) B_i = 0 for m >= 1, which forces B_1 = -1/2.
    Cached; safe to call concurrently.
    """
    if j < 0:
        raise ValueError("Bernoulli index must be >= 0")
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= j:
            m = len(_bernoulli_cache)
            s = sum(comb(m + 1, i) * _bernoulli_cache[i] for i in range(m))
            _bernoulli_cache.append(Fraction(-s, m + 1))
        return _bernoulli_cache[j]


def surjection_count(n: int, m: int) -> int:
    """Number of surjections from an m-set onto an n-set.

    Inclusion-exclusion: sum_{k=0}^{n} (-1)^(n-k) C(n,k) k^m.
    """
    if n < 0 or m < 0:
        raise ValueError("arguments must be >= 0")
    return sum((-1) ** (n - k) * comb(n, k) * k**m for k in range(n + 1))


def alternating_binomial_sum(n: int, poly: Polynomial) -> Fraction:
    """sum_{k=0}^{n} (-1)^(n-k) C(n,k) P(k); zero whenever deg P < n."""
    if n < 0:
        return Fraction(0)
    return Fraction(
        sum(((-1) ** (n - k) * comb(n, k)) * poly(k) for k in range(n + 1))
    )


@lru_cache(maxsize=None)
def power_sum_polynomial(p: int) -> Polynomial:
    """The polynomial n -> sum_{k=0}^{n-1} k**p (Faulhaber form).

    Coefficient of n^(p+1-i) is C(p+1, i) * B_i / (p+1).
    """
    if p < 0:
        raise ValueError("exponent must be >= 0")
    coeffs = [Fraction(0)] * (p + 2)
    for i in range(p + 1):
        coeffs[p + 1 - i] = Fraction(comb(p + 1, i), p + 1) * bernoulli(i)
    return Polynomial(coeffs)


def composition_degree(parts: Sequence[int]) -> int:
    """d_t = p_1 + ... + p_t + t, the degree of the chain power sum."""
    return sum(parts) + len(parts)


@lru_cache(maxsize=None)
def _f_polynomial_cached(parts: tuple) -> Polynomial:
    """F_{p_1..p_t}(n) = sum_{k<n} k^{p_t} * F_{p_1..p_{t-1}}(k), built from the
    cached polynomial of the prefix, so tuples sharing a prefix share its
    work; the empty tuple gives 1."""
    if not parts:
        return Polynomial.ONE
    prefix = _f_polynomial_cached(parts[:-1])
    p = parts[-1]
    # the last chain variable turns c*n^e into c*power_sum(p+e), degree p+e+1
    return linear_combination(
        (c, power_sum_polynomial(p + e)) for e, c in enumerate(prefix.coeffs) if c
    )


def f_polynomial(parts: Sequence[int]) -> Polynomial:
    """Closed form of the strict-chain power sum for the given exponents.

    Degree is ``composition_degree(parts)``; the empty sequence gives the
    constant polynomial 1 (empty product convention).
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError("exponents must be >= 0")
    return _f_polynomial_cached(parts)


def f_eval_bruteforce(parts: Sequence[int], n: int) -> int:
    """Direct nested-sum evaluation; oracle for f_polynomial.

    Returns 0 when the chain is longer than n (no strictly increasing
    choice of values exists); the empty chain gives 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = tuple(parts)
    total = 0
    for ks in combinations(range(n), len(parts)):
        term = 1
        for k, p in zip(ks, parts):
            term *= k**p
        total += term
    return total


def coarsenings(parts: Sequence[int]) -> Iterator[tuple]:
    """All sequences obtained by summing contiguous runs of parts.

    A sequence of t parts has 2^(t-1) coarsenings (cut or merge at each
    of the t-1 gaps); the empty sequence coarsens only to itself.
    """
    parts = tuple(parts)
    t = len(parts)
    if t == 0:
        yield ()
        return
    for mask in range(1 << (t - 1)):
        out = []
        acc = parts[0]
        for i in range(1, t):
            if mask >> (i - 1) & 1:
                acc += parts[i]
            else:
                out.append(acc)
                acc = parts[i]
        out.append(acc)
        yield tuple(out)


def f_reciprocity_check(parts: Sequence[int], n: int) -> bool:
    """Whether F_p(-n) == (-1)^d_t * sum over coarsenings q of F_q(n+1).

    Holds for every sequence of positive exponents (and the empty one);
    a leading zero exponent breaks it, e.g. F_0(-n) = -n != -(n+1).
    """
    parts = tuple(parts)
    lhs = f_polynomial(parts)(-n)
    sign = (-1) ** composition_degree(parts)
    rhs = sign * sum(f_polynomial(q)(n + 1) for q in coarsenings(parts))
    return lhs == rhs
