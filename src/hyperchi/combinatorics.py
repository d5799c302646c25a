"""Bernoulli numbers and strict-chain power sums.

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
from math import comb
from typing import Sequence

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

    Degree is ``sum(parts) + len(parts)``; the empty sequence gives the
    constant polynomial 1 (empty product convention).
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError("exponents must be >= 0")
    return _f_polynomial_cached(parts)
