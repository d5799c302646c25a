import random
from fractions import Fraction
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from hyperchi import Polynomial
from hyperchi.polynomial import linear_combination

coeffs = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=12), max_size=6
)
polys = coeffs.map(Polynomial)
points = st.integers(min_value=-20, max_value=20)
scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


def test_canonical_form():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial() == Polynomial([0]) == 0
    assert Polynomial([Fraction(1, 2)]).coeffs == (Fraction(1, 2),)
    # constants hash consistently with the scalars they equal
    assert hash(Polynomial([5])) == hash(5)
    assert hash(Polynomial()) == hash(0)


def test_degree_and_leading():
    assert Polynomial().degree == -1
    assert Polynomial([5]).degree == 0
    p = Polynomial([0, 0, Fraction(3, 7)])
    assert p.degree == 2 and p.leading_coefficient == Fraction(3, 7)


def test_monomial_shift_pow():
    n = Polynomial.N
    assert Polynomial.monomial(3, 2) == 2 * n**3
    assert (n + 1).shift(2) == n**3 + n**2
    assert (n - 1) * (n + 1) == n**2 - 1
    assert (n + 1) ** 3 == n**3 + 3 * n**2 + 3 * n + 1


def test_str_and_coefficient_strings():
    p = Polynomial([0, Fraction(-5, 6), Fraction(5, 2), Fraction(-8, 3), 1])
    assert str(p) == "n^4 - 8/3*n^3 + 5/2*n^2 - 5/6*n"
    assert p.coefficient_strings() == ["0", "-5/6", "5/2", "-8/3", "1"]
    assert str(Polynomial()) == "0"


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.ZERO == p
    assert p * Polynomial.ONE == p
    assert p - p == Polynomial.ZERO


def _assert_canonical(result):
    assert all(type(c) is Fraction for c in result.coeffs)
    assert not result.coeffs or result.coeffs[-1] != 0
    rebuilt = Polynomial(list(result.coeffs))
    assert result == rebuilt and hash(result) == hash(rebuilt)


@given(polys, polys, scalars, st.integers(min_value=0, max_value=3),
       st.lists(st.tuples(scalars, polys), max_size=5))
def test_arithmetic_results_are_canonical_and_leave_operands_alone(p, q, c, k, terms):
    before = (p.coeffs, q.coeffs, [t.coeffs for _, t in terms])
    results = [p + q, p - q, -p, p * q, c * p, p * c, p.shift(k), p**k,
               p + c, c - p, linear_combination(terms),
               linear_combination([(1, p), (c, q)])]
    for result in results:
        _assert_canonical(result)
    assert (p.coeffs, q.coeffs, [t.coeffs for _, t in terms]) == before
    assert linear_combination(terms) == sum((a * t for a, t in terms), Polynomial.ZERO)
    assert linear_combination([(1, p), (c, q)]) == p + c * q
    assert c * p == Polynomial([c * a for a in p.coeffs])


@given(polys, polys, points)
def test_evaluation_is_ring_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


def test_evaluation_homomorphism_at_random_points():
    rng = random.Random(7)
    for _ in range(20):
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
        q = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


@given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=9),
       st.integers(min_value=0, max_value=3))
def test_from_values_interpolates_binomial_sums(ds, extra):
    # sum_k d_k C(n, k) sampled at its degree + 1 points, or more
    expected = Polynomial.ZERO
    binomial = Polynomial.ONE
    for k, d in enumerate(ds):
        expected = expected + d * binomial
        binomial = binomial * (Polynomial.N - k) * Fraction(1, k + 1)
    points = len(ds) + extra
    values = [sum(d * comb(n, k) for k, d in enumerate(ds)) for n in range(points)]
    result = Polynomial.from_values(values)
    assert result == expected
    _assert_canonical(result)
    assert result.degree < points


def test_exact_rational_evaluation():
    p = Polynomial([Fraction(1, 3), Fraction(-1, 2), 1])
    assert p(Fraction(1, 2)) == Fraction(1, 3) - Fraction(1, 4) + Fraction(1, 4)
    assert p(-2) == Fraction(1, 3) + 1 + 4
