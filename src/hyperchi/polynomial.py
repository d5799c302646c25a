"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending: ``coeffs[i]`` is the coefficient of
``n**i``.  The representation is canonical (no trailing zeros, every
coefficient a ``Fraction``), so equality and hashing are structural.
The zero polynomial is the empty coefficient tuple.

Each coefficient ``Fraction`` is built once.  The constructor keeps
``Fraction`` inputs as they are; every arithmetic result takes over the
list of ``Fraction``s it computed without wrapping them again; and
``linear_combination`` adds up a sum ``c_1*P_1 + ... + c_m*P_m`` in one
coefficient list, as integer numerators over a common denominator per
degree, so it builds one ``Fraction`` per coefficient of the result
rather than a ``Polynomial`` per term.  ``Polynomial.from_values``
interpolates integer values at ``0, 1, ..., m-1`` the same way: integer
numerators over the one denominator ``(m-1)!``, one ``Fraction`` per
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, cs: list) -> "Polynomial":
        """Take over ``cs``, a list of ``Fraction``s that no one else holds,
        trimming its trailing zeros; the coefficients are not wrapped again."""
        while cs and not cs[-1]:
            cs.pop()
        poly = object.__new__(cls)
        poly.coeffs = tuple(cs)
        return poly

    @classmethod
    def from_values(cls, ys: Iterable[int]) -> "Polynomial":
        """The polynomial of degree below ``len(ys)`` whose value at
        ``n = k`` is ``ys[k]``, for integer values.

        Newton forward differences give its integer coordinates ``c_k``
        in the binomial basis ``C(n, k) = (n)_k / k!``.  Each falling
        factorial ``(n)_k = n(n-1)...(n-k+1)`` expands into integer
        coefficients (the Stirling numbers of the first kind), which are
        summed as numerators over ``(m-1)!`` for ``m`` values.
        """
        diffs = list(ys)
        newton = []
        while diffs:
            newton.append(diffs[0])
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        den = factorial(max(len(newton) - 1, 0))
        nums = [0] * len(newton)
        falling = [1]  # coefficients of (n)_k, ascending
        weight = den  # den / k!
        for k, c in enumerate(newton):
            if c:
                for j, s in enumerate(falling):
                    nums[j] += c * weight * s
            # (n)_(k+1) = (n)_k * (n - k)
            falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
            weight //= k + 1
        return cls._of([Fraction(x, den) for x in nums])

    @classmethod
    def monomial(cls, degree: int, coefficient: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls([0] * degree + [coefficient])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate by Horner's rule; exact for int or Fraction input."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial._of([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "Polynomial":
        """Multiply by n**k (degree shift)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if not k or not self.coeffs:
            return self
        return Polynomial._of([Fraction(0)] * k + list(self.coeffs))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # constants hash like their scalar value, matching __eq__
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Polynomial([{}])".format(", ".join(str(c) for c in self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "n" if i == 1 else f"n^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def coefficient_strings(self) -> list[str]:
        """Ascending-degree coefficients as exact fraction strings."""
        return [str(c) for c in self.coeffs]


def linear_combination(terms: Iterable[tuple[Scalar, Polynomial]]) -> Polynomial:
    """The sum of ``c * p`` over the ``(c, p)`` pairs of ``terms``.

    Each degree keeps an integer numerator over the least common
    denominator of its terms, so the sum builds one ``Fraction`` per
    coefficient of the result, at the end.
    """
    nums: list = []
    dens: list = []
    for c, p in terms:
        cn, cd = c.numerator, c.denominator
        short = len(p.coeffs) - len(nums)
        if short > 0:
            nums += [0] * short
            dens += [1] * short
        for i, a in enumerate(p.coeffs):
            an = a.numerator
            if an:
                num, den, old = cn * an, cd * a.denominator, dens[i]
                if den == old:
                    nums[i] += num
                else:
                    common = lcm(old, den)
                    nums[i] = nums[i] * (common // old) + num * (common // den)
                    dens[i] = common
    return Polynomial._of([Fraction(n, d) for n, d in zip(nums, dens)])


def _coerce(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial([x])
    return NotImplemented


Polynomial.ZERO = Polynomial()
Polynomial.ONE = Polynomial([1])
Polynomial.N = Polynomial([0, 1])
