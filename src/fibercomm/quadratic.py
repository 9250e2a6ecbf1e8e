r"""Exact arithmetic in real quadratic fields.

Everything here is integer / rational arithmetic; no floats are ever
produced.  The central objects are

* ``QuadraticNumber`` -- an element a + b*sqrt(D) of Q(sqrt(D)) with D a
  squarefree integer >= 2, supporting field arithmetic and *exact* order
  comparisons (sign determination by squaring, never by approximation);

* ``QuadraticUnit`` -- a quadratic number u > 1 of norm +-1, i.e. an
  algebraic unit; stretch factors of Anosov torus maps live here;

* ``unit_log_ratio(u, v)`` -- the exact rational log(u)/log(v) when the
  two units are multiplicatively dependent, ``None`` otherwise, by
  Euclid's algorithm on the integer coordinates u = (A + B*sqrt(D))/2;
  each quotient is found by exact repeated squaring, so the cost grows
  with the bit length of the units, not with their exponents.  The
  tests check it against fundamental units from continued fractions
  (``tests/oracles.py``).

D is checked where a value enters: by the public ``QuadraticNumber`` and
``QuadraticUnit`` constructors.  Arithmetic results keep the D of their
operands and are built unchecked by ``_trusted``.

Integers are Python ints throughout, so coefficient growth is never a
correctness concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_ZERO, _ONE = Fraction(0), Fraction(1)


def squarefree_part(n):
    """Squarefree d with n = d * m**2.

    Trial division runs only while p**3 <= n, for n the cofactor left.
    Every prime factor of that cofactor then exceeds its cube root, so
    it is 1, q, q*r or q**2 for primes q != r, and an ``isqrt`` square
    test tells q**2 from the others.  The cost still grows with the
    cube root of what is left once the small primes are removed, not
    with the bit length of n.
    """
    if n < 1:
        raise ValueError("squarefree_part needs a positive integer, got %r" % (n,))
    d = 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2 == 1:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    return d if r * r == n else d * n


def _check_squarefree(D):
    if type(D) is not int or D < 2 or squarefree_part(D) != D:
        raise ValueError("D must be a squarefree integer >= 2, got %r" % (D,))


def _trusted(cls, D, a, b):
    """A ``cls`` instance built without checks.

    For values derived inside the library: D is already known to be
    squarefree and a, b are already Fractions.  The fields are set one
    by one, as the dataclass ``__init__`` does; writing them through
    ``vars(x)`` would give every instance a dict of its own.
    """
    x = object.__new__(cls)
    object.__setattr__(x, "D", D)
    object.__setattr__(x, "a", a)
    object.__setattr__(x, "b", b)
    return x


def _sign(D, a, b):
    """Sign of the real number a + b*sqrt(D), determined exactly."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: compare a**2 with D*b**2
    cmp = (a * a > D * b * b) - (a * a < D * b * b)
    return cmp if a > 0 else -cmp


@dataclass(frozen=True)
class QuadraticNumber:
    """a + b*sqrt(D), with a, b rational and D squarefree >= 2."""

    D: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _check_squarefree(self.D)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    # -- ring / field operations ------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber):
            if other.D != self.D:
                raise ValueError("mixed fields: sqrt(%d) vs sqrt(%d)" % (self.D, other.D))
            return other
        return _trusted(QuadraticNumber, self.D, Fraction(other), _ZERO)

    def __add__(self, other):
        o = self._coerce(other)
        return _trusted(QuadraticNumber, self.D, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(QuadraticNumber, self.D, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        return _trusted(QuadraticNumber, self.D, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return _trusted(
            QuadraticNumber,
            self.D,
            self.a * o.a + self.D * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return _trusted(QuadraticNumber, self.D, self.a, -self.b)

    def norm(self):
        """Field norm a**2 - D*b**2 (a rational)."""
        return self.a * self.a - self.D * self.b * self.b

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.D)
        p = self * o.conjugate()
        return _trusted(QuadraticNumber, self.D, p.a / n, p.b / n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("integer exponents only")
        if k < 0:
            return (1 / self) ** (-k)
        result = _trusted(QuadraticNumber, self.D, _ONE, _ZERO)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- exact order ------------------------------------------------

    def sign(self):
        """Sign of the real number a + b*sqrt(D), determined exactly."""
        return _sign(self.D, self.a, self.b)

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber) and other.D != self.D:
            # distinct fields share only the rationals
            return self.b == other.b == 0 and self.a == other.a
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes like one
        return hash(self.a) if self.b == 0 else hash((self.D, self.a, self.b))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def is_rational(self):
        return self.b == 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def __repr__(self):
        return "(%s + %s*sqrt(%d))" % (self.a, self.b, self.D)


@dataclass(frozen=True)
class QuadraticUnit:
    """A unit of a real quadratic order, normalized to value > 1, b > 0.

    ``D`` is the squarefree part of the field discriminant; the value is
    a + b*sqrt(D).  The norm is +1 or -1.
    """

    D: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _check_squarefree(self.D)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        x = self.number
        if self.b <= 0:
            raise ValueError("canonical form requires b > 0")
        if x.norm() not in (1, -1):
            raise ValueError("not a unit: norm %s" % x.norm())
        if not x > 1:
            raise ValueError("unit must exceed 1")

    @property
    def number(self):
        return _trusted(QuadraticNumber, self.D, self.a, self.b)

    @property
    def norm(self):
        return int(self.number.norm())

    @staticmethod
    def from_number(x):
        """Wrap a QuadraticNumber, checking the unit invariants."""
        return QuadraticUnit(x.D, x.a, x.b)

    def __mul__(self, other):
        if isinstance(other, QuadraticUnit):
            other = other.number
        return QuadraticUnit.from_number(self.number * other)

    def __pow__(self, k):
        x = self.number ** k
        if k < 1:  # not above 1: the checked constructor raises
            return QuadraticUnit.from_number(x)
        # a positive power of a unit above 1 is one too, with b > 0
        return _trusted(QuadraticUnit, x.D, x.a, x.b)

    def __float__(self):
        return float(self.number)

    def __repr__(self):
        return "QuadraticUnit(%s + %s*sqrt(%d))" % (self.a, self.b, self.D)


# ---------------------------------------------------------------------------
# log-ratios by Euclid on integer unit coordinates
#
# An integral unit is kept as the pair (A, B) of its value
# (A + B*sqrt(D)) / 2.  Products of integral elements are integral, so
# the halvings in ``_unit_mul`` are exact.

def _unit_coords(u):
    """(A, B) with u = (A + B*sqrt(D)) / 2, or None when u is not integral."""
    A, B = 2 * u.a, 2 * u.b
    if A.denominator != 1 or B.denominator != 1:
        return None
    return A.numerator, B.numerator


def _unit_mul(x, y, D):
    (a, b), (c, d) = x, y
    return (a * c + D * b * d) // 2, (a * d + b * c) // 2


def _unit_le(x, y, D):
    return _sign(D, x[0] - y[0], x[1] - y[1]) <= 0


def _unit_divmod(x, y, D):
    """(q, r) with x = y**q * r and 1 <= r < y, for units x >= 1, y > 1.

    q is read off bit by bit: y is squared while it stays <= x, then
    the squares are multiplied in from the largest down.
    """
    squares = []
    p = y
    while _unit_le(p, x, D):
        squares.append(p)
        p = _unit_mul(p, p, D)
    q, yq = 0, (2, 0)
    for i in reversed(range(len(squares))):
        t = _unit_mul(yq, squares[i], D)
        if _unit_le(t, x, D):
            q, yq = q + (1 << i), t
    # divide by y**q: the inverse of a unit is its conjugate times its norm
    A, B = yq
    n = (A * A - D * B * B) // 4
    return q, _unit_mul(x, (n * A, -n * B), D)


def unit_log_ratio(u, v):
    """log(u) / log(v) as an exact Fraction, or None.

    Both arguments are QuadraticUnits.  None when they lie in different
    fields, or when one of two distinct units is not an algebraic
    integer (2a or 2b is not an integer).  Otherwise both are positive
    powers of the fundamental unit of their field, and Euclid's
    algorithm gives the continued fraction of the ratio: u = v**q * r
    with 1 <= r < v, then the same for (v, r), until r = 1.
    """
    if u.D != v.D:
        return None
    if u == v:
        return Fraction(1)
    x, y = _unit_coords(u), _unit_coords(v)
    if x is None or y is None:
        return None
    quotients = []
    while y != (2, 0):
        q, r = _unit_divmod(x, y, u.D)
        quotients.append(q)
        x, y = y, r
    num, den = 1, 0
    for q in reversed(quotients):
        num, den = q * num + den, num
    return Fraction(num, den)
