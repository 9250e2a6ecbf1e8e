r"""Exact arithmetic in real quadratic fields.

Everything here is integer / rational arithmetic; no floats are ever
produced.  The central objects are

* ``QuadraticNumber`` -- an element a + b*sqrt(D) of Q(sqrt(D)) with D a
  squarefree integer >= 2, supporting field arithmetic and *exact* order
  comparisons (sign determination by squaring, never by approximation);

* ``QuadraticUnit`` -- a quadratic number u > 1 of norm +-1, i.e. an
  algebraic unit; stretch factors of Anosov torus maps live here;

* ``fundamental_unit(D)`` -- the smallest unit > 1 of the maximal order
  of Q(sqrt(D)), computed from the periodic continued fraction of the
  field generator;

* ``unit_log_ratio(u, v)`` -- the exact rational log(u)/log(v) when the
  two units are multiplicatively dependent, ``None`` otherwise.

Integers are Python ints throughout, so coefficient growth is never a
correctness concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def squarefree_part(n):
    """Largest squarefree divisor d of n with n = d * m**2.

    Plain trial division; inputs here come from traces of small integer
    matrices, so n stays tiny.
    """
    if n < 1:
        raise ValueError("squarefree_part needs a positive integer, got %r" % (n,))
    d = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2 == 1:
                d *= p
        p += 1 if p == 2 else 2
    return d * n


def _check_squarefree(D):
    if D < 2 or squarefree_part(D) != D:
        raise ValueError("D must be squarefree and >= 2, got %r" % (D,))


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
        return QuadraticNumber(self.D, Fraction(other), Fraction(0))

    def __add__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(self.D, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(self.D, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(
            self.D,
            self.a * o.a + self.D * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return QuadraticNumber(self.D, self.a, -self.b)

    def norm(self):
        """Field norm a**2 - D*b**2 (a rational)."""
        return self.a * self.a - self.D * self.b * self.b

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.D)
        return self * o.conjugate() * QuadraticNumber(self.D, Fraction(1, 1) / n, Fraction(0))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("integer exponents only")
        if k < 0:
            return (QuadraticNumber(self.D, 1, 0) / self) ** (-k)
        result = QuadraticNumber(self.D, 1, 0)
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
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a**2 with D*b**2
        cmp = (a * a > self.D * b * b) - (a * a < self.D * b * b)
        return cmp if a > 0 else -cmp

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
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        x = self.number
        if self.b <= 0:
            raise ValueError("canonical form requires b > 0")
        if x.norm() not in (1, -1):
            raise ValueError("not a unit: norm %s" % x.norm())
        if not x > QuadraticNumber(self.D, 1, 0):
            raise ValueError("unit must exceed 1")

    @property
    def number(self):
        return QuadraticNumber(self.D, self.a, self.b)

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
        return QuadraticUnit.from_number(self.number ** k)

    def __float__(self):
        return float(self.number)

    def __repr__(self):
        return "QuadraticUnit(%s + %s*sqrt(%d))" % (self.a, self.b, self.D)


def _continued_fraction_period(Delta, P0, Q0):
    """Continued fraction of (P0 + sqrt(Delta)) / Q0.

    Returns (preperiod_digits, periodic_digits).  State iteration is the
    classical P, Q recursion on the discriminant Delta; exact because the
    floor is computed with isqrt.
    """
    r = math.isqrt(Delta)
    seen = {}
    digits = []
    P, Q = P0, Q0
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        # floor((P + sqrt(Delta)) / Q) with Q possibly negative never
        # occurs here (Q stays positive for our starting data)
        a = (P + r) // Q
        digits.append(a)
        P = a * Q - P
        Q = (Delta - P * P) // Q
    start = seen[(P, Q)]
    return digits[:start], digits[start:]


def fundamental_unit(D):
    """Smallest unit > 1 of the maximal order of Q(sqrt(D)).

    Uses the purely periodic part of the continued fraction of the field
    generator: sqrt(D) when D = 2, 3 mod 4, (1 + sqrt(D))/2 when
    D = 1 mod 4 (working with discriminant Delta = 4D resp. D keeps the
    complete quotients inside the maximal order).  The unit is read off
    the convergent matrix of one full period.
    """
    _check_squarefree(D)
    if D % 4 == 1:
        Delta, P0, Q0 = D, 1, 2
    else:
        Delta, P0, Q0 = 4 * D, 0, 2

    pre, period = _continued_fraction_period(Delta, P0, Q0)

    # recover the (P, Q) state at the start of the periodic part
    r = math.isqrt(Delta)
    P, Q = P0, Q0
    for a in pre:
        P = a * Q - P
        Q = (Delta - P * P) // Q

    # convergent matrix of one period: columns give q_{l-1}, q_{l-2}
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in period:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    q_last, q_prev = m10, m11

    # unit = q_{l-1} * omega + q_{l-2}, omega = (P + sqrt(Delta)) / Q
    # with sqrt(Delta) = sqrt(D) or 2*sqrt(D)
    surd_scale = Fraction(1) if D % 4 == 1 else Fraction(2)
    a_part = Fraction(q_last * P, Q) + q_prev
    b_part = Fraction(q_last, Q) * surd_scale
    unit = QuadraticUnit(D, a_part, b_part)
    assert unit.number.norm() in (1, -1)
    return unit


def unit_power_of(u, eps):
    """Exponent k >= 0 with u = eps**k, or None.

    u and eps are QuadraticNumbers > 1 in the same field; eps > 1 so the
    division loop strictly decreases and terminates as soon as the
    quotient drops to or below 1.
    """
    one = QuadraticNumber(u.D, 1, 0)
    x = u
    k = 0
    while x > one:
        x = x / eps
        k += 1
    return k if x == one else None


def unit_log_ratio(u, v):
    """log(u) / log(v) as an exact Fraction, or None if irrational.

    Both arguments are QuadraticUnits.  The two logs are commensurable
    exactly when u and v lie in the same real quadratic field and are
    powers of the common fundamental unit; the exponents are found by
    repeated exact division.
    """
    if u.D != v.D:
        return None
    if u == v:
        return Fraction(1)
    eps = fundamental_unit(u.D).number
    ku = unit_power_of(u.number, eps)
    kv = unit_power_of(v.number, eps)
    if ku is None or kv is None:
        return None
    return Fraction(ku, kv)
