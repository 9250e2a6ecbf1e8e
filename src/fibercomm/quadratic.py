r"""Exact arithmetic in real quadratic fields.

Everything here is integer / rational arithmetic; no floats are ever
produced.  The central objects are

* ``QuadraticNumber`` -- an element a + b*sqrt(D) of Q(sqrt(D)) with D a
  squarefree integer >= 2, with what the library uses of the field:
  products and powers k >= 0 within one field, the norm, and the *exact*
  sign and order against rationals and numbers of the same field (by
  squaring, never by approximation).  Numbers are equal by (D, a, b);

* ``QuadraticUnit`` -- the quadratic numbers u > 1 of norm +-1, i.e. the
  algebraic units, a subclass adding only those checks; stretch factors
  of Anosov torus maps live here, and their powers u**k for k >= 1 (a
  power k < 1 is no unit above 1 and is refused);

* ``unit_log_ratio(u, v)`` -- the exact rational log(u)/log(v) when the
  two units are multiplicatively dependent, ``None`` otherwise, by
  Euclid's algorithm on the integer coordinates u = (A + B*sqrt(D))/2;
  each quotient is found by exact repeated squaring, so the cost grows
  with the bit length of the units, not with their exponents.  The one
  Euclid, ``_log_ratio``, takes any non-square radicand, so ``torus``
  compare needs no squarefree part.  The tests check it against
  fundamental units from continued fractions (``tests/oracles.py``).

D, and a and b as ints or ``Fraction``s (``_exact``), are checked where a
value enters: by the public ``QuadraticNumber`` constructor, which a
unit's extends.  Products and powers keep the D of their operands and
are built unchecked by ``_trusted``, and many numbers of one field at
once by ``_trusted_many``.  Every layer takes from here what the layers
share: the gates ``_exact``, ``_integer`` (every count and exponent) and
``_sequence`` (every tuple a public constructor unpacks), each refusing
with a ``ValueError`` that names the field, and ``_repeated``; the
trusted builders ``_trusted`` and ``_trusted_many``, the one writer of
``Fraction``'s private slots; and the garbage-collection pause ``_gc_paused``.

Integers are Python ints throughout, so coefficient growth is never a
correctness concern.
"""

from __future__ import annotations

import gc
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import floordiv

_ZERO, _ONE = Fraction(0), Fraction(1)
TRIAL_WORK = 1 << 30  # trial divisors of squarefree_part(n) up to this / bits of n: at most ~2 s


class ResourceLimit(Exception):
    """The input is well formed, but the work it asks for would exceed a
    fixed limit, checked before that work starts."""


def squarefree_part(n):
    """Squarefree d with n = d * m**2.

    Trial division runs only while p**3 <= n, for n the cofactor left.
    Every prime factor of that cofactor then exceeds its cube root, so
    it is 1, q, q*r or q**2 for primes q != r, and an ``isqrt`` square
    test tells q**2 from the others.  The cost still grows with the
    cube root of what is left once the small primes are removed, not
    with the bit length of n, so past ``TRIAL_WORK`` divided by the bit
    length of n only a square cofactor is certified; any other is refused
    as a resource limit.
    """
    _integer(n, "n", 1)
    d = 1
    p = 2
    bits = n.bit_length()
    bound = TRIAL_WORK // bits
    while p * p * p <= n:
        if p > bound:
            if math.isqrt(n) ** 2 == n:
                return d
            raise ResourceLimit("the squarefree part of a %d-bit integer needs trial division past %d" % (bits, bound))
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


def _exact(x, field):
    """``x``, an int or a ``Fraction`` (not a bool); anything else is refused, naming ``field``."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise ValueError("%s must be an int or a Fraction, got %r" % (field, x))
    return x


def _integer(k, field, least):
    """Refuse ``k`` unless it is an int (not a bool) >= ``least``, naming ``field``."""
    if type(k) is not int or k < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (field, least, k))


def _sequence(x, field, two):
    """``x``, a tuple or a list, of two entries, called ``two`` (a plural noun),
    unless ``two`` is None; anything else is refused, naming ``field``."""
    if not isinstance(x, (tuple, list)):
        raise ValueError("%s must be a tuple or a list, got %r" % (field, x))
    if two is not None and len(x) != 2:
        raise ValueError("%s must have two %s, got %r" % (field, two, x))
    return x


def _repeated(names):
    """The names that occur more than once, in order of first occurrence."""
    return [] if len(set(names)) == len(names) else [x for x, k in Counter(names).items() if k > 1]


class _gc_paused:
    """Cyclic garbage collection paused for a block that allocates many
    tracked objects and frees no cycle: a lift, a report, a document read.
    Each use restores what it found, so nested uses do too."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self.collecting:
            gc.enable()


def _trusted(cls, D, a, b):
    """A ``cls`` instance built without checks, for values derived inside the
    library: D already squarefree, a and b already Fractions.  The fields are
    set into the instance's slots, as the dataclass ``__init__`` sets them."""
    x = object.__new__(cls)
    object.__setattr__(x, "D", D)
    object.__setattr__(x, "a", a)
    object.__setattr__(x, "b", b)
    return x


def _trusted_many(cls, D, a, keys, scale):
    """``_trusted(cls, D, a, Fraction(k, scale))`` for each int k of the
    list ``keys``, for an int scale > 0, in C-level ``map`` passes rather
    than two Python calls per number: one gcd pass, the reduced Fractions
    made empty and their two private slots written (CPython's pure-Python
    ``fractions``), then the numbers and their three slots, written through
    the slot descriptors as ``object.__setattr__`` would."""
    gcds = list(map(math.gcd, keys, repeat(scale)))
    bs = list(map(object.__new__, repeat(Fraction, len(keys))))
    deque(map(setattr, bs, repeat("_numerator"), map(floordiv, keys, gcds)), 0)
    deque(map(setattr, bs, repeat("_denominator"), map(floordiv, repeat(scale), gcds)), 0)
    xs = list(map(object.__new__, repeat(cls, len(keys))))
    for slot, values in ((cls.D, repeat(D)), (cls.a, repeat(a)), (cls.b, bs)):
        deque(map(slot.__set__, xs, values), 0)
    return xs


def _sign(D, a, b):
    """Sign of the real number a + b*sqrt(D), determined exactly."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: compare a**2 with D*b**2
    cmp = (a * a > D * b * b) - (a * a < D * b * b)
    return cmp if a > 0 else -cmp


@dataclass(frozen=True, slots=True)
class QuadraticNumber:
    """a + b*sqrt(D), with a, b rational and D squarefree >= 2.

    Equal, and hashed alike, by (D, a, b): within one field that is
    equality of values.
    """

    D: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _check_squarefree(self.D)
        object.__setattr__(self, "a", Fraction(_exact(self.a, "a")))
        object.__setattr__(self, "b", Fraction(_exact(self.b, "b")))

    def _same_field(self, other):
        if other.D != self.D:
            raise ValueError("mixed fields: sqrt(%d) vs sqrt(%d)" % (self.D, other.D))
        return other

    def __mul__(self, other):
        D, o = self.D, self._same_field(other)
        return _trusted(QuadraticNumber, D, self.a * o.a + D * self.b * o.b, self.a * o.b + self.b * o.a)

    def norm(self):
        """Field norm a**2 - D*b**2 (a rational)."""
        return self.a * self.a - self.D * self.b * self.b

    def __pow__(self, k):
        _integer(k, "exponent", 0)
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

    def _compare(self, other):
        """Sign of self - other, for a rational or a number of this field."""
        if isinstance(other, QuadraticNumber):
            o = self._same_field(other)
            return _sign(self.D, self.a - o.a, self.b - o.b)
        return _sign(self.D, self.a - Fraction(other), self.b)

    def __lt__(self, other):
        return self._compare(other) < 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __repr__(self):
        return "(%s + %s*sqrt(%d))" % (self.a, self.b, self.D)


class QuadraticUnit(QuadraticNumber):
    """A unit of a real quadratic order, normalized to value > 1, b > 0:
    a quadratic number of norm +1 or -1, equal only to a unit."""

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()
        if self.b <= 0:
            raise ValueError("canonical form requires b > 0")
        if self.norm() not in (1, -1):
            raise ValueError("not a unit: norm %s" % self.norm())
        if not self > 1:
            raise ValueError("unit must exceed 1")

    def __pow__(self, k):
        if type(k) is int and k < 1:  # u**k <= 1; super() refuses any other k
            raise ValueError("unit must exceed 1")
        # a positive power of a unit above 1 is one too, with b > 0
        x = super().__pow__(k)
        return _trusted(QuadraticUnit, x.D, x.a, x.b)

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
    for field, x in (("u", u), ("v", v)):
        if not isinstance(x, QuadraticUnit):
            raise ValueError("%s must be a QuadraticUnit, got %r" % (field, x))
    if u.D != v.D:
        return None
    if u == v:
        return Fraction(1)
    x, y = _unit_coords(u), _unit_coords(v)
    if x is None or y is None:
        return None
    return _log_ratio(x, y, u.D)


def _log_ratio(x, y, R):
    """log(x) / log(y) for units x, y > 1 with integer coordinates over
    one non-square radicand R, squarefree or not.  Both lie in one order,
    whose units above 1 are powers of one unit, so Euclid ends; every
    remainder stays in it, so ``_unit_mul``'s halvings are exact."""
    quotients = []
    while y != (2, 0):
        q, r = _unit_divmod(x, y, R)
        quotients.append(q)
        x, y = y, r
    num, den = 1, 0
    for q in reversed(quotients):
        num, den = q * num + den, num
    return Fraction(num, den)
