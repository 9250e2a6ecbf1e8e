"""Torus automorphisms: classification and commensurability.

The mapping class group of the torus is GL(2, Z).  A class is periodic,
reducible, or Anosov; for Anosov classes the stretch factor is the
quadratic unit (|t| + sqrt(t**2 -+ 4)) / 2 (sign by determinant), and
two Anosov maps are commensurable iff the logs of their stretch factors
have a rational ratio, which compare decides on integers by the one
Euclid, ``quadratic._log_ratio``.  A periodic class's order is read off
(t, det).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadratic import QuadraticUnit, _integer, _log_ratio, _trusted, squarefree_part

PERIODIC = "periodic"
REDUCIBLE = "reducible"
ANOSOV = "anosov"

COMMENSURABLE = "commensurable"
INCOMMENSURABLE = "incommensurable"
SAME_CLASS_TRIVIAL = "same_class_trivial"

_IDENTITY = ((1, 0), (0, 1))


def _mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _trace(m):
    return m[0][0] + m[1][1]


def _integer_matrix(matrix, name="matrix", args=()):
    """``matrix`` as a tuple of rows, through the library's one GL(2, Z)
    gate: 2x2 (read in one unpack), int entries, determinant +-1.  A
    refusal names it ``name % args``, formatted only then."""
    try:
        (a, b), (c, d) = matrix
    except (TypeError, ValueError):  # not a pair of pairs
        raise ValueError("%s must be 2x2, got %r" % (name % args, matrix))
    if bad := [x for x in (a, b, c, d) if type(x) is not int]:  # bools, floats and strings too
        raise ValueError("%s entries must be integers, got %r" % (name % args, bad[0]))
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("%s must have determinant +-1, got %d" % (name % args, det))
    return ((a, b), (c, d))


def _anosov(t, det):
    """Whether a GL(2, Z) matrix of trace t and determinant det is Anosov."""
    return abs(t) > 2 if det == 1 else t != 0


def _trace_field(t, det):
    """(D, r) with t**2 - 4*det = r**2 * D, D squarefree: Q(sqrt(D)) is the
    eigenvalue field of an Anosov matrix of trace t and determinant det."""
    disc = t * t - 4 * det
    D = squarefree_part(disc)
    return D, math.isqrt(disc // D)


@dataclass(frozen=True)
class TorusAutomorphism:
    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", _integer_matrix(self.matrix))

    @property
    def det(self):
        return _det(self.matrix)

    @property
    def trace(self):
        return _trace(self.matrix)

    def __mul__(self, other):
        return TorusAutomorphism(_mat_mul(self.matrix, other.matrix))

    def __pow__(self, k):
        """The k-th power by repeated squaring: O(log k) products, each
        of integer matrices, gated once at the end."""
        _integer(k, "exponent", 0)
        result, square = _IDENTITY, self.matrix
        while k:
            if k & 1:
                result = _mat_mul(result, square)
            k >>= 1
            if k:
                square = _mat_mul(square, square)
        return TorusAutomorphism(result)


@dataclass(frozen=True)
class NTClass:
    """Nielsen-Thurston class of a torus automorphism.

    kind is one of PERIODIC / REDUCIBLE / ANOSOV; period is the order of
    the matrix in GL(2, Z) (periodic case), dilatation the stretch
    factor (Anosov case).
    """

    kind: str
    period: int = None
    dilatation: QuadraticUnit = None


# A periodic matrix's order by (trace, det): off a double root of
# x**2 - t x + det it is diagonalizable over C, so of the order of its
# roots of unity; at a double root (t = +-2, det 1) only +-I is periodic.
# Every other (t, det) is Anosov: six keys, of orders 1, 2, 3, 4 and 6.
_PERIOD = {(1, 1): 6, (0, 1): 4, (-1, 1): 3, (0, -1): 2, (2, 1): 1, (-2, 1): 2}


def classify_torus(phi):
    """Periodic / reducible / Anosov trichotomy, with class data, read
    off the trace, the determinant and, at trace +-2, whether m is +-I."""
    m = phi.matrix
    t, det = _trace(m), phi.det
    if _anosov(t, det):
        # the larger root of x**2 - |t| x + det; D is squarefree already
        D, r = _trace_field(t, det)
        return NTClass(ANOSOV, dilatation=_trusted(QuadraticUnit, D, Fraction(abs(t), 2), Fraction(r, 2)))
    # not Anosov: of infinite order only with det 1, trace +-2, not +-identity
    if det == 1 and abs(t) == 2 and m not in (_IDENTITY, ((-1, 0), (0, -1))):
        return NTClass(REDUCIBLE)
    return NTClass(PERIODIC, period=_PERIOD[t, det])


@dataclass(frozen=True)
class TorusVerdict:
    kind: str
    scale: Fraction = None


def torus_commensurable(phi1, phi2):
    """Commensurability of two torus automorphisms.

    Different NT classes are never commensurable.  Periodic maps form a
    single commensurability class, as do reducible ones.  Two Anosov
    maps are commensurable iff they share a field, whose units above 1
    are powers of one unit: iff disc1*disc2 is a square, for disc_i =
    t_i**2 - 4 det_i = f_i**2 D.  The scale is ``_log_ratio`` over
    R = gcd(disc1, disc2) = gcd(f1, f2)**2 D.
    """
    (t1, det1), (t2, det2) = (phi1.trace, phi1.det), (phi2.trace, phi2.det)
    if _anosov(t1, det1) != _anosov(t2, det2):
        return TorusVerdict(INCOMMENSURABLE)
    if not _anosov(t1, det1):
        same = classify_torus(phi1).kind == classify_torus(phi2).kind
        return TorusVerdict(SAME_CLASS_TRIVIAL if same else INCOMMENSURABLE)
    disc1, disc2 = t1 * t1 - 4 * det1, t2 * t2 - 4 * det2
    if math.isqrt(disc1 * disc2) ** 2 != disc1 * disc2:
        return TorusVerdict(INCOMMENSURABLE)
    R = math.gcd(disc1, disc2)
    x, y = ((abs(t), math.isqrt(disc // R)) for t, disc in ((t1, disc1), (t2, disc2)))
    return TorusVerdict(COMMENSURABLE, scale=_log_ratio(x, y, R))
