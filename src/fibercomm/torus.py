"""Torus automorphisms: classification and commensurability.

The mapping class group of the torus is GL(2, Z).  A class is periodic,
reducible, or Anosov; for Anosov classes the stretch factor is the
quadratic unit (|t| + sqrt(t**2 -+ 4)) / 2 (sign by determinant), and
two Anosov maps are commensurable iff the logs of their stretch factors
have a rational ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadratic import QuadraticUnit, squarefree_part, unit_log_ratio

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


def _integer_matrix(matrix, name="matrix"):
    """``matrix`` as a tuple of rows, each entry checked to be an int."""
    m = tuple(tuple(row) for row in matrix)
    for row in m:
        for x in row:
            if type(x) is not int:  # bools, floats and strings too
                raise ValueError("%s entries must be integers, got %r" % (name, x))
    return m


@dataclass(frozen=True)
class TorusAutomorphism:
    matrix: tuple

    def __post_init__(self):
        m = _integer_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if _det(m) not in (1, -1):
            raise ValueError("matrix must have determinant +-1, got %d" % _det(m))

    @property
    def det(self):
        return _det(self.matrix)

    @property
    def trace(self):
        return _trace(self.matrix)

    def __mul__(self, other):
        return TorusAutomorphism(_mat_mul(self.matrix, other.matrix))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not needed here")
        result = TorusAutomorphism(_IDENTITY)
        for _ in range(k):
            result = result * self
        return result


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


def _matrix_order(m, bound=12):
    p = m
    for k in range(1, bound + 1):
        if p == _IDENTITY:
            return k
        p = _mat_mul(p, m)
    raise ValueError("matrix is not periodic")


def _dilatation_from_trace(t, det):
    """Largest root of x**2 - |t| x + det, as a canonical QuadraticUnit."""
    disc = t * t - 4 * det
    D = squarefree_part(disc)
    m = math.isqrt(disc // D)
    if m * m * D != disc:
        raise ValueError("discriminant %d is not %d times a square" % (disc, D))
    return QuadraticUnit(D, Fraction(abs(t), 2), Fraction(m, 2))


def classify_torus(phi):
    """Periodic / reducible / Anosov trichotomy, with class data."""
    m = phi.matrix
    t = _trace(m)
    if phi.det == 1:
        if abs(t) < 2 or m == _IDENTITY or m == ((-1, 0), (0, -1)):
            return NTClass(PERIODIC, period=_matrix_order(m))
        if abs(t) == 2:
            return NTClass(REDUCIBLE)
        return NTClass(ANOSOV, dilatation=_dilatation_from_trace(t, 1))
    # det = -1: eigenvalues are real with product -1; trace 0 gives an
    # involution, otherwise an eigenvalue off the unit circle
    if t == 0:
        return NTClass(PERIODIC, period=_matrix_order(m))
    return NTClass(ANOSOV, dilatation=_dilatation_from_trace(t, -1))


@dataclass(frozen=True)
class TorusVerdict:
    kind: str
    scale: Fraction = None


def torus_commensurable(phi1, phi2):
    """Commensurability of two torus automorphisms.

    Different NT classes are never commensurable.  Periodic maps form a
    single commensurability class, as do reducible ones.  Two Anosov
    maps are commensurable iff their log-dilatations are rationally
    dependent; the rational ratio is returned.
    """
    c1, c2 = classify_torus(phi1), classify_torus(phi2)
    if c1.kind != c2.kind:
        return TorusVerdict(INCOMMENSURABLE)
    if c1.kind in (PERIODIC, REDUCIBLE):
        return TorusVerdict(SAME_CLASS_TRIVIAL)
    s = unit_log_ratio(c1.dilatation, c2.dilatation)
    if s is None:
        return TorusVerdict(INCOMMENSURABLE)
    return TorusVerdict(COMMENSURABLE, scale=s)


def generate_same_cyclic_group(phi, psi):
    """Covering-equivalence test for periodic maps.

    Two periodic torus maps are covering equivalent iff they generate
    the same finite cyclic subgroup of GL(2, Z).
    """
    for f in (phi, psi):
        if classify_torus(f).kind != PERIODIC:
            raise ValueError("both maps must be periodic")

    def group(f):
        elems = set()
        p = f
        while p.matrix not in elems:
            elems.add(p.matrix)
            p = p * f
        return elems

    return group(phi) == group(psi)


def minimal_representatives(kind):
    """Minimal elements of the periodic / reducible torus classes.

    Periodic: the order-4 and order-6 rotations (square and hexagonal
    torus).  Reducible: the two displayed parabolic conjugacy classes.
    """
    if kind == PERIODIC:
        return [TorusAutomorphism(((0, -1), (1, 0))), TorusAutomorphism(((0, -1), (1, 1)))]
    if kind == REDUCIBLE:
        return [TorusAutomorphism(((1, 1), (0, 1))), TorusAutomorphism(((-1, 1), (0, -1)))]
    raise ValueError("no canonical minimal list for kind %r" % (kind,))
