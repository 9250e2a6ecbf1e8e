r"""Pseudo-Anosov invariants: singularity data and the length spectrum.

Two exact obstructions for pseudo-Anosov maps are computed here.

* The singularity vector Delta records how many n-pronged singular
  points the invariant foliations have (n >= 3; regular 2-pronged
  points are not singular).  Commensurable maps have log-proportional
  stretch factors and proportional singularity vectors, which
  ``pa_obstruction`` tests with two independent rational scalars.

* For branched-cover models over a linear Anosov torus map, the
  spectrum of stable-times-unstable measures of arcs between marked
  points is enumerable in exact arithmetic: a straight arc in the
  homotopy class of the translate v has measure product
  |mu_u(v) * mu_s(v)|, a rational multiple of 1/sqrt(disc) once the
  product measure is normalized to unit mass on the torus.  Values are
  reported as a certified subset of the spectrum (classes winding
  around branch points are not enumerated), so the minimum is an upper
  bound for the true spectral minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadratic import QuadraticNumber, _trusted
from .surfaces import Surface
from .torus import _anosov, _det, _integer_matrix, _trace, _trace_field

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SingularityVector:
    """Counts of n-pronged singularities, n >= 3."""

    counts: tuple  # ((prongs, count), ...)

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(sorted((n, c) for n, c in self.counts)))
        for n, c in self.counts:
            if n < 3 or c < 1:
                raise ValueError("bad singularity entry (%d prongs, count %d)" % (n, c))

    @property
    def as_dict(self):
        return dict(self.counts)

    def euler_poincare_total(self):
        """Sum of (2 - n) * count; equals 2 chi(F) on a closed surface
        whose foliations have exactly these singularities."""
        return sum((2 - n) * c for n, c in self.counts)


@dataclass(frozen=True)
class BranchData:
    """A branched cover of the torus: degree and local-degree partitions."""

    degree: int
    branch_points: tuple  # one partition of the degree per branch point
    matrix: tuple = None  # optional Anosov matrix of the base

    def __post_init__(self):
        object.__setattr__(self, "branch_points", tuple(tuple(p) for p in self.branch_points))
        for p in self.branch_points:
            if sum(p) != self.degree or any(m < 1 for m in p):
                raise ValueError("%r is not a partition of %d" % (p, self.degree))


def delta_from_branch_data(b):
    """Covering surface and singularity vector of a torus branched cover.

    chi drops by (m - 1) for each local degree m; a point of local
    degree m >= 2 becomes a 2m-pronged singularity of the lifted
    foliations.  The result always satisfies the Euler identity
    sum (2 - n) delta_n = 2 chi.
    """
    chi = -sum(m - 1 for p in b.branch_points for m in p)
    if chi % 2 != 0:
        raise ValueError("branch data gives odd chi %d" % chi)
    surface = Surface((2 - chi) // 2, 0)
    counts = {}
    for p in b.branch_points:
        for m in p:
            if m >= 2:
                counts[2 * m] = counts.get(2 * m, 0) + 1
    delta = SingularityVector(tuple(counts.items()))
    assert delta.euler_poincare_total() == 2 * chi
    return surface, delta


@dataclass(frozen=True)
class PAVerdict:
    ok: bool
    s: Fraction = None        # log-stretch-factor ratio
    s_prime: Fraction = None  # singularity-vector ratio
    witness: str = None


def pa_obstruction(lam1, delta1, lam2, delta2):
    """Scaling test on stretch factors and singularity vectors.

    Passes iff log(lam1) = s log(lam2) for rational s > 0 and
    delta1 = s' delta2 componentwise for rational s' > 0 (equal prong
    supports).  Either failure is a definitive obstruction.
    """
    if lam1 is None or lam2 is None:
        if (lam1 is None) != (lam2 is None):
            return PAVerdict(False, witness="one map has no stretch factor")
        s = None
    elif lam1.exact != lam2.exact:
        return PAVerdict(False, witness="exact vs symbolic stretch factors")
    elif (s := lam1.log_ratio(lam2)) is None:
        reason = "log stretch factors are incommensurable" if lam1.exact else "distinct symbolic stretch factors"
        return PAVerdict(False, witness=reason)

    d1, d2 = delta1.as_dict, delta2.as_dict
    if set(d1) != set(d2):
        return PAVerdict(False, witness="prong supports differ: %r vs %r" % (sorted(d1), sorted(d2)))
    s_prime = None
    for n in sorted(d1):
        r = Fraction(d1[n], d2[n])
        if s_prime is None:
            s_prime = r
        elif r != s_prime:
            return PAVerdict(
                False, witness="no single ratio: delta_%d gives %s, expected %s" % (n, r, s_prime)
            )
    return PAVerdict(True, s=s, s_prime=s_prime)


# ---------------------------------------------------------------------------
# spectrum of an Anosov torus model

@dataclass(frozen=True)
class SpectrumQuery:
    matrix: tuple
    origin: tuple   # marked point O, rational coordinates
    point: tuple    # marked point P
    radius: int

    def __post_init__(self):
        m = _integer_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "origin", tuple(Fraction(x) for x in self.origin))
        object.__setattr__(self, "point", tuple(Fraction(x) for x in self.point))
        if type(self.radius) is not int or self.radius < 1:
            raise ValueError("radius must be an integer >= 1, got %r" % (self.radius,))
        if not _anosov(_trace(m), _det(m)):
            raise ValueError("matrix is not Anosov")


def _measure_form(matrix):
    """(f, D, m, |c|) with mu_u(v) mu_s(v) = |f(v)| / (m |c| sqrt(D)).

    f is the rational quadratic form obtained by multiplying the two
    left-eigenvector pairings; the denominator normalizes the product
    measure to unit mass on the torus (its raw mass is |c| sqrt(disc)).
    """
    a, c = matrix[0][0], matrix[1][0]
    t, det = _trace(matrix), _det(matrix)
    D, m = _trace_field(t, det)

    def f(v):
        return c * c * v[0] * v[0] + c * (t - 2 * a) * v[0] * v[1] + (a * a - a * t + det) * v[1] * v[1]

    return f, D, m, abs(c)


def _translates(q, L):
    """All candidate straight-arc classes within the radius box.

    Each translate v is yielded as the integer pair L*v, for L a common
    denominator of the marked points: the self-pairings first, then the
    O-to-P translates.
    """
    offset = (q.point[0] - q.origin[0], q.point[1] - q.origin[1])
    R = q.radius
    for bx, by in ((0, 0), (int(offset[0] * L), int(offset[1] * L))):
        for i in range(-R, R + 1):
            for j in range(-R, R + 1):
                v = (bx + L * i, by + L * j)
                if v != (0, 0):
                    yield v


def _spectrum_keys(q):
    """Integer keys of the enumerated translates, in ``_translates`` order.

    Returns (D, scale, L, keyed): keyed yields (k, w) for each translate
    v = w / L, whose measure product is k * sqrt(D) / scale.  Keys order
    and deduplicate exactly like the values they stand for.
    """
    f, D, m, abs_c = _measure_form(q.matrix)
    L = math.lcm(*(x.denominator for x in q.origin + q.point))
    return D, L * L * m * abs_c * D, L, ((abs(f(w)), w) for w in _translates(q, L))


def spectrum_values(q):
    """Sorted exact values of the enumerated spectrum subset.

    Enumerates straight arcs between the marked points (self-pairings
    and O-to-P translates) with coordinates in the radius box; values
    are exact quadratic numbers, deduplicated and strictly positive
    unless a translate lies on an eigenline (impossible for rational
    translates of an Anosov matrix, so zero never occurs).
    """
    D, scale, _, keyed = _spectrum_keys(q)
    return [_trusted(QuadraticNumber, D, _ZERO, Fraction(k, scale)) for k in sorted({k for k, _ in keyed})]


def spectrum_count_below(q, bound):
    """Number of distinct enumerated values below the rational ``bound``.

    Compares integer keys and builds no value: for bound = n/d > 0, the
    value k*sqrt(D)/scale lies below it exactly when
    k**2 * D * d**2 < n**2 * scale**2.  No value lies below a bound <= 0.
    """
    n, d = bound.numerator, bound.denominator
    if n <= 0:
        return 0
    D, scale, _, keyed = _spectrum_keys(q)
    key_bound, limit = D * d * d, n * n * scale * scale
    return len({k for k, _ in keyed if k * k * key_bound < limit})


@dataclass(frozen=True)
class SpectrumMin:
    value: QuadraticNumber
    translate: tuple


def spectrum_min(q):
    """Minimum enumerated value with an achieving translate.

    An upper bound for the true spectral minimum; monotone
    non-increasing in the radius.  Among tied translates the first in
    enumeration order is kept.
    """
    D, scale, L, keyed = _spectrum_keys(q)
    k, w = min(keyed, key=lambda kw: kw[0])
    value = _trusted(QuadraticNumber, D, _ZERO, Fraction(k, scale))
    return SpectrumMin(value, (Fraction(w[0], L), Fraction(w[1], L)))
