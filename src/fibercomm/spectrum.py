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
from itertools import accumulate, chain, repeat
from operator import itemgetter

from .quadratic import QuadraticNumber, ResourceLimit, _exact, _gc_paused, _integer, _trusted, _trusted_many
from .surfaces import surface_with
from .torus import _anosov, _det, _integer_matrix, _trace, _trace_field

_ZERO = Fraction(0)

MAX_RADIUS = 300  # 2 (2r + 1)**2 translates; ``fibercomm spectrum`` takes 1.5-2.1 s at this radius on a 2-CPU VM


@dataclass(frozen=True)
class SingularityVector:
    """Counts of n-pronged singularities, n >= 3."""

    counts: tuple  # ((prongs, count), ...)

    def __post_init__(self):
        counts = [(n, c) for n, c in self.counts]
        for n, c in counts:
            _integer(n, "prongs", 3)
            _integer(c, "count", 1)
        object.__setattr__(self, "counts", tuple(sorted(counts)))
        for (n, _), (m, _) in zip(self.counts, self.counts[1:]):
            if n == m:
                raise ValueError("repeated prong number %d" % n)

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
        _integer(self.degree, "degree", 1)
        if self.matrix is not None:
            object.__setattr__(self, "matrix", _integer_matrix(self.matrix, "branch data matrix"))
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
    surface = surface_with(chi, 0)  # chi <= 0, so only an odd chi fits no closed surface
    if surface is None:
        raise ValueError("branch data gives odd chi %d" % chi)
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
        object.__setattr__(self, "matrix", _integer_matrix(self.matrix))
        for field, xy in (("origin", self.origin), ("point", self.point)):
            if len(xy) != 2:
                raise ValueError("%s must have two coordinates, got %r" % (field, xy))
            for x in xy:
                _exact(x, field)
        _integer(self.radius, "radius", 1)
        if not _anosov(_trace(self.matrix), _det(self.matrix)):
            raise ValueError("matrix is not Anosov")


def _measure_form(matrix):
    """The integer form f with mu_u(v) mu_s(v) = |f(v)| / (r |c| sqrt(D)):
    f multiplies the two left-eigenvector pairings, and the denominator,
    for t**2 - 4 det = r**2 D and c the lower-left entry, normalizes the
    product measure to unit mass (its raw mass is |c| sqrt(t**2 - 4 det))."""
    a, c = matrix[0][0], matrix[1][0]
    t, det = _trace(matrix), _det(matrix)

    def f(v):
        return c * c * v[0] * v[0] + c * (t - 2 * a) * v[0] * v[1] + (a * a - a * t + det) * v[1] * v[1]

    return f


def _box(q):
    """(D, scale, L): the translates v of ``q`` are enumerated as the
    integer pairs L*v, and the key k = |f(L*v)| of one stands for the
    value k * sqrt(D) / scale, so keys order and deduplicate like values.
    A radius above ``MAX_RADIUS`` is refused with ``ResourceLimit`` first."""
    if q.radius > MAX_RADIUS:
        raise ResourceLimit("the spectrum radius exceeds %d" % MAX_RADIUS)
    D, r = _trace_field(_trace(q.matrix), _det(q.matrix))
    L = math.lcm(*(x.denominator for x in q.origin + q.point))
    return D, L * L * r * abs(q.matrix[1][0]) * D, L


def _translates(q, L, mirrored=True):
    """Keys of all candidate straight-arc classes within the radius box.

    The self-pairings come first, then the O-to-P translates, a row at a
    time: each row is yielded as (x, y, keys), keys[j] = |f((x, y + L*j))|
    for j = 0..2R.  Along a row f has the constant second difference
    2 f((0, L)) = -2 b c L**2, never 0 for an Anosov matrix, so the keys
    are running sums of an arithmetic progression: exact integer adds in
    C, not a Python call per translate.  The zero translate has key 0,
    and no other does: the eigenlines are irrational.

    Without ``mirrored`` the self-pairing rows with x < 0 are skipped:
    f(-v) = f(v) and that box is symmetric about 0, so row -x holds the
    keys of row x, reversed.  The key-set callers ``spectrum_values`` and
    ``spectrum_count_below`` skip them; ``spectrum_min`` keeps every row,
    so the first translate reaching the minimum in enumeration order stays
    the same.  The O-to-P box is not symmetric and is enumerated whole.
    """
    f, R = _measure_form(q.matrix), q.radius
    step = 2 * f((0, L))
    for bx, by, whole in ((0, 0, mirrored), (q.point[0] - q.origin[0], q.point[1] - q.origin[1], True)):
        bx, y = int(bx * L), int(by * L) - L * R
        for x in range(bx - L * R if whole else bx, bx + L * R + 1, L):
            k = f((x, y))
            d = f((x, y + L)) - k
            yield x, y, list(map(abs, accumulate(range(d, d + 2 * R * step, step), initial=k)))


def _keys(q, L, below=None):
    """The distinct keys of the enumerated translates, 0 left out, or only
    those accepted by ``below``."""
    rows = (row for _, _, row in _translates(q, L, mirrored=False))
    if below is not None:
        rows = map(filter, repeat(below), rows)
    keys = set(chain.from_iterable(rows))
    keys.discard(0)
    return keys


def spectrum_values(q):
    """Sorted exact values of the enumerated spectrum subset: straight
    arcs between the marked points (self-pairings and O-to-P translates)
    with coordinates in the radius box, deduplicated and strictly positive
    (only the zero translate has measure product 0, and it is left out)."""
    D, scale, L = _box(q)
    keys = sorted(_keys(q, L))
    with _gc_paused():
        return _trusted_many(QuadraticNumber, D, _ZERO, keys, scale)


def spectrum_count_below(q, bound):
    """Number of distinct enumerated values below the rational ``bound``
    (an int or a ``Fraction``).

    Compares integer keys and builds no value: for bound = n/d > 0, the
    value k*sqrt(D)/scale lies below it exactly when k**2 * D * d**2 <
    n**2 * scale**2, that is when k <= isqrt((n**2 * scale**2 - 1) //
    (D * d**2)).  No value lies below a bound <= 0.
    """
    n, d = _exact(bound, "bound").numerator, bound.denominator
    D, scale, L = _box(q)
    if n <= 0:
        return 0
    return len(_keys(q, L, math.isqrt((n * n * scale * scale - 1) // (D * d * d)).__ge__))


@dataclass(frozen=True)
class SpectrumMin:
    value: QuadraticNumber
    translate: tuple


def spectrum_min(q):
    """Minimum enumerated value with its first achieving translate in
    enumeration order: an upper bound for the true spectral minimum,
    monotone non-increasing in the radius."""
    D, scale, L = _box(q)
    rows = ((min(filter(None, row)), x, y, row) for x, y, row in _translates(q, L))
    k, x, y, row = min(rows, key=itemgetter(0))  # the first of equal minima
    value = _trusted(QuadraticNumber, D, _ZERO, Fraction(k, scale))
    return SpectrumMin(value, (Fraction(x, L), Fraction(y + L * row.index(k), L)))
