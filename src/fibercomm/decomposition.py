r"""Decomposition graphs of reducible surface automorphisms.

A reducible automorphism in standard form is recorded combinatorially:

* pieces -- the components S of the surface cut along the reducing
  system, each with its topological type, an ordered list of *slots*
  (the boundary circles facing a reducing curve), a count of free
  boundary circles (those on the boundary of the ambient surface), and
  a kind: periodic, or pseudo-Anosov with a stretch-factor label;

* curves -- the reducing curves, each joining two slots (possibly of
  the same piece) and carrying its fractional twist I, the Dehn-twist
  power of a boundary-fixing power of the map divided by that power.

From this data the twist invariants are computed exactly:

* ``phi.pairs``       -- for each piece S, the pair of reciprocal-twist
  sums over the slots of S, split by twist sign;
* ``a_total(phi)``    -- half the sum over pieces (each curve meets two
  slots), equal to the direct sum over curves;
* ``pi_invariant``    -- the set of per-piece pairs normalized by
  -chi(S);
* ``p_polynomial``    -- the chi-weighted generating polynomial that
  packages both.

The per-piece pairs are computed once per graph (a cached property, as
is every table a graph derives), and every invariant above reads them.
The curve ends are counted by piece and twist value first, so a graph
with only the twists +1 and -1 costs one ``Fraction`` per piece and
distinct twist, not one per slot; a lifted graph carries its table in
closed form and is never counted.

Constructors store what they are given; ``validate`` requires each
twist to be a nonzero ``Fraction``: a curve with trivial fractional
twist between periodic sides is not part of a minimal reducing system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .quadratic import QuadraticUnit, unit_log_ratio
from .surfaces import Surface


# ---------------------------------------------------------------------------
# dilatation labels

@dataclass(frozen=True)
class DilatationLabel:
    """Stretch factor of a pseudo-Anosov piece.

    Either exact (a QuadraticUnit) or symbolic (a name with a rational
    exponent, so powers of the map stay expressible; symbolic labels
    with equal names denote equal dilatations).  ``rotation`` is the
    fractional boundary rotation of the piece map, when known.
    """

    unit: QuadraticUnit = None
    name: str = None
    exponent: Fraction = Fraction(1)
    rotation: Fraction = None

    def __post_init__(self):
        if (self.unit is None) == (self.name is None):
            raise ValueError("label must be exactly one of exact / symbolic")
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.exponent <= 0:  # lambda**e <= 1 is no stretch factor
            raise ValueError("stretch-factor exponent must be positive, got %s" % self.exponent)
        if self.rotation is not None:
            object.__setattr__(self, "rotation", Fraction(self.rotation))

    @property
    def exact(self):
        return self.unit is not None

    @property
    def value(self):
        """The stretch factor alone: the label without its rotation."""
        return replace(self, rotation=None)

    def log_ratio(self, other):
        """log(self) / log(other) as an exact Fraction, or None when the
        two stretch factors are not log-commensurable (exact against
        symbolic, distinct names, or units of unrelated fields)."""
        if self.exact != other.exact:
            return None
        if self.exact:
            return unit_log_ratio(self.unit, other.unit)
        if self.name != other.name:
            return None
        return self.exponent / other.exponent

    def power(self, k):
        rotation = None if self.rotation is None else self.rotation * k % 1
        if self.exact:
            return replace(self, unit=self.unit ** k, rotation=rotation)
        return replace(self, exponent=self.exponent * k, rotation=rotation)


# ---------------------------------------------------------------------------
# graph data

@dataclass(frozen=True)
class Piece:
    id: str
    surface: Surface
    slots: tuple
    free_boundary: int = 0
    dilatation: DilatationLabel = None  # None = periodic piece

    @property
    def periodic(self):
        return self.dilatation is None


class ReducingCurve(NamedTuple):
    id: str
    end_a: tuple  # (piece id, slot)
    end_b: tuple
    twist: Fraction

    @property
    def ends(self):
        return (self.end_a, self.end_b)


def _curves(rows):  # ReducingCurve(*row) calls tuple.__new__(cls, row) from a Python frame; this is one C call
    return map(tuple.__new__, repeat(ReducingCurve), rows)


def _distinct_twists(curves):
    """The twists of ``curves``, one per distinct object, keyed by ``id``.

    The library's graph builders share one twist ``Fraction`` between the
    curves of equal twist (``power`` per twist, ``cover.lift_cover`` per
    local degree, ``staircase.refiber`` per shear and sheet count, the
    document reader per distinct twist string of a graph of more than 16
    curves), so a check that reads twist values costs one call per shared
    twist, not per curve.
    """
    twists = [c.twist for c in curves]
    return dict(zip(map(id, twists), twists))


@dataclass(frozen=True)
class ReducibleMap:
    """A reducible automorphism as a decorated decomposition graph."""

    pieces: tuple
    curves: tuple

    # derived tables, built on first use and kept with the graph: ``validate``,
    # the piece pairs, their normalized table and lookups, never a linear scan
    @cached_property
    def errors(self):
        return validate(self)

    @cached_property
    def pairs(self):
        """Reciprocal-twist pair of every piece, as a dict piece id -> pair:
        1/k summed over the slots of positive incident twist k, 1/(-k) over
        those of negative k; a curve with both ends on the piece counts
        through both slots.  A lift (``cover.lift_cover``) carries it."""
        return _pairs_from_curves(self)

    @cached_property
    def normalized(self):
        """Each chi-normalized piece pair -> the chi of the pieces
        realizing it; one division per (piece pair, chi)."""
        table, normalized = self.pairs, {}
        for ((ap, an), chi), n in Counter((table[p.id], p.surface.chi) for p in self.pieces).items():
            key = (ap / -chi, an / -chi)
            normalized[key] = normalized.get(key, 0) + n * chi
        return normalized

    @cached_property
    def _by_id(self):
        return {p.id: p for p in self.pieces}

    @cached_property
    def _by_end(self):
        by_end = {}
        for c in self.curves:
            by_end.setdefault(c.end_a, c)
            by_end.setdefault(c.end_b, c)
        return by_end

    def piece(self, pid):
        return self._by_id[pid]

    def curve_at(self, pid, slot):
        return self._by_end[(pid, slot)]

    @property
    def chi(self):
        """Euler characteristic of the full surface (curves contribute 0)."""
        return sum(p.surface.chi for p in self.pieces)

    @property
    def dilatation_set(self):
        """Set of stretch-factor labels of the pseudo-Anosov pieces."""
        return frozenset(p.dilatation for p in self.pieces if not p.periodic)


def validate(phi):
    """Structural checks; returns a list of error strings (empty = ok)."""
    errors = []
    for kind, ids in (("piece", [p.id for p in phi.pieces]), ("curve", [c.id for c in phi.curves])):
        if len(set(ids)) != len(ids):
            errors.append("duplicate %s ids" % kind)
    if not phi.curves:
        errors.append("reducing system is empty")

    for p in phi.pieces:
        if p.surface.chi >= 0:
            errors.append("piece %s has chi = %d >= 0" % (p.id, p.surface.chi))
        if p.surface.boundary_components != len(p.slots) + p.free_boundary:
            errors.append(
                "piece %s: boundary count %d != slots %d + free %d"
                % (p.id, p.surface.boundary_components, len(p.slots), p.free_boundary)
            )
        if len(set(p.slots)) != len(p.slots):
            errors += ["piece %s repeats slot %s" % (p.id, s) for s, n in Counter(p.slots).items() if n > 1]

    by_id = {p.id: p for p in phi.pieces}
    curves = phi.curves
    ends = [c.end_a for c in curves]
    ends += [c.end_b for c in curves]
    used = dict.fromkeys(ends)
    # Each slot is used by exactly one end, and each end is a slot, when
    # the slots are distinct (no error so far: a repeat is one), every
    # slot is among the ends, and there are as many distinct ends as ends
    # and as slots.  Checked on the ends the curves already hold, so no
    # set of every slot is built unless there is an error to report.
    fits = (
        not errors
        and len(by_id) == len(phi.pieces)
        and len(used) == len(ends) == sum(len(p.slots) for p in phi.pieces)
        and all((p.id, s) in used for p in phi.pieces for s in p.slots)
    )
    odd = any(not isinstance(t, Fraction) or t == 0 for t in _distinct_twists(curves).values())
    if not fits or odd:
        slots = dict.fromkeys((p.id, s) for p in phi.pieces for s in p.slots)
        if odd or not used.keys() <= slots.keys():
            for c in curves:
                if not isinstance(c.twist, Fraction):
                    errors.append("curve %s: twist %r is not a Fraction" % (c.id, c.twist))
                elif c.twist == 0:
                    errors.append("curve %s has zero twist" % c.id)
                for pid, slot in c.ends:
                    if pid not in by_id:
                        errors.append("curve %s references missing piece %s" % (c.id, pid))
                    elif (pid, slot) not in slots:
                        errors.append("curve %s references missing slot %s.%s" % (c.id, pid, slot))
        use = Counter(ends)
        for pid, slot in slots:
            n = use[(pid, slot)]
            if n != 1:
                errors.append("slot %s.%s used by %d curve ends (expected 1)" % (pid, slot, n))
    return errors


def validate_or_raise(phi):
    """Raise ``ValueError`` listing the errors of ``validate``.

    The errors are kept on the graph (``phi.errors``), so a graph is
    checked once however many operations it goes through; one that
    fails raises on every call.
    """
    if phi.errors:
        raise ValueError("invalid decomposition graph: " + "; ".join(phi.errors))


# ---------------------------------------------------------------------------
# invariants

def _pairs_from_curves(phi):
    """The ``pairs`` table summed from the curves, never cached."""
    curves = phi.curves
    twists = _distinct_twists(curves)
    keys = [id(c.twist) for c in curves]
    # (piece id, twist object) over the curve ends, then by twist value
    ends = Counter(zip([c.end_a[0] for c in curves], keys))
    ends.update(zip([c.end_b[0] for c in curves], keys))
    counts = Counter()
    for (pid, key), n in ends.items():
        k = twists[key]
        counts[pid, k.numerator, k.denominator] += n
    pairs = {p.id: [Fraction(0), Fraction(0)] for p in phi.pieces}
    for (pid, num, den), n in counts.items():
        if num > 0:
            pairs[pid][0] += Fraction(n * den, num)
        elif num < 0:
            pairs[pid][1] += Fraction(n * den, -num)
    return {pid: tuple(pair) for pid, pair in pairs.items()}


def a_total(phi):
    """Global pair invariant: half the sum of the per-piece pairs, each
    its normalized pair times -chi, so one term per normalized pair."""
    items = phi.normalized.items()
    return (sum((p * chi for (p, _), chi in items), Fraction(0)) / -2,
            sum((q * chi for (_, q), chi in items), Fraction(0)) / -2)


def pi_invariant(phi):
    """The set of chi-normalized per-piece pairs."""
    return frozenset(phi.normalized)


def p_polynomial(phi):
    """Chi-weighted polynomial encoding of the piece invariants.

    Maps each normalized pair (p, q) to the fraction of chi(F) carried
    by the pieces realizing it; the coefficients sum to 1, evaluation at
    (1, 1) recovers 2 A(phi) / -chi(F), and the support is Pi(phi).
    """
    chi_f = phi.chi
    return {k: Fraction(chi, chi_f) for k, chi in phi.normalized.items() if chi != 0}


def power(phi, k):
    """The decomposition graph of phi**k: twists and dilatations scale."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    pieces = tuple(
        p if p.periodic else replace(p, dilatation=p.dilatation.power(k))
        for p in phi.pieces
    )
    # one multiplication per distinct twist, keyed by its integers
    # (hashing a Fraction costs about half a multiplication)
    twists = {}
    curves = []
    for c in phi.curves:
        key = (c.twist.numerator, c.twist.denominator)
        if key not in twists:
            twists[key] = c.twist * k
        curves.append(ReducingCurve(c.id, c.end_a, c.end_b, twists[key]))
    return ReducibleMap(pieces, tuple(curves))
