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

From this data the graph derives ``phi.pairs`` once (a cached property,
as is every table a graph derives): for each piece S, the pair of
reciprocal-twist sums over the slots of S, split by twist sign, counted
by piece and twist and kept as the reduced integer key (n, d, n', d') of
n/d and n'/d'; ``_pair`` reads a key as two ``Fraction``s, built only
for a value that is read.  A builder that knows a graph's pairs in
closed form (a lift, and the power that normalization lifts) stores
them with ``_with_tables``, never counted.

``comparator.InvariantReport`` normalizes the pairs by -chi(S), the one
normalized table, and reads the twist invariants from it: A, half the
sum of the piece pairs, Pi, the set of normalized pairs, and P, the
chi-weighted polynomial that packages both.

Constructors store what they are given; ``validate`` requires each
twist to be a nonzero ``Fraction``: a curve with trivial fractional
twist between periodic sides is not part of a minimal reducing system.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, isqrt, log10
from typing import NamedTuple

from .quadratic import QuadraticUnit, ResourceLimit, _exact, _integer, _repeated, unit_log_ratio
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
        object.__setattr__(self, "exponent", Fraction(_exact(self.exponent, "exponent")))
        if self.exponent <= 0:  # lambda**e <= 1 is no stretch factor
            raise ValueError("stretch-factor exponent must be positive, got %s" % self.exponent)
        if self.rotation is not None:
            object.__setattr__(self, "rotation", Fraction(_exact(self.rotation, "rotation")))

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
        """The label of the k-th power.  An exact stretch factor u whose power
        could not be printed is refused before it is computed: a + b*isqrt(D)
        <= u, and u**k prints a coordinate >= (u**k - 1) / 2."""
        rotation = None if self.rotation is None else self.rotation * k % 1
        if self.exact:
            u, limit = self.unit, getattr(sys, "get_int_max_str_digits", int)()
            x = u.a + u.b * isqrt(u.D)
            if limit and k * (log10(x.numerator) - log10(x.denominator)) > limit + 1:
                raise ResourceLimit("power %d of the stretch factor %s exceeds %d digits" % (k, u, limit))
            return replace(self, unit=u ** k, rotation=rotation)
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


def _mul(n, d, k, e):
    """Reduced n/d times k/e (d, e > 0), by Fraction's two cross gcds."""
    g1, g2 = gcd(n, e), gcd(k, d)
    if g1 > 1:  # as Fraction, no division by 1: it would copy a long operand
        n, e = n // g1, e // g1
    if g2 > 1:
        k, d = k // g2, d // g2
    return n * k, d * e


def _add(n, d, k, e):
    """Reduced n/d plus k/e (d, e > 0), by Fraction's gcd of d and e, then of the sum and it."""
    g = gcd(d, e)
    if g == 1:
        return n * e + d * k, d * e
    s = d // g
    t = n * (e // g) + k * s
    g = gcd(t, g)
    return (t, s * e) if g == 1 else (t // g, s * (e // g))


def _scale(key, s):
    """A reduced integer key (n, d, n', d') times s = (k, e), e > 0, reduced."""
    return (*_mul(key[0], key[1], *s), *_mul(key[2], key[3], *s))


def _pair(key):
    """The ``Fraction`` pair of a reduced integer key (n, d, n', d')."""
    return Fraction(key[0], key[1]), Fraction(key[2], key[3])


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

    # derived tables, built on first use and kept with the graph: ``validate``, the pairs, the lookup by id
    @cached_property
    def errors(self):
        return validate(self)

    @cached_property
    def pairs(self):
        """Reciprocal-twist pair of every piece, as a dict piece id -> reduced
        integer key (n, d, n', d'): n/d is 1/k summed over the slots of
        positive incident twist k, n'/d' is 1/(-k) over those of negative k;
        a curve with both ends on the piece counts through both slots.
        Pieces of equal sums share one key, so a graph of many pieces of one
        shape holds few.  A lift (``cover.lift_cover``) carries it."""
        return _pairs_from_curves(self)

    @cached_property
    def _by_id(self):
        return {p.id: p for p in self.pieces}

    def piece(self, pid):
        return self._by_id[pid]

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
        if _repeated(ids):
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
        if repeated := _repeated(p.slots):
            errors += ["piece %s repeats slot %s" % (p.id, s) for s in repeated]

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
    # (piece id, twist object) over the curve ends
    ends = Counter(zip([c.end_a[0] for c in curves], keys))
    ends.update(zip([c.end_b[0] for c in curves], keys))
    sums = dict.fromkeys([(p.id, sign) for p in phi.pieces for sign in (False, True)], (0, 1))
    for (pid, key), n in ends.items():  # (piece id, twist < 0) -> reduced integers of the sum
        num, den = twists[key].as_integer_ratio()
        if num:
            sums[pid, num < 0] = _add(*sums[pid, num < 0], *_mul(n, 1, den, abs(num)))
    shared = {}  # the one key of each distinct pair of sums
    return {p.id: shared.setdefault(key, key) for p in phi.pieces for key in [(*sums[p.id, False], *sums[p.id, True])]}


def _with_tables(phi, pairs):
    """``phi`` with its ``pairs`` table stored and its ``errors`` stored empty,
    for a graph that its builder made valid and whose pairs it knows."""
    vars(phi).update(pairs=pairs, errors=[])
    return phi


def power(phi, k):
    """The decomposition graph of phi**k, for a checked graph: twists and
    dilatations scale, an exact one only while it can be printed."""
    validate_or_raise(phi)
    _integer(k, "k", 1)
    pieces = tuple(
        p if p.periodic else replace(p, dilatation=p.dilatation.power(k))
        for p in phi.pieces
    )
    # one product per distinct twist value; the curves built in one C-level pass, as a lift's are
    products, scaled = {}, {}
    for key, t in _distinct_twists(phi.curves).items():
        value = t.numerator, t.denominator
        scaled[key] = products[value] = products[value] if value in products else t * k
    ids, ends_a, ends_b, twists = zip(*phi.curves) if phi.curves else ((),) * 4
    return ReducibleMap(pieces, tuple(_curves(zip(ids, ends_a, ends_b, map(scaled.__getitem__, map(id, twists))))))
