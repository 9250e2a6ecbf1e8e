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

* ``a_piece(phi, S)`` -- the pair of reciprocal-twist sums over the
  slots of S, split by twist sign;
* ``a_total(phi)``    -- half the sum over pieces (each curve meets two
  slots), equal to the direct sum over curves;
* ``pi_invariant``    -- the set of per-piece pairs normalized by
  -chi(S);
* ``p_polynomial``    -- the chi-weighted generating polynomial that
  packages both.

The per-piece pairs are computed once per graph (``piece_pairs``) and
every invariant above reads that table.  A piece's slots are counted by
twist value first, so a lifted graph with only the twists +1 and -1
costs one ``Fraction`` per distinct twist, not one per slot.

Twist zero is rejected: a curve with trivial fractional twist between
periodic sides is not part of a minimal reducing system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

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

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def periodic(self):
        return self.dilatation is None


@dataclass(frozen=True)
class ReducingCurve:
    id: str
    end_a: tuple  # (piece id, slot)
    end_b: tuple
    twist: Fraction

    def __post_init__(self):
        object.__setattr__(self, "end_a", tuple(self.end_a))
        object.__setattr__(self, "end_b", tuple(self.end_b))
        if not isinstance(self.twist, Fraction):
            object.__setattr__(self, "twist", Fraction(self.twist))

    @property
    def ends(self):
        return (self.end_a, self.end_b)


@dataclass(frozen=True)
class ReducibleMap:
    """A reducible automorphism as a decorated decomposition graph."""

    pieces: tuple
    curves: tuple
    piece_orbits: tuple = ()  # optional partition metadata
    curve_orbits: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "piece_orbits", tuple(tuple(o) for o in self.piece_orbits))
        object.__setattr__(self, "curve_orbits", tuple(tuple(o) for o in self.curve_orbits))

    def _index(self):
        # lazy lookup tables; large lifted graphs make linear scans
        # quadratic in practice
        cached = getattr(self, "_cached_index", None)
        if cached is None:
            by_id = {p.id: p for p in self.pieces}
            by_end = {}
            for c in self.curves:
                for end in c.ends:
                    by_end.setdefault(end, c)
            cached = (by_id, by_end)
            object.__setattr__(self, "_cached_index", cached)
        return cached

    def piece(self, pid):
        return self._index()[0][pid]

    def curve_at(self, pid, slot):
        return self._index()[1][(pid, slot)]

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
    ids = [p.id for p in phi.pieces]
    if len(set(ids)) != len(ids):
        errors.append("duplicate piece ids")
    if not phi.curves:
        errors.append("reducing system is empty")

    slot_use = {}
    for p in phi.pieces:
        if p.surface.chi >= 0:
            errors.append("piece %s has chi = %d >= 0" % (p.id, p.surface.chi))
        if p.surface.boundary_components != len(p.slots) + p.free_boundary:
            errors.append(
                "piece %s: boundary count %d != slots %d + free %d"
                % (p.id, p.surface.boundary_components, len(p.slots), p.free_boundary)
            )
        for s in p.slots:
            slot_use[(p.id, s)] = 0

    by_id = {p.id: p for p in phi.pieces}
    for c in phi.curves:
        if c.twist == 0:
            errors.append("curve %s has zero twist" % c.id)
        for pid, slot in c.ends:
            if pid not in by_id:
                errors.append("curve %s references missing piece %s" % (c.id, pid))
            elif (pid, slot) not in slot_use:
                errors.append("curve %s references missing slot %s.%s" % (c.id, pid, slot))
            else:
                slot_use[(pid, slot)] += 1
    for (pid, slot), n in slot_use.items():
        if n != 1:
            errors.append("slot %s.%s used by %d curve ends (expected 1)" % (pid, slot, n))

    # built only for graphs with orbits; the first curve of a repeated id wins
    curve_by_id = {c.id: c for c in reversed(phi.curves)} if phi.curve_orbits else {}
    for orbit in phi.curve_orbits:
        twists = set()
        for cid in orbit:
            if cid not in curve_by_id:
                errors.append("curve orbit references missing curve %s" % cid)
            else:
                twists.add(curve_by_id[cid].twist)
        if len(twists) > 1:
            errors.append("curve orbit %r mixes twists %r" % (orbit, sorted(twists)))
    for orbit in phi.piece_orbits:
        kinds = set()
        surfaces = set()
        for pid in orbit:
            if pid not in by_id:
                errors.append("piece orbit references missing piece %s" % pid)
            else:
                kinds.add(by_id[pid].periodic)
                surfaces.add(by_id[pid].surface)
        if len(kinds) > 1 or len(surfaces) > 1:
            errors.append("piece orbit %r mixes piece types" % (orbit,))
    return errors


def validate_or_raise(phi):
    """Raise ``ValueError`` listing the errors of ``validate``.

    Success is recorded on the frozen graph, so a graph that passes is
    checked once however many operations it goes through; a graph that
    fails is checked, and raises, on every call.
    """
    if getattr(phi, "_cached_valid", False):
        return
    errors = validate(phi)
    if errors:
        raise ValueError("invalid decomposition graph: " + "; ".join(errors))
    object.__setattr__(phi, "_cached_valid", True)


# ---------------------------------------------------------------------------
# invariants

def piece_pairs(phi):
    """Reciprocal-twist pair of every piece, as a dict piece id -> pair.

    Sums 1/k over the slots whose incident twist k is positive into the
    first coordinate and 1/(-k) over negative twists into the second.  A
    curve with both ends on the piece contributes through both slots.
    """
    cached = getattr(phi, "_cached_pairs", None)
    if cached is None:
        by_end = phi._index()[1]
        cached = {}
        for p in phi.pieces:
            twists = (by_end[(p.id, slot)].twist for slot in p.slots)
            counts = Counter((k.numerator, k.denominator) for k in twists)
            pos = neg = Fraction(0)
            for (num, den), n in counts.items():
                if num > 0:
                    pos += Fraction(n * den, num)
                elif num < 0:
                    neg += Fraction(n * den, -num)
            cached[p.id] = (pos, neg)
        object.__setattr__(phi, "_cached_pairs", cached)
    return cached


def a_piece(phi, pid):
    """Reciprocal-twist pair of one piece (see ``piece_pairs``)."""
    return piece_pairs(phi)[pid]


def a_total(phi):
    """Global pair invariant: half the sum of the per-piece pairs."""
    table = piece_pairs(phi)
    pairs = [table[p.id] for p in phi.pieces]
    return (sum((a for a, _ in pairs), Fraction(0)) / 2, sum((b for _, b in pairs), Fraction(0)) / 2)


def normalized_a_piece(phi, pid):
    chi = phi.piece(pid).surface.chi
    ap, an = piece_pairs(phi)[pid]
    return (ap / (-chi), an / (-chi))


def pi_invariant(phi):
    """The set of chi-normalized per-piece pairs."""
    return frozenset(normalized_a_piece(phi, p.id) for p in phi.pieces)


def p_polynomial(phi):
    """Chi-weighted polynomial encoding of the piece invariants.

    Maps each normalized pair (p, q) to the fraction of chi(F) carried
    by the pieces realizing it; the coefficients sum to 1, evaluation at
    (1, 1) recovers 2 A(phi) / -chi(F), and the support is Pi(phi).
    """
    chi_f = phi.chi
    coeffs = {}
    for p in phi.pieces:
        key = normalized_a_piece(phi, p.id)
        coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(p.surface.chi, chi_f)
    return {k: v for k, v in coeffs.items() if v != 0}


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
    return ReducibleMap(pieces, tuple(curves), phi.piece_orbits, phi.curve_orbits)


def negate_twists(phi):
    """Orientation reversal at the invariant level: all twists flip sign."""
    return replace(phi, curves=tuple(replace(c, twist=-c.twist) for c in phi.curves))
