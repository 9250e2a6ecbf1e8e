"""Finite covers of decomposition graphs.

A cover is synthesized at the decorated-graph level: each piece lifts
to one or more connected components, described by a sheet count and,
for every boundary circle facing a reducing curve, a partition of the
sheets into the local degrees of the preimage circles.  No surface
covering map is ever constructed; the Euler characteristic and boundary
certificates are enough to pin the covered topology, and the invariants
depend only on those.

The transformation laws are simple and exact: a preimage curve of local
degree d over a curve of fractional twist I carries twist I/d, and a
degree-l component over a piece S satisfies

    A(lift, component) = l * A(phi, S),
    A / -chi unchanged,

which ``verify_cover_laws`` rechecks from scratch on every lift.

``lift_cover`` checks the cover and finds every component's surface
before it builds anything, then builds each lifted piece's slots and
each preimage curve once.  Free boundary circles left implicit
(``free_partitions`` of None) are counted, degree times the number of
circles, never built as all-ones partitions.

``normalize_unit_twists`` is the reduction of a D-type map (all pieces
periodic) to one all of whose twists are +1 or -1: first a power making
every twist an integer, then a cover whose local degrees cancel the
integer twists.  Its degree, L or 2L, is chosen by the same surface
test before the one lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .decomposition import (
    Piece,
    ReducibleMap,
    _distinct_twists,
    _trusted_curve,
    a_piece,
    power,
    validate_or_raise,
)
from .quadratic import ResourceLimit
from .surfaces import Surface

MAX_LIFTED_CURVES = 200_000  # normalize then takes about 3 s and 300 MB on a 2-CPU VM


@dataclass(frozen=True)
class ComponentCover:
    """One connected component of the preimage of a piece.

    ``degree`` is the sheet count; ``slot_partitions`` maps each slot of
    the base piece to the partition of the sheets by preimage-circle
    local degree.  Free boundary circles lift by ``free_partitions``
    (one partition per circle, all-ones when omitted).
    """

    degree: int
    slot_partitions: tuple  # ((slot, (d_1, ..., d_t)), ...)
    free_partitions: tuple = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "slot_partitions",
            tuple((s, tuple(p)) for s, p in self.slot_partitions),
        )
        if self.free_partitions is not None:
            object.__setattr__(
                self, "free_partitions", tuple(tuple(p) for p in self.free_partitions)
            )
        # reversed, so the first entry of a repeated slot wins
        object.__setattr__(self, "_by_slot", dict(reversed(self.slot_partitions)))

    def partition(self, slot):
        return self._by_slot[slot]


@dataclass(frozen=True)
class CoveringData:
    """Per-piece component covers: maps piece id to a list of them."""

    components: tuple  # ((piece id, (ComponentCover, ...)), ...)

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple((pid, tuple(cs)) for pid, cs in self.components)
        )
        # reversed, so the first entry of a repeated piece wins
        object.__setattr__(self, "_by_piece", dict(reversed(self.components)))

    def of(self, pid):
        return self._by_piece[pid]


def _validate_cover(phi, c):
    errors = []
    for p in phi.pieces:
        try:
            comps = c.of(p.id)
        except KeyError:
            errors.append("no cover data for piece %s" % p.id)
            continue
        for j, comp in enumerate(comps):
            if comp.degree < 1:
                errors.append("piece %s component %d: degree < 1" % (p.id, j))
            for slot in p.slots:
                try:
                    part = comp.partition(slot)
                except KeyError:
                    errors.append("piece %s component %d: no partition for slot %s" % (p.id, j, slot))
                    continue
                if sum(part) != comp.degree or min(part, default=1) < 1:
                    errors.append(
                        "piece %s component %d slot %s: %r is not a partition of %d"
                        % (p.id, j, slot, part, comp.degree)
                    )
            if comp.free_partitions is None:
                # all ones, counted rather than built: (1,) * degree is a
                # partition of the degree unless the degree is negative
                if comp.degree < 0:
                    errors += ["piece %s component %d: bad free partition ()" % (p.id, j)] * p.free_boundary
            elif len(comp.free_partitions) != p.free_boundary:
                errors.append(
                    "piece %s component %d: %d free partitions for %d free circles"
                    % (p.id, j, len(comp.free_partitions), p.free_boundary)
                )
            else:
                for part in comp.free_partitions:
                    if sum(part) != comp.degree or min(part, default=1) < 1:
                        errors.append(
                            "piece %s component %d: bad free partition %r" % (p.id, j, part)
                        )
    if errors:
        return errors
    # matched local degrees across each curve
    for curve in phi.curves:
        sides = []
        for pid, slot in curve.ends:
            degs = []
            for comp in c.of(pid):
                degs.extend(comp.partition(slot))
            sides.append(sorted(degs))
        if sides[0] != sides[1]:
            errors.append(
                "curve %s: local degrees %r vs %r do not match" % (curve.id, sides[0], sides[1])
            )
    return errors


def _covered_surfaces(phi, c):
    """(surfaces, error): the surface of every component of ``c``, piece
    by piece, or the error text of the first component no surface fits.

    A component's chi is its degree times the piece's, its boundary count
    the number of preimage circles; the genus solves the rest.  ``c``
    must have passed ``_validate_cover``.
    """
    surfaces = []
    for p in phi.pieces:
        for comp in c.of(p.id):
            chi = comp.degree * p.surface.chi
            boundary = sum(len(comp.partition(s)) for s in p.slots)
            if comp.free_partitions is None:
                boundary += comp.degree * p.free_boundary
            else:
                boundary += sum(len(f) for f in comp.free_partitions)
            twice_genus = 2 - chi - boundary
            if twice_genus < 0 or twice_genus % 2 != 0:
                return None, "piece %s: no surface with chi = %d and %d boundary circles" % (
                    p.id, chi, boundary)
            surfaces.append(Surface(twice_genus // 2, boundary))
    return surfaces, None


def lift_cover(phi, c):
    """The covered decomposition graph.

    Preimage curves are paired across each base curve by matching local
    degree (sorted order on both sides); each carries twist I/d, one
    ``Fraction`` per base curve and local degree.
    """
    validate_or_raise(phi)
    errors = _validate_cover(phi, c)
    if errors:
        raise ValueError("inadmissible cover: " + "; ".join(errors))
    surfaces, error = _covered_surfaces(phi, c)
    if error:
        raise ValueError(error)
    surfaces = iter(surfaces)

    pieces = []
    # (pid, slot) -> list of (local degree d, (lifted piece id, lifted slot))
    lifted_ends = {}
    for p in phi.pieces:
        for j, comp in enumerate(c.of(p.id)):
            new_id = "%s~%d" % (p.id, j)
            slots = []
            for slot in p.slots:
                part = comp.partition(slot)
                names = ["%s~%d" % (slot, i) for i in range(len(part))]
                ends = zip(repeat(new_id), names)
                lifted_ends.setdefault((p.id, slot), []).extend(zip(part, ends))
                slots += names
            surface = next(surfaces)
            free = surface.boundary_components - len(slots)
            pieces.append(Piece(new_id, surface, tuple(slots), free, p.dilatation))

    curves = []
    for curve in phi.curves:
        side_a = sorted(lifted_ends[curve.end_a])
        side_b = sorted(lifted_ends[curve.end_b])
        twists = {}  # one division per local degree, not one per preimage
        for i, ((d, end_a), (d2, end_b)) in enumerate(zip(side_a, side_b)):
            assert d == d2
            twist = twists.get(d)
            if twist is None:
                twist = twists[d] = curve.twist / d
            curves.append(_trusted_curve("%s~%d" % (curve.id, i), end_a, end_b, twist))

    lifted = ReducibleMap(tuple(pieces), tuple(curves))
    validate_or_raise(lifted)
    return lifted


@dataclass(frozen=True)
class LawCheck:
    piece: str
    law: str
    lhs: tuple
    rhs: tuple

    @property
    def ok(self):
        return self.lhs == self.rhs


def verify_cover_laws(phi, c, lifted):
    """Recheck the covering transformation laws on every lifted piece.

    ``lifted`` is the graph to check, normally ``lift_cover(phi, c)``.
    For each degree-l component over S: the pair invariant multiplies by
    l, and the chi-normalized pair invariant is unchanged.  Returns the
    full list of checks; all must pass for a valid cover.
    """
    checks = []
    for p in phi.pieces:
        base = a_piece(phi, p.id)
        base_chi = p.surface.chi
        for j, comp in enumerate(c.of(p.id)):
            new_id = "%s~%d" % (p.id, j)
            lifted_a = a_piece(lifted, new_id)
            lifted_chi = lifted.piece(new_id).surface.chi
            l = comp.degree
            checks.append(
                LawCheck(new_id, "A multiplies by degree", lifted_a, (base[0] * l, base[1] * l))
            )
            checks.append(
                LawCheck(
                    new_id,
                    "A / -chi unchanged",
                    (lifted_a[0] / (-lifted_chi), lifted_a[1] / (-lifted_chi)),
                    (base[0] / (-base_chi), base[1] / (-base_chi)),
                )
            )
    return checks


# ---------------------------------------------------------------------------
# unit-twist normalization of D-type maps

@dataclass(frozen=True)
class NormalizationCertificate:
    power: int
    cover: CoveringData


def normalize_unit_twists(phi):
    """Reduce a D-type map to one with all twists +1 or -1.

    All pieces must be periodic.  First takes the power m clearing every
    twist denominator; each twist is then an integer of absolute value
    d.  A cover of uniform degree L = lcm of the d's (over every piece,
    with every slot partition cut into equal parts of size d) divides
    each twist back down to +-1.  When some covered piece at degree L
    has no surface (its genus would be negative or a half-integer), the
    degree is 2L; the choice is made before lifting, by the genus test
    ``lift_cover`` applies, so the graph is lifted once.  A cover of
    more than ``MAX_LIFTED_CURVES`` lifted curves is refused before it
    is built.  Returns the normalized graph and the (power, cover)
    certificate.
    """
    validate_or_raise(phi)
    for p in phi.pieces:
        if not p.periodic:
            raise ValueError("piece %s is not periodic; normalization needs a D-type map" % p.id)

    m = math.lcm(*[c.twist.denominator for c in phi.curves])
    phim = power(phi, m) if m > 1 else phi
    d_of = {c.id: abs(int(c.twist)) for c in phim.curves}
    L = math.lcm(*d_of.values())

    def build(L):
        if sum(L // d for d in d_of.values()) > MAX_LIFTED_CURVES:
            raise ResourceLimit("the unit-twist cover lifts to more than %d curves" % MAX_LIFTED_CURVES)
        comps = []
        for p in phim.pieces:
            parts = []
            for slot in p.slots:
                d = d_of[phim.curve_at(p.id, slot).id]
                parts.append((slot, (d,) * (L // d)))
            comps.append((p.id, (ComponentCover(L, tuple(parts)),)))
        return CoveringData(tuple(comps))

    cover = build(L)
    if _covered_surfaces(phim, cover)[1]:
        # build(L) is admissible by construction, so only a surface can fail;
        # lift_cover raises when 2L fits no surface either
        cover = build(2 * L)
    normalized = lift_cover(phim, cover)
    assert all(abs(t) == 1 for t in _distinct_twists(normalized.curves).values())
    return normalized, NormalizationCertificate(m, cover)
