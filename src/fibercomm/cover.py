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

``normalize_unit_twists`` is the reduction of a D-type map (all pieces
periodic) to one all of whose twists are +1 or -1: first a power making
every twist an integer, then a cover whose local degrees cancel the
integer twists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .decomposition import (
    Piece,
    ReducibleMap,
    ReducingCurve,
    a_piece,
    power,
    validate_or_raise,
)
from .surfaces import Surface


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
            frees = _free_partitions(p, comp)
            if len(frees) != p.free_boundary:
                errors.append(
                    "piece %s component %d: %d free partitions for %d free circles"
                    % (p.id, j, len(frees), p.free_boundary)
                )
            else:
                for part in frees:
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


def _free_partitions(piece, comp):
    if comp.free_partitions is not None:
        return comp.free_partitions
    return tuple((1,) * comp.degree for _ in range(piece.free_boundary))


def _covered_surface(piece, comp):
    """Surface of one component: chi multiplies, genus solves the rest."""
    chi = comp.degree * piece.surface.chi
    boundary = sum(len(comp.partition(s)) for s in piece.slots)
    boundary += sum(len(p) for p in _free_partitions(piece, comp))
    twice_genus = 2 - chi - boundary
    if twice_genus < 0 or twice_genus % 2 != 0:
        raise ValueError(
            "piece %s: no surface with chi = %d and %d boundary circles"
            % (piece.id, chi, boundary)
        )
    return Surface(twice_genus // 2, boundary)


def lift_cover(phi, c):
    """The covered decomposition graph.

    Preimage curves are paired across each base curve by matching local
    degree (sorted order on both sides); each carries twist I/d.
    """
    validate_or_raise(phi)
    errors = _validate_cover(phi, c)
    if errors:
        raise ValueError("inadmissible cover: " + "; ".join(errors))

    pieces = []
    # (pid, slot) -> sorted list of (lifted piece id, lifted slot, d)
    lifted_ends = {}
    for p in phi.pieces:
        for j, comp in enumerate(c.of(p.id)):
            new_id = "%s~%d" % (p.id, j)
            surface = _covered_surface(p, comp)
            slots = []
            for slot in p.slots:
                for i, d in enumerate(comp.partition(slot)):
                    new_slot = "%s~%d" % (slot, i)
                    slots.append(new_slot)
                    lifted_ends.setdefault((p.id, slot), []).append((d, new_id, new_slot))
            free = surface.boundary_components - len(slots)
            pieces.append(Piece(new_id, surface, tuple(slots), free, p.dilatation))

    curves = []
    for curve in phi.curves:
        side_a = sorted(lifted_ends[curve.end_a])
        side_b = sorted(lifted_ends[curve.end_b])
        twists = {}  # one division per local degree, not one per preimage
        for i, ((d, pa, sa), (d2, pb, sb)) in enumerate(zip(side_a, side_b)):
            assert d == d2
            if d not in twists:
                twists[d] = curve.twist / d
            curves.append(ReducingCurve("%s~%d" % (curve.id, i), (pa, sa), (pb, sb), twists[d]))

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
    each twist back down to +-1.  L is doubled when the genus parity of
    some covered piece fails.  Returns the normalized graph and the
    (power, cover) certificate.
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
        comps = []
        for p in phim.pieces:
            parts = []
            for slot in p.slots:
                d = d_of[phim.curve_at(p.id, slot).id]
                parts.append((slot, (d,) * (L // d)))
            comps.append((p.id, (ComponentCover(L, tuple(parts)),)))
        return CoveringData(tuple(comps))

    cover = build(L)
    try:
        normalized = lift_cover(phim, cover)
    except ValueError:
        cover = build(2 * L)
        normalized = lift_cover(phim, cover)
    assert all(abs(c.twist) == 1 for c in normalized.curves)
    return normalized, NormalizationCertificate(m, cover)
