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
    A / -chi unchanged.

``lift_cover`` checks the cover in the one walk that lifts it, solving
each component's surface where it counts its boundary circles, and
refuses, in this order, on component faults (a piece with no component,
its entry missing or empty, is one), on curves whose ends' local
degrees differ, and on a component no surface fits; the lift is then
valid by construction and carries its pair table in the closed form
above, which ``verify_cover_laws`` rechecks from the curves.  Implicit
free circles (``free_partitions`` of None) are counted, never built.

``normalize_unit_twists`` is the reduction of a D-type map (all pieces
periodic) to one all of whose twists are +1 or -1: first a power making
every twist an integer, then a cover whose local degrees cancel the
integer twists.  Its degree, L or 2L, is chosen from the pieces alone
by the same genus law, ``surfaces.surface_with``, so its cover is built
and lifted once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice, repeat
from operator import eq, itemgetter

from .decomposition import (
    Piece,
    ReducibleMap,
    _curves,
    _distinct_twists,
    _pair,
    _pairs_from_curves,
    _scale,
    _with_tables,
    power,
    validate_or_raise,
)
from .quadratic import ResourceLimit, _gc_paused
from .surfaces import surface_with

MAX_LIFTED_CURVES = 200_000  # normalize then takes about 1.4 s and 310 MB on a 2-CPU VM


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

    @cached_property
    def _by_slot(self):  # reversed, so the first entry of a repeated slot wins
        return dict(reversed(self.slot_partitions))

    def partition(self, slot):
        return self._by_slot[slot]


@dataclass(frozen=True)
class CoveringData:
    """Per-piece component covers: maps piece id to a list of them."""

    components: tuple  # ((piece id, (ComponentCover, ...)), ...)

    @cached_property
    def _by_piece(self):  # reversed, so the first entry of a repeated piece wins
        return dict(reversed(self.components))

    def of(self, pid):
        return self._by_piece[pid]


def _ends_by_runs(runs):
    """Local-degree counts and lifted ends over one base slot.  Its runs
    (local degree, lifted piece id, slot names) sorted by degree and id,
    names sorted within each, give ``sorted((d, (piece id, slot)))``."""
    runs.sort(key=itemgetter(0, 1))
    counts, ends = {}, []
    for d, pid, names in runs:
        names.sort()
        counts[d] = counts.get(d, 0) + len(names)
        ends += zip(repeat(pid), names)
    return counts, ends


def lift_cover(phi, c):
    """The covered decomposition graph, valid by construction.

    One walk over the pieces, their components and their slots checks
    the cover where it reads each partition, gathers the lifted slot
    names and the runs of local degree that pair preimage circles, by
    sorted degree, across each curve, and solves the surface of each
    component, once no fault has been found, from its chi and its count
    of preimage circles (``surfaces.surface_with``).  The refusal, a ``ValueError``,
    is the first of: (1) every component fault, in one "inadmissible
    cover" message, a piece whose entry is missing or lists no component
    being one ("no cover data for piece ..."); (2) otherwise every curve
    whose ends' local degrees differ, compared once from the counts that
    pair its preimages, in that message; (3) otherwise the first
    component no surface fits.

    Each preimage curve of local degree d carries twist I/d, one
    ``Fraction`` per base curve and degree, and the graph its pair table
    in closed form, the key of S scaled by l for a degree-l component
    (``decomposition._scale``), stored as ``pairs`` by ``_with_tables``.

    The lift is not validated, its ``errors`` are stored empty: the checks
    of ``phi`` and of the walk imply every check of ``validate`` on it:

    * distinct piece and slot ids: a ``"%s~%d"`` name splits uniquely at
      its last ``~`` into a base id and an index;
    * distinct curve ids, ``"%s~%d"`` names over the distinct base ids;
    * chi = l * chi(S) < 0, and the boundary count the surface solves;
    * a nonempty reducing system: every piece has a component of degree
      at least 1, so every slot partition is nonempty, and the matched
      local degrees give each curve of ``phi`` at least one preimage;
    * nonzero twists I/d, each a ``Fraction`` as I is;
    * each lifted slot used once, as its base slot is, since the matched
      degree lists of a base curve's two ends have equal length.

    Cyclic garbage collection is paused while the lift allocates its
    tracked objects, a few per curve.
    """
    validate_or_raise(phi)
    digits = []  # str(0), str(1), ..., shared by every numbered name

    def numbered(prefix, n):
        digits.extend(map(str, range(len(digits), n)))
        return list(map(("%s~" % (prefix,)).__add__, islice(digits, n)))

    with _gc_paused():
        errors, unfit, pieces, pairs, curves = [], None, [], {}, []
        runs_at = {}  # (pid, slot) -> runs (local degree, lifted piece id, lifted slot names)
        for p in phi.pieces:
            comps = c._by_piece.get(p.id)
            if not comps:  # none given, or an empty list: the piece has no preimage either way
                errors.append("no cover data for piece %s" % p.id)
                continue
            for j, comp in enumerate(comps):
                where = "piece %s component %d" % (p.id, j)
                new_id, slots = "%s~%d" % (p.id, j), []
                if comp.degree < 1:
                    errors.append(where + ": degree < 1")
                for slot in p.slots:
                    try:
                        part = comp.partition(slot)
                    except KeyError:
                        errors.append("%s: no partition for slot %s" % (where, slot))
                        continue
                    if sum(part) != comp.degree or min(part, default=1) < 1:
                        errors.append("%s slot %s: %r is not a partition of %d" % (where, slot, part, comp.degree))
                    names = numbered(slot, len(part))
                    slots += names
                    degrees = set(part)  # a single degree at every slot of a normalize_unit_twists cover
                    runs_at.setdefault((p.id, slot), []).extend(
                        [(part[0], new_id, names)] if len(degrees) == 1 else
                        ((d, new_id, list(compress(names, map(eq, repeat(d), part)))) for d in degrees))
                if comp.free_partitions is None:  # all ones, counted rather than built
                    free = comp.degree * p.free_boundary
                    if comp.degree < 0:  # (1,) * degree is then no partition of the degree
                        errors += [where + ": bad free partition ()"] * p.free_boundary
                elif len(comp.free_partitions) != p.free_boundary:
                    errors.append("%s: %d free partitions for %d free circles"
                                  % (where, len(comp.free_partitions), p.free_boundary))
                else:
                    free = sum(map(len, comp.free_partitions))
                    for part in comp.free_partitions:
                        if sum(part) != comp.degree or min(part, default=1) < 1:
                            errors.append("%s: bad free partition %r" % (where, part))
                if errors:  # no surface is solved for a component with a fault
                    continue
                chi, boundary = comp.degree * p.surface.chi, len(slots) + free
                surface = surface_with(chi, boundary)
                if surface is None:
                    unfit = unfit or "piece %s: no surface with chi = %d and %d boundary circles" % (p.id, chi, boundary)
                pieces.append(Piece(new_id, surface, tuple(slots), free, p.dilatation))
                pairs[new_id] = _scale(phi.pairs[p.id], (comp.degree, 1))
        for curve in [] if errors else phi.curves:  # compared over admissible components only
            counts, side_a = _ends_by_runs(runs_at.get(curve.end_a, []))
            counts_b, side_b = _ends_by_runs(runs_at.get(curve.end_b, []))
            if counts != counts_b:
                errors.append("curve %s: local degrees %r vs %r do not match" % (
                    curve.id, sorted(Counter(counts).elements()), sorted(Counter(counts_b).elements())))
                continue
            twists = []
            for d, n in counts.items():
                twists += [curve.twist / d] * n
            curves += _curves(zip(numbered(curve.id, len(side_a)), side_a, side_b, twists))
    if errors:
        raise ValueError("inadmissible cover: " + "; ".join(errors))
    if unfit:
        raise ValueError(unfit)
    return _with_tables(ReducibleMap(tuple(pieces), tuple(curves)), pairs)


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
    l, and the chi-normalized pair invariant is unchanged.  The pairs of
    both graphs are summed from their curves, never read from a lift's
    closed-form table.  Returns the full list of checks; all must pass
    for a valid cover.
    """
    checks = []
    base_pairs, lifted_pairs = _pairs_from_curves(phi), _pairs_from_curves(lifted)
    for p in phi.pieces:
        (a, b), chi = _pair(base_pairs[p.id]), p.surface.chi
        for j, comp in enumerate(c.of(p.id)):
            new_id = "%s~%d" % (p.id, j)
            (la, lb), lchi = _pair(lifted_pairs[new_id]), lifted.piece(new_id).surface.chi
            checks += [
                LawCheck(new_id, "A multiplies by degree", (la, lb), (a * comp.degree, b * comp.degree)),
                LawCheck(new_id, "A / -chi unchanged", (la / -lchi, lb / -lchi), (a / -chi, b / -chi)),
            ]
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
    degree is 2L.  The choice is read from the pieces alone, by the
    genus law ``lift_cover`` applies (``surfaces.surface_with``): a
    degree-L component over S has chi = L * chi(S) and, over each slot
    facing a twist of absolute value d, L/d boundary circles, besides L
    per free circle of S.  Each curve end's d is read in the one walk
    over the curves that finds L.  The cover is then built once and
    lifted once; one of more than ``MAX_LIFTED_CURVES`` lifted curves is
    refused before it is built.
    Returns the normalized graph and the (power, cover) certificate.
    """
    validate_or_raise(phi)
    for p in phi.pieces:
        if not p.periodic:
            raise ValueError("piece %s is not periodic; normalization needs a D-type map" % p.id)

    m = math.lcm(*[c.twist.denominator for c in phi.curves])
    # each twist times m, so each pair over m: the power of a valid graph carries its tables, as a lift does
    phim = phi if m == 1 else _with_tables(power(phi, m), {pid: _scale(key, (1, m)) for pid, key in phi.pairs.items()})
    d_at = {end: abs(int(c.twist)) for c in phim.curves for end in c.ends}  # curve end -> |integer twist|
    L = math.lcm(*d_at.values())
    if any(surface_with(L * p.surface.chi, sum(L // d_at[p.id, s] for s in p.slots) + L * p.free_boundary) is None
           for p in phim.pieces):
        L *= 2  # lift_cover refuses when 2L fits no surface either
    if sum(L // d for d in d_at.values()) > 2 * MAX_LIFTED_CURVES:  # two ends per lifted curve
        raise ResourceLimit("the unit-twist cover lifts to more than %d curves" % MAX_LIFTED_CURVES)
    cover = CoveringData(tuple(
        (p.id, (ComponentCover(L, tuple((s, (d_at[p.id, s],) * (L // d_at[p.id, s])) for s in p.slots)),))
        for p in phim.pieces))
    normalized = lift_cover(phim, cover)
    assert all(abs(t) == 1 for t in _distinct_twists(normalized.curves).values())
    return normalized, NormalizationCertificate(m, cover)
