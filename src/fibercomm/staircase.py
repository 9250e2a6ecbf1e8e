r"""Staircase surfaces and refibration of fibered graph manifolds.

A fibered graph manifold here is a union of products S_i x S^1 glued
along boundary tori by integer matrices, written in the coordinate
frame (section class, fiber class) of each torus.  A refibration plan
chooses, for each piece, a sheet count n and a set of disjoint oriented
arcs between distinct boundary circles; the corresponding staircase
surface F(alpha, n) is the degree-n cyclic cover of the piece assembled
from n shifted fiber copies joined along the arcs:

* a boundary circle not touched by an arc lifts to n horizontal copies
  of slope (1, 0);
* the tail circle of an arc lifts to a single connected circle of
  slope (n, -1), the head circle to one of slope (n, +1).

The plan is admissible when every piece has an entry whose arcs end on
its boundary and, across every gluing, the matrix carries one side's
boundary class to plus or minus the other side's and both sides lift to
equally many circles; the glued staircases then assemble into a fiber
of a new fibration whose monodromy is periodic of order lcm(n_i) and
reducible along the junction circles.  ``refiber`` is the plan check:
one walk over the pieces builds one staircase per piece shape, and the
walk over the gluings that builds the junction curves checks each
junction.  A plan is refused for, in this order, a graph past the size
limit, every faulty piece, every faulty junction, or else the first
junction of shear 0.

The fractional twist at a junction depends on the gluing's shear sigma,
read from the normal form g(1,0) = (-1,0), g(0,1) = (sigma, 1):

* staircase-staircase junction: -sigma / (n_A * n_B), one curve;
* horizontal-horizontal junction: -sigma / n, n parallel curves.

These two rules are calibrated against pinned targets (the pi/3
relative twist, the (3, 1) integer twists of the sixth power, and the
half-twist at the horizontal junction of the three-piece bounded
family) and reproduce the all-n=1 plan as the identity: each twist is
then -sigma, the fractional twist of the original fibration.  Gluing
matrices outside the normal form are accepted, with sigma read as the
upper-right entry, but the result is flagged uncalibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat

from .decomposition import Piece, ReducibleMap, _curves
from .quadratic import ResourceLimit, _gc_paused, _integer, _repeated
from .surfaces import Surface, surface_with
from .torus import _integer_matrix

TAIL = "tail"
HEAD = "head"
HORIZONTAL = "horizontal"

# pieces plus boundary circles of a refibered graph; at this size, on a 2-CPU
# VM, ``fibercomm staircase --format machine`` takes about 1 s on the bounded
# chain (n = 83,331) and 4 s on a chain of 83,333 pieces, output written
MAX_STAIRCASE_SIZE = 250_000


@dataclass(frozen=True)
class BundlePiece:
    id: str
    surface: Surface
    boundaries: tuple  # names of the boundary tori

    def __post_init__(self):
        if len(self.boundaries) != self.surface.boundary_components:
            raise ValueError(
                "piece %s: %d torus names for %d boundary circles"
                % (self.id, len(self.boundaries), self.surface.boundary_components)
            )
        if repeated := _repeated(self.boundaries):
            raise ValueError("piece %s: repeated torus names %s" % (self.id, ", ".join(repeated)))


@dataclass(frozen=True)
class Gluing:
    id: str
    side_a: tuple  # (piece id, boundary name)
    side_b: tuple
    matrix: tuple  # maps side-a (section, fiber) coordinates to side-b

    def __post_init__(self):
        object.__setattr__(self, "matrix", _integer_matrix(self.matrix, "gluing %s: matrix", (self.id,)))


@dataclass(frozen=True)
class FiberedGraphManifold:
    pieces: tuple
    gluings: tuple

    def __post_init__(self):
        for kind, ids in (("piece", [p.id for p in self.pieces]), ("gluing", [g.id for g in self.gluings])):
            if repeated := _repeated(ids):
                raise ValueError("repeated %s ids %s" % (kind, ", ".join(repeated)))
        tori = {(p.id, b) for p in self.pieces for b in p.boundaries}
        glued = set()  # kept: the (piece id, torus) of every glued torus
        for g in self.gluings:
            for torus in (g.side_a, g.side_b):
                if torus not in tori:
                    raise ValueError("gluing %s references missing torus %s.%s" % (g.id, *torus))
                if torus in glued:
                    if g.side_a == g.side_b:
                        raise ValueError("gluing %s glues torus %s.%s to itself" % (g.id, *torus))
                    raise ValueError("torus %s.%s used by two gluings" % torus)
                glued.add(torus)
        object.__setattr__(self, "_glued", glued)


@dataclass(frozen=True)
class PiecePlan:
    """Sheet count and arc set for one piece.

    Arcs are ordered pairs (tail boundary, head boundary) of distinct
    boundary names; each boundary is touched by at most one arc end.
    """

    n: int
    arcs: tuple = ()

    def __post_init__(self):
        _integer(self.n, "n", 1)
        for tail, head in self.arcs:
            if tail == head:
                raise ValueError("arc endpoints on the same boundary %r" % (tail,))
        if repeated := _repeated([b for arc in self.arcs for b in arc]):
            raise ValueError("boundary %r used by more than one arc end" % (repeated[0],))


@dataclass(frozen=True)
class RefiberPlan:
    per_piece: tuple  # ((piece id, PiecePlan), ...)

    @cached_property
    def _by_piece(self):  # reversed, so the first entry of a repeated piece wins
        return dict(reversed(self.per_piece))

    def of(self, pid):
        """The first entry for piece ``pid``, or None."""
        return self._by_piece.get(pid)


@dataclass(frozen=True)
class BoundaryLift:
    """How one boundary circle lifts to the staircase surface."""

    role: str       # TAIL / HEAD / HORIZONTAL
    count: int      # preimage circles
    slope: tuple    # class in the (section, fiber) frame of the torus
    rate: Fraction  # rotation per application of the piece's return map


@dataclass(frozen=True)
class StaircasePieceResult:
    copies: int         # > 1 only for the empty arc set
    surface: Surface    # each copy
    lifts: dict         # boundary name -> BoundaryLift, in boundary order


def staircase_piece(surface, plan, boundaries=None):
    """The staircase cover F(alpha, n) of one piece.

    With k arcs and n sheets the cover is connected of genus
    1 - k + n(k - 1 + g) with n(#boundary - 2k) + 2k boundary circles;
    with no arcs it is n disjoint copies.  Boundary behavior: tails get
    slope (n, -1) and rotation rate -1/n, heads slope (n, +1) and rate
    +1/n, untouched circles n horizontal copies cyclically shifted.
    """
    if boundaries is None:
        boundaries = tuple("b%d" % i for i in range(surface.boundary_components))
    n, k = plan.n, len(plan.arcs)

    lifts = dict.fromkeys(boundaries, BoundaryLift(HORIZONTAL, n, (1, 0), Fraction(1, n)))
    for tail, head in plan.arcs:
        for b in (tail, head):
            if b not in lifts:
                raise ValueError("arc endpoint %r is not a boundary circle" % (b,))
        lifts[tail] = BoundaryLift(TAIL, 1, (n, -1), Fraction(-1, n))
        lifts[head] = BoundaryLift(HEAD, 1, (n, 1), Fraction(1, n))

    if k == 0:
        return StaircasePieceResult(n, surface, lifts)
    boundary = n * (surface.boundary_components - 2 * k) + 2 * k
    return StaircasePieceResult(1, surface_with(n * surface.chi, boundary), lifts)


@dataclass(frozen=True)
class RefiberResult:
    fiber: Surface          # None when disconnected
    connected: bool
    monodromy_order: int
    map: ReducibleMap
    uncalibrated: tuple     # gluing ids outside the calibrated normal form


def refiber(manifold, plan):
    """Assemble the staircase pieces into a new decomposition graph.

    The new fiber is the union of the F(alpha_i, n_i); the monodromy is
    periodic of order N = lcm(n_i) over the manifold's pieces, each
    planned by its first entry, and reducible along the junction circles,
    whose fractional twists follow the calibrated shear rules.  A
    disconnected fiber (by the junction graph) is reported, not rejected.
    The cost is linear in the size of the manifold and of the graph.

    This is the plan check too.  One walk over the pieces reads each
    plan entry once and builds one staircase per piece shape (surface,
    sheet count, arcs and boundary names); a second lays out the graph
    pieces, equal slots tuples shared, as by the copies of a piece that
    falls apart; one walk over the gluings checks each junction where it
    builds the junction's curves.  Unlike a lift's, the graph's names may
    collide (copy ``A~0`` of ``A`` and a piece named ``A~0``), so it is
    validated where it is read.  Refused, in this order:

    1. a graph of more than ``MAX_STAIRCASE_SIZE`` pieces and boundary
       circles, counted from the staircases that exist, with
       ``ResourceLimit``;
    2. every piece without an entry or with an arc end off its
       boundary, in piece order, in one message;
    3. every junction whose side-a slope the matrix does not carry to
       plus or minus the side-b slope, or whose sides lift to unequally
       many circles, in gluing order, in one message;
    4. the first gluing of shear 0, whose junction is trivially twisted.
    """
    with _gc_paused():
        sheets, shapes, staircases, errors = {}, {}, {}, []
        for p in manifold.pieces:
            entry = plan.of(p.id)
            if entry is None:
                errors.append("piece %s: no plan entry" % p.id)
                continue
            sheets[p.id] = entry.n
            # one staircase, or one fault, per shape; keyed on tuples, as the constructors take lists too
            shape = p.surface, entry.n, tuple(map(tuple, entry.arcs)), tuple(p.boundaries)
            if shape not in shapes:
                try:
                    shapes[shape] = staircase_piece(p.surface, entry, p.boundaries)
                except ValueError as e:
                    shapes[shape] = e
            if isinstance(shapes[shape], ValueError):
                errors.append("piece %s: %s" % (p.id, shapes[shape]))
            else:
                staircases[p.id] = shapes[shape]
        if sum(s.copies * (1 + s.surface.boundary_components) for s in staircases.values()) > MAX_STAIRCASE_SIZE:
            raise ResourceLimit("the refibered graph has more than %d pieces and boundary circles" % MAX_STAIRCASE_SIZE)
        if errors:
            raise ValueError("inadmissible plan: " + "; ".join(errors))

        # graph pieces: one per staircase copy, equal slots tuples shared; circle i
        # of a torus of a piece that falls apart lies on copy i, and a torus that
        # lifts to several circles of one piece gives slots "torus~i"
        pieces, ends, shared = [], {}, {}  # ends: glued torus -> (graph piece id, slot) of each circle
        for p in manifold.pieces:
            s = staircases[p.id]
            gids = [p.id] if s.copies == 1 else ["%s~%d" % (p.id, copy) for copy in range(s.copies)]
            slots = []
            for b, lift in s.lifts.items():
                if (p.id, b) in manifold._glued:
                    names = [b] if s.copies > 1 or lift.count == 1 else ["%s~%d" % (b, i) for i in range(lift.count)]
                    ends[p.id, b] = list(zip(gids, repeat(b)) if s.copies > 1 else zip(repeat(p.id), names))
                    slots += names
            slots = shared.setdefault(tuple(slots), tuple(slots))
            pieces += [Piece(gid, s.surface, slots, s.surface.boundary_components - len(slots)) for gid in gids]

        # the curves' fields, built in one C-level pass; one shared twist Fraction per (-sigma, sheets)
        ids, ends_a, ends_b, twists, uncalibrated, trivial, by_shear = [], [], [], [], [], [], {}
        for g in manifold.gluings:
            la, lb = staircases[g.side_a[0]].lifts[g.side_a[1]], staircases[g.side_b[0]].lifts[g.side_b[1]]
            ((a, sigma), (c, d)), (x, y) = g.matrix, la.slope
            image = (a * x + sigma * y, c * x + d * y)
            if image != lb.slope and image != (-lb.slope[0], -lb.slope[1]):  # carried up to sign
                errors.append("gluing %s: image %r of slope %r does not match %r" % (g.id, image, la.slope, lb.slope))
            elif la.count != lb.count:
                errors.append("gluing %s: unequal sheet counts (%d and %d circles)" % (g.id, la.count, lb.count))
            elif sigma == 0:
                trivial.append(g.id)
            else:
                if (a, c, d) != (-1, 0, 1):  # outside the normal form
                    uncalibrated.append(g.id)
                key = -sigma, sheets[g.side_a[0]] * (1 if la.role == HORIZONTAL else sheets[g.side_b[0]])
                if key not in by_shear:
                    by_shear[key] = Fraction(*key)
                ids += [g.id] if la.count == 1 else ["%s~%d" % (g.id, i) for i in range(la.count)]
                ends_a += ends[g.side_a]  # as many circles as ends[g.side_b], checked above
                ends_b += ends[g.side_b]
                twists += [by_shear[key]] * la.count
        if errors:
            raise ValueError("inadmissible plan: " + "; ".join(errors))
        if trivial:
            raise ValueError("gluing %s produces a trivially twisted junction" % trivial[0])
        phi = ReducibleMap(tuple(pieces), tuple(_curves(zip(ids, ends_a, ends_b, twists))))
    N = math.lcm(*sheets.values())

    # fiber connectivity via union-find on the junction graph
    parent = {p.id: p.id for p in pieces}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, _), (b, _) in zip(ends_a, ends_b):
        parent[find(a)] = find(b)
    connected = len({find(p.id) for p in pieces}) == 1

    boundary = sum(p.free_boundary for p in pieces)
    fiber = surface_with(phi.chi, boundary) if connected else None
    return RefiberResult(fiber, connected, N, phi, tuple(uncalibrated))
