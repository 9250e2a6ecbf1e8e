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

The plan is admissible when, across every gluing, the matrix carries
one side's boundary class to plus or minus the other side's (and
horizontal junctions have equal sheet counts); the glued staircases
then assemble into a fiber of a new fibration whose monodromy is
periodic of order lcm(n_i) and reducible along the junction circles.

The fractional twist at a junction depends on the gluing's shear sigma,
read from the normal form g(1,0) = (-1,0), g(0,1) = (sigma, 1):

* staircase-staircase junction: -sigma / (n_A * n_B), one curve;
* horizontal-horizontal junction: -sigma / n, n parallel curves.

These two rules are calibrated against pinned targets (the pi/3
relative twist, the (3, 1) integer twists of the sixth power, and the
half-twist at the horizontal junction of the three-piece bounded
family) and reproduce the all-n=1 plan as the identity: each twist is
then -sigma, the fractional twist of the original fibration.  Gluing
matrices outside the normal form are accepted but the result is
flagged uncalibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .decomposition import Piece, ReducibleMap, ReducingCurve
from .surfaces import Surface
from .torus import _integer_matrix

TAIL = "tail"
HEAD = "head"
HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class BundlePiece:
    id: str
    surface: Surface
    boundaries: tuple  # names of the boundary tori

    def __post_init__(self):
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if len(self.boundaries) != self.surface.boundary_components:
            raise ValueError(
                "piece %s: %d torus names for %d boundary circles"
                % (self.id, len(self.boundaries), self.surface.boundary_components)
            )


@dataclass(frozen=True)
class Gluing:
    id: str
    side_a: tuple  # (piece id, boundary name)
    side_b: tuple
    matrix: tuple  # maps side-a (section, fiber) coordinates to side-b

    def __post_init__(self):
        object.__setattr__(self, "side_a", tuple(self.side_a))
        object.__setattr__(self, "side_b", tuple(self.side_b))
        object.__setattr__(self, "matrix", _integer_matrix(self.matrix, "gluing %s: matrix" % (self.id,)))


@dataclass(frozen=True)
class FiberedGraphManifold:
    pieces: tuple
    gluings: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "gluings", tuple(self.gluings))
        seen = set()
        by_id = {p.id: p for p in self.pieces}
        for g in self.gluings:
            for pid, b in (g.side_a, g.side_b):
                if pid not in by_id or b not in by_id[pid].boundaries:
                    raise ValueError("gluing %s references missing torus %s.%s" % (g.id, pid, b))
                if (pid, b) in seen:
                    raise ValueError("torus %s.%s used by two gluings" % (pid, b))
                seen.add((pid, b))

    def piece(self, pid):
        for p in self.pieces:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def free_tori(self, pid):
        glued = set()
        for g in self.gluings:
            for qid, b in (g.side_a, g.side_b):
                if qid == pid:
                    glued.add(b)
        return tuple(b for b in self.piece(pid).boundaries if b not in glued)


@dataclass(frozen=True)
class PiecePlan:
    """Sheet count and arc set for one piece.

    Arcs are ordered pairs (tail boundary, head boundary) of distinct
    boundary names; each boundary is touched by at most one arc end.
    """

    n: int
    arcs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(tuple(a) for a in self.arcs))
        if self.n < 1:
            raise ValueError("sheet count must be >= 1")
        used = []
        for tail, head in self.arcs:
            if tail == head:
                raise ValueError("arc endpoints on the same boundary %r" % (tail,))
            used.extend([tail, head])
        if len(set(used)) != len(used):
            raise ValueError("boundary used by more than one arc end")

    def role(self, boundary):
        for tail, head in self.arcs:
            if boundary == tail:
                return TAIL
            if boundary == head:
                return HEAD
        return HORIZONTAL


@dataclass(frozen=True)
class RefiberPlan:
    per_piece: tuple  # ((piece id, PiecePlan), ...)

    def __post_init__(self):
        object.__setattr__(self, "per_piece", tuple(self.per_piece))
        # reversed, so the first entry of a repeated piece wins
        object.__setattr__(self, "_by_piece", dict(reversed(self.per_piece)))

    def of(self, pid):
        return self._by_piece[pid]


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
    lifts: tuple        # ((boundary name, BoundaryLift), ...)

    def lift(self, boundary):
        for b, l in self.lifts:
            if b == boundary:
                return l
        raise KeyError(boundary)


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
    for tail, head in plan.arcs:
        for b in (tail, head):
            if b not in boundaries:
                raise ValueError("arc endpoint %r is not a boundary circle" % (b,))
    n = plan.n
    k = len(plan.arcs)
    g = surface.genus

    lifts = []
    for b in boundaries:
        role = plan.role(b)
        if role == TAIL:
            lifts.append((b, BoundaryLift(TAIL, 1, (n, -1), Fraction(-1, n))))
        elif role == HEAD:
            lifts.append((b, BoundaryLift(HEAD, 1, (n, 1), Fraction(1, n))))
        else:
            lifts.append((b, BoundaryLift(HORIZONTAL, n, (1, 0), Fraction(1, n))))

    if k == 0:
        return StaircasePieceResult(n, surface, tuple(lifts))
    genus = 1 - k + n * (k - 1 + g)
    boundary = n * (surface.boundary_components - 2 * k) + 2 * k
    covered = Surface(genus, boundary)
    assert covered.chi == n * surface.chi
    return StaircasePieceResult(1, covered, tuple(lifts))


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _proportional_up_to_sign(u, v):
    return u == v or u == (-v[0], -v[1])


def _shear(matrix):
    """(sigma, calibrated) from the gluing matrix.

    The calibrated normal form is g(1,0) = (-1,0), g(0,1) = (sigma, 1);
    other matrices fall back to the upper-right entry with the
    uncalibrated flag set.
    """
    calibrated = (
        matrix[1][0] == 0 and matrix[0][0] == -1 and matrix[1][1] == 1
    )
    return matrix[0][1], calibrated


def validate_plan(manifold, plan):
    """Slope compatibility across every gluing; list of errors (empty = ok)."""
    errors = []
    results = {}
    for p in manifold.pieces:
        try:
            results[p.id] = staircase_piece(p.surface, plan.of(p.id), p.boundaries)
        except (ValueError, KeyError) as e:
            errors.append("piece %s: %s" % (p.id, e))
    if errors:
        return errors
    for g in manifold.gluings:
        la = results[g.side_a[0]].lift(g.side_a[1])
        lb = results[g.side_b[0]].lift(g.side_b[1])
        image = _apply(g.matrix, la.slope)
        if not _proportional_up_to_sign(image, lb.slope):
            errors.append(
                "gluing %s: image %r of slope %r does not match %r"
                % (g.id, image, la.slope, lb.slope)
            )
        elif la.role == HORIZONTAL and lb.role == HORIZONTAL:
            if plan.of(g.side_a[0]).n != plan.of(g.side_b[0]).n:
                errors.append(
                    "gluing %s: horizontal junction with unequal sheet counts" % g.id
                )
    return errors


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
    """
    errors = validate_plan(manifold, plan)
    if errors:
        raise ValueError("inadmissible plan: " + "; ".join(errors))

    results = {p.id: staircase_piece(p.surface, plan.of(p.id), p.boundaries) for p in manifold.pieces}

    # graph pieces: one per staircase copy
    pieces = []
    slot_map = {}  # (piece id, boundary, copy index) -> (graph piece id, slot)
    for p in manifold.pieces:
        res = results[p.id]
        free = set(manifold.free_tori(p.id))
        for copy in range(res.copies):
            gid = p.id if res.copies == 1 else "%s~%d" % (p.id, copy)
            slots = []
            free_count = 0
            for b in p.boundaries:
                lift = res.lift(b)
                circles = lift.count if res.copies == 1 else 1
                for i in range(circles):
                    if b in free:
                        free_count += 1
                    else:
                        slot = b if circles == 1 else "%s~%d" % (b, i)
                        slots.append(slot)
                        index = copy if res.copies > 1 else i
                        slot_map[(p.id, b, index)] = (gid, slot)
            pieces.append(Piece(gid, res.surface, tuple(slots), free_count))

    curves = []
    uncalibrated = []
    for g in manifold.gluings:
        sigma, calibrated = _shear(g.matrix)
        if not calibrated:
            uncalibrated.append(g.id)
        la = results[g.side_a[0]].lift(g.side_a[1])
        lb = results[g.side_b[0]].lift(g.side_b[1])
        na = plan.of(g.side_a[0]).n
        nb = plan.of(g.side_b[0]).n
        if la.role == HORIZONTAL:
            twist = Fraction(-sigma, na)  # equal sheet counts by validation
            count = na
        else:
            twist = Fraction(-sigma, na * nb)
            count = 1
        if twist == 0:
            raise ValueError("gluing %s produces a trivially twisted junction" % g.id)
        for i in range(count):
            end_a = slot_map[(g.side_a[0], g.side_a[1], i)]
            end_b = slot_map[(g.side_b[0], g.side_b[1], i)]
            cid = g.id if count == 1 else "%s~%d" % (g.id, i)
            curves.append(ReducingCurve(cid, end_a, end_b, twist))

    phi = ReducibleMap(tuple(pieces), tuple(curves))
    N = math.lcm(*[plan.of(p.id).n for p in manifold.pieces])

    # fiber connectivity via union-find on the junction graph
    parent = {p.id: p.id for p in pieces}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in curves:
        parent[find(c.end_a[0])] = find(c.end_b[0])
    connected = len({find(p.id) for p in pieces}) == 1

    fiber = None
    if connected:
        chi = sum(p.surface.chi for p in pieces)
        boundary = sum(p.free_boundary for p in pieces)
        fiber = Surface((2 - chi - boundary) // 2, boundary)
    return RefiberResult(fiber, connected, N, phi, tuple(uncalibrated))
