import random
import sys
from fractions import Fraction

import pytest

from fibercomm.decomposition import Piece, ReducibleMap, ReducingCurve
from fibercomm.staircase import BundlePiece, FiberedGraphManifold, Gluing, PiecePlan, RefiberPlan
from fibercomm.surfaces import Surface


@pytest.fixture
def default_digit_limit():
    """Python's default cap on the digits of an int printed as text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no cap on the digits of an int printed as text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def random_twist(rng, max_part=12):
    num = rng.randint(1, max_part) * rng.choice((1, -1))
    den = rng.randint(1, max_part)
    return Fraction(num, den)


def random_reducible_map(rng, max_pieces=4, max_curves=5, max_part=12):
    """A structurally valid random decomposition graph."""
    n_pieces = rng.randint(1, max_pieces)
    n_curves = rng.randint(1, max_curves)
    slots = [[] for _ in range(n_pieces)]
    curves = []
    for ci in range(n_curves):
        ends = []
        for side in range(2):
            pi = rng.randrange(n_pieces)
            slot = "s%d_%d" % (ci, side)
            slots[pi].append(slot)
            ends.append(("p%d" % pi, slot))
        curves.append(ReducingCurve("c%d" % ci, ends[0], ends[1], random_twist(rng, max_part)))
    pieces = []
    for pi in range(n_pieces):
        genus = rng.randint(1, 3)
        free = rng.randint(0, 2)
        if not slots[pi] and free == 0 and genus == 1:
            free = 1  # keep chi negative
        surface = Surface(genus, len(slots[pi]) + free)
        pieces.append(Piece("p%d" % pi, surface, tuple(slots[pi]), free))
    return ReducibleMap(tuple(pieces), tuple(curves))


def random_d_type_map(rng, max_pieces=4, max_curves=5, max_part=12):
    return random_reducible_map(rng, max_pieces, max_curves, max_part)


def random_normal_form_chain(rng, k):
    """A graph manifold and an admissible plan: a chain of k pieces, each
    glued at its torus "r" to the next one's "l" by a matrix of the normal
    form, planned with mixed sheet counts and arc sets (pieces without an
    arc fall apart into copies).  Each piece is drawn until it can be
    glued to the one before: a shear that carries the slopes, as many
    circles on both sides, and a nonzero shear."""

    def slope(entry, torus):  # (1, 0) off the arcs, (n, -1) at a tail, (n, 1) at a head
        tails, heads = {t for t, _ in entry.arcs}, {h for _, h in entry.arcs}
        return (entry.n, -1) if torus in tails else (entry.n, 1) if torus in heads else (1, 0)

    pieces, entries, gluings = [], [], []
    while len(pieces) < k:
        extra = ["x%d" % j for j in range(rng.randint(0, 2))]
        tori = ["l", "r"] + extra
        arcs = rng.choice([[], [("l", "r")], [("r", "l")]] + [[("l", x)] for x in extra] + [[(x, "r")] for x in extra])
        piece = BundlePiece("P%d" % len(pieces), Surface(rng.randint(0 if extra else 1, 2), len(tori)), tuple(tori))
        entry = PiecePlan(rng.randint(1, 3), tuple(arcs))
        if pieces:
            (x, y), (m, z) = slope(entries[-1], "r"), slope(entry, "l")
            # g(x, y) = (-x + sigma * y, y) must be plus or minus (m, z)
            sigma = rng.choice((-2, -1, 1, 2)) if y == z == 0 else (y * z * m + x) * y if y and z else 0
            if sigma == 0 or y == 0 and entries[-1].n != entry.n:
                continue
            gluings.append(Gluing("g%d" % len(gluings), (pieces[-1].id, "r"), (piece.id, "l"), ((-1, sigma), (0, 1))))
        pieces.append(piece)
        entries.append(entry)
    plan = RefiberPlan(tuple((p.id, e) for p, e in zip(pieces, entries)))
    return FiberedGraphManifold(tuple(pieces), tuple(gluings)), plan
