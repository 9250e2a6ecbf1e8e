import random
import sys
from fractions import Fraction

import pytest

from fibercomm.decomposition import Piece, ReducibleMap, ReducingCurve
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
