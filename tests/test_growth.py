"""Cost in bit length, checked on exact counts rather than times.

Each family below runs one operation on seeded inputs whose bit length
doubles from 64 to 1,024 and counts the ``sys.settrace`` line events in
frames of the library's sources.  A count does not see the bigint
arithmetic inside one line, so it bounds the Python-level steps; it is
the same on every machine, where a time is not.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import fibercomm
from conftest import random_reducible_map
from fibercomm.comparator import FULL, NOT_OBSTRUCTED, compare
from fibercomm.decomposition import ReducibleMap, power
from fibercomm.torus import COMMENSURABLE, INCOMMENSURABLE, torus_commensurable
from test_torus import conjugate_powers, shear_word

# the directory of the library's sources, as its code objects name their files
SRC = str(Path(fibercomm.__file__).parent)
SIZES = (64, 128, 256, 512, 1024)
# A cost polynomial of degree at most 3 in the bit length multiplies its
# steps by at most 2**3 = 8 when the bit length doubles.  A loop that runs
# in the value of a number (trial division up to a cube root, say)
# multiplies them by far more.
GROWTH = 8
# the line events allowed at the smallest size: torus compare takes under
# 200 there and graph compare under 1,000, and a loop in the value is
# stopped in well under a second rather than left to run for minutes
FIRST_BUDGET = 100_000


class _OverBudget(Exception):
    pass


def line_events(call, budget):
    """The line events in library frames while ``call()`` runs, stopped at
    ``budget`` + 1; with the result of the call, or None when stopped."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > budget:
                raise _OverBudget
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call()
    except _OverBudget:
        result = None
    finally:
        sys.settrace(previous)
    return count, result


def check_growth(family, call, expected):
    """Count ``call`` on each size's arguments from ``family``, and fail at
    the first doubling that multiplies the count by more than GROWTH."""
    rng = random.Random(1)
    budget, counts = FIRST_BUDGET, []
    for bits in SIZES:
        args = family(rng, bits)
        count, verdict = line_events(lambda: call(*args), budget)
        counts.append(count)
        assert 0 < count <= budget, "%d bits: over %d line events; counts so far %s" % (bits, budget, counts)
        assert verdict.kind == expected, (bits, verdict)
        budget = GROWTH * count


def test_torus_compare_of_one_field_grows_polynomially():
    # m**2 against g m**3 g**-1: commensurable, by the Euclid on units
    check_growth(conjugate_powers, torus_commensurable, COMMENSURABLE)


def test_torus_compare_of_unrelated_maps_grows_polynomially():
    # two independent words: their discriminants' product is no square
    check_growth(lambda rng, bits: (shear_word(rng, bits), shear_word(rng, bits)), torus_commensurable, INCOMMENSURABLE)


def odd(rng, bits):
    """A random odd integer of exactly ``bits`` bits."""
    return rng.getrandbits(bits) | 1 << bits - 1 | 1


def long_twists(rng, bits):
    """One small graph with every twist +-(odd b-bit) / (odd b-bit)."""
    phi = random_reducible_map(random.Random(1), max_part=6)
    curves = [c._replace(twist=Fraction(rng.choice((1, -1)) * odd(rng, bits), odd(rng, bits))) for c in phi.curves]
    return (ReducibleMap(phi.pieces, tuple(curves)),)


def test_graph_compare_with_a_power_grows_polynomially():
    # phi against phi**3: the invariant kernel's sums, normalizations and scale test
    check_growth(long_twists, lambda phi: compare(phi, power(phi, 3), FULL), NOT_OBSTRUCTED)
