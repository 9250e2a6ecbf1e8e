"""Cost in bit length, checked on exact counts rather than times.

Each family below runs one operation on seeded inputs whose bit length
doubles from 64 to 1,024 and counts the ``sys.settrace`` line events in
frames of the library's sources.  A count does not see the bigint
arithmetic inside one line, so it bounds the Python-level steps; it is
the same on every machine, where a time is not.
"""

import random
import sys
from pathlib import Path

import fibercomm
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
# 200 there, and a loop in the value is stopped in well under a second
# rather than left to run for minutes
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


def check_growth(family, expected):
    """Count ``torus_commensurable`` on each size's pair of ``family``, and
    fail at the first doubling that multiplies the count by more than GROWTH."""
    rng = random.Random(1)
    budget, counts = FIRST_BUDGET, []
    for bits in SIZES:
        phi, psi = family(rng, bits)
        count, verdict = line_events(lambda: torus_commensurable(phi, psi), budget)
        counts.append(count)
        assert 0 < count <= budget, "%d bits: over %d line events; counts so far %s" % (bits, budget, counts)
        assert verdict.kind == expected, (bits, verdict)
        budget = GROWTH * count


def test_torus_compare_of_one_field_grows_polynomially():
    # m**2 against g m**3 g**-1: commensurable, by the Euclid on units
    check_growth(conjugate_powers, COMMENSURABLE)


def test_torus_compare_of_unrelated_maps_grows_polynomially():
    # two independent words: their discriminants' product is no square
    check_growth(lambda rng, bits: (shear_word(rng, bits), shear_word(rng, bits)), INCOMMENSURABLE)
