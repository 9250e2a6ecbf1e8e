import re

import pytest

from fibercomm.surfaces import Surface, surface_with
from oracles import euler_characteristic, surfaces_commensurable


def test_euler_characteristic():
    assert euler_characteristic(Surface(1, 3)) == -3
    assert euler_characteristic(Surface(0, 0)) == 2
    for k in range(5):
        assert euler_characteristic(Surface(k, 1)) == 1 - 2 * k
    for s in (Surface(1, 3), Surface(0, 0), Surface(4, 1)):
        assert s.chi == euler_characteristic(s)


def test_commensurable_examples():
    assert surfaces_commensurable(Surface(2, 0), Surface(3, 0))
    assert not surfaces_commensurable(Surface(2, 0), Surface(2, 1))
    assert surfaces_commensurable(Surface(1, 1), Surface(3, 4))


def test_rejects_nonnegative_chi():
    with pytest.raises(ValueError):
        surfaces_commensurable(Surface(1, 0), Surface(2, 0))
    with pytest.raises(ValueError):
        surfaces_commensurable(Surface(2, 0), Surface(0, 2))


def test_rejects_negative_data():
    with pytest.raises(ValueError):
        Surface(-1, 0)
    with pytest.raises(ValueError):
        Surface(0, -2)


def test_equivalence_relation():
    hyperbolic = [
        Surface(g, n)
        for g in range(6)
        for n in range(6)
        if 2 - 2 * g - n < 0
    ]
    for s in hyperbolic:
        assert surfaces_commensurable(s, s)
    for s1 in hyperbolic:
        for s2 in hyperbolic:
            assert surfaces_commensurable(s1, s2) == surfaces_commensurable(s2, s1)
    for s1 in hyperbolic:
        for s2 in hyperbolic:
            for s3 in hyperbolic:
                if surfaces_commensurable(s1, s2) and surfaces_commensurable(s2, s3):
                    assert surfaces_commensurable(s1, s3)


@pytest.mark.parametrize("field", ["genus", "boundary_components"])
def test_counts_are_ints(field):
    """A count that is not an int is refused, a bool included, rather than
    stored as its value, and so is a negative int, each naming its field."""
    assert Surface(genus=2, boundary_components=1).chi == -3
    for bad in (1.5, True, "1", -1):
        with pytest.raises(ValueError, match="^%s must be an integer >= 0, got %s$" % (field, re.escape(repr(bad)))):
            Surface(**{"genus": 2, "boundary_components": 1, field: bad})


@pytest.mark.parametrize("chi, boundary, surface", [
    (2, 0, Surface(0, 0)), (0, 0, Surface(1, 0)), (-2, 0, Surface(2, 0)), (-10, 0, Surface(6, 0)),
    (1, 1, Surface(0, 1)), (-1, 1, Surface(1, 1)), (-3, 3, Surface(1, 3)), (-4, 2, Surface(2, 2)),
    (4, 0, None), (1, 3, None), (0, 4, None),  # negative genus
    (-1, 0, None), (-2, 1, None), (3, 0, None),  # half-integer genus
])
def test_genus_law(chi, boundary, surface):
    """The surface of Euler characteristic chi with that many boundary
    circles, closed or bordered, or None when no genus >= 0 fits."""
    assert surface_with(chi, boundary) == surface
    if surface is not None:
        assert surface.chi == chi and surface.boundary_components == boundary
