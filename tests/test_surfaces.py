import pytest

from fibercomm.surfaces import Surface
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
