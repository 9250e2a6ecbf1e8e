from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fibercomm.quadratic import (
    QuadraticNumber,
    QuadraticUnit,
    fundamental_unit,
    squarefree_part,
    unit_log_ratio,
    unit_power_of,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
).filter(lambda f: f != 0)


def test_squarefree_part():
    assert squarefree_part(45) == 5
    assert squarefree_part(12) == 3
    assert squarefree_part(5) == 5
    assert squarefree_part(1) == 1
    assert squarefree_part(720) == 5


def test_squarefree_part_rejects_nonpositive():
    with pytest.raises(ValueError):
        squarefree_part(0)


@given(rationals, rationals, rationals, rationals)
def test_field_arithmetic_exact(a1, b1, a2, b2):
    x = QuadraticNumber(7, a1, b1)
    y = QuadraticNumber(7, a2, b2)
    assert (x * y) / y == x
    assert (x / y) * y == x
    assert x + y - y == x


@given(rationals, rationals)
def test_reciprocal_is_exact(a, b):
    x = QuadraticNumber(3, a, b)
    one = QuadraticNumber(3, 1, 0)
    assert x * (one / x) == one


def test_sign_never_approximates():
    # sqrt(2) is between 1.414213 and 1.414214
    lo = QuadraticNumber(2, Fraction(-1414213, 1000000), 1)
    hi = QuadraticNumber(2, Fraction(-1414214, 1000000), 1)
    assert lo.sign() == 1
    assert hi.sign() == -1
    assert QuadraticNumber(2, 0, 0).sign() == 0


def test_comparisons():
    sqrt2 = QuadraticNumber(2, 0, 1)
    assert sqrt2 > 1
    assert sqrt2 < Fraction(3, 2)
    assert abs(-sqrt2) == sqrt2


@pytest.mark.parametrize(
    "D,a,b",
    [
        (5, Fraction(1, 2), Fraction(1, 2)),
        (2, 1, 1),
        (3, 2, 1),
        (13, Fraction(3, 2), Fraction(1, 2)),
        (61, Fraction(39, 2), Fraction(5, 2)),
        (6, 5, 2),
        (7, 8, 3),
    ],
)
def test_fundamental_unit_known_values(D, a, b):
    assert fundamental_unit(D) == QuadraticUnit(D, a, b)


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 151])
def test_fundamental_unit_powers_have_unit_norm(D):
    u = fundamental_unit(D).number
    p = QuadraticNumber(D, 1, 0)
    for k in range(1, 7):
        p = p * u
        assert p.norm() in (1, -1)
        assert p.norm() == (u.norm()) ** k


def _exact_sqrt(f):
    """sqrt of a non-negative Fraction when it is rational, else None."""
    import math

    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@pytest.mark.parametrize("D", [2, 3, 5, 13, 61])
def test_fundamental_unit_is_minimal(D):
    """No smaller unit of the maximal order exceeds 1.

    Solves a^2 = D b^2 +- 1 for every admissible b below the
    fundamental unit (half-integers allowed when D = 1 mod 4) and
    checks nothing lands strictly between 1 and the fundamental unit.
    """
    u = fundamental_unit(D).number
    step = Fraction(1, 2) if D % 4 == 1 else Fraction(1)
    b = step
    while QuadraticNumber(D, 0, b) < u:
        for norm in (1, -1):
            a2 = D * b * b + norm
            if a2 < 0:
                continue
            a = _exact_sqrt(a2)
            if a is None:
                continue
            if (a - b).denominator > 1:
                continue  # not in the maximal order
            x = QuadraticNumber(D, a, b)
            if x > 1:
                assert not x < u, "unit %r below fundamental %r" % (x, u)
        b += step


def test_unit_log_ratio_examples():
    u = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    v = QuadraticUnit(5, Fraction(7, 2), Fraction(3, 2))
    assert v.number == u.number ** 2
    assert unit_log_ratio(u, v) == Fraction(1, 2)
    w = QuadraticUnit(3, 2, 1)
    assert unit_log_ratio(w, u) is None
    assert unit_log_ratio(u, u) == 1


def test_unit_log_ratio_powers_and_antisymmetry():
    for D in (2, 3, 5, 13):
        u = fundamental_unit(D) ** 2
        for k in range(1, 9):
            uk = u ** k
            assert unit_log_ratio(u, uk) == Fraction(1, k)
            assert unit_log_ratio(uk, u) == Fraction(k, 1)
    u = fundamental_unit(5) ** 2
    v = fundamental_unit(5) ** 3
    s = unit_log_ratio(u, v)
    assert s == Fraction(2, 3)
    assert unit_log_ratio(v, u) == 1 / s


def test_unit_power_of():
    eps = fundamental_unit(5).number
    assert unit_power_of(eps ** 4, eps) == 4
    assert unit_power_of(QuadraticNumber(5, 1, 0), eps) == 0
    # (3 + sqrt(5)) is not a power of eps (norm 4, not a unit)
    assert unit_power_of(QuadraticNumber(5, 3, 1), eps) is None


def test_unit_invariants_enforced():
    with pytest.raises(ValueError):
        QuadraticUnit(5, Fraction(3, 2), Fraction(-1, 2))  # b < 0
    with pytest.raises(ValueError):
        QuadraticUnit(5, 3, 1)  # norm 4
    with pytest.raises(ValueError):
        QuadraticUnit(5, Fraction(-1, 2), Fraction(1, 2))  # below 1


def test_rational_values_hash_and_compare_as_fractions():
    assert len({QuadraticNumber(5, 3, 0), QuadraticNumber(2, 3, 0), 3}) == 1
    assert QuadraticNumber(5, Fraction(1, 2), 0) == QuadraticNumber(2, Fraction(1, 2), 0)
    assert hash(QuadraticNumber(5, Fraction(1, 2), 0)) == hash(Fraction(1, 2))
    assert QuadraticNumber(5, 0, 1) != QuadraticNumber(2, 0, 1)
    assert QuadraticNumber(5, 3, 1) != QuadraticNumber(2, 3, 0)
