import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import fundamental_unit, unit_power_of
from fibercomm import quadratic
from fibercomm.quadratic import (
    QuadraticNumber,
    QuadraticUnit,
    squarefree_part,
    unit_log_ratio,
)
from fibercomm.torus import ANOSOV, TorusAutomorphism, classify_torus

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


def trial_division_squarefree_part(n):
    """Oracle: divide by every candidate p with p * p <= n."""
    d, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        d *= p ** (e % 2)
        p += 1
    return d * n


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def test_squarefree_part_matches_trial_division():
    for n in range(1, 20001):
        assert squarefree_part(n) == trial_division_squarefree_part(n), n
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 10 ** 12)
        assert squarefree_part(n) == trial_division_squarefree_part(n), n
    # a square of a large prime is left over after the cube-root bound
    for lo in (10 ** 4, 10 ** 5, 10 ** 6):
        q = next(q for q in range(rng.randint(lo, 2 * lo), 4 * lo) if _is_prime(q))
        for r in (1, 2, 6, 7, rng.randint(2, 999), q):
            assert squarefree_part(q * q * r) == trial_division_squarefree_part(r), (q, r)


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


def oracle_log_ratio(u, v):
    """log(u) / log(v) from the fundamental unit, by repeated division."""
    if u.D != v.D:
        return None
    if u == v:
        return Fraction(1)
    eps = fundamental_unit(u.D).number
    ku, kv = unit_power_of(u.number, eps), unit_power_of(v.number, eps)
    return None if ku is None or kv is None else Fraction(ku, kv)


def _random_anosov_dilatations(rng, count, bound=5):
    found = []
    while len(found) < count:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1):
            nt = classify_torus(TorusAutomorphism(m))
            if nt.kind == ANOSOV:
                found.append(nt.dilatation)
    return found


def test_unit_log_ratio_matches_fundamental_unit_oracle():
    rng = random.Random(5)
    units = _random_anosov_dilatations(rng, 60)
    assert len({u.D for u in units}) > 5
    pairs = [(u, v) for u in units for v in units]
    # powers of units of one field, against each other and the base units
    for u in units[:15]:
        j, k = rng.randint(1, 12), rng.randint(1, 12)
        pairs += [(u ** j, u ** k), (u ** k, u), (u, u ** j)]
    same_field = 0
    for u, v in pairs:
        expected = oracle_log_ratio(u, v)
        assert unit_log_ratio(u, v) == expected, (u, v)
        same_field += expected is not None
    assert 0 < same_field < len(pairs)
    for D in (2, 3, 5, 6, 13, 61, 94):
        eps = fundamental_unit(D)
        for j in range(1, 14):
            for k in range(1, 14):
                assert unit_log_ratio(eps ** j, eps ** k) == Fraction(j, k) == oracle_log_ratio(eps ** j, eps ** k)


def test_unit_log_ratio_non_integral_argument():
    x = QuadraticUnit(2, Fraction(11, 7), Fraction(6, 7))  # norm 1, not an algebraic integer
    y = QuadraticUnit(2, 1, 1)
    assert unit_log_ratio(x, y) is None and unit_log_ratio(y, x) is None
    assert oracle_log_ratio(x, y) is None and oracle_log_ratio(y, x) is None
    assert unit_log_ratio(x, x) == 1


@pytest.mark.parametrize("D", [5, 94])
def test_unit_log_ratio_large_exponents(D):
    eps = fundamental_unit(D)
    u, v = eps ** 1000, eps ** 999
    start = time.perf_counter()
    assert unit_log_ratio(u, v) == Fraction(1000, 999)
    assert unit_log_ratio(v, u ** 3) == Fraction(999, 3000)
    assert time.perf_counter() - start < 0.5


def test_field_is_checked_where_values_enter():
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticNumber(12, 1, 1)
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticUnit(4, Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticNumber(5.0, 1, 1)
    with pytest.raises(ValueError, match="mixed fields"):
        QuadraticNumber(2, 1, 1) + QuadraticNumber(3, 1, 1)
    with pytest.raises(ValueError, match="mixed fields"):
        QuadraticNumber(2, 1, 1) * QuadraticNumber(3, 1, 1)


def test_internal_results_skip_the_field_check(monkeypatch):
    calls = []
    real = quadratic.squarefree_part
    monkeypatch.setattr(quadratic, "squarefree_part", lambda n: calls.append(n) or real(n))
    u = QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    assert calls == [5]
    del calls[:]
    u50 = u ** 50
    assert calls == []
    assert u50.number.norm() == 1 and unit_log_ratio(u50, u) == 50
    assert calls == []


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
