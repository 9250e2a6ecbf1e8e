import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

import sympy

from oracles import generate_same_cyclic_group, matrix_power, minimal_representatives, torus_commensurable_by_units
from fibercomm import quadratic, torus
from fibercomm.quadratic import QuadraticNumber, QuadraticUnit
from fibercomm.spectrum import BranchData, SpectrumQuery, spectrum_values
from fibercomm.staircase import Gluing
from fibercomm.torus import (
    ANOSOV,
    COMMENSURABLE,
    INCOMMENSURABLE,
    PERIODIC,
    REDUCIBLE,
    SAME_CLASS_TRIVIAL,
    TorusAutomorphism,
    TorusVerdict,
    classify_torus,
    torus_commensurable,
)


def test_classification_examples():
    c = classify_torus(TorusAutomorphism(((0, -1), (1, 0))))
    assert c.kind == PERIODIC and c.period == 4
    c = classify_torus(TorusAutomorphism(((0, -1), (1, 1))))
    assert c.kind == PERIODIC and c.period == 6
    assert classify_torus(TorusAutomorphism(((1, 1), (0, 1)))).kind == REDUCIBLE
    assert classify_torus(TorusAutomorphism(((-1, 1), (0, -1)))).kind == REDUCIBLE
    c = classify_torus(TorusAutomorphism(((2, 1), (1, 1))))
    assert c.kind == ANOSOV
    assert c.dilatation == QuadraticUnit(5, Fraction(3, 2), Fraction(1, 2))
    # every small matrix: periodic exactly when a power up to 12 is I, of the least such order
    periodic = 0
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        if a * d - b * c in (1, -1):
            m = ((a, b), (c, d))
            order = next((k for k in range(1, 13) if matrix_power(m, k) == ((1, 0), (0, 1))), None)
            nt = classify_torus(TorusAutomorphism(m))
            assert ((nt.kind == PERIODIC) == (order is not None)) and nt.period == order, m
            periodic += order is not None
    assert periodic == 88


def test_orientation_reversing_classification():
    # determinant -1: trace 0 is an involution, otherwise off the circle
    c = classify_torus(TorusAutomorphism(((1, 0), (0, -1))))
    assert c.kind == PERIODIC and c.period == 2
    c = classify_torus(TorusAutomorphism(((1, 1), (1, 0))))
    assert c.kind == ANOSOV
    assert c.dilatation == QuadraticUnit(5, Fraction(1, 2), Fraction(1, 2))


def test_rejects_bad_determinant():
    with pytest.raises(ValueError):
        TorusAutomorphism(((2, 0), (0, 1)))


def test_every_gated_type_names_its_matrix():
    # the four types whose matrix passes the GL(2, Z) gate, each with its own name for it
    gated = (("matrix", TorusAutomorphism),
             ("matrix", lambda m: SpectrumQuery(m, (0, 0), (Fraction(1, 2), 0), 3)),
             ("branch data matrix", lambda m: BranchData(1, (), m)),
             ("gluing g: matrix", lambda m: Gluing("g", ("A", "t"), ("B", "t"), m)))
    for name, make in gated:
        for matrix, message in (([1, 2], "must be 2x2, got [1, 2]"),
                                (5, "must be 2x2, got 5"),
                                ([[1, 2], 3], "must be 2x2, got [[1, 2], 3]"),
                                ([[1, 2], [3, 4, 5]], "must be 2x2, got [[1, 2], [3, 4, 5]]"),
                                ([[1.0, 0], [0, 1]], "entries must be integers, got 1.0"),
                                ([[2, 0], [0, 1]], "must have determinant +-1, got 2")):
            with pytest.raises(ValueError, match="^%s$" % re.escape("%s %s" % (name, message))):
                make(matrix)


def _random_glz(rng):
    while True:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1):
            return m


def test_conjugation_invariance():
    rng = random.Random(7)
    samples = [
        TorusAutomorphism(((0, -1), (1, 1))),
        TorusAutomorphism(((1, 1), (0, 1))),
        TorusAutomorphism(((2, 1), (1, 1))),
        TorusAutomorphism(((1, 1), (1, 0))),
    ]
    for _ in range(200):
        g = TorusAutomorphism(_random_glz(rng))
        ginv_m = _invert(g.matrix)
        for phi in samples:
            conj = g * phi * TorusAutomorphism(ginv_m)
            assert classify_torus(conj).kind == classify_torus(phi).kind
            if classify_torus(phi).kind == ANOSOV:
                assert classify_torus(conj).dilatation == classify_torus(phi).dilatation


def _invert(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return ((m[1][1] * det, -m[0][1] * det), (-m[1][0] * det, m[0][0] * det))


def test_dilatation_power_law():
    phi = TorusAutomorphism(((2, 1), (1, 1)))
    lam = classify_torus(phi).dilatation
    for k in range(1, 6):
        assert classify_torus(phi ** k).dilatation == lam ** k


def test_power_matches_repeated_products():
    # one matrix of each class, of determinant 1 and -1
    for m in (((2, 1), (1, 1)), ((0, 1), (1, 1)), ((0, -1), (1, 0)), ((0, -1), (1, 1)),
              ((1, 1), (0, 1)), ((-1, 1), (0, -1)), ((0, 1), (1, 0)), ((5, 7), (2, 3))):
        for k in list(range(130)) + [1000, 2021]:
            assert (TorusAutomorphism(m) ** k).matrix == matrix_power(m, k), (m, k)
    # cat**k is ((F(2k+1), F(2k)), (F(2k), F(2k-1))), F the Fibonacci numbers
    cat = TorusAutomorphism(((2, 1), (1, 1)))
    for k in (10 ** 4, 10 ** 5):
        start = time.perf_counter()
        power = cat ** k
        assert time.perf_counter() - start < 1.0
        f = [int(sympy.fibonacci(n)) for n in (2 * k + 1, 2 * k, 2 * k - 1)]
        assert power.matrix == ((f[0], f[1]), (f[1], f[2]))
    assert (cat ** 10 ** 4).matrix == matrix_power(cat.matrix, 10 ** 4)
    with pytest.raises(ValueError, match="^exponent must be an integer >= 0, got -1$"):
        cat ** -1


def test_large_cat_power_classifies_quickly():
    # cat**k has trace L_2k; its stretch factor is (L_2k + F_2k sqrt 5) / 2
    lucas, fib = [2, 1], [0, 1]
    while len(fib) <= 50:
        lucas.append(lucas[-1] + lucas[-2])
        fib.append(fib[-1] + fib[-2])
    phi = TorusAutomorphism(((2, 1), (1, 1))) ** 25
    start = time.perf_counter()
    c = classify_torus(phi)
    assert time.perf_counter() - start < 2.0
    assert c.kind == ANOSOV
    assert c.dilatation == QuadraticUnit(5, Fraction(lucas[50], 2), Fraction(fib[50], 2))


def shear_word(rng, bits):
    """A random product of the shears ((1, k), (0, 1)) and ((1, 0), (k, 1)),
    1 <= k <= 3, taken in turn until an entry has ``bits`` bits: a map in
    SL(2, Z) with positive entries, so Anosov."""
    m = TorusAutomorphism(((1, 0), (0, 1)))
    while max(abs(x) for row in m.matrix for x in row).bit_length() < bits:
        k = rng.randint(1, 3)
        m = m * TorusAutomorphism(((1, k), (0, 1))) * TorusAutomorphism(((1, 0), (k, 1)))
    return m


def conjugate_powers(rng, bits):
    """m**2 and g m**3 g**-1, of about ``bits`` bits: commensurable with scale 2/3."""
    m, g = shear_word(rng, bits // 4), shear_word(rng, bits // 8)
    return m ** 2, g * m ** 3 * TorusAutomorphism(_invert(g.matrix))


def test_large_cat_powers_are_commensurable_quickly():
    cat = TorusAutomorphism(((2, 1), (1, 1)))
    pairs = [(cat ** 40, cat ** 41, Fraction(40, 41)), (cat ** 1000, cat ** 1001, Fraction(1000, 1001)),
             (*conjugate_powers(random.Random(3), 2000), Fraction(2, 3))]
    for phi, psi, scale in pairs:
        start = time.perf_counter()
        v = torus_commensurable(phi, psi)
        assert time.perf_counter() - start < 2.0
        assert v.kind == COMMENSURABLE and v.scale == scale
    assert pairs[-1][1].matrix[0][0].bit_length() >= 1900


def test_one_factorization_per_anosov_classification(monkeypatch):
    calls = []
    real = quadratic.squarefree_part
    for module in (quadratic, torus):
        monkeypatch.setattr(module, "squarefree_part", lambda n: calls.append(n) or real(n))
    cat = TorusAutomorphism(((2, 1), (1, 1)))
    for k in (1, 7, 30):
        del calls[:]
        assert classify_torus(cat ** k).kind == ANOSOV
        assert len(calls) == 1
    # the compare path factors nothing
    del calls[:]
    assert torus_commensurable(cat ** 3, TorusAutomorphism(((1, 1), (1, 0)))).kind == COMMENSURABLE
    assert calls == []
    del calls[:]
    q = SpectrumQuery(((2, 1), (1, 1)), (0, 0), (Fraction(1, 2), 0), 3)
    assert calls == []
    assert spectrum_values(q)
    assert len(calls) == 1


def test_commensurability_examples():
    a = TorusAutomorphism(((2, 1), (1, 1)))
    v = torus_commensurable(a, a ** 2)
    assert v.kind == COMMENSURABLE and v.scale == Fraction(1, 2)
    v = torus_commensurable(a, TorusAutomorphism(((3, 2), (1, 1))))
    assert v.kind == INCOMMENSURABLE
    v = torus_commensurable(
        TorusAutomorphism(((1, 1), (0, 1))), TorusAutomorphism(((1, 5), (0, 1)))
    )
    assert v.kind == SAME_CLASS_TRIVIAL
    v = torus_commensurable(a, TorusAutomorphism(((1, 1), (0, 1))))
    assert v.kind == INCOMMENSURABLE
    # two orders of Q(sqrt 5): trace discriminants 320 = 8**2 * 5 and 5
    golden = TorusAutomorphism(((1, 1), (1, 0)))
    for phi, psi, scale in ((a ** 3, golden, Fraction(6)), (golden, a ** 3, Fraction(1, 6)),
                            (a, golden ** 3, Fraction(2, 3)), (golden ** 2, a, Fraction(1))):
        v = torus_commensurable(phi, psi)
        assert v == torus_commensurable_by_units(phi, psi) == TorusVerdict(COMMENSURABLE, scale)


def brute_force_commensurable(u, v, max_exp=12):
    """Search u^q = v^p directly in exact quadratic-integer arithmetic."""
    if u.D != v.D:
        return False
    u_powers = [u ** q for q in range(1, max_exp + 1)]
    v_powers = [v ** p for p in range(1, max_exp + 1)]
    return any(up == vp for up in u_powers for vp in v_powers)


def anosov_dilatations(bound):
    seen = {}
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c not in (1, -1):
                        continue
                    phi = TorusAutomorphism(((a, b), (c, d)))
                    nt = classify_torus(phi)
                    if nt.kind == ANOSOV:
                        seen.setdefault(nt.dilatation, phi)
    return seen


def test_oracle_agreement_small():
    """Spot version of the full oracle sweep (entries up to 3)."""
    seen = anosov_dilatations(3)
    dils = sorted(seen, key=lambda u: (u.D, u.a, u.b))
    for u in dils:
        for v in dils:
            verdict = torus_commensurable(seen[u], seen[v])
            expected = brute_force_commensurable(u, v)
            assert (verdict.kind == COMMENSURABLE) == expected, (u, v)
            assert verdict == torus_commensurable_by_units(seen[u], seen[v]), (u, v)


def test_compare_of_conjugate_powers_is_p_over_q():
    rng = random.Random(11)
    bases = [((2, 1), (1, 1)), ((1, 1), (1, 0)), ((3, 1), (2, 1)), ((2, 1), (1, 0)), ((3, 1), (1, 0))]
    for m in bases:
        a = TorusAutomorphism(m)
        for p, q in itertools.product(range(1, 7), repeat=2):
            g, h = (TorusAutomorphism(_random_glz(rng)) for _ in range(2))
            phi = g * a ** p * TorusAutomorphism(_invert(g.matrix))
            psi = h * a ** q * TorusAutomorphism(_invert(h.matrix))
            v = torus_commensurable(phi, psi)
            assert v == torus_commensurable_by_units(phi, psi) == TorusVerdict(COMMENSURABLE, Fraction(p, q)), (m, p, q)


def test_unrelated_large_maps_are_incommensurable_quickly():
    rng = random.Random(5)
    for bits in (256, 2000):
        phi, psi = shear_word(rng, bits), shear_word(rng, bits)
        d1, d2 = (f.trace ** 2 - 4 * f.det for f in (phi, psi))
        assert math.isqrt(d1 * d2) ** 2 != d1 * d2
        start = time.perf_counter()
        assert torus_commensurable(phi, psi).kind == INCOMMENSURABLE
        assert time.perf_counter() - start < 2.0


def test_minimal_representatives():
    per = minimal_representatives(PERIODIC)
    assert [p.matrix for p in per] == [((0, -1), (1, 0)), ((0, -1), (1, 1))]
    assert [classify_torus(p).period for p in per] == [4, 6]
    red = minimal_representatives(REDUCIBLE)
    assert [p.matrix for p in red] == [((1, 1), (0, 1)), ((-1, 1), (0, -1))]
    with pytest.raises(ValueError):
        minimal_representatives(ANOSOV)


def test_generate_same_cyclic_group():
    r4 = TorusAutomorphism(((0, -1), (1, 0)))
    assert generate_same_cyclic_group(r4, r4 ** 3)
    r6 = TorusAutomorphism(((0, -1), (1, 1)))
    assert not generate_same_cyclic_group(r4, r6)
    assert not generate_same_cyclic_group(r6, r6 ** 2)  # order 3 subgroup
    with pytest.raises(ValueError):
        generate_same_cyclic_group(r4, TorusAutomorphism(((2, 1), (1, 1))))
