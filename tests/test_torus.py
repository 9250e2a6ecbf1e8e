import random
import time
from fractions import Fraction

import pytest

from oracles import generate_same_cyclic_group, minimal_representatives
from fibercomm import quadratic, torus
from fibercomm.quadratic import QuadraticNumber, QuadraticUnit
from fibercomm.spectrum import SpectrumQuery, spectrum_values
from fibercomm.torus import (
    ANOSOV,
    COMMENSURABLE,
    INCOMMENSURABLE,
    PERIODIC,
    REDUCIBLE,
    SAME_CLASS_TRIVIAL,
    TorusAutomorphism,
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


def test_large_cat_powers_are_commensurable_quickly():
    # the trace discriminant of cat**k is 5 F_2k**2; its squarefree part
    # is found without trial division up to the largest prime of F_2k
    cat = TorusAutomorphism(((2, 1), (1, 1)))
    start = time.perf_counter()
    v = torus_commensurable(cat ** 40, cat ** 41)
    assert time.perf_counter() - start < 2.0
    assert v.kind == COMMENSURABLE and v.scale == Fraction(40, 41)


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
    del calls[:]
    assert torus_commensurable(cat ** 3, TorusAutomorphism(((1, 1), (1, 0)))).kind == COMMENSURABLE
    assert len(calls) == 2
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


def brute_force_commensurable(u, v, max_exp=12):
    """Search u^q = v^p directly in exact quadratic-integer arithmetic."""
    if u.D != v.D:
        return False
    u_powers = [u.number ** q for q in range(1, max_exp + 1)]
    v_powers = [v.number ** p for p in range(1, max_exp + 1)]
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
