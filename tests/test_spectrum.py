import random
from fractions import Fraction as F

import pytest
import sympy

from oracles import fundamental_unit
from fibercomm.decomposition import DilatationLabel
from fibercomm.spectrum import (
    BranchData,
    SingularityVector,
    SpectrumQuery,
    delta_from_branch_data,
    pa_obstruction,
    spectrum_count_below,
    spectrum_min,
    spectrum_values,
)
from fibercomm.surfaces import Surface
from fibercomm.torus import TorusAutomorphism


def test_delta_from_branch_data_examples():
    # two simple branch points of a double cover: a genus 2 surface
    # with two 4-pronged singularities
    surface, delta = delta_from_branch_data(BranchData(2, ((2,), (2,))))
    assert surface == Surface(2, 0)
    assert delta.as_dict == {4: 2}

    # unbranched degree 1: the torus itself, no singularities
    surface, delta = delta_from_branch_data(BranchData(1, ()))
    assert surface == Surface(1, 0)
    assert delta.as_dict == {}

    # degree 3 with two total branch points (3) and (3)
    surface, delta = delta_from_branch_data(BranchData(3, ((3,), (3,))))
    assert surface == Surface(3, 0)
    assert delta.as_dict == {6: 2}


def test_delta_rejections():
    with pytest.raises(ValueError, match="not a partition"):
        BranchData(2, ((3,),))
    with pytest.raises(ValueError, match="odd chi"):
        delta_from_branch_data(BranchData(2, ((2,),)))
    with pytest.raises(ValueError, match="bad singularity"):
        SingularityVector(((2, 1),))


def test_euler_identity_random():
    rng = random.Random(43)
    for _ in range(100):
        degree = rng.randint(2, 6)
        points = []
        for _ in range(rng.randint(0, 4)):
            left, part = degree, []
            while left:
                m = rng.randint(1, left)
                part.append(m)
                left -= m
            points.append(tuple(part))
        b = BranchData(degree, tuple(points))
        try:
            surface, delta = delta_from_branch_data(b)
        except ValueError:
            continue
        assert delta.euler_poincare_total() == 2 * surface.chi


def test_pa_obstruction_scaling():
    u = fundamental_unit(5)
    base = SingularityVector(((4, 2), (6, 1)))
    for k in range(1, 6):
        scaled = SingularityVector(((4, 2 * k), (6, k)))
        v = pa_obstruction(DilatationLabel(unit=u ** k), scaled, DilatationLabel(unit=u), base)
        assert v.ok and v.s == F(k) and v.s_prime == F(k)


def test_pa_obstruction_failures():
    u5, u2 = fundamental_unit(5), fundamental_unit(2)
    d1 = SingularityVector(((4, 2),))
    d2 = SingularityVector(((6, 2),))
    d3 = SingularityVector(((4, 2), (6, 1)))
    d4 = SingularityVector(((4, 4), (6, 3)))
    assert not pa_obstruction(DilatationLabel(unit=u5), d1, DilatationLabel(unit=u2), d1).ok
    assert "prong supports" in pa_obstruction(
        DilatationLabel(unit=u5), d1, DilatationLabel(unit=u5), d2
    ).witness
    assert "no single ratio" in pa_obstruction(
        DilatationLabel(unit=u5), d4, DilatationLabel(unit=u5), d3
    ).witness
    assert not pa_obstruction(
        DilatationLabel(name="lam"), d1, DilatationLabel(name="mu"), d1
    ).ok
    assert not pa_obstruction(DilatationLabel(unit=u5), d1, DilatationLabel(name="lam"), d1).ok
    assert not pa_obstruction(None, d1, DilatationLabel(unit=u5), d1).ok
    v = pa_obstruction(None, d1, None, d1)
    assert v.ok and v.s is None and v.s_prime == F(1)


def test_pa_symbolic_exponent_ratio():
    d = SingularityVector(((4, 1),))
    v = pa_obstruction(
        DilatationLabel(name="lam", exponent=6), d, DilatationLabel(name="lam", exponent=4), d
    )
    assert v.ok and v.s == F(3, 2)


# ---------------------------------------------------------------------------
# spectrum of Anosov torus models

GOLDEN = ((2, 1), (1, 1))


def test_query_validation():
    with pytest.raises(ValueError, match="Anosov"):
        SpectrumQuery(((1, 1), (0, 1)), (0, 0), (0, 0), 3)
    with pytest.raises(ValueError, match="radius"):
        SpectrumQuery(GOLDEN, (0, 0), (0, 0), 0)
    with pytest.raises(ValueError, match="determinant"):
        SpectrumQuery(((2, 0), (0, 1)), (0, 0), (0, 0), 3)


def test_golden_minimum():
    q = SpectrumQuery(GOLDEN, (0, 0), (0, 0), 5)
    m = spectrum_min(q)
    # f(v) = v1^2 - v1 v2 - v2^2 has minimum |f| = 1 on Z^2 \ 0
    assert m.value.D == 5 and m.value.b == F(1, 5) and m.value.a == 0
    assert abs(float(m.value)) == pytest.approx(1 / 5 ** 0.5)


def test_large_cat_power_has_the_cat_spectrum():
    # cat**k has the eigendirections of the cat map and the measure
    # product has unit mass, so the spectrum does not depend on k; for
    # k = 25 the normalizing square root is F_50, about 1.3e10
    cat = ((2, 1), (1, 1))
    big = (TorusAutomorphism(cat) ** 25).matrix
    points = ((0, 0), (F(1, 3), F(1, 2)))
    assert spectrum_values(SpectrumQuery(big, *points, 3)) == spectrum_values(SpectrumQuery(cat, *points, 3))


def test_marked_point_minimum():
    q = SpectrumQuery(GOLDEN, (0, 0), (F(1, 2), F(1, 2)), 20)
    m = spectrum_min(q)
    assert (m.value.D, m.value.a, m.value.b) == (5, F(0), F(1, 20))


def sympy_measure(matrix, v):
    """Independent value of the measure product from eigenvectors.

    The stable and unstable measures of a straight arc v are the
    absolute pairings with unit-normalized left eigenvectors; their
    product is divided by the total mass of the product measure on the
    torus so the two normalizations agree.
    """
    M = sympy.Matrix(matrix)
    vecs = [(M.T - val * sympy.eye(2)).nullspace()[0] for val in M.T.eigenvals()]
    assert len(vecs) == 2
    pair = sympy.Integer(1)
    for vec in vecs:
        pair *= sympy.Abs(vec[0] * sympy.Rational(v[0]) + vec[1] * sympy.Rational(v[1]))
    # total mass of the product measure: |w1 x w2| for the eigenrows
    mass = sympy.Abs(vecs[0][0] * vecs[1][1] - vecs[0][1] * vecs[1][0])
    return sympy.simplify(pair / mass)


@pytest.mark.parametrize("matrix", [GOLDEN, ((3, 2), (1, 1)), ((1, 1), (1, 0)), ((5, 2), (2, 1))])
def test_sympy_eigenvector_oracle(matrix):
    q = SpectrumQuery(matrix, (0, 0), (F(1, 3), F(0)), 3)
    f_vals = spectrum_values(q)
    oracle = set()
    for base in ((F(0), F(0)), (F(1, 3), F(0))):
        for i in range(-3, 4):
            for j in range(-3, 4):
                v = (base[0] + i, base[1] + j)
                if v != (0, 0):
                    oracle.add(sympy.nsimplify(sympy_measure(matrix, v)))
    got = {sympy.nsimplify(x.b * sympy.sqrt(x.D)) for x in f_vals}
    assert {sympy.simplify(g) for g in got} == {sympy.simplify(o) for o in oracle}


def test_translate_symmetry_and_invariance():
    q = SpectrumQuery(GOLDEN, (0, 0), (0, 0), 4)
    from fibercomm.spectrum import _measure_form

    f, D, m, abs_c = _measure_form(GOLDEN)
    a, b = GOLDEN[0]
    c, d = GOLDEN[1]
    for v1 in range(-4, 5):
        for v2 in range(-4, 5):
            v = (F(v1), F(v2))
            assert f(v) == f((-v[0], -v[1]))
            av = (a * v[0] + b * v[1], c * v[0] + d * v[1])
            assert abs(f(av)) == abs(f(v))


def test_unimodular_conjugation_preserves_minimum():
    u = ((1, 1), (0, 1))
    uinv = ((1, -1), (0, 1))

    def mul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    conj = mul(mul(u, GOLDEN), uinv)
    m1 = spectrum_min(SpectrumQuery(GOLDEN, (0, 0), (0, 0), 8))
    m2 = spectrum_min(SpectrumQuery(conj, (0, 0), (0, 0), 8))
    assert m1.value == m2.value


def test_minimum_monotone_in_radius():
    prev = None
    for r in (1, 2, 5, 10, 20):
        m = spectrum_min(SpectrumQuery(GOLDEN, (0, 0), (F(1, 2), F(1, 2)), r))
        if prev is not None:
            assert not (prev < m.value)
        prev = m.value


def test_values_sorted_positive_dedup():
    q = SpectrumQuery(((3, 2), (1, 1)), (0, 0), (F(1, 4), F(1, 4)), 3)
    vals = spectrum_values(q)
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    assert all(v.b > 0 and v.a == 0 for v in vals)


def test_count_below_compares_integer_keys_like_values():
    rng = random.Random(31)
    queries = [SpectrumQuery(GOLDEN, (0, 0), (F(1, 2), F(1, 2)), 6)]
    while len(queries) < 8:
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
        try:
            queries.append(
                SpectrumQuery(m, (F(rng.randint(0, 3), 4), F(0)), (F(rng.randint(0, 4), 5), F(rng.randint(1, 5), 6)), 5)
            )
        except ValueError:  # not an Anosov matrix
            continue
    for q in queries:
        values = spectrum_values(q)
        bounds = [F(0), F(-3), F(1, 10 ** 9), F(10 ** 9), F(1), F(5, 2)]
        # bounds just below and just above enumerated values
        for v in rng.sample(values, 3):
            r = sympy.Rational(v.b.numerator, v.b.denominator) * sympy.sqrt(v.D) * 10 ** 8
            bounds += [F(int(sympy.floor(r)), 10 ** 8), F(int(sympy.ceiling(r)), 10 ** 8)]
        for bound in bounds:
            assert spectrum_count_below(q, bound) == sum(v < bound for v in values), (q, bound)
    assert spectrum_count_below(queries[0], 3) == spectrum_count_below(queries[0], F(3))
