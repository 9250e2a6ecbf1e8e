import math
import random
from fractions import Fraction as F
from operator import itemgetter

import pytest
import sympy

from oracles import fundamental_unit, spectrum_keys_by_translates
from fibercomm import spectrum
from fibercomm.decomposition import DilatationLabel
from fibercomm.quadratic import QuadraticNumber, ResourceLimit
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
    with pytest.raises(ValueError, match="^prongs must be an integer >= 3, got 2$"):
        SingularityVector(((2, 1),))
    # a degree below 1 with no branch points, or with the empty partition of 0, would read as the torus
    for degree, points in ((-5, ()), (0, ((),))):
        with pytest.raises(ValueError, match="^degree must be an integer >= 1, got %d$" % degree):
            BranchData(degree, points)
    # as_dict would keep one count of 4, so pa_obstruction against ((4, 3),)
    # would read s_prime 2/3 where the summed vector is proportional
    with pytest.raises(ValueError, match="^repeated prong number 4$"):
        SingularityVector(((4, 1), (6, 1), (4, 2)))


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


def _mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def test_query_validation():
    with pytest.raises(ValueError, match="Anosov"):
        SpectrumQuery(((1, 1), (0, 1)), (0, 0), (0, 0), 3)
    with pytest.raises(ValueError, match="radius"):
        SpectrumQuery(GOLDEN, (0, 0), (0, 0), 0)
    with pytest.raises(ValueError, match="determinant"):
        SpectrumQuery(((2, 0), (0, 1)), (0, 0), (0, 0), 3)


@pytest.mark.parametrize("field", ["origin", "point"])
def test_query_coordinates_are_exact(field):
    """Each coordinate of a marked point is an int or a Fraction, stored as
    given; a float, a bool or a string is refused by the field's name."""
    points = {"origin": (F(1, 3), 0), "point": (F(1, 2), 0)}
    q = SpectrumQuery(GOLDEN, radius=3, **points)
    assert getattr(q, field) == points[field] and type(getattr(q, field)[1]) is int
    assert spectrum_min(q).value > 0
    for bad in ((0.5, 0), (0, 0.0), (True, 0), ("1/2", 0)):
        with pytest.raises(ValueError, match="^%s must be an int or a Fraction, got " % field):
            SpectrumQuery(GOLDEN, radius=3, **{**points, field: bad})


@pytest.mark.parametrize("field", ["origin", "point"])
def test_query_points_have_two_coordinates(field):
    """A marked point of any other length is refused by the field's name,
    never read for its first two coordinates; a pair of ints or of
    Fractions gives the same spectrum as before."""
    points = {"origin": (0, 0), "point": (F(1, 2), F(1, 3))}
    expected = spectrum_min(SpectrumQuery(GOLDEN, radius=3, **points))
    assert expected.translate == (F(1, 2), F(1, 3))
    assert spectrum_min(SpectrumQuery(GOLDEN, (F(0), F(0)), points["point"], 3)) == expected
    for bad in ((), (0,), (0, 0, 5), (F(1, 2), F(1, 3), 0)):
        with pytest.raises(ValueError, match="^%s must have two coordinates, got " % field):
            SpectrumQuery(GOLDEN, radius=3, **{**points, field: bad})


def test_radius_limit_binds_library_calls(monkeypatch):
    """Past ``MAX_RADIUS`` every enumeration is refused before it starts."""

    def enumerate_translates(q, L, mirrored=True):
        raise AssertionError("radius %d enumerated" % q.radius)

    monkeypatch.setattr(spectrum, "_translates", enumerate_translates)
    q = SpectrumQuery(GOLDEN, (F(0), F(0)), (F(1, 2), F(1, 2)), spectrum.MAX_RADIUS + 1)
    assert spectrum.MAX_RADIUS == 300
    for call in (spectrum_values, spectrum_min, lambda q: spectrum_count_below(q, F(1)),
                 lambda q: spectrum_count_below(q, F(-1))):
        with pytest.raises(ResourceLimit, match="the spectrum radius exceeds 300"):
            call(q)


def test_golden_minimum():
    q = SpectrumQuery(GOLDEN, (0, 0), (0, 0), 5)
    m = spectrum_min(q)
    # f(v) = v1^2 - v1 v2 - v2^2 has minimum |f| = 1 on Z^2 \ 0
    assert m.value.D == 5 and m.value.b == F(1, 5) and m.value.a == 0


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

    f = _measure_form(GOLDEN)
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
    conj = _mul(_mul(u, GOLDEN), uinv)
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


def test_count_below_takes_an_exact_bound():
    """The bound is an int or a Fraction; a float, a bool or a string is
    refused by name, never read for its numerator or counted as 1."""
    q = SpectrumQuery(GOLDEN, (0, 0), (F(1, 2), F(1, 2)), 3)
    for bad in (2.5, "x", True, None):
        with pytest.raises(ValueError, match="^bound must be an int or a Fraction, got %r$" % (bad,)):
            spectrum_count_below(q, bad)
    assert spectrum_count_below(q, 1) == spectrum_count_below(q, F(1)) > 0


_GENERATORS = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)), ((0, 1), (1, 0)))


def _word(rng, top):
    """A random word in generators of GL(2, Z), stopped before an entry
    would exceed ``top``."""
    m = ((1, 0), (0, 1))
    for _ in range(400):
        nxt = _mul(m, rng.choice(_GENERATORS))
        if max(abs(x) for row in nxt for x in row) > top:
            break
        m = nxt
    return m


def _random_queries(rng, count):
    """Anosov queries of every kind the row recurrences must handle:
    determinant +-1, negative traces, words with entries up to 10**6,
    conjugated cat powers, marked points with denominators 1-12, integral
    O-to-P offsets (so the zero translate lies in the second box),
    radius 1-15."""
    cat = TorusAutomorphism(GOLDEN)
    queries = []
    while len(queries) < count:
        kind = len(queries) % 3
        if kind == 0:
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2))
        elif kind == 1:
            m = _word(rng, 10 ** rng.randint(1, 6))
        else:
            u = _word(rng, rng.randint(1, 30))
            det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
            u_inv = ((det * u[1][1], -det * u[0][1]), (-det * u[1][0], det * u[0][0]))
            m = _mul(_mul(u, (cat ** rng.randint(1, 12)).matrix), u_inv)
        if rng.random() < 0.5:
            m = tuple(tuple(-x for x in row) for row in m)
        radius = rng.randint(1, 15)
        origin = tuple(F(rng.randrange(den), den) for den in (rng.randint(1, 12), rng.randint(1, 12)))
        if rng.random() < 0.3:
            point = (origin[0] + rng.randint(-radius, radius), origin[1] + rng.randint(-radius, radius))
        else:
            point = tuple(F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(2))
        try:
            queries.append(SpectrumQuery(m, origin, point, radius))
        except ValueError:  # not an Anosov matrix
            continue
    return queries


def test_rows_match_translate_oracle():
    """The row recurrences give the keys of the translate-by-translate
    oracle: the same values, the same minimum at the same first translate
    in enumeration order, and the same counts at bounds within 10**-40 of
    enumerated values, on either side.  The values built in bulk are the
    checked constructor's numbers: each b exactly a Fraction of ints in
    lowest terms with a positive denominator, and each value equal to, and
    hashed like, QuadraticNumber(D, 0, Fraction(k, scale))."""
    rng = random.Random(16)
    queries = _random_queries(rng, 90)
    assert any(q.point[0] - q.origin[0] == int(q.point[0] - q.origin[0]) for q in queries)
    assert max(abs(x) for q in queries for row in q.matrix for x in row) > 10 ** 5
    for q in queries:
        D, scale, L, keyed = spectrum_keys_by_translates(q)
        keys = sorted({k for k, _ in keyed})
        values = spectrum_values(q)
        assert [(v.D, v.a, v.b) for v in values] == [(D, 0, F(k, scale)) for k in keys], q
        for v, k in zip(values, keys):
            n, d = v.b.numerator, v.b.denominator
            assert type(v.b) is F and type(n) is type(d) is int and d > 0 and math.gcd(n, d) == 1, (q, v)
            checked = QuadraticNumber(D, 0, F(k, scale))
            assert type(v) is QuadraticNumber and v == checked and hash(v) == hash(checked), (q, v)
        k, w = min(keyed, key=itemgetter(0))
        m = spectrum_min(q)
        assert (m.value.D, m.value.a, m.value.b, m.translate) == (D, 0, F(k, scale), (F(w[0], L), F(w[1], L))), q
        assert spectrum_count_below(q, F(0)) == spectrum_count_below(q, F(-1)) == 0
        assert spectrum_count_below(q, values[-1].b * D) == len(keys)  # b*D > b*sqrt(D)
        N = 10 ** 40
        for i in sorted({0, len(keys) - 1, *rng.sample(range(len(keys)), min(4, len(keys)))}):
            below = math.isqrt(keys[i] ** 2 * D * N * N)  # k*sqrt(D)*N lies in (below, below + 1)
            assert spectrum_count_below(q, F(below, scale * N)) == i, (q, i)
            assert spectrum_count_below(q, F(below + 1, scale * N)) == i + 1, (q, i)

