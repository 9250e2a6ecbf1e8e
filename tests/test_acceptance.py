"""Acceptance gate: one test per release criterion.

Each test is self-contained and checks one criterion end to end, so a
verbose run gives a single pass/fail line per criterion.
"""

import os
import random
import time
from fractions import Fraction as F

import sympy

from conftest import random_reducible_map
from oracles import negate_twists, p_polynomial_eval
from test_torus import anosov_dilatations, brute_force_commensurable

from fibercomm.comparator import (
    COMBINED,
    FULL,
    INCOMMENSURABLE,
    NOT_OBSTRUCTED,
    InvariantReport,
    compare,
)
from fibercomm.cover import lift_cover, normalize_unit_twists, verify_cover_laws
from fibercomm.decomposition import power
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_alternate_plan,
    closed_chain_manifold,
    closed_chain_plan,
    d_type_family,
    twist_composition,
)
from fibercomm.spectrum import SpectrumQuery, spectrum_min, spectrum_values
from fibercomm.staircase import PiecePlan, refiber, staircase_piece
from fibercomm.surfaces import Surface
from fibercomm.torus import COMMENSURABLE, torus_commensurable


def test_criterion_1_star_family_invariants():
    start = time.monotonic()
    for n in range(1, 7):
        for k in range(1, 7):
            assert InvariantReport.of(d_type_family(n, k)).pi == {
                (F(1), F(0)),
                (F(1, 2 * k - 1), F(0)),
            }
    for n in range(1, 7):
        for m in range(1, 7):
            assert compare(d_type_family(n, 2), d_type_family(m, 2), FULL).kind == NOT_OBSTRUCTED
            assert compare(d_type_family(n, 2), d_type_family(m, 3), FULL).kind == INCOMMENSURABLE
    assert time.monotonic() - start < 1.0


def test_criterion_2_bounded_refibering_pipeline():
    start = time.monotonic()
    res = staircase_piece(Surface(1, 3), PiecePlan(2, (("b0", "b1"),)))
    assert (res.surface.genus, res.surface.boundary_components) == (2, 4)
    res = staircase_piece(Surface(1, 2), PiecePlan(3, (("b0", "b1"),)))
    assert (res.surface.genus, res.surface.boundary_components) == (3, 2)

    m = bounded_chain_manifold()
    maps = {}
    for n in range(1, 6):
        r = refiber(m, bounded_chain_plan(n))
        maps[n] = r.map
        assert InvariantReport.of(r.map).pi == {
            (F(n), F(0)),
            (F(2 * n + 1, 3), F(0)),
            (F(n, 2), F(0)),
        }
    assert sorted(c.twist for c in maps[2].curves) == [F(1, 6), F(1, 2), F(1, 2)]
    d_power = power(maps[2], 6)
    assert sorted(set(c.twist for c in d_power.curves)) == [F(1), F(3)]
    for i in range(1, 6):
        for j in range(1, 6):
            if i != j:
                assert compare(maps[i], maps[j], FULL).kind == INCOMMENSURABLE
    assert time.monotonic() - start < 1.0


def test_criterion_3_closed_refibering_targets():
    m = closed_chain_manifold()
    maps = {}
    for n in range(1, 5):
        r = refiber(m, closed_chain_plan(n))
        maps[n] = r.map
        assert r.fiber == Surface(6 * n + 8, 0)
        assert InvariantReport.of(r.map).pi == {
            (F(n, 12), F(n, 12)),
            (F(3 * n + 4, 8), F(3 * n + 4, 8)),
            (F(n, 2), F(n, 2)),
        }
    alt = refiber(m, closed_chain_alternate_plan())
    assert alt.fiber == Surface(20, 0)
    assert InvariantReport.of(alt.map).pi == {
        (F(1, 4), F(1, 4)),
        (F(11, 8), F(11, 8)),
        (F(3, 2), F(3, 2)),
    }
    assert compare(maps[2], alt.map, FULL).kind == INCOMMENSURABLE


def test_criterion_4_law_suites():
    rng = random.Random(101)
    checked = 0
    while checked < 500:
        phi = random_reducible_map(rng, max_part=12)
        a = InvariantReport.of(phi).a
        pi = InvariantReport.of(phi).pi

        k = rng.randint(2, 6)
        pk = power(phi, k)
        assert InvariantReport.of(pk).a == (a[0] / k, a[1] / k)
        assert InvariantReport.of(pk).pi == {(p / k, q / k) for p, q in pi}

        neg = negate_twists(phi)
        assert InvariantReport.of(neg).a == (a[1], a[0])
        assert InvariantReport.of(neg).pi == {(q, p) for p, q in pi}

        p = dict(InvariantReport.of(phi).p)
        assert p_polynomial_eval(p, 1, 1) == (2 * a[0] / -phi.chi, 2 * a[1] / -phi.chi)

        cover = _double_cover(phi)
        if cover is not None:
            assert all(ch.ok for ch in verify_cover_laws(phi, cover, lift_cover(phi, cover)))
        checked += 1


def _double_cover(phi):
    from fibercomm.cover import ComponentCover, CoveringData

    comps = []
    for p in phi.pieces:
        frees = [(1, 1)] * p.free_boundary
        if len(p.slots) % 2 == 1:
            if p.free_boundary == 0:
                return None
            frees[0] = (2,)
        comps.append(
            (p.id, (ComponentCover(2, tuple((s, (2,)) for s in p.slots), tuple(frees)),))
        )
    return CoveringData(tuple(comps))


def test_criterion_5_torus_oracle_equivalence():
    start = time.monotonic()
    seen = anosov_dilatations(5)
    dils = sorted(seen, key=lambda u: (u.D, u.a, u.b))
    assert len(dils) > 10
    for u in dils:
        for v in dils:
            verdict = torus_commensurable(seen[u], seen[v])
            expected = brute_force_commensurable(u, v, max_exp=12)
            assert (verdict.kind == COMMENSURABLE) == expected, (u, v)
    assert time.monotonic() - start < 30.0


def test_criterion_6_combined_mode_symbolic():
    for k1 in range(1, 7):
        for k2 in range(1, 7):
            v = compare(twist_composition(k1), twist_composition(k2), COMBINED)
            if k1 == k2:
                assert v.kind == NOT_OBSTRUCTED
            else:
                assert v.kind == INCOMMENSURABLE


def lattice_oracle_min(matrix, origin, point, radius):
    """Minimal measure product over the radius box, from eigenvectors.

    Derives the quadratic form symbolically (left eigenvectors of the
    matrix, product pairing divided by the total mass of the product
    measure) instead of reusing the library's closed form.
    """
    M = sympy.Matrix(matrix)
    vecs = [(M.T - val * sympy.eye(2)).nullspace()[0] for val in M.T.eigenvals()]
    x, y = sympy.symbols("x y")
    prod = sympy.expand(
        (vecs[0][0] * x + vecs[0][1] * y) * (vecs[1][0] * x + vecs[1][1] * y)
    )
    poly = sympy.Poly(prod, x, y)
    coeffs = {}
    for monom, c in zip(poly.monoms(), poly.coeffs()):
        c = sympy.nsimplify(sympy.simplify(c))
        assert c.is_rational
        coeffs[tuple(monom)] = F(int(c.p), int(c.q))

    def form(v):
        total = F(0)
        for (i, j), c in coeffs.items():
            total += c * v[0] ** i * v[1] ** j
        return abs(total)

    mass_sq = sympy.expand((vecs[0][0] * vecs[1][1] - vecs[0][1] * vecs[1][0]) ** 2)
    offset = (point[0] - origin[0], point[1] - origin[1])
    best = None
    for base in ((F(0), F(0)), offset):
        for i in range(-radius, radius + 1):
            for j in range(-radius, radius + 1):
                v = (base[0] + i, base[1] + j)
                if v == (0, 0):
                    continue
                val = form(v)
                if best is None or val < best:
                    best = val
    return sympy.Rational(best) / sympy.sqrt(mass_sq)


def test_criterion_7_spectrum_oracle_and_discreteness():
    matrix = ((2, 1), (1, 1))
    origin = (F(0), F(0))
    point = (F(1, 2), F(1, 2))
    q20 = SpectrumQuery(matrix, origin, point, 20)
    m = spectrum_min(q20)
    lib_expr = sympy.Rational(m.value.b.numerator, m.value.b.denominator) * sympy.sqrt(m.value.D)
    oracle_expr = lattice_oracle_min(matrix, origin, point, 20)
    assert sympy.simplify(lib_expr - oracle_expr) == 0

    bound = F(5)
    v20 = spectrum_values(q20)
    v40 = spectrum_values(SpectrumQuery(matrix, origin, point, 40))
    count20 = sum(1 for v in v20 if v < bound)
    count40 = sum(1 for v in v40 if v < bound)
    assert count20 == count40
    assert all(v > 0 for v in v40)


def test_criterion_8_normalization_never_obstructs():
    rng = random.Random(103)
    for _ in range(100):
        phi = random_reducible_map(rng, max_part=12)
        out, cert = normalize_unit_twists(phi)
        assert all(abs(c.twist) == 1 for c in out.curves)
        assert compare(phi, out, FULL).kind == NOT_OBSTRUCTED


def test_criterion_9_documented_exclusions():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().lower()
    assert "out of scope" in text
    assert "minimal element" in text
    assert "volume" in text
