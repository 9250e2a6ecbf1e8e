import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import random_reducible_map
from oracles import a_total_by_curves, fundamental_unit, p_polynomial_eval
from fibercomm.decomposition import (
    DilatationLabel,
    Piece,
    ReducibleMap,
    ReducingCurve,
    a_piece,
    a_total,
    negate_twists,
    p_polynomial,
    pi_invariant,
    power,
    validate,
    validate_or_raise,
)
from fibercomm.families import d_type_family, twist_composition
from fibercomm.surfaces import Surface


def two_piece_map(twist=F(1)):
    return ReducibleMap(
        (Piece("a", Surface(1, 1), ("s",)), Piece("b", Surface(1, 1), ("t",))),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), twist),),
    )


def test_validate_accepts_families():
    assert validate(d_type_family(2, 2)) == []
    assert validate(two_piece_map()) == []


def test_validate_reports_violations():
    bad = ReducibleMap(
        (Piece("a", Surface(1, 0), ()),),  # chi < 0 but no slots for the curve
        (ReducingCurve("c", ("a", "missing"), ("zzz", "s"), F(0)),),
    )
    errors = validate(bad)
    assert any("zero twist" in e for e in errors)
    assert any("missing piece zzz" in e for e in errors)
    assert any("missing slot" in e for e in errors)
    torus_piece = ReducibleMap(
        (Piece("a", Surface(1, 0), ()), Piece("b", Surface(1, 2), ("s", "t"))),
        (ReducingCurve("c", ("b", "s"), ("b", "t"), F(1)),),
    )
    assert any("chi = 0" in e for e in validate(torus_piece))
    empty = ReducibleMap((Piece("a", Surface(2, 0), ()),), ())
    assert any("empty" in e for e in validate(empty))


def test_validate_curve_orbits():
    phi = ReducibleMap(
        (Piece("a", Surface(1, 2), ("s1", "s2")), Piece("b", Surface(1, 2), ("t1", "t2"))),
        (
            ReducingCurve("c1", ("a", "s1"), ("b", "t1"), F(1, 2)),
            ReducingCurve("c2", ("a", "s2"), ("b", "t2"), F(1, 3)),
        ),
    )
    assert validate(replace(phi, curve_orbits=(("c1",), ("c2",)))) == []
    errors = validate(replace(phi, curve_orbits=(("c1", "c2", "c9"),)))
    assert any("missing curve c9" in e for e in errors)
    assert any("mixes twists" in e for e in errors)


def test_invalid_graph_raises_on_every_call():
    bad = two_piece_map(F(0))
    for _ in range(2):
        with pytest.raises(ValueError, match="zero twist"):
            validate_or_raise(bad)
    good = two_piece_map()
    validate_or_raise(good)
    validate_or_raise(good)


def test_a_piece_examples():
    d = d_type_family(4, 2)
    assert a_piece(d, "hub") == (F(4), F(0))
    assert a_piece(d, "leaf0") == (F(1), F(0))
    phi = ReducibleMap(
        (
            Piece("a", Surface(1, 3), ("s1", "s2", "s3")),
            Piece("b", Surface(1, 3), ("t1", "t2", "t3")),
        ),
        (
            ReducingCurve("c1", ("a", "s1"), ("b", "t1"), F(1, 2)),
            ReducingCurve("c2", ("a", "s2"), ("b", "t2"), F(1, 2)),
            ReducingCurve("c3", ("a", "s3"), ("b", "t3"), F(-1, 3)),
        ),
    )
    assert a_piece(phi, "a") == (F(4), F(3))


def test_self_curve_counts_twice():
    phi = ReducibleMap(
        (Piece("a", Surface(1, 2), ("s", "t")),),
        (ReducingCurve("c", ("a", "s"), ("a", "t"), F(1, 3)),),
    )
    assert a_piece(phi, "a") == (F(6), F(0))
    assert a_total(phi) == (F(3), F(0))
    assert a_total(phi) == a_total_by_curves(phi)


def test_a_total_examples():
    assert a_total(d_type_family(3, 2)) == (F(3), F(0))
    assert a_total(two_piece_map()) == (F(1), F(0))


def test_a_total_consistency_random():
    rng = random.Random(11)
    for _ in range(200):
        phi = random_reducible_map(rng)
        assert validate(phi) == []
        assert a_total(phi) == a_total_by_curves(phi)


def test_pi_examples():
    assert pi_invariant(d_type_family(3, 2)) == {(F(1), F(0)), (F(1, 3), F(0))}
    sym = ReducibleMap(
        (Piece("a", Surface(1, 1), ("s",)), Piece("b", Surface(1, 1), ("t",))),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), F(1)),),
    )
    assert pi_invariant(sym) == {(F(1), F(0))}


def test_p_polynomial_d_family():
    for k in (2, 3):
        d = d_type_family(3, k)
        p = p_polynomial(d)
        assert p[(F(1), F(0))] == F(1, 2 * k)
        assert p[(F(1, 2 * k - 1), F(0))] == F(2 * k - 1, 2 * k)
        value = p_polynomial_eval(p, 1, 1)
        a = a_total(d)
        chi = d.chi
        assert value == (2 * a[0] / -chi, 2 * a[1] / -chi)


def test_p_polynomial_properties_random():
    rng = random.Random(13)
    for _ in range(100):
        phi = random_reducible_map(rng)
        p = p_polynomial(phi)
        assert sum(p.values()) == 1
        a = a_total(phi)
        chi = phi.chi
        assert p_polynomial_eval(p, 1, 1) == (2 * a[0] / -chi, 2 * a[1] / -chi)


def test_power_laws():
    rng = random.Random(17)
    for _ in range(50):
        phi = random_reducible_map(rng)
        a = a_total(phi)
        pi = pi_invariant(phi)
        for k in range(1, 11):
            pk = power(phi, k)
            assert all(c.twist == k * o.twist for c, o in zip(pk.curves, phi.curves))
            assert a_total(pk) == (a[0] / k, a[1] / k)
            assert pi_invariant(pk) == {(p / k, q / k) for p, q in pi}


def test_power_on_labels():
    lam = fundamental_unit(5) ** 2
    phi = ReducibleMap(
        (
            Piece("a", Surface(1, 1), ("s",), dilatation=DilatationLabel(unit=lam)),
            Piece("b", Surface(1, 1), ("t",), dilatation=DilatationLabel(name="mu")),
        ),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), F(1)),),
    )
    p3 = power(phi, 3)
    assert p3.piece("a").dilatation.unit == lam ** 3
    assert p3.piece("b").dilatation.exponent == 3
    assert p3.piece("b").dilatation.rotation is None
    # the boundary rotation scales too, modulo full turns
    pa = power(twist_composition(2), 3).piece("pa").dilatation
    assert pa.rotation == 0 and pa.exponent == 3
    assert power(twist_composition(2, F(2, 5)), 2).piece("pa").dilatation.rotation == F(4, 5)
    assert power(twist_composition(2, F(2, 5)), 3).piece("pa").dilatation.rotation == F(1, 5)
    with pytest.raises(ValueError):
        power(phi, 0)


def test_power_keeps_orbits_and_shares_twists():
    phi = ReducibleMap(
        (Piece("a", Surface(1, 2), ("s1", "s2")), Piece("b", Surface(1, 2), ("t1", "t2"))),
        (
            ReducingCurve("c1", ("a", "s1"), ("b", "t1"), F(2, 3)),
            ReducingCurve("c2", ("a", "s2"), ("b", "t2"), F(2, 3)),
        ),
        piece_orbits=(("a", "b"),),
        curve_orbits=(("c1", "c2"),),
    )
    p3 = power(phi, 3)
    assert p3.piece_orbits == phi.piece_orbits and p3.curve_orbits == phi.curve_orbits
    assert [c.twist for c in p3.curves] == [F(2), F(2)]
    assert validate(p3) == []


def test_negation_flips_everything():
    rng = random.Random(19)
    for _ in range(100):
        phi = random_reducible_map(rng)
        neg = negate_twists(phi)
        a = a_total(phi)
        assert a_total(neg) == (a[1], a[0])
        for p in phi.pieces:
            ap = a_piece(phi, p.id)
            assert a_piece(neg, p.id) == (ap[1], ap[0])
        assert pi_invariant(neg) == {(q, p) for p, q in pi_invariant(phi)}


def test_dilatation_label_invariants():
    with pytest.raises(ValueError):
        DilatationLabel()
    with pytest.raises(ValueError):
        DilatationLabel(unit=fundamental_unit(5), name="x")
