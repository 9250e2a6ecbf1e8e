import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import random_reducible_map
from oracles import a_total_by_curves, fundamental_unit, negate_twists, p_polynomial_eval, validate_by_scan
from fibercomm import serialize as ser
from fibercomm.comparator import InvariantReport
from fibercomm.cover import ComponentCover, CoveringData, lift_cover, normalize_unit_twists
from fibercomm.decomposition import (
    DilatationLabel,
    Piece,
    ReducibleMap,
    ReducingCurve,
    power,
    validate,
    validate_or_raise,
)
from fibercomm.families import bounded_chain_manifold, bounded_chain_plan, d_type_family, twist_composition
from fibercomm.staircase import refiber
from fibercomm.surfaces import Surface


def two_piece_map(twist=F(1)):
    return ReducibleMap(
        (Piece("a", Surface(1, 1), ("s",)), Piece("b", Surface(1, 1), ("t",))),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), twist),),
    )


def test_validate_accepts_families():
    assert validate(d_type_family(2, 2)) == []
    assert validate(two_piece_map()) == []


def test_families_refuse_parameters_out_of_range():
    with pytest.raises(ValueError, match="^need n, k >= 1$"):
        d_type_family(0, 1)
    with pytest.raises(ValueError, match="^k - r must be positive$"):
        twist_composition(0, 1)


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


def corrupted(rng, phi):
    """phi with one structural defect, of a kind chosen at random."""
    pieces, curves = list(phi.pieces), list(phi.curves)
    i, j = rng.randrange(len(pieces)), rng.randrange(len(curves))
    p, c = pieces[i], curves[j]
    kind = rng.choice(["zero twist", "missing piece", "missing slot", "slot used twice", "unused slot",
                       "repeated slot", "repeated slot, same count", "repeated piece id", "repeated end",
                       "repeated curve id"])
    if kind == "zero twist":
        curves[j] = c._replace(twist=F(0))
    elif kind == "missing piece":
        curves[j] = c._replace(end_b=("nowhere", c.end_b[1]))
    elif kind == "missing slot":
        curves[j] = c._replace(end_a=(c.end_a[0], "nowhere"))
    elif kind == "slot used twice":
        curves.append(ReducingCurve("extra", c.end_a, c.end_b, F(1)))
    elif kind == "unused slot":
        pieces[i] = replace(p, slots=p.slots + ("spare",))
    elif kind == "repeated slot" and p.slots:
        pieces[i] = replace(p, slots=p.slots + p.slots[:1])
    elif kind == "repeated slot, same count" and len(p.slots) > 1:
        pieces[i] = replace(p, slots=p.slots[:-1] + p.slots[:1])
    elif kind == "repeated piece id" and len(pieces) > 1:
        pieces[i] = replace(p, id=pieces[i - 1].id)
    elif kind == "repeated end":
        curves[j] = c._replace(end_b=c.end_a)
    elif kind == "repeated curve id" and len(curves) > 1:
        curves[j] = c._replace(id=curves[j - 1].id)
    return ReducibleMap(tuple(pieces), tuple(curves)), kind


def test_validate_matches_end_by_end_scan():
    rng = random.Random(61)
    kinds = set()
    for _ in range(400):
        phi = random_reducible_map(rng, max_part=6)
        assert validate(phi) == validate_by_scan(phi) == []
        bad, kind = corrupted(rng, phi)
        errors = validate(bad)
        assert errors == validate_by_scan(bad), kind
        if errors:
            kinds.add(kind)
    assert len(kinds) == 10
    # a repeated slot hides an end on a missing slot from the counts alone
    hidden = ReducibleMap(
        (Piece("a", Surface(1, 2), ("s", "s")), Piece("b", Surface(1, 2), ("t", "u"))),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), F(1)), ReducingCurve("d", ("a", "x"), ("b", "u"), F(1))),
    )
    assert validate(hidden) == validate_by_scan(hidden) == ["piece a repeats slot s",
                                                            "curve d references missing slot a.x"]
    # and keeps every count right when the slot it replaces meets no curve
    hub = ReducibleMap((Piece("hub", Surface(1, 2), ("h0", "h0")), Piece("leaf", Surface(1, 1), ("l",))),
                       (ReducingCurve("c", ("hub", "h0"), ("leaf", "l"), F(1)),))
    assert validate(hub) == validate_by_scan(hub) == ["piece hub repeats slot h0"]


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
    assert d.pairs["hub"] == (F(4), F(0))
    assert d.pairs["leaf0"] == (F(1), F(0))
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
    assert phi.pairs["a"] == (F(4), F(3))


def test_self_curve_counts_twice():
    phi = ReducibleMap(
        (Piece("a", Surface(1, 2), ("s", "t")),),
        (ReducingCurve("c", ("a", "s"), ("a", "t"), F(1, 3)),),
    )
    assert phi.pairs["a"] == (F(6), F(0))
    assert InvariantReport.of(phi).a == (F(3), F(0))
    assert InvariantReport.of(phi).a == a_total_by_curves(phi)


def test_a_total_examples():
    assert InvariantReport.of(d_type_family(3, 2)).a == (F(3), F(0))
    assert InvariantReport.of(two_piece_map()).a == (F(1), F(0))


def test_a_total_consistency_random():
    rng = random.Random(11)
    for _ in range(200):
        phi = random_reducible_map(rng)
        assert validate(phi) == []
        assert InvariantReport.of(phi).a == a_total_by_curves(phi)


def test_pi_examples():
    assert InvariantReport.of(d_type_family(3, 2)).pi == {(F(1), F(0)), (F(1, 3), F(0))}
    sym = ReducibleMap(
        (Piece("a", Surface(1, 1), ("s",)), Piece("b", Surface(1, 1), ("t",))),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), F(1)),),
    )
    assert InvariantReport.of(sym).pi == {(F(1), F(0))}


def test_p_polynomial_d_family():
    for k in (2, 3):
        d = d_type_family(3, k)
        p = dict(InvariantReport.of(d).p)
        assert p[(F(1), F(0))] == F(1, 2 * k)
        assert p[(F(1, 2 * k - 1), F(0))] == F(2 * k - 1, 2 * k)
        value = p_polynomial_eval(p, 1, 1)
        a = InvariantReport.of(d).a
        chi = d.chi
        assert value == (2 * a[0] / -chi, 2 * a[1] / -chi)


def test_p_polynomial_properties_random():
    rng = random.Random(13)
    for _ in range(100):
        phi = random_reducible_map(rng)
        p = dict(InvariantReport.of(phi).p)
        assert sum(p.values()) == 1
        a = InvariantReport.of(phi).a
        chi = phi.chi
        assert p_polynomial_eval(p, 1, 1) == (2 * a[0] / -chi, 2 * a[1] / -chi)


def test_power_laws():
    rng = random.Random(17)
    for _ in range(50):
        phi = random_reducible_map(rng)
        a = InvariantReport.of(phi).a
        pi = InvariantReport.of(phi).pi
        for k in range(1, 11):
            pk = power(phi, k)
            assert all(c.twist == k * o.twist for c, o in zip(pk.curves, phi.curves))
            assert InvariantReport.of(pk).a == (a[0] / k, a[1] / k)
            assert InvariantReport.of(pk).pi == {(p / k, q / k) for p, q in pi}


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


def test_power_shares_twists():
    phi = ReducibleMap(
        (Piece("a", Surface(1, 2), ("s1", "s2")), Piece("b", Surface(1, 2), ("t1", "t2"))),
        (
            ReducingCurve("c1", ("a", "s1"), ("b", "t1"), F(2, 3)),
            ReducingCurve("c2", ("a", "s2"), ("b", "t2"), F(2, 3)),
        ),
    )
    p3 = power(phi, 3)
    assert [c.twist for c in p3.curves] == [F(2), F(2)]
    assert p3.curves[0].twist is p3.curves[1].twist
    assert validate(p3) == []


def test_every_builder_makes_reducing_curves():
    """Curves are ``ReducingCurve`` named tuples from every builder, their
    repr the text the frozen dataclass printed, and ``_replace`` a copy
    with one field changed."""
    phi, star = d_type_family(3, 2), d_type_family(20, 2)  # read field by field, and as columns
    double = CoveringData(tuple((p.id, (ComponentCover(2, tuple((s, (1, 1)) for s in p.slots)),)) for p in phi.pieces))
    graphs = {
        "families": [phi, twist_composition(2)],
        "power": [power(phi, 3)],
        "reader": [ser.reducible_from_doc(ser.reducible_doc(g)) for g in (phi, star)],
        "lift": [lift_cover(phi, double), normalize_unit_twists(power(phi, 3))[0]],
        "refiber": [refiber(bounded_chain_manifold(), bounded_chain_plan(2)).map],
    }
    for source, built in graphs.items():
        for g in built:
            assert g.curves and {type(c) for c in g.curves} == {ReducingCurve}, source
            for c in g.curves:
                assert repr(c) == "ReducingCurve(id=%r, end_a=%r, end_b=%r, twist=%r)" % (
                    c.id, c.end_a, c.end_b, c.twist), source
    assert repr(phi.curves[1]) == (
        "ReducingCurve(id='c1', end_a=('hub', 'h1'), end_b=('leaf1', 's'), twist=Fraction(1, 1))")
    c = phi.curves[0]
    changed = c._replace(twist=F(-3, 2))
    assert type(changed) is ReducingCurve and changed != c
    assert (changed.id, changed.ends, changed.twist) == (c.id, c.ends, F(-3, 2))
    assert c._replace(twist=F(1)) == c and c.twist == F(1)


def test_negation_flips_everything():
    rng = random.Random(19)
    for _ in range(100):
        phi = random_reducible_map(rng)
        neg = negate_twists(phi)
        a = InvariantReport.of(phi).a
        assert InvariantReport.of(neg).a == (a[1], a[0])
        for p in phi.pieces:
            ap = phi.pairs[p.id]
            assert neg.pairs[p.id] == (ap[1], ap[0])
        assert InvariantReport.of(neg).pi == {(q, p) for p, q in InvariantReport.of(phi).pi}


@pytest.mark.parametrize("field", ["exponent", "rotation"])
def test_label_rationals_are_exact(field):
    """An int or a Fraction is stored as a Fraction; a float, a bool or a
    string is refused by the field's name, never stored as its binary value."""
    label = DilatationLabel(name="x", **{field: 2})
    assert type(getattr(label, field)) is F and getattr(label, field) == 2
    assert DilatationLabel(name="x", **{field: F(1, 10)}) == DilatationLabel(name="x", **{field: F(1, 10)})
    for bad in (0.1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="^%s must be an int or a Fraction, got " % field):
            DilatationLabel(name="x", **{field: bad})


def test_dilatation_label_invariants():
    with pytest.raises(ValueError):
        DilatationLabel()
    with pytest.raises(ValueError):
        DilatationLabel(unit=fundamental_unit(5), name="x")
