import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import random_reducible_map
from oracles import brute_force_feasible, fundamental_unit, negate_twists
from fibercomm.comparator import (
    COMBINED,
    FULL,
    INCOMMENSURABLE,
    NOT_OBSTRUCTED,
    TOPOLOGICAL,
    InvariantReport,
    compare,
    compare_reports,
)
from fibercomm.cover import ComponentCover, CoveringData, lift_cover
from fibercomm.decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve, power
from fibercomm.families import d_type_family, twist_composition
from fibercomm.surfaces import Surface


def test_power_scaling_feasible_set():
    phi = d_type_family(2, 2)
    x = InvariantReport.of(phi)
    y = InvariantReport.of(power(phi, 2))
    assert compare_reports(x, y).feasible == {F(1, 2)}


def test_flip_branch():
    phi = d_type_family(3, 2)
    x = InvariantReport.of(phi)
    y = InvariantReport.of(negate_twists(phi))
    assert F(1) in compare_reports(x, y).feasible


def test_pi_obstruction_with_equal_a():
    # both maps have A = (1, 1) but incompatible Pi sets
    from fibercomm.decomposition import Piece, ReducibleMap, ReducingCurve
    from fibercomm.surfaces import Surface

    def graph(middle, free):
        return ReducibleMap(
            (
                Piece("p1", Surface(1, 1), ("a1",)),
                Piece("p2", middle, ("b1", "b2"), free),
                Piece("p3", Surface(1, 1), ("c1",)),
            ),
            (
                ReducingCurve("u", ("p1", "a1"), ("p2", "b1"), F(1)),
                ReducingCurve("v", ("p2", "b2"), ("p3", "c1"), F(-1)),
            ),
        )

    phi1 = graph(Surface(1, 2), 0)
    phi2 = graph(Surface(1, 4), 2)
    x, y = InvariantReport.of(phi1), InvariantReport.of(phi2)
    assert x.a == y.a == (F(1), F(1))
    assert compare_reports(x, y).feasible == set()
    assert compare(phi1, phi2, FULL).kind == INCOMMENSURABLE


def test_compare_never_obstructs_powers():
    rng = random.Random(23)
    for _ in range(100):
        phi = random_reducible_map(rng)
        for k in (2, 3, 5):
            assert compare(phi, power(phi, k), FULL).kind == NOT_OBSTRUCTED


def test_compare_d_family():
    for n in range(1, 5):
        for m in range(1, 5):
            assert compare(d_type_family(n, 2), d_type_family(m, 2), FULL).kind == NOT_OBSTRUCTED
            assert compare(d_type_family(n, 2), d_type_family(m, 3), FULL).kind == INCOMMENSURABLE


def test_topological_mode():
    phi = d_type_family(2, 2)
    assert compare(phi, d_type_family(5, 2), TOPOLOGICAL).kind == NOT_OBSTRUCTED
    assert compare(phi, negate_twists(phi), TOPOLOGICAL).kind == NOT_OBSTRUCTED
    # powers change the normalized invariants, so the covers-only test obstructs
    assert compare(phi, power(phi, 2), TOPOLOGICAL).kind == INCOMMENSURABLE


def test_combined_mode_twist_composition():
    for k1 in range(1, 7):
        for k2 in range(1, 7):
            v = compare(twist_composition(k1), twist_composition(k2), COMBINED)
            if k1 == k2:
                assert v.kind == NOT_OBSTRUCTED and v.feasible == {F(1)}
            else:
                assert v.kind == INCOMMENSURABLE


def test_combined_mode_symbol_mismatch():
    a = twist_composition(2, name="lam")
    b = twist_composition(2, name="mu")
    assert compare(a, b, COMBINED).kind == INCOMMENSURABLE


def test_unknown_mode():
    phi = d_type_family(1, 2)
    with pytest.raises(ValueError):
        compare(phi, phi, "bogus")


def test_compare_is_symmetric_on_verdicts():
    rng = random.Random(29)
    for _ in range(50):
        phi = random_reducible_map(rng)
        psi = random_reducible_map(rng)
        v1 = compare(phi, psi, FULL)
        v2 = compare(psi, phi, FULL)
        assert v1.incommensurable == v2.incommensurable
        if not v1.incommensurable:
            assert {1 / s for s in v1.feasible} == set(v2.feasible)


@pytest.mark.parametrize(
    "label", [DilatationLabel(unit=fundamental_unit(5)), DilatationLabel(name="lam")], ids=["exact", "symbolic"]
)
def test_rotation_does_not_change_stretch_factor(label):
    # two pseudo-Anosov pieces share one stretch factor; only the
    # boundary rotations of their labels differ between the graphs
    def graph(r1, r2):
        pieces = (
            Piece("p", Surface(1, 1), ("s",), dilatation=replace(label, rotation=r1)),
            Piece("q", Surface(1, 1), ("s",), dilatation=replace(label, rotation=r2)),
        )
        return ReducibleMap(pieces, (ReducingCurve("c", ("p", "s"), ("q", "s"), F(1)),))

    mixed, same = graph(F(1, 3), F(2, 3)), graph(F(1, 3), F(1, 3))
    for mode in (FULL, TOPOLOGICAL, COMBINED):
        assert compare(mixed, same, mode).kind == NOT_OBSTRUCTED
        assert compare(same, mixed, mode).kind == NOT_OBSTRUCTED


def with_pseudo_anosov_pieces(rng, phi):
    """phi with about half its pieces made pseudo-Anosov, some sharing a
    field or a name, with assorted boundary rotations."""
    u5, u2 = fundamental_unit(5), fundamental_unit(2)
    labels = [
        DilatationLabel(unit=u5),
        DilatationLabel(unit=u5 ** 2),
        DilatationLabel(unit=u2),
        DilatationLabel(name="lam"),
        DilatationLabel(name="lam", exponent=F(3, 2)),
        DilatationLabel(name="mu"),
    ]
    pieces = tuple(
        replace(p, dilatation=replace(rng.choice(labels), rotation=rng.choice((None, F(1, 3), F(1, 2)))))
        if rng.random() < 0.5
        else p
        for p in phi.pieces
    )
    return replace(phi, pieces=pieces)


def uniform_cover(rng, phi):
    """Degree L over every piece, one component each; each curve gets a
    local degree d dividing L on both of its ends."""
    L = rng.choice((1, 2, 3, 4, 6))
    d = {c.id: rng.choice([x for x in (1, 2, 3) if L % x == 0]) for c in phi.curves}
    curve_at = {end: c for c in phi.curves for end in c.ends}
    comps = []
    for p in phi.pieces:
        parts = []
        for s in p.slots:
            ds = d[curve_at[p.id, s].id]
            parts.append((s, (ds,) * (L // ds)))
        comps.append((p.id, (ComponentCover(L, tuple(parts)),)))
    return CoveringData(tuple(comps))


def test_lifted_power_never_obstructs():
    # topological mode pins s = 1, so it sees covers only: k = 1 there
    # (test_topological_mode shows a power obstructing in that mode)
    rng = random.Random(47)
    tested = 0
    pseudo_anosov = 0
    while tested < 60:
        phi = with_pseudo_anosov_pieces(rng, random_reducible_map(rng, max_part=6))
        k = rng.randint(1, 3)
        phik = power(phi, k)
        try:
            lifted = lift_cover(phik, uniform_cover(rng, phik))
        except ValueError:  # no covered surface of the right genus parity
            continue
        for mode in (FULL, COMBINED) if k > 1 else (FULL, TOPOLOGICAL, COMBINED):
            v = compare(phi, lifted, mode)
            assert v.kind == NOT_OBSTRUCTED, (mode, k)
            assert F(1, k) in v.feasible
        tested += 1
        pseudo_anosov += bool(phi.dilatation_set)
    assert pseudo_anosov > 30


def exact_twist_composition(k, j, D=5):
    """``twist_composition(k)`` with the exact stretch factor eps**j of Q(sqrt D)."""
    phi = twist_composition(k)
    pieces = tuple(
        replace(p, dilatation=DilatationLabel(unit=fundamental_unit(D) ** j, rotation=p.dilatation.rotation))
        if p.dilatation
        else p
        for p in phi.pieces
    )
    return replace(phi, pieces=pieces)


def star(genera):
    """A hub Sigma_{1,n} joined by +1 twists to one-holed leaves of the given genera.

    The Pi set depends only on the set of genera, the normalized A also
    on how often each occurs.
    """
    n = len(genera)
    pieces = [Piece("hub", Surface(1, n), tuple("h%d" % i for i in range(n)))]
    curves = []
    for i, g in enumerate(genera):
        pieces.append(Piece("leaf%d" % i, Surface(g, 1), ("s",)))
        curves.append(ReducingCurve("c%d" % i, ("hub", "h%d" % i), ("leaf%d" % i, "s"), F(1)))
    return ReducibleMap(tuple(pieces), tuple(curves))


def test_feasible_set_matches_brute_force():
    rng = random.Random(61)
    pairs = []
    for _ in range(40):
        phi = random_reducible_map(rng, max_part=6)
        if rng.random() < 0.6:
            phi = with_pseudo_anosov_pieces(rng, phi)
        k = rng.randint(2, 4)
        pairs += [(phi, power(phi, k)), (phi, negate_twists(power(phi, k))), (phi, random_reducible_map(rng))]
        # equal Pi, stretch factors on other pieces
        pairs.append((phi, with_pseudo_anosov_pieces(rng, phi)))
        try:
            pairs.append((phi, lift_cover(power(phi, k), uniform_cover(rng, power(phi, k)))))
        except ValueError:  # no covered surface of the right genus parity
            pass
    for k1 in range(1, 4):
        for k2 in range(1, 4):
            pairs += [
                (twist_composition(k1), power(twist_composition(k2), k1)),
                (twist_composition(k1), twist_composition(k2, name="mu")),
                (exact_twist_composition(k1, k2), power(exact_twist_composition(k1, k1), k2)),
                (exact_twist_composition(k1, 1), exact_twist_composition(k2, 1, D=2)),
                (exact_twist_composition(k1, 1), twist_composition(k2)),
                (d_type_family(k1, 2), d_type_family(k2, k2)),
                (star([2] * k1 + [3]), star([2] + [3] * k2)),
            ]
    kinds = {}
    for phi, psi in pairs + [(psi, phi) for phi, psi in pairs]:
        x, y = InvariantReport.of(phi), InvariantReport.of(psi)
        for mode in (FULL, TOPOLOGICAL, COMBINED):
            v = compare(phi, psi, mode)
            assert v.feasible == brute_force_feasible(x, y, mode), (mode, phi, psi)
            assert len(v.feasible) <= 1
            kinds[mode, v.kind] = kinds.get((mode, v.kind), 0) + 1
    assert len(kinds) == 6 and min(kinds.values()) > 20, kinds
