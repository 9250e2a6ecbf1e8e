import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest

from fibercomm.comparator import InvariantReport
from fibercomm.decomposition import power, validate
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_alternate_plan,
    closed_chain_manifold,
    closed_chain_plan,
    solve_staircase_base,
)
from fibercomm.quadratic import ResourceLimit
from fibercomm.staircase import (
    BundlePiece,
    FiberedGraphManifold,
    Gluing,
    PiecePlan,
    RefiberPlan,
    refiber,
    staircase_piece,
)
from fibercomm.surfaces import Surface


# ---------------------------------------------------------------------------
# independent combinatorial oracle for the cyclic-cover formulas

def cyclic_cover_oracle(surface, k, n):
    """Genus and boundary of the n-sheet cover built by explicit gluing.

    Take n copies of the surface cut along the k arcs (cutting along an
    arc with endpoints on the boundary raises chi by one), then glue
    the right bank of each arc in copy i to the left bank in copy i+1
    (each interval gluing lowers chi by one).  Boundary circles are
    traced literally: a circle carrying an arc endpoint is cut into a
    segment whose continuation lies in the next copy, so its preimage
    circles are the orbits of the shift i -> i+1; untouched circles
    close up in their own copy.
    """
    chi_cut = surface.chi + k
    chi = n * chi_cut - n * k

    boundary = 0
    touched = 2 * k  # each arc touches two distinct circles
    for circle in range(surface.boundary_components):
        if circle < touched:
            # orbit structure of the shift permutation on the copies
            perm = {i: (i + 1) % n for i in range(n)}
        else:
            perm = {i: i for i in range(n)}
        seen = set()
        for start in perm:
            if start in seen:
                continue
            boundary += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]

    genus2 = 2 - chi - boundary
    assert genus2 >= 0 and genus2 % 2 == 0
    return genus2 // 2, boundary


def test_staircase_formulas_against_oracle():
    for g, b, k, n in itertools.product(range(5), range(6), range(3), range(1, 7)):
        if 2 * k > b or 2 - 2 * g - b >= 0:
            continue
        surface = Surface(g, b)
        arcs = tuple(("b%d" % (2 * i), "b%d" % (2 * i + 1)) for i in range(k))
        res = staircase_piece(surface, PiecePlan(n, arcs))
        if k == 0:
            # the cover falls apart into n untouched copies
            assert res.copies == n and res.surface == surface
        else:
            want_genus, want_boundary = cyclic_cover_oracle(surface, k, n)
            assert res.copies == 1
            assert (res.surface.genus, res.surface.boundary_components) == (
                want_genus,
                want_boundary,
            )
        total_chi = res.copies * res.surface.chi
        assert total_chi == n * surface.chi


def test_staircase_published_shapes():
    res = staircase_piece(Surface(1, 3), PiecePlan(2, (("b0", "b1"),)))
    assert (res.surface.genus, res.surface.boundary_components) == (2, 4)
    res = staircase_piece(Surface(1, 2), PiecePlan(3, (("b0", "b1"),)))
    assert (res.surface.genus, res.surface.boundary_components) == (3, 2)
    res = staircase_piece(Surface(2, 1), PiecePlan(4))
    assert res.copies == 4 and res.surface == Surface(2, 1)


def test_boundary_lift_slopes_and_rates():
    res = staircase_piece(Surface(1, 3), PiecePlan(4, (("b0", "b2"),)))
    tail, head, horiz = res.lifts["b0"], res.lifts["b2"], res.lifts["b1"]
    assert tail.slope == (4, -1) and tail.rate == F(-1, 4) and tail.count == 1
    assert head.slope == (4, 1) and head.rate == F(1, 4) and head.count == 1
    assert horiz.slope == (1, 0) and horiz.count == 4


def test_plan_validation_errors():
    with pytest.raises(ValueError, match="same boundary"):
        PiecePlan(2, (("b0", "b0"),))
    with pytest.raises(ValueError, match="more than one arc"):
        PiecePlan(2, (("b0", "b1"), ("b1", "b2")))
    # the first boundary named twice, in arc-end order
    with pytest.raises(ValueError, match="^boundary 'b2' used by more than one arc end$"):
        PiecePlan(2, (("b0", "b2"), ("b3", "b1"), ("b2", "b1")))
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got 0$"):
        PiecePlan(0)
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got -3$"):
        PiecePlan(-3)
    with pytest.raises(ValueError, match="not a boundary"):
        staircase_piece(Surface(1, 2), PiecePlan(2, (("b0", "zz"),)))
    for plan in (bounded_chain_plan, closed_chain_plan):
        with pytest.raises(ValueError, match="^n >= 1$"):
            plan(0)


def test_bundle_piece_needs_a_torus_name_per_boundary_circle():
    # the document reader derives the surface from the names, so only a library caller gets here
    with pytest.raises(ValueError, match=r"^piece A: 1 torus names for 2 boundary circles$"):
        BundlePiece("A", Surface(1, 2), ("t",))


def refused(m, plan):
    """The text of ``refiber``'s refusal of a plan."""
    with pytest.raises(ValueError) as e:
        refiber(m, plan)
    return str(e.value)


def test_validate_plan_slopes():
    m = bounded_chain_manifold()
    refiber(m, bounded_chain_plan(2))
    # wrong sheet count on the third piece: slope mismatch at g
    bad = RefiberPlan(
        (
            ("S1", PiecePlan(2)),
            ("S2", PiecePlan(2, (("e2", "g"),))),
            ("S3", PiecePlan(2, (("g", "e3"),))),
        )
    )
    assert refused(m, bad) == "inadmissible plan: gluing g: image (-3, 1) of slope (2, 1) does not match (2, -1)"
    # unequal sheet counts across a horizontal junction
    unequal = RefiberPlan(
        (
            ("S1", PiecePlan(2)),
            ("S2", PiecePlan(3, (("e2", "g"),))),
            ("S3", PiecePlan(4, (("g", "e3"),))),
        )
    )
    assert refused(m, unequal) == "inadmissible plan: gluing f: unequal sheet counts (2 and 3 circles)"
    # a piece without a plan entry is named
    missing = RefiberPlan(bounded_chain_plan(2).per_piece[:2])
    assert refused(m, missing) == "inadmissible plan: piece S3: no plan entry"


def test_refusal_order():
    """The size limit, then every piece fault, then every junction fault,
    then the first junction of shear 0."""
    m = bounded_chain_manifold()
    s1, _, s3 = bounded_chain_plan(2).per_piece
    off_boundary = ("S2", PiecePlan(2, (("e2", "zz"),)))
    with pytest.raises(ResourceLimit, match="^the refibered graph has more than 250000 pieces and boundary circles$"):
        refiber(m, RefiberPlan((("S1", PiecePlan(300_000)), off_boundary, s3)))
    assert refused(m, RefiberPlan((s1, off_boundary))) == (
        "inadmissible plan: piece S2: arc endpoint 'zz' is not a boundary circle; piece S3: no plan entry"
    )
    f, g = m.gluings
    no_shear = ((-1, 0), (0, 1))
    both = FiberedGraphManifold(m.pieces, (replace(f, matrix=no_shear), replace(g, matrix=no_shear)))
    assert refused(both, bounded_chain_plan(2)) == (
        "inadmissible plan: gluing g: image (-2, 1) of slope (2, 1) does not match (3, -1)"
    )
    first = FiberedGraphManifold(m.pieces, (replace(f, matrix=no_shear), g))
    assert refused(first, bounded_chain_plan(2)) == "gluing f produces a trivially twisted junction"
    # every junction fault is named, in gluing order, past a shear-0 gluing
    unequal = RefiberPlan((("S1", PiecePlan(3)), ("S2", PiecePlan(2, (("e2", "g"),))), s3))
    assert refused(both, unequal) == (
        "inadmissible plan: gluing f: unequal sheet counts (3 and 2 circles); "
        "gluing g: image (-2, 1) of slope (2, 1) does not match (3, -1)"
    )


def test_junction_circle_counts_must_agree():
    """An uncalibrated matrix can carry a horizontal circle to an arc end:
    n circles on one side, one on the other, refused either way round."""
    a = BundlePiece("A", Surface(1, 1), ("t",))
    b = BundlePiece("B", Surface(1, 2), ("t", "u"))
    plan = RefiberPlan((("A", PiecePlan(2)), ("B", PiecePlan(2, (("u", "t"),)))))
    for gluing, counts in ((Gluing("j", ("A", "t"), ("B", "t"), ((2, 1), (1, 1))), "(2 and 1 circles)"),
                           (Gluing("j", ("B", "t"), ("A", "t"), ((1, -1), (-1, 2))), "(1 and 2 circles)")):
        m = FiberedGraphManifold((a, b), (gluing,))
        assert refused(m, plan) == "inadmissible plan: gluing j: unequal sheet counts %s" % counts
    # one circle on each side: the twist is -sigma / n of side a, as before
    m = FiberedGraphManifold((a, b), (Gluing("j", ("A", "t"), ("B", "t"), ((2, 1), (1, 1))),))
    r = refiber(m, RefiberPlan((("A", PiecePlan(1)), ("B", PiecePlan(2, (("u", "t"),))))))
    assert [(c.end_a, c.end_b, c.twist) for c in r.map.curves] == [(("A", "t"), ("B", "t"), F(-1))]
    assert r.uncalibrated == ("j",) and r.monodromy_order == 2


def test_identity_plan_reproduces_fibration():
    m = bounded_chain_manifold()
    plan = RefiberPlan((("S1", PiecePlan(1)), ("S2", PiecePlan(1)), ("S3", PiecePlan(1))))
    r = refiber(m, plan)
    assert r.monodromy_order == 1
    assert [c.twist for c in r.map.curves] == [F(1), F(1)]
    assert sorted(p.surface for p in r.map.pieces) == [Surface(1, 1), Surface(1, 2), Surface(1, 3)]
    assert r.connected and r.fiber == Surface(3, 2)


def test_bounded_chain_family():
    m = bounded_chain_manifold()
    for n in range(1, 6):
        r = refiber(m, bounded_chain_plan(n))
        assert validate(r.map) == []
        assert r.connected
        assert InvariantReport.of(r.map).pi == {
            (F(n), F(0)),
            (F(2 * n + 1, 3), F(0)),
            (F(n, 2), F(0)),
        }
        # two horizontal junction curves of twist 1/n plus one staircase
        # junction of twist 1/(n(n+1))
        assert r.monodromy_order == n * (n + 1)
        chi = sum(p.surface.chi for p in r.map.pieces)
        assert chi == n * (-1) + n * (-3) + (n + 1) * (-2)


def test_bounded_chain_twists_and_power():
    r = refiber(bounded_chain_manifold(), bounded_chain_plan(2))
    assert sorted(c.twist for c in r.map.curves) == [F(1, 6), F(1, 2), F(1, 2)]
    assert r.monodromy_order == 6
    p = power(r.map, r.monodromy_order)
    assert sorted(set(c.twist for c in p.curves)) == [F(1), F(3)]
    assert all(c.twist.denominator == 1 for c in p.curves)


def test_d_power_always_integral():
    m = bounded_chain_manifold()
    for n in range(1, 6):
        r = refiber(m, bounded_chain_plan(n))
        p = power(r.map, r.monodromy_order)
        assert all(c.twist.denominator == 1 for c in p.curves)
    m = closed_chain_manifold()
    for n in range(1, 5):
        r = refiber(m, closed_chain_plan(n))
        p = power(r.map, r.monodromy_order)
        assert all(c.twist.denominator == 1 for c in p.curves)


def test_closed_chain_family():
    m = closed_chain_manifold()
    for n in range(1, 5):
        r = refiber(m, closed_chain_plan(n))
        assert r.connected
        assert r.fiber == Surface(6 * n + 8, 0)
        assert InvariantReport.of(r.map).pi == {
            (F(n, 12), F(n, 12)),
            (F(3 * n + 4, 8), F(3 * n + 4, 8)),
            (F(n, 2), F(n, 2)),
        }


def test_closed_chain_alternate_fibration():
    r = refiber(closed_chain_manifold(), closed_chain_alternate_plan())
    assert r.fiber == Surface(20, 0)
    assert r.monodromy_order == 12
    assert InvariantReport.of(r.map).pi == {
        (F(1, 4), F(1, 4)),
        (F(11, 8), F(11, 8)),
        (F(3, 2), F(3, 2)),
    }
    p = power(r.map, 12)
    assert sorted(set(c.twist for c in p.curves)) == [F(-8), F(-1), F(1), F(8)]


def test_refibered_curves_of_equal_twist_share_one_fraction():
    # a chain of 60 pieces, every gluing of shear -1, at one sheet
    pieces = tuple(BundlePiece("P%d" % i, Surface(1, 2), ("l", "r")) for i in range(60))
    gluings = tuple(Gluing("g%d" % i, ("P%d" % i, "r"), ("P%d" % (i + 1), "l"), ((-1, -1), (0, 1))) for i in range(59))
    plan = RefiberPlan(tuple((p.id, PiecePlan(1)) for p in pieces))
    runs = [(bounded_chain_manifold(), bounded_chain_plan(3)), (closed_chain_manifold(), closed_chain_plan(2)),
            (closed_chain_manifold(), closed_chain_alternate_plan()), (FiberedGraphManifold(pieces, gluings), plan)]
    for m, plan in runs:
        curves = refiber(m, plan).map.curves
        assert len({id(c.twist) for c in curves}) == len({c.twist for c in curves})
    assert len(curves) == 59 and {c.twist for c in curves} == {F(1)}


def test_pieces_of_one_shape_share_one_pair_and_one_slots_tuple():
    """One staircase per piece shape: pieces glued alike share one slots
    tuple, pieces of equal reciprocal-twist sums one pair, and the copies
    of a piece that falls apart one slots tuple and one surface."""
    pieces = tuple(BundlePiece("P%d" % i, Surface(1, 2), ("l", "r")) for i in range(60))
    gluings = tuple(Gluing("g%d" % i, ("P%d" % i, "r"), ("P%d" % (i + 1), "l"), ((-1, -1), (0, 1))) for i in range(59))
    phi = refiber(FiberedGraphManifold(pieces, gluings), RefiberPlan(tuple((p.id, PiecePlan(1)) for p in pieces))).map
    inner = phi.pieces[1:-1]
    assert len({id(p.slots) for p in inner}) == 1 and inner[0].slots == ("l", "r")
    assert len({id(phi.pairs[p.id]) for p in inner}) == 1 and phi.pairs[inner[0].id] == (F(2), F(0))
    assert phi.pairs["P0"] == phi.pairs["P59"] == (F(1), F(0)) and phi.pairs["P0"] is phi.pairs["P59"]
    copies = [p for p in refiber(bounded_chain_manifold(), bounded_chain_plan(5)).map.pieces if p.id.startswith("S1~")]
    assert len(copies) == 5 and len({id(p.slots) for p in copies}) == len({id(p.surface) for p in copies}) == 1


def test_lists_refiber_as_tuples():
    """Boundary names, plan entries and arcs given as lists, as the
    constructors accept them, give the graph and report of tuples."""
    m, plan = closed_chain_manifold(), closed_chain_alternate_plan()
    listed = FiberedGraphManifold([BundlePiece(p.id, p.surface, list(p.boundaries)) for p in m.pieces], list(m.gluings))
    listed_plan = RefiberPlan([(pid, PiecePlan(e.n, [list(arc) for arc in e.arcs])) for pid, e in plan.per_piece])
    r, s = refiber(m, plan), refiber(listed, listed_plan)
    assert s.map == r.map and (s.fiber, s.connected, s.monodromy_order) == (r.fiber, r.connected, r.monodromy_order)
    assert InvariantReport.of(s.map) == InvariantReport.of(r.map)


def test_a_faulty_shape_is_named_for_each_piece():
    """One staircase per shape, but a shape's fault is reported for every
    piece that has it, in piece order, beside a piece with no entry."""
    pieces = tuple(BundlePiece(pid, Surface(1, 2), ("l", "r")) for pid in ("A", "B", "C", "D"))
    gluings = (Gluing("g", ("A", "r"), ("B", "l"), ((-1, 1), (0, 1))),)
    off = PiecePlan(2, (("l", "zz"),))
    plan = RefiberPlan((("A", off), ("B", PiecePlan(1)), ("D", PiecePlan(2, [["l", "zz"]]))))
    assert refused(FiberedGraphManifold(pieces, gluings), plan) == (
        "inadmissible plan: piece A: arc endpoint 'zz' is not a boundary circle; piece C: no plan entry; "
        "piece D: arc endpoint 'zz' is not a boundary circle"
    )


def test_refibered_names_that_collide_are_refused_by_validate():
    """Unlike a lift's, refibered names can collide: a copy "A~0" beside
    a piece named "A~0", and a slot "t~0" of a torus that lifts to two
    circles beside a torus named "t~0".  ``validate`` refuses both."""
    shear = ((-1, 1), (0, 1))
    a = BundlePiece("A", Surface(1, 1), ("t",))
    m = FiberedGraphManifold((a, BundlePiece("A~0", Surface(1, 3), ("t", "x", "y"))),
                             (Gluing("j", ("A", "t"), ("A~0", "t"), shear),))
    phi = refiber(m, RefiberPlan((("A", PiecePlan(2)), ("A~0", PiecePlan(2, (("x", "y"),)))))).map
    assert [p.id for p in phi.pieces] == ["A~0", "A~1", "A~0"]
    with pytest.raises(ValueError, match=r"^invalid decomposition graph: duplicate piece ids$"):
        InvariantReport.of(phi)
    b, c = BundlePiece("B", Surface(1, 3), ("t", "t~0", "x")), BundlePiece("C", Surface(1, 2), ("s", "z"))
    m = FiberedGraphManifold((a, b, c), (Gluing("j", ("B", "t"), ("A", "t"), shear),
                                         Gluing("k", ("B", "t~0"), ("C", "s"), ((3, 4), (2, 3)))))
    plan = RefiberPlan((("A", PiecePlan(2)), ("B", PiecePlan(2, (("t~0", "x"),))), ("C", PiecePlan(2, (("z", "s"),)))))
    phi = refiber(m, plan).map
    assert phi.piece("B").slots == ("t~0", "t~1", "t~0")
    with pytest.raises(ValueError) as e:
        InvariantReport.of(phi)
    assert str(e.value) == (
        "invalid decomposition graph: piece B repeats slot t~0; slot B.t~0 used by 2 curve ends (expected 1)"
    )


def test_uncalibrated_gluing_flagged():
    pieces = (
        BundlePiece("A", Surface(1, 1), ("t",)),
        BundlePiece("B", Surface(1, 1), ("t",)),
    )
    # not in the normal form g(1,0) = (-1,0), g(0,1) = (sigma, 1)
    gluing = Gluing("j", ("A", "t"), ("B", "t"), ((1, 1), (0, 1)))
    m = FiberedGraphManifold(pieces, (gluing,))
    plan = RefiberPlan((("A", PiecePlan(1)), ("B", PiecePlan(1))))
    r = refiber(m, plan)
    assert r.uncalibrated == ("j",)
    calibrated = FiberedGraphManifold(
        pieces, (Gluing("j", ("A", "t"), ("B", "t"), ((-1, 1), (0, 1))),)
    )
    assert refiber(calibrated, plan).uncalibrated == ()


def test_disconnected_fiber_reported():
    pieces = (
        BundlePiece("A", Surface(1, 2), ("t", "e")),
        BundlePiece("B", Surface(1, 2), ("t", "e")),
    )
    m = FiberedGraphManifold(pieces, (Gluing("j", ("A", "t"), ("B", "t"), ((-1, 1), (0, 1))),))
    plan = RefiberPlan((("A", PiecePlan(2)), ("B", PiecePlan(2))))
    r = refiber(m, plan)
    # two parallel junction curves join copy i of A to copy i of B only,
    # so the refibered surface has two components
    assert not r.connected
    assert r.fiber is None
    assert len(r.map.curves) == 2
    # a single sheet everywhere keeps the fiber in one piece
    single = RefiberPlan((("A", PiecePlan(1)), ("B", PiecePlan(1))))
    assert refiber(m, single).connected


def test_solve_staircase_base():
    assert (Surface(1, 3), 1) in solve_staircase_base(2, 4, 2)
    assert (Surface(1, 2), 1) in solve_staircase_base(3, 2, 3)
    sols = solve_staircase_base(12, 2, 4)  # staircase of Sigma_{3,2} with one arc
    assert (Surface(3, 2), 1) in sols
