import itertools
from fractions import Fraction as F

import pytest

from fibercomm.decomposition import a_total, pi_invariant, power, validate
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_alternate_plan,
    closed_chain_manifold,
    closed_chain_plan,
    solve_staircase_base,
)
from fibercomm.staircase import (
    BundlePiece,
    FiberedGraphManifold,
    Gluing,
    PiecePlan,
    RefiberPlan,
    refiber,
    staircase_piece,
    validate_plan,
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
    tail, head, horiz = res.lift("b0"), res.lift("b2"), res.lift("b1")
    assert tail.slope == (4, -1) and tail.rate == F(-1, 4) and tail.count == 1
    assert head.slope == (4, 1) and head.rate == F(1, 4) and head.count == 1
    assert horiz.slope == (1, 0) and horiz.count == 4


def test_plan_validation_errors():
    with pytest.raises(ValueError, match="same boundary"):
        PiecePlan(2, (("b0", "b0"),))
    with pytest.raises(ValueError, match="more than one arc"):
        PiecePlan(2, (("b0", "b1"), ("b1", "b2")))
    with pytest.raises(ValueError, match="not a boundary"):
        staircase_piece(Surface(1, 2), PiecePlan(2, (("b0", "zz"),)))


def test_validate_plan_slopes():
    m = bounded_chain_manifold()
    assert validate_plan(m, bounded_chain_plan(2)) == []
    # wrong sheet count on the third piece: slope mismatch at g
    bad = RefiberPlan(
        (
            ("S1", PiecePlan(2)),
            ("S2", PiecePlan(2, (("e2", "g"),))),
            ("S3", PiecePlan(2, (("g", "e3"),))),
        )
    )
    errors = validate_plan(m, bad)
    assert errors and "does not match" in errors[0]
    # unequal sheet counts across a horizontal junction
    unequal = RefiberPlan(
        (
            ("S1", PiecePlan(2)),
            ("S2", PiecePlan(3, (("e2", "g"),))),
            ("S3", PiecePlan(4, (("g", "e3"),))),
        )
    )
    errors = validate_plan(m, unequal)
    assert errors and "unequal sheet counts" in errors[0]


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
        assert pi_invariant(r.map) == {
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
        assert pi_invariant(r.map) == {
            (F(n, 12), F(n, 12)),
            (F(3 * n + 4, 8), F(3 * n + 4, 8)),
            (F(n, 2), F(n, 2)),
        }


def test_closed_chain_alternate_fibration():
    r = refiber(closed_chain_manifold(), closed_chain_alternate_plan())
    assert r.fiber == Surface(20, 0)
    assert r.monodromy_order == 12
    assert pi_invariant(r.map) == {
        (F(1, 4), F(1, 4)),
        (F(11, 8), F(11, 8)),
        (F(3, 2), F(3, 2)),
    }
    p = power(r.map, 12)
    assert sorted(set(c.twist for c in p.curves)) == [F(-8), F(-1), F(1), F(8)]


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
