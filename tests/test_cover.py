import gc
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import random_d_type_map, random_reducible_map
from fibercomm import cover, decomposition, quadratic
from fibercomm.comparator import FULL, InvariantReport, compare, compare_reports
from fibercomm.cover import (
    ComponentCover,
    CoveringData,
    lift_cover,
    normalize_unit_twists,
    verify_cover_laws,
)
from fibercomm.decomposition import (
    Piece,
    ReducibleMap,
    ReducingCurve,
    validate,
)
from fibercomm.families import d_type_family
from fibercomm.surfaces import Surface
from oracles import cover_faults_by_scan, lift_cover_by_scan, normalize_by_retry


def two_piece_map(twist):
    return ReducibleMap(
        (Piece("a", Surface(1, 1), ("s",)), Piece("b", Surface(1, 1), ("t",))),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), twist),),
    )


def connected_double_cover(phi):
    """Degree-2 cover, connected over each piece, or None when the
    boundary parity admits no such cover with single-circle slots."""
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


def test_single_preimage_halves_twist():
    phi = ReducibleMap(
        (
            Piece("a", Surface(1, 2), ("s1", "s2")),
            Piece("b", Surface(1, 2), ("t1", "t2")),
        ),
        (
            ReducingCurve("c1", ("a", "s1"), ("b", "t1"), F(2)),
            ReducingCurve("c2", ("a", "s2"), ("b", "t2"), F(2)),
        ),
    )
    lifted = lift_cover(phi, connected_double_cover(phi))
    assert [c.twist for c in lifted.curves] == [F(1), F(1)]
    assert validate(lifted) == []
    # chi multiplies on each piece
    for p in phi.pieces:
        assert lifted.piece(p.id + "~0").surface.chi == 2 * p.surface.chi


def test_trivial_local_degrees_copy_curves():
    phi = two_piece_map(F(1))
    c = CoveringData(
        tuple((p.id, (ComponentCover(3, tuple((s, (1, 1, 1)) for s in p.slots)),)) for p in phi.pieces)
    )
    lifted = lift_cover(phi, c)
    assert len(lifted.curves) == 3
    assert all(curve.twist == F(1) for curve in lifted.curves)


def test_cyclic_cover_of_star_base_gives_star_family():
    """Degree-n cover of the one-leaf star reproduces the n-leaf star."""
    for n in (2, 3, 4):
        for k in (2, 3):
            base = d_type_family(1, k)
            c = CoveringData(
                (
                    ("hub", (ComponentCover(n, (("h0", (1,) * n),)),)),
                    ("leaf0", tuple(ComponentCover(1, (("s", (1,)),)) for _ in range(n))),
                )
            )
            lifted = lift_cover(base, c)
            target = d_type_family(n, k)
            assert sorted(p.surface for p in lifted.pieces) == sorted(
                p.surface for p in target.pieces
            )
            assert InvariantReport.of(lifted).a == InvariantReport.of(target).a
            assert InvariantReport.of(lifted).pi == InvariantReport.of(target).pi


def test_verify_cover_laws_pass():
    rng = random.Random(31)
    tested = 0
    while tested < 50:
        phi = random_reducible_map(rng, max_part=6)
        c = connected_double_cover(phi)
        if c is None:
            continue
        checks = verify_cover_laws(phi, c, lift_cover(phi, c))
        assert checks and all(ch.ok for ch in checks)
        tested += 1


def test_cover_laws_read_the_curves():
    rng = random.Random(61)
    tested = 0
    while tested < 10:
        phi = random_reducible_map(rng, max_part=6)
        c = connected_double_cover(phi)
        if c is None:
            continue
        lifted = lift_cover(phi, c)
        table = lifted.pairs
        # a wrong carried table is not read
        vars(lifted)["pairs"] = {pid: (F(7), F(7)) for pid in table}
        assert lifted.pairs != table  # the wrong table is the one carried
        assert all(ch.ok for ch in verify_cover_laws(phi, c, lifted))
        # one twist changed under a correct carried table is seen
        first = lifted.curves[0]
        bad = ReducibleMap(lifted.pieces, (first._replace(twist=2 * first.twist),) + lifted.curves[1:])
        vars(bad)["pairs"] = table
        checks = verify_cover_laws(phi, c, bad)
        wrong = {ch.piece for ch in checks if ch.law == "A multiplies by degree" and not ch.ok}
        assert wrong == {first.end_a[0], first.end_b[0]}
        tested += 1


def identity_cover(phi):
    return CoveringData(tuple((p.id, (ComponentCover(1, tuple((s, (1,)) for s in p.slots)),)) for p in phi.pieces))


@pytest.mark.parametrize("twist", [2, 0.5])
def test_twist_that_is_not_a_fraction_is_refused(twist):
    """A twist stored as an int or a float is named by ``validate``, so no
    consumer of the graph divides it into a float."""
    phi = two_piece_map(twist)
    message = "curve c: twist %r is not a Fraction" % (twist,)
    assert validate(phi) == [message]
    d = d_type_family(3, 2)
    mixed = ReducibleMap(d.pieces, (d.curves[0], d.curves[1]._replace(twist=twist), d.curves[2]))
    assert validate(mixed) == ["curve c1: twist %r is not a Fraction" % (twist,)]
    for graph, text in ((phi, message), (mixed, "curve c1: twist")):
        for call in (lambda: lift_cover(graph, identity_cover(graph)), lambda: normalize_unit_twists(graph),
                     lambda: InvariantReport.of(graph)):
            with pytest.raises(ValueError, match=re.escape(text)):
                call()


def test_identity_cover_is_trivial():
    phi = d_type_family(2, 2)
    c = identity_cover(phi)
    lifted = lift_cover(phi, c)
    assert InvariantReport.of(lifted).a == InvariantReport.of(phi).a
    assert InvariantReport.of(lifted).pi == InvariantReport.of(phi).pi
    assert all(ch.ok for ch in verify_cover_laws(phi, c, lifted))


def test_corrupted_partition_rejected():
    phi = two_piece_map(F(2))
    bad = CoveringData(
        (
            ("a", (ComponentCover(2, (("s", (2,)),)),)),
            ("b", (ComponentCover(2, (("t", (1, 2)),)),)),  # sums to 3, not 2
        )
    )
    with pytest.raises(ValueError, match="not a partition"):
        lift_cover(phi, bad)
    # a's component fits no surface (chi = -2, one circle), and the curve's mismatch is named first
    mismatched = CoveringData(
        (
            ("a", (ComponentCover(2, (("s", (2,)),)),)),
            ("b", (ComponentCover(2, (("t", (1, 1)),)),)),
        )
    )
    with pytest.raises(ValueError) as e:
        lift_cover(phi, mismatched)
    assert str(e.value) == "inadmissible cover: curve c: local degrees [2] vs [1, 1] do not match"
    # entries at least 1: (3, -1) sums to 2, and at both ends the local degrees match
    negative = CoveringData(
        (
            ("a", (ComponentCover(2, (("s", (3, -1)),)),)),
            ("b", (ComponentCover(2, (("t", (3, -1)),)),)),
        )
    )
    with pytest.raises(ValueError, match=re.escape("piece a component 0 slot s: (3, -1) is not a partition of 2")):
        lift_cover(phi, negative)


def test_inadmissible_genus_reported():
    # connected double cover of Sigma_{1,1} with a single boundary
    # circle wants chi = -2 and b = 1, i.e. 2g = 3: no surface
    phi = two_piece_map(F(1))
    impossible = CoveringData(
        (
            ("a", (ComponentCover(2, (("s", (2,)),)),)),
            ("b", (ComponentCover(2, (("t", (2,)),)),)),
        )
    )
    with pytest.raises(ValueError) as e:
        lift_cover(phi, impossible)
    assert str(e.value) == "piece a: no surface with chi = -2 and 1 boundary circles"


def test_normalize_examples():
    # twists 2 and -3: no power needed, cover degrees 2 and 3
    phi = ReducibleMap(
        (
            Piece("a", Surface(1, 2), ("s1", "s2")),
            Piece("b", Surface(1, 2), ("t1", "t2")),
        ),
        (
            ReducingCurve("c1", ("a", "s1"), ("b", "t1"), F(2)),
            ReducingCurve("c2", ("a", "s2"), ("b", "t2"), F(-3)),
        ),
    )
    out, cert = normalize_unit_twists(phi)
    assert cert.power == 1
    # lcm of the integer twists is 6; the genus parity check doubles
    # the cover degree to 12, so the curve over twist 2 has six unit
    # preimages and the one over twist -3 has four
    assert sorted(c.twist for c in out.curves) == [F(-1)] * 4 + [F(1)] * 6
    assert compare(phi, out, FULL).kind == "not_obstructed"

    # twist 3/2: power 2 then degree 3
    phi = two_piece_map(F(3, 2))
    out, cert = normalize_unit_twists(phi)
    assert cert.power == 2
    assert all(c.twist == F(1) for c in out.curves)

    # already unit twists: identity certificate
    phi = two_piece_map(F(-1))
    out, cert = normalize_unit_twists(phi)
    assert cert.power == 1
    assert [c.twist for c in out.curves] == [F(-1)]


def test_normalize_rejects_pseudo_anosov_pieces():
    from fibercomm.decomposition import DilatationLabel

    phi = ReducibleMap(
        (
            Piece("a", Surface(1, 1), ("s",), dilatation=DilatationLabel(name="lam")),
            Piece("b", Surface(1, 1), ("t",)),
        ),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), F(1)),),
    )
    with pytest.raises(ValueError, match="periodic"):
        normalize_unit_twists(phi)


def test_each_graph_validated_once(monkeypatch):
    """The input graph and its power are validated once each; the lift,
    valid by construction, never."""
    seen = []  # the graphs themselves, so no id is reused
    check = decomposition.validate
    monkeypatch.setattr(decomposition, "validate", lambda phi: seen.append(phi) or check(phi))
    rng = random.Random(43)
    powers = 0
    for _ in range(30):
        phi = random_d_type_map(rng, max_part=6)
        normalized, cert = normalize_unit_twists(phi)
        assert compare(phi, normalized, FULL).kind == "not_obstructed"
        assert not any(g is normalized for g in seen)
        assert seen[0] is phi
        assert len(seen) == (2 if cert.power > 1 else 1)
        powers += cert.power > 1
        del seen[:]
        assert validate(normalized) == []
    assert 0 < powers < 30


def test_normalize_random_property():
    rng = random.Random(37)
    for _ in range(100):
        phi = random_reducible_map(rng, max_part=6)
        out, cert = normalize_unit_twists(phi)
        assert all(abs(c.twist) == 1 for c in out.curves)
        assert validate(out) == []
        verdict = compare(phi, out, FULL)
        assert verdict.kind == "not_obstructed"
        assert F(1, cert.power) in verdict.feasible


def test_cover_feasibility_includes_one():
    rng = random.Random(41)
    tested = 0
    while tested < 50:
        phi = random_reducible_map(rng, max_part=6)
        c = connected_double_cover(phi)
        if c is None:
            continue
        lifted = lift_cover(phi, c)
        x, y = InvariantReport.of(phi), InvariantReport.of(lifted)
        assert F(1) in compare_reports(x, y).feasible
        assert InvariantReport.of(lifted).pi == InvariantReport.of(phi).pi
        tested += 1


def naive_piece_pairs(phi):
    """Reciprocal-twist pairs with one Fraction division per slot."""
    twist_at = {end: c.twist for c in phi.curves for end in c.ends}
    pairs = {}
    for p in phi.pieces:
        pos = neg = F(0)
        for slot in p.slots:
            k = twist_at[(p.id, slot)]
            if k > 0:
                pos += 1 / k
            else:
                neg += 1 / -k
        pairs[p.id] = (pos, neg)
    return pairs


def test_a_piece_matches_per_slot_sums_after_normalization():
    rng = random.Random(43)
    seen = set()
    for _ in range(60):
        phi = random_d_type_map(rng, max_part=6)
        out, _ = normalize_unit_twists(phi)
        for g in (phi, out):
            expected = naive_piece_pairs(g)
            for p in g.pieces:
                assert g.pairs[p.id] == expected[p.id]
        twists = [c.twist for c in out.curves]
        if len(twists) > len(set(twists)):
            seen.add("repeated twists")
        if {F(1), F(-1)} <= set(twists):
            seen.add("both signs")
        if any(c.end_a[0] == c.end_b[0] for c in out.curves):
            seen.add("self-curve")
    assert seen == {"repeated twists", "both signs", "self-curve"}


def test_degree_zero_component_reports_degree():
    phi = two_piece_map(F(1))
    empty = CoveringData(
        (
            ("a", (ComponentCover(0, (("s", ()),)),)),
            ("b", (ComponentCover(1, (("t", (1,)),)),)),
        )
    )
    with pytest.raises(ValueError, match="piece a component 0: degree < 1") as e:
        lift_cover(phi, empty)
    assert "not a partition" not in str(e.value)
    # degree -3 over a pair of pants: its implicit free circles would count -5 boundary
    # circles, with an even genus, so no surface may be solved for a faulty component
    pants = ReducibleMap(
        (Piece("A", Surface(0, 3), ("s",), 2), Piece("B", Surface(1, 1), ("t",))),
        (ReducingCurve("c", ("A", "s"), ("B", "t"), F(1)),),
    )
    c = CoveringData((("A", (ComponentCover(-3, (("s", (-3,)),)),)), ("B", (ComponentCover(1, (("t", (1,)),)),))))
    with pytest.raises(ValueError) as e:
        lift_cover(pants, c)
    assert str(e.value) == (
        "inadmissible cover: piece A component 0: degree < 1; "
        "piece A component 0 slot s: (-3,) is not a partition of -3; "
        "piece A component 0: bad free partition (); piece A component 0: bad free partition ()")
    assert gc.isenabled()


def test_missing_cover_data_reported():
    phi = two_piece_map(F(1))
    c = CoveringData((("a", (ComponentCover(1, (("x", (1,)),)),)),))
    with pytest.raises(ValueError) as e:
        lift_cover(phi, c)
    assert "piece a component 0: no partition for slot s" in str(e.value)
    assert "no cover data for piece b" in str(e.value)
    # a piece listed with no component has no preimage, as one left out has; the first entry wins
    one_s, one_t = (ComponentCover(1, (("s", (1,)),)),), (ComponentCover(1, (("t", (1,)),)),)
    for components, expected in (
        ((("a", ()), ("b", one_t)), "no cover data for piece a"),
        ((("a", ()), ("a", one_s), ("b", one_t)), "no cover data for piece a"),
        ((("a", one_s), ("a", ()), ("b", one_t)), None),
    ):
        c = CoveringData(components)
        got = outcome(lift_cover, phi, c)
        assert cover_faults_by_scan(phi, c) == ([expected] if expected else [])
        if expected:
            assert got == "ValueError: inadmissible cover: " + expected
        else:
            assert validate(got) == []
    # two parts A-B and C-D: with A's and B's lists empty, C-D alone is no lift of the graph
    parts = ReducibleMap(
        tuple(Piece(pid, Surface(1, 1), ("s",)) for pid in "ABCD"),
        (ReducingCurve("c", ("A", "s"), ("B", "s"), F(1)), ReducingCurve("e", ("C", "s"), ("D", "s"), F(1))),
    )
    c = CoveringData((("A", ()), ("B", ()), ("C", one_s), ("D", one_s)))
    with pytest.raises(ValueError) as e:
        lift_cover(parts, c)
    assert str(e.value) == "inadmissible cover: no cover data for piece A; no cover data for piece B"


def test_first_entry_of_a_repeated_key_wins():
    comp = ComponentCover(2, (("s", (2,)), ("s", (1, 1))))
    assert comp.partition("s") == (2,)
    other = ComponentCover(1, (("s", (1,)),))
    c = CoveringData((("a", (comp,)), ("a", (other,))))
    assert c.of("a") == (comp,)


def outcome(f, *args):
    """The result of ``f``, or the text of the ``ValueError`` it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError: %s" % e


def unit_cover_degree(phi):
    """L: the lcm of the integer twists after the power clearing every
    twist denominator, the first degree normalization tries."""
    m = math.lcm(*[c.twist.denominator for c in phi.curves])
    return math.lcm(*[abs(int(c.twist * m)) for c in phi.curves])


def doubled_cover_layouts(count):
    """Criterion-8 layouts (random graphs, twists up to 12) whose
    normalization needs degree 2L, with L at most 840."""
    rng = random.Random(103)
    found = []
    while len(found) < count:
        phi = random_reducible_map(rng, max_part=12)
        L = unit_cover_degree(phi)
        if L <= 840:
            _, cert = normalize_by_retry(phi)
            if cert.cover.components[0][1][0].degree == 2 * L:
                found.append(phi)
    return found


def with_spheres(rng, phi):
    """phi with about half its pieces of three or more boundary circles
    made planar, so that some graphs fit neither degree L nor 2L."""
    pieces = tuple(
        replace(p, surface=Surface(0, p.surface.boundary_components))
        if p.surface.boundary_components >= 3 and rng.random() < 0.5
        else p
        for p in phi.pieces
    )
    return ReducibleMap(pieces, phi.curves)


def test_normalization_matches_retry_oracle():
    rng = random.Random(47)
    graphs = [random_d_type_map(rng, max_part=6) for _ in range(300)]
    graphs += [with_spheres(rng, random_d_type_map(rng, max_part=6)) for _ in range(150)]
    graphs += doubled_cover_layouts(12)
    seen = set()
    for phi in graphs:
        got = outcome(normalize_unit_twists, phi)
        assert got == outcome(normalize_by_retry, phi)
        if isinstance(got, str):
            assert "no surface with chi" in got
            seen.add("no degree fits")
        else:
            L = unit_cover_degree(phi)
            seen.add("doubled" if got[1].cover.components[0][1][0].degree == 2 * L else "degree L")
            # the same curves in the same order, not only equal as a set
            assert [c.id for c in got[0].curves] == [c.id for c in normalize_by_retry(phi)[0].curves]
    assert seen == {"degree L", "doubled", "no degree fits"}


def test_normalization_lifts_once(monkeypatch):
    """One cover built, no trial one at degree L before 2L, and one lift;
    the certificate is the retry oracle's."""
    lifts, built = [], []
    lift = cover.lift_cover

    def counted_cover(*args):
        built.append(args)
        return CoveringData(*args)

    def counted(phi, c):
        try:
            lifted = lift(phi, c)
        except ValueError:
            lifts.append("failed")
            raise
        lifts.append("ok")
        return lifted

    monkeypatch.setattr(cover, "lift_cover", counted)
    monkeypatch.setattr(cover, "CoveringData", counted_cover)
    rng = random.Random(59)
    for phi in doubled_cover_layouts(6) + [random_d_type_map(rng, max_part=6) for _ in range(30)]:
        del lifts[:], built[:]
        _, cert = normalize_unit_twists(phi)
        assert lifts == ["ok"] and len(built) == 1
        assert cert == normalize_by_retry(phi)[1]


def random_cover(rng, phi, n):
    """A random degree-n cover of ``phi`` with several components over a
    piece, mixed local degrees and implicit, all-ones or random explicit
    free partitions; local degrees match across every curve, so only
    the surface test can fail."""
    degrees = {p.id: random_partition(rng, n) for p in phi.pieces}

    def bounds(pid):
        return [sum(degrees[pid][:i]) for i in range(len(degrees[pid]) + 1)]

    parts = {}  # (pid, slot) -> per-component partition lists
    for curve in phi.curves:
        cuts = set(bounds(curve.end_a[0]) + bounds(curve.end_b[0]))
        cuts |= {rng.randint(0, n) for _ in range(rng.randint(0, 2))}
        cuts = sorted(cuts)
        for pid, slot in curve.ends:
            edges = bounds(pid)
            split = [[] for _ in degrees[pid]]
            for lo, hi in zip(cuts, cuts[1:]):
                split[sum(e <= lo for e in edges) - 1].append(hi - lo)
            for part in split:
                rng.shuffle(part)
            parts[(pid, slot)] = split

    def frees(p, degree):
        kind = rng.choice(("implicit", "ones", "random"))
        if kind == "implicit":
            return None
        if kind == "ones":
            return ((1,) * degree,) * p.free_boundary
        return tuple(random_partition(rng, degree) for _ in range(p.free_boundary))

    return CoveringData(
        tuple(
            (
                p.id,
                tuple(
                    ComponentCover(l, tuple((s, parts[(p.id, s)][j]) for s in p.slots), frees(p, l))
                    for j, l in enumerate(degrees[p.id])
                ),
            )
            for p in phi.pieces
        )
    )


def with_tilde_ids(phi):
    """``phi`` (at most four pieces) with its ids renamed so that a lifted
    id could be mistaken for a base one: pieces a, a~1, a~1~0 and a~0,
    slots s, s~1, s~1~1, ..., curves c, c~0, c~0~0, ..."""
    piece_name = {p.id: name for p, name in zip(phi.pieces, ("a", "a~1", "a~1~0", "a~0"))}
    slot_name = {}
    for p in phi.pieces:
        for i, slot in enumerate(p.slots):
            slot_name[(p.id, slot)] = "s" + "~1" * i
    pieces = tuple(
        replace(p, id=piece_name[p.id], slots=tuple(slot_name[(p.id, s)] for s in p.slots))
        for p in phi.pieces
    )
    curves = tuple(
        ReducingCurve(
            "c" + "~0" * i,
            (piece_name[c.end_a[0]], slot_name[c.end_a]),
            (piece_name[c.end_b[0]], slot_name[c.end_b]),
            c.twist,
        )
        for i, c in enumerate(phi.curves)
    )
    return ReducibleMap(pieces, curves)


def assert_trusted_lift(phi, c):
    """``lift_cover`` against the scan oracle; returns False when no
    surface fits, with the same error from both."""
    got = outcome(lift_cover, phi, c)
    assert gc.isenabled()  # the pause during the lift is over
    if isinstance(got, str):
        assert "no surface with chi" in got
        assert got == outcome(lift_cover_by_scan, phi, c)
        return False
    assert "pairs" in vars(got) and vars(got)["errors"] == []  # carried, not computed
    expected = lift_cover_by_scan(phi, c)
    assert got.pieces == expected.pieces
    assert [(x.id, x.ends, x.twist) for x in got.curves] == [(x.id, x.ends, x.twist) for x in expected.curves]
    assert validate(got) == []
    assert got.pairs == ReducibleMap(got.pieces, got.curves).pairs
    return True


def test_lift_is_valid_by_construction():
    rng = random.Random(67)
    lifted = Counter()
    for _ in range(60):
        phi = random_reducible_map(rng, max_part=6)
        c = connected_double_cover(phi)
        if c is not None:
            lifted["double"] += assert_trusted_lift(phi, c)
        for graph, kind in ((phi, "random"), (with_tilde_ids(phi), "tilde ids")):
            lifted[kind] += assert_trusted_lift(graph, random_cover(rng, graph, rng.randint(1, 5)))
    for _ in range(40):
        phi = random_d_type_map(rng, max_part=6)
        normalized, cert = normalize_unit_twists(phi)
        phim = decomposition.power(phi, cert.power) if cert.power > 1 else phi
        lifted["normalized"] += assert_trusted_lift(phim, cert.cover)
        assert [(x.id, x.ends, x.twist) for x in normalized.curves] == [
            (x.id, x.ends, x.twist) for x in lift_cover_by_scan(phim, cert.cover).curves
        ]
    assert min(lifted.values()) >= 10 and len(lifted) == 4
    # twelve components over the leaf, whose ids sort as text: leaf0~10 before leaf0~2
    star = d_type_family(1, 2)
    twelve = CoveringData(
        (
            ("hub", (ComponentCover(12, (("h0", (1,) * 12),)),)),
            ("leaf0", tuple(ComponentCover(1, (("s", (1,)),)) for _ in range(12))),
        )
    )
    assert assert_trusted_lift(star, twelve)


CORRUPTIONS = ("degree", "missing slot", "entry < 1", "sum", "free count", "bad free", "local degrees")


def regroupings(part):
    """Partitions of the sum of ``part`` with other local degrees: its
    largest part split into a 1 and the rest, its two largest merged, and
    one moved from its largest part to its smallest, which keeps their
    number; None where a way does not apply."""
    p = sorted(part, reverse=True)
    return ((p[0] - 1, 1, *p[1:]) if p[0] > 1 else None,
            (p[0] + p[1], *p[2:]) if len(p) > 1 else None,
            (p[0] - 1, *p[1:-1], p[-1] + 1) if p[0] - p[-1] > 1 else None)


def corrupted_cover(rng, phi, c):
    """``c``, a cover with each piece listed once and matching local
    degrees, with one corruption of a kind drawn from ``CORRUPTIONS``:
    (kind, cover).  An entry below 1 goes in at one end of a curve or,
    keeping the local degrees equal, at both."""
    state = {pid: [[comp.degree, dict(comp.slot_partitions), comp.free_partitions] for comp in comps]
             for pid, comps in c.components}
    components = [(p, comp) for p in phi.pieces for comp in state[p.id]]
    targets = {"degree": components, "free count": components, "entry < 1": phi.curves}
    targets["missing slot"] = targets["sum"] = [(p, comp) for p, comp in components if p.slots]
    targets["bad free"] = [(p, comp) for p, comp in components if p.free_boundary]
    # one end of a curve regrouped, each way of regrouping as likely as the others
    regrouped = [[(slot, comp, new[i]) for p, comp in components for slot in p.slots
                  if (new := regroupings(comp[1][slot]))[i]] for i in range(3)]
    targets["local degrees"] = rng.choice([r for r in regrouped if r] or [[]])
    kind = rng.choice([k for k in CORRUPTIONS if targets[k]])
    target = rng.choice(targets[kind])
    if kind == "degree":
        target[1][0] = rng.choice((0, -1))
    elif kind in ("missing slot", "sum"):
        p, comp = target
        slot = rng.choice(p.slots)
        if kind == "sum":
            comp[1][slot] += (1,)
        else:
            del comp[1][slot]
    elif kind == "free count":
        p, comp = target
        comp[2] = ((1,) * comp[0],) * (p.free_boundary + rng.choice((1, -1) if p.free_boundary else (1,)))
    elif kind == "bad free":
        p, comp = target
        frees = [(1,) * comp[0]] * p.free_boundary
        frees[rng.randrange(p.free_boundary)] = rng.choice(((1,) * comp[0] + (0,), (1,) * (comp[0] + 1)))
        comp[2] = tuple(frees)
    elif kind == "local degrees":
        slot, comp, part = target
        comp[1][slot] = part
    else:
        ends = [target.end_a, target.end_b]
        rng.shuffle(ends)
        pid, slot = ends[0]
        x = rng.choice([d for comp in state[pid] for d in comp[1][slot]])
        replacement = rng.choice(([x + 1, -1], [x, 0]))
        for pid, slot in ends[:rng.randint(1, 2)]:
            comp = next(comp for comp in state[pid] if x in comp[1][slot])
            part = list(comp[1][slot])
            i = part.index(x)
            part[i:i + 1] = replacement
            comp[1][slot] = tuple(part)
    return kind, CoveringData(tuple(
        (pid, tuple(ComponentCover(degree, tuple(parts.items()), frees) for degree, parts, frees in comps))
        for pid, comps in state.items()))


def test_cover_refusal_matches_admissibility_scan():
    """``lift_cover`` refuses a cover as inadmissible exactly when the
    oracle's own scan finds a fault, names every fault it finds, and
    refuses a cover of one fault with that fault alone."""
    rng = random.Random(71)
    single = Counter()
    for _ in range(400):
        phi = random_reducible_map(rng, max_part=6)
        c = random_cover(rng, phi, rng.randint(1, 4))
        assert cover_faults_by_scan(phi, c) == []
        assert "inadmissible" not in str(outcome(lift_cover, phi, c))
        kind, bad = corrupted_cover(rng, phi, c)
        faults = cover_faults_by_scan(phi, bad)
        got = outcome(lift_cover, phi, bad)
        assert faults and got.startswith("ValueError: inadmissible cover: "), (kind, faults, got)
        assert all(fault in got for fault in faults), (kind, faults, got)
        if len(faults) == 1:
            assert got == "ValueError: inadmissible cover: " + faults[0]
            single[kind] += 1
    assert set(single) == set(CORRUPTIONS), single  # every kind, and each alone at least once


def test_cover_with_no_curves_is_refused():
    phi = ReducibleMap(
        (
            Piece("a", Surface(1, 2), ("s",), 1),
            Piece("b", Surface(1, 1), ("t",)),
            Piece("f", Surface(1, 1), (), 1),
        ),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), F(1)),),
    )
    for free_piece, also in (((), "; no cover data for piece f"), ((ComponentCover(2, ()),), "")):
        c = CoveringData((("a", ()), ("b", ()), ("f", free_piece)))
        with pytest.raises(ValueError) as e:
            lift_cover(phi, c)
        assert str(e.value) == "inadmissible cover: no cover data for piece a; no cover data for piece b" + also
        assert str(e.value) == "inadmissible cover: " + "; ".join(cover_faults_by_scan(phi, c))
        assert gc.isenabled()


def test_gc_pause_nests_and_restores():
    """Each use of ``_gc_paused`` restores the state it found, also when
    uses nest or a block raises."""
    states = []

    def nested(depth):  # a block within a block, depth times
        with quadratic._gc_paused():
            states.append(gc.isenabled())
            if not depth:
                raise ValueError("innermost")
            nested(depth - 1)

    assert gc.isenabled()
    with pytest.raises(ValueError):
        nested(2)
    assert states == [False] * 3 and gc.isenabled()
    gc.disable()
    try:
        with quadratic._gc_paused():
            pass
        assert not gc.isenabled()  # a pause entered with collection off leaves it off
    finally:
        gc.enable()


def random_partition(rng, n):
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return tuple(parts)


def test_implicit_free_circles_match_explicit_all_ones():
    rng = random.Random(53)
    lifted = unfit = 0
    for _ in range(80):
        phi = random_reducible_map(rng, max_part=6)
        n = rng.randint(1, 4)
        # one partition per curve, at both of its ends, so local degrees match
        part_at = {}
        for c in phi.curves:
            part = random_partition(rng, n)
            part_at[c.end_a] = part_at[c.end_b] = part

        def covering(frees):
            return CoveringData(
                tuple(
                    (p.id, (ComponentCover(n, tuple((s, part_at[(p.id, s)]) for s in p.slots), frees(p)),))
                    for p in phi.pieces
                )
            )

        implicit = covering(lambda p: None)
        explicit = covering(lambda p: ((1,) * n,) * p.free_boundary)
        got = outcome(lift_cover, phi, implicit)
        assert got == outcome(lift_cover, phi, explicit) == outcome(lift_cover_by_scan, phi, explicit)
        if isinstance(got, str):
            unfit += 1
        else:
            lifted += 1
            assert [c.id for c in got.curves] == [c.id for c in lift_cover_by_scan(phi, explicit).curves]
        free = [p for p in phi.pieces if p.free_boundary]
        if free:
            # explicit free partitions are still checked one by one
            p = free[0]
            for frees, message in ((((1,) * n,) * (p.free_boundary + 1), "free partitions for"),
                                   (((1,) * (n + 1),) * p.free_boundary, "bad free partition")):
                bad = covering(lambda q: frees if q is p else None)
                with pytest.raises(ValueError, match=message):
                    lift_cover(phi, bad)
    assert lifted and unfit


@pytest.mark.parametrize("degree", [0, -1])
def test_implicit_free_circles_report_as_explicit(degree):
    phi = ReducibleMap(
        (Piece("a", Surface(1, 2), ("s",), 1), Piece("b", Surface(1, 1), ("t",))),
        (ReducingCurve("c", ("a", "s"), ("b", "t"), F(1)),),
    )

    def covering(frees):
        return CoveringData(
            (
                ("a", (ComponentCover(degree, (("s", (1,)),), frees),)),
                ("b", (ComponentCover(1, (("t", (1,)),)),)),
            )
        )

    got = outcome(lift_cover, phi, covering(None))
    assert got == outcome(lift_cover, phi, covering(((1,) * degree,)))
    assert "piece a component 0: degree < 1" in got
