"""Regenerate the bundled example corpus.

Every expected value is either quoted from the source examples or
re-derived by hand; the asserts below pin the hand-derived targets, so
regeneration fails loudly if the library drifts.  Run from the repo
root:

    python3 scripts/gen_corpus.py

``main(root)`` writes the same files under another directory; the test
suite regenerates into a temporary one and compares byte for byte.
"""

import shutil
import sys
from fractions import Fraction as F
from pathlib import Path

from fibercomm import serialize as ser
from fibercomm.cli import run_operation
from fibercomm.decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_alternate_plan,
    closed_chain_manifold,
    closed_chain_plan,
    d_type_family,
    twist_composition,
)
from fibercomm.quadratic import QuadraticUnit
from fibercomm.spectrum import SingularityVector
from fibercomm.staircase import refiber
from fibercomm.surfaces import Surface
from fibercomm.torus import TorusAutomorphism

ROOT = Path(__file__).resolve().parent.parent / "src" / "fibercomm" / "corpus"


def check(name, source, operation, inputs, expected, args=None):
    entry = {"name": name, "source": source, "operation": operation, "inputs": inputs,
             "expected": expected}
    if args:
        entry["args"] = args
    return entry


def write_entry(root, eid, description, documents, checks, notes):
    d = root / eid
    d.mkdir(parents=True, exist_ok=True)
    ser.dump(d / "input.json", {"id": eid, "description": description, "documents": documents})
    # run every check now and require agreement before freezing
    for c in checks:
        actual = run_operation(c["operation"], [documents[n] for n in c["inputs"]], c.get("args", {}))
        if actual != c["expected"]:
            sys.exit("%s/%s: generator expectation mismatch:\n  want %r\n  got  %r"
                     % (eid, c["name"], c["expected"], actual))
    ser.dump(d / "expected.json", {"id": eid, "checks": checks})
    (d / "notes.md").write_text(notes)
    print("wrote", eid, "(%d checks)" % len(checks))


def torus_entry():
    docs = {
        "rot4": ser.torus_doc(TorusAutomorphism(((0, -1), (1, 0)))),
        "shear": ser.torus_doc(TorusAutomorphism(((1, 1), (0, 1)))),
        "shear5": ser.torus_doc(TorusAutomorphism(((1, 5), (0, 1)))),
        "anosov": ser.torus_doc(TorusAutomorphism(((2, 1), (1, 1)))),
        "anosov_sq": ser.torus_doc(TorusAutomorphism(((5, 3), (3, 2)))),
        "anosov3": ser.torus_doc(TorusAutomorphism(((3, 2), (1, 1)))),
    }
    checks = [
        check("order-4 rotation", "published", "classify", ["rot4"],
              {"kind": "periodic", "period": 4, "dilatation": None}),
        check("parabolic shear", "published", "classify", ["shear"],
              {"kind": "reducible", "period": None, "dilatation": None}),
        check("anosov with golden-ratio-square stretch", "derived", "classify", ["anosov"],
              {"kind": "anosov", "period": None,
               "dilatation": {"D": 5, "a": "3/2", "b": "1/2"}}),
        check("map against its square", "direct", "torus_compare", ["anosov", "anosov_sq"],
              {"kind": "commensurable", "scale": "1/2"}),
        check("distinct quadratic fields", "derived", "torus_compare", ["anosov", "anosov3"],
              {"kind": "incommensurable", "scale": None}),
        check("two parabolics", "published", "torus_compare", ["shear", "shear5"],
              {"kind": "same_class_trivial", "scale": None}),
    ]
    notes = """# Torus automorphisms

Classification of mapping classes of the torus by trace and
determinant, and the log-commensurability test for the Anosov case.
The stretch factor of [[2,1],[1,1]] is (3+sqrt(5))/2, the square of
the golden ratio; [[3,2],[1,1]] lives in Q(sqrt(3)), so the pair is
incommensurable by field mismatch.  Periodic and parabolic classes
each form a single commensurability class.
"""
    return ("ex2.9", "torus automorphism classification and comparison", docs, checks, notes)


def branch_entry():
    eps = QuadraticUnit(5, F(1, 2), F(1, 2))  # (1 + sqrt 5) / 2
    eps2, eps3 = eps ** 2, eps ** 3
    lam2 = DilatationLabel(unit=eps2)
    lam3 = DilatationLabel(unit=eps3)
    d62 = SingularityVector(((6, 2),))
    d61 = SingularityVector(((6, 1),))
    d34 = SingularityVector(((3, 4), (4, 1)))
    d32 = SingularityVector(((3, 2),))
    docs = {
        "double_cover": ser.branch_doc(ser.branch_from_doc(
            {"type": "branch_data", "degree": 2, "branch_points": [[2], [2]]})),
        "triple_cover": ser.branch_doc(ser.branch_from_doc(
            {"type": "branch_data", "degree": 3, "branch_points": [[3]]})),
        "pa_sq": ser.pa_data_doc(lam2, d62),
        "pa_cube": ser.pa_data_doc(lam3, d61),
        "pa_mixed": ser.pa_data_doc(lam2, d34),
        "pa_three": ser.pa_data_doc(lam2, d32),
    }
    checks = [
        check("two simple branch points", "derived", "branch_delta", ["double_cover"],
              {"surface": {"genus": 2, "boundary": 0}, "delta": {"counts": [[4, 2]]}}),
        check("one total branch point", "derived", "branch_delta", ["triple_cover"],
              {"surface": {"genus": 2, "boundary": 0}, "delta": {"counts": [[6, 1]]}}),
        check("proportional data passes", "direct", "pa_obstruction", ["pa_sq", "pa_cube"],
              {"ok": True, "s": "2/3", "s_prime": "2"}),
        check("prong support mismatch fails", "direct", "pa_obstruction", ["pa_mixed", "pa_three"],
              {"ok": False, "s": None, "s_prime": None}),
    ]
    notes = """# Branched covers of the torus and singularity data

A branch point of local degree m on a torus branched cover becomes a
2m-pronged singularity of the lifted foliations; the Euler identity
sum (2-n) delta_n = 2 chi pins the genus.  The scaling test pairs the
log-ratio of stretch factors with proportionality of the singularity
vectors; a support mismatch is a definitive obstruction.
"""
    return ("ex3.8", "torus branched covers: singularity vectors and scaling test", docs, checks, notes)


def spectrum_entry():
    qdoc = {"type": "spectrum_query", "matrix": [[2, 1], [1, 1]],
            "origin": ["0", "0"], "point": ["1/2", "1/2"], "radius": 20}
    q40 = dict(qdoc, radius=40)
    docs = {"q20": ser.query_doc(ser.query_from_doc(qdoc)),
            "q40": ser.query_doc(ser.query_from_doc(q40))}
    min20 = run_operation("spectrum_min", [docs["q20"]], {})
    # hand check: the half-integer translate (-21/2, -13/2) gives
    # |f| = 1/4 for f = x^2 - xy - y^2, hence sqrt(5)/20 after the
    # unit-mass normalization 1/sqrt(5)
    assert min20["value"] == {"D": 5, "a": "0", "b": "1/20"}, min20
    below20 = run_operation("spectrum_count_below", [docs["q20"]], {"bound": "5"})
    below40 = run_operation("spectrum_count_below", [docs["q40"]], {"bound": "5"})
    assert below20 == below40 == {"count": 14}
    checks = [
        check("minimum over the radius-20 box", "derived", "spectrum_min", ["q20"], min20),
        check("values below 5 at radius 20", "derived", "spectrum_count_below", ["q20"],
              below20, args={"bound": "5"}),
        check("values below 5 at radius 40", "derived", "spectrum_count_below", ["q40"],
              below40, args={"bound": "5"}),
    ]
    notes = """# Length spectrum of a marked Anosov torus map

For [[2,1],[1,1]] the stable/unstable measure product of the translate
v is |v1^2 - v1 v2 - v2^2| / sqrt(5) after normalizing the product
measure to unit mass.  With marked points (0,0) and (1/2,1/2) the
minimum over the radius-20 box is sqrt(5)/20, attained at half-integer
translates near the unstable eigendirection.  The count of values
below 5 is stable from radius 20 to 40, the enumerable shadow of
discreteness.  All enumerated values are strictly positive; the set is
a certified subset of the full spectrum, so the minimum is an upper
bound for the true spectral minimum.
"""
    return ("ex3.12", "spectrum enumeration for a marked Anosov torus map", docs, checks, notes)


def equal_a_entry():
    phi1 = ReducibleMap(
        (
            Piece("p1", Surface(1, 1), ("a1",)),
            Piece("p2", Surface(1, 2), ("b1", "b2")),
            Piece("p3", Surface(1, 3), ("c1",), 2),
        ),
        (
            ReducingCurve("u", ("p1", "a1"), ("p2", "b1"), F(1)),
            ReducingCurve("v", ("p2", "b2"), ("p3", "c1"), F(-1)),
        ),
    )
    phi2 = ReducibleMap(
        (
            Piece("p1", Surface(1, 1), ("a1",)),
            Piece("p2", Surface(1, 4), ("b1", "b2"), 2),
            Piece("p3", Surface(1, 1), ("c1",)),
        ),
        (
            ReducingCurve("u", ("p1", "a1"), ("p2", "b1"), F(1)),
            ReducingCurve("v", ("p2", "b2"), ("p3", "c1"), F(-1)),
        ),
    )
    docs = {"phi1": ser.reducible_doc(phi1), "phi2": ser.reducible_doc(phi2)}
    inv1 = run_operation("invariants", [docs["phi1"]], {})
    inv2 = run_operation("invariants", [docs["phi2"]], {})
    assert inv1["a"] == inv2["a"] == ["1", "1"]
    assert inv1["pi"] == [["0", "1/3"], ["1/2", "1/2"], ["1", "0"]]
    assert inv2["pi"] == [["0", "1"], ["1/4", "1/4"], ["1", "0"]]
    checks = [
        check("first graph invariants", "derived", "invariants", ["phi1"], inv1),
        check("second graph invariants", "derived", "invariants", ["phi2"], inv2),
        check("equal A, distinct Pi", "published", "compare", ["phi1", "phi2"],
              {"verdict": "incommensurable", "feasible": [],
               "witness": "no common flip/scale matches A and Pi"},
              args={"mode": "full"}),
    ]
    notes = """# Equal global invariant, distinct piece sets

Two three-piece graphs with the same curve twists (+1 and -1), so both
have A = (1, 1), but the middle pieces differ (two junction circles on
a two-holed torus vs. on a four-holed torus with two free circles),
giving Pi sets {(1,0), (1/2,1/2), (0,1/3)} and
{(1,0), (1/4,1/4), (0,1)} that no flip/scale can match.

The graphs are reconstructions: the source example quotes the Pi sets
and A = (1,1) for both maps in its prose, while its accompanying
figure is labeled with A = (1/6, 1/6) and its exact inputs are not
recoverable.  This entry encodes graphs realizing the prose values;
the figure label is recorded here as an unresolved discrepancy, not
silently corrected.
"""
    return ("ex4.2", "equal A but different Pi separates two maps", docs, checks, notes)


def d_family_entry():
    docs = {
        "d_2_2": ser.reducible_doc(d_type_family(2, 2)),
        "d_5_2": ser.reducible_doc(d_type_family(5, 2)),
        "d_2_3": ser.reducible_doc(d_type_family(2, 3)),
        "d_3_2": ser.reducible_doc(d_type_family(3, 2)),
    }
    inv = run_operation("invariants", [docs["d_3_2"]], {})
    assert inv["pi"] == [["1/3", "0"], ["1", "0"]]
    checks = [
        check("star graph invariants", "published", "invariants", ["d_3_2"], inv),
        check("same leaf genus: no obstruction", "published", "compare", ["d_2_2", "d_5_2"],
              {"verdict": "not_obstructed", "feasible": ["1"], "witness": None},
              args={"mode": "full"}),
        check("different leaf genus: obstructed", "published", "compare", ["d_2_2", "d_2_3"],
              {"verdict": "incommensurable", "feasible": [],
               "witness": "no common flip/scale matches A and Pi"},
              args={"mode": "full"}),
    ]
    notes = """# Star-shaped D-type family

A central one-holed-torus hub with n junction circles, each joined by
a +1 twist to a genus-k one-holed leaf.  The normalized invariants
{(1,0), (1/(2k-1),0)} are independent of n, so members with the same
leaf genus are never obstructed from each other, while different leaf
genera force distinct Pi sets with no common scale.
"""
    return ("ex4.6", "D-type star family over n and leaf genus k", docs, checks, notes)


def twist_composition_entry():
    docs = {
        "k2": ser.reducible_doc(twist_composition(2)),
        "k3": ser.reducible_doc(twist_composition(3)),
        "k2_again": ser.reducible_doc(twist_composition(2)),
    }
    checks = [
        check("different twist counts", "published", "compare", ["k2", "k3"],
              {"verdict": "incommensurable", "feasible": [],
               "witness": "no s scales the stretch factors forward and Pi backward"},
              args={"mode": "combined"}),
        check("equal twist counts", "published", "compare", ["k2", "k2_again"],
              {"verdict": "not_obstructed", "feasible": ["1"], "witness": None},
              args={"mode": "combined"}),
    ]
    notes = """# Boundary twisting against a fixed pseudo-Anosov piece

The same pseudo-Anosov piece (symbolic stretch factor, boundary
rotation 1/3) composed with k twists along the junction circle gives
fractional twist k - 1/3 and the single normalized invariant
(1/(k - 1/3), 0).  The shared stretch factor forces s = 1 in the
combined test, and Pi then separates every pair with different k.
"""
    return ("ex4.9", "twist powers against a fixed pseudo-Anosov piece", docs, checks, notes)


def bounded_chain_entry():
    m = bounded_chain_manifold()
    r1 = refiber(m, bounded_chain_plan(1))
    r2 = refiber(m, bounded_chain_plan(2))
    docs = {
        "manifold": ser.manifold_doc(m),
        "plan1": ser.plan_doc(bounded_chain_plan(1)),
        "plan2": ser.plan_doc(bounded_chain_plan(2)),
        "phi1": ser.reducible_doc(r1.map),
        "phi2": ser.reducible_doc(r2.map),
    }
    s2 = run_operation("staircase", [docs["manifold"], docs["plan2"]], {})
    assert s2["twists"] == ["1/6", "1/2", "1/2"]
    assert s2["pi"] == [["1", "0"], ["5/3", "0"], ["2", "0"]]
    assert s2["monodromy_order"] == 6
    checks = [
        check("two-sheet refibration", "published", "staircase", ["manifold", "plan2"], s2),
        check("one-sheet refibration", "derived", "staircase",
              ["manifold", "plan1"], run_operation("staircase", [docs["manifold"], docs["plan1"]], {})),
        check("consecutive members obstructed", "published", "compare", ["phi1", "phi2"],
              {"verdict": "incommensurable", "feasible": [],
               "witness": "no common flip/scale matches A and Pi"},
              args={"mode": "full"}),
    ]
    notes = """# Bounded three-piece chain refibration

Three circle-bundle pieces Sigma_{1,1} -- Sigma_{1,3} -- Sigma_{1,2}
with shear -1 gluings.  The plan family uses n horizontal sheets on
the first piece and arcs with n and n+1 sheets on the others.  At
n = 2 the staircases are a genus-2 surface with 4 boundary circles and
a genus-3 surface with 2, the junction twists are 1/2 (two parallel
horizontal curves) and 1/6, the monodromy order is 6, and the sixth
power has integer twists 3 and 1.  Pi(phi_n) =
{(n,0), ((2n+1)/3,0), (n/2,0)} separates every pair of members.
"""
    return ("ex5.2", "bounded chain staircase family", docs, checks, notes)


def closed_chain_entry():
    m = closed_chain_manifold()
    r2 = refiber(m, closed_chain_plan(2))
    rpsi = refiber(m, closed_chain_alternate_plan())
    docs = {
        "manifold": ser.manifold_doc(m),
        "plan_n2": ser.plan_doc(closed_chain_plan(2)),
        "plan_alt": ser.plan_doc(closed_chain_alternate_plan()),
        "phi2": ser.reducible_doc(r2.map),
        "psi": ser.reducible_doc(rpsi.map),
    }
    s2 = run_operation("staircase", [docs["manifold"], docs["plan_n2"]], {})
    assert s2["pi"] == [["1/6", "1/6"], ["1", "1"], ["5/4", "5/4"]]
    assert s2["fiber"] == {"genus": 20, "boundary": 0}
    salt = run_operation("staircase", [docs["manifold"], docs["plan_alt"]], {})
    assert salt["pi"] == [["1/4", "1/4"], ["11/8", "11/8"], ["3/2", "3/2"]]
    assert salt["fiber"] == {"genus": 20, "boundary": 0}
    assert salt["monodromy_order"] == 12
    checks = [
        check("chain family at n = 2", "published", "staircase", ["manifold", "plan_n2"], s2),
        check("alternate fibration", "published", "staircase", ["manifold", "plan_alt"], salt),
        check("two fibrations of one manifold obstructed", "published", "compare",
              ["phi2", "psi"],
              {"verdict": "incommensurable", "feasible": [],
               "witness": "no common flip/scale matches A and Pi"},
              args={"mode": "full"}),
    ]
    notes = """# Closed three-piece chain with doubled junction tori

Sigma_{3,2} -- Sigma_{1,4} -- Sigma_{1,2} glued along two tori per
junction with opposite shears (2, -2) and (-1, 1), so every
refibration has twists in opposite-sign pairs and flip-symmetric
invariants.  The n-family (sheets n+2, n, n+1) has closed fiber of
genus 6n+8 and Pi = {(n/12,n/12), ((3n+4)/8,(3n+4)/8), (n/2,n/2)};
the alternate plan (3 horizontal sheets, one arc, sheets 3/3/4) gives
a second fibration of genus 20 with Pi =
{(1/4,1/4), (11/8,11/8), (3/2,3/2)}.  Both fibrations at genus 20 are
mutually obstructed.

Reconstruction certificate: the published data for this family are
the staircase genera, the closed-fiber genus formula 6n+8, and the Pi
sets.  The base pieces were recovered by inverting the staircase
genus/boundary formulas (see solve_staircase_base): a genus-20 closed
fiber split into three pieces with the Pi weights above forces chi
values (-6(n+2), -4n, -2(n+1)), hence Sigma_{3,2}, Sigma_{1,4},
Sigma_{1,2}, and the shears are pinned by the twist values 12 I = +-1
and +-8 of the twelfth power of the alternate fibration.
"""
    return ("ex5.3", "closed chain: two fibrations of one graph manifold", docs, checks, notes)


ENTRIES = (
    torus_entry,
    branch_entry,
    spectrum_entry,
    equal_a_entry,
    d_family_entry,
    twist_composition_entry,
    bounded_chain_entry,
    closed_chain_entry,
)


def main(root=ROOT):
    """Write every entry under ``root`` (the bundled corpus by default),
    replacing whatever is there."""
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    for entry in ENTRIES:
        write_entry(root, *entry())


if __name__ == "__main__":
    main()
