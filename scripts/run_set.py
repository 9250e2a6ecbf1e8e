"""Run every subcommand of one source tree on a fixed set of inputs.

    python3 scripts/run_set.py TREE > TREE.txt

TREE is a checkout of this repository; the ``fibercomm`` package under
``TREE/src`` is imported and its command line is run in process, in
both output formats, on:

* every document of the corpus bundled with this script, under each
  subcommand that reads it (``compare`` on every ordered pair of graphs
  of an entry in every mode, ``power`` at k = 1, 2 and 7, ``cover`` with
  the uniform double cover, ``staircase`` on every manifold and plan of
  an entry, ``spectrum`` at the document's radius and at 5), and
  ``corpus verify`` on that corpus, so a tree whose operation writes
  another document than the one pinned there (a tree from before the
  one ``staircase`` document, say) fails it with exit 1;
* malformed and refused inputs: repeated names in a graph manifold or a
  graph, a torus shared by two gluings, a gluing of a torus to itself,
  a plan that misses a piece, gluings outside the normal form
  ((-1, sigma), (0, 1)) (named from either side), staircases
  at and past the size limit (the bounded chain at n = 83,331 and
  83,332, and chains of 83,333 and 83,334 genus-1 two-torus pieces at
  n = 1), refibered names that collide (a copy ``A~0`` of a piece ``A``
  beside a piece named ``A~0``, and a circle slot ``t~0`` beside a torus
  named ``t~0``), a spectrum at and past the radius limit,
  graphs whose symbolic stretch factor has exponent 0 or -1 under
  ``compare --mode combined`` and ``invariants``, and documents with two
  faults in nested fields of lists long enough to be read as columns,
  where the first failing entry in list order is named (``invariants``
  on a 20-leaf star graph with a bad twist before a bad curve id, a bad
  slot before a bad genus, and twists 1, "1" and true; ``cover`` with a
  bad partition entry before a bad piece id; ``staircase`` with a
  one-entry arc before a bad sheet count in a 20-entry plan);
* an error message of each check a well-formed document can fail:
  ``classify``, ``spectrum`` and ``staircase`` with a matrix of
  determinant 2; ``staircase`` with a gluing that does not carry the
  plan's slope; ``staircase`` on corpus entry ex5.2 with a sheet count
  of 0, an arc with both ends on one boundary, a boundary used by two
  arc ends, an arc end off the boundary (alone, and with a piece's plan
  entry dropped: two faults in one message), a gluing of shear 0, and
  both gluings of shear 0 (a slope fault named before the shear);
  ``cover`` of a graph with free circles (corpus entry ex4.2) by its
  double cover with a component of degree 0, a slot
  without a partition, the partition (3, -1) at every slot, a partition
  that does not sum to the degree, too few free partitions, a free
  partition (2, 0), unequal local degrees across a curve, a piece
  without cover data, and components that fit no surface; ``cover`` of
  a two-piece graph by its double cover with no component listed for
  one piece and for both, and of a graph of two such parts with no
  component listed for both pieces of one part;
  ``invariants`` on a two-piece graph with duplicate piece ids,
  duplicate curve ids, no curves, a piece of chi 0, a boundary count
  that does not add up, a twist "0" (also on a curve whose id holds an
  ANSI escape, which the message keeps), a curve end on a missing piece,
  one on a missing slot, and a slot used by two ends; and ``power`` of a
  graph with the exact stretch factor (3 + sqrt 5) / 2 at k = 1, at
  k = 10288 (refused while writing) and at k = 10809 (refused before
  the power is computed); ``invariants`` of a graph with distinct
  3000-digit twists (refused while writing) and ``compare`` of it
  against its square; ``power`` and ``invariants`` of a graph whose
  curve id holds a lone surrogate (``"c\\ud800"`` in JSON), refused by
  the reader; ``invariants`` of a graph with a 5000-digit twist, as a
  string and as a JSON integer literal, refused by the reader; and
  ``invariants`` of a graph with the twist "1e100000", whose exponent
  the reader refuses;
* ``corpus verify`` on crafted corpora of one entry each (the command
  stops at the first malformed entry), reaching refusals that only a
  corpus entry reaches: branch data of odd chi, of degree 0 and with a
  branch point that is no partition of the degree, and singularity data
  with an entry of 2 prongs and with a repeated prong number; and
  ``torus_compare`` checks whose expected documents are known by
  construction: ``cat**1000`` against ``cat**1001`` (scale 1000/1001), a
  fixed 2,000-bit m**2 against g m**3 g**-1 (scale 2/3), and two fixed
  2,000-bit maps whose trace discriminants multiply to a non-square
  (incommensurable).

Each run prints one line: the exit code, the sha256 of stdout and of
stderr, an uncaught exception's type if there was one, and the
arguments.  The inputs come from this script's tree (a document given
as a string is its JSON text) and are written to
one temporary directory under fixed names, so two trees give the same
lines where they behave alike; diff their outputs to see every change.
"""

import copy
import functools
import hashlib
import itertools
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "src" / "fibercomm" / "corpus"
FORMATS = ("text", "machine")


def corpus_runs():
    """(argv of file labels and options, documents) of each corpus run."""
    runs = []
    for entry in sorted(p for p in CORPUS.iterdir() if (p / "input.json").exists()):
        docs = documents(entry.name)
        of = {}
        for name in sorted(docs):
            of.setdefault(docs[name]["type"], []).append(name)
        label = lambda name: "%s.%s" % (entry.name, name)  # noqa: E731
        for name in of.get("torus_automorphism", []):
            runs.append((["classify", label(name)], {label(name): docs[name]}))
        graphs = of.get("reducible_map", [])
        for name in graphs:
            g = {label(name): docs[name]}
            runs.append((["invariants", label(name)], g))
            runs.append((["normalize", label(name)], g))
            for k in ("1", "2", "7"):
                runs.append((["power", label(name), k], g))
            cover = label(name) + ".double"
            runs.append((["cover", label(name), cover], {**g, cover: double_cover(docs[name])}))
        for a, b in itertools.product(graphs, repeat=2):
            for mode in ("full", "topological", "combined"):
                runs.append((["compare", label(a), label(b), "--mode", mode],
                             {label(a): docs[a], label(b): docs[b]}))
        for m, p in itertools.product(of.get("graph_manifold", []), of.get("refiber_plan", [])):
            runs.append((["staircase", label(m), label(p)], {label(m): docs[m], label(p): docs[p]}))
        for name in of.get("spectrum_query", []):
            for extra in ([], ["--radius", "5"]):
                runs.append((["spectrum", label(name), *extra], {label(name): docs[name]}))
    return runs


def documents(entry):
    """The input documents of a corpus entry, by name."""
    return json.loads((CORPUS / entry / "input.json").read_text(encoding="utf-8"))["documents"]


def double_cover(graph):
    """Covering data of the uniform double cover of a graph document."""
    return {"type": "covering_data", "pieces": [
        {"id": p["id"], "components": [{"degree": 2, "slots": [[s, [1, 1]] for s in p["slots"]]}]}
        for p in graph["pieces"]]}


def chain_plan(n):
    """The plan of the bounded chain (corpus entry ex5.2) at n sheets."""
    return {"type": "refiber_plan", "pieces": [{"id": "S1", "n": n, "arcs": []},
                                               {"id": "S2", "n": n, "arcs": [["e2", "g"]]},
                                               {"id": "S3", "n": n + 1, "arcs": [["g", "e3"]]}]}


def long_chain(k):
    """A chain of k genus-1 two-torus pieces and its plan at one sheet."""
    manifold = {"type": "graph_manifold",
                "pieces": [{"id": "P%d" % i, "genus": 1, "boundary_tori": ["l", "r"]} for i in range(k)],
                "gluings": [{"id": "g%d" % i, "side_a": ["P%d" % i, "r"], "side_b": ["P%d" % (i + 1), "l"],
                             "matrix": [[-1, 1], [0, 1]]} for i in range(k - 1)]}
    return manifold, {"type": "refiber_plan", "pieces": [{"id": "P%d" % i, "n": 1, "arcs": []} for i in range(k)]}


def edge_runs():
    """(argv, documents) of the malformed and refused inputs."""
    docs = documents("ex5.2")
    manifold, plan2 = docs["manifold"], docs["plan2"]
    runs = []

    def staircase(name, m, p):
        runs.append((["staircase", name + ".manifold", name + ".plan"], {name + ".manifold": m, name + ".plan": p}))

    for name, edit in (("repeated_torus", lambda d: d["pieces"][0].update(boundary_tori=["f", "f"])),
                       ("repeated_piece", lambda d: d["pieces"][1].update(id="S1")),
                       ("repeated_gluing", lambda d: d["gluings"][1].update(id="f")),
                       ("shared_torus", lambda d: d["gluings"][1].update(side_a=["S1", "f"])),
                       ("self_glued_torus", lambda d: d["gluings"][1].update(side_b=["S2", "g"]))):
        m = copy.deepcopy(manifold)
        edit(m)
        staircase(name, m, plan2)
    staircase("missing_entry", manifold, {**plan2, "pieces": plan2["pieces"][:2]})
    unequal = {"type": "refiber_plan", "pieces": [{"id": "S1", "n": 2, "arcs": []},
                                                  {"id": "S2", "n": 3, "arcs": [["e2", "g"]]},
                                                  {"id": "S3", "n": 4, "arcs": [["g", "e3"]]}]}
    staircase("horizontal_unequal", manifold, unequal)
    first_large = chain_plan(300_000)
    first_large["pieces"] += chain_plan(1)["pieces"]
    staircase("first_entry_large", manifold, first_large)
    for n in (1, 83331, 83332, 10 ** 12):
        staircase("chain_n%d" % n, manifold, chain_plan(n))
    for k in (83_333, 83_334):
        staircase("long_chain_%d" % k, *long_chain(k))
    # refibered names that collide, which only the graph's validation refuses: copy A~0 of
    # piece A beside a piece named A~0, and slot t~0 of a torus t that lifts to two circles
    # beside a torus named t~0
    shear = [[-1, 1], [0, 1]]
    a = {"id": "A", "genus": 1, "boundary_tori": ["t"]}
    staircase("copy_name_taken",
              {"type": "graph_manifold", "pieces": [a, {"id": "A~0", "genus": 1, "boundary_tori": ["t", "x", "y"]}],
               "gluings": [{"id": "j", "side_a": ["A", "t"], "side_b": ["A~0", "t"], "matrix": shear}]},
              {"type": "refiber_plan", "pieces": [{"id": "A", "n": 2, "arcs": []},
                                                  {"id": "A~0", "n": 2, "arcs": [["x", "y"]]}]})
    staircase("circle_name_taken",
              {"type": "graph_manifold",
               "pieces": [a, {"id": "B", "genus": 1, "boundary_tori": ["t", "t~0", "x"]},
                          {"id": "C", "genus": 1, "boundary_tori": ["s", "z"]}],
               "gluings": [{"id": "j", "side_a": ["B", "t"], "side_b": ["A", "t"], "matrix": shear},
                           {"id": "k", "side_a": ["B", "t~0"], "side_b": ["C", "s"], "matrix": [[-1, -4], [0, 1]]}]},
              {"type": "refiber_plan", "pieces": [{"id": "A", "n": 2, "arcs": []},
                                                  {"id": "B", "n": 2, "arcs": [["t~0", "x"]]},
                                                  {"id": "C", "n": 2, "arcs": [["s", "z"]]}]})
    # gluings off the normal form, all refused: a horizontal circle against an arc end, in
    # either order, and one circle against one, with the gluing named from either side
    pieces = [{"id": "A", "genus": 1, "boundary_tori": ["t"]}, {"id": "B", "genus": 1, "boundary_tori": ["t", "u"]}]
    for name, sides, matrix, n_a in (("circles_2_1", (["A", "t"], ["B", "t"]), [[2, 1], [1, 1]], 2),
                                     ("circles_1_2", (["B", "t"], ["A", "t"]), [[1, -1], [-1, 2]], 2),
                                     ("circles_1_1", (["A", "t"], ["B", "t"]), [[2, 1], [1, 1]], 1),
                                     ("circles_1_1_swapped", (["B", "t"], ["A", "t"]), [[1, -1], [-1, 2]], 1)):
        m = {"type": "graph_manifold", "pieces": pieces,
             "gluings": [{"id": "j", "side_a": sides[0], "side_b": sides[1], "matrix": matrix}]}
        staircase(name, m, {"type": "refiber_plan", "pieces": [{"id": "A", "n": n_a, "arcs": []},
                                                               {"id": "B", "n": 2, "arcs": [["u", "t"]]}]})
    # a graph piece that repeats a slot, keeping its boundary count
    hub = documents("ex4.6")["d_2_2"]
    hub["pieces"][0]["slots"] = ["h0", "h0"]
    hub["pieces"] = hub["pieces"][:2]
    hub["curves"] = hub["curves"][:1]
    g = {"repeated_slot": hub}
    for argv in (["invariants"], ["normalize"], ["power", "2"], ["compare", "repeated_slot"]):
        runs.append(([argv[0], "repeated_slot", *argv[1:]], g))
    runs.append((["cover", "repeated_slot", "repeated_slot.double"], {**g, "repeated_slot.double": double_cover(hub)}))
    # a symbolic stretch factor lambda**e with e <= 0
    for e in ("0", "-1"):
        graph = documents("ex4.9")["k2"]
        graph["pieces"][0]["dilatation"]["exponent"] = e
        name = "exponent_%s" % e
        runs.append((["compare", name, name, "--mode", "combined"], {name: graph}))
        runs.append((["invariants", name], {name: graph}))
    # two faults in nested fields: the first entry in list order names the fault
    # a star of 20 leaves and a plan of 20 entries: lists long enough to be read as columns
    star = {"type": "reducible_map",
            "pieces": [{"id": "hub", "genus": 1, "boundary": 20, "slots": ["h%d" % i for i in range(20)],
                        "free_boundary": 0, "dilatation": None}]
            + [{"id": "leaf%d" % i, "genus": 2, "boundary": 1, "slots": ["s"], "free_boundary": 0, "dilatation": None}
               for i in range(20)],
            "curves": [{"id": "c%d" % i, "end_a": ["hub", "h%d" % i], "end_b": ["leaf%d" % i, "s"], "twist": "1"}
                       for i in range(20)]}
    for name, edits in (("twist_then_id", ((("curves", 2, "twist"), "1/0"), (("curves", 5, "id"), 7))),
                        ("slot_then_genus", ((("pieces", 3, "genus"), -1), (("pieces", 1, "slots", 0), 5))),
                        ("twist_true", ((("curves", 0, "twist"), 1), (("curves", 1, "twist"), "1"),
                                        (("curves", 2, "twist"), True)))):
        runs.append((["invariants", name], {name: edited(star, *edits)}))
    covering = edited(double_cover(star), (("pieces", 0, "components", 0, "slots", 2, 1, 1), "1"),
                      (("pieces", 1, "id"), 5))
    runs.append((["cover", "star", "partition_then_id"], {"star": star, "partition_then_id": covering}))
    long_plan = {"type": "refiber_plan", "pieces": [{"id": "P%d" % i, "n": 1, "arcs": [["l", "r"]]} for i in range(20)]}
    staircase("arc_then_n", manifold, edited(long_plan, (("pieces", 1, "arcs", 0), ["a"]), (("pieces", 2, "n"), "1")))
    query = documents("ex3.12")["q20"]
    for radius in ("300", "301"):
        runs.append((["spectrum", "radius_limit", "--radius", radius], {"radius_limit": query}))
    # a matrix of determinant 2 at each gate, and a gluing that does not carry the plan's slope
    det2 = [[3, 1], [1, 1]]
    runs.append((["classify", "det2"], {"det2": {"type": "torus_automorphism", "matrix": det2}}))
    runs.append((["spectrum", "det2_query"], {"det2_query": {**query, "matrix": det2}}))
    staircase("det2_gluing", edited(manifold, (("gluings", 0, "matrix"), det2)), plan2)
    no_shear = [[-1, 0], [0, 1]]
    staircase("slope_mismatch", edited(manifold, (("gluings", 1, "matrix"), no_shear)), plan2)
    # one refusal of the plan each, or two in one message
    off_boundary = edited(plan2, (("pieces", 1, "arcs"), [["e2", "zz"]]))
    for name, m, p in (("zero_sheets", manifold, edited(plan2, (("pieces", 0, "n"), 0))),
                       ("arc_on_one_boundary", manifold, edited(plan2, (("pieces", 1, "arcs"), [["e2", "e2"]]))),
                       ("arc_ends_share_boundary", manifold,
                        edited(plan2, (("pieces", 1, "arcs"), [["e2", "g"], ["g", "f"]]))),
                       ("arc_off_boundary", manifold, off_boundary),
                       ("arc_off_boundary_and_missing_entry", manifold,
                        edited(off_boundary, (("pieces",), off_boundary["pieces"][:2]))),
                       ("shear_0", edited(manifold, (("gluings", 0, "matrix"), no_shear)), plan2),
                       ("shear_0_and_slope_mismatch", edited(manifold, (("gluings", 0, "matrix"), no_shear),
                                                             (("gluings", 1, "matrix"), no_shear)), plan2)):
        staircase(name, m, p)
    runs += cover_fault_runs() + empty_list_runs() + graph_fault_runs()
    # an exact stretch factor (3 + sqrt 5) / 2: printed at k = 1, too long to print at
    # k = 10288, and refused before the power is computed at k = 10809
    exact = edited(FAULT_BASE, (("pieces", 0, "dilatation"), {"kind": "exact", "unit": {"D": 5, "a": "3/2", "b": "1/2"}}))
    for k in ("1", "10288", "10809"):
        runs.append((["power", "exact", k], {"exact": exact}))
    # distinct 3000-digit twists: the invariants' reciprocal sums have about 9000 digits, too many to
    # print, while compare against the graph's square decides on them and prints the scale 1/2
    long_twists = [10 ** 2999 + 1, 10 ** 2999 + 3]
    long = {name: edited(FAULT_BASE, *((("curves", i, "twist"), str(k * t)) for i, t in enumerate(long_twists)))
            for name, k in (("long_twists", 1), ("long_twists_squared", 2))}
    runs += [(["invariants", "long_twists"], long), (["compare", "long_twists", "long_twists_squared"], long)]
    # a curve id holding a lone surrogate, which a JSON escape can hold and text output cannot write
    surrogate = {"surrogate": edited(FAULT_BASE, (("curves", 0, "id"), "c\ud800"))}
    runs += [(["power", "surrogate", "1"], surrogate), (["invariants", "surrogate"], surrogate)]
    # integers past the interpreter's 4300-digit limit, refused by the reader: a twist string,
    # and a JSON integer literal (written as text, since json.dumps cannot print it)
    digits = "1" + "0" * 4999
    long_string = edited(FAULT_BASE, (("curves", 0, "twist"), digits))
    runs.append((["invariants", "long_twist_string"], {"long_twist_string": long_string}))
    literal = json.dumps(edited(FAULT_BASE, (("curves", 0, "twist"), "digits"))).replace('"digits"', digits)
    runs.append((["invariants", "long_int_literal"], {"long_int_literal": literal}))
    # a twist with an exponent, which Fraction would read as 10**100000
    exponent = {"exponent_twist": edited(FAULT_BASE, (("curves", 0, "twist"), "1e100000"))}
    runs.append((["invariants", "exponent_twist"], exponent))
    return runs


def edited(doc, *edits):
    """A copy of ``doc`` with the value at each path replaced."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return doc


def two_pieces(x, y, c):
    """Pieces x and y, of genus 1 with two slots each, joined by curves c1 and c2."""
    return {"type": "reducible_map",
            "pieces": [{"id": p, "genus": 1, "boundary": 2, "slots": [p + "1", p + "2"], "free_boundary": 0,
                        "dilatation": None} for p in (x, y)],
            "curves": [{"id": "%s%d" % (c, i), "end_a": [x, "%s%d" % (x, i)], "end_b": [y, "%s%d" % (y, i)],
                        "twist": "1"} for i in (1, 2)]}


FAULT_BASE = two_pieces("a", "b", "c")


def graph_fault_runs():
    """``invariants`` on graphs with one fault of ``decomposition.validate`` each."""
    runs = []
    for name, edits in (("duplicate_piece", ((("pieces", 1, "id"), "a"),)),
                        ("duplicate_curve", ((("curves", 1, "id"), "c1"),)),
                        ("no_curves", ((("curves",), []),)),
                        ("chi_nonnegative", ((("pieces", 0, "genus"), 0),)),
                        ("boundary_count", ((("pieces", 0, "boundary"), 3),)),
                        ("zero_twist", ((("curves", 0, "twist"), "0"),)),
                        ("escaped_zero_twist", ((("curves", 0, "twist"), "0"), (("curves", 0, "id"), "c\u001b[31m0"))),
                        ("missing_piece", ((("curves", 0, "end_b"), ["z", "b1"]),)),
                        ("missing_slot", ((("curves", 0, "end_b"), ["b", "z"]),)),
                        ("slot_used_twice", ((("curves", 1, "end_b"), ["b", "b1"]),))):
        runs.append((["invariants", name], {name: edited(FAULT_BASE, *edits)}))
    return runs


def empty_list_runs():
    """``cover`` by the double cover with no component listed for piece a
    of ``FAULT_BASE``, for pieces a and b, and for a and b in a graph of
    two parts, ``FAULT_BASE`` beside pieces d and e."""
    other = two_pieces("d", "e", "f")
    parts = {**FAULT_BASE, "pieces": FAULT_BASE["pieces"] + other["pieces"],
             "curves": FAULT_BASE["curves"] + other["curves"]}
    runs = []
    for graph, name, emptied in ((FAULT_BASE, "empty_a", (0,)), (FAULT_BASE, "empty_a_b", (0, 1)),
                                 (parts, "two_parts_empty_a_b", (0, 1))):
        covering = edited(double_cover(graph), *((("pieces", i, "components"), []) for i in emptied))
        runs.append((["cover", name + ".graph", name], {name + ".graph": graph, name: covering}))
    return runs


def cover_fault_runs():
    """``cover`` of a graph with free circles (corpus entry ex4.2) by its
    double cover with one fault that ``cover.lift_cover`` refuses each, and by
    a cover with a component that fits no surface."""
    graph = documents("ex4.2")["phi1"]
    double = double_cover(graph)  # piece p3 has two free circles, left implicit
    first = ("pieces", 0, "components", 0)

    def every_slot(partition):
        return tuple((("pieces", i, "components", 0, "slots", j, 1), partition)
                     for i, j in ((0, 0), (1, 0), (1, 1), (2, 0)))

    runs = []
    for name, edits in (("degree_0", ((first + ("degree",), 0),)),
                        ("no_partition", ((first + ("slots",), []),)),
                        ("negative_entry", every_slot([3, -1])),
                        ("partition_sum", ((first + ("slots", 0, 1), [1, 1, 1]),)),
                        ("free_count", ((("pieces", 2, "components", 0, "free"), [[1, 1]]),)),
                        ("bad_free", ((("pieces", 2, "components", 0, "free"), [[1, 1], [2, 0]]),)),
                        ("local_degrees", ((first + ("slots", 0, 1), [2]),)),
                        ("no_cover_data", ((("pieces",), double["pieces"][:2]),)),
                        ("no_surface", every_slot([2]))):
        runs.append((["cover", "free_circles", name], {"free_circles": graph, name: edited(double, *edits)}))
    return runs


def crafted_corpora():
    """(name, documents, operation, expected document) of the entry of each
    crafted corpus: first the refused entries, then the torus checks."""

    def branch(degree, points):
        return {"x": {"type": "branch_data", "degree": degree, "branch_points": points}}

    def pa(delta):
        return {"x": {"type": "pa_data", "dilatation": None, "delta": delta},
                "y": {"type": "pa_data", "dilatation": None, "delta": [[4, 1]]}}

    def torus(m1, m2):
        return {name: {"type": "torus_automorphism", "matrix": m} for name, m in (("x", m1), ("y", m2))}

    refused = [(name, docs, op, {}) for name, docs, op in (
        ("odd_chi", branch(2, [[2]]), "branch_delta"),
        ("branch_degree_0", branch(0, []), "branch_delta"),
        ("not_a_partition", branch(2, [[1]]), "branch_delta"),
        ("bad_singularity_entry", pa([[2, 1]]), "pa_obstruction"),
        ("repeated_prong_number", pa([[4, 1], [4, 2]]), "pa_obstruction"))]
    rng = random.Random(2000)
    m, g = shear_word(rng, 500), shear_word(rng, 250)
    unrelated = shear_word(rng, 2000), shear_word(rng, 2000)
    discs = [(a + d) ** 2 - 4 for (a, _), (_, d) in unrelated]
    assert math.isqrt(discs[0] * discs[1]) ** 2 != discs[0] * discs[1]
    cat = [[2, 1], [1, 1]]
    return refused + [
        ("torus_cat_1000", torus(mat_pow(cat, 1000), mat_pow(cat, 1001)), "torus_compare",
         {"kind": "commensurable", "scale": "1000/1001"}),
        ("torus_conjugate_powers_2000", torus(mat_pow(m, 2), mat_mul(mat_mul(g, mat_pow(m, 3)), sl2_inverse(g))),
         "torus_compare", {"kind": "commensurable", "scale": "2/3"}),
        ("torus_unrelated_2000", torus(*unrelated), "torus_compare", {"kind": "incommensurable", "scale": None})]


def mat_mul(m, n):
    return [[sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def mat_pow(m, k):
    """m**k for k >= 1, by k - 1 products."""
    return functools.reduce(mat_mul, [m] * k)


def sl2_inverse(m):
    (a, b), (c, d) = m
    return [[d, -b], [-c, a]]


def shear_word(rng, bits):
    """A product of the shears [[1, k], [0, 1]] and [[1, 0], [k, 1]], 1 <= k <= 3,
    taken in turn until an entry has ``bits`` bits: positive entries, so Anosov."""
    m = [[1, 0], [0, 1]]
    while max(abs(x) for row in m for x in row).bit_length() < bits:
        k = rng.randint(1, 3)
        m = mat_mul(mat_mul(m, [[1, k], [0, 1]]), [[1, 0], [k, 1]])
    return m


def main(tree):
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from click.testing import CliRunner

    from fibercomm.cli import main as cli

    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for argv, docs in corpus_runs() + edge_runs():
            for name, doc in docs.items():
                Path(name).write_text(doc if type(doc) is str else json.dumps(doc), encoding="utf-8")
            for fmt in FORMATS:
                report(runner.invoke(cli, argv + ["--format", fmt]), argv + ["--format", fmt])
        report(runner.invoke(cli, ["corpus", "verify", "--root", str(CORPUS)]), ["corpus", "verify"])
        for name, docs, op, expected in crafted_corpora():
            root, check = "corpus_" + name, {"name": name, "operation": op, "inputs": sorted(docs), "expected": expected}
            (Path(root) / name).mkdir(parents=True)
            for file, doc in (("input.json", {"id": name, "documents": docs}), ("expected.json", {"checks": [check]})):
                (Path(root) / name / file).write_text(json.dumps(doc), encoding="utf-8")
            argv = ["corpus", "verify", "--root", root]
            report(runner.invoke(cli, argv), argv)


def report(result, argv):
    digest = [hashlib.sha256(b).hexdigest() for b in (result.stdout_bytes, result.stderr_bytes)]
    raised = result.exception
    raised = "-" if raised is None or isinstance(raised, SystemExit) else type(raised).__name__
    print(result.exit_code, *digest, raised, " ".join(argv), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
