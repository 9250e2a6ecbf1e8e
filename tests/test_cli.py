import json
import re
import shutil
import sys
import time
from fractions import Fraction as F

import click
import pytest
from click.testing import CliRunner

from oracles import plain_document, reducible_doc_by_dicts, text_lines_by_walk
from fibercomm import cli, cover, quadratic, spectrum, staircase
from fibercomm import serialize as ser
from fibercomm.cli import CORPUS_ROOT, main
from fibercomm.cover import ComponentCover, CoveringData
from fibercomm.decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve, power
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_alternate_plan,
    closed_chain_manifold,
    closed_chain_plan,
    d_type_family,
)
from fibercomm.quadratic import QuadraticUnit, squarefree_part
from fibercomm.staircase import refiber
from fibercomm.surfaces import Surface


def write(path, doc):
    ser.dump(path, doc)
    return str(path)


def run(*argv):
    return CliRunner().invoke(main, list(argv))


SUBCOMMANDS = sorted(name for name, cmd in main.commands.items() if not isinstance(cmd, click.Group))


def argv_for(name, path):
    """Arguments for subcommand ``name`` with every input file at ``path``."""
    params = [p for p in main.commands[name].params if isinstance(p, click.Argument)]
    return [name] + [path if isinstance(p.type, click.Path) else "1" for p in params]


def test_classify_text_and_machine(tmp_path):
    path = write(tmp_path / "m.json", {"type": "torus_automorphism", "matrix": [[2, 1], [1, 1]]})
    r = run("classify", path)
    assert r.exit_code == 0
    assert "kind: anosov" in r.output
    r = run("classify", path, "--format", "machine")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["kind"] == "anosov"
    assert doc["dilatation"] == {"D": 5, "a": "3/2", "b": "1/2"}
    assert r.output == ser.canonical_dumps(doc)


def test_invariants_command(tmp_path):
    path = write(tmp_path / "d.json", ser.reducible_doc(d_type_family(3, 2)))
    r = run("invariants", path, "--format", "machine")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["a"] == ["3", "0"]
    assert doc["pi"] == [["1/3", "0"], ["1", "0"]]
    assert doc["chi"] == -12


def test_compare_command(tmp_path):
    m = bounded_chain_manifold()
    p1 = write(tmp_path / "p1.json", ser.reducible_doc(refiber(m, bounded_chain_plan(1)).map))
    p2 = write(tmp_path / "p2.json", ser.reducible_doc(refiber(m, bounded_chain_plan(2)).map))
    r = run("compare", p1, p2, "--format", "machine")
    assert r.exit_code == 0
    assert json.loads(r.output)["verdict"] == "incommensurable"

    d1 = write(tmp_path / "d1.json", ser.reducible_doc(d_type_family(2, 2)))
    d2 = write(tmp_path / "d2.json", ser.reducible_doc(d_type_family(3, 2)))
    for mode in ("full", "topological", "combined"):
        r = run("compare", d1, d2, "--mode", mode, "--format", "machine")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "not_obstructed"


def test_power_command(tmp_path):
    path = write(tmp_path / "d.json", ser.reducible_doc(d_type_family(2, 2)))
    r = run("power", path, "3", "--format", "machine")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert all(c["twist"] == "3" for c in doc["curves"])


def test_staircase_command(tmp_path):
    mpath = write(tmp_path / "m.json", ser.manifold_doc(bounded_chain_manifold()))
    ppath = write(tmp_path / "p.json", ser.plan_doc(bounded_chain_plan(2)))
    r = run("staircase", mpath, ppath, "--format", "machine")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["connected"] and doc["monodromy_order"] == 6
    assert doc["fiber"] == {"genus": 7, "boundary": 2}
    twists = sorted(F(c["twist"]) for c in doc["map"]["curves"])
    assert twists == [F(1, 6), F(1, 2), F(1, 2)]


def test_normalize_command(tmp_path):
    path = write(tmp_path / "d.json", ser.reducible_doc(d_type_family(1, 2)))
    r = run("normalize", path, "--format", "machine")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["certificate"]["power"] == 1


def test_spectrum_command_and_radius_override(tmp_path):
    q = {
        "type": "spectrum_query",
        "matrix": [[2, 1], [1, 1]],
        "origin": ["0", "0"],
        "point": ["1/2", "1/2"],
        "radius": 5,
    }
    path = write(tmp_path / "q.json", q)
    r = run("spectrum", path, "--format", "machine")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["min"]["value"] == {"D": 5, "a": "0", "b": "1/20"}
    r2 = run("spectrum", path, "--radius", "20", "--format", "machine")
    assert r2.exit_code == 0
    doc2 = json.loads(r2.output)
    assert doc2["min"]["value"] == doc["min"]["value"]
    assert len(doc2["values"]) >= len(doc["values"])


def test_corpus_verify_ok():
    r = run("corpus", "verify")
    assert r.exit_code == 0, r.output
    lines = [l for l in r.output.splitlines() if l]
    assert len(lines) == 8 and all(l.endswith(": ok") for l in lines)


def test_corpus_verify_detects_mismatch(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    expected = root / "ex2.9" / "expected.json"
    doc = ser.load(expected)
    doc["checks"][0]["expected"]["period"] = 5
    ser.dump(expected, doc)
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 1
    assert "ex2.9: FAIL" in r.output


def test_malformed_input_exits_2(tmp_path):
    path = write(tmp_path / "bad.json", {"type": "torus_automorphism", "matrix": [[2, 0], [0, 1]]})
    r = run("classify", path)
    assert r.exit_code == 2
    wrong_type = write(tmp_path / "t.json", {"type": "torus_automorphism", "matrix": [[2, 1], [1, 1]]})
    r = run("invariants", wrong_type)
    assert r.exit_code == 2
    r = run("classify", str(tmp_path / "missing.json"))
    assert r.exit_code == 2
    short_row = write(tmp_path / "row.json", {"type": "torus_automorphism", "matrix": [[2, 1]]})
    r = run("classify", short_row)
    assert r.exit_code == 2 and "malformed input" in r.output and "Traceback" not in r.output
    graph = ser.reducible_doc(d_type_family(3, 2))
    graph["pieces"][0]["genus"] = "1"
    string_genus = write(tmp_path / "genus.json", graph)
    r = run("invariants", string_genus)
    assert r.exit_code == 2 and "malformed input" in r.output and "Traceback" not in r.output
    not_json = tmp_path / "notjson.json"
    not_json.write_text("{bad")
    r = run("classify", str(not_json))
    assert r.exit_code == 2 and "malformed input: %s:" % not_json in r.output
    # rationals must be exact: no JSON floats or booleans
    for twist in (0.1, True):
        graph = ser.reducible_doc(d_type_family(3, 2))
        graph["curves"][0]["twist"] = twist
        r = run("invariants", write(tmp_path / "twist.json", graph))
        assert r.exit_code == 2 and "malformed input" in r.output and "Traceback" not in r.output
    # torus matrix entries must be integers: each replaces an entry of the cat map
    for row, col, entry in ((0, 0, 2.5), (0, 1, True), (0, 0, "2")):
        matrix = [[2, 1], [1, 1]]
        matrix[row][col] = entry
        path = write(tmp_path / "entry.json", {"type": "torus_automorphism", "matrix": matrix})
        r = run("classify", path)
        assert r.exit_code == 2 and "malformed input" in r.output and "Traceback" not in r.output
    # so must spectrum query matrices and gluing matrices, and the radius
    query = {"type": "spectrum_query", "matrix": [[2, 1], [1, 1]], "origin": ["0", "0"], "point": ["1/2", "0"]}
    for matrix, radius in (([[2.5, 1], [1, True]], 3), ([[2, 1], [1, 1.0]], 3), ([[2, 1], [1, 1]], 2.5),
                           ([[2, 1], [1, 1]], True), ([[2, 1], [1, 1]], "3")):
        path = write(tmp_path / "query.json", {**query, "matrix": matrix, "radius": radius})
        r = run("spectrum", path)
        assert r.exit_code == 2 and "malformed input" in r.output and "Traceback" not in r.output
    plan = write(tmp_path / "plan.json", ser.plan_doc(bounded_chain_plan(2)))
    for entry in (-1.5, True, "-1"):
        manifold = ser.manifold_doc(bounded_chain_manifold())
        manifold["gluings"][0]["matrix"][0][0] = entry
        r = run("staircase", write(tmp_path / "manifold.json", manifold), plan)
        assert r.exit_code == 2 and "malformed input" in r.output and "Traceback" not in r.output
    # the spectrum_count_below bound is a document rational (a corpus-only operation)
    for bound in (5.1, True, None):
        with pytest.raises(cli.MalformedInput):
            cli.run_operation("spectrum_count_below", [{**query, "radius": 3}], {"bound": bound})
    assert cli.run_operation("spectrum_count_below", [{**query, "radius": 3}], {"bound": "5"})["count"] > 0
    # a zero denominator is malformed, not a ZeroDivisionError
    graph = ser.reducible_doc(d_type_family(3, 2))
    graph["curves"][0]["twist"] = "1/0"
    zero_denominator = [("invariants", graph), ("spectrum", {**query, "radius": 3, "origin": ["1/0", "0"]})]
    # counts are JSON integers, never floats or strings
    d_type = ser.reducible_doc(d_type_family(3, 2))
    double = tuple((p.id, (ComponentCover(2, tuple((s, (1, 1)) for s in p.slots)),)) for p in d_type_family(3, 2).pieces)
    cover = ser.covering_doc(CoveringData(double))
    counts = []
    for field, value in (("genus", 1.0), ("free_boundary", "0")):
        graph = ser.reducible_doc(d_type_family(3, 2))
        graph["pieces"][0][field] = value
        counts.append(("invariants", graph))
    for degree in ("2", 2.0):
        bad_cover = json.loads(json.dumps(cover))
        bad_cover["pieces"][0]["components"][0]["degree"] = degree
        counts.append(("cover", d_type, bad_cover))
    manifold, plan_doc = ser.manifold_doc(bounded_chain_manifold()), ser.plan_doc(bounded_chain_plan(2))
    manifold["pieces"][0]["genus"] = 1.0
    counts.append(("staircase", manifold, ser.plan_doc(bounded_chain_plan(2))))
    plan_doc["pieces"][0]["n"] = 2.0
    counts.append(("staircase", ser.manifold_doc(bounded_chain_manifold()), plan_doc))
    # GL(2, Z) matrices are 2x2
    wide_gluing = ser.manifold_doc(bounded_chain_manifold())
    wide_gluing["gluings"][0]["matrix"] = [row + [0] for row in wide_gluing["gluings"][0]["matrix"]]
    shapes = [("staircase", wide_gluing, ser.plan_doc(bounded_chain_plan(2)))]
    for matrix in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 1, 5], [1, 1, 7]], [[2, 1], [1, 1], [9, 9]]):
        shapes.append(("classify", {"type": "torus_automorphism", "matrix": matrix}))
    shapes.append(("spectrum", {**query, "radius": 3, "matrix": [[2, 1], [1, 1], [9, 9]]}))
    for name, *docs in zero_denominator + counts + shapes:
        paths = [write(tmp_path / ("doc%d.json" % i), doc) for i, doc in enumerate(docs)]
        r = run(name, *paths)
        assert r.exit_code == 2 and "malformed input" in r.output and "Traceback" not in r.output, (name, docs)
    # a string is not read as a list of its characters, and the error names the field
    named = []
    for where, value, field in ((("pieces", 0, "slots"), "s1", "pieces[0].slots"),
                                (("pieces", 0, "slots"), 7, "pieces[0].slots: expected list of str"),
                                (("pieces", 1, "slots"), ["s", 1], "pieces[1].slots"),
                                (("curves", 0, "end_a"), "as", "curves[0].end_a"),
                                (("curves", 1, "end_b"), ["leaf0", "s", "x"], "curves[1].end_b")):
        graph = ser.reducible_doc(d_type_family(3, 2))
        graph[where[0]][where[1]][where[2]] = value
        named.append(("invariants", graph, field))
    # a spectrum point is exactly two rationals
    for key, value in (("origin", ["0", "0", "5"]), ("point", ["1/2"]), ("origin", "00")):
        named.append(("spectrum", {**query, "radius": 3, key: value}, key + ": expected a list of two rationals"))
    # a missing key is named by its path
    for where, key in ((("curves", 0), "id"), (("curves", 1), "end_a"), (("curves", 0), "end_b"),
                       (("curves", 2), "twist"), (("pieces", 0), "slots"), (("pieces", 1), "genus"),
                       (("pieces", 0), "boundary"), (("pieces", 2), "free_boundary"), (("pieces", 1), "id")):
        graph = ser.reducible_doc(d_type_family(3, 2))
        del graph[where[0]][where[1]][key]
        named.append(("invariants", graph, "%s[%d].%s: missing" % (where[0], where[1], key)))
    for key in ("pieces", "curves"):
        graph = ser.reducible_doc(d_type_family(3, 2))
        del graph[key]
        named.append(("power", graph, key + ": missing"))
    graph = ser.reducible_doc(d_type_family(3, 2))
    graph["curves"][1]["id"] = 5
    named.append(("power", graph, "curves[1].id: expected str, got 5"))
    # power checks the graph it reads, as invariants and normalize do
    graph = ser.reducible_doc(d_type_family(1, 2))
    graph["curves"][0].update(twist="0", end_b=["zz", "s"])
    cid = graph["curves"][0]["id"]
    for name in ("power", "invariants", "normalize"):
        named.append((name, graph, "invalid decomposition graph: curve %s has zero twist; "
                                   "curve %s references missing piece zz" % (cid, cid)))
    for name, doc, field in named:
        r = run(*argv_for(name, write(tmp_path / "named.json", doc)))
        assert r.exit_code == 2 and "malformed input: " + field in r.output, r.output
        assert "Traceback" not in r.output
    # the same for the corpus-only operations on branch and singularity data
    pa = {"type": "pa_data", "dilatation": None, "delta": [[6, 2]]}
    for op, doc in (("branch_delta", {"type": "branch_data", "degree": 2, "branch_points": [[2.0], [2]]}),
                    ("branch_delta", {"type": "branch_data", "degree": 2.0, "branch_points": [[2], [2]]}),
                    ("branch_delta", {"type": "branch_data", "degree": 2, "branch_points": [[2], [2]],
                                      "matrix": [[2.5, "x", 7]]}),
                    ("branch_delta", {"type": "branch_data", "degree": 2, "branch_points": [[2], [2]],
                                      "matrix": [[2, 1], [1, True]]}),
                    ("pa_obstruction", {**pa, "delta": [[6.5, 2]]})):
        with pytest.raises(cli.MalformedInput):
            cli.run_operation(op, [doc, pa], {})


def double_cover_doc(phi):
    """Covering data of the uniform double cover of a D-type graph."""
    return ser.covering_doc(CoveringData(tuple(
        (p.id, (ComponentCover(2, tuple((s, (1, 1)) for s in p.slots)),)) for p in phi.pieces)))


def test_every_fault_is_named_by_its_path(tmp_path):
    """Strings are never read as lists, and no fault surfaces as a bare
    Python error: each names the faulty value by its path."""
    manifold, plan = ser.manifold_doc(bounded_chain_manifold()), ser.plan_doc(bounded_chain_plan(2))
    phi = d_type_family(3, 2)
    cases = []
    for where, value, message in (
        (("pieces", 0, "boundary_tori"), "ab", "pieces[0].boundary_tori: expected list of str, got 'ab'"),
        (("gluings", 0, "side_a"), "ab", "gluings[0].side_a: expected [piece id, torus] as two str, got 'ab'"),
        (("pieces", 0, "id"), 5, "pieces[0].id: expected str, got 5"),
    ):
        doc = json.loads(json.dumps(manifold))
        doc[where[0]][where[1]][where[2]] = value
        cases.append(("staircase", [doc, plan], message))
    # repeated names, and a plan that misses a piece
    for edit, message in (
        (lambda d: d["pieces"][0].update(boundary_tori=["f", "f"]), "pieces[0]: piece S1: repeated torus names f"),
        (lambda d: d["pieces"][1].update(id="S1"), "repeated piece ids S1"),
        (lambda d: d["gluings"][1].update(id="f"), "repeated gluing ids f"),
    ):
        doc = json.loads(json.dumps(manifold))
        edit(doc)
        cases.append(("staircase", [doc, plan], message))
    cases.append(("staircase", [manifold, {**plan, "pieces": plan["pieces"][:2]}],
                  "inadmissible plan: piece S3: no plan entry"))
    # a horizontal circle glued to an arc end by an uncalibrated matrix
    cases.append(("staircase", [{"type": "graph_manifold",
                                 "pieces": [{"id": "A", "genus": 1, "boundary_tori": ["t"]},
                                            {"id": "B", "genus": 1, "boundary_tori": ["t", "u"]}],
                                 "gluings": [{"id": "j", "side_a": ["A", "t"], "side_b": ["B", "t"],
                                              "matrix": [[2, 1], [1, 1]]}]},
                                {"type": "refiber_plan", "pieces": [{"id": "A", "n": 2, "arcs": []},
                                                                    {"id": "B", "n": 2, "arcs": [["u", "t"]]}]}],
                  "inadmissible plan: gluing j: unequal sheet counts (2 and 1 circles)"))
    # a graph piece that repeats a slot
    cases.append(("invariants", [{"type": "reducible_map",
                                  "pieces": [{"id": "hub", "genus": 1, "boundary": 2, "slots": ["h0", "h0"],
                                              "free_boundary": 0},
                                             {"id": "leaf", "genus": 1, "boundary": 1, "slots": ["l"],
                                              "free_boundary": 0}],
                                  "curves": [{"id": "c", "end_a": ["hub", "h0"], "end_b": ["leaf", "l"],
                                              "twist": "1"}]}],
                  "invalid decomposition graph: piece hub repeats slot h0"))
    for key, value, message in (("arcs", [1], "pieces[1].arcs[0]: expected [tail, head] as two str, got 1"),
                                ("n", "2", "pieces[1].n: expected int, got '2'")):
        doc = json.loads(json.dumps(plan))
        doc["pieces"][1][key] = value
        cases.append(("staircase", [manifold, doc], message))
    graph = ser.reducible_doc(phi)
    for edit, message in (
        (lambda g: g["pieces"][0].update(id=5), "pieces[0].id: expected str, got 5"),
        (lambda g: g["pieces"].__setitem__(0, "x"), "pieces[0]: expected object, got 'x'"),
        (lambda g: g["pieces"][1].update(dilatation=[]), "pieces[1].dilatation: expected object, got []"),
        (lambda g: g["pieces"][1].update(dilatation={"kind": "exact"}), "pieces[1].dilatation.unit: missing"),
        (lambda g: g["pieces"][1].update(genus=-1),
         "pieces[1]: genus and boundary count must be non-negative"),
        (lambda g: g.update(type="graph"), "type: expected 'reducible_map', got 'graph'"),
    ):
        doc = json.loads(json.dumps(graph))
        edit(doc)
        cases.append(("invariants", [doc], message))
    cover = double_cover_doc(phi)
    for edit, message in (
        (lambda c: c["pieces"][0]["components"][0].pop("degree"), "pieces[0].components[0].degree: missing"),
        (lambda c: c["pieces"][0]["components"][0]["slots"][0].pop(),
         "pieces[0].components[0].slots[0]: expected [slot, partition], got ['"),
        (lambda c: c["pieces"][1]["components"][0].update(free=[1]),
         "pieces[1].components[0].free[0]: expected list of int, got 1"),
    ):
        doc = json.loads(json.dumps(cover))
        edit(doc)
        cases.append(("cover", [graph, doc], message))
    cases.append(("classify", [{"type": "torus_automorphism"}], "matrix: missing"))
    cases.append(("classify", [[1, 2]], "expected object, got [1, 2]"))
    for name, docs, message in cases:
        paths = [write(tmp_path / ("doc%d.json" % i), doc) for i, doc in enumerate(docs)]
        r = run(name, *paths)
        assert r.exit_code == 2 and r.output.startswith("malformed input: " + message), r.output
        assert "Traceback" not in r.output
    # the corpus-only documents
    for op, doc, message in (
        ("branch_delta", {"type": "branch_data", "degree": 2, "branch_points": [2]},
         "branch_points[0]: expected list of int, got 2"),
        ("pa_obstruction", {"type": "pa_data", "delta": [[6, 2, 1]]},
         "delta[0]: expected [prongs, count] as two int, got [6, 2, 1]"),
    ):
        with pytest.raises(cli.MalformedInput, match=r"^%s" % re.escape(message)):
            cli.run_operation(op, [doc] * len(cli.OPERATIONS[op][0]), {})
    # a file nested too deeply for the JSON reader is malformed, not a crash
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    r = run("classify", str(deep))
    assert r.exit_code == 2 and r.output == "malformed input: %s: JSON nested too deeply to read\n" % deep, r.output


def test_operation_arguments_are_read_by_the_schema():
    graph = ser.reducible_doc(d_type_family(3, 2))
    query = {"type": "spectrum_query", "matrix": [[2, 1], [1, 1]], "origin": ["0", "0"], "point": ["1/2", "0"],
             "radius": 3}
    for op, docs, args, message in (
        ("power", [graph], {"k": 2.5}, "args.k: expected int, got 2.5"),
        ("power", [graph], {"k": "3"}, "args.k: expected int, got '3'"),
        ("power", [graph], {"k": None}, "args.k: expected int, got None"),
        ("power", [graph], {"k": True}, "args.k: expected int, got True"),
        ("power", [graph], {}, "args.k: missing"),
        ("power", [graph], [3], "args: expected object, got [3]"),
        ("compare", [graph, graph], {"mode": "sideways"},
         "args.mode: expected 'full' or 'topological' or 'combined', got 'sideways'"),
        ("spectrum_count_below", [query], {"bound": 5.1}, "args.bound: expected a rational"),
        ("spectrum_count_below", [query], {"bound": "1/0"}, "args.bound: rational '1/0' has denominator zero"),
        ("spectrum_min", [query], {"radius": True}, "args.radius: expected int, got True"),
        ("compare", [graph], {}, "compare takes 2 input documents, got 1"),
    ):
        with pytest.raises(cli.MalformedInput, match="^" + re.escape(message)):
            cli.run_operation(op, docs, args)
    # unknown keys are ignored, and a power is exact
    doubled = cli.run_operation("power", [graph], {"k": 2, "note": "x"})
    assert all(type(c.twist) is F for c in doubled.curves)
    assert cli.run_operation("compare", [graph, graph], {"mode": None})["verdict"] == "not_obstructed"


def test_corpus_verify_names_malformed_entries(tmp_path):
    for edit, message in (
        (lambda i, e: e["checks"][0].update(inputs="ab"), "checks[0].inputs: expected list of str, got 'ab'"),
        (lambda i, e: e["checks"][0].update(inputs=["nope"]), "checks[0].inputs[0]: expected 'anosov' or "),
        (lambda i, e: e["checks"][1].pop("operation"), "checks[1].operation: missing"),
        (lambda i, e: e["checks"][2].update(args=[1]), "checks[2].args: expected object, got [1]"),
        (lambda i, e: e.pop("checks"), "checks: missing"),
        (lambda i, e: i.update(documents=[]), "documents: expected object, got []"),
    ):
        root = tmp_path / ("corpus%d" % len(list(tmp_path.iterdir())))
        shutil.copytree(CORPUS_ROOT, root)
        input_doc, expected = ser.load(root / "ex2.9" / "input.json"), ser.load(root / "ex2.9" / "expected.json")
        edit(input_doc, expected)
        ser.dump(root / "ex2.9" / "input.json", input_doc)
        ser.dump(root / "ex2.9" / "expected.json", expected)
        r = run("corpus", "verify", "--root", str(root))
        assert r.exit_code == 2 and "ex2.9: malformed entry (%s" % message in r.output, r.output
        assert "Traceback" not in r.output


def test_stretch_factor_exponent_must_be_positive(tmp_path):
    """lambda**e for e <= 0 is no stretch factor: the label refuses it, in
    the library, the graph reader, the pa reader and a corpus check."""
    for e in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="^stretch-factor exponent must be positive, got %s$" % e):
            DilatationLabel(name="lam", exponent=e)
    k2 = ser.load(CORPUS_ROOT / "ex4.9" / "input.json")["documents"]["k2"]
    for e in ("0", "-1", "-1/2"):
        k2["pieces"][0]["dilatation"]["exponent"] = e
        message = "malformed input: pieces[0].dilatation: stretch-factor exponent must be positive, got %s\n" % e
        path = write(tmp_path / "k2.json", k2)
        for argv in (["compare", path, path, "--mode", "combined"], ["invariants", path]):
            r = run(*argv)
            assert r.exit_code == 2 and r.output == message, r.output
        pa = {"type": "pa_data", "dilatation": k2["pieces"][0]["dilatation"], "delta": [[6, 2]]}
        with pytest.raises(cli.MalformedInput, match="^dilatation: stretch-factor exponent"):
            cli.run_operation("pa_obstruction", [pa, pa], {})
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    ser.dump(root / "ex4.9" / "input.json", {"documents": {"k2": k2, "k2_again": k2, "k3": k2}})
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output
    assert ("ex4.9: malformed entry (different twist counts: pieces[0].dilatation: stretch-factor exponent must be "
            "positive, got -1/2)\n") in r.output and "FAIL" not in r.output, r.output


def test_resource_limits_are_pinned(tmp_path, monkeypatch):
    """Each limit on an input whose cost grows with its value accepts its
    bound and refuses one more, before the work starts."""
    query = {"type": "spectrum_query", "matrix": [[2, 1], [1, 1]], "origin": ["0", "0"], "point": ["1/2", "0"],
             "radius": 3}
    with monkeypatch.context() as patch:  # the radii that reach the enumeration, which yields nothing
        reached = []
        patch.setattr(spectrum, "_translates", lambda q, L: reached.append(q.radius) or iter(()))
        assert cli.run_operation("spectrum_count_below", [query], {"bound": "1", "radius": 300})["count"] == 0
        for op, args in (("spectrum_count_below", {"bound": "1", "radius": 301}), ("spectrum_min", {"radius": 301}),
                         ("spectrum", {"radius": 10 ** 12})):
            with pytest.raises(cli.ResourceLimit, match="the spectrum radius exceeds 300"):
                cli.run_operation(op, [query], args)
        assert reached == [300]
    path = write(tmp_path / "q.json", dict(query, radius=301))
    for argv in (["spectrum", path], ["spectrum", write(tmp_path / "q3.json", query), "--radius", "301"]):
        r = run(*argv)
        assert r.exit_code == 2 and r.output == "resource limit: the spectrum radius exceeds 300\n", r.output
    # refiber counts the pieces plus boundary circles of the graph it
    # would build: a limit at that count accepts it, one less refuses it
    m = bounded_chain_manifold()
    families = [(m, bounded_chain_plan(n)) for n in (1, 2, 5)]
    families += [(closed_chain_manifold(), plan) for plan in (closed_chain_plan(3), closed_chain_alternate_plan())]
    for manifold, plan in families:
        phi = refiber(manifold, plan).map
        size = len(phi.pieces) + sum(p.surface.boundary_components for p in phi.pieces)
        if manifold is m:  # a bounded chain with n sheets: 3n + 6
            assert size == 3 * plan.of("S1").n + 6
        with monkeypatch.context() as patch:
            patch.setattr(staircase, "MAX_STAIRCASE_SIZE", size)
            assert refiber(manifold, plan).map == phi
            patch.setattr(staircase, "MAX_STAIRCASE_SIZE", size - 1)
            with pytest.raises(quadratic.ResourceLimit, match="more than %d pieces and boundary" % (size - 1)):
                refiber(manifold, plan)

    class Built(Exception):
        """Raised by the first graph piece built: the plan was accepted."""

    def built(*args):
        raise Built

    monkeypatch.setattr(staircase, "Piece", built)
    for call in (lambda plan: refiber(m, plan),
                 lambda plan: cli.run_operation("staircase", [ser.manifold_doc(m), ser.plan_doc(plan)], {})):
        with pytest.raises(Built):
            call(bounded_chain_plan(83331))
        for n in (83332, 10 ** 12):
            with pytest.raises(quadratic.ResourceLimit, match="more than 250000 pieces and boundary circles"):
                call(bounded_chain_plan(n))
    monkeypatch.undo()
    # normalization refuses a cover of more lifted curves than the bound
    graph = ser.reducible_doc(d_type_family(2, 3))
    lifted = len(cli.run_operation("normalize", [graph], {})["normalized"].curves)
    monkeypatch.setattr(cover, "MAX_LIFTED_CURVES", lifted)
    assert len(cli.run_operation("normalize", [graph], {})["normalized"].curves) == lifted
    monkeypatch.setattr(cover, "MAX_LIFTED_CURVES", lifted - 1)
    with pytest.raises(cli.ResourceLimit, match="lifts to more than %d curves" % (lifted - 1)):
        cli.run_operation("normalize", [graph], {})
    monkeypatch.undo()
    graph["curves"][0]["twist"] = str(10 ** 40 + 7)
    r = run("normalize", write(tmp_path / "huge.json", graph))
    assert r.exit_code == 2 and r.output.startswith("resource limit: the unit-twist cover lifts to more than"), r.output


def test_squarefree_part_refuses_past_its_trial_bound(tmp_path, monkeypatch):
    """Past its trial bound, squarefree_part certifies a square cofactor
    and refuses any other: a huge trace discriminant is a resource limit."""
    monkeypatch.setattr(quadratic, "TRIAL_WORK", 100 * 21)  # trial divisors up to 100 on a 21-bit integer
    assert squarefree_part(97 * 89 * 2) == 97 * 89 * 2
    assert squarefree_part(3 * 101 ** 2) == 3  # the bound is not reached: 101**3 > 101**2
    assert squarefree_part(3 * 101 ** 2 * 103 ** 2) == 3  # a square cofactor past the bound
    with pytest.raises(quadratic.ResourceLimit, match="needs trial division past"):
        squarefree_part(101 * 103 * 107)
    monkeypatch.undo()
    t0 = time.perf_counter()
    huge = {"type": "torus_automorphism", "matrix": [[10 ** 40 + 7, -1], [1, 0]]}
    r = run("classify", write(tmp_path / "t.json", huge))
    assert r.exit_code == 2 and r.output.startswith("resource limit: the squarefree part of a 266-bit"), r.output
    assert time.perf_counter() - t0 < 5


def golden_pa_graph():
    """Two pieces, one with the stretch factor (3 + sqrt 5) / 2."""
    unit = QuadraticUnit(5, F(3, 2), F(1, 2))
    return ReducibleMap(
        (Piece("a", Surface(1, 1), ("s",), 0, DilatationLabel(unit=unit)), Piece("b", Surface(1, 1), ("s",))),
        (ReducingCurve("c", ("a", "s"), ("b", "s"), F(1, 2)),),
    )


@pytest.fixture
def default_digit_limit():
    """Python's default cap on the digits of an int printed as text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no cap on the digits of an int printed as text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_power_resource_limit(tmp_path, default_digit_limit, capsys):
    phi = golden_pa_graph()
    path = write(tmp_path / "pa.json", ser.reducible_doc(phi))
    # the largest coordinate of the 1000th power has 418 digits: printed as before
    oracle = reducible_doc_by_dicts(power(phi, 1000))
    r = run("power", path, "1000", "--format", "machine")
    assert r.exit_code == 0 and r.output == json.dumps(oracle, sort_keys=True, indent=2) + "\n"
    assert run("power", path, "1000").output == "\n".join(text_lines_by_walk(oracle, "")) + "\n"
    # 10287 is the largest power whose coordinates have at most 4300 digits
    assert run("power", path, "10287", "--format", "machine").exit_code == 0
    # refused while printing (10288 to 10808) or, once k * log10(3/2 + 1/2 * isqrt(5))
    # exceeds 4301, before computing (10809 on)
    # exit 2 with nothing on stdout, in either format (stderr kept apart by capsys)
    for k in ("10288", "10808", "10809", "20000", "10000000"):
        for fmt in ("machine", "text"):
            t0 = time.perf_counter()
            with pytest.raises(SystemExit) as stop:
                main(["power", path, k, "--format", fmt])
            assert time.perf_counter() - t0 < 1, (k, fmt)
            out, err = capsys.readouterr()
            assert stop.value.code == 2 and out == "" and err.startswith("resource limit: "), (k, fmt, err)
            assert "malformed" not in err and "Traceback" not in err
            assert ("power %s of the stretch factor" % k in err) == (int(k) >= 10809), err


def graph_with_twists(twists):
    """The document of ``d_type_family(3, 2)`` with the given twist strings."""
    graph = ser.reducible_doc(d_type_family(3, 2))
    for c, t in zip(graph["curves"], twists, strict=True):
        c["twist"] = t
    return graph


# distinct 3000-digit twists: each can be read and printed, but the
# invariants sum their reciprocals into rationals of about 9000 digits
LONG_TWISTS = [str(10 ** 2999 + 2 * i + 1) for i in range(3)]


def test_oversize_output_is_a_resource_limit(tmp_path, default_digit_limit):
    big = write(tmp_path / "big.json", graph_with_twists(LONG_TWISTS))
    k = 10 ** 3000 + 1  # scales 1/k against k: s = k**2, about 6000 digits
    small = write(tmp_path / "small.json", graph_with_twists(["1/%d" % k] * 3))
    large = write(tmp_path / "large.json", graph_with_twists([str(k)] * 3))
    phi = d_type_family(3, 2)
    double = tuple((p.id, (ComponentCover(2, tuple((s, (1, 1)) for s in p.slots)),)) for p in phi.pieces)
    cover = write(tmp_path / "cover.json", ser.covering_doc(CoveringData(double)))
    for argv in (["invariants", big], ["compare", small, large], ["cover", big, cover]):
        for fmt in ("text", "machine"):
            r = run(*argv, "--format", fmt)
            assert r.exit_code == 2 and r.output.startswith("resource limit: "), (argv, r.output)
            assert "malformed" not in r.output and "Traceback" not in r.output
    # what overflows is the result, not the input: each input alone is printed
    assert run("power", big, "1", "--format", "machine").exit_code == 0
    assert run("compare", small, small, "--format", "machine").exit_code == 0
    laws = cli.run_operation("cover", [ser.load(big), ser.load(cover)], {})["laws"]
    with pytest.raises(ValueError, match="integer string conversion"):
        ser.canonical_dumps(laws[0]["lhs"])


def test_corpus_verify_reports_oversize_output(tmp_path, default_digit_limit):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    entry = ser.load(root / "ex4.6" / "input.json")
    entry["documents"]["long"] = graph_with_twists(LONG_TWISTS)
    ser.dump(root / "ex4.6" / "input.json", entry)
    expected = ser.load(root / "ex4.6" / "expected.json")
    expected["checks"].append({"name": "long twists", "source": "direct", "operation": "invariants",
                               "inputs": ["long"], "expected": {}})
    ser.dump(root / "ex4.6" / "expected.json", expected)
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 1 and "ex4.6: FAIL" in r.output and "Traceback" not in r.output, r.output
    mismatch = [line for line in r.output.splitlines() if line.startswith("  ")]
    assert len(mismatch) == 1 and mismatch[0].startswith("  long twists: raised Exceeds the limit"), mismatch


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_directory_input_exits_2(tmp_path, name):
    r = run(*argv_for(name, str(tmp_path)))
    assert r.exit_code == 2 and "Is a directory" in r.output and "Traceback" not in r.output, r.output


def test_corpus_verify_root_must_be_a_directory(tmp_path):
    r = run("corpus", "verify", "--root", write(tmp_path / "file.json", {}))
    assert r.exit_code == 2 and "is a file" in r.output and "Traceback" not in r.output, r.output


def weird_names(phi):
    """``phi`` with every id and slot renamed to a string JSON escapes."""
    w = lambda s: s + '"\\\n\u00e9'
    return ReducibleMap(
        tuple(Piece(w(p.id), p.surface, tuple(map(w, p.slots)), p.free_boundary, p.dilatation) for p in phi.pieces),
        tuple(ReducingCurve(w(c.id), (w(c.end_a[0]), w(c.end_a[1])), (w(c.end_b[0]), w(c.end_b[1])), c.twist)
              for c in phi.curves),
    )


def test_graph_documents_match_dict_oracle(tmp_path):
    """Top-level (power) and nested (cover, normalize, staircase) graphs,
    in both formats, against documents built one dict per curve."""
    phi = weird_names(d_type_family(3, 2))
    g = ser.reducible_doc(phi)
    double = tuple((p.id, (ComponentCover(2, tuple((s, (1, 1)) for s in p.slots)),)) for p in phi.pieces)
    jobs = [("power", [g], {"k": 3}), ("cover", [g, ser.covering_doc(CoveringData(double))], {}),
            ("normalize", [ser.reducible_doc(weird_names(d_type_family(2, 3)))], {}),
            ("staircase_map", [ser.manifold_doc(bounded_chain_manifold()), ser.plan_doc(bounded_chain_plan(2))], {})]
    for op, docs, args in jobs:
        oracle = plain_document(cli.run_operation(op, docs, args))
        paths = [write(tmp_path / ("%s%d.json" % (op, i)), doc) for i, doc in enumerate(docs)]
        name = {"staircase_map": "staircase"}.get(op, op)
        argv = [name, *paths] + ([str(args["k"])] if args else [])
        r = run(*argv, "--format", "machine")
        assert r.exit_code == 0 and r.output == json.dumps(oracle, sort_keys=True, indent=2) + "\n", op
        r = run(*argv)
        assert r.exit_code == 0 and r.output == "\n".join(text_lines_by_walk(oracle, "")) + "\n", op
    assert '\\"\\\\\\n\\u00e9' in run("power", write(tmp_path / "w.json", g), "2", "--format", "machine").output


def test_corpus_verify_reports_altered_graph(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    expected_path = root / "ex4.6" / "expected.json"
    expected = ser.load(expected_path)
    cube = ser.reducible_doc(power(d_type_family(3, 2), 3))
    expected["checks"].append({"name": "cube of the star", "source": "direct", "operation": "power",
                               "inputs": ["d_3_2"], "args": {"k": 3}, "expected": cube})
    ser.dump(expected_path, expected)
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 0 and "ex4.6: ok" in r.output, r.output
    cube["curves"][1]["twist"] = "4"
    ser.dump(expected_path, expected)
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 1 and "ex4.6: FAIL" in r.output and "Traceback" not in r.output
    mismatch = [line for line in r.output.splitlines() if line.startswith("  ")]
    assert len(mismatch) == 1 and mismatch[0].startswith("  cube of the star: expected {")
    assert '"twist": "4"' in mismatch[0] and '"twist": "3"' in mismatch[0]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_top_level_list_exits_2(tmp_path, name):
    r = run(*argv_for(name, write(tmp_path / "list.json", [1, 2])))
    assert r.exit_code == 2, r.output
    assert "malformed input" in r.output and "Traceback" not in r.output


def test_corpus_verify_reports_malformed_check(tmp_path):
    """A malformed document makes the whole entry malformed, named by the
    first check that reads it, or by its path when it is not an object."""
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    entry = root / "ex2.9" / "input.json"
    doc = ser.load(entry)
    doc["documents"]["rot4"] = {"type": "torus_automorphism", "matrix": [1, 2]}
    ser.dump(entry, doc)
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 2 and "FAIL" not in r.output and "Traceback" not in r.output, r.output
    assert "ex2.9: malformed entry (order-4 rotation: matrix[0]: expected a row of two int, got 1)" in r.output
    doc["documents"]["rot4"] = [1, 2]
    ser.dump(entry, doc)
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 2
    assert "ex2.9: malformed entry (documents.rot4: expected object, got [1, 2])" in r.output, r.output


def test_corpus_verify_reports_non_object_entry(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    ser.dump(root / "ex2.9" / "input.json", [1])
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 2
    assert "ex2.9: malformed entry (" in r.output and "Traceback" not in r.output


def test_every_operation_goes_through_the_table(tmp_path, monkeypatch):
    corpus_ops = {
        check["operation"] for p in CORPUS_ROOT.glob("*/expected.json") for check in ser.load(p)["checks"]
    }
    assert corpus_ops <= set(cli.OPERATIONS)
    seen = []
    monkeypatch.setattr(cli, "run_operation", lambda op, docs, args: seen.append(op) or {})
    path = write(tmp_path / "doc.json", {})
    for name in SUBCOMMANDS:
        del seen[:]
        r = run(*argv_for(name, path))
        assert r.exit_code == 0, r.output
        assert len(seen) == 1 and seen[0] in cli.OPERATIONS
    del seen[:]
    run("corpus", "verify")
    assert set(seen) == corpus_ops


def test_a_library_fault_is_not_malformed_input(tmp_path, monkeypatch):
    """Only a ``ValueError`` of an operation is malformed input: a
    ``KeyError`` raised by its computation propagates as itself."""

    def fault(phi):
        raise KeyError("x")

    monkeypatch.setitem(cli.OPERATIONS, "invariants", (("reducible",), (), fault))
    graph = ser.reducible_doc(d_type_family(2, 2))
    with pytest.raises(KeyError, match="x"):
        cli.run_operation("invariants", [graph], {})
    r = run("invariants", write(tmp_path / "g.json", graph))
    assert isinstance(r.exception, KeyError) and "malformed input" not in r.output


def test_long_chain_refibers_in_linear_time():
    """A chain of 20,000 two-torus pieces refibers at n = 1 in seconds:
    each piece's staircase is built once and every lookup is a dict read."""
    k = 20_000
    manifold = {"type": "graph_manifold",
                "pieces": [{"id": "P%d" % i, "genus": 1, "boundary_tori": ["l", "r"]} for i in range(k)],
                "gluings": [{"id": "g%d" % i, "side_a": ["P%d" % i, "r"], "side_b": ["P%d" % (i + 1), "l"],
                             "matrix": [[-1, 1], [0, 1]]} for i in range(k - 1)]}
    plan = {"type": "refiber_plan", "pieces": [{"id": "P%d" % i, "n": 1, "arcs": []} for i in range(k)]}
    t0 = time.perf_counter()
    doc = cli.run_operation("staircase", [manifold, plan], {})
    assert time.perf_counter() - t0 < 10
    assert doc["fiber"] == {"genus": k, "boundary": 2} and doc["monodromy_order"] == 1
    assert doc["twists"] == [F(-1)] * (k - 1)


def test_first_plan_entry_of_a_piece_wins(tmp_path):
    m = bounded_chain_manifold()
    manifold = write(tmp_path / "m.json", ser.manifold_doc(m))
    large, small = ser.plan_doc(bounded_chain_plan(300_000)), ser.plan_doc(bounded_chain_plan(1))
    # the size limit reads the plan that refiber would build
    plan = write(tmp_path / "large_first.json", {**large, "pieces": large["pieces"] + small["pieces"]})
    t0 = time.perf_counter()
    r = run("staircase", manifold, plan)
    assert time.perf_counter() - t0 < 1
    assert r.exit_code == 2 and "resource limit:" in r.output, r.output
    plan = write(tmp_path / "small_first.json", {**small, "pieces": small["pieces"] + large["pieces"]})
    r = run("staircase", manifold, plan, "--format", "machine")
    assert r.exit_code == 0
    assert r.output == run("staircase", manifold, write(tmp_path / "small.json", small), "--format", "machine").output
    # the monodromy order is taken over the manifold's pieces only
    stray = {**small, "pieces": small["pieces"] + [{"id": "S9", "n": 7, "arcs": []}]}
    assert cli.run_operation("staircase", [ser.manifold_doc(m), stray], {})["monodromy_order"] == 2


def test_duplicate_curve_ids_are_refused(tmp_path):
    graph = ser.reducible_doc(d_type_family(3, 2))
    graph["curves"][0]["twist"], graph["curves"][1]["twist"] = "2", "3"
    graph["curves"][1]["id"] = graph["curves"][0]["id"]
    path = write(tmp_path / "d.json", graph)
    cover = write(tmp_path / "cover.json", double_cover_doc(ser.reducible_from_doc(graph)))
    for argv in (["normalize", path], ["invariants", path], ["power", path, "2"], ["compare", path, path],
                 ["cover", path, cover]):
        r = run(*argv)
        assert r.exit_code == 2, (argv, r.output)
        assert "malformed input: invalid decomposition graph: duplicate curve ids" in r.output, (argv, r.output)
