import json
import shutil
from fractions import Fraction as F

import click
import pytest
from click.testing import CliRunner

from fibercomm import cli
from fibercomm import serialize as ser
from fibercomm.cli import CORPUS_ROOT, main
from fibercomm.cover import ComponentCover, CoveringData
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    d_type_family,
)
from fibercomm.staircase import refiber


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
    # the same for the corpus-only operations on branch and singularity data
    pa = {"type": "pa_data", "dilatation": None, "delta": [[6, 2]]}
    for op, doc in (("branch_delta", {"type": "branch_data", "degree": 2, "branch_points": [[2.0], [2]]}),
                    ("branch_delta", {"type": "branch_data", "degree": 2.0, "branch_points": [[2], [2]]}),
                    ("pa_obstruction", {**pa, "delta": [[6.5, 2]]})):
        with pytest.raises(cli.MalformedInput):
            cli.run_operation(op, [doc, pa], {})


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_top_level_list_exits_2(tmp_path, name):
    r = run(*argv_for(name, write(tmp_path / "list.json", [1, 2])))
    assert r.exit_code == 2, r.output
    assert "malformed input" in r.output and "Traceback" not in r.output


def test_corpus_verify_reports_malformed_check(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    entry = root / "ex2.9" / "input.json"
    doc = ser.load(entry)
    doc["documents"]["rot4"] = [1, 2]
    ser.dump(entry, doc)
    r = run("corpus", "verify", "--root", str(root))
    assert r.exit_code == 1
    assert "ex2.9: FAIL" in r.output and "order-4 rotation: raised" in r.output


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
