import glob
import importlib.util
import json
import os
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from oracles import fundamental_unit, plain_document, reducible_doc_by_dicts, text_lines_by_walk
from fibercomm import cli
from fibercomm import serialize as ser
from fibercomm.cli import CORPUS_ROOT
from fibercomm.decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve, power
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_manifold,
    d_type_family,
    twist_composition,
)
from fibercomm.spectrum import BranchData, SingularityVector, SpectrumQuery
from fibercomm.surfaces import Surface
from fibercomm.torus import TorusAutomorphism


def corpus_files():
    return sorted(glob.glob(os.path.join(CORPUS_ROOT, "*", "*.json")))


def test_corpus_present():
    assert len(glob.glob(os.path.join(CORPUS_ROOT, "*"))) == 8
    assert corpus_files()


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: "/".join(p.split(os.sep)[-2:]))
def test_corpus_round_trip_byte_identical(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = ser.load(path)
    assert ser.canonical_dumps(doc).encode() == raw


# the reader and the writer of each input document type
DECLARED = {
    "torus_automorphism": (ser.torus_from_doc, ser.torus_doc),
    "reducible_map": (ser.reducible_from_doc, ser.reducible_doc),
    "graph_manifold": (ser.manifold_from_doc, ser.manifold_doc),
    "refiber_plan": (ser.plan_from_doc, ser.plan_doc),
    "covering_data": (ser.covering_from_doc, ser.covering_doc),
    "branch_data": (ser.branch_from_doc, ser.branch_doc),
    "pa_data": (ser.pa_data_from_doc, lambda pa: ser.pa_data_doc(*pa)),
    "spectrum_query": (ser.query_from_doc, ser.query_doc),
}


@pytest.mark.parametrize("entry", sorted(p.name for p in CORPUS_ROOT.iterdir()))
def test_corpus_documents_written_back_byte_identical(entry):
    documents = ser.load(CORPUS_ROOT / entry / "input.json")["documents"]
    assert documents
    for name, doc in documents.items():
        read, write = DECLARED[doc["type"]]
        assert ser.canonical_dumps(write(read(doc))) == ser.canonical_dumps(doc), name


def through_text(doc):
    """A written document as a reader gets it: parsed from its canonical text."""
    return json.loads(ser.canonical_dumps(doc))


def test_rationals():
    assert ser.canonical_dumps(F(3)) == '"3"\n'
    assert ser.canonical_dumps(F(-7, 2)) == '"-7/2"\n'
    assert ser.unrat("-7/2") == F(-7, 2)
    assert through_text((F(1, 3), F(0))) == ["1/3", "0"]
    assert through_text({"s": F(5, 1), "t": [F(-1, 2)]}) == {"s": "5", "t": ["-1/2"]}
    q = SpectrumQuery(((2, 1), (1, 1)), (F(1, 3), F(0)), (F(1, 2), F(1, 2)), 5)
    assert ser.query_from_doc(through_text(ser.query_doc(q))).origin == (F(1, 3), F(0))


def test_quadratic_round_trip():
    u = fundamental_unit(13)
    assert through_text(ser.quadratic_doc(u)) == {"D": 13, "a": str(u.a), "b": str(u.b)}
    doc = ser.pa_data_doc(DilatationLabel(unit=u), SingularityVector(((4, 1),)))
    assert ser.pa_data_from_doc(through_text(doc))[0].unit == u


def round_trip(read, doc):
    """``read`` of an input document as parsed from its canonical text;
    the writer must have returned plain JSON values, as a reader needs."""
    text = through_text(doc)
    assert doc == text  # no tuple, no Fraction
    return read(text)


def test_torus_round_trip():
    phi = TorusAutomorphism(((2, 1), (1, 1)))
    assert round_trip(ser.torus_from_doc, ser.torus_doc(phi)) == phi
    with pytest.raises(ValueError, match="expected"):
        ser.torus_from_doc({"type": "reducible_map"})


def test_reducible_round_trip():
    for phi in (
        d_type_family(3, 2),
        twist_composition(4, name="lam"),
    ):
        assert round_trip(ser.reducible_from_doc, ser.reducible_doc(phi)) == phi


def test_label_round_trip():
    exact = DilatationLabel(unit=fundamental_unit(5) ** 2, rotation=F(1, 3))
    sym = DilatationLabel(name="mu", exponent=F(5), rotation=None)
    delta = SingularityVector(((4, 2),))
    for label in (exact, sym, None):
        assert ser.pa_data_from_doc(through_text(ser.pa_data_doc(label, delta)))[0] == label
    # a rotation given as an int is a rational, written as one
    assert through_text(ser.label_doc(DilatationLabel(name="mu", rotation=0)))["rotation"] == "0"


def test_manifold_and_plan_round_trip():
    for m in (bounded_chain_manifold(), closed_chain_manifold()):
        assert round_trip(ser.manifold_from_doc, ser.manifold_doc(m)) == m
    plan = bounded_chain_plan(3)
    assert round_trip(ser.plan_from_doc, ser.plan_doc(plan)) == plan


def test_covering_round_trip():
    from fibercomm.cover import ComponentCover, CoveringData

    c = CoveringData(
        (
            ("hub", (ComponentCover(3, (("h0", (1, 1, 1)),), ((2, 1),)),)),
            ("leaf0", tuple(ComponentCover(1, (("s", (1,)),)) for _ in range(3))),
        )
    )
    assert round_trip(ser.covering_from_doc, ser.covering_doc(c)) == c


def test_branch_query_pa_round_trip():
    b = BranchData(2, ((2,), (2,)), ((2, 1), (1, 1)))
    assert round_trip(ser.branch_from_doc, ser.branch_doc(b)) == b
    b = BranchData(3, ((3,), (3,)))
    assert round_trip(ser.branch_from_doc, ser.branch_doc(b)) == b

    q = SpectrumQuery(((2, 1), (1, 1)), (0, 0), (F(1, 2), F(1, 2)), 20)
    assert round_trip(ser.query_from_doc, ser.query_doc(q)) == q

    for label in (DilatationLabel(unit=fundamental_unit(5)), DilatationLabel(name="mu", rotation=F(1, 3))):
        delta = SingularityVector(((4, 2), (6, 1)))
        assert round_trip(ser.pa_data_from_doc, ser.pa_data_doc(label, delta)) == (label, delta)


def test_canonical_dumps_shape():
    s = ser.canonical_dumps({"b": 1, "a": 2})
    assert s.endswith("\n") and s.index('"a"') < s.index('"b"')


def test_rationals_are_exact():
    assert ser.unrat(7) == F(7)
    for bad in (0.1, 2.0, True, None, [1, 2]):
        with pytest.raises(ValueError, match="expected a rational"):
            ser.unrat(bad)


def test_equal_twist_texts_share_one_fraction():
    """A column of rational strings (a list longer than 16) parses each
    distinct string once, as ``power`` shares one twist per value; keyed
    by value, a column that holds ``true`` would read it as the
    ``Fraction`` of 1."""
    doc = ser.reducible_doc(d_type_family(20, 2))
    twists = [c.twist for c in ser.reducible_from_doc(doc).curves]
    assert twists == [F(1)] * 20 and all(t is twists[0] for t in twists)
    for i, twist in enumerate((1, "1", True, "1")):
        doc["curves"][i]["twist"] = twist
    with pytest.raises(ValueError) as raised:
        ser.reducible_from_doc(doc)
    assert str(raised.value) == "curves[2].twist: expected a rational as a string or an integer, got True"
    # equal strings of a pair are read once too; equal rows [0, 0] and [false, 0] are not
    q = ser.query_from_doc({"type": "spectrum_query", "matrix": [[2, 1], [1, 1]], "origin": ["0", "0"],
                            "point": ["1/2", "1/2"], "radius": 3})
    assert q.origin[0] is q.origin[1] and q.point[0] is q.point[1]
    with pytest.raises(ValueError, match=r"^origin\[1\]: expected a rational as a string or an integer, got True$"):
        ser.query_from_doc({"type": "spectrum_query", "matrix": [[2, 1], [1, 1]], "origin": [1, True],
                            "point": ["0", "0"], "radius": 3})
    with pytest.raises(ValueError, match=r"^matrix\[1\]\[0\]: expected int, got False$"):
        ser.torus_from_doc({"type": "torus_automorphism", "matrix": [[0, 0], [False, 0]]})


def test_first_fault_in_list_order_then_schema_order():
    """Lists longer than 16 are read a column at a time, shorter ones entry
    by entry; either way the fault named is the first failing entry in list
    order and, within it, the first failing field in schema order."""

    def edited(doc, *edits):
        doc = json.loads(json.dumps(doc))
        for path, value in edits:
            *steps, last = path
            target = doc
            for step in steps:
                target = target[step]
            target[last] = value
        return doc

    for n in (6, 20):
        graph = ser.reducible_doc(d_type_family(n, 2))
        covering = {"type": "covering_data", "pieces": [
            {"id": p["id"], "components": [{"degree": 2, "slots": [[s, [1, 1]] for s in p["slots"]]}]}
            for p in graph["pieces"]]}
        plan = {"type": "refiber_plan", "pieces": [{"id": "P%d" % i, "n": 1, "arcs": [["l", "r"]]} for i in range(n)]}
        for read, doc, edits, message in (
            (ser.reducible_from_doc, graph, ((("curves", 2, "twist"), "1/0"), (("curves", 5, "id"), 7)),
             "curves[2].twist: rational '1/0' has denominator zero"),
            (ser.reducible_from_doc, graph, ((("pieces", 3, "genus"), -1), (("pieces", 1, "slots", 0), 5)),
             "pieces[1].slots[0]: expected str, got 5"),
            (ser.covering_from_doc, covering,
             ((("pieces", 0, "components", 0, "slots", 2, 1, 1), "1"), (("pieces", 1, "id"), 5)),
             "pieces[0].components[0].slots[2][1][1]: expected int, got '1'"),
            (ser.plan_from_doc, plan, ((("pieces", 1, "arcs", 0), ["a"]), (("pieces", 2, "n"), "1")),
             "pieces[1].arcs[0]: expected [tail, head] as two str, got ['a']"),
        ):
            with pytest.raises(ValueError) as raised:
                read(edited(doc, *edits))
            assert str(raised.value) == message, n


def test_a_value_too_long_to_print_is_named():
    """An integer whose decimal text exceeds the interpreter's limit is
    named by its path, not shown."""
    with pytest.raises(ValueError) as raised:
        ser.reducible_from_doc({"type": "reducible_map", "pieces": 10 ** 5000, "curves": []})
    assert str(raised.value) == "pieces: expected list, got a value too long to print"


def test_integers_past_the_digit_limit_are_refused_in_the_librarys_words(tmp_path, default_digit_limit):
    """An integer whose text exceeds the interpreter's limit is refused by
    the reader, naming N: in a rational string by its path, read alone or
    in a column, and as an integer literal by ``load``, whose file the
    command line names."""
    digits = "1" + "0" * 4999
    for n in (6, 20):
        for twist in (digits, "-1/" + digits, digits + "/3"):
            doc = ser.reducible_doc(d_type_family(n, 2))
            doc["curves"][1]["twist"] = twist
            with pytest.raises(ValueError) as raised:
                ser.reducible_from_doc(doc)
            assert str(raised.value) == "curves[1].twist: the rational holds an integer of more than 4300 digits"
    # a string that is no rational keeps Fraction's words, however long its digit runs
    with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
        ser.unrat("x" + "1_1" * 2200)
    path = tmp_path / "long.json"
    path.write_text('{"type": "reducible_map", "pieces": [], "curves": %s}' % digits, encoding="utf-8")
    with pytest.raises(ValueError, match="^the document holds an integer of more than 4300 digits$"):
        ser.load(path)
    r = CliRunner().invoke(cli.main, ["invariants", str(path)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == "malformed input: %s: the document holds an integer of more than 4300 digits\n" % path


EXPONENT = 'has an exponent: it is written "p/q" or "p"'


def test_a_rational_with_an_exponent_is_refused_before_it_is_read(tmp_path):
    """``Fraction`` reads "1e100000000" as 10**100000000, which takes minutes
    to build; the reader refuses every string that ends in an exponent, as
    ``Fraction`` reads one, by its path, at once, read alone or in a column.
    Any other string that ``Fraction`` refuses keeps Fraction's words."""
    start = time.perf_counter()
    for n in (6, 20):
        for twist in ("1e100000000", "1E5", "-2.5e-3", "1.e5", ".5e1", "1_0e1_0", " +3e+2 ", "7e0", "1/2e5"):
            doc = ser.reducible_doc(d_type_family(n, 2))
            doc["curves"][1]["twist"] = twist
            with pytest.raises(ValueError) as raised:
                ser.reducible_from_doc(doc)
            assert str(raised.value) == "curves[1].twist: rational %r %s" % (twist, EXPONENT)
    assert time.perf_counter() - start < 1
    for twist in ("1e5x", "e5", "1e5_", "1e"):
        with pytest.raises(ValueError, match="^Invalid literal for Fraction: %r$" % twist):
            ser.unrat(twist)
    assert ser.unrat("3/4") == F(3, 4) and ser.unrat(" -12 ") == F(-12) and ser.unrat("1.5") == F(3, 2)
    doc = ser.reducible_doc(d_type_family(2, 2))
    doc["curves"][0]["twist"] = "1e100000000"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    r = CliRunner().invoke(cli.main, ["invariants", str(path)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == "malformed input: curves[0].twist: rational '1e100000000' %s\n" % EXPONENT


# the encoder's oracle is the stdlib's indented encoder
json_text = st.text(st.characters() | st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f\u00e9\u2028\U0001f600'))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 100), 2 ** 100) | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=40,
)


@given(json_values)
@example({"": [], "q\"b\\s\x01\u00e9": {}, "z": [True, False, None, -(2 ** 70), 2 ** 70, [[]], {"": {}}]})
@example([1.5, (2, [3, {"x": -0.25}]), {"t": (), "u": ({},)}])  # not emitted by the library
def test_canonical_dumps_matches_stdlib(value):
    assert ser.canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_non_string_key():
    """No document has one: JSON refuses it, text writes it as it prints."""
    with pytest.raises(TypeError):
        ser.canonical_dumps({3: "int key"})
    assert ser.text_dumps({3: "int key"}) == "3: int key\n"


# result documents: exact values, with rationals and tuples anywhere
exact_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 100), 2 ** 100) | json_text | st.fractions(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=40,
)


@given(exact_values)
@example({"a": (F(1, 3), F(0)), "p": [{"coefficient": F(-7, 2), "exponent": ()}], "s": None, "n": 3})
def test_writers_match_plain_document(value):
    """Both writers write a rational as its "p/q" string and a tuple as a list."""
    plain = plain_document(value)
    assert ser.canonical_dumps(value) == json.dumps(plain, sort_keys=True, indent=2) + "\n"
    assert ser.text_dumps(value) == "\n".join([*text_lines_by_walk(plain, ""), ""])


def test_large_power_document_in_both_formats(tmp_path):
    phi = d_type_family(2000, 2)
    path = tmp_path / "star.json"
    ser.dump(path, ser.reducible_doc(phi))
    runner = CliRunner()

    r = runner.invoke(cli.main, ["power", str(path), "3", "--format", "machine"])
    assert r.exit_code == 0
    doc = reducible_doc_by_dicts(power(phi, 3))
    assert len(doc["curves"]) == 2000
    assert r.output == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    r = runner.invoke(cli.main, ["power", str(path), "3"])
    assert r.exit_code == 0
    lines = r.output.splitlines(keepends=True)
    assert all(line.endswith("\n") for line in lines)
    assert sum(line.lstrip().startswith("twist:") for line in lines) == 2000
    assert lines == [line + "\n" for line in text_lines_by_walk(doc, "")]


# graphs with ids and slots that JSON escapes, and twists shared by object
names = st.text(st.characters() | st.sampled_from('"\\\n\u00e9\u2028\U0001f600'), max_size=5)
SHARED_TWISTS = (F(1), F(-1), F(3, 2), F(-5, 7))
labels = st.none() | st.sampled_from(
    (DilatationLabel(unit=fundamental_unit(5)), DilatationLabel(name="mu", exponent=F(2, 3), rotation=F(1, 4)))
)
pieces = st.builds(
    lambda pid, genus, slots, free, label: Piece(pid, Surface(genus, len(slots) + free), slots, free, label),
    names, st.integers(0, 3), st.lists(names, max_size=3), st.integers(0, 2), labels,
)
curves = st.builds(
    ReducingCurve, names, st.tuples(names, names), st.tuples(names, names),
    st.sampled_from(SHARED_TWISTS) | st.fractions(max_denominator=9),
)
graphs = st.builds(ReducibleMap, st.lists(pieces, max_size=3), st.lists(curves, max_size=4))
SHARED_SLOTS = ("s", "t")  # one slots tuple of two pieces, written once, as a refibered graph's copies share one
# a graph at the top level (power) and nested as in cover, normalize and staircase
NESTINGS = (
    lambda g: g,
    lambda g: {"laws": [{"ok": True, "piece": "p"}], "lifted": g},
    lambda g: {"certificate": {"cover": {"pieces": []}, "power": 2}, "normalized": g},
    lambda g: {"connected": True, "invariants": {"chi": -2}, "map": g},
    lambda g: [g, {"graphs": [g, "x"]}],
)


@given(graphs, st.sampled_from(NESTINGS))
@example(ReducibleMap((), ()), NESTINGS[0])
@example(ReducibleMap((Piece('"\\\n\u00e9', Surface(1, 1), ("s\n",), 0),), ()), NESTINGS[1])
@example(ReducibleMap((Piece("a", Surface(1, 2), SHARED_SLOTS), Piece("b", Surface(2, 2), SHARED_SLOTS),
                       Piece("c", Surface(1, 1), (), 1)), ()), NESTINGS[3])
def test_graph_writers_match_dict_oracle(phi, nest):
    doc, oracle = nest(phi), nest(reducible_doc_by_dicts(phi))
    assert ser.canonical_dumps(doc) == json.dumps(oracle, sort_keys=True, indent=2) + "\n"
    assert ser.text_dumps(doc) == "\n".join(text_lines_by_walk(oracle, "")) + "\n"
    assert plain_document(doc) == oracle
    if doc is phi:
        assert ser.reducible_doc(phi) == oracle


def test_gen_corpus_regenerates_the_corpus(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "gen_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_corpus", script)
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    root = tmp_path / "corpus"
    gen_corpus.main(root)

    def files(top):
        return sorted(p.relative_to(top) for p in top.rglob("*") if p.is_file())

    assert files(root) == files(CORPUS_ROOT)
    for rel in files(CORPUS_ROOT):
        assert (root / rel).read_bytes() == (CORPUS_ROOT / rel).read_bytes(), rel
