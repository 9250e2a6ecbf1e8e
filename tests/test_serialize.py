import glob
import importlib.util
import json
import os
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from oracles import fundamental_unit
from fibercomm import cli
from fibercomm import serialize as ser
from fibercomm.cli import CORPUS_ROOT
from fibercomm.decomposition import DilatationLabel, power
from fibercomm.families import (
    bounded_chain_manifold,
    bounded_chain_plan,
    closed_chain_manifold,
    d_type_family,
    twist_composition,
)
from fibercomm.spectrum import BranchData, SingularityVector, SpectrumQuery
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


def test_rationals():
    assert ser.rat(F(3)) == "3"
    assert ser.rat(F(-7, 2)) == "-7/2"
    assert ser.unrat("-7/2") == F(-7, 2)
    assert ser.unpair(ser.pair((F(1, 3), F(0)))) == (F(1, 3), F(0))


def test_quadratic_round_trip():
    u = fundamental_unit(13)
    doc = ser.quadratic_doc(u)
    assert ser.quadratic_from_doc(doc) == u.number


def test_torus_round_trip():
    phi = TorusAutomorphism(((2, 1), (1, 1)))
    assert ser.torus_from_doc(ser.torus_doc(phi)) == phi
    with pytest.raises(ValueError, match="expected"):
        ser.torus_from_doc({"type": "reducible_map"})


def test_reducible_round_trip():
    for phi in (
        d_type_family(3, 2),
        twist_composition(4, name="lam"),
    ):
        assert ser.reducible_from_doc(ser.reducible_doc(phi)) == phi


def test_label_round_trip():
    exact = DilatationLabel(unit=fundamental_unit(5) ** 2, rotation=F(1, 3))
    sym = DilatationLabel(name="mu", exponent=F(5), rotation=None)
    for label in (exact, sym, None):
        assert ser._label_from_doc(ser._label_doc(label)) == label


def test_manifold_and_plan_round_trip():
    for m in (bounded_chain_manifold(), closed_chain_manifold()):
        assert ser.manifold_from_doc(ser.manifold_doc(m)) == m
    plan = bounded_chain_plan(3)
    assert ser.plan_from_doc(ser.plan_doc(plan)) == plan


def test_covering_round_trip():
    from fibercomm.cover import ComponentCover, CoveringData

    c = CoveringData(
        (
            ("hub", (ComponentCover(3, (("h0", (1, 1, 1)),), ((2, 1),)),)),
            ("leaf0", tuple(ComponentCover(1, (("s", (1,)),)) for _ in range(3))),
        )
    )
    assert ser.covering_from_doc(ser.covering_doc(c)) == c


def test_branch_query_pa_round_trip():
    b = BranchData(2, ((2,), (2,)), ((2, 1), (1, 1)))
    assert ser.branch_from_doc(ser.branch_doc(b)) == b
    b = BranchData(3, ((3,), (3,)))
    assert ser.branch_from_doc(ser.branch_doc(b)) == b

    q = SpectrumQuery(((2, 1), (1, 1)), (0, 0), (F(1, 2), F(1, 2)), 20)
    assert ser.query_from_doc(ser.query_doc(q)) == q

    label = DilatationLabel(unit=fundamental_unit(5))
    delta = SingularityVector(((4, 2), (6, 1)))
    got_label, got_delta = ser.pa_data_from_doc(ser.pa_data_doc(label, delta))
    assert (got_label, got_delta) == (label, delta)


def test_canonical_dumps_shape():
    s = ser.canonical_dumps({"b": 1, "a": 2})
    assert s.endswith("\n") and s.index('"a"') < s.index('"b"')


def test_rationals_are_exact():
    assert ser.unrat(7) == F(7)
    for bad in (0.1, 2.0, True, None, [1, 2]):
        with pytest.raises(ValueError, match="expected a rational"):
            ser.unrat(bad)


# the encoder's oracle is the stdlib's indented encoder
json_text = st.text(st.characters() | st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f\u00e9\u2028\U0001f600'))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 100), 2 ** 100) | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=40,
)


@given(json_values)
@example({"": [], "q\"b\\s\x01\u00e9": {}, "z": [True, False, None, -(2 ** 70), 2 ** 70, [[]], {"": {}}]})
@example([1.5, (2, [3, {"x": -0.25}]), {3: "int key"}, {"t": (), "u": ({},)}])  # not emitted by the library
def test_canonical_dumps_matches_stdlib(value):
    assert ser.canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_large_power_document_in_both_formats(tmp_path):
    phi = d_type_family(2000, 2)
    path = tmp_path / "star.json"
    ser.dump(path, ser.reducible_doc(phi))
    runner = CliRunner()

    r = runner.invoke(cli.main, ["power", str(path), "3", "--format", "machine"])
    assert r.exit_code == 0
    doc = ser.reducible_doc(power(phi, 3))
    assert len(doc["curves"]) == 2000
    assert r.output == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    r = runner.invoke(cli.main, ["power", str(path), "3"])
    assert r.exit_code == 0
    lines = r.output.splitlines(keepends=True)
    assert all(line.endswith("\n") for line in lines)
    assert sum(line.lstrip().startswith("twist:") for line in lines) == 2000
    assert lines == [line + "\n" for line in cli._text_lines(doc, "")]


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
