"""Mutated corpus documents through every operation of ``cli.OPERATIONS``.

One mutation per example: a key dropped, a value swapped for one of
another JSON type, ``"1/0"`` written, or a huge integer written.  The
operation and both writers either succeed or raise ``MalformedInput`` or
``ResourceLimit``; nothing else escapes.  A dropped key, a swapped type,
or a ``"1/0"`` in place of anything but a string, that the readers
reject is named by its path, or by the path of the object whose
constructor rejects it.  (A string may be an id, where ``"1/0"`` reads
as one, so that a constructor rejects the document as a whole.)

A deterministic sweep does the same for zero and negative values: every
integer and rational-string leaf of every seed, set to each of
``SWEEP`` in turn.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from fibercomm import cli
from fibercomm import serialize as ser
from fibercomm.cli import CORPUS_ROOT
from fibercomm.cover import ComponentCover, CoveringData
from fibercomm.families import d_type_family


def corpus_jobs():
    """``(operation, documents, args)`` of every corpus check."""
    jobs = []
    for entry in sorted(CORPUS_ROOT.iterdir()):
        documents = ser.load(entry / "input.json")["documents"]
        for check in ser.load(entry / "expected.json")["checks"]:
            jobs.append((check["operation"], [documents[n] for n in check["inputs"]], check.get("args", {})))
    return jobs


def seed_jobs():
    """The corpus checks, and corpus documents of the right kinds for
    the operations no corpus check runs."""
    jobs = corpus_jobs()
    docs = {}
    for op, inputs, _ in jobs:
        for kind, doc in zip(cli.OPERATIONS[op][0], inputs):
            docs.setdefault(kind, doc)
    phi = d_type_family(3, 2)
    double = tuple((p.id, (ComponentCover(2, tuple((s, (1, 1)) for s in p.slots)),)) for p in phi.pieces)
    extra = [
        ("power", [docs["reducible"]], {"k": 3}),
        ("normalize", [ser.reducible_doc(phi)], {}),
        ("cover", [ser.reducible_doc(phi), ser.covering_doc(CoveringData(double))], {}),
        ("spectrum", [docs["query"]], {"radius": 5}),
    ]
    return {op: [job for job in jobs + extra if job[0] == op] for op in cli.OPERATIONS}


SEEDS = seed_jobs()
HUGE = (2 ** 64 + 1, 10 ** 40 + 7, -(10 ** 30))
OTHER_TYPES = (None, True, 7, 2.5, "s", [], {})
SWEEP = (0, -1, "0", "-1/2")


def paths(value, path=()):
    """Every (path, value) inside a JSON value, the value itself first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, x in items:
        yield from paths(x, path + (key,))


def shown(path):
    """A path as the readers name it: ``pieces[0].slots``."""
    return "".join("[%d]" % k if isinstance(k, int) else "." + k for k in path).lstrip(".")


@st.composite
def mutations(draw, op):
    """(documents, args, where): one seed of ``op``, mutated once; a
    parse error must name ``where``, unless it is None."""
    _, docs, args = draw(st.sampled_from(SEEDS[op]))
    docs, args = copy.deepcopy(docs), dict(args)
    root = {"args": args, "docs": docs}
    path, value = draw(st.sampled_from([(p, v) for p, v in paths(root) if len(p) >= 2]))
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    kinds = ("drop", "swap", "1/0", "huge") if isinstance(parent, dict) else ("swap", "1/0", "huge")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "swap":
        parent[path[-1]] = draw(st.sampled_from([x for x in OTHER_TYPES if type(x) is not type(value)]))
    else:
        parent[path[-1]] = "1/0" if kind == "1/0" else draw(st.sampled_from(HUGE))
    where = ("args." if path[0] == "args" else "") + shown(path[1 + (path[0] == "docs"):])
    named = kind in ("drop", "swap") or kind == "1/0" and type(value) is not str
    return docs, args, where if named else None


def parse(op, docs, args):
    kinds, names, _ = cli.OPERATIONS[op]
    return [getattr(ser, kind + "_from_doc")(doc) for kind, doc in zip(kinds, docs)], ser.args_from_doc(args, names)


@pytest.mark.parametrize("op", sorted(cli.OPERATIONS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_documents(op, data):
    docs, args, where = data.draw(mutations(op))
    try:
        parse(op, docs, args)
    except ValueError as e:
        # the value itself, a value inside it, or the object whose constructor rejects it
        named = str(e).split(": ", 1)[0]
        assert where is None or named.startswith(where) or where.startswith(named + "."), (where, str(e))
    except cli.ResourceLimit:
        pass
    try:
        result = cli.run_operation(op, docs, args)
        for write in (ser.canonical_dumps, ser.text_dumps):
            write(result)
    except (cli.MalformedInput, cli.ResourceLimit):
        pass


def is_rational(value):
    """An integer, or a string that reads as a rational."""
    try:
        ser.unrat(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("op", sorted(cli.OPERATIONS))
def test_zero_and_negative_values(op):
    escaped = []
    for _, docs, args in SEEDS[op]:
        root = {"args": args, "docs": docs}
        for path, value in paths(root):
            if len(path) < 2 or not is_rational(value):
                continue
            for new in SWEEP:
                mutated = copy.deepcopy(root)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = new
                try:
                    result = cli.run_operation(op, mutated["docs"], mutated["args"])
                    for write in (ser.canonical_dumps, ser.text_dumps):
                        write(result)
                except (cli.MalformedInput, cli.ResourceLimit):
                    pass
                except Exception as e:  # reported with its input below
                    escaped.append("%s = %r: %r" % (shown(path), new, e))
    assert not escaped, escaped
