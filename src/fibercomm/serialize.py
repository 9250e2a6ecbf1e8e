"""Canonical JSON documents for every object the CLI consumes or emits.

One structured format for graphs, manifolds, plans, covers, and
queries: the readers of the input documents, their writers, and the
writer of canonical text.  Rationals are written as "p/q" strings (or
"p" when the denominator is 1) so no float ever enters a document;
serialization is canonical (sorted keys, fixed indentation, trailing
newline), so parse-then-serialize is byte-identical on canonical files.

A result document holds exact values -- ``Fraction``s, tuples, ints,
``None`` and graphs -- and is turned into text only when written, by
``canonical_dumps`` here or by the text writer of ``cli``, both through
``str`` of the ``Fraction``.  So an integer too long to print fails in
the writer, never inside an operation.  The input document writers
return plain JSON values, which the readers require; one that shares a
helper with a result goes through canonical text once (``_plain``).

``canonical_dumps`` writes exactly ``json.dumps(doc, sort_keys=True,
indent=2) + "\n"`` (with a ``Fraction`` as its "p/q" string) without
calling it (an indented ``json.dumps`` runs the pure-Python encoder):
one list of parts, strings escaped by the C ``encode_basestring_ascii``.
A graph is written straight from it: its curves through one template
at the current indentation, never as a dict per curve, and its pieces
as any list.  ``json.dumps`` of the dict-per-curve document is the test
oracle.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .cover import ComponentCover, CoveringData
from .decomposition import DilatationLabel, Piece, ReducibleMap, _distinct_twists, _trusted_curve
from .quadratic import QuadraticNumber, QuadraticUnit
from .spectrum import BranchData, SingularityVector, SpectrumQuery
from .staircase import BundlePiece, FiberedGraphManifold, Gluing, PiecePlan, RefiberPlan
from .surfaces import Surface
from .torus import TorusAutomorphism


def unrat(x):
    """A document rational: a "p/q" or "p" string, or a JSON integer.

    Floats and booleans are rejected, so no inexact value is read.
    """
    if type(x) is not str and type(x) is not int:
        raise ValueError("expected a rational as a string or an integer, got %r" % (x,))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("rational %r has denominator zero" % (x,)) from None


def _unint(x):
    """A document integer: a JSON integer, never a float, bool or string."""
    if type(x) is not int:
        raise ValueError("expected an integer, got %r" % (x,))
    return x


def unpair(doc, field):
    """A pair of document rationals; ``field`` names it in the error."""
    if type(doc) is not list or len(doc) != 2:
        raise ValueError("%s: expected a list of two rationals, got %r" % (field, doc))
    return (unrat(doc[0]), unrat(doc[1]))


def _partition(doc):
    """A partition of a degree, as a tuple of document integers."""
    return tuple(_unint(m) for m in doc)


def quadratic_doc(x):
    return {"D": x.D, "a": x.a, "b": x.b}


def quadratic_from_doc(doc):
    return QuadraticNumber(doc["D"], unrat(doc["a"]), unrat(doc["b"]))


def canonical_dumps(doc):
    parts = []
    _encode(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _encode(v, nl, out):
    """Append the indented JSON of ``v`` to ``out``; ``nl`` is a newline
    plus the indentation of the line ``v`` starts on.  A string or
    rational member is written with its key or separator in one part;
    a rational is written as the string ``str`` of its ``Fraction``
    prints, "p/q" or "p"."""
    t = type(v)
    if t is str:
        out(_json_str(v))
    elif t is int:
        out(int.__repr__(v))
    elif t is list or t is tuple:
        if not v:
            out("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            if type(x) is str:
                out(sep + _json_str(x))
            elif type(x) is Fraction:
                out('%s"%s"' % (sep, x))
            else:
                out(sep)
                _encode(x, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif t is dict and all(type(k) is str for k in v):
        if not v:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(v):
            x = v[k]
            if type(x) is str:
                out(sep + _json_str(k) + ": " + _json_str(x))
            elif type(x) is Fraction:
                out('%s%s: "%s"' % (sep, _json_str(k), x))
            else:
                out(sep + _json_str(k) + ": ")
                _encode(x, inner, out)
            sep = "," + inner
        out(nl + "}")
    elif t is Fraction:
        out('"%s"' % v)
    elif t is ReducibleMap:
        _encode_graph(v, nl, out)
    elif v is None:
        out("null")
    elif v is True:
        out("true")
    elif v is False:
        out("false")
    else:  # a value the library does not emit: the stdlib, re-indented
        out(json.dumps(v, sort_keys=True, indent=2).replace("\n", nl))


def _expect(doc, type_name):
    if doc.get("type") != type_name:
        raise ValueError("expected a %r document, got %r" % (type_name, doc.get("type")))


# ---------------------------------------------------------------------------
# torus automorphisms

def torus_doc(phi):
    return {"type": "torus_automorphism", "matrix": [list(r) for r in phi.matrix]}


def torus_from_doc(doc):
    _expect(doc, "torus_automorphism")
    return TorusAutomorphism(doc["matrix"])


# ---------------------------------------------------------------------------
# reducible maps

def label_doc(label):
    if label is None:
        return None
    if label.exact:
        d = {"kind": "exact", "unit": quadratic_doc(label.unit)}
    else:
        d = {"kind": "symbol", "name": label.name, "exponent": label.exponent}
    if label.rotation is not None:
        d["rotation"] = label.rotation
    return d


def _label_from_doc(doc):
    if doc is None:
        return None
    rotation = unrat(doc["rotation"]) if "rotation" in doc else None
    if doc["kind"] == "exact":
        u = quadratic_from_doc(doc["unit"])
        return DilatationLabel(unit=QuadraticUnit(u.D, u.a, u.b), rotation=rotation)
    return DilatationLabel(name=doc["name"], exponent=unrat(doc["exponent"]), rotation=rotation)


def pieces_doc(phi):
    """The ``pieces`` list of the document of graph ``phi``."""
    return [
        {"id": p.id, "genus": p.surface.genus, "boundary": p.surface.boundary_components, "slots": p.slots,
         "free_boundary": p.free_boundary, "dilatation": label_doc(p.dilatation)}
        for p in phi.pieces
    ]


def curve_strings(phi, template, quote):
    """``template % (end_a, end_b, id, twist)`` per curve, each string
    through ``quote``; one twist string per twist object."""
    twists = {k: quote(str(t)) for k, t in _distinct_twists(phi.curves).items()}
    return [template % (quote(c.end_a[0]), quote(c.end_a[1]), quote(c.end_b[0]), quote(c.end_b[1]), quote(c.id),
                        twists[id(c.twist)]) for c in phi.curves]


# one curve; I, J, K: a newline and the indentation of the curve, its fields, its ends
_CURVE_JSON = '{J"end_a": [K%s,K%sJ],J"end_b": [K%s,K%sJ],J"id": %s,J"twist": %sI}'


def _encode_graph(phi, nl, out):
    """Graph ``phi`` as ``_encode`` writes its document: the curves
    through one template at this indentation, the pieces as a list."""
    i = nl + "    "
    curves = curve_strings(phi, _CURVE_JSON.replace("K", i + "    ").replace("J", i + "  ").replace("I", i), _json_str)
    out("{" + nl + '  "curves": ' + ("[" + i if curves else "[]"))
    out(("," + i).join(curves))  # a part of its own: the curves are copied once here
    out((nl + "  ]," if curves else ",") + nl + '  "pieces": ')
    _encode(pieces_doc(phi), nl + "  ", out)
    out("," + nl + '  "type": "reducible_map"' + nl + "}")


def _plain(doc):
    """``doc`` as plain JSON values, through its canonical text once."""
    return json.loads(canonical_dumps(doc))


def reducible_doc(phi):
    """The document of graph ``phi`` as plain JSON values."""
    return _plain(phi)


def _slots(doc, i):
    """The slot names of ``pieces[i]``: a document list of strings."""
    if type(doc) is not list or any(type(s) is not str for s in doc):
        raise ValueError("pieces[%d].slots: expected list of str, got %r" % (i, doc))
    return tuple(doc)


def _end(doc, i, side):
    """``curves[i].end_<side>``: a document list [piece id, slot] of two strings."""
    if type(doc) is not list or len(doc) != 2 or type(doc[0]) is not str or type(doc[1]) is not str:
        raise ValueError("curves[%d].end_%s: expected [piece id, slot] as two str, got %r" % (i, side, doc))
    return tuple(doc)


def reducible_from_doc(doc):
    _expect(doc, "reducible_map")
    try:
        pieces = tuple(
            Piece(p["id"], Surface(_unint(p["genus"]), _unint(p["boundary"])), _slots(p["slots"], i),
                  _unint(p["free_boundary"]), _label_from_doc(p.get("dilatation")))
            for i, p in enumerate(doc["pieces"])
        )
        parsed = functools.cache(unrat)  # each distinct twist string is parsed once
        curves = []
        for i, c in enumerate(doc["curves"]):
            t, cid = c["twist"], c["id"]
            twist = parsed(t) if type(t) is str else unrat(t)
            if type(cid) is not str:
                raise ValueError("curves[%d].id: expected str, got %r" % (i, cid))
            curves.append(_trusted_curve(cid, _end(c["end_a"], i, "a"), _end(c["end_b"], i, "b"), twist))
    except KeyError as e:
        raise ValueError(_missing(doc, e.args[0])) from None
    return ReducibleMap(pieces, curves)


_FIELDS = {"pieces": ("id", "genus", "boundary", "slots", "free_boundary"), "curves": ("twist", "id", "end_a", "end_b")}


def _missing(doc, key):
    """Where the ``key`` of a ``KeyError`` is missing: the top level, or
    the first piece, then curve, that lacks it."""
    for field, keys in _FIELDS.items():
        for i, x in enumerate(doc[field] if key in keys else ()):
            if key not in x:
                return "%s[%d].%s: missing" % (field, i, key)
    return "%s: missing" % key if key in _FIELDS else "missing key %r" % (key,)


# ---------------------------------------------------------------------------
# graph manifolds and plans

def manifold_doc(m):
    return {
        "type": "graph_manifold",
        "pieces": [
            {
                "id": p.id,
                "genus": p.surface.genus,
                "boundary_tori": list(p.boundaries),
            }
            for p in m.pieces
        ],
        "gluings": [
            {
                "id": g.id,
                "side_a": list(g.side_a),
                "side_b": list(g.side_b),
                "matrix": [list(r) for r in g.matrix],
            }
            for g in m.gluings
        ],
    }


def manifold_from_doc(doc):
    _expect(doc, "graph_manifold")
    pieces = tuple(
        BundlePiece(
            p["id"],
            Surface(_unint(p["genus"]), len(p["boundary_tori"])),
            tuple(p["boundary_tori"]),
        )
        for p in doc["pieces"]
    )
    gluings = tuple(
        Gluing(g["id"], tuple(g["side_a"]), tuple(g["side_b"]), g["matrix"])
        for g in doc["gluings"]
    )
    return FiberedGraphManifold(pieces, gluings)


def plan_doc(plan):
    return {
        "type": "refiber_plan",
        "pieces": [
            {"id": pid, "n": pp.n, "arcs": [list(a) for a in pp.arcs]}
            for pid, pp in plan.per_piece
        ],
    }


def plan_from_doc(doc):
    _expect(doc, "refiber_plan")
    return RefiberPlan(
        tuple((p["id"], PiecePlan(_unint(p["n"]), tuple(tuple(a) for a in p["arcs"]))) for p in doc["pieces"])
    )


# ---------------------------------------------------------------------------
# covering data

def covering_doc(c):
    return {
        "type": "covering_data",
        "pieces": [
            {
                "id": pid,
                "components": [
                    {
                        "degree": comp.degree,
                        "slots": [[s, list(p)] for s, p in comp.slot_partitions],
                        "free": None
                        if comp.free_partitions is None
                        else [list(p) for p in comp.free_partitions],
                    }
                    for comp in comps
                ],
            }
            for pid, comps in c.components
        ],
    }


def covering_from_doc(doc):
    _expect(doc, "covering_data")
    return CoveringData(
        tuple(
            (
                p["id"],
                tuple(
                    ComponentCover(
                        _unint(comp["degree"]),
                        tuple((s, _partition(part)) for s, part in comp["slots"]),
                        None if comp.get("free") is None else tuple(_partition(f) for f in comp["free"]),
                    )
                    for comp in p["components"]
                ),
            )
            for p in doc["pieces"]
        )
    )


# ---------------------------------------------------------------------------
# branch data and spectrum queries

def branch_doc(b):
    doc = {
        "type": "branch_data",
        "degree": b.degree,
        "branch_points": [list(p) for p in b.branch_points],
    }
    if b.matrix is not None:
        doc["matrix"] = [list(r) for r in b.matrix]
    return doc


def branch_from_doc(doc):
    _expect(doc, "branch_data")
    points = tuple(_partition(p) for p in doc["branch_points"])
    return BranchData(_unint(doc["degree"]), points, doc.get("matrix"))


def pa_data_doc(label, delta):
    return _plain({"type": "pa_data", "dilatation": label_doc(label), "delta": delta.counts})


def pa_data_from_doc(doc):
    _expect(doc, "pa_data")
    return _label_from_doc(doc.get("dilatation")), SingularityVector(
        tuple((_unint(n), _unint(c)) for n, c in doc["delta"])
    )


def query_doc(q):
    return _plain({"type": "spectrum_query", "matrix": q.matrix, "origin": q.origin, "point": q.point,
                   "radius": q.radius})


def query_from_doc(doc):
    _expect(doc, "spectrum_query")
    origin, point = unpair(doc["origin"], "origin"), unpair(doc["point"], "point")
    return SpectrumQuery(doc["matrix"], origin, point, doc["radius"])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def dump(path, doc):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(doc))
