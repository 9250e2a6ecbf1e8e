"""Canonical JSON documents for every object the CLI consumes or emits.

One structured format for graphs, manifolds, plans, covers, and
queries.  Rationals are serialized as "p/q" strings (or "p" when the
denominator is 1) so no float ever enters a document; serialization is
canonical (sorted keys, fixed indentation, trailing newline), so
parse-then-serialize is byte-identical on canonical files.

``canonical_dumps`` writes exactly ``json.dumps(doc, sort_keys=True,
indent=2) + "\n"`` but does not call it: CPython's C encoder serves
only ``indent=None``, so an indented ``json.dumps`` runs the pure-Python
encoder, which costs several times more on large graphs.  Its own
encoder joins one list of parts and escapes strings with the C
``encode_basestring_ascii``; the stdlib call stays as its test oracle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .cover import ComponentCover, CoveringData
from .decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve
from .quadratic import QuadraticNumber, QuadraticUnit
from .spectrum import BranchData, SingularityVector, SpectrumQuery
from .staircase import BundlePiece, FiberedGraphManifold, Gluing, PiecePlan, RefiberPlan
from .surfaces import Surface
from .torus import TorusAutomorphism


def rat(x):
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


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


def pair(p):
    return [rat(p[0]), rat(p[1])]


def unpair(doc):
    return (unrat(doc[0]), unrat(doc[1]))


def _partition(doc):
    """A partition of a degree, as a tuple of document integers."""
    return tuple(_unint(m) for m in doc)


def quadratic_doc(x):
    if isinstance(x, QuadraticUnit):
        x = x.number
    return {"D": x.D, "a": rat(x.a), "b": rat(x.b)}


def quadratic_from_doc(doc):
    return QuadraticNumber(doc["D"], unrat(doc["a"]), unrat(doc["b"]))


def canonical_dumps(doc):
    parts = []
    _encode(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _encode(v, nl, out):
    """Append the indented JSON of ``v`` to ``out``; ``nl`` is a newline
    plus the indentation of the line ``v`` starts on.  A string member
    is written with its key or separator in one part."""
    t = type(v)
    if t is str:
        out(_json_str(v))
    elif t is int:
        out(int.__repr__(v))
    elif t is list:
        if not v:
            out("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            if type(x) is str:
                out(sep + _json_str(x))
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
            else:
                out(sep + _json_str(k) + ": ")
                _encode(x, inner, out)
            sep = "," + inner
        out(nl + "}")
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

def _label_doc(label):
    if label is None:
        return None
    if label.exact:
        d = {"kind": "exact", "unit": quadratic_doc(label.unit)}
    else:
        d = {"kind": "symbol", "name": label.name, "exponent": rat(label.exponent)}
    if label.rotation is not None:
        d["rotation"] = rat(label.rotation)
    return d


def _label_from_doc(doc):
    if doc is None:
        return None
    rotation = unrat(doc["rotation"]) if "rotation" in doc else None
    if doc["kind"] == "exact":
        u = quadratic_from_doc(doc["unit"])
        return DilatationLabel(unit=QuadraticUnit(u.D, u.a, u.b), rotation=rotation)
    return DilatationLabel(name=doc["name"], exponent=unrat(doc["exponent"]), rotation=rotation)


def reducible_doc(phi):
    return {
        "type": "reducible_map",
        "pieces": [
            {
                "id": p.id,
                "genus": p.surface.genus,
                "boundary": p.surface.boundary_components,
                "slots": list(p.slots),
                "free_boundary": p.free_boundary,
                "dilatation": _label_doc(p.dilatation),
            }
            for p in phi.pieces
        ],
        "curves": [
            {
                "id": c.id,
                "end_a": list(c.end_a),
                "end_b": list(c.end_b),
                "twist": rat(c.twist),
            }
            for c in phi.curves
        ],
    }


def reducible_from_doc(doc):
    _expect(doc, "reducible_map")
    pieces = tuple(
        Piece(
            p["id"],
            Surface(_unint(p["genus"]), _unint(p["boundary"])),
            tuple(p["slots"]),
            _unint(p["free_boundary"]),
            _label_from_doc(p.get("dilatation")),
        )
        for p in doc["pieces"]
    )
    twists = {}  # each distinct twist string is parsed once
    curves = []
    for c in doc["curves"]:
        t = c["twist"]
        if type(t) is not str:
            twist = unrat(t)
        elif t in twists:
            twist = twists[t]
        else:
            twist = twists[t] = unrat(t)
        curves.append(ReducingCurve(c["id"], c["end_a"], c["end_b"], twist))
    return ReducibleMap(pieces, curves)


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
    matrix = doc.get("matrix")
    if matrix is not None:
        matrix = tuple(tuple(r) for r in matrix)
    return BranchData(_unint(doc["degree"]), tuple(_partition(p) for p in doc["branch_points"]), matrix)


def pa_data_doc(label, delta):
    return {
        "type": "pa_data",
        "dilatation": _label_doc(label),
        "delta": [[n, c] for n, c in delta.counts],
    }


def pa_data_from_doc(doc):
    _expect(doc, "pa_data")
    return _label_from_doc(doc.get("dilatation")), SingularityVector(
        tuple((_unint(n), _unint(c)) for n, c in doc["delta"])
    )


def query_doc(q):
    return {
        "type": "spectrum_query",
        "matrix": [list(r) for r in q.matrix],
        "origin": pair(q.origin),
        "point": pair(q.point),
        "radius": q.radius,
    }


def query_from_doc(doc):
    _expect(doc, "spectrum_query")
    return SpectrumQuery(doc["matrix"], unpair(doc["origin"]), unpair(doc["point"]), doc["radius"])


# ---------------------------------------------------------------------------
# result documents (output only)

def surface_doc(s):
    return {"genus": s.genus, "boundary": s.boundary_components}


def report_doc(report):
    return {
        "a": pair(report.a),
        "a_normalized": pair(report.a_normalized),
        "chi": report.chi,
        "dilatations": sorted(
            (_label_doc(l) for l in report.dilatations), key=canonical_dumps
        ),
        "p": [{"coefficient": rat(w), "exponent": pair(e)} for e, w in report.p],
        "pi": [pair(p) for p in sorted(report.pi)],
    }


def verdict_doc(v):
    return {
        "verdict": v.kind,
        "feasible": [rat(s) for s in sorted(v.feasible)],
        "witness": v.witness,
    }


def delta_doc(delta):
    return {"counts": [[n, c] for n, c in delta.counts]}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def dump(path, doc):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(doc))
