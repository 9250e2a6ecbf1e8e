"""Canonical JSON documents for every object the CLI consumes or emits.

Rationals are written as "p/q" strings (or "p" when the denominator is
1), so no float ever enters a document; serialization is canonical
(sorted keys, fixed indentation, trailing newline), so
parse-then-serialize is byte-identical on canonical files.

Each input document type is declared once, as a shape of the schema
walker below that gives both its reader and its writer; the operation
arguments and the corpus entries are read by shapes too.  A shape
checks keys, exact element types (no bool for an int, no str for a
list), pairs and optional or null fields, and converts in the same walk;
unknown keys are ignored.  A fault raises a ``ValueError`` that names
the value by its path (``pieces[0].slots: expected list of str, got
's1'``, ``curves[0].end_a: missing``).  What a value means is checked by
the library's constructors, whose objections are named by the path of
the object they build.

Every document holds exact values -- ``Fraction``s, tuples, ints,
``None`` and graphs -- and is turned into text only when written, by
``canonical_dumps`` here or by the text writer of ``cli``, both through
``str`` of the ``Fraction``: an integer too long to print fails in the
writer, never inside an operation.  An input document that holds
rationals goes through that text once (``_plain``) for a reader to take.

``canonical_dumps`` writes exactly ``json.dumps(doc, sort_keys=True,
indent=2) + "\n"`` without calling it (an indented ``json.dumps`` runs
the pure-Python encoder): one list of parts, strings escaped by the C
``encode_basestring_ascii``.  A graph is written straight from it, by
hand: its curves through one template at the current indentation, never
as a dict per curve.  ``json.dumps`` of the dict-per-curve document is
the test oracle.
"""

from __future__ import annotations

import functools
import json
import reprlib
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, itemgetter

from .comparator import COMBINED, FULL, TOPOLOGICAL
from .cover import ComponentCover, CoveringData, _gc_paused
from .decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve, _distinct_twists
from .quadratic import QuadraticUnit
from .spectrum import BranchData, SingularityVector, SpectrumQuery
from .staircase import BundlePiece, FiberedGraphManifold, Gluing, PiecePlan, RefiberPlan
from .surfaces import Surface
from .torus import TorusAutomorphism


def unrat(x):
    """A document rational: a "p/q" or "p" string, or a JSON integer.

    Floats and booleans are rejected, so no inexact value is read.
    """
    if type(x) is not str and type(x) is not int:
        raise _expected("a rational as a string or an integer", x)
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("rational %r has denominator zero" % (x,)) from None


# ---------------------------------------------------------------------------
# the schema walker: a shape checks one document value and returns it
# converted, or raises ``_Invalid``; ``shape.write`` is the other
# direction, from a converted value back to its document value.
# ``shape.fast = (t, f)`` lets a container read an entry of exactly type
# ``t`` as ``f`` of it (None: as itself) without calling the shape,
# which it calls only otherwise.

_MISSING = object()  # the value of an absent key


class _Invalid(ValueError):
    """A value that does not fit its shape or that its constructor
    rejects; ``path`` gets a step, innermost first, as the error leaves
    each enclosing list and object."""

    def __init__(self, message):
        super().__init__(message)
        self.path = []

    def __str__(self):
        path = "".join(reversed(self.path)).lstrip(".")
        return path + ": " + self.args[0] if path else self.args[0]


def _expected(what, value):
    try:
        shown = reprlib.repr(value)
    except ValueError:  # an integer too long to print
        shown = "a value too long to print"
    return _Invalid("missing" if value is _MISSING else "expected %s, got %s" % (what, shown))


def _first_invalid(steps):
    """The error of the first failing ``(path step, shape, value)``, at its
    step: a container reads its entries at once, and walks them again one
    by one only to name a fault."""
    for step, shape, value in steps:
        try:
            shape(value)
        except _Invalid as e:
            e.path.append(step)
            return e


def _same(x):  # the writer of a value written as itself
    return x


def _leaf(t, what):
    def walk(v):
        if type(v) is not t:
            raise _expected(what, v)
        return v

    walk.fast, walk.write = (t, None), _same
    return walk


_str, _int, _dict = _leaf(str, "str"), _leaf(int, "int"), _leaf(dict, "object")
_parsed = functools.cache(unrat)  # the rational strings of the document being read


def _rational(v):
    """A rational through ``unrat``, a string once per document (``_parsed``);
    written as its ``Fraction``."""
    try:
        return _parsed(v) if type(v) is str else unrat(v)
    except ValueError as e:
        raise _Invalid("missing" if v is _MISSING else str(e)) from None


_rational.fast, _rational.write = (str, _parsed), _same


def _json(v):
    if v is _MISSING:
        raise _expected("a value", v)
    return v


def _const(*values):
    """One of the strings ``values``."""

    def walk(v):
        if type(v) is not str or v not in values:
            raise _expected(" or ".join(map(repr, values)), v)
        return v

    walk.write = _same
    return walk


def _maybe(shape, default=None, omit=False):
    """``shape``, or ``default`` for an absent key or a null; None is
    written as null, or as an absent key when ``omit``."""
    walk = lambda v: default if v is None or v is _MISSING else shape(v)  # noqa: E731
    walk.write = lambda x: (_MISSING if omit else None) if x is None else shape.write(x)
    return walk


def _entries(shape, values):
    """``shape`` of each of ``values``, as a tuple."""
    t, f = getattr(shape, "fast", (None, None))
    if {*map(type, values)} <= {t}:
        return tuple(values) if f is None else tuple(map(f, values))
    if hasattr(shape, "types"):  # pairs of leaves
        t, u = shape.types
        if all(type(x) is list and len(x) == 2 and type(x[0]) is t and type(x[1]) is u for x in values):
            return tuple(map(tuple, values))
    return tuple(map(shape, values))


def _list(item, what="list"):
    """A list, as a tuple; a list of objects is read field by field, the
    field of every entry at once, so a graph of 10^4 curves costs about
    two calls per curve.  Written as a list."""
    fields = getattr(item, "fields", None)

    def walk(v):
        if type(v) is not list:
            raise _expected(what, v)
        try:
            if fields and {*map(type, v)} <= {dict}:
                columns = [_entries(shape, list(map(dict.get, v, repeat(key), repeat(_MISSING))))
                           for key, shape in fields]
                return tuple(map(item.build, *columns))
            return _entries(item, v)
        except ValueError:
            raise _first_invalid(("[%d]" % i, item, x) for i, x in enumerate(v)) from None

    walk.write = list if getattr(item, "write", None) is _same else lambda xs: list(map(item.write, xs))
    return walk


def _values(item):
    """An object of any keys, each value read by ``item``."""

    def walk(v):
        items = _dict(v).items()
        try:
            return {key: item(x) for key, x in items}
        except _Invalid:
            raise _first_invalid(("." + key, item, x) for key, x in items) from None

    return walk


def _pair(what, first, second):
    """A list of exactly two entries, as a tuple; written as a list."""
    (t, f), (u, g) = getattr(first, "fast", (None, None)), getattr(second, "fast", (None, None))

    def walk(v):
        if type(v) is not list or len(v) != 2:
            raise _expected(what, v)
        a, b = v
        if type(a) is t and type(b) is u and f is g is None:
            return (a, b)
        try:
            return (first(a), second(b))
        except _Invalid:
            raise _first_invalid((("[0]", first, a), ("[1]", second, b))) from None

    if f is g is None:
        walk.types = (t, u)
    walk.write = list if first.write is second.write is _same else lambda v: [first.write(v[0]), second.write(v[1])]
    return walk


def _object(build, *fields):
    """An object: ``build`` of the values of its ``(key, shape, get)``
    fields, in order; a ``ValueError`` of ``build`` is named by the
    object's path.  Written as each ``shape.write`` of ``get`` of the
    built value, ``get`` an attribute path or a function, an absent key
    left out; the fields of a shape that is only read are ``(key, shape)``."""
    reads = [field[:2] for field in fields]

    def walk(v):
        if type(v) is not dict:
            raise _expected("object", v)
        try:
            values = [shape(v.get(key, _MISSING)) for key, shape in reads]
        except _Invalid:
            raise _first_invalid(("." + key, shape, v.get(key, _MISSING)) for key, shape in reads) from None
        try:
            return build(*values)
        except ValueError as e:
            raise _Invalid(str(e)) from None

    walk.fields, walk.build = reads, build
    if all(len(field) == 3 for field in fields):
        writes = [(key, shape.write, get if callable(get) else attrgetter(get)) for key, shape, get in fields]
        walk.write = lambda x: {key: v for key, w, get in writes if (v := w(get(x))) is not _MISSING}
    return walk


def _tagged(key, cases, tag_of):
    """An object read by the shape of ``cases`` that its ``key`` names,
    and written by the one that ``tag_of`` of the value names."""
    tag = _object(cases.get, (key, _const(*cases)))
    walk = lambda v: tag(v)(v)  # noqa: E731
    walk.write = lambda x: {key: tag_of(x), **cases[tag_of(x)].write(x)}
    return walk


def _document(type_name, build, *fields):
    """The reader and the writer of ``type_name`` documents: ``build`` of
    their other fields, read with garbage collection paused, and the
    document of a built value."""
    shape = _object(lambda _, *values: build(*values), ("type", _const(type_name), lambda _: type_name), *fields)

    def read(doc):
        try:
            with _gc_paused():
                return shape(doc)
        finally:
            _parsed.cache_clear()

    return read, getattr(shape, "write", None)


_RATIONALS = _pair("a list of two rationals", _rational, _rational)
_ROW = _pair("a row of two int", _int, _int)
_MATRIX = _pair("a 2x2 integer matrix", _ROW, _ROW)
_PARTITION, _STRS = _list(_int, "list of int"), _list(_str, "list of str")
_first, _second = itemgetter(0), itemgetter(1)


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


# ---------------------------------------------------------------------------
# torus automorphisms

torus_from_doc, torus_doc = _document("torus_automorphism", TorusAutomorphism, ("matrix", _MATRIX, "matrix"))


# ---------------------------------------------------------------------------
# reducible maps

_QUADRATIC = _object(QuadraticUnit, ("D", _int, "D"), ("a", _rational, "a"), ("b", _rational, "b"))
_ROTATION = ("rotation", _maybe(_rational, omit=True), "rotation")
_LABEL = _maybe(_tagged("kind", {
    "exact": _object(lambda unit, rotation: DilatationLabel(unit=unit, rotation=rotation),
                     ("unit", _QUADRATIC, "unit"), _ROTATION),
    "symbol": _object(lambda name, exponent, rotation: DilatationLabel(name=name, exponent=exponent, rotation=rotation),
                      ("name", _str, "name"), ("exponent", _rational, "exponent"), _ROTATION),
}, lambda label: "exact" if label.exact else "symbol"))
quadratic_doc, label_doc = _QUADRATIC.write, _LABEL.write


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


# written by hand above, so its fields are only read
_END = _pair("[piece id, slot] as two str", _str, _str)
reducible_from_doc = _document(
    "reducible_map", ReducibleMap,
    ("pieces", _list(_object(
        lambda pid, genus, boundary, slots, free, label: Piece(pid, Surface(genus, boundary), slots, free, label),
        ("id", _str), ("genus", _int), ("boundary", _int), ("slots", _STRS), ("free_boundary", _int),
        ("dilatation", _LABEL)))),
    ("curves", _list(_object(ReducingCurve, ("id", _str), ("end_a", _END), ("end_b", _END), ("twist", _rational)))),
)[0]


# ---------------------------------------------------------------------------
# graph manifolds and plans

_TORUS_END = _pair("[piece id, torus] as two str", _str, _str)
manifold_from_doc, manifold_doc = _document(
    "graph_manifold", FiberedGraphManifold,
    ("pieces", _list(_object(lambda pid, genus, tori: BundlePiece(pid, Surface(genus, len(tori)), tori),
                             ("id", _str, "id"), ("genus", _int, "surface.genus"),
                             ("boundary_tori", _STRS, "boundaries"))), "pieces"),
    ("gluings", _list(_object(Gluing, ("id", _str, "id"), ("side_a", _TORUS_END, "side_a"),
                              ("side_b", _TORUS_END, "side_b"), ("matrix", _MATRIX, "matrix"))), "gluings"),
)

_ARCS = _list(_pair("[tail, head] as two str", _str, _str))
plan_from_doc, plan_doc = _document(
    "refiber_plan", RefiberPlan,
    ("pieces", _list(_object(lambda pid, n, arcs: (pid, PiecePlan(n, arcs)), ("id", _str, _first),
                             ("n", _int, lambda entry: entry[1].n), ("arcs", _ARCS, lambda entry: entry[1].arcs))),
     "per_piece"),
)


# ---------------------------------------------------------------------------
# covering data

_COMPONENT = _object(ComponentCover, ("degree", _int, "degree"),
                     ("slots", _list(_pair("[slot, partition]", _str, _PARTITION)), "slot_partitions"),
                     ("free", _maybe(_list(_PARTITION)), "free_partitions"))
covering_from_doc, covering_doc = _document(
    "covering_data", CoveringData,
    ("pieces", _list(_object(lambda pid, components: (pid, components), ("id", _str, _first),
                             ("components", _list(_COMPONENT), _second))), "components"),
)


# ---------------------------------------------------------------------------
# branch data and spectrum queries

branch_from_doc, branch_doc = _document(
    "branch_data", BranchData, ("degree", _int, "degree"), ("branch_points", _list(_PARTITION), "branch_points"),
    ("matrix", _maybe(_MATRIX, omit=True), "matrix"),
)

pa_data_from_doc, _pa_data_doc = _document(
    "pa_data", lambda label, delta: (label, SingularityVector(delta)), ("dilatation", _LABEL, _first),
    ("delta", _list(_pair("[prongs, count] as two int", _int, _int)), lambda pa: pa[1].counts),
)


def pa_data_doc(label, delta):
    return _plain(_pa_data_doc((label, delta)))


query_from_doc, _query_doc = _document(
    "spectrum_query", SpectrumQuery, ("matrix", _MATRIX, "matrix"), ("origin", _RATIONALS, "origin"),
    ("point", _RATIONALS, "point"), ("radius", _int, "radius"),
)


def query_doc(q):
    return _plain(_query_doc(q))


# ---------------------------------------------------------------------------
# operation arguments and corpus entries

# each argument an operation may take; one without a default is required
_ARGS = {"k": _int, "mode": _maybe(_const(FULL, TOPOLOGICAL, COMBINED), FULL), "bound": _rational,
         "radius": _maybe(_int)}


@functools.cache
def _args(names):
    return _object(lambda *values: values, *[(name, _ARGS[name]) for name in names])


def args_from_doc(args, names):
    """The values of the operation arguments ``names`` in ``args``, in order."""
    try:
        return _args(tuple(names))(args)
    except _Invalid as e:
        e.path.append("args")
        raise
    finally:
        _parsed.cache_clear()


def corpus_from_doc(input_doc, expected_doc):
    """The checks of a corpus entry, each ``(name, operation, input
    documents, args, expected)``: ``input_doc`` names the documents,
    ``expected_doc`` lists the checks."""
    documents = _object(lambda documents: documents, ("documents", _values(_dict)))(input_doc)
    named = _const(*documents)
    check = _object(lambda name, op, inputs, args, expected: (name, op, [documents[n] for n in inputs], args, expected),
                    ("name", _str), ("operation", _str), ("inputs", _list(named, "list of str")),
                    ("args", _maybe(_dict, {})), ("expected", _json))
    return _object(lambda checks: checks, ("checks", _list(check)))(expected_doc)


def load(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to read") from None


def dump(path, doc):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(doc))
