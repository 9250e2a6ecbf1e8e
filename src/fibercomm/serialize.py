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
``None`` and graphs -- and is turned into text only when written, by one
walk with a style per format.  ``canonical_dumps`` writes exactly
``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` without calling it
(an indented ``json.dumps`` runs the pure-Python encoder), strings
escaped by the C ``encode_basestring_ascii``; ``text_dumps`` writes the
same lines without brackets, commas and quotes, each list entry headed
by "-", one level less deep.  A rational is written through ``str`` of
its ``Fraction``, so an integer too long to print fails in the writer,
never inside an operation.  A graph's curves go through one template,
written from a curve whose fields are holes.  An input document with
rationals goes through its JSON text once (``_plain``) for a reader.
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


class _Written(tuple):
    """The entries of a list, each written already."""


def _writer(quote, word, brackets, comma, head):
    """The writer of one format: ``walk(v, depth, out)`` hands ``out`` the
    text of ``v`` at nesting ``depth`` (0 for a document) in parts.  A
    string is written by ``quote``, a rational by ``quote`` of ``str`` of
    its ``Fraction``, an int by its digits, None, a bool or a float by
    ``word``; a list entry is headed by ``head``, and ``brackets`` (a
    list's pair, then an object's) and ``comma`` are the punctuation.
    Without brackets the line that opens a container is left out."""
    open_list, close_list, open_dict, close_dict = brackets or ("",) * 4
    space = " " if head else ""  # between a list entry's head and a value on its line
    colon = ": " if brackets else ":"  # after a key whose value is a container
    null, rational = word(None), quote("%s")
    texts = {str: quote, Fraction: rational.__mod__, int: int.__repr__, type(None): lambda _: null}
    list_rational, dict_rational = "%s" + rational, "%s%s: " + rational
    nested = frozenset((dict, list, tuple, _Written, ReducibleMap))

    def layout(depth):
        """The starts of the entry lines of a container at ``depth``: the
        first and every other line of a list entry that is no container,
        of one that is, and of an object entry; then its closing lines."""
        line = "\n" + "  " * (depth + 1 if brackets else depth)
        first = line if depth or brackets else ""  # the first line of the document
        end = "\n" + "  " * depth if brackets else ""
        return (open_list + first + head + space, comma + line + head + space, open_list + first + head,
                comma + line + head, open_dict + first, comma + line, end and end + close_list, end and end + close_dict)

    layouts = []  # by depth, each made when a container first reaches it

    @functools.cache
    def curve_template(depth):
        """One curve of a graph at ``depth``, each field a ``%s``: written
        from a curve whose every field is a hole."""
        parts, hole = [], "\0"
        walk({"end_a": (hole, hole), "end_b": (hole, hole), "id": hole, "twist": hole}, depth, parts.append)
        return "".join(parts).replace(quote(hole), "%s")

    def walk(v, depth, out):
        t = type(v)
        if t is ReducibleMap:  # its curves through one template, never as a dict per curve
            twists = {k: rational % x for k, x in _distinct_twists(v.curves).items()}
            template = curve_template(depth + 2)
            curves = _Written([template % (quote(c.end_a[0]), quote(c.end_a[1]), quote(c.end_b[0]),
                                           quote(c.end_b[1]), quote(c.id), twists[id(c.twist)]) for c in v.curves])
            pieces = [{"id": p.id, "genus": p.surface.genus, "boundary": p.surface.boundary_components, "slots": p.slots,
                       "free_boundary": p.free_boundary, "dilatation": label_doc(p.dilatation)} for p in v.pieces]
            walk({"curves": curves, "pieces": pieces, "type": "reducible_map"}, depth, out)
            return
        if t not in nested:
            out(texts.get(t, word)(v))
            return
        if not v:
            if brackets:
                out(open_dict + close_dict if t is dict else open_list + close_list)
            return
        try:
            lay = layouts[depth]
        except IndexError:  # made once for each depth
            layouts.extend(map(layout, range(len(layouts), depth + 1)))
            lay = layouts[depth]
        if t is dict:
            _, _, _, _, s, rest, _, end = lay
            for k in sorted(v):
                x = v[k]
                tx = type(x)
                if tx is str:
                    out(s + quote(k) + ": " + quote(x))
                elif tx is Fraction:
                    out(dict_rational % (s, quote(k), x))
                elif tx in nested:
                    out(s + quote(k) + colon)
                    walk(x, depth + 1, out)
                else:
                    out(s + quote(k) + ": " + texts.get(tx, word)(x))
                s = rest
        else:
            s, rest, sc, rest_c, _, _, end, _ = lay
            if t is _Written:
                out(sc)
                out(rest_c.join(v))  # a part of its own: the entries are copied once here
            else:
                for x in v:
                    tx = type(x)
                    if tx is str:
                        out(s + quote(x))
                    elif tx is Fraction:
                        out(list_rational % (s, x))
                    elif tx in nested:
                        out(sc)
                        walk(x, depth + 1, out)
                    else:
                        out(s + texts.get(tx, word)(x))
                    s, sc = rest, rest_c
        if end:
            out(end)

    return walk


_write_json = _writer(_json_str, json.dumps, "[]{}", ",", "")
_write_text = _writer(str, str, "", "", "-")


def canonical_dumps(doc):
    """The document as canonical JSON: ``json.dumps(doc, sort_keys=True,
    indent=2)`` and a newline, rationals as strings and tuples as lists."""
    parts = []
    _write_json(doc, 0, parts.append)
    parts.append("\n")
    return "".join(parts)


def text_dumps(doc):
    """The document as text: its JSON lines without brackets, commas and
    quotes, each list entry headed by "-", nested one level less, and a
    newline after each line."""
    parts = []
    _write_text(doc, 0, parts.append)
    if parts:
        parts.append("\n")
    return "".join(parts)


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


def _plain(doc):
    """``doc`` as plain JSON values, through its canonical text once."""
    return json.loads(canonical_dumps(doc))


def reducible_doc(phi):
    """The document of graph ``phi`` as plain JSON values."""
    return _plain(phi)


# written by the graph branch of ``_writer``, so its fields are only read
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
