"""Canonical JSON documents for every object the CLI consumes or emits.

Rationals are written as "p/q" strings (or "p" when the denominator is
1), so no float ever enters a document; serialization is canonical
(sorted keys, fixed indentation, trailing newline), so
parse-then-serialize is byte-identical on canonical files.

Each input document type is declared once, as a shape of the schema
walker below that gives both its reader and its writer; the operation
arguments and the corpus entries are read by shapes too.  A shape
checks keys, exact element types (no bool for an int, no str for a
list, no str that UTF-8 cannot encode), pairs and optional or null
fields, and converts in the same walk; unknown keys are ignored.  A
list of more than 16 values is read as one column by each shape, a
list of lists as the one column of their entries, and the equal
rational strings of a column give one ``Fraction``.  A fault raises a
``ValueError`` that names the value by its path
(``pieces[0].slots: expected list of str, got 's1'``,
``curves[0].end_a: missing``).  What a value means is checked by the
library's constructors, whose objections are named by the path of the
object they build.

Every document holds exact values -- ``Fraction``s, tuples, ints,
``None`` and graphs -- and is turned into text only when written, by one
walk with a style per format.  ``canonical_dumps`` writes exactly
``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` without calling it
(an indented ``json.dumps`` runs the pure-Python encoder), strings
escaped by the C ``encode_basestring_ascii``; ``text_dumps`` writes the
same lines without brackets, commas and quotes, each list entry headed
by "-", one level less deep.  A rational is written through ``str`` of
its ``Fraction``, so an integer too long to print fails in the writer,
never inside an operation.  A graph's curves and periodic pieces go
through one template each, written from one whose fields are holes, and
a slots tuple that pieces share is written once.  An input document with
rationals goes through its JSON text once (``_plain``) for a reader.
"""

from __future__ import annotations

import functools
import json
import re
import reprlib
import sys
from fractions import Fraction
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, itemgetter

from .comparator import FULL, MODES
from .cover import ComponentCover, CoveringData
from .decomposition import DilatationLabel, Piece, ReducibleMap, ReducingCurve, _distinct_twists
from .quadratic import QuadraticUnit, ResourceLimit, _gc_paused
from .spectrum import BranchData, SingularityVector, SpectrumQuery
from .staircase import BundlePiece, FiberedGraphManifold, Gluing, PiecePlan, RefiberPlan
from .surfaces import Surface
from .torus import TorusAutomorphism


def _too_long(what):
    return "%s holds an integer of more than %d digits" % (what, sys.get_int_max_str_digits())


# the exponent that ends a decimal string, as ``Fraction`` reads one: it would build 10**exponent
_EXPONENT = re.compile(r"[\d.][eE][-+]?\d+(?:_\d+)*\s*\Z")


def unrat(x):
    """A document rational: a "p/q" or "p" string, or a JSON integer.

    Floats and booleans are rejected, so no inexact value is read, and so
    is a string with an exponent, before ``Fraction`` computes its power.
    """
    if type(x) is not str and type(x) is not int:
        raise _expected("a rational as a string or an integer", x)
    if type(x) is str and _EXPONENT.search(x):
        raise ValueError('rational %s has an exponent: it is written "p/q" or "p"' % reprlib.repr(x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("rational %r has denominator zero" % (x,)) from None
    except ValueError as e:  # no rational, or an integer past the interpreter's digit limit
        try:  # the same text with each digit run cut to one digit parses in the second case only
            Fraction(re.sub(r"\d+", "1", x))
        except ValueError:
            raise e from None
        raise ValueError(_too_long("the rational")) from None


# ---------------------------------------------------------------------------
# the schema walker: a shape checks one document value and returns it
# converted, or raises ``_Invalid``; ``shape.write`` is the other
# direction, from a converted value back to its document value, and
# ``shape.column(values)`` reads a list of values at once, as a tuple.
# Any fault of a column raises, and the enclosing list walks its entries
# one by one to name it, so a column may check its values in any order.

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
    """The error of the first failing ``(path step, shape, value)``, at its step."""
    for step, shape, value in steps:
        try:
            shape(value)
        except _Invalid as e:
            e.path.append(step)
            return e


def _same(x):  # the writer of a value written as itself
    return x


def _shape(walk, write=None, t=None, column=None):
    """``walk`` as a shape: its column is ``column`` of more than 16 values all
    of exact type ``t`` (one type test), else ``walk`` of each, cheaper for fewer."""
    walk.column = lambda values: (column(values) if column and len(values) > 16 and {*map(type, values)} <= {t}
                                  else tuple(map(walk, values)))
    walk.write = write
    return walk


def _leaf(t, what):
    def walk(v):
        if type(v) is not t:
            raise _expected(what, v)
        return v

    return _shape(walk, _same, t, tuple)


_int, _dict = _leaf(int, "int"), _leaf(dict, "object")


def _str(v):
    """A str that UTF-8 can encode.  Text output cannot write a lone
    surrogate, which a JSON escape can hold, so it is refused here: a
    document is then valid or invalid alike in every output format."""
    if type(v) is not str:
        raise _expected("str", v)
    try:
        v.encode("utf-8")
    except UnicodeEncodeError:
        raise _expected("str encodable as UTF-8", v) from None
    return v


def _strs(strings):
    "".join(strings).encode("utf-8")  # the column checked at once: a lone surrogate raises
    return tuple(strings)


_shape(_str, _same, str, _strs)


def _rational(v):
    """A rational through ``unrat``; written as its ``Fraction``.  A column
    of strings reads each distinct string once; any other is read value by
    value, since keyed by value ``True`` would find the ``Fraction`` of 1."""
    try:
        return unrat(v)
    except ValueError as e:
        raise _Invalid("missing" if v is _MISSING else str(e)) from None


def _rationals(strings):
    parsed = {x: unrat(x) for x in {*strings}}
    return tuple(map(parsed.__getitem__, strings))


_shape(_rational, _same, str, _rationals)


@_shape
def _json(v):
    if v is _MISSING:
        raise _expected("a value", v)
    return v


def _const(*values):
    """One of the strings ``values``."""
    what = " or ".join(map(repr, values)) or "a declared value (none is declared)"

    def walk(v):
        if type(v) is not str or v not in values:
            raise _expected(what, v)
        return v

    return _shape(walk, _same)


def _maybe(shape, default=None, omit=False):
    """``shape``, or ``default`` for an absent key or a null, a column reading
    the values present as one; None is written as null, or left out when ``omit``."""
    walk = lambda v: default if v is None or v is _MISSING else shape(v)  # noqa: E731

    def column(values):
        read = iter(shape.column([v for v in values if v is not None and v is not _MISSING]))
        return tuple(default if v is None or v is _MISSING else next(read) for v in values)

    walk.column, walk.write = column, lambda x: (_MISSING if omit else None) if x is None else shape.write(x)
    return walk


def _list(item, what="list"):
    """A list, as a tuple, its entries read as one column, and a column of
    lists as one column of all their entries, cut back; written as a list."""

    def walk(v):
        if type(v) is not list:
            raise _expected(what, v)
        try:
            return item.column(v)
        except ValueError:
            raise _first_invalid(("[%d]" % i, item, x) for i, x in enumerate(v)) from None

    def column(lists):
        entries, ends = item.column([*chain.from_iterable(lists)]), [*accumulate(map(len, lists))]
        return tuple(map(entries.__getitem__, map(slice, [0, *ends], ends)))

    return _shape(walk, list if item.write is _same else lambda xs: list(map(item.write, xs)), list, column)


def _values(item):
    """An object of any keys, each value read by ``item``."""

    def walk(v):
        items = _dict(v).items()
        try:
            return {key: item(x) for key, x in items}
        except _Invalid:
            raise _first_invalid(("." + key, item, x) for key, x in items) from None

    return _shape(walk)


def _pair(what, first, second):
    """A list of exactly two entries, as a tuple, two equal strings of one
    shape read once, and a column of them as two columns; written as a list."""

    def walk(v):
        if type(v) is not list or len(v) != 2:
            raise _expected(what, v)
        a, b = v
        try:
            x = first(a)
            return (x, x) if type(a) is str and a == b and first is second else (x, second(b))
        except _Invalid:
            raise _first_invalid((("[0]", first, a), ("[1]", second, b))) from None

    def column(lists):
        if {*map(len, lists)} - {2}:
            return tuple(map(walk, lists))
        return tuple(zip(first.column([*map(_first, lists)]), second.column([*map(_second, lists)])))

    write = list if first.write is second.write is _same else lambda v: [first.write(v[0]), second.write(v[1])]
    return _shape(walk, write, list, column)


def _object(build, *fields):
    """An object: ``build`` of the values of its ``(key, shape, get)`` fields,
    in order, and a column of objects read field by field; a ``ValueError``
    of ``build`` is named by the object's path.  Written as each ``shape.write``
    of ``get`` of the built value, ``get`` an attribute path or a function, an
    absent key left out; the fields of a shape only read are ``(key, shape)``."""
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

    def column(objects):
        return tuple(map(build, *[shape.column([*map(dict.get, objects, repeat(key), repeat(_MISSING))])
                                  for key, shape in reads]))

    writes = all(len(field) == 3 for field in fields) and [
        (key, shape.write, get if callable(get) else attrgetter(get)) for key, shape, get in fields]
    write = lambda x: {key: v for key, w, get in writes if (v := w(get(x))) is not _MISSING}  # noqa: E731
    return _shape(walk, write if writes else None, dict, column)


def _tagged(key, cases, tag_of):
    """An object read by the shape of ``cases`` that its ``key`` names,
    and written by the one that ``tag_of`` of the value names."""
    tag = _object(cases.get, (key, _const(*cases)))
    return _shape(lambda v: tag(v)(v), lambda x: {key: tag_of(x), **cases[tag_of(x)].write(x)})


def _document(type_name, build, *fields):
    """The reader and the writer of ``type_name`` documents: ``build`` of
    their other fields, read with garbage collection paused, and the
    document of a built value."""
    shape = _object(lambda _, *values: build(*values), ("type", _const(type_name), lambda _: type_name), *fields)

    def read(doc):
        with _gc_paused():
            return shape(doc)

    return read, shape.write


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
    Without brackets the line that opens a container is left out.  A
    graph's curves and periodic pieces are written through templates."""
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

    def written(v, depth):
        parts = []
        walk(v, depth, parts.append)
        return "".join(parts)

    @functools.cache
    def templates(depth):
        """A curve and a periodic piece of a graph at ``depth``, each field a ``%s``: written
        from ones whose every field is a hole, the piece's slots list filled in as its own text."""
        hole, slots = "\0", ("\1",)
        curve = written({"end_a": (hole, hole), "end_b": (hole, hole), "id": hole, "twist": hole}, depth)
        piece = written({"boundary": hole, "dilatation": None, "free_boundary": hole, "genus": hole, "id": hole,
                         "slots": slots}, depth).replace(written(slots, depth + 1), "%s")
        return curve.replace(quote(hole), "%s"), piece.replace(quote(hole), "%s")

    def walk(v, depth, out):
        t = type(v)
        if t is ReducibleMap:  # its curves and periodic pieces through templates, never as a dict each
            twists = {k: rational % x for k, x in _distinct_twists(v.curves).items()}
            curve, piece = templates(depth + 2)
            curves = _Written([curve % (quote(c.end_a[0]), quote(c.end_a[1]), quote(c.end_b[0]),
                                        quote(c.end_b[1]), quote(c.id), twists[id(c.twist)]) for c in v.curves])
            slots = {}  # id of a slots tuple -> its text, once per tuple that pieces share
            pieces = _Written([
                written({"id": p.id, "genus": p.surface.genus, "boundary": p.surface.boundary_components,
                         "slots": p.slots, "free_boundary": p.free_boundary, "dilatation": label_doc(p.dilatation)},
                        depth + 2) if p.dilatation is not None else
                piece % (p.surface.boundary_components, p.free_boundary, p.surface.genus, quote(p.id),
                         slots.get(id(p.slots)) or slots.setdefault(id(p.slots), written(p.slots, depth + 3)))
                for p in v.pieces])
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


def _dumps(write, doc):
    """``doc`` written by ``write``, with a final newline if it is not empty."""
    parts = []
    try:
        write(doc, 0, parts.append)
    except ValueError:  # the only one ``str`` of an int or a Fraction raises: too long to print
        raise ResourceLimit(_too_long("the result")) from None
    if parts:
        parts.append("\n")
    return "".join(parts)


def canonical_dumps(doc):
    """The document as canonical JSON: ``json.dumps(doc, sort_keys=True,
    indent=2)`` and a newline, rationals as strings and tuples as lists."""
    return _dumps(_write_json, doc)


def text_dumps(doc):
    """The document as text: its JSON lines without brackets, commas and
    quotes, each list entry headed by "-", nested one level less, and a
    newline after each line."""
    return _dumps(_write_text, doc)


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
_ARGS = {"k": _int, "mode": _maybe(_const(*MODES), FULL), "bound": _rational,
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
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to read") from None
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError:  # the only other one: an integer literal past the interpreter's digit limit
            raise ValueError(_too_long("the document")) from None


def dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
