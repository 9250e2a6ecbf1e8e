"""Command-line front end.

Every subcommand and every corpus check runs through one table,
``OPERATIONS``, behind ``run_operation``: an operation parses its input
documents, then computes its result document.  A result holds exact
values (``Fraction``s, tuples, ints, ``None``, graphs); only the writer
of ``serialize`` turns it into text, ``canonical_dumps`` for the machine
format and ``text_dumps`` for the text one.  So an integer too long to
print fails in the writer, and every subcommand reports it as a
resource limit, never as malformed input.
Exit codes: 0 on success, 1 when ``corpus verify`` finds a mismatch, 2
on malformed or unreadable input and on a resource limit.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from . import serialize as ser
from .comparator import FULL, MODES, InvariantReport, compare
from .cover import lift_cover, normalize_unit_twists, verify_cover_laws
from .decomposition import power
from .quadratic import ResourceLimit
from .spectrum import delta_from_branch_data, pa_obstruction, spectrum_count_below, spectrum_min, spectrum_values
from .staircase import refiber
from .torus import classify_torus, torus_commensurable

CORPUS_ROOT = Path(__file__).resolve().parent / "corpus"


class MalformedInput(ValueError):
    """The input documents of an operation do not parse, or its
    computation rejects them."""


# each limit on an input whose cost grows with its value is checked before
# the work starts, next to the work it bounds, so it binds library calls
# too: ``spectrum.MAX_RADIUS``, ``cover.MAX_LIFTED_CURVES``, ``quadratic.TRIAL_WORK``,
# the printable power in ``DilatationLabel.power`` and ``staircase.MAX_STAIRCASE_SIZE``;
# the README gives the cost at each limit

# ---------------------------------------------------------------------------
# result documents: exact values, turned into text only by the writer of
# ``serialize``; a field shared by two documents is built in one place

def _classify(phi):
    nt = classify_torus(phi)
    dilatation = None if nt.dilatation is None else ser.quadratic_doc(nt.dilatation)
    return {"kind": nt.kind, "period": nt.period, "dilatation": dilatation}


def _torus_compare(phi1, phi2):
    v = torus_commensurable(phi1, phi2)
    return {"kind": v.kind, "scale": v.scale}


def _report(phi):
    """The invariant report; its stretch-factor labels, read from an
    input document and so each printable, in the order of their text."""
    report = InvariantReport.of(phi)
    return {
        "a": report.a,
        "a_normalized": report.a_normalized,
        "chi": report.chi,
        "dilatations": sorted(map(ser.label_doc, report.dilatations), key=ser.canonical_dumps),
        "p": [{"coefficient": w, "exponent": e} for e, w in report.p],
        "pi": sorted(report.pi),
    }


def _compare(phi1, phi2, mode):
    v = compare(phi1, phi2, mode)
    return {"verdict": v.kind, "feasible": sorted(v.feasible), "witness": v.witness}


def _cover(phi, c):
    lifted = lift_cover(phi, c)
    laws = [
        {"piece": ch.piece, "law": ch.law, "lhs": ch.lhs, "rhs": ch.rhs, "ok": ch.ok}
        for ch in verify_cover_laws(phi, c, lifted)
    ]
    return {"lifted": lifted, "laws": laws}


def _normalize(phi):
    normalized, cert = normalize_unit_twists(phi)
    return {"normalized": normalized, "certificate": {"power": cert.power, "cover": ser.covering_doc(cert.cover)}}


def _surface(s):
    return {"genus": s.genus, "boundary": s.boundary_components}


def _staircase(manifold, plan):
    """The refibered map, its invariant report, its fiber and its
    monodromy order."""
    result = refiber(manifold, plan)
    return {
        "fiber": None if result.fiber is None else _surface(result.fiber),
        "connected": result.connected,
        "monodromy_order": result.monodromy_order,
        "map": result.map,
        "invariants": _report(result.map),
    }


def _branch_delta(b):
    surface, delta = delta_from_branch_data(b)
    return {"surface": _surface(surface), "delta": {"counts": delta.counts}}


def _pa_obstruction(pa1, pa2):
    v = pa_obstruction(*pa1, *pa2)
    return {"ok": v.ok, "s": v.s, "s_prime": v.s_prime}


def _query(q, radius):
    """The query, with its radius overridden when ``radius`` is given."""
    return q if radius is None else dataclasses.replace(q, radius=radius)


def _spectrum_min(q, radius=None):
    m = spectrum_min(_query(q, radius))
    return {"value": ser.quadratic_doc(m.value), "translate": m.translate}


def _spectrum(q, radius):
    q = _query(q, radius)
    return {"values": [ser.quadratic_doc(v) for v in spectrum_values(q)], "min": _spectrum_min(q)}


def _spectrum_count_below(q, radius, bound):
    return {"count": spectrum_count_below(_query(q, radius), bound)}


# ---------------------------------------------------------------------------
# the operation table: name -> (input document kinds, argument names, run);
# a document of kind ``x`` is read by ``serialize.x_from_doc``, looked up
# at call time (a reader replaced by a test or a profiler is the one
# called), and ``run`` takes the documents, then the arguments

OPERATIONS = {
    "classify": (("torus",), (), _classify),
    "torus_compare": (("torus", "torus"), (), _torus_compare),
    "invariants": (("reducible",), (), _report),
    "compare": (("reducible", "reducible"), ("mode",), _compare),
    "power": (("reducible",), ("k",), power),
    "cover": (("reducible", "covering"), (), _cover),
    "normalize": (("reducible",), (), _normalize),
    "staircase": (("manifold", "plan"), (), _staircase),
    "branch_delta": (("branch",), (), _branch_delta),
    "pa_obstruction": (("pa_data", "pa_data"), (), _pa_obstruction),
    "spectrum_min": (("query",), ("radius",), _spectrum_min),
    "spectrum_count_below": (("query",), ("radius", "bound"), _spectrum_count_below),
    "spectrum": (("query",), ("radius",), _spectrum),
}


def run_operation(op, docs, args):
    """Run one operation on its input documents; returns the result document.

    The single error boundary of the table: a parse failure, always a
    ``ValueError`` naming the faulty field by its path, and a
    ``ValueError`` from the computation are raised as ``MalformedInput``.
    Anything else, a ``ResourceLimit`` or a fault of the library, passes.
    """
    if op not in OPERATIONS:
        raise MalformedInput("unknown corpus operation %r" % (op,))
    kinds, names, run = OPERATIONS[op]
    try:
        if len(docs) != len(kinds):
            raise ValueError("%s takes %d input documents, got %d" % (op, len(kinds), len(docs)))
        parsed = [getattr(ser, kind + "_from_doc")(doc) for kind, doc in zip(kinds, docs)]
        parsed += ser.args_from_doc(args, names)
        return run(*parsed)
    except ValueError as e:
        raise MalformedInput(e) from e


# ---------------------------------------------------------------------------
# subcommands

def _write(stream, text):
    """Write ``text`` as is, in UTF-8 whatever the locale, and flush."""
    stream.flush()
    out = getattr(stream, "buffer", stream)  # an in-memory text stream has no bytes under it
    out.write(text if out is stream else text.encode("utf-8", stream.errors))  # the stream's error handler
    out.flush()


def _refuse(message):
    _write(sys.stderr, message + "\n")
    sys.exit(2)


def _load(path):
    try:
        return ser.load(path)
    except OSError as e:  # a directory, say: unreadable, as a missing file is
        raise click.UsageError(str(e))
    except ValueError as e:  # not JSON, or not text
        _refuse("malformed input: %s: %s" % (path, e))


@click.group()
def main():
    """Exact commensurability invariants of surface automorphisms."""


# the click form of each operation argument that a subcommand takes, by its
# name in ``serialize._ARGS``
_PARAMS = {
    "mode": click.Option(["--mode"], type=click.Choice(MODES), default=FULL),
    "k": click.Argument(["k"], type=int),
    "radius": click.Option(["--radius"], type=int, default=None, help="override the query radius"),
}


def _subcommand(name, doc, files):
    """Register the subcommand of operation ``name``: its file arguments
    are loaded as the input documents, its operation's arguments are its
    other parameters."""

    def callback(fmt, **args):
        # the input documents are dropped before the output is written
        try:
            write = ser.canonical_dumps if fmt == "machine" else ser.text_dumps
            text = write(run_operation(name, [_load(args.pop(f)) for f in files], args))
        except (MalformedInput, ResourceLimit) as e:
            _refuse("%s: %s" % ("malformed input" if isinstance(e, MalformedInput) else "resource limit", e))
        _write(sys.stdout, text)

    fmt = click.Option(["--format", "fmt"], type=click.Choice(["text", "machine"]), default="text")
    inputs = [click.Argument([f], type=click.Path(exists=True)) for f in files]
    params = [*inputs, *(_PARAMS[a] for a in OPERATIONS[name][1]), fmt]
    main.add_command(click.Command(name, callback=callback, help=doc, params=params))


_subcommand("classify", "Nielsen-Thurston class of a torus automorphism.", ["input_file"])
_subcommand("invariants", "A, Pi, P, and stretch-factor set of a decomposition graph.", ["input_file"])
_subcommand("compare", "Obstruction verdict between two decomposition graphs.", ["input1", "input2"])
_subcommand("power", "The decomposition graph of the k-th power.", ["input_file"])
_subcommand("cover", "Lift a decomposition graph through covering data.", ["input_file", "cover_file"])
_subcommand("normalize", "Reduce a D-type graph to unit twists, with certificate.", ["input_file"])
_subcommand("staircase", "Refiber a graph manifold along a staircase plan.", ["manifold_file", "plan_file"])
_subcommand("spectrum", "Enumerated spectrum values and minimum of an Anosov model.", ["query_file"])


# ---------------------------------------------------------------------------
# corpus

def verify_entry(entry_dir):
    """Run every check of one corpus entry; returns mismatch strings.

    A malformed input document of a check makes the entry malformed: it
    is raised as ``MalformedInput`` prefixed by the check's name.  A
    resource limit or a result too long to print is a failing check.
    """
    checks = ser.corpus_from_doc(ser.load(entry_dir / "input.json"), ser.load(entry_dir / "expected.json"))
    failures = []
    for name, op, inputs, args, expected in checks:
        try:
            actual = ser.canonical_dumps(run_operation(op, inputs, args))
        except MalformedInput as e:
            raise MalformedInput("%s: %s" % (name, e)) from e
        except ResourceLimit as e:
            failures.append("%s: raised %s" % (name, e))
            continue
        expected = ser.canonical_dumps(expected)
        if actual != expected:  # reported on one line each
            texts = [json.dumps(json.loads(t), sort_keys=True) for t in (expected, actual)]
            failures.append("%s: expected %s, got %s" % (name, *texts))
    return failures


@main.group()
def corpus():
    """Operations on the bundled example corpus."""


@corpus.command()
@click.option("--root", type=click.Path(exists=True, file_okay=False, path_type=Path), default=CORPUS_ROOT)
def verify(root):
    """Recompute every corpus entry and diff against the expectations."""
    entries = sorted(p for p in root.iterdir() if (p / "expected.json").exists())
    if not entries:
        _refuse("no corpus entries under %s" % root)
    any_failed = False
    for entry in entries:
        try:
            failures = verify_entry(entry)
        except (OSError, ValueError) as e:  # unreadable, not JSON, not laid out as an entry, or a malformed document
            _refuse("%s: malformed entry (%s)" % (entry.name, e))
        any_failed |= bool(failures)
        lines = ["%s: %s" % (entry.name, "FAIL" if failures else "ok")] + ["  " + f for f in failures]
        _write(sys.stdout, "\n".join(lines) + "\n")
    sys.exit(1 if any_failed else 0)


if __name__ == "__main__":
    main()
