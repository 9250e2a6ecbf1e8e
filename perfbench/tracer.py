"""Spans around calls into the library, recorded from outside it.

``Tracer.install`` replaces each public function of the traced modules
with a wrapper in every ``fibercomm`` module namespace that binds it
(so ``torus.squarefree_part`` and ``cover.a_piece`` are caught as well
as the defining names), wraps ``InvariantReport.of``, the click command
callbacks and the click entry point, and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, op id) are kept in
flat arrays and written out by ``write``; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "quadratic",
    "torus",
    "spectrum",
    "decomposition",
    "comparator",
    "cover",
    "staircase",
    "serialize",
    "cli",
)

# serialize helpers called once per rational or pair; their time stays
# in the document-level function that calls them
_SKIP = {"serialize": {"rat", "unrat", "pair", "unpair"}}


def translates_in_box(query):
    """Number of straight-arc translates a spectrum query enumerates."""
    side = 2 * query.radius + 1
    offset = (query.point[0] - query.origin[0], query.point[1] - query.origin[1])
    zero_in_offset_box = all(x.denominator == 1 and abs(x) <= query.radius for x in offset)
    return 2 * side * side - 1 - zero_in_offset_box


class Tracer:
    """In-memory spans and size counters of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = defaultdict(int)
        self.sizes = defaultdict(int)
        self.op_id = -1
        self._stack = []
        self._undo = []

    def reset(self):
        """Drop recorded spans and counters; keep the wrappers."""
        for a in (self.name, self.parent, self.op, self.start, self.end):
            del a[:]
        self.failed.clear()
        self.sizes.clear()
        self._stack.clear()

    def _wrap(self, span, fn, on_result=None):
        idx = self._ids.setdefault(span, len(self.names))
        if idx == len(self.names):
            self.names.append(span)
        now = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[span] += 1
                raise
            finally:
                self.end[i] = now()
                self._stack.pop()
            if on_result is not None:
                on_result(self.sizes, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------

    def install(self, lib):
        """Wrap the public functions of every traced layer module."""
        modules = [m for n, m in sys.modules.items() if n == "fibercomm" or n.startswith("fibercomm.")]
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != mod.__name__
                    or attr in _SKIP.get(layer, ())
                ):
                    continue
                wrapped = self._wrap("%s.%s" % (layer, attr), fn, _HOOKS.get((layer, attr)))
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            self._set(m, k, wrapped)

        report = lib.comparator.InvariantReport
        self._set(report, "of", staticmethod(self._wrap("comparator.InvariantReport.of", report.of)))

        for name, cmd in _commands(lib.cli.main):
            self._set(cmd, "callback", self._wrap("cli.command.%s" % name, cmd.callback))
        self._set(lib.cli.main, "main", self._wrap("cli.main", lib.cli.main.main))

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner)[attr] if had else None, had))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- results -----------------------------------------------------

    def table(self):
        """Per-span-name calls, failures and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "self_s": 0.0, "failed": 0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
        for span, k in self.failed.items():
            out.setdefault(span, {"calls": 0, "self_s": 0.0, "failed": 0})["failed"] = k
        return out

    def write(self, directory):
        """Spans as raw little-endian arrays plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        columns = {}
        for col in ("name", "parent", "op", "start", "end"):
            arr = getattr(self, col)
            path = os.path.join(directory, "spans.%s.%s" % (col, arr.typecode))
            with open(path, "wb") as fh:
                arr.tofile(fh)
            columns[col] = os.path.basename(path)
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump({"names": self.names, "count": len(self.start), "columns": columns}, fh, indent=1)


def _commands(group, prefix=""):
    for name, cmd in group.commands.items():
        if hasattr(cmd, "commands"):
            yield from _commands(cmd, prefix + name + ".")
        else:
            yield prefix + name, cmd


def _values_returned(sizes, args, result):
    sizes["spectrum.values_returned"] += len(result)
    sizes["spectrum.translates"] += translates_in_box(args[0])


def _min_translates(sizes, args, result):
    sizes["spectrum.translates"] += translates_in_box(args[0])


def _lifted(sizes, args, result):
    sizes["cover.lifted_curves"] += len(result.curves)


def _trace_bits(sizes, args, result):
    bits = abs(args[0].trace).bit_length()
    sizes["torus.max_trace_bits"] = max(sizes["torus.max_trace_bits"], bits)


def _bytes_in(sizes, args, result):
    sizes["serialize.bytes_in"] += os.path.getsize(args[0])


def _bytes_out(sizes, args, result):
    sizes["serialize.bytes_out"] += len(result.encode())


_HOOKS = {
    ("spectrum", "spectrum_values"): _values_returned,
    ("spectrum", "spectrum_min"): _min_translates,
    ("cover", "lift_cover"): _lifted,
    ("torus", "classify_torus"): _trace_bits,
    ("serialize", "load"): _bytes_in,
    ("serialize", "canonical_dumps"): _bytes_out,
}
