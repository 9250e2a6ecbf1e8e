"""fibercomm benchmark: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload normalize_compare --seed 1 --seconds 40 --trace 0

Imports the library from ``src/`` of the checkout this file sits in,
builds seeded passes of operations, and runs passes until the next one
would end after ``--seconds``.  Every operation is timed on its own and
then checked against an answer key that does not use the library; a
mismatch or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the pass-0 inputs and reports the
per-layer metrics: call counts and sizes of the first traced pass,
median self times over the traced passes, and the tracing overhead
(traced minus untraced pass time).  Spans and a summary are written to
``.perfbench/`` in the checkout.  The last line of standard output is
the result object; the line before it records work sizes and the
environment.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS, SETUP_SECONDS = 5, 1.0
try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None
MODULES = ("quadratic", "surfaces", "torus", "spectrum", "decomposition", "comparator", "cover",
           "staircase", "serialize", "cli")
# per-layer metrics read from one function's spans: <span name>.<field>
FUNCTION_METRICS = {
    "quadratic.squarefree_part": ("calls",),
    "quadratic.fundamental_unit": ("calls", "self_s"),
    "quadratic.unit_log_ratio": ("calls", "self_s"),
    "quadratic.unit_power_of": ("self_s",),
    "torus.classify_torus": ("calls", "self_s"),
    "torus.torus_commensurable": ("self_s",),
    "spectrum.spectrum_values": ("self_s",),
    "spectrum.spectrum_min": ("self_s",),
    "decomposition.validate": ("calls", "self_s"),
    "decomposition.a_piece": ("calls", "self_s"),
    "decomposition.power": ("self_s",),
    "comparator.InvariantReport.of": ("calls", "self_s"),
    "comparator.compare": ("self_s",),
    "comparator.match_flip_scale": ("self_s",),
    "cover.lift_cover": ("calls", "self_s", "failed"),
    "cover.normalize_unit_twists": ("self_s",),
    "cover.verify_cover_laws": ("self_s",),
    "staircase.refiber": ("calls", "self_s"),
    "cli.run_operation": ("calls",),
}
SIZE_METRICS = {
    "cover.lifted_curves": "count",
    "spectrum.values_returned": "count",
    "spectrum.translates": "count",
    "torus.max_trace_bits": "bits",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
}


def import_library():
    """Import fibercomm afresh from the checkout's src/ directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fibercomm" or n.startswith("fibercomm.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module("fibercomm." + m) for m in MODULES})
    if Path(lib.cli.__file__).resolve().parents[1] != SRC:
        raise ImportError("fibercomm was not imported from %s" % SRC)
    return lib


def run_pass(workload, ops, lib, stats, tracer=None):
    """Time and check every operation; returns the pass's op seconds.

    Consumes ``ops``: each operation is dropped once checked, so objects
    it kept alive (its input and whatever the library cached on it) do
    not pin memory under the operations that follow.
    """
    total = 0.0
    stats["work"]["ops"] += len(ops)
    ops.reverse()
    i = 0
    while ops:
        op = ops.pop()
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = workload.execute(op, lib)
            error = None
        except Exception as e:  # a raised op is a failed op, not a crashed run
            error = "%s: %s" % (type(e).__name__, e)
        dt = time.perf_counter() - t0
        total += dt
        stats["latencies"].append(dt)
        stats["attempted"] += 1
        if error is None:
            try:
                workload.check(op, out)
            except Exception as e:
                error = "%s: %s" % (type(e).__name__, e)
            del out
        if error is not None:
            stats["failed"] += 1
            if stats["failed"] <= 5:
                print("perfbench: %s op %d failed: %s" % (op.kind, i, error[:500]), file=sys.stderr)
        for k, v in op.work.items():
            stats["work"][k] = max(stats["work"][k], v) if k == "trace_bits" else stats["work"][k] + v
        del op
        _release_free_memory()
        i += 1
    return total


def _release_free_memory():
    """Return freed heap pages to the system between operations (glibc),
    so peak RSS is set by one operation, not by the heap high-water
    mark of all operations before it."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def quantile_ms(latencies, q):
    ordered = sorted(latencies)
    return 1000 * ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def environment():
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    try:
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "platform": platform.platform(),
    }


def run(name, seed, seconds, trace, out_dir):
    workload = WORKLOADS[name]
    workdir = os.path.join(out_dir, "docs")
    setup = []
    # at least SETUP_REPS set-ups, more while they add up to under a second;
    # the previous import is collected first, so the count of set-ups does
    # not show in peak memory
    while len(setup) < SETUP_REPS or (sum(setup) < SETUP_SECONDS and len(setup) < 4 * SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        lib = import_library()
        ops = workload.make_pass(seed, 0, workdir, lib)
        setup.append(time.perf_counter() - t0)

    stats = {"latencies": array("d"), "attempted": 0, "failed": 0, "work": Counter()}
    start = time.perf_counter()
    passes, traced, tables = [], [], []
    tracer = Tracer() if trace else None
    index = 0
    longest = 0.0
    while True:
        t_pass = time.perf_counter()
        if index > 0:
            # a traced run repeats the pass-0 inputs so that counts repeat
            ops = workload.make_pass(seed, 0 if trace else index, workdir, lib)
        gc.collect()
        if trace and index % 2 == 1:
            tracer.reset()
            tracer.install(lib)
            try:
                traced.append(run_pass(workload, ops, lib, stats, tracer))
            finally:
                tracer.uninstall()
            tables.append((tracer.table(), dict(tracer.sizes)))
            if len(tables) == 1:
                tracer.write(os.path.join(out_dir, "spans"))
        else:
            passes.append(run_pass(workload, ops, lib, stats))
        shutil.rmtree(workdir, ignore_errors=True)
        index += 1
        longest = max(longest, time.perf_counter() - t_pass)
        if time.perf_counter() - start + longest > seconds and (not trace or traced):
            break

    attempted, failed = stats["attempted"], stats["failed"]
    info = {
        "workload": name,
        "seed": seed,
        "passes": len(passes) + len(traced),
        "fail_rate": failed / attempted,
        "work": dict(stats["work"]),
        "environment": environment(),
    }
    if trace:
        metrics, shares = per_layer(tables, passes, traced)
        info["layer_self_share"] = shares
        info["per_function"] = tables[0][0]
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "batch_s": (statistics.median(passes), "s"),
            "op_p50_ms": (quantile_ms(stats["latencies"], 50), "ms"),
            "op_p90_ms": (quantile_ms(stats["latencies"], 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1, sort_keys=True)
    return info, result


def per_layer(tables, untraced, traced):
    """Per-layer metrics: counts and sizes of the first traced pass,
    self times as medians over the traced passes."""
    first, sizes = tables[0]

    def median_self(keep):
        return statistics.median(sum(r["self_s"] for span, r in t.items() if keep(span)) for t, _ in tables), "s"

    def is_parse(span):
        fn = span[len("serialize."):]
        return span.startswith("serialize.") and (fn == "load" or fn.endswith("_from_doc"))

    metrics = {}
    for span, fields in FUNCTION_METRICS.items():
        for f in fields:
            if f == "self_s":
                metrics[span + ".self_s"] = median_self(lambda s, span=span: s == span)
            else:
                metrics["%s.%s" % (span, f)] = (first.get(span, {}).get(f, 0), "count")
    for name, unit in SIZE_METRICS.items():
        metrics[name] = (sizes.get(name, 0), unit)
    lifts = first.get("cover.lift_cover", {"calls": 0, "failed": 0})
    ratio = (lifts["calls"] - lifts["failed"]) / lifts["calls"] if lifts["calls"] else 0.0
    metrics["cover.lift_ok_ratio"] = (ratio, "ratio")
    metrics["serialize.parse_s"] = median_self(is_parse)
    metrics["serialize.dump_s"] = median_self(lambda s: s.startswith("serialize.") and not is_parse(s))
    metrics["cli.command.self_s"] = median_self(lambda s: s.startswith("cli.command."))
    for layer in LAYERS:
        metrics[layer + ".self_s"] = median_self(lambda s, layer=layer: s.split(".")[0] == layer)
    metrics["trace.batch_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_batch_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (metrics["trace.batch_s"][0] - metrics["trace.untraced_batch_s"][0], "s")
    total = sum(metrics[layer + ".self_s"][0] for layer in LAYERS)
    shares = {layer: round(metrics[layer + ".self_s"][0] / total, 4) for layer in LAYERS}
    return metrics, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fibercomm" / "__init__.py").is_file():
        print("perfbench: no fibercomm sources under %s" % SRC, file=sys.stderr)
        return 2
    out_dir = str(ROOT / ".perfbench" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace, out_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(os.path.join(out_dir, "docs"), ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
