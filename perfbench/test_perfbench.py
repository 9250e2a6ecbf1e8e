"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Takes about a minute: every workload runs one untraced and one traced
pass twice.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent

# layers whose public functions a workload must never reach
NEVER_CALLED = {
    "normalize_compare": ("quadratic", "serialize"),
    "anosov_torus": ("decomposition", "cover", "serialize"),
    "cli_documents": (),
}


def test_corrupted_verdict_counts_as_failed(tmp_path, monkeypatch):
    w = workloads.WORKLOADS["anosov_torus"]
    make_pass, execute = w.make_pass, w.execute
    monkeypatch.setattr(
        w, "make_pass", lambda *a: [op for op in make_pass(*a) if op.kind == "commensurable"][:12]
    )
    corrupted = []

    def corrupt_first(op, lib):
        out = execute(op, lib)
        if not corrupted:
            corrupted.append(op)
            out = dataclasses.replace(out, kind="incommensurable", scale=None)
        return out

    monkeypatch.setattr(w, "execute", corrupt_first)
    info, result = run.run("anosov_torus", 1, 0, 0, str(tmp_path))
    assert result["attempted"] == 12
    assert result["failed"] == 1 and not result["correct"]
    assert info["fail_rate"] == pytest.approx(1 / 12)
    assert result["metrics"]["ok_rate"]["value"] == pytest.approx(11 / 12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_layer_mix(name, tmp_path):
    runs = [run.run(name, 7, 0, 1, str(tmp_path / str(i))) for i in range(2)]
    counts = [
        {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "bytes", "bits")}
        for _, result in runs
    ]
    assert counts[0] == counts[1]
    info, result = runs[0]
    assert result["correct"]
    assert result["metrics"]["trace.overhead_s"]["unit"] == "s"
    called_layers = {span.split(".")[0] for span in info["per_function"]}
    assert called_layers.isdisjoint(NEVER_CALLED[name])
    if name == "cli_documents":
        share = info["layer_self_share"]
        others = [v for layer, v in share.items() if layer not in ("serialize", "cli")]
        assert share["serialize"] == max(share.values())
        assert share["serialize"] + share["cli"] > max(others)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "anosov_torus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
