"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import layer_metrics  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def _traced_counts(seed: int) -> dict:
    proc = _run(HERE.parent, "--workload", "wide", "--seed", str(seed),
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(1), _traced_counts(2)
    assert first == second
    # Calls reach the wrappers through the importing modules' own bindings.
    assert first["algebra.char_poly.calls"] > 0
    assert first["iso.canonical_key.calls"] > 0
    assert first["iso.contains_induced.calls"] == 0


def test_self_time_excludes_direct_children():
    spans = [["a.f", 0.0, 10.0, -1, 0], ["b.g", 1.0, 4.0, 0, 0],
             ["b.g", 5.0, 6.0, 0, 0], ["c.h", 2.0, 3.0, 1, 0]]
    m = layer_metrics(spans)
    assert m["a.f.self_s"] == 6.0
    assert m["b.g.self_s"] == 3.0
    assert m["b.g.calls"] == 2
    assert m["b.g.max_call_s"] == 3.0


def test_fails_without_the_engine(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
