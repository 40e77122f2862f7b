"""Benchmark of the golden-spectra derivation, end to end and per engine layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  `--workload` is one of census, extension,
verify and wide (see README.md for why each exists), or `all`, which
interleaves the samples of all four in seeded order.  Every sample runs in
its own fresh interpreter, one at a time (sample.py says why).  Samples
repeat until the next one would end past `--seconds`; there is always at
least one.

With `--trace 0` the end-to-end metrics named in BENCHMARK.json are the
medians over the samples.  With `--trace 1`, traced and untraced samples
alternate, and the per-layer metrics are taken from the traced ones.
The last line of standard output is one JSON object; the lines before it
repeat the metrics for people, with sample counts and the error rate.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("census", "extension", "verify", "wide")
RUN_LIMIT_S = 170.0       # per workload; a run must end within 180 s
SETUP_READINGS = 9        # set-up times wanted per workload and run
PROBE_SHARE = 0.1         # share of --seconds that set-up probes may use


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def code_digest() -> str:
    """The engine's and the benchmark's code: outputs are compared only
    between samples that ran the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one sample (or set-up probe) in a fresh interpreter."""
    cwd = WORK / workload
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONHASHSEED": str(seed % 2 ** 32)}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), workload, str(seed), mode],
            cwd=cwd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} sample did not end within the run limit")
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise BenchError(f"{workload} sample exited with {proc.returncode}:\n{proc.stderr}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} sample printed no result:\n{proc.stderr}")
    result["elapsed"] = elapsed
    if mode == "traced":
        result["layers"] = layer_metrics(json.loads((cwd / "spans.json").read_text()))
    shutil.rmtree(cwd)
    return result


def layer_metrics(spans: list) -> dict:
    """Counts and self times per traced function, from one sample's spans.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap (the engine is
    single-threaded)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    m: dict = defaultdict(float)
    members = candidates = keys_in_enum = exact_in_enum = 0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        own = dur - covered[i]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += own
        m[f"{name}.max_call_s"] = max(m[f"{name}.max_call_s"], dur)
        in_enum = parent >= 0 and spans[parent][0] == "enumeration.enumerate_signed"
        if name == "algebra.char_poly":
            m[f"{name}.n{extra}.calls"] += 1
            exact_in_enum += in_enum
        elif name == "iso.canonical_key":
            m[f"{name}.n{extra}.calls"] += 1
            m[f"{name}.n{extra}.self_s"] += own
            keys_in_enum += in_enum
        elif name == "iso.contains_induced":
            m[f"{name}.hits"] += extra
        elif name == "decomp.find_reducibility_witness":
            m[f"{name}.witnesses"] += extra
        elif name == "enumeration.enumerate_signed":
            members += extra[0]
            candidates += extra[1]
        elif name.startswith("censusio.write_"):
            m["censusio.write.self_s"] += own
            m["censusio.bytes_written"] += extra
    m["enumeration.keys_per_class"] = keys_in_enum / members if members else 0.0
    m["enumeration.exact_per_candidate"] = exact_in_enum / candidates if candidates else 0.0
    return m


def run_samples(workloads: list, seed: int, seconds: float, trace: bool,
                deadline: float) -> dict:
    """Samples of every workload, interleaved in seeded order, until each
    workload's next sample would end past `seconds`."""
    rng = random.Random(seed)
    done = {w: [] for w in workloads}
    active = list(workloads)
    while active:
        rng.shuffle(active)
        for w in list(active):
            runs = done[w]
            mode = "traced" if trace and len(runs) % 2 == 0 else "timed"
            runs.append(spawn(w, seed, mode, deadline))
            used = sum(r["elapsed"] for r in runs)
            typical = statistics.median(r["elapsed"] for r in runs)
            if len(runs) >= (2 if trace else 1) and used + typical > seconds:
                active.remove(w)
    if not trace:
        for w, runs in done.items():
            setup = statistics.median(r["setup_s"] for r in runs)
            probes = min(SETUP_READINGS - len(runs), int(PROBE_SHARE * seconds / setup))
            for _ in range(max(0, probes)):
                runs.append(spawn(w, seed, "probe", deadline))
    return done


def summarize(workload: str, runs: list, trace: bool, spec: dict,
              known_digest) -> tuple:
    """(metrics, attempted, failed, outputs consistent, lines for people)."""
    timed = [r for r in runs if "digest" in r and "layers" not in r]
    traced = [r for r in runs if "layers" in r]
    checked = timed + traced
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    digests = {r["digest"] for r in checked}
    if known_digest is not None:
        digests.add(known_digest)
    lines = [f"workload {workload}: {len(timed)} timed, {len(traced)} traced samples, "
             f"{len(runs) - len(checked)} set-up probes"]
    values: dict = {}
    if trace:
        walls = statistics.median(r["wall_s"] for r in timed)
        names = set().union(*(r["layers"] for r in traced))
        for name in names:
            values[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - walls
        wanted = spec["per_layer"]
        top = sorted(((v, k) for k, v in values.items()
                      if k.endswith(".self_s") and k.count(".") == 2), reverse=True)
        lines.append("  largest self times: " + ", ".join(
            f"{k} {v:.3f} s" for v, k in top[:5]))
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in timed)
        values["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        count = len(traced) if trace else (len(runs) if m["name"] == "setup_s" else len(timed))
        lines.append(f"  {m['name']:<48} {value:>14.6g} {m['unit']:<6} "
                     f"median of {count}")
    lines.append(f"  {'error_rate':<48} {failed / attempted:>14.6g} share  "
                 f"{failed} of {attempted} operations failed")
    if len(digests) > 1:
        lines.append("  outputs differ between samples of the same source")
    return metrics, attempted, failed, len(digests) == 1, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    try:
        if not (ROOT / "src" / "golden_spectra" / "__init__.py").is_file():
            raise BenchError("no engine source under src/golden_spectra")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not compileall.compile_dir(ROOT / "src", quiet=2):
            raise BenchError("the engine source does not compile")
        WORK.mkdir(exist_ok=True)
        store_path = WORK / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.is_file() else {}
        known = store.setdefault(code_digest(), {})
        done = run_samples(workloads, args.seed, args.seconds, bool(args.trace), deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}, "
          f"python {sys.version.split()[0]}")
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        metrics, attempted, failed, same, lines = summarize(
            w, done[w], bool(args.trace), spec, known.get(w))
        print("\n".join(lines))
        out["attempted"] += attempted
        out["failed"] += failed
        out["correct"] = out["correct"] and same and failed == 0
        prefix = f"{w}." if args.workload == "all" else ""
        out["metrics"].update({prefix + k: v for k, v in metrics.items()})
        if same and failed == 0:
            known.setdefault(w, next(r["digest"] for r in done[w] if "digest" in r))
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
