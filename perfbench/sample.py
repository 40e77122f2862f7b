"""One sample of one workload, in a fresh interpreter.

    python3 perfbench/sample.py WORKLOAD SEED MODE

`run.py` starts this with the sample's own empty directory as the working
directory.  It imports the engine from `src/`, does the workload's warm-up,
runs the timed region, then checks every operation's output against the
pinned expectation.  The last line of standard output is one JSON object
with the timings, the operation counts and a digest of every output byte.
MODE is `timed`, `traced` (spans of the timed region go to spans.json) or
`probe` (set up, report the set-up time and stop).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# Derived counts at this engine version; the source paper's 15/37/18 differ.
CENSUS_LEVELS = {"1": 1, "2": 2, "3": 4, "4": 12, "5": 13, "6": 13, "7": 10}
WIDE_LEVELS = {"1": 1, "2": 2, "3": 7, "4": 34, "5": 235}
VERIFY_LINES = 9


def _lines(path: str) -> int:
    return sum(1 for line in Path(path).read_text(encoding="utf-8").splitlines()
               if line.strip())


def _manifest() -> dict:
    return json.loads(Path("out/manifest.json").read_text(encoding="utf-8"))


def _cli(*argv):
    from golden_spectra import cli
    return lambda: cli.main(list(argv))


def _check_classify(rc) -> bool:
    m = _manifest()
    return (rc == 0 and m["census_counts_per_n"] == CENSUS_LEVELS
            and len(m["exceptional_realizable"]) == 15
            and len(m["exceptional_unrealizable"]) == 2
            and m["irreducible_count"] == 39
            and _lines("out/census-15.txt") == 15
            and _lines("out/census-37.txt") == 39)


def _check_verify(rc, text: str) -> bool:
    lines = text.splitlines()
    passed = [ln for ln in lines
              if ln.endswith(": ok") or ln.endswith("graphs match brute force")]
    return rc == 0 and len(lines) == VERIFY_LINES == len(passed)


def _extension_bases(rng: random.Random) -> list:
    """Every Q(p,q,r) base with p+q <= r and p+q+r <= 8, in seeded order."""
    bases = [(p, q, r) for r in range(9) for p in range(r + 1)
             for q in range(r + 1 - p) if p + q + r <= 8]
    rng.shuffle(bases)
    return bases


# A workload returns its operations: (call, check(result, stdout)) pairs.
#
# Each sample gets its own interpreter, and no process runs two workloads,
# because the engine keeps process-global state that changes its code path:
# `enumerate_signed` screens candidates with the exact verdict tables only
# when an earlier call in the same process built them
# (`_tau_tables_if_built`).  Enumerating n = 7 took 4.9 s cold and 2.2 s
# once the tables existed.


def census(rng):
    """classify, then maximal on the census it wrote."""
    return [
        (_cli("classify", "--out", "out"), lambda rc, out: _check_classify(rc)),
        (_cli("maximal", "--census", "out/census-37.txt", "--out", "out"),
         lambda rc, out: rc == 0 and _lines("out/census-18.txt") == 20),
    ]


def extension(rng):
    from golden_spectra import enumeration
    # Looked up at call time, so that a traced sample calls the wrapper.
    return [((lambda b=b: enumeration.verify_extension_step(*b)),
             lambda ok, out: ok is True)
            for b in _extension_bases(rng)]


def extension_warmup():
    """The smallest base builds the exact verdict tables."""
    from golden_spectra import enumeration
    enumeration.verify_extension_step(0, 0, 1)


def verify(rng):
    return [(_cli("verify", "all"), _check_verify)]


def wide(rng):
    return [(_cli("enumerate", "--max-n", "5", "--threshold", "-2", "--out", "out"),
             lambda rc, out: rc == 0 and _manifest()["counts_per_n"] == WIDE_LEVELS
             and _lines("out/census-signed-n5.txt") == sum(WIDE_LEVELS.values()))]


WORKLOADS = {"census": census, "extension": extension, "verify": verify, "wide": wide}
WARMUPS = {"extension": extension_warmup}
# The extension sweep is short next to its 20 s warm-up, so one process
# sweeps three times and reports the median sweep.  Repeating is the same
# work: the warm-up already built every table the sweep reads.
REPEATS = {"extension": 3}


def _digest(results: list, per_repeat: int, stdout: str) -> str:
    """Every output byte: files under out/, captured stdout, and the
    operations' return values, in an order that does not depend on the seed.
    Repeats that return the same values hash like a single one."""
    h = hashlib.sha256()
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            h.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(stdout.encode())
    repeats = {tuple(sorted(map(repr, results[i:i + per_repeat])))
               for i in range(0, len(results), per_repeat)}
    h.update(repr(sorted(repeats)).encode())
    return h.hexdigest()


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    # The engine is single-threaded.  One fixed CPU, the highest-numbered one
    # this process may use, keeps a sample off the CPU that usually takes the
    # interrupts (CPU 0) and stops it from migrating mid-sample.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ops = WORKLOADS[workload](random.Random(seed))
    if workload in WARMUPS:
        with contextlib.redirect_stdout(io.StringIO()):
            WARMUPS[workload]()
    # CPU time since the process started: interpreter start-up, imports and
    # warm-up.  Its wall time varied by a third between runs on a shared
    # machine, its CPU time by a few percent.
    setup_s = time.process_time()
    if mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    results, walls, cpus = [], [], []
    with contextlib.redirect_stdout(captured):
        for _ in range(1 if tracer else REPEATS.get(workload, 1)):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            for call, _ in ops:
                try:
                    results.append(call())
                except Exception as exc:  # a raising operation counts as failed
                    results.append(exc)
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stdout = captured.getvalue()
    digest = _digest(results, len(ops), stdout)
    failed = 0
    for (_, check), result in zip(ops * len(walls), results):
        try:
            ok = not isinstance(result, Exception) and check(result, stdout)
        except (OSError, ValueError, KeyError):  # missing or malformed output
            ok = False
        failed += not ok
    if tracer is not None:
        tracer.write("spans.json")
    print(json.dumps({
        "setup_s": setup_s, "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb, "attempted": len(results), "failed": failed,
        "digest": digest,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
