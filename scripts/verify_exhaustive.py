#!/usr/bin/env python3
"""Exhaustively re-derive one census level and compare with the
level-wise augmentation.

Sweeps all 3^C(n,2) labelled sign assignments with a vectorized
floating-point prescreen (numpy), confirms every survivor with the exact
semidefinite test of M + tau*I over Z[sqrt5] (`lambda_min_at_least`),
deduplicates by canonical key, and checks the result against
`enumerate_signed`.  Practical up to n = 6 (about 14.3 million
assignments, a few minutes); n = 7 is out of reach of the sweep and is
covered instead by the hereditary-completeness argument plus the
extension-step verifier.

Requires numpy (a test-only dependency).
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import combinations

import numpy as np

from golden_spectra.algebra import NEG_TAU, lambda_min_at_least
from golden_spectra.enumeration import enumerate_signed, is_q_graph
from golden_spectra.iso import canonical_key, contains_induced
from golden_spectra.model import catalog, is_connected_signed, signed

TAU = (1 + 5 ** 0.5) / 2


def exhaustive_level(n: int, chunk: int = 250_000) -> dict:
    pairs = list(combinations(range(n), 2))
    powers = 3 ** np.arange(len(pairs), dtype=np.int64)
    total = 3 ** len(pairs)
    vals = np.array([0.0, 1.0, -1.0])
    t1 = catalog("T1")
    survivors = []
    t0 = time.perf_counter()
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // powers) % 3
        signs = vals[digits]
        m = np.zeros((stop - start, n, n))
        for k, (a, b) in enumerate(pairs):
            m[:, a, b] = signs[:, k]
            m[:, b, a] = signs[:, k]
        bottom = np.linalg.eigvalsh(m)[:, 0]
        survivors.append(digits[bottom >= -TAU - 1e-6])
    digits = np.concatenate(survivors)
    print(f"prescreen kept {len(digits)} of {total} assignments "
          f"({time.perf_counter() - t0:.0f}s)")

    classes: dict = {}
    t0 = time.perf_counter()
    for row in digits:
        code = tuple(int(d) for d in row)
        plus = [p for p, s in zip(pairs, code) if s == 1]
        minus = [p for p, s in zip(pairs, code) if s == 2]
        s = signed(n, plus, minus)
        if not is_connected_signed(s):
            continue
        if contains_induced(s, t1) is not None:
            continue
        mat = [[0] * n for _ in range(n)]
        for (a, b), sym in zip(pairs, code):
            mat[a][b] = mat[b][a] = 1 if sym == 1 else (-1 if sym == 2 else 0)
        if not lambda_min_at_least(mat, NEG_TAU):
            continue
        classes.setdefault(canonical_key(s), s)
    print(f"exact confirmation kept {len(classes)} isomorphism classes "
          f"({time.perf_counter() - t0:.0f}s)")
    return classes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, choices=range(1, 7))
    args = parser.parse_args()

    classes = exhaustive_level(args.n)
    census = enumerate_signed(args.n, NEG_TAU, (catalog("T1"),), connected=True)
    augmented = {m.key for m in census.members(args.n)}
    if set(classes) != augmented:
        print("MISMATCH between exhaustive sweep and augmentation")
        return 1
    exceptional = sum(1 for g in classes.values() if is_q_graph(g) is None)
    print(f"n={args.n}: exhaustive sweep agrees with the augmentation "
          f"({len(classes)} members, {exceptional} beyond the Q family)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
