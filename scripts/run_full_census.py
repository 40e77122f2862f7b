#!/usr/bin/env python3
"""Run the whole derivation and print a human-readable report.

Equivalent to `golden-spectra classify` + `golden-spectra maximal`, with
the eigenvalue table and the maximal members spelled out.  Pass an output
directory to also write the census files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from golden_spectra import (
    classify_irreducible,
    lambda_min_table_check,
    maximal_members,
    to_text,
)
from golden_spectra.censusio import (
    classification_manifest,
    write_hoffman_census,
    write_manifest,
    write_named_signed,
    write_signed_census,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="directory for census files")
    args = parser.parse_args()

    t0 = time.perf_counter()
    result = classify_irreducible()
    census = result.signed_census
    print(f"signed census to n={census.max_n} "
          f"(threshold {census.threshold_name}, forbidden {list(census.forbidden)}):")
    for n in sorted(census.by_n):
        print(f"  n={n}: {len(census.by_n[n])} graphs")
    print()
    print(f"exceptional graphs with fat realizations ({len(result.exceptional)}):")
    for name, m in result.exceptional:
        print(f"  {name:6s} {to_text(m.graph):50s} lambda ~ {m.lam.approx:.6f}")
    if result.unrealizable:
        print("exceptional graphs without any fat realization:")
        for m in result.unrealizable:
            print(f"         {to_text(m.graph):50s} lambda ~ {m.lam.approx:.6f}")
    print()
    counts = lambda_min_table_check([m for _, m in result.exceptional])
    print(f"eigenvalue classes over the realizable census: {counts}")
    print()
    print(f"fat irreducible census ({len(result.irreducible.members)} members):")
    for m in result.irreducible.members:
        print(f"  {m.name:10s} special={m.special_name:9s} "
              f"{to_text(m.graph):70s} lambda ~ {m.lam.approx:.6f}")
    maxi = maximal_members(result.irreducible)
    print()
    print(f"maximal members ({len(maxi.members)}):")
    for m in maxi.members:
        print(f"  {m.name:10s} {to_text(m.graph)}")
    if result.discrepancies:
        print()
        print("deviations from the expected counts:")
        for d in result.discrepancies:
            print(f"  - {d}")
    print()
    print(f"total time: {time.perf_counter() - t0:.1f}s")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_signed_census(census, out / "census-signed-n7.txt")
        write_named_signed(result.exceptional, out / "census-15.txt")
        write_hoffman_census(result.irreducible, out / "census-37.txt")
        write_hoffman_census(maxi, out / "census-18.txt")
        write_manifest(classification_manifest(result), out / "manifest.json")
        print(f"census files written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
