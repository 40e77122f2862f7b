"""Command-line front end.

One subcommand per pipeline stage; all output is deterministic.  Exit
codes: 0 success, 1 failed check or verification, 2 usage error, 3
malformed input file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .algebra import (
    AlgebraError,
    NEG_ONE_MINUS_TAU,
    NEG_TAU,
    char_poly,
    lambda_min_approx,
    lambda_min_at_least,
    parse_threshold,
)
from .censusio import (
    classification_manifest,
    enumeration_manifest,
    read_hoffman_census,
    read_text,
    write_hoffman_census,
    write_manifest,
    write_named_signed,
    write_signed_census,
)
from .decomp import split_by_special_components
from .enumeration import (
    MAX_ENUM_N,
    MAX_ORACLE_N,
    ClassificationError,
    brute_force_signed_keys,
    classify_irreducible,
    enumerate_signed,
    maximal_members,
    realize_hoffman,
    verify_extension_step,
    verify_three_vertex_diagonal_lemma,
)
from .iso import canonical_key
from .model import (
    MAX_MATRIX_ORDER,
    CatalogError,
    EdgeSignedGraph,
    HoffmanGraph,
    ParseError,
    catalog,
    is_connected_signed,
    parse_graph,
    to_json_obj,
    to_text,
)
from .spectral import b_matrix, signed_adjacency, special_graph

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3

def _read_graph(path: str):
    return parse_graph(read_text(path))


def _check_order(graph) -> None:
    """Refuse a graph whose matrix (B for a Hoffman graph, with one row per
    slim vertex) has more than MAX_MATRIX_ORDER rows, before any work that
    grows with it."""
    order = graph.slim_count if isinstance(graph, HoffmanGraph) else graph.vertex_count
    if order > MAX_MATRIX_ORDER:
        raise ParseError(f"matrix order {order} exceeds the limit {MAX_MATRIX_ORDER}")


def _read_hoffman(path: str, command: str) -> HoffmanGraph:
    g = _read_graph(path)
    if not isinstance(g, HoffmanGraph):
        raise ParseError(f"{command} expects a Hoffman graph")
    _check_order(g)
    return g


def _matrix_of(graph):
    _check_order(graph)
    if isinstance(graph, HoffmanGraph):
        return b_matrix(graph).entries, "B"
    return signed_adjacency(graph).entries, "M"


def _print_matrix(rows) -> None:
    width = max((len(str(x)) for row in rows for x in row), default=1)
    for row in rows:
        print(" ".join(str(x).rjust(width) for x in row))


def cmd_spectrum(args) -> int:
    g = _read_graph(args.graph)
    rows, kind = _matrix_of(g)
    poly = char_poly(rows)
    approx = lambda_min_approx(rows) if rows else None
    at_tau = lambda_min_at_least(rows, NEG_TAU)
    at_tau1 = lambda_min_at_least(rows, NEG_ONE_MINUS_TAU)
    if args.json:
        print(json.dumps({
            "graph": to_text(g),
            "matrix": [list(r) for r in rows],
            "matrix_kind": kind,
            "char_poly": list(poly.coeffs),
            "lambda_min": approx,
            "at_least_neg_tau": at_tau,
            "at_least_neg_one_minus_tau": at_tau1,
        }, sort_keys=True))
    else:
        print(f"graph: {to_text(g)}")
        print(f"{kind} matrix:")
        _print_matrix(rows)
        print(f"char poly: {poly}")
        if approx is not None:
            print(f"lambda_min ~ {approx:.9f}")
        print(f"lambda_min >= -tau: {'yes' if at_tau else 'no'}")
        print(f"lambda_min >= -1-tau: {'yes' if at_tau1 else 'no'}")
    return EXIT_OK


def cmd_check(args) -> int:
    g = _read_graph(args.graph)
    rows, _ = _matrix_of(g)
    ok = lambda_min_at_least(rows, args.threshold)
    print(f"lambda_min >= {args.threshold.name}: {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_special(args) -> int:
    g = _read_hoffman(args.graph, "special")
    s = special_graph(g)
    print(json.dumps(to_json_obj(s), sort_keys=True) if args.json else to_text(s))
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _read_hoffman(args.graph, "decompose")
    d = split_by_special_components(g)
    if d is None:
        print(json.dumps({"indecomposable": True}) if args.json else "indecomposable")
        return EXIT_OK
    if args.json:
        print(json.dumps({
            "indecomposable": False,
            "parts": [sorted(p) for p in d.parts],
            "part_graphs": [to_text(pg) for pg in d.part_graphs()],
        }, sort_keys=True))
    else:
        for part, pg in zip(d.parts, d.part_graphs()):
            print(f"part {sorted(part)}: {to_text(pg)}")
    return EXIT_OK


def _out_dir(text: str) -> Path:
    """The `--out` directory, created before any computation; one that
    cannot be created (say, under a regular file) is malformed input."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot create output directory {text}: "
                         f"{exc.strerror or exc}") from exc
    return out


def _forbidden_patterns(text: str) -> list:
    """The catalog graphs named in `--forbid`, a list split at the commas
    outside parentheses, so that `Q(p,q,r)` stays whole; each must be an
    edge-signed graph."""
    patterns = []
    for name in re.split(r",(?![^(]*\))", text) if text else ():
        g = catalog(name)
        if not isinstance(g, EdgeSignedGraph):
            raise ParseError(f"--forbid takes edge-signed graphs, not the "
                             f"Hoffman graph {name.strip()}")
        patterns.append(g)
    return patterns


def cmd_enumerate(args) -> int:
    forbidden = _forbidden_patterns(args.forbid)
    out = _out_dir(args.out)
    census = enumerate_signed(args.max_n, args.threshold, forbidden,
                              connected=args.connected)
    path = out / f"census-signed-n{args.max_n}.txt"
    write_signed_census(census, path)
    write_manifest(enumeration_manifest(census), out / "manifest.json")
    for n in sorted(census.by_n):
        print(f"n={n}: {len(census.by_n[n])} graphs")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_realize(args) -> int:
    g = _read_graph(args.graph)
    if not isinstance(g, EdgeSignedGraph):
        raise ParseError("realize expects an edge-signed graph")
    _check_order(g)
    if g.vertex_count < 3 or not is_connected_signed(g):
        raise ParseError("realization requires a connected graph on >= 3 vertices")
    reals = realize_hoffman(g)
    if args.json:
        print(json.dumps([to_json_obj(r) for r in reals], sort_keys=True))
    else:
        for r in reals:
            print(to_text(r))
        print(f"{len(reals)} realizations")
    return EXIT_OK


def cmd_classify(args) -> int:
    out = _out_dir(args.out)
    result = classify_irreducible()
    write_signed_census(result.signed_census, out / "census-signed-n7.txt")
    write_named_signed(result.exceptional, out / "census-15.txt")
    write_hoffman_census(result.irreducible, out / "census-37.txt")
    write_manifest(classification_manifest(result), out / "manifest.json")
    print(f"signed census: {sum(len(v) for v in result.signed_census.by_n.values())}"
          f" graphs up to n={result.signed_census.max_n}")
    print(f"exceptional census: {len(result.exceptional)};"
          f" unrealizable: {len(result.unrealizable)}")
    maxi = maximal_members(result.irreducible)
    print(f"irreducible census: {len(result.irreducible.members)};"
          f" maximal: {len(maxi.members)}")
    for d in result.discrepancies:
        print(f"discrepancy: {d}")
    print(f"wrote census files to {out}")
    return EXIT_OK


def cmd_maximal(args) -> int:
    census = read_hoffman_census(args.census)
    out = _out_dir(args.out)
    maxi = maximal_members(census)
    write_hoffman_census(maxi, out / "census-18.txt")
    print(f"maximal members: {len(maxi.members)}")
    for m in maxi.members:
        print(f"  {m.name}: {to_text(m.graph)}")
    print(f"wrote {out / 'census-18.txt'}")
    return EXIT_OK


def _verify_base_case(max_n: int) -> bool:
    t1 = catalog("T1")
    census = enumerate_signed(max_n, NEG_TAU, (t1,), connected=True)
    oracle = brute_force_signed_keys(max_n, NEG_TAU, (t1,), connected=True)
    for n in range(1, max_n + 1):
        got = tuple(m.key for m in census.members(n))
        if got != oracle[n]:
            print(f"base-case mismatch at n={n}: {len(got)} vs {len(oracle[n])}")
            return False
        print(f"base-case n={n}: {len(got)} graphs match brute force")
    return True


def _verify_lemma3x() -> bool:
    ok = verify_three_vertex_diagonal_lemma()
    print(f"three-vertex diagonal sweep: {'ok' if ok else 'FAILED'}")
    return ok


def _verify_extension(p: int, q: int, r: int) -> bool:
    ok = verify_extension_step(p, q, r)
    print(f"extension step ({p},{q},{r}): {'ok' if ok else 'FAILED'}")
    return ok


def cmd_verify(args) -> int:
    if args.what == "base-case":
        ok = _verify_base_case(args.max_n)
    elif args.what == "extension":
        if args.p is None or args.q is None or args.r is None:
            print("extension requires --p --q --r", file=sys.stderr)
            return EXIT_USAGE
        try:
            ok = _verify_extension(args.p, args.q, args.r)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif args.what == "lemma3x":
        ok = _verify_lemma3x()
    else:
        # bases with p+q+r >= 7, so that each step decides children
        ok = all([_verify_base_case(args.max_n), _verify_lemma3x(),
                  *(_verify_extension(*base) for base in ((0, 0, 7), (1, 1, 5), (2, 1, 4)))])
    return EXIT_OK if ok else EXIT_FAIL


def cmd_catalog(args) -> int:
    g = catalog(args.name)
    if args.json:
        print(json.dumps(to_json_obj(g), sort_keys=True))
    else:
        print(to_text(g))
        print(f"key: {canonical_key(g).hex()}")
    return EXIT_OK


def _threshold_arg(text: str):
    try:
        return parse_threshold(text)
    except AlgebraError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="golden-spectra",
        description="Exact-arithmetic census of fat Hoffman graphs and "
                    "edge-signed graphs at golden-ratio eigenvalue thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="matrix, char poly and threshold verdicts")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="exit 0 iff lambda_min >= threshold")
    p.add_argument("--threshold", required=True, type=_threshold_arg,
                   help="-tau, -1-tau, or an exact rational a/b")
    p.add_argument("graph")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("special", help="special graph of a Hoffman graph")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("decompose",
                       help="split along the components of the forced slim pairs")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("enumerate", help="level-wise signed census")
    p.add_argument("--max-n", type=int, required=True, dest="max_n",
                   choices=range(MAX_ENUM_N + 1))
    p.add_argument("--threshold", default="-tau", type=_threshold_arg)
    p.add_argument("--forbid", default="",
                   help="comma-separated catalog names of edge-signed graphs")
    p.add_argument("--connected", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default="census-out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("realize", help="all fat realizations of a signed graph")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("classify", help="full pipeline: census files + manifest")
    p.add_argument("--out", default="census-out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("maximal", help="maximal members of the irreducible census")
    p.add_argument("--census", default="census-out/census-37.txt")
    p.add_argument("--out", default="census-out")
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("verify", help="named verification runs")
    p.add_argument("what", choices=("base-case", "extension", "lemma3x", "all"))
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--max-n", type=int, default=5, dest="max_n",
                   choices=range(1, MAX_ORACLE_N + 1),
                   help="largest vertex count of the base-case check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="print a named graph")
    p.add_argument("name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)
    return parser


def _preprocess(argv: list) -> list:
    """Let `--threshold -tau` parse despite the leading dash."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--threshold" and i + 1 < len(argv):
            out.append(f"--threshold={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_preprocess(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (AlgebraError, ClassificationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
