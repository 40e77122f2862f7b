"""Census files and manifests.

One graph per line, tab-separated: canonical key (hex), compact graph
form, the exact factor certifying the smallest eigenvalue, the isolating
rational interval, and a float approximation.  A JSON manifest records the
predicate parameters, derived counts, and any discrepancies against the
expected source counts.  Files are written deterministically so repeated
runs are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .enumeration import (
    ClassificationResult,
    HoffmanCensus,
    HoffmanCensusMember,
    LambdaDescriptor,
    SignedCensus,
    lambda_descriptor,
)
from .iso import canonical_key
from .model import MAX_MATRIX_ORDER, HoffmanGraph, ParseError, from_text, to_text
from .spectral import b_matrix

TOOL_NAME = "golden-spectra"
TOOL_VERSION = "0.1.0"


def _lam_fields(lam: LambdaDescriptor) -> list:
    lo, hi = lam.interval
    return [str(lam.factor), f"{lo}..{hi}", f"{lam.approx:.12f}",
            f"mult={lam.multiplicity}"]


def _write_lines(path, rows) -> None:
    """One line per (names, member) pair: the member's key, the names, its
    graph and its eigenvalue columns; an empty census is one newline."""
    lines = ["\t".join([m.key.hex(), *names, to_text(m.graph), *_lam_fields(m.lam)])
             for names, m in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_signed_census(census: SignedCensus, path) -> None:
    _write_lines(path, (((), m) for n in sorted(census.by_n) for m in census.by_n[n]))


def write_named_signed(members, path) -> None:
    """Named exceptional members: (name, SignedCensusMember) pairs."""
    _write_lines(path, (((name,), m) for name, m in members))


def write_hoffman_census(census: HoffmanCensus, path) -> None:
    _write_lines(path, (((m.name, m.special_name), m) for m in census.members))


def read_text(path) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or
    decoded is malformed input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_hoffman_census(path) -> HoffmanCensus:
    """Reparse a census file; every graph must be a Hoffman graph with 1 to
    MAX_MATRIX_ORDER slim vertices (the order of its B matrix) and is
    revalidated, and its canonical key and eigenvalue descriptor are
    recomputed and checked against the stored columns.  No member may
    repeat."""
    members = []
    seen: set = set()
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 8:
            raise ParseError(f"census line {lineno}: expected 8 tab-separated fields")
        key_hex, name, special, text = fields[:4]
        graph = from_text(text)
        if not isinstance(graph, HoffmanGraph):
            raise ParseError(f"census line {lineno}: expected a Hoffman graph")
        if not 1 <= graph.slim_count <= MAX_MATRIX_ORDER:
            raise ParseError(f"census line {lineno}: a member needs 1 to "
                             f"{MAX_MATRIX_ORDER} slim vertices, got {graph.slim_count}")
        key = canonical_key(graph)
        if key.hex() != key_hex:
            raise ParseError(
                f"census line {lineno}: stored key does not match the graph")
        if key in seen:
            raise ParseError(f"census line {lineno}: repeated member")
        seen.add(key)
        lam = lambda_descriptor(b_matrix(graph).entries)
        if fields[4:] != _lam_fields(lam):
            raise ParseError(
                f"census line {lineno}: stored eigenvalue columns do not match the graph")
        members.append(HoffmanCensusMember(name, graph, key, special, lam))
    return HoffmanCensus(tuple(members))


def enumeration_manifest(census: SignedCensus) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "threshold": census.threshold_name,
        "forbidden": list(census.forbidden),
        "connected": census.connected,
        "max_n": census.max_n,
        "counts_per_n": {str(n): len(census.by_n[n]) for n in sorted(census.by_n)},
    }


def classification_manifest(result: ClassificationResult) -> dict:
    manifest = enumeration_manifest(result.signed_census)
    manifest["census_counts_per_n"] = manifest.pop("counts_per_n")
    manifest.update({
        "exceptional_realizable": [name for name, _ in result.exceptional],
        "exceptional_unrealizable": [to_text(m.graph) for m in result.unrealizable],
        "reducible_realizations": [to_text(g) for g, _, _ in result.reducible],
        "irreducible_count": len(result.irreducible.members),
        "discrepancies": list(result.discrepancies),
    })
    return manifest


def write_manifest(manifest: dict, path) -> None:
    payload = json.dumps(manifest, indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")
