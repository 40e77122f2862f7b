"""Canonical forms and isomorphism machinery.

Canonical keys are total byte encodings invariant under isomorphism:
sign-preserving bijections for edge-signed graphs, label-preserving
bijections (slim to slim, fat to fat) for Hoffman graphs.  Keys are found
by color refinement followed by a backtracking minimum-code search inside
the refinement cells; a uniform-tail shortcut collapses the search on
highly symmetric graphs such as all-(+) cliques.

Fat vertices never mix with slim ones; once a slim ordering is fixed the
fat side is canonicalized by sorting fat neighborhoods, which is complete
because fat vertices are pairwise non-adjacent.

The induced-subgraph search is one bit-set kernel (Ullmann's candidate
domains).  A host is prepared once into one int per vertex and pair
symbol, with bit d set when that vertex has that symbol to d, and one
int per vertex class; a pattern is prepared once into its vertex order
(most links to placed vertices, then degree, then lowest id).  The
candidates of a step are one AND of those ints over the placed vertices,
walked in increasing order, so the embeddings come in an order fixed by
the two graphs.  Callers that search one graph
many times prepare it once and call `prepared_embeddings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .model import EdgeSignedGraph, HoffmanGraph


@dataclass(frozen=True, order=True)
class CanonicalKey:
    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    @staticmethod
    def from_hex(text: str) -> "CanonicalKey":
        return CanonicalKey(bytes.fromhex(text))


GraphLike = Union[EdgeSignedGraph, HoffmanGraph]


def _signed_sym(s: EdgeSignedGraph) -> list:
    n = s.vertex_count
    sym = [[0] * n for _ in range(n)]
    for a, b in s.plus_edges:
        sym[a][b] = sym[b][a] = 1
    for a, b in s.minus_edges:
        sym[a][b] = sym[b][a] = 2
    return sym


def _hoffman_sym(g: HoffmanGraph) -> list:
    n = g.vertex_count
    sym = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        sym[a][b] = sym[b][a] = 1
    return sym


def _refine(n: int, sym, colors: list) -> list:
    """1-dimensional color refinement; cell order is derived from sorted
    signatures and is therefore isomorphism-invariant."""
    while True:
        sigs = []
        for v in range(n):
            row = sym[v]
            nb = sorted((row[u], colors[u]) for u in range(n) if row[u])
            sigs.append((colors[v], tuple(nb)))
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def _cells(colors: list) -> list:
    out: dict = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return [out[c] for c in sorted(out)]


def _min_order_code(sym_code, cells, leaf_extra=None, use_tail=True):
    """Lexicographically minimal flattened row code over all orders that
    respect the given cell sequence; `leaf_extra` breaks ties at leaves."""
    best: list = [None]

    def tail_uniform(placed, rest):
        if len(rest) < 3:
            return False
        s0 = sym_code[rest[0]][rest[1]]
        for i, ri in enumerate(rest):
            row = sym_code[ri]
            for j in range(i + 1, len(rest)):
                if row[rest[j]] != s0:
                    return False
        for u in placed:
            ru = sym_code[u]
            s1 = ru[rest[0]]
            for x in rest[1:]:
                if ru[x] != s1:
                    return False
        return True

    def finish(order, code):
        extra = leaf_extra(order) if leaf_extra else ()
        cand = (code, extra)
        if best[0] is None or cand < best[0]:
            best[0] = cand

    def rec(cells_left, placed, code):
        if not cells_left:
            finish(placed, code)
            return
        if use_tail:
            rest_flat = [v for cell in cells_left for v in cell]
            if tail_uniform(placed, rest_flat):
                order = list(placed)
                cd = list(code)
                for v in rest_flat:
                    cd.extend(sym_code[u][v] for u in order)
                    order.append(v)
                finish(order, tuple(cd))
                return
        cell = cells_left[0]
        for idx, v in enumerate(cell):
            row = tuple(sym_code[u][v] for u in placed)
            new_code = code + row
            b = best[0]
            if b is not None and new_code > b[0][: len(new_code)]:
                continue
            rest_cell = cell[:idx] + cell[idx + 1:]
            nxt = ([rest_cell] if rest_cell else []) + cells_left[1:]
            rec(nxt, placed + [v], new_code)

    rec(list(cells), [], ())
    return best[0]


def _key_signed(s: EdgeSignedGraph) -> CanonicalKey:
    n = s.vertex_count
    sym = _signed_sym(s)
    cells = _cells(_refine(n, sym, [0] * n))
    code, _ = _min_order_code(sym, cells)
    return CanonicalKey(b"s" + n.to_bytes(2, "big") + bytes(code))


def _key_hoffman(g: HoffmanGraph) -> CanonicalKey:
    ns, nf = g.slim_count, g.fat_count
    fat_masks = []
    for f in g.fat_vertices():
        fat_masks.append(frozenset(v for v in g.slim_vertices() if g.has_edge(v, f)))
    # slim-slim relation for refinement: adjacency plus shared-fat count
    adj = [[0] * ns for _ in range(ns)]
    ref = [[0] * ns for _ in range(ns)]
    slim_fats = [frozenset(f for f, mask in enumerate(fat_masks) if v in mask)
                 for v in range(ns)]
    for i in range(ns):
        for j in range(ns):
            if i == j:
                continue
            a = int(g.has_edge(i, j))
            shared = len(slim_fats[i] & slim_fats[j])
            adj[i][j] = a
            ref[i][j] = a | (shared << 1)
    init = [len(slim_fats[v]) for v in range(ns)]
    cells = _cells(_refine(ns, ref, init))

    def leaf_extra(order):
        pos = {v: i for i, v in enumerate(order)}
        return tuple(sorted(tuple(sorted(pos[v] for v in mask)) for mask in fat_masks))

    found = _min_order_code(adj, cells, leaf_extra=leaf_extra, use_tail=False)
    code, masks = found if found is not None else ((), ())
    blob = bytearray()
    blob += b"h" + ns.to_bytes(2, "big") + nf.to_bytes(2, "big")
    blob += bytes(code)
    for mask in masks:
        blob.append(0xFE)
        blob += bytes(mask)
    return CanonicalKey(bytes(blob))


def canonical_key(x: GraphLike) -> CanonicalKey:
    """Isomorphism-invariant total key; equal keys certify isomorphism."""
    if isinstance(x, EdgeSignedGraph):
        return _key_signed(x)
    if isinstance(x, HoffmanGraph):
        return _key_hoffman(x)
    raise TypeError(f"not a graph: {x!r}")


def is_isomorphic(x: GraphLike, y: GraphLike) -> bool:
    if isinstance(x, EdgeSignedGraph) and isinstance(y, EdgeSignedGraph):
        if x.vertex_count != y.vertex_count or len(x.plus_edges) != len(y.plus_edges) \
                or len(x.minus_edges) != len(y.minus_edges):
            return False
    elif isinstance(x, HoffmanGraph) and isinstance(y, HoffmanGraph):
        if (x.slim_count, x.fat_count, len(x.edges)) != (y.slim_count, y.fat_count, len(y.edges)):
            return False
    else:
        raise TypeError("cannot compare graphs of different kinds")
    return canonical_key(x) == canonical_key(y)


# ---------------------------------------------------------------------------
# induced-subgraph search


def _classed(x: GraphLike) -> tuple:
    if isinstance(x, EdgeSignedGraph):
        return _signed_sym(x), [0] * x.vertex_count
    if isinstance(x, HoffmanGraph):
        return _hoffman_sym(x), [0] * x.slim_count + [1] * x.fat_count
    raise TypeError(f"not a graph: {x!r}")


def prepare_host(host: GraphLike) -> tuple:
    """A graph laid out once as a host of the induced-subgraph search:
    its kind, rows[c][x] with bit d set when the pair symbol of c and d
    is x (d != c), and one bit set per vertex class (slim, fat)."""
    sym, cls = _classed(host)
    rows = []
    for c, row in enumerate(sym):
        bits = [0, 0, 0]
        for d, x in enumerate(row):
            if d != c:
                bits[x] |= 1 << d
        rows.append(tuple(bits))
    masks = tuple(sum(1 << c for c, k in enumerate(cls) if k == x) for x in (0, 1))
    return type(host), tuple(rows), masks


def prepare_pattern(pattern: GraphLike) -> tuple:
    """A graph laid out once as a pattern of the induced-subgraph search:
    its kind and its steps in search order.  The next vertex has
    the most links to the placed ones, then the highest degree, then the
    lowest id; each step holds its vertex, its class and its pair symbol
    to every placed vertex, zeros included."""
    sym, cls = _classed(pattern)
    m = len(sym)
    order: list = []
    for _ in range(m):
        order.append(max(
            (v for v in range(m) if v not in order),
            key=lambda v: (sum(1 for u in order if sym[v][u]),
                           sum(1 for x in sym[v] if x), -v)))
    steps = tuple((v, cls[v], tuple((u, sym[v][u]) for u in order[:i]))
                  for i, v in enumerate(order))
    return type(pattern), steps


def prepared_embeddings(host: tuple, pattern: tuple) -> Iterator[tuple]:
    """Every embedding of a prepared pattern into a prepared host as an
    induced subgraph, each once, as a tuple mapping pattern vertex id to
    host vertex id; the empty pattern has the one embedding `()`.

    The candidates of a step are the free host vertices of its class that
    carry the step's symbol to the image of every placed vertex: one AND
    of bit sets per placed vertex, and a branch ends as soon as the set is
    empty.  They are tried in increasing order, so the embeddings come in
    lexicographic order of the step images."""
    kind, rows, masks = host
    pkind, steps = pattern
    if kind is not pkind:
        raise TypeError("host and pattern must be graphs of the same kind")
    m = len(steps)
    mapping = [0] * m

    def rec(i: int, free: int) -> Iterator[tuple]:
        if i == m:
            yield tuple(mapping)
            return
        v, cls, placed = steps[i]
        cand = free & masks[cls]
        for u, x in placed:
            if not cand:
                return
            cand &= rows[mapping[u]][x]
        while cand:
            low = cand & -cand
            mapping[v] = low.bit_length() - 1
            yield from rec(i + 1, free ^ low)
            cand ^= low

    return rec(0, (1 << len(rows)) - 1)


def induced_embeddings(host: GraphLike, pattern: GraphLike) -> Iterator[tuple]:
    """Every embedding of `pattern` into `host` as an induced subgraph, each
    once, as a tuple mapping pattern vertex id to host vertex id.

    An embedding preserves vertex classes (slim/fat) and matches every pair
    symbol exactly, zero included; the empty pattern has the one embedding
    `()`.  A caller that searches one graph many times prepares it once
    and calls `prepared_embeddings`."""
    return prepared_embeddings(prepare_host(host), prepare_pattern(pattern))


def contains_induced(host: GraphLike, pattern: GraphLike) -> Optional[tuple]:
    """The first of `induced_embeddings(host, pattern)`, or None; the empty
    pattern embeds with the empty tuple, so test `is not None` rather than
    truthiness."""
    return next(induced_embeddings(host, pattern), None)


def is_induced_embedding(host: GraphLike, pattern: GraphLike, mapping) -> bool:
    """Check a claimed embedding: injective, class-preserving, symbol-exact."""
    if type(host) is not type(pattern):
        return False
    hsym, hcls = _classed(host)
    psym, pcls = _classed(pattern)
    m = list(mapping)
    if len(m) != len(psym) or len(set(m)) != len(m):
        return False
    if any(not (0 <= c < len(hsym)) for c in m):
        return False
    if any(pcls[v] != hcls[m[v]] for v in range(len(m))):
        return False
    return all(
        psym[v][u] == hsym[m[v]][m[u]]
        for v in range(len(m)) for u in range(v + 1, len(m))
    )
