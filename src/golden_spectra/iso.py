"""Canonical forms and isomorphism machinery.

Canonical keys are total byte encodings invariant under isomorphism:
sign-preserving bijections for edge-signed graphs, label-preserving
bijections (slim to slim, fat to fat) for Hoffman graphs.  Keys are found
by color refinement followed by one backtracking minimum-code search inside
the refinement cells, for both kinds (a single leaf when the refinement
is discrete, which fixes the order); automorphisms read off leaves of
equal value prune it, as in nauty and Traces (McKay & Piperno 2014), so
all-(+) cliques and Q graphs take a handful of leaves, and a forced
choice (a singleton cell, the last vertex of a split cell) is never a
branch point: it takes no frame of the search.  From uniform colours the
refinement's first round ranks each vertex's sorted nonzero symbols.
The search returns those automorphisms with the key
(`canonical_key_and_automorphisms`), and the census generator prunes its
children by them.  One closure, `orbit`,
gives the orbit of a vertex, a new row or a partition under them.

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

from operator import getitem
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .model import EdgeSignedGraph, HoffmanGraph


class CanonicalKey(NamedTuple):
    data: bytes

    def hex(self) -> str:
        return self.data.hex()


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
    signatures and is therefore isomorphism-invariant.  A signature is a
    flat int tuple: the vertex's colour, then the sorted codes
    x << shift | colour(u) of its links, which order the pairs
    (x, colour(u)) as tuples would, since every colour stays below
    2**shift.  From uniform colours the first round ranks each row's
    sorted nonzero symbols, which order as those signatures do, and the
    link codes are built only if a second round is needed.  Refinement
    stops once the colours are discrete or stable; colours that are
    already the ranks 0..n-1 are returned at once."""
    if sorted(colors) == list(range(n)):
        return colors
    if len(set(colors)) == 1:
        sigs = [tuple(sorted([x for x in row if x])) for row in sym]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [palette[sig] for sig in sigs]
        if len(palette) in (1, n):
            return colors
    shift = max([n, *colors]).bit_length()
    links = [[(x << shift, u) for u, x in enumerate(row) if x] for row in sym]
    while True:
        sigs = [(colors[v], *sorted([x | colors[u] for x, u in links[v]]))
                for v in range(n)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if len(palette) == n or new == colors:
            return new
        colors = new


def _cells(colors: list) -> list:
    out: dict = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return [out[c] for c in sorted(out)]


def orbit(x, generators, image: Callable) -> set:
    """The orbit of x under the group the generators generate, each
    generator g acting by `image(g, x)`: a vertex (`operator.getitem`), a
    new row or a partition of the vertices."""
    out, todo = {x}, [x]
    for y in todo:  # todo grows while it is walked
        for g in generators:
            z = image(g, y)
            if z not in out:
                out.add(z)
                todo.append(z)
    return out


def _min_order_code(sym_code, cells, leaf_extra=None) -> tuple:
    """The least leaf value `(code, leaf_extra(order))` over all orders that
    respect the cell sequence, and the automorphisms found on the way;
    code is the flattened row code, and `leaf_extra` (the Hoffman fat
    part) breaks ties.

    Children are tried in increasing row order, and the first whose row
    takes the code past the best code's prefix ends the node.  A forced
    choice, a singleton cell or the last vertex of a split cell, takes no
    frame: the frame of the choice before it appends its row, and a code
    that passes the best code's prefix there drops that choice.  A
    leaf of the best value gives an automorphism: the map from the best
    leaf's order onto its own keeps every pair symbol, cell and leaf
    extra.  One rule prunes by these: a child that an automorphism fixing
    every placed vertex maps from an earlier child is skipped, since it
    carries that child's searched subtree onto this one leaf by leaf with
    equal values, so the minimum stays exact.  The new automorphism is
    such a map at the first level where the two orders part, never a
    forced one, so the search returns there.  The stabiliser generators
    of a node are taken once, and again only after a child found a new
    automorphism.  Cells that are all singletons allow one order, a single
    leaf with no automorphism.  Each automorphism is a tuple g with g[v]
    the image of v."""
    best: list = [None, None]
    autos: list = []

    def rec(cells_left, placed, code) -> int:
        """Search below `placed`, the forced choices first; the depth at
        which the search goes on."""
        while cells_left and len(cells_left[0]) == 1:  # a forced choice: no node
            v = cells_left[0][0]
            code += tuple([sym_code[u][v] for u in placed])
            b = best[0]
            if b is not None and code > b[0][: len(code)]:
                return len(placed)
            placed = placed + [v]
            cells_left = cells_left[1:]
        depth = len(placed)
        if not cells_left:
            value = (code, leaf_extra(placed) if leaf_extra else ())
            if best[0] is None or value < best[0]:
                best[:] = value, placed
            elif value == best[0]:
                g = list(range(len(sym_code)))
                for a, b in zip(best[1], placed):
                    g[a] = b
                autos.append(tuple(g))
                return next(i for i, (a, b) in enumerate(zip(best[1], placed)) if a != b)
            return depth
        cell = cells_left[0]
        tried: list = []
        known = -1  # len(autos) when gens was last taken
        for row, v in sorted([(tuple([sym_code[u][v] for u in placed]), v) for v in cell]):
            new_code = code + row
            b = best[0]
            if b is not None and new_code > b[0][: len(new_code)]:
                break
            if known != len(autos):
                known = len(autos)
                gens = [g for g in autos if all(g[u] == u for u in placed)]
            if gens and not orbit(v, gens, getitem).isdisjoint(tried):
                continue
            tried.append(v)
            rest_cell = [u for u in cell if u != v]
            resume = rec(([rest_cell] if rest_cell else []) + cells_left[1:],
                         placed + [v], new_code)
            if resume < depth:
                return resume
        return depth

    rec(list(cells), [], ())
    return best[0], tuple(autos)


def _key_signed(s: EdgeSignedGraph) -> tuple:
    n = s.vertex_count
    sym = _signed_sym(s)
    cells = _cells(_refine(n, sym, [0] * n))
    (code, _), autos = _min_order_code(sym, cells)
    return CanonicalKey(b"s" + n.to_bytes(2, "big") + bytes(code)), autos


def _key_hoffman(g: HoffmanGraph) -> tuple:
    ns, nf = g.slim_count, g.fat_count
    fat_masks = [frozenset(v for v in g.slim_vertices() if g.has_edge(v, f))
                 for f in g.fat_vertices()]
    slim_fats = [frozenset(f for f, mask in enumerate(fat_masks) if v in mask)
                 for v in range(ns)]
    # slim-slim relation for refinement: adjacency plus shared-fat count
    adj = [row[:ns] for row in _hoffman_sym(g)[:ns]]
    ref = [[a | len(slim_fats[i] & slim_fats[j]) << 1 if i != j else 0
            for j, a in enumerate(row)] for i, row in enumerate(adj)]
    cells = _cells(_refine(ns, ref, [len(fats) for fats in slim_fats]))

    def leaf_extra(order):
        pos = {v: i for i, v in enumerate(order)}
        return tuple(sorted(tuple(sorted(pos[v] for v in mask)) for mask in fat_masks))

    (code, masks), autos = _min_order_code(adj, cells, leaf_extra)
    return (CanonicalKey(b"h" + ns.to_bytes(2, "big") + nf.to_bytes(2, "big") + bytes(code)
                         + b"".join(b"\xfe" + bytes(mask) for mask in masks)), autos)


def canonical_key_and_automorphisms(x: GraphLike) -> tuple:
    """`(canonical_key(x), generators)`: the key and the automorphisms its
    search found, each a tuple g with g[v] the image of vertex v; for a
    Hoffman graph they permute the slim vertices, and the fat ones follow
    their slim neighbourhoods.  Every generator keeps every pair symbol,
    so the group they generate lies in Aut(x); an empty tuple means none
    was found, as for any graph whose refinement is discrete."""
    if isinstance(x, EdgeSignedGraph):
        return _key_signed(x)
    if isinstance(x, HoffmanGraph):
        return _key_hoffman(x)
    raise TypeError(f"not a graph: {x!r}")


def canonical_key(x: GraphLike) -> CanonicalKey:
    """Isomorphism-invariant total key; equal keys certify isomorphism."""
    return canonical_key_and_automorphisms(x)[0]


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
