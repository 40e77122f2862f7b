"""Decompositions of Hoffman graphs and membership witnesses.

A decomposition is a family of induced Hoffman subgraphs covering the
graph, with pairwise disjoint slim parts, fat neighbors pulled into their
slim vertices' parts, and the cross-part compatibility rule: slim vertices
in different parts share at most one fat vertex, exactly one iff they are
adjacent.  A slim pair is forced when its shared fat count differs from
its adjacency (0 or 1): no decomposition separates it.  Every slim set
partition that keeps the forced pairs inside its blocks satisfies the
rule, so the decompositions of a graph are exactly the set partitions of
the components of its forced pairs (`partitions_joining`), each block
with its fat neighbors.  `validate_decomposition` checks all four rules
independently.

The module builds the constructive reducibility witnesses (one fat vertex
per edge for slim graphs, a shared fat vertex over the clique of a Q
shape) and searches for reducibility certificates.  It also finds and
verifies H-line witnesses: a target shown induced in a container that
decomposes into whole members of a fixed family.  The search runs over
the family closed under induced Hoffman subgraphs and lifts each part it
finds into the member it was cut from.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, takewhile
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .algebra import (
    NEG_ONE_MINUS_TAU,
    char_poly,
    compare_smallest_roots,
    lambda_min_at_least,
)
from .iso import canonical_key, contains_induced, is_induced_embedding
from .model import (
    HoffmanGraph,
    InvalidGraphError,
    adjacency,
    components,
    fat_neighbors,
    hoffman,
    induced_hoffman_subgraph,
    is_fat,
    q_shape,
    require_valid,
    validate_hoffman,
)
from .spectral import b_matrix, special_graph


class DecompositionError(ValueError):
    """Inputs violate a stated precondition."""


class InternalCheckError(RuntimeError):
    """A consequence the theory guarantees failed to hold; loud on purpose."""


class Decomposition(NamedTuple):
    """Candidate decomposition: parent plus vertex-id sets for the parts."""

    parent: HoffmanGraph
    parts: tuple

    def part_graphs(self) -> list:
        return [induced_hoffman_subgraph(self.parent, part) for part in self.parts]


def validate_decomposition(d: Decomposition) -> Union[str, None]:
    """None if the four decomposition rules hold, else the first violation."""
    g = d.parent
    msg = validate_hoffman(g)
    if msg is not None:
        return f"parent invalid: {msg}"
    if not d.parts:
        return "no parts"
    all_vertices = set(range(g.vertex_count))
    seen = set()
    for i, part in enumerate(d.parts):
        if not part:
            return f"part {i} is empty"
        if not set(part) <= all_vertices:
            return f"part {i} contains unknown vertex ids"
        try:
            induced_hoffman_subgraph(g, part)
        except InvalidGraphError as exc:
            return f"part {i} does not induce a valid Hoffman graph: {exc}"
        seen |= set(part)
    if seen != all_vertices:
        missing = min(all_vertices - seen)
        return f"vertex {missing} not covered by any part"
    slim_of = {}
    for i, part in enumerate(d.parts):
        for v in part:
            if g.is_slim(v):
                if v in slim_of:
                    return f"slim vertex {v} in parts {slim_of[v]} and {i}"
                slim_of[v] = i
    nbr = adjacency(g)
    for i, part in enumerate(d.parts):
        pset = set(part)
        for v in part:
            if g.is_slim(v):
                for f in nbr[v]:
                    if not g.is_slim(f) and f not in pset:
                        return (f"fat vertex {f} adjacent to slim {v} "
                                f"is missing from part {i}")
    slims = [v for v in g.slim_vertices() if v in slim_of]
    for a_idx in range(len(slims)):
        for b_idx in range(a_idx + 1, len(slims)):
            x, y = slims[a_idx], slims[b_idx]
            if slim_of[x] == slim_of[y]:
                continue
            shared = len(fat_neighbors(g, x) & fat_neighbors(g, y))
            if shared > 1:
                return f"cross-part slim pair ({x},{y}) shares {shared} fat vertices"
            if (shared == 1) != g.has_edge(x, y):
                return (f"cross-part slim pair ({x},{y}): shared fat count {shared} "
                        f"inconsistent with adjacency {g.has_edge(x, y)}")
    return None


def split_by_special_components(g: HoffmanGraph) -> Optional[Decomposition]:
    """Split into the components of the forced slim pairs, each with its fat
    neighbors; None when they are connected (the graph is indecomposable).

    When no slim pair shares two fat vertices the forced pairs are the
    edges of the special graph, so the parts are its components."""
    require_valid(g)
    if g.slim_count == 0:
        return None
    fats = [fat_neighbors(g, v) for v in g.slim_vertices()]
    comp = components(g.slim_count, _forced_pairs(g, fats))
    if len(comp) <= 1:
        return None
    d = Decomposition(g, tuple(_parts(comp, fats)))
    msg = validate_decomposition(d)
    if msg is not None:
        raise InternalCheckError(
            f"component split of a valid graph failed validation: {msg}")
    return d


def _forced_pairs(g: HoffmanGraph, fats: Sequence) -> list:
    """The slim pairs no decomposition of g separates: those whose shared
    fat count differs from their adjacency."""
    return [(x, y) for x, y in combinations(range(g.slim_count), 2)
            if len(fats[x] & fats[y]) != g.has_edge(x, y)]


def _parts(blocks: Iterable, fats: Sequence) -> list:
    """Each slim block with the fat neighbors of its vertices."""
    return [frozenset(block).union(*(fats[v] for v in block)) for block in blocks]


def lambda_min_of_sum_check(d: Decomposition) -> bool:
    """Exact equality of the parent's smallest eigenvalue with the minimum
    over the parts, via Sturm bisection plus a shared-factor certificate."""
    msg = validate_decomposition(d)
    if msg is not None:
        raise DecompositionError(msg)
    if d.parent.slim_count == 0:
        return True
    parent_poly = char_poly(b_matrix(d.parent).entries)
    part_polys = [char_poly(b_matrix(pg).entries)
                  for pg in d.part_graphs() if pg.slim_count]
    if not part_polys:
        return False
    min_poly = part_polys[0]
    for p in part_polys[1:]:
        if compare_smallest_roots(p, min_poly) < 0:
            min_poly = p
    return compare_smallest_roots(parent_poly, min_poly) == 0


# ---------------------------------------------------------------------------
# constructive reducibility witnesses


def reduce_by_degree(g_slim: HoffmanGraph) -> tuple:
    """Attach one fat vertex per edge; parts are the closed fat stars of
    the slim vertices, each a one-slim star of the vertex's degree."""
    require_valid(g_slim)
    if g_slim.fat_count != 0:
        raise DecompositionError("input must be a slim (fat-free) graph")
    if g_slim.slim_count < 2:
        raise DecompositionError("need at least two vertices")
    container = _with_fats(g_slim, sorted(g_slim.edges))
    d = Decomposition(container, tuple(frozenset({v}) | fat_neighbors(container, v)
                                       for v in container.slim_vertices()))
    msg = validate_decomposition(d)
    if msg is not None:
        raise InternalCheckError(f"degree reduction failed validation: {msg}")
    return container, d


def _with_fats(g: HoffmanGraph, subsets: Sequence) -> HoffmanGraph:
    """g with one added fat vertex on each slim subset, numbered after g's
    vertices in the order of the subsets."""
    edges = list(g.edges)
    for i, sub in enumerate(subsets):
        edges += [(v, g.vertex_count + i) for v in sub]
    return hoffman(g.slim_count, g.fat_count + len(subsets), edges)


def reduce_q_realization(g: HoffmanGraph, partition: Sequence) -> tuple:
    """Add a shared fat vertex over the clique block of the special graph.

    `partition` gives the slim blocks (plus-pendants, minus-pendants,
    clique) of a Q shape of the special graph, as `q_shape` reads it off
    the clique block; an ambiguous graph accepts each of its readings.
    The result is a container with one extra fat vertex joined to the
    clique block and a decomposition with one part per clique vertex;
    parts are two-slim graphs at the threshold or one-slim double stars.
    """
    require_valid(g)
    vp, vq, vr = (tuple(int(v) for v in block) for block in partition)
    slims = set(g.slim_vertices())
    if sorted((*vp, *vq, *vr)) != sorted(slims):
        raise DecompositionError("partition must cover the slim vertices exactly")
    if not all(len(fat_neighbors(g, v)) == 1 for v in slims):
        raise DecompositionError("every slim vertex must have exactly one fat neighbor")
    # vp, vq and vr split the slim vertices, so the (+)-pendants fix vq too
    shape = q_shape(special_graph(g), vr)
    if shape is None or sorted(vp) != [v for v, _ in shape.plus_pendants]:
        raise DecompositionError("partition is not a Q shape of the special graph")
    pendant = {c: [v] for v, c in shape.plus_pendants + shape.minus_pendants}
    container = _with_fats(g, [vr])
    cfat = [fat_neighbors(container, v) for v in container.slim_vertices()]
    blocks = [[c, *pendant.get(c, [])] for c in vr]
    d = Decomposition(container, tuple(_parts(blocks, cfat)))
    msg = validate_decomposition(d)
    if msg is not None:
        raise InternalCheckError(f"Q realization split failed validation: {msg}")
    for pg in d.part_graphs():
        if not lambda_min_at_least(b_matrix(pg).entries, NEG_ONE_MINUS_TAU):
            raise InternalCheckError("Q realization produced a part below threshold")
    return container, d


def _biclique_partitions(edges: list, left: frozenset, right: frozenset,
                         capacity: dict):
    """Exact partitions of a crossing edge set into bicliques A x B.

    Every edge is oriented (left, right); A lies in `left`, B in `right`.
    Each biclique becomes one added fat vertex; a crossing pair may be
    covered by exactly one biclique (slim pairs across parts may share at
    most one fat vertex).  `capacity` bounds how many bicliques may touch
    each vertex: a slim vertex whose part fat-degree exceeds two drags the
    part below the -1-tau bound, so covers violating it cannot witness.

    Each node covers the least uncovered pair (x, y) and lists only the
    bicliques that fit: A holds x and other uncovered partners of y, B
    holds y and other uncovered common partners of A.  A branch ends when
    an uncovered pair touches a vertex of capacity 0, and a vertex of
    capacity 1 puts all its uncovered pairs into the biclique (if cap[y]
    is 1, A is every uncovered partner of y; if cap[x] is 1, B is every
    uncovered partner of x).  Each rule drops only branches with no
    cover, and the sets come in order of size, then lexicographically, so
    the covers come in the order of listing every A and B."""

    def rec(uncovered: frozenset, cap: dict):
        if not uncovered:
            yield []
            return
        if any(cap[u] < 1 or cap[v] < 1 for u, v in uncovered):
            return
        x, y = min(uncovered)
        # x leads the partners of y and y those of x
        xs = sorted(u for u, v in uncovered if v == y)
        ys = sorted(v for u, v in uncovered if u == x)
        for aset in _with_first(xs, cap[y] == 1):
            common = [v for v in ys if all((u, v) in uncovered for u in aset)]
            if cap[x] == 1 and len(common) < len(ys):
                continue
            for bset in _with_first(common, cap[x] == 1):
                ncap = dict(cap)
                for v in aset + bset:
                    ncap[v] -= 1
                pairs = frozenset((u, v) for u in aset for v in bset)
                for rest in rec(uncovered - pairs, ncap):
                    yield [(aset, bset)] + rest

    yield from rec(frozenset(edges), dict(capacity))


def _with_first(cands: list, whole: bool):
    """The subsets of cands that hold cands[0], in order of size and then
    lexicographically; only cands itself when `whole`."""
    if whole:
        return (tuple(cands),)
    return ((cands[0],) + rest for size in range(len(cands))
            for rest in combinations(cands[1:], size))


def find_reducibility_witness(g: HoffmanGraph) -> Optional[tuple]:
    """Search for a reducibility certificate at the -1-tau bound: a
    container (g plus added fat vertices) admitting a two-part
    decomposition with both parts at or above -1-tau.

    Every pair relation is read off B(g), computed once: B_xy is the
    adjacency of x and y less their shared fat count, and B_xx = -|fats
    of x|.  Added fat vertices only raise shared fat counts, so a slim
    pair with B_xy < 0 (it shares two fat vertices, or one without being
    adjacent) stays forced in every container; the two parts are unions
    of the components of these pairs, the one of vertex 0 on the left.  A
    container that only adds fat vertices is then characterized exactly
    by such a bipartition plus an exact biclique cover of the crossing
    pairs with B_xy = 1, adjacent without a common fat (each new fat
    vertex covers one biclique of them; covering a pair twice would break
    the cross-part rule).  Each part is decided on its principal
    submatrix of the container's B: a fat vertex added on A x B subtracts
    1 1^T on A u B, so the container's block on the left is B(g)[left]
    minus 1_A 1_A^T for each biclique, diagonal included, and on the
    right B(g)[right] minus 1_B 1_B^T.  Only the first cover whose two
    blocks pass (left decided first) becomes a container.  The cover
    gives each slim vertex at most two fat neighbours in all, so room for
    2 + B_xx added ones: a part keeps every fat neighbour of its slim
    vertices, so a slim vertex with three of them gives its part's B the
    1x1 principal submatrix -3 < -1-tau, and by interlacing that part
    lies below the bound.  The search is
    complete over such containers; added slim vertices are never used by
    the constructions this certifies.  Returns (container, decomposition)
    or None."""
    require_valid(g)
    ns = g.slim_count
    if ns < 2:
        return None
    b = b_matrix(g).entries
    comp = components(ns, [(x, y) for x, y in combinations(range(ns), 2) if b[x][y] < 0])
    # smallest left sides first, ties in lexicographic order
    lefts = sorted((sorted(comp[0] + [v for block in chosen for v in block])
                    for size in range(len(comp) - 1)
                    for chosen in combinations(comp[1:], size)),
                   key=lambda left: (len(left), left))
    capacity = {v: 2 + b[v][v] for v in range(ns)}
    for left in lefts:
        right = sorted(frozenset(range(ns)).difference(left))
        need = [(x, y) for x in left for y in right if b[x][y] == 1]
        for cover in _biclique_partitions(need, frozenset(left), frozenset(right),
                                          capacity):
            if all(lambda_min_at_least(
                    [[b[x][y] - sum(x in c and y in c for c in cliques) for y in block]
                     for x in block], NEG_ONE_MINUS_TAU)
                   for block, cliques in ((left, [a for a, _ in cover]),
                                          (right, [c for _, c in cover]))):
                container = _with_fats(g, [aset + bset for aset, bset in cover])
                cfat = [fat_neighbors(container, v) for v in range(ns)]
                d = Decomposition(container, tuple(_parts((left, right), cfat)))
                msg = validate_decomposition(d)
                if msg is not None:
                    raise InternalCheckError(
                        f"reducibility witness failed validation: {msg}")
                return container, d
    return None


# ---------------------------------------------------------------------------
# family-membership witnesses


class HLineWitness(NamedTuple):
    """Target shown induced in a container decomposing into family parts."""

    target: HoffmanGraph
    container: HoffmanGraph
    embedding: tuple
    decomposition: Decomposition
    family_assignment: tuple  # the CanonicalKey of each part


def verify_hline_witness(w: HLineWitness, family: Iterable) -> bool:
    """Re-check a witness from scratch against a family of canonical keys."""
    family_keys = set(family)
    if w.decomposition.parent != w.container:
        return False
    if not is_induced_embedding(w.container, w.target, w.embedding):
        return False
    if validate_decomposition(w.decomposition) is not None:
        return False
    if len(w.family_assignment) != len(w.decomposition.parts):
        return False
    for part_graph, claimed in zip(w.decomposition.part_graphs(), w.family_assignment):
        key = canonical_key(part_graph)
        if key != claimed or key not in family_keys:
            return False
    return True


MAX_WITNESS_SLIM = 8
WITNESS_FAT_BUDGET = 3


@lru_cache(maxsize=16)
def _closure(members: frozenset) -> tuple:
    """The member keys, and the family closed under induced Hoffman
    subgraphs: the key of each member's subgraph on a nonempty slim subset
    with all its fat neighbors -> (member, cut), first found in member key
    and subset order.  Read-only: every caller shares one result."""
    closure: dict = {}
    for F in sorted(members, key=canonical_key):
        for size in range(1, F.slim_count + 1):
            for slims in combinations(range(F.slim_count), size):
                cut = frozenset(slims).union(*(fat_neighbors(F, v) for v in slims))
                closure.setdefault(canonical_key(induced_hoffman_subgraph(F, cut)),
                                   (F, cut))
    return frozenset(canonical_key(F) for F in members), closure


def _lift(g: HoffmanGraph, d: Decomposition, cuts: list) -> HLineWitness:
    """Grow each part of d into the whole member it was cut from.

    Each part is matched onto its cut and the member's other vertices are
    added; a slim vertex is joined to a slim vertex of another part
    exactly when the two share a fat vertex, which holds already for the
    container's own pairs.  Added slim vertices are numbered after the
    container's slim vertices and added fat vertices after its fat
    vertices, so the target keeps its ids up to that shift."""
    c = d.parent
    # a vertex is a container id, or (part index, member id) when added
    labels, member_edges = [], []
    for i, (part, (F, cut)) in enumerate(zip(d.parts, cuts)):
        pv = sorted(part, key=lambda v: (not c.is_slim(v), v))
        fv = sorted(cut, key=lambda v: (not F.is_slim(v), v))
        iso = contains_induced(induced_hoffman_subgraph(F, cut),
                               induced_hoffman_subgraph(c, part))
        label = {v: (i, v) for v in range(F.vertex_count)}
        label.update((fv[iso[j]], u) for j, u in enumerate(pv))
        labels.append(label)
        member_edges += [(label[a], label[b]) for a, b in F.edges]

    def slim(x) -> bool:
        return c.is_slim(x) if isinstance(x, int) else cuts[x[0]][0].is_slim(x[1])

    added = [x for label in labels for x in label.values() if not isinstance(x, int)]
    order = sorted([*range(c.vertex_count), *added],
                   key=lambda x: (not slim(x), not isinstance(x, int)))
    ids = {x: i for i, x in enumerate(order)}
    part_of = {x: i for i, label in enumerate(labels) for x in label.values() if slim(x)}
    # member edges put the slim end first
    fat_of = {x: {b for a, b in member_edges if a == x and not slim(b)} for x in part_of}
    edges = member_edges + [(a, b) for a, b in combinations(part_of, 2)
                            if part_of[a] != part_of[b] and fat_of[a] & fat_of[b]]
    lifted = hoffman(len(part_of), len(order) - len(part_of),
                     [(ids[a], ids[b]) for a, b in edges])
    split = Decomposition(lifted, tuple(frozenset(ids[x] for x in label.values())
                                        for label in labels))
    return HLineWitness(g, lifted, tuple(ids[v] for v in range(g.vertex_count)), split,
                        tuple(canonical_key(pg) for pg in split.part_graphs()))


def find_hline_witness(g: HoffmanGraph, family: Sequence) -> Optional[HLineWitness]:
    """A witness that g is induced in a container decomposing into whole
    family members, or None within WITNESS_FAT_BUDGET added fat vertices.

    One search over the family closed under induced Hoffman subgraphs:
    k = 0..WITNESS_FAT_BUDGET added fat vertices, each on a nonempty slim
    subset, then every decomposition of the container, in lexicographic
    order of its slim set partition: the partitions that keep each of the
    container's forced pairs in one block (`partitions_joining`).  Parts
    are keyed one by one up to the first outside the closure, none when a
    block outgrows every member.  The first decomposition with every part
    in the closure is lifted by `_lift` and returned if the lift verifies
    (two slim vertices may come to share two fat vertices).  k = 0 with
    one part finds a g induced in a member.  Targets with more than
    MAX_WITNESS_SLIM slim vertices raise."""
    require_valid(g)
    if not is_fat(g):
        raise DecompositionError("witness search requires a fat graph")
    if not lambda_min_at_least(b_matrix(g).entries, NEG_ONE_MINUS_TAU):
        raise DecompositionError("witness search requires the eigenvalue bound")
    ns = g.slim_count
    if ns > MAX_WITNESS_SLIM:
        raise DecompositionError(
            f"witness search is limited to {MAX_WITNESS_SLIM} slim vertices")
    family_keys, closure = _closure(frozenset(family))
    largest = max((F.slim_count for F in family), default=0)
    for container, cfat in _containers(g, WITNESS_FAT_BUDGET):
        for blocks in partitions_joining(ns, _forced_pairs(container, cfat)):
            if max(map(len, blocks)) > largest:
                continue
            d = Decomposition(container, tuple(_parts(blocks, cfat)))
            cuts = list(takewhile(lambda cut: cut is not None, (
                closure.get(canonical_key(induced_hoffman_subgraph(container, part)))
                for part in d.parts)))
            if len(cuts) < len(blocks):
                continue
            w = _lift(g, d, cuts)
            if verify_hline_witness(w, family_keys):
                return w
    return None


def _containers(g: HoffmanGraph, budget: int):
    """The containers of the witness search in order, each validated once:
    g with k = 0..budget added fat vertices, each on a nonempty slim
    subset, and the fat neighbor set of each slim vertex."""
    ns = g.slim_count
    subsets = [c for size in range(1, ns + 1) for c in combinations(range(ns), size)]
    for k in range(budget + 1):
        for chosen in combinations_with_replacement(subsets, k):
            container = _with_fats(g, chosen)
            if validate_hoffman(container) is None:
                yield container, [fat_neighbors(container, v) for v in range(ns)]


def set_partitions(n: int):
    """All set partitions of range(n) in a deterministic order."""
    return _partitions_apart(n, [frozenset()] * n)


def _partitions_apart(n: int, clash: Sequence):
    """The set partitions of range(n) in which no element v shares a block
    with an element of clash[v] below it: v joins each earlier block in
    turn, then a new one, so they come in `set_partitions` order."""
    blocks: list = []

    def rec(v):
        if v == n:
            yield [list(b) for b in blocks]
            return
        for block in blocks:
            if clash[v].isdisjoint(block):
                block.append(v)
                yield from rec(v + 1)
                block.pop()
        blocks.append([v])
        yield from rec(v + 1)
        blocks.pop()

    return rec(0)


def partitions_joining(n: int, together: Iterable, apart: Iterable = ()):
    """The set partitions of range(n) that keep each `together` pair inside
    one block and each `apart` pair in two, in `set_partitions` order: the
    set partitions of the together pairs' components in which no two
    components joined by an apart pair share a block, none if an apart
    pair lies in one component.  The search never puts such components
    together, so it lists no partition that breaks the rule.  Two such
    partitions first differ at the least vertex of a component, so the
    order on components is the order on vertices."""
    comp = components(n, together)
    where = {v: c for c, block in enumerate(comp) for v in block}
    clash = [set() for _ in comp]
    for a, b in apart:
        lo, hi = sorted((where[a], where[b]))
        clash[hi].add(lo)
    if any(c in earlier for c, earlier in enumerate(clash)):
        return
    for blocks in _partitions_apart(len(comp), clash):
        yield [sorted(v for c in block for v in comp[c]) for block in blocks]
