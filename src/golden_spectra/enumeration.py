"""Orderly generation and the full classification pipeline.

Level-wise augmentation enumerates connected edge-signed graphs up to
isomorphism under three hereditary filters: an exact smallest-eigenvalue
bound, forbidden induced patterns, and connectivity.  One row search
(`_grow`) makes every one-vertex extension, of signed and of fat Hoffman
graphs alike: it grows the new row of the matrix, entry by entry, on the
parent's exact semidefinite elimination at the cutoff (over Z[sqrt5]),
one pass per position for all allowed entries on that elimination's
linear table, and drops a prefix as soon as the principal submatrix on
its vertices and the new one lies below the cutoff, which is sound by
eigenvalue interlacing.  The callers give only the elimination, which
holds its table, the opening diagonal and the allowed entries.
One accept step (`_accepted`) turns a complete row into a child, of
signed and of fat Hoffman graphs alike: it skips a row in the orbit of
an accepted one under the automorphisms that the parent's key search
found, copies the parent's elimination, closes it by the row and marks
the orbit.  Every filter is invariant under isomorphism, so the rows of
one orbit give isomorphic children, and the first child of each class is
never a skipped one (the lemma there, with the action on a fat choice's
slim neighbourhoods).
The signed generator (`_children`), for each level of the census (the
first grown from the empty graph) and for the Q extension verifier,
compiles the forbidden patterns once into constraints on the new row:
the parent is pattern-free, so a pattern in a child runs through the new
vertex, and an entry that completes one is not allowed; each constraint
is one itemgetter compare on the prefix.  Complete rows are checked for
connectivity.  For the census it also skips, unkeyed, a child with a
one-vertex deletion whose degree code only earlier members of the level
have (`_earlier_deletion`; the lemma in `enumerate_signed`): such a
child repeats a class that an earlier parent gave, so it needs no key
(B. D. McKay, Isomorph-free exhaustive generation, 1998).
The fat-class generator (`fat_classes`) supplies one row search per fat
choice and builds each accepted child.
Every extension pays for its own row only.  The elimination that accepts
a child's row is the child's elimination, signed or fat, and the child
keeps it with its parent's table, which a search of the child grows by
one row; a census member's characteristic polynomial is one Berkowitz
border step from its parent's.  Only the empty graph and a Q base are
eliminated from scratch.
A second route checks the census for n <= 8: the same generator with no
automorphisms, run from every labelled survivor, which keys every
labelled survivor and prunes no orbit.  For a connected census it grows
breadth-first orderings only, which every connected graph has (the
lemma in `labelled_signed_graphs`), so it keys no disconnected graph.
Tier-1 checks the unpruned generator against a loop over every new row
with a whole-graph pattern search.
On top of them sit the one-vertex extension verifier for the Q family,
the two-slim slice of the fat classes, realization of Hoffman graphs
from their special graphs, the irreducible census and its maximal
members, and the three-vertex diagonal sweep.  The source's classification
is one table, `SOURCE_CLASSIFICATION`, the one source of every expected
count.  Characteristic polynomials and Sturm chains appear only where an
eigenvalue is described (`_polynomial_descriptor`, computed once per
polynomial, on a census member's carried polynomial or through
`lambda_descriptor`); the eigenvalue class of an exceptional graph is
read off its descriptor.

Everything is deterministic: children are generated in lexicographic
sign-vector order and all outputs are sorted by canonical key.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, compress, product
from math import prod
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .algebra import (
    DESCRIPTOR_WIDTH,
    NEG_ONE_MINUS_TAU,
    NEG_TAU,
    Elimination,
    IntPolynomial,
    Threshold,
    _isolate_squarefree,
    berkowitz_step,
    char_poly,
    eliminate,
    lambda_min_at_least,
    lambda_min_equals,
    squarefree_decomposition,
)
from .decomp import find_reducibility_witness, partitions_joining
from .iso import (
    CanonicalKey,
    canonical_key,
    canonical_key_and_automorphisms,
    contains_induced,
    orbit,
    prepare_host,
    prepare_pattern,
    prepared_embeddings,
)
from .model import (
    EdgeSignedGraph,
    HoffmanGraph,
    adjacency,
    catalog,
    components,
    fat_neighbors,
    hoffman,
    induced_signed_subgraph,
    is_connected_signed,
    make_q,
    recognize_q,
    signed,
    to_text,
)
from .spectral import b_matrix, signed_adjacency, special_graph


class ClassificationError(RuntimeError):
    """The derived data contradicts the expected classification counts."""


MAX_ENUM_N = 12


# ---------------------------------------------------------------------------
# exact smallest-eigenvalue descriptors


class LambdaDescriptor(NamedTuple):
    """Certificate for a smallest eigenvalue: a squarefree integer factor
    having it as a root, its multiplicity in the characteristic polynomial,
    a rational interval isolating it, a float for display, and the name of
    the known factor whose smallest root it is, or None."""

    factor: IntPolynomial
    multiplicity: int
    interval: tuple
    approx: float
    known: Optional[str]


# irreducible factors by name; the name of a smallest eigenvalue's class
_KNOWN_FACTORS = {
    "tau": IntPolynomial((-1, 1, 1)),         # roots -tau, tau-1
    "1+tau": IntPolynomial((1, 3, 1)),        # roots -1-tau, tau-2
    "sqrt2": IntPolynomial((-2, 0, 1)),       # roots +-sqrt2
    "sqrt17": IntPolynomial((-4, -1, 1)),     # roots (1+-sqrt17)/2
    "cubic": IntPolynomial((7, -3, -3, 1)),   # 1 + roots of x^3-6x+2
}


def lambda_descriptor(matrix) -> LambdaDescriptor:
    """The descriptor of the smallest eigenvalue of a symmetric integer
    matrix, a function of its characteristic polynomial alone, so it is
    computed once per polynomial (`_polynomial_descriptor`)."""
    return _polynomial_descriptor(char_poly(matrix))


@cache
def _polynomial_descriptor(p: IntPolynomial) -> LambdaDescriptor:
    """The descriptor of the smallest root of a characteristic polynomial.
    The interval isolates it: no other root of p lies in it, none below it
    and none at its ends.  A divisor of p's squarefree part has only simple
    roots, so it has the eigenvalue as a root exactly when its signs at the
    two ends differ; a known factor that divides the eigenvalue's
    squarefree factor and passes that test has the eigenvalue as its
    smallest root.  p is monic, so the product of its decomposition's
    factors is its squarefree part, and the root is isolated on that.
    Memoized: p is immutable and the descriptor, frozen, depends on
    nothing else."""
    parts = squarefree_decomposition(p)
    lo, hi = _isolate_squarefree(prod((f for f, _ in parts), start=IntPolynomial.one()),
                                 DESCRIPTOR_WIDTH)

    def has_root(f: IntPolynomial) -> bool:
        return f.sign_at(lo) != f.sign_at(hi)

    factor, mult = next((f, m) for f, m in parts if has_root(f))
    known = next((name for name, k in _KNOWN_FACTORS.items()
                  if has_root(k) and factor.try_div(k) is not None), None)
    if known is not None:
        factor = _KNOWN_FACTORS[known]
    return LambdaDescriptor(factor, mult, (lo, hi), float(lo + (hi - lo) / 2), known)


# ---------------------------------------------------------------------------
# signed census container


class SignedCensusMember(NamedTuple):
    graph: EdgeSignedGraph
    key: CanonicalKey
    lam: LambdaDescriptor


class SignedCensus(NamedTuple):
    max_n: int
    threshold_name: str
    forbidden: tuple  # compact text forms
    connected: bool
    by_n: dict

    def members(self, n: int) -> tuple:
        return self.by_n.get(n, ())


def _extend(parent: EdgeSignedGraph, row: tuple) -> EdgeSignedGraph:
    n = parent.vertex_count
    plus = {(i, n) for i, a in enumerate(row) if a == 1}
    minus = {(i, n) for i, a in enumerate(row) if a == -1}
    return EdgeSignedGraph(n + 1, parent.plus_edges | plus, parent.minus_edges | minus)


def _signed_patterns(forbidden: Sequence) -> tuple:
    patterns = tuple(forbidden)
    for pat in patterns:
        if not isinstance(pat, EdgeSignedGraph):
            raise TypeError(f"forbidden patterns must be edge-signed graphs, got {pat!r}")
    return patterns


def _pattern_cuts(forbidden: tuple) -> Optional[tuple]:
    """Each forbidden pattern P less one vertex a, prepared once as a
    pattern, with a's signs to the other vertices in order; None if some
    pattern has at most one vertex.  Built once per generator call."""
    cuts = []
    for pat in forbidden:
        k = pat.vertex_count
        if k <= 1:
            return None
        for a in range(k):
            others = [u for u in range(k) if u != a]
            cuts.append((prepare_pattern(induced_signed_subgraph(pat, others)),
                         [pat.sign(a, u) for u in others]))
    return tuple(cuts)


def _forbidden_rows(parent: EdgeSignedGraph, cuts: Optional[tuple]) -> Optional[dict]:
    """The forbidden patterns, given by their `_pattern_cuts`, as
    constraints on the new row of a child of `parent`, which must be free
    of every pattern; None if every child contains one.

    An embedding of a pattern P into the child that the parent lacks sends
    some pattern vertex a to the new vertex and the others to an induced
    copy e of P - a in the parent, so the child contains it exactly when
    row[e(u)] == P.sign(a, u) for every other pattern vertex u, zero
    included.  Each constraint is keyed by the last position it fixes and
    holds its value there and its earlier (position, value) pairs, and the
    constraints of one position are compiled once (`_compiled`).  A
    pattern with at most one vertex lies in every child: the empty one in
    any graph, a single vertex at the new vertex.  The parent is prepared
    once as a host for all the cuts."""
    if cuts is None:
        return None
    rows: dict = {}
    host = prepare_host(parent) if cuts else None
    for pattern, signs in cuts:
        for e in prepared_embeddings(host, pattern):
            *earlier, (j, value) = sorted(zip(e, signs))
            rows.setdefault(j, set()).add((value, tuple(earlier)))
    return {j: _compiled(constraints) for j, constraints in rows.items()}


def _compiled(constraints: set) -> tuple:
    """The constraints of one position as (always, checks): the values a
    constraint with no earlier position blocks on every prefix, and for
    each other constraint on a value not in always, the value, an
    `itemgetter` of its earlier positions and what it must read there to
    block it (the one value of a single position, else their tuple)."""
    always = frozenset(value for value, earlier in constraints if not earlier)
    checks = []
    for value, earlier in sorted(constraints):
        if earlier and value not in always:
            positions, wanted = zip(*earlier)
            checks.append((value, itemgetter(*positions),
                           wanted if len(wanted) > 1 else wanted[0]))
    return always, tuple(checks)


def _breadth_first(rows: dict, after: tuple) -> dict:
    """The compiled constraints `rows` with the breadth-first rule folded
    in as always-blocked values, given (p, sign): the least earlier
    neighbour p of the parent's last vertex and the sign joining them.  The
    new vertex may join no vertex before p, and it may not join p by a
    (+)-edge if the last vertex joined it by a (-)-edge."""
    p, sign = after
    for j in range(p + 1 if sign == -1 else p):
        always, checks = rows.get(j, (frozenset(), ()))
        rows[j] = (always.union((1,) if j == p else (1, -1)), checks)
    return rows


def _allowed(rows: Optional[dict], row: tuple) -> tuple:
    """The entries 0, 1, -1, in that order, less those that complete a
    forbidden pattern when appended to row: one compare per compiled
    constraint of the position."""
    compiled = rows.get(len(row)) if rows else None
    if compiled is None:
        return (0, 1, -1)
    always, checks = compiled
    blocked = always.union([a for a, read, wanted in checks if read(row) == wanted])
    return tuple(a for a in (0, 1, -1) if a not in blocked)


def _moved_row(g: tuple, row: tuple) -> tuple:
    """The image r' of a new row r under the parent automorphism g:
    r'[g[i]] = r[i]."""
    image = [0] * len(row)
    for i, a in enumerate(row):
        image[g[i]] = a
    return tuple(image)


def _moved_fat_row(g: tuple, element: tuple) -> tuple:
    """The image of a fat candidate (new row of B, the sorted slim
    neighbourhoods of its fat choice) under the parent automorphism g:
    the row by `_moved_row`, each neighbourhood N onto g(N)."""
    row, named = element
    return _moved_row(g, row), tuple(sorted(tuple(sorted(g[v] for v in nbhd))
                                            for nbhd in named))


# what an entry 0, 1, -1 of a row adds to a vertex's degree number,
# (plus-degree) * MAX_ENUM_N + (minus-degree): no degree reaches MAX_ENUM_N
_DEGREE_STEP = (0, MAX_ENUM_N, 1)


def _degree_code(matrix: tuple) -> tuple:
    """The degree code of a signed adjacency matrix: the sorted degree
    numbers of its vertices, an isomorphism invariant."""
    return tuple(sorted(sum(_DEGREE_STEP[a] for a in row) for row in matrix))


def _earlier_deletion(matrix: tuple, last: dict, index: int,
                      connected: bool) -> Callable[[tuple], bool]:
    """The test, on a new row, whether the child of a level member by it
    has a one-vertex deletion, of a vertex other than the new one,
    certainly isomorphic to an earlier member of the level
    (`enumerate_signed`).  `matrix` is the
    member's, `index` its place in the level, and `last` maps each degree
    code to the last place in the level that has it.  With `connected`
    only a connected deletion counts: the new vertex must meet every
    component of the member less the deleted vertex.

    Per member, each vertex v comes with its neighbours' degree losses
    and the components of the member less v; per row, the degree numbers
    of the child less v are one pass over the row for each v."""
    n = len(matrix)
    degrees = [sum(_DEGREE_STEP[a] for a in r) for r in matrix]
    edges = [(a, b) for a, b in combinations(range(n), 2) if matrix[a][b]]
    bits = [1 << u for u in range(n)]
    deletions = []
    for v in range(n):
        parts = components(n, [e for e in edges if v not in e]) if connected else ()
        deletions.append((v, [_DEGREE_STEP[r[v]] for r in matrix],
                          [sum(bits[u] for u in part) for part in parts if part != [v]]))

    def earlier(row: tuple) -> bool:
        steps = list(map(_DEGREE_STEP.__getitem__, row))
        bumped = list(map(add, degrees, steps))
        new = sum(steps)
        support = sum(compress(bits, row))
        for v, lost, parts in deletions:
            if all(support & part for part in parts):
                code = list(map(sub, bumped, lost))
                code[v] = new - steps[v]
                code.sort()
                if last.get(tuple(code), index) < index:
                    return True
        return False
    return earlier


def _grow(block: Elimination, diagonal: int,
          values: Callable[[tuple], tuple]) -> Iterator[tuple]:
    """Every complete new row of the block, with its border opened with
    diagonal entry `diagonal`: the one row search of the module, for the
    signed census and the fat classes alike.  `values(prefix)` gives the
    entries allowed at the next position, in order, and the rows come in
    lexicographic order of them.  The block's `linear_table` is grown once,
    and each position is one pass (`Elimination.branches`) on it, which
    keeps a prefix only while the principal submatrix on its vertices and
    the new one stays at or above the cutoff."""
    n = len(block.linear_table())
    stack = [((), block.open(diagonal))]
    while stack:
        row, border = stack.pop()
        if len(row) == n:
            yield row, border
            continue
        stack.extend((row + (a,), grown) for a, grown in
                     reversed(block.branches(border, row, values(row))))


def _accepted(block: Elimination, candidates: Iterable, automorphisms: tuple,
              moved: Callable, skip: Optional[Callable] = None) -> Iterator[tuple]:
    """The one accept step of the module, where a grown row becomes a
    child, for signed and fat one-vertex extensions alike.  Each candidate
    is (element, border, ...), a complete row from `_grow` on `block`, the
    parent's elimination; it is yielded with the copy of `block` that its
    border closes, the child's elimination, unless its element lies in
    the orbit of an accepted one, `skip(element)` holds, or `close`
    rejects it.  The element names the child up to isomorphism: the new
    row for a signed parent (`_children`), the new row of B and the slim
    neighbourhoods of the fat choice for a fat one (`fat_classes`).
    `moved(g, element)` is its image under a generator g of the parent
    automorphisms `automorphisms`.

    Lemma (the orbit half of B. D. McKay's canonical construction path,
    Isomorph-free exhaustive generation, J. Algorithms 26, 1998): the
    first candidate of every isomorphism class of children is yielded.
    A signed parent's automorphism g keeps every sign.  A Hoffman parent's
    is a slim permutation that keeps slim adjacency and maps the slim
    neighbourhoods of the fat vertices, as a multiset, onto themselves
    (`canonical_key_and_automorphisms`), so it extends to the fat vertices
    by sending each onto one with the image neighbourhood.  Fixing the new
    vertex and any new fat vertex, g is then an isomorphism from the child
    of an element onto the child of its image.  A new signed row r moves
    to r' with r'[g[v]] = r[v] (`_moved_row`).  Entry v of a new row of B
    is a_v - c_v, a_v the new vertex's adjacency to v and c_v the number
    of chosen fats that v meets; both move with v, so the row moves the
    same way, and the neighbourhood N of each chosen old fat moves to
    g(N) (`_moved_fat_row`).  Equal elements give isomorphic children as
    well: the neighbourhoods fix a fat choice up to swapping old fats of
    equal neighbourhood, an automorphism of the parent, and a new fat
    meets no old slim vertex, so the empty neighbourhoods count the new
    fats.  Every filter (the cutoff, pattern-freeness, connectivity) is
    invariant under isomorphism, so the elements of one orbit pass or fail
    together and give isomorphic children.  A candidate whose element is
    in the orbit of an accepted one is skipped before its last
    elimination step; the accepted one came first, so the first candidate
    of every class is never skipped.

    `skip` is tested after the orbit; a skipped element's orbit needs no
    update, since its elements give isomorphic children, which `skip`
    (an isomorphism-invariant rule) skips too."""
    taken: set = set()  # elements in the orbit of an accepted one
    for candidate in candidates:
        element = candidate[0]
        if element in taken or (skip is not None and skip(element)):
            continue
        grown = block.copy()
        if grown.close(candidate[1]):
            yield candidate, grown
            taken.update(orbit(element, automorphisms, moved))


def _children(parent: EdgeSignedGraph, block: Elimination, cuts: Optional[tuple],
              connected: bool, automorphisms: tuple,
              after: Optional[tuple] = None,
              earlier: Optional[Callable[[tuple], bool]] = None) -> list:
    """One one-vertex extension of parent per orbit of passing new rows
    under the group that `automorphisms` (of the parent) generate, each
    the first of its orbit in lexicographic order of the new row over the
    entries 0, 1, -1; with no automorphisms, every passing extension.  The
    only generator of signed one-vertex extensions, for the census, the
    brute-force oracle and the Q extension step.  `block` is the parent's
    elimination at the cutoff; the parent must be free of the forbidden
    patterns, which come as their `_pattern_cuts`.  Each child comes as
    (child, new row, its elimination), the last a copy of the parent's,
    sharing its table, closed by the row; the child inherits it.  The
    rows go through `_accepted`, the module's one accept step, with the
    new row as the orbit element, moved by `_moved_row`; the orbit lemma
    for both graph kinds is stated there.

    `after`, which only the brute-force oracle passes, is (p, sign) of the
    parent's last vertex, and keeps only new rows that obey the
    breadth-first rule (`labelled_signed_graphs`).  The rule is folded
    into the compiled constraints (`_breadth_first`), so it costs nothing
    when `after` is None.

    `earlier`, which only the census passes (`_earlier_deletion`), tells
    whether a complete row's child has a one-vertex deletion certainly
    isomorphic to an earlier member of the level; `_accepted` skips such
    a row after the orbit check and before its last elimination step.

    `_grow` grows the new row on the parent's elimination one entry at a
    time, deciding the allowed signs of each position together.  A prefix
    is dropped as soon as the subgraph on its vertices and the new one
    lies below the cutoff, which is sound by eigenvalue interlacing, or as
    soon as its last entry completes a forbidden pattern through the new
    vertex (`_forbidden_rows`), the only place a pattern can appear in a
    child of a pattern-free parent.  A complete row must give a connected
    child (when asked) and a pending diagonal that is not negative.  The
    rows come in lexicographic order, so by the lemma in `_accepted` the
    first child of every isomorphism class is returned."""
    n = parent.vertex_count
    rows = _forbidden_rows(parent, cuts)
    if rows is None:
        return []
    if after is not None:
        rows = _breadth_first(rows, after)
    candidates = (c for c in _grow(block, 0, lambda row: _allowed(rows, row))
                  if not (connected and n and not any(c[0])))
    return [(_extend(parent, row), row, grown) for (row, _), grown
            in _accepted(block, candidates, automorphisms, _moved_row, earlier)]


class _Parent(NamedTuple):
    """A census member whose children are searched, with all they inherit
    from it: the automorphisms its key search found, its elimination at
    the cutoff, and its signed adjacency matrix with its characteristic
    polynomial."""

    graph: EdgeSignedGraph
    automorphisms: tuple
    block: Elimination
    matrix: tuple
    poly: IntPolynomial


def enumerate_signed(max_n: int, threshold: Threshold = NEG_TAU,
                     forbidden: Sequence = (), connected: bool = True) -> SignedCensus:
    """All edge-signed graphs up to isomorphism with at most max_n vertices
    satisfying the census predicate, by level-wise augmentation.

    Every filter is hereditary, so each level is grown from the previous
    one, the first from the empty graph, by adding a single vertex with a
    sign vector.  Each member is kept with the automorphisms its key search
    found, and `_children` makes one child per orbit of new rows under
    them: the rows of one orbit give isomorphic children, so the skipped
    ones add no class.  Each child is keyed once, and the first child with
    a key is kept, which is never a skipped one.  Every level from 1 to
    max_n is listed, empty or not.  The cutoff, like every `Threshold`,
    lies in Q(sqrt5); each forbidden pattern must be an `EdgeSignedGraph`
    (TypeError otherwise).

    Children that repeat a class from an earlier parent are skipped
    unkeyed, by an invariant of their one-vertex deletions, the other half
    of McKay's canonical construction path (B. D. McKay, Isomorph-free
    exhaustive generation, J. Algorithms 26, 1998), in a form that keeps
    the first child of each class.  Let the previous level be P_0 ...
    P_{k-1} in key order, and C the child of P_i by a row, with the new
    vertex last.  For a vertex v of C other than the new one, C - v is at
    or above the cutoff by interlacing and pattern-free as an induced
    subgraph, so it is isomorphic to a member of the level whenever it is
    connected or the census is not connected-only.  The degree code of a
    graph is the sorted multiset of its vertices' (plus-degree,
    minus-degree) pairs.  The row is skipped when such a v exists and
    every member with the degree code of C - v comes before P_i
    (`_earlier_deletion`).

    Lemma: the census is unchanged, representatives included.  Let P_j be
    the first parent whose children, without the rule, include C's class,
    and suppose the rule skipped such a child.  Then C - v is isomorphic
    to some P_h with h < j, so C is a one-vertex extension of P_h, by a
    row that passes every filter, each filter being invariant under
    isomorphism; the first row of its orbit would give C's class before
    P_j, a contradiction.  So every skipped child repeats a class from a
    later parent than its first, whose first child is still returned and
    kept; a child that passes the rule is keyed and deduplicated as
    before, and duplicates from one parent are still collapsed by the
    key.  On the census at -2 with n <= 5, 279 keys are taken for 279
    classes (840 without the rule).

    A member pays for its own row only.  It keeps the elimination
    `_children` closed for it; its characteristic polynomial, which its
    eigenvalue descriptor reads, is one border step (`berkowitz_step`)
    from its parent's, the new vertex put first with diagonal 0 and the
    new row as its border (a relabelling keeps the polynomial).  A member
    that is searched in turn, one below max_n, also gets its matrix
    bordered by the row, which its degree codes are read from, and its
    search grows its table by one row.  Only the empty graph is
    eliminated from scratch.
    """
    if not 0 <= max_n <= MAX_ENUM_N:
        raise ValueError(f"max_n must be between 0 and {MAX_ENUM_N}")
    forbidden = _signed_patterns(forbidden)
    cuts = _pattern_cuts(forbidden)
    by_n: dict = {}
    level = [_Parent(signed(0), (), Elimination.start(threshold), (), IntPolynomial.one())]
    for n in range(1, max_n + 1):
        found: dict = {}
        last = {_degree_code(parent.matrix): i for i, parent in enumerate(level)}
        for i, parent in enumerate(level):
            earlier = _earlier_deletion(parent.matrix, last, i, connected)
            for child, row, block in _children(parent.graph, parent.block, cuts, connected,
                                               parent.automorphisms, earlier=earlier):
                key, automorphisms = canonical_key_and_automorphisms(child)
                found.setdefault(key, (parent, child, row, block, automorphisms))
        members, level = [], []
        for key in sorted(found):
            parent, child, row, block, automorphisms = found[key]
            poly = berkowitz_step(parent.poly, 0, row, row, parent.matrix)
            members.append(SignedCensusMember(child, key, _polynomial_descriptor(poly)))
            if n < max_n:
                matrix = tuple(r + (a,) for r, a in zip(parent.matrix, row)) + (row + (0,),)
                level.append(_Parent(child, automorphisms, block, matrix, poly))
        by_n[n] = tuple(members)
    return SignedCensus(max_n, threshold.name,
                        tuple(to_text(p) for p in forbidden), connected, by_n)


# ---------------------------------------------------------------------------
# brute-force oracle


MAX_ORACLE_N = 8


def labelled_signed_graphs(max_n: int, threshold: Threshold = NEG_TAU,
                           forbidden: Sequence = (),
                           connected: bool = False) -> Iterator[EdgeSignedGraph]:
    """Every labelled edge-signed graph on 1..max_n vertices that is at or
    above the cutoff and free of the forbidden patterns; with `connected`,
    only those whose labelling is a breadth-first ordering (below).

    Each yielded graph on fewer than max_n vertices, the empty graph
    first, is a parent, and its children are every passing one-vertex
    extension: `_children` with no automorphisms, the census generator
    without its orbit skip (Tier-1 checks it against a loop over every
    new row).  Vertex m joins the graph on 0..m-1, so every labelled
    graph that passes is reached through its prefixes, the filters being
    hereditary on induced subgraphs.  Each stacked parent keeps the
    elimination `_children` closed for it, so only the empty graph is
    eliminated from scratch.

    With `connected`, let p(m) be the least earlier vertex joined to
    vertex m >= 1.  A labelling is a breadth-first ordering when, for every
    m >= 2, p(m-1) <= p(m), and, if p(m-1) == p(m), vertex m is not
    joined to it by a (+)-edge while vertex m-1 is joined to it by a
    (-)-edge.  Each stacked parent carries (p, sign) of its last vertex,
    and `_children` grows only rows that obey the rule and are not all
    zero, so every yielded graph is connected: its parent is, and vertex m
    has a neighbour in it.

    Lemma: every connected signed graph has a breadth-first ordering, so
    every connected class has a yielded member.  Run a breadth-first
    search from any vertex, queuing each dequeued vertex's undiscovered
    (+)-neighbours before its (-)-neighbours, and label the vertices in
    queue order.  The vertex that discovers m is the first neighbour of m
    to be dequeued, so it has the least label of them all: it is p(m),
    and it comes before m.  Vertices are queued in the order of their
    discoverers, so p never decreases; and among the vertices one vertex
    discovers, the (+)-neighbours come first.  The rule reads only
    consecutive vertices and their earlier neighbours, so every prefix
    0..m-1 of the labelling is again a breadth-first ordering, of a graph
    that passes the hereditary filters: the search reaches the whole graph
    through its prefixes."""
    cuts = _pattern_cuts(_signed_patterns(forbidden))
    stack = [(signed(0), Elimination.start(threshold), None)] if max_n >= 1 else []
    while stack:
        parent, block, after = stack.pop()
        for g, row, grown in _children(parent, block, cuts, connected, (), after):
            yield g
            if g.vertex_count < max_n:
                first = (next(((i, a) for i, a in enumerate(row) if a), None)
                         if connected else None)
                stack.append((g, grown, first))


def brute_force_signed_keys(max_n: int, threshold: Threshold = NEG_TAU,
                            forbidden: Sequence = (),
                            connected: bool = True) -> dict:
    """Independent oracle for the census: the canonical keys, per vertex
    count, of every labelled graph from `labelled_signed_graphs`, which
    grows breadth-first orderings only if asked, so it yields a member of
    every connected class (the lemma there) and no disconnected graph.
    It shares the unpruned generator, `_children` with no automorphisms,
    with the census; it uses no automorphism, skips no orbit, does not
    deduplicate level by level, and takes a canonical key of every
    labelled survivor.  Practical for n <= 8."""
    if max_n > MAX_ORACLE_N:
        raise ValueError(f"the brute-force oracle is limited to n <= {MAX_ORACLE_N}")
    keys: dict = {n: set() for n in range(1, max_n + 1)}
    for g in labelled_signed_graphs(max_n, threshold, forbidden, connected):
        keys[g.vertex_count].add(canonical_key(g))
    return {n: tuple(sorted(found)) for n, found in keys.items()}


# ---------------------------------------------------------------------------
# Q family recognition and the one-vertex extension step


def is_q_graph(s: EdgeSignedGraph) -> Optional[tuple]:
    """Parameters (p, q, r) if s matches the Q family, else None."""
    shape = recognize_q(s)
    return (shape.p, shape.q, shape.r) if shape is not None else None


def verify_extension_step(p: int, q: int, r: int) -> bool:
    """Check the inductive growth step of the Q family: every admissible
    one-vertex extension of Q(p,q,r) is a Q graph with one parameter
    bumped, Q(p+1,q,r), Q(p,q+1,r) or Q(p,q,r+1).

    Admissible means connected, free of the one-(+)-two-(-) triangle, and
    exactly at-or-above -tau; the children come from the census generator,
    one per orbit under the automorphisms the base's key search finds
    (isomorphic children have the same Q shape, so the verdict is that of
    every child).
    Each child's Q shape is read off by `recognize_q`, which is unambiguous
    here: a child has at least eight vertices, and by the lemma in
    `recognize_q` the clique of a Q graph with four or more vertices is
    its set of vertices of degree >= 2.  Extensions with at
    most seven vertices return True at once: they lie in the exhaustively
    enumerated base-case census, which holds non-Q survivors too (a
    balanced 5-cycle really does arise by extending Q(1,1,2), and tiny Q
    graphs have ambiguous parameters, so Q(1,0,1) also grows into the
    all-(+) triangle)."""
    if p < 0 or q < 0 or r < 0 or p + q > r:
        raise ValueError("parameters must satisfy 0 <= p+q <= r")
    n = p + q + r
    if n + 1 > MAX_ENUM_N:
        raise ValueError("extension exceeds the enumeration size limit")
    if n + 1 <= 7:
        return True
    base = make_q(p, q, r)
    t1 = catalog("T1")
    if contains_induced(base, t1) is not None:
        raise ClassificationError("Q base unexpectedly contains the forbidden triangle")
    bumped = {(p + 1, q, r), (p, q + 1, r), (p, q, r + 1)}
    block = eliminate(signed_adjacency(base).entries, NEG_TAU)
    if block is None:
        raise ClassificationError("Q base unexpectedly below -tau")
    _, automorphisms = canonical_key_and_automorphisms(base)
    return all(is_q_graph(child) in bumped
               for child, _, _ in _children(base, block, _pattern_cuts((t1,)), True,
                                            automorphisms))


# ---------------------------------------------------------------------------
# fat classes, realizations, census, maximal members


class SourceClassification(NamedTuple):
    """The classification of the source paper (arXiv 1111.7284)."""

    two_slim: tuple      # (catalog name, printed special name or None if reducible)
    realizations: tuple  # (n, ((eigenvalue class, realization count), ...))


# The one place the source's counts are written down: every expected count
# is read from it, and a mismatch is recorded as a discrepancy on the
# result, never silently dropped.  First the fat two-slim classes in census
# order; then, per vertex count, one row per realizable exceptional signed
# graph.  The derivation here finds two more non-Q census members (a
# three-minus 4-cycle and a four-minus balanced 5-cycle, both without any
# fat realization) and two more realizations of one six-vertex graph (the
# one whose non-edge graph contains a triangle and a perfect matching), so
# the derived totals run ahead of the source: 17/15 exceptional, 39/37
# irreducible, 20/18 maximal.
SOURCE_CLASSIFICATION = SourceClassification(
    two_slim=(("H_I", "Q(0,0,1)"), ("H_II", "Q(0,0,1)"), ("H_III", "Q(0,1,1)"),
              ("H_IV", None), ("H_XVI", "Q(1,0,1)"), ("H_XVII", "Q(0,1,1)")),
    realizations=(
        (3, (("sqrt2", 1),)),
        (4, (("sqrt17", 2), ("sqrt2", 1), ("tau", 1), ("tau", 1), ("tau", 2))),
        (5, (("sqrt17", 1), ("sqrt17", 3), ("tau", 1), ("tau", 1), ("tau", 3), ("tau", 4))),
        (6, (("cubic", 3), ("tau", 3), ("tau", 5))),
    ),
)


def fat_classes(max_slim: int) -> dict:
    """The fat Hoffman graphs with 1..max_slim slim vertices at or above
    -1-tau up to isomorphism: slim count -> {key: graph}, sorted by key.

    Level s grows from level s-1 by adding one slim vertex, joined to any
    subset of the earlier slim vertices and to one or two fat vertices,
    each an old one or a new one.  That is complete because the filter is
    hereditary: without one slim vertex and its private fat vertices, B is
    a principal submatrix.  Three fat neighbors induce the one-slim triple
    star, certified below -1-tau here.

    Every fat choice opens a border with diagonal -|fats| on the parent's
    elimination of B at -1-tau and grows the new row by `_grow`: the entry
    for an earlier slim vertex v is a - c_v, a in {0, 1} its adjacency and
    c_v the number of fats that v meets.  The rows of every fat choice go
    through `_accepted`, the module's one accept step, in the order
    (subset size, subset, fat choice), so the first child of each class
    is the one a from-scratch loop over the subsets keeps.  The new slim
    vertex is the last row of B, so the copy that `close` accepts is the
    child's elimination, which its class keeps with the automorphisms its
    key search found; no parent is eliminated from scratch.

    The orbit element of a candidate is not its row of B alone, which
    does not fix the child: row (0,) comes both from a vertex adjacent to
    the one earlier slim vertex and sharing its fat, and from one
    adjacent to neither and given a new fat.  It is the row together with
    the fat choice, each chosen fat named by its slim neighbourhood, empty
    for a new fat; a parent automorphism moves the row and each
    neighbourhood (`_moved_fat_row`), and by the lemma in `_accepted` the
    parent's generators prune its children as they do in the signed
    census."""
    star3 = b_matrix(catalog("K1T(3)")).entries
    if lambda_min_at_least(star3, NEG_ONE_MINUS_TAU):
        raise ClassificationError("fat-degree cap certificate failed")
    levels: dict = {}
    level = [(hoffman(0, 0), Elimination.start(NEG_ONE_MINUS_TAU), ())]
    for s in range(max_slim):
        found: dict = {}
        for parent, block, automorphisms in level:
            f = parent.fat_count
            # the new slim vertex takes id s, so the old fat ids move up by one
            edges = sorted((a, b + 1) if b >= s else (a, b) for a, b in parent.edges)
            old = tuple(range(s + 1, s + 1 + f))
            new = (s + 1 + f, s + 2 + f)
            # each fat named by its slim neighbourhood, empty for a new one
            named = {x: tuple(v for v, y in edges if y == x) for x in old + new}
            fat_choices = ([(a,) for a in old] + list(combinations(old, 2))
                           + [(a, new[0]) for a in old] + [new[:1], new])
            candidates = []
            for fats in fat_choices:
                shared = Counter(v for x in fats for v in named[x])
                choice = tuple(sorted(named[x] for x in fats))
                for row, border in _grow(block, -len(fats),
                                         lambda row: (-shared[len(row)],
                                                      1 - shared[len(row)])):
                    slims = tuple(v for v in range(s) if row[v] + shared[v])
                    candidates.append(((row, choice), border, len(slims), slims, fats))
            # subset size, subset, and by a stable sort the fat choice
            candidates.sort(key=itemgetter(2, 3))
            for (_, _, _, slims, fats), grown in _accepted(block, candidates, automorphisms,
                                                           _moved_fat_row):
                child = hoffman(s + 1, f + sum(1 for x in fats if x >= new[0]),
                                edges + [(v, s) for v in slims] + [(s, x) for x in fats])
                key, generators = canonical_key_and_automorphisms(child)
                found.setdefault(key, (child, grown, generators))
        level = [found[k] for k in sorted(found)]
        levels[s + 1] = {k: child for k, (child, _, _) in sorted(found.items())}
    return levels


def derive_two_slim() -> tuple:
    """The fat indecomposable Hoffman graphs with at most two slim vertices
    at or above -1-tau, sorted by key: the slice of `fat_classes(2)` with a
    connected special graph.  As many graphs as `SOURCE_CLASSIFICATION`
    has two-slim classes must come out."""
    return tuple(_two_slim_classes().values())


def _two_slim_classes() -> dict:
    """`derive_two_slim()` as key -> graph, with `fat_classes`' keys."""
    found = {k: g for level in fat_classes(2).values() for k, g in level.items()
             if is_connected_signed(special_graph(g))}
    expected = len(SOURCE_CLASSIFICATION.two_slim)
    if len(found) != expected:
        raise ClassificationError(
            f"two-slim derivation produced {len(found)} graphs instead of {expected}")
    return dict(sorted(found.items()))


def _moved_partition(g: tuple, classes: frozenset) -> frozenset:
    """The image of a partition, a frozenset of frozenset classes, under
    the automorphism g: each class moves onto its image."""
    return frozenset(frozenset(g[v] for v in block) for block in classes)


def realize_hoffman(s: EdgeSignedGraph) -> tuple:
    """All Hoffman graphs with one fat vertex per class of a partition of
    V(s), slim adjacency forced by the signs, special graph equal to s,
    and smallest eigenvalue at or above -1-tau; deduplicated.  The classes
    hold the (-)-edges and split the (+)-edges (`partitions_joining`), so
    no partition with a (+)-edge inside a class is listed.

    Every such graph has B = M(s) - I: each slim vertex has one fat
    neighbour, a pair in one class shares it and is adjacent iff it is no
    (-)-edge, and a pair across classes shares none and is adjacent iff it
    is a (+)-edge.  So the bound is decided once, on M(s) - I, and an s
    that fails it has no realization.

    One graph is built per orbit of partitions under the automorphisms
    the key search of s finds: an automorphism of s maps a valid
    partition to a valid one and the graph of one onto the graph of the
    other.  A partition in the orbit of a built one comes after it and is
    skipped, so the first partition of every class is still built."""
    return tuple(g for _, g in _keyed_realizations(s))


def _keyed_realizations(s: EdgeSignedGraph) -> tuple:
    """`realize_hoffman(s)` as (key, graph) pairs, for a caller that keeps
    the keys."""
    if s.vertex_count < 3 or not is_connected_signed(s):
        raise ValueError("realization requires a connected graph on >= 3 vertices")
    n = s.vertex_count
    shifted = [[a - (i == j) for j, a in enumerate(row)]
               for i, row in enumerate(signed_adjacency(s).entries)]
    if not lambda_min_at_least(shifted, NEG_ONE_MINUS_TAU):
        return ()
    _, automorphisms = canonical_key_and_automorphisms(s)
    found: dict = {}
    taken: set = set()  # partitions in the orbit of a built one
    for blocks in partitions_joining(n, s.minus_edges, s.plus_edges):
        classes = frozenset(map(frozenset, blocks))
        if classes in taken:
            continue
        taken.update(orbit(classes, automorphisms, _moved_partition))
        cls = {v: bi for bi, block in enumerate(blocks) for v in block}
        # a pair in one class shares its fat vertex, so it is adjacent iff
        # it is no (-)-edge; a pair across classes iff it is a (+)-edge
        edges = [(i, j) for i, j in combinations(range(n), 2)
                 if (cls[i] == cls[j]) == (s.sign(i, j) == 0)]
        for bi, block in enumerate(blocks):
            edges.extend((v, n + bi) for v in block)
        g = hoffman(n, len(blocks), edges)
        if special_graph(g) != s:
            raise ClassificationError("realization round trip failed")
        found.setdefault(canonical_key(g), g)
    return tuple(sorted(found.items()))


class HoffmanCensusMember(NamedTuple):
    name: str
    graph: HoffmanGraph
    key: CanonicalKey
    special_name: str
    lam: LambdaDescriptor


class HoffmanCensus(NamedTuple):
    members: tuple


def exceptional_members(census: SignedCensus) -> dict:
    """Census members that are not Q graphs, keyed by vertex count."""
    return {n: tuple(m for m in census.members(n) if is_q_graph(m.graph) is None)
            for n in sorted(census.by_n)}


def lambda_min_table_check(members: Sequence) -> dict:
    """Verify the eigenvalue grouping of the realizable exceptional census
    members against the class counts of `SOURCE_CLASSIFICATION`, each
    class read off the member's descriptor; returns the counts per class."""
    expected = dict(Counter(c for _, row in SOURCE_CLASSIFICATION.realizations
                            for c, _ in row))
    if len(members) != sum(expected.values()):
        raise ClassificationError(
            f"expected {sum(expected.values())} exceptional graphs, got {len(members)}")
    counts = dict(Counter(m.lam.known for m in members))
    if counts != expected:
        raise ClassificationError(f"eigenvalue class counts {counts} != {expected}")
    return counts


class ClassificationResult(NamedTuple):
    """Everything the pipeline derives: the signed census, the named
    realizable exceptional graphs (the census-15 role), the certified
    unrealizable exceptional members, any reducible realizations with
    their witnesses, the irreducible Hoffman census, and the list of
    deviations from the expected source counts."""

    signed_census: SignedCensus
    exceptional: tuple      # (name, SignedCensusMember), realizable
    unrealizable: tuple     # SignedCensusMember with zero realizations
    reducible: tuple        # (HoffmanGraph, container, Decomposition)
    irreducible: HoffmanCensus
    discrepancies: tuple    # human-readable expected-vs-derived mismatches


def classify_irreducible(census: Optional[SignedCensus] = None) -> ClassificationResult:
    """The full census of fat irreducible Hoffman graphs at -1-tau.

    Union of the irreducible two-slim graphs and the irreducible
    realizations of the exceptional signed graphs, each derived and then
    filtered by the complete reducibility-witness search.  The two-slim
    classes and their verdicts must be those of `SOURCE_CLASSIFICATION`,
    the one source of expected counts, and the census holds the table's
    catalog graphs in the table's order.  Exceptional members without any
    realization and witnessed-reducible realizations are carried on the
    result, and any deviation from the table's counts is recorded as a
    discrepancy; internal contradictions raise.  The census must be the
    connected one at -tau to n >= 7 that forbids T1 alone (ValueError).  Each
    member is built where its facts are settled, by a raise; the
    realizations of one s share B = M(s) - I and so one descriptor."""
    if census is None:
        census = enumerate_signed(7, NEG_TAU, (catalog("T1"),), connected=True)
    if (census.max_n < 7 or census.threshold_name != NEG_TAU.name or not census.connected
            or census.forbidden != (to_text(catalog("T1")),)):
        raise ValueError("census must cover n <= 7 at -tau, connected, forbidding T1 alone")
    source = SOURCE_CLASSIFICATION
    rows = dict(source.realizations)
    derived = {key: find_reducibility_witness(g) is None
               for key, g in _two_slim_classes().items()}
    two_slim = [(name, g, canonical_key(g), special)
                for name, special in source.two_slim for g in [catalog(name)]]
    if derived != {key: special is not None for _, _, key, special in two_slim}:
        raise ClassificationError(
            "two-slim derivation or its irreducibility filter does not match the source")
    members = [HoffmanCensusMember(name, g, key, sname, lambda_descriptor(b_matrix(g).entries))
               for name, g, key, sname in two_slim if sname is not None]

    named: list = []
    unrealizable: list = []
    reducible: list = []
    discrepancies: list = []
    for n, exceptional in exceptional_members(census).items():
        profile = []
        for m in exceptional:
            reals = []
            for key, g in _keyed_realizations(m.graph):
                witness = find_reducibility_witness(g)
                if witness is None:
                    reals.append((key, g))
                else:
                    reducible.append((g, witness[0], witness[1]))
            if not reals:
                unrealizable.append(m)
                continue
            profile.append((m.lam.known, len(reals)))
            sname = f"S{n}.{len(profile)}"
            named.append((sname, m))
            lam = lambda_descriptor(b_matrix(reals[0][1]).entries)
            members.extend(HoffmanCensusMember(f"H{n}.{len(profile)}.{j}", g, key, sname, lam)
                           for j, (key, g) in enumerate(reals, start=1))
        profile = tuple(sorted(profile))
        expected = tuple(sorted(rows.get(n, ())))
        if len(profile) != len(expected):
            discrepancies.append(
                f"{len(profile)} realizable exceptional graphs at n={n}, "
                f"expected {len(expected)}")
        if profile != expected:
            discrepancies.append(
                f"realization profile at n={n}: derived {profile}, expected {expected}")
    if unrealizable:
        discrepancies.append(
            "exceptional members without fat realization: "
            + ", ".join(to_text(m.graph) for m in unrealizable))

    total = (sum(special is not None for _, special in source.two_slim)
             + sum(count for row in rows.values() for _, count in row))
    if len(members) != total:
        discrepancies.append(
            f"irreducible census has {len(members)} members, expected {total}")
    if len({m.key for m in members}) != len(members):
        raise ClassificationError("census members are not pairwise non-isomorphic")
    return ClassificationResult(census, tuple(named), tuple(unrealizable),
                                tuple(reducible), HoffmanCensus(tuple(members)),
                                tuple(discrepancies))


def _forced_maximal(census: HoffmanCensus) -> tuple:
    """The members that must come out maximal: the two-slim members whose
    B has smallest eigenvalue exactly -1-tau (H_XVI and H_XVII), and the
    members with the census's largest slim count when each of them has
    exactly one fat neighbour per slim vertex.  An embedding of one such
    member into another is onto the slim vertices, so it maps the one fat
    neighbour of each slim vertex onto the one of its image and reaches
    every fat vertex: it would be an isomorphism."""
    top = max((m.graph.slim_count for m in census.members), default=0)
    tops = [m for m in census.members if m.graph.slim_count == top]
    one_fat = all(len(fat_neighbors(m.graph, v)) == 1
                  for m in tops for v in m.graph.slim_vertices())
    return tuple(m for m in census.members
                 if (one_fat and m.graph.slim_count == top)
                 or (m.graph.slim_count == 2
                     and lambda_min_equals(b_matrix(m.graph).entries, NEG_ONE_MINUS_TAU)))


def _degree_profile(g: HoffmanGraph) -> tuple:
    """The degrees of g's slim vertices and of its fat vertices, each
    sorted in decreasing order."""
    degrees = [len(nbrs) for nbrs in adjacency(g)]
    return (sorted(degrees[:g.slim_count], reverse=True),
            sorted(degrees[g.slim_count:], reverse=True))


def _degrees_admit(host: tuple, pattern: tuple) -> bool:
    """Whether degree profiles admit an induced embedding of the pattern
    in the host: an embedding maps each vertex to one of its own class
    with at least as many neighbours, so each of the pattern's sequences
    must be dominated entry by entry by the host's."""
    return all(len(p) <= len(h) and all(a <= b for a, b in zip(p, h))
               for p, h in zip(pattern, host))


def maximal_members(census: HoffmanCensus) -> HoffmanCensus:
    """Members not properly induced in any other member.

    Every member of `_forced_maximal` must come out maximal; a violation
    raises.  A member can only embed in one with more vertices in all (an
    embedding onto every vertex would be an isomorphism, and the keys are
    distinct) whose degree profile admits it (`_degrees_admit`, which
    also needs as many slim and as many fat vertices); other hosts are
    skipped before any search.  Each member is prepared once as a host and
    once as a pattern of the induced-subgraph search."""
    graphs = [m.graph for m in census.members]
    hosts = [prepare_host(h) for h in graphs]
    profiles = [_degree_profile(h) for h in graphs]
    out = []
    for m, profile in zip(census.members, profiles):
        g, pattern = m.graph, prepare_pattern(m.graph)
        embedded = any(
            next(prepared_embeddings(host, pattern), None) is not None
            for h, host, hp in zip(graphs, hosts, profiles)
            if g.vertex_count < h.vertex_count and _degrees_admit(hp, profile))
        if not embedded:
            out.append(m)
    keys = {m.key for m in out}
    for m in _forced_maximal(census):
        if m.key not in keys:
            raise ClassificationError(f"{m.name} failed to come out maximal")
    return HoffmanCensus(tuple(sorted(out, key=lambda m: m.key)))


def verify_three_vertex_diagonal_lemma() -> bool:
    """Sweep all connected three-vertex edge-signed graphs against all
    {1,2} diagonals with at least one 2: the shifted matrix must drop
    strictly below -1-tau every time."""
    for code in product((0, 1, -1), repeat=3):  # the signs of 01, 02 and 12
        if code.count(0) > 1:  # disconnected on three vertices
            continue
        for diag in product((1, 2), repeat=3):
            m = [[-diag[i] if i == j else code[i + j - 1] for j in range(3)] for i in range(3)]
            if 2 in diag and lambda_min_at_least(m, NEG_ONE_MINUS_TAU):
                return False
    return True
