import random
from collections import Counter
from itertools import permutations
from operator import getitem

import pytest
from hypothesis import given, settings, strategies as st

from golden_spectra import enumeration, iso
from golden_spectra.algebra import parse_threshold
from golden_spectra.enumeration import enumerate_signed
from golden_spectra.iso import (
    _classed,
    canonical_key,
    canonical_key_and_automorphisms,
    contains_induced,
    induced_embeddings,
    is_induced_embedding,
    is_isomorphic,
)
from golden_spectra.model import (
    EdgeSignedGraph,
    catalog,
    hoffman,
    induced_hoffman_subgraph,
    induced_signed_subgraph,
    make_q,
    signed,
    to_text,
)

from conftest import random_hoffman, random_signed


def permute_signed(g, perm):
    return signed(g.vertex_count,
                  [(perm[a], perm[b]) for a, b in g.plus_edges],
                  [(perm[a], perm[b]) for a, b in g.minus_edges])


def permute_hoffman(g, rng):
    slims = list(range(g.slim_count))
    fats = list(range(g.slim_count, g.vertex_count))
    rng.shuffle(slims)
    rng.shuffle(fats)
    perm = {}
    for i in range(g.slim_count):
        perm[i] = slims[i]
    for i, f in enumerate(range(g.slim_count, g.vertex_count)):
        perm[f] = fats[i]
    return hoffman(g.slim_count, g.fat_count,
                   [(perm[a], perm[b]) for a, b in g.edges])


class TestCanonicalKey:
    def test_distinguishes(self):
        assert canonical_key(catalog("S21")) != canonical_key(catalog("S22"))
        assert canonical_key(catalog("H_II")) != canonical_key(catalog("H_III"))
        assert canonical_key(catalog("T1")) != canonical_key(catalog("T2"))

    def test_t1_invariance_all_permutations(self):
        from itertools import permutations
        t1 = catalog("T1")
        k = canonical_key(t1)
        for perm in permutations(range(3)):
            assert canonical_key(permute_signed(t1, dict(enumerate(perm)))) == k

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_signed_invariance(self, seed):
        rng = random.Random(seed)
        g = random_signed(rng, rng.randint(1, 7))
        k = canonical_key(g)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert canonical_key(permute_signed(g, dict(enumerate(perm)))) == k

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_hoffman_invariance(self, seed):
        rng = random.Random(seed)
        g = random_hoffman(rng, 8)
        k = canonical_key(g)
        for _ in range(5):
            assert canonical_key(permute_hoffman(g, rng)) == k

    def test_symmetric_graphs_fast(self):
        # the automorphisms found at the leaves keep big cliques and Q
        # graphs instant; without them Q(0,1,11) takes minutes
        canonical_key(make_q(0, 0, 11))
        canonical_key(make_q(3, 2, 6))
        canonical_key(make_q(1, 0, 10))
        canonical_key(make_q(0, 1, 11))
        canonical_key(make_q(9, 0, 9))

    def test_empty_graphs(self):
        assert canonical_key(signed(0)) == canonical_key(signed(0))
        assert canonical_key(hoffman(0, 0)) == canonical_key(hoffman(0, 0))
        assert canonical_key(signed(0)) != canonical_key(signed(1))
        assert contains_induced(signed(3), signed(0)) is not None


def min_order_code_oracle(sym_code, cells, leaf_extra=None):
    """The minimum-code search without automorphisms, kept as the key
    oracle: every order inside the cells, pruned only where the code
    already exceeds the best code's prefix, so exact by construction."""
    best: list = [None]

    def rec(cells_left, placed, code):
        if not cells_left:
            value = (code, leaf_extra(placed) if leaf_extra else ())
            if best[0] is None or value < best[0]:
                best[0] = value
            return
        cell = cells_left[0]
        for idx, v in enumerate(cell):
            new_code = code + tuple(sym_code[u][v] for u in placed)
            if best[0] is not None and new_code > best[0][0][: len(new_code)]:
                continue
            rest = cell[:idx] + cell[idx + 1:]
            rec(([rest] if rest else []) + cells_left[1:], placed + [v], new_code)

    rec(list(cells), [], ())
    return best[0]


def refine_oracle(n, sym, colors):
    """The colour refinement on tuple signatures, kept as the oracle of
    the flat int codes: a vertex's colour, then its sorted (symbol, colour)
    pairs, one round after another until the colours are the ranks
    0..n-1 or stop changing."""
    links = [[(x, u) for u, x in enumerate(row) if x] for row in sym]
    ranks = list(range(n))
    while sorted(colors) != ranks:
        sigs = [(colors[v], tuple(sorted((x, colors[u]) for x, u in links[v])))
                for v in range(n)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if new == colors:
            break
        colors = new
    return colors


class TestKeyOracle:
    """The pruned search finds the oracle's minimum, so every key byte is
    the same."""

    @staticmethod
    def same_keys(graphs, monkeypatch):
        keys = [canonical_key(g) for g in graphs]
        with monkeypatch.context() as m:
            # the oracle finds no automorphisms, so it returns none
            m.setattr(iso, "_min_order_code",
                      lambda *args: (min_order_code_oracle(*args), ()))
            m.setattr(iso, "_refine", refine_oracle)
            assert [canonical_key(g) for g in graphs] == keys

    def test_census_members(self, census7, classification, monkeypatch):
        wide = enumerate_signed(5, parse_threshold("-2"))
        graphs = [m.graph for c in (census7, wide) for ms in c.by_n.values() for m in ms]
        graphs += [m.graph for m in classification.irreducible.members]
        assert len(graphs) > 350
        self.same_keys(graphs, monkeypatch)

    def test_fat_classes_and_q_graphs(self, fat_classes4, monkeypatch):
        graphs = [g for s in (1, 2, 3) for g in fat_classes4[s].values()]
        graphs += [make_q(p, q, r) for r in range(8) for p in range(r + 1)
                   for q in range(r - p + 1) if p + q + r <= 7]
        self.same_keys(graphs, monkeypatch)

    def test_random_graphs(self, monkeypatch):
        rng = random.Random(15)
        graphs = [random_signed(rng, rng.randint(0, 7)) for _ in range(200)]
        graphs += [random_hoffman(rng, 7) for _ in range(200)]
        self.same_keys(graphs, monkeypatch)

    @staticmethod
    def cycle_unions(rng, choices, count):
        """Randomly labelled disjoint unions of cycles: (vertex count,
        edges)."""
        for _ in range(count):
            sizes = rng.choice(choices)
            n = sum(sizes)
            perm = list(range(n))
            rng.shuffle(perm)
            starts = [sum(sizes[:k]) for k in range(len(sizes))]
            yield n, [tuple(sorted((perm[b + j], perm[b + (j + 1) % s])))
                      for b, s in zip(starts, sizes) for j in range(s)]

    def test_randomly_labelled_cycle_unions(self, monkeypatch):
        # vertex-transitive pieces give automorphisms that move placed
        # vertices; an orbit prune that used them would miss the minimum
        rng = random.Random(1)
        choices = [(3, 6), (4, 5), (3, 7), (4, 6), (5, 5), (3, 3, 4), (9,), (10,), (3, 3, 3)]
        graphs = [signed(n, edges) for n, edges in self.cycle_unions(rng, choices, 30)]
        self.same_keys(graphs, monkeypatch)

    def test_graphs_above_sixty_four_vertices(self, monkeypatch):
        # refinement colours of 64 and more still order like the pairs
        # they code: a randomly signed and labelled tree on 70 vertices
        # whose refinement is discrete, and a Hoffman graph on 67 slim
        # vertices with one fat vertex of degree 66
        rng = random.Random(64)
        n = 70
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in edges]
        tree = signed(n, [tuple(sorted((perm[a], perm[b])))
                          for (a, b), x in zip(edges, signs) if x > 0],
                      [tuple(sorted((perm[a], perm[b])))
                       for (a, b), x in zip(edges, signs) if x < 0])
        ns = 67
        fat = hoffman(ns, 1, [(i, i + 1) for i in range(ns - 1)]
                      + [(v, ns) for v in range(1, ns)])
        graphs = [tree, fat]
        for g in graphs:
            sym = _classed(g)[0]
            colors = iso._refine(len(sym), sym, [0] * len(sym))
            assert colors == refine_oracle(len(sym), sym, [0] * len(sym))
            assert sorted(colors) == list(range(len(sym)))  # discrete
        self.same_keys(graphs, monkeypatch)
        for g in graphs:
            assert canonical_key_and_automorphisms(g)[1] == ()

    def test_fat_cycle_unions(self, monkeypatch):
        # no slim edges and one fat vertex on each cycle edge: every order
        # has the same code, so only the fat part tells automorphisms apart
        rng = random.Random(1)
        choices = [(3, 3), (3, 4), (3,), (4,), (5,), (6,), (7,)]
        graphs = [hoffman(n, len(edges), [(v, n + k) for k, e in enumerate(edges) for v in e])
                  for n, edges in self.cycle_unions(rng, choices, 40)]
        self.same_keys(graphs, monkeypatch)


def refine_by_links(n, sym, colors):
    """The colour refinement that builds the link codes before its first
    round, kept as the oracle of the one that ranks the sorted nonzero
    symbols first from uniform colours."""
    if sorted(colors) == list(range(n)):
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


def min_order_code_by_frames(sym_code, cells, leaf_extra=None):
    """The pruned minimum-code search with one node per choice, forced
    ones included, and the discrete order returned without a search, kept
    as the oracle of the search that takes no frame for a forced choice:
    the same value and the same automorphisms in the same order."""
    if all(len(cell) == 1 for cell in cells):
        order = [cell[0] for cell in cells]
        code = tuple(sym_code[u][v] for i, v in enumerate(order) for u in order[:i])
        return (code, leaf_extra(order) if leaf_extra else ()), ()
    best: list = [None, None]
    autos: list = []

    def rec(cells_left, placed, code) -> int:
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
        known = -1
        for row, v in sorted([(tuple([sym_code[u][v] for u in placed]), v) for v in cell]):
            new_code = code + row
            b = best[0]
            if b is not None and new_code > b[0][: len(new_code)]:
                break
            if known != len(autos):
                known = len(autos)
                gens = [g for g in autos if all(g[u] == u for u in placed)]
            if gens and not iso.orbit(v, gens, getitem).isdisjoint(tried):
                continue
            tried.append(v)
            rest_cell = [u for u in cell if u != v]
            nxt = ([rest_cell] if rest_cell else []) + cells_left[1:]
            resume = rec(nxt, placed + [v], new_code)
            if resume < depth:
                return resume
        return depth

    rec(list(cells), [], ())
    return best[0], tuple(autos)


class TestSearchOracle:
    """The search without frames for forced choices, on the refinement
    that ranks symbols first, against the search with a frame per choice
    on the refinement that builds link codes first: the same key and the
    same automorphisms in the same order, so every orbit skip is the same."""

    @staticmethod
    def same_results(graphs, monkeypatch):
        results = [canonical_key_and_automorphisms(g) for g in graphs]
        with monkeypatch.context() as m:
            m.setattr(iso, "_min_order_code", min_order_code_by_frames)
            m.setattr(iso, "_refine", refine_by_links)
            assert [canonical_key_and_automorphisms(g) for g in graphs] == results
        return sum(bool(autos) for _, autos in results)

    def test_census_members(self, census7, census6_unforbidden, census_wide,
                            classification, monkeypatch):
        graphs = [m.graph for c in (census7, census6_unforbidden, census_wide)
                  for ms in c.by_n.values() for m in ms]
        graphs += [m.graph for m in classification.irreducible.members]
        assert self.same_results(graphs, monkeypatch) > 100

    def test_q_family(self, monkeypatch):
        graphs = [make_q(p, q, r) for r in range(12) for p in range(r + 1)
                  for q in range(r + 1 - p) if p + q + r <= 11]
        assert self.same_results(graphs, monkeypatch) > 100

    def test_random_graphs(self, monkeypatch):
        rng = random.Random(23)
        graphs = [random_signed(rng, rng.randint(0, 9)) for _ in range(600)]
        graphs += [random_hoffman(rng, 9) for _ in range(400)]
        assert self.same_results(graphs, monkeypatch) > 100


def automorphism_count(g) -> int:
    """|Aut(g)| of an edge-signed graph by backtracking over every
    permutation that keeps the pair symbols to the vertices mapped so far."""
    n = g.vertex_count

    def rec(images: list) -> int:
        i = len(images)
        if i == n:
            return 1
        return sum(rec(images + [v]) for v in range(n) if v not in images
                   and all(g.sign(i, j) == g.sign(v, w) for j, w in enumerate(images)))

    return rec([])


def group_order(n: int, generators) -> int:
    """The order of the permutation group the generators span, by closure."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        h = todo.pop()
        for g in generators:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return len(group)


class TestAutomorphisms:
    def test_generators_span_the_automorphism_group(
            self, census7, census6_unforbidden, census_wide):
        # every generator keeps every pair symbol, and on every member of
        # the three censuses they span the whole group; a smaller span
        # would only lose orbit pruning, never a class
        graphs = [m.graph for c in (census7, census6_unforbidden, census_wide)
                  for ms in c.by_n.values() for m in ms]
        assert len(graphs) == 488
        nontrivial = 0
        for g in graphs:
            key, generators = canonical_key_and_automorphisms(g)
            assert key == canonical_key(g)
            n = g.vertex_count
            for gen in generators:
                assert sorted(gen) == list(range(n))
                assert all(g.sign(gen[a], gen[b]) == g.sign(a, b)
                           for a in range(n) for b in range(a + 1, n))
            assert group_order(n, generators) == automorphism_count(g)
            nontrivial += bool(generators)
        assert nontrivial > 100

    def test_hoffman_generators_keep_the_graph(self, classification):
        # slim permutations that keep slim adjacency and, with the fat
        # vertices following their slim neighbourhoods, every fat one
        found = 0
        for m in classification.irreducible.members:
            g = m.graph
            ns = g.slim_count
            _, generators = canonical_key_and_automorphisms(g)
            fats = sorted(tuple(v for v in range(ns) if g.has_edge(v, f))
                          for f in g.fat_vertices())
            for gen in generators:
                assert all(g.has_edge(gen[a], gen[b]) == g.has_edge(a, b)
                           for a in range(ns) for b in range(a + 1, ns))
                assert sorted(tuple(sorted(gen[v] for v in mask)) for mask in fats) == fats
            found += len(generators)
        assert found > 10


class TestIsIsomorphic:
    def test_key_equality_matches_permutation_search(self):
        # the canonical key is cross-validated against brute-force
        # permutation isomorphism on all pairs of a random pool
        from itertools import permutations
        rng = random.Random(271828)
        pool = [random_signed(rng, 4) for _ in range(25)]
        pool += [random_signed(rng, 5) for _ in range(15)]

        def brute_iso(a, b):
            if a.vertex_count != b.vertex_count:
                return False
            for perm in permutations(range(a.vertex_count)):
                if all(a.sign(i, j) == b.sign(perm[i], perm[j])
                       for i in range(a.vertex_count)
                       for j in range(i + 1, a.vertex_count)):
                    return True
            return False

        for i, a in enumerate(pool):
            for b in pool[i:]:
                if a.vertex_count != b.vertex_count:
                    continue
                assert is_isomorphic(a, b) == brute_iso(a, b)

    def test_hoffman_key_matches_permutation_search(self):
        from itertools import permutations
        rng = random.Random(314159)
        pool = [g for g in (random_hoffman(rng, 6) for _ in range(40))]

        def brute_iso(a, b):
            if (a.slim_count, a.fat_count) != (b.slim_count, b.fat_count):
                return False
            ns = a.slim_count
            for sp in permutations(range(ns)):
                for fp in permutations(range(ns, a.vertex_count)):
                    perm = dict(enumerate(sp))
                    perm.update({ns + i: f for i, f in enumerate(fp)})
                    if all(a.has_edge(i, j) == b.has_edge(perm[i], perm[j])
                           for i in range(a.vertex_count)
                           for j in range(i + 1, a.vertex_count)):
                        return True
            return False

        for i, a in enumerate(pool):
            for b in pool[i:]:
                if (a.slim_count, a.fat_count) != (b.slim_count, b.fat_count):
                    continue
                assert is_isomorphic(a, b) == brute_iso(a, b)

    def test_examples(self):
        assert is_isomorphic(make_q(1, 0, 1), catalog("S21"))
        assert is_isomorphic(make_q(0, 1, 1), catalog("S22"))
        assert not is_isomorphic(catalog("T1"), catalog("T2"))
        assert is_isomorphic(make_q(0, 0, 2), make_q(1, 0, 1))

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            is_isomorphic(catalog("T1"), catalog("H_I"))

    def test_equivalence_spotcheck(self):
        rng = random.Random(77)
        graphs = [random_signed(rng, 5) for _ in range(6)]
        for g in graphs:
            assert is_isomorphic(g, g)
        for a in graphs:
            for b in graphs:
                assert is_isomorphic(a, b) == is_isomorphic(b, a)

    def test_slim_fat_never_mix(self):
        # same underlying shape, different labelling split
        a = hoffman(2, 1, [(0, 2), (1, 2)])   # two slims sharing a fat
        b = hoffman(1, 2, [(0, 1), (0, 2)])   # one slim with two fats
        assert not is_isomorphic(a, b)


class TestContainsInduced:
    def test_examples(self):
        t1 = catalog("T1")
        assert contains_induced(t1, catalog("S22")) is not None
        assert contains_induced(t1, signed(0)) is not None
        for r in range(0, 6):
            for p in range(0, r + 1):
                for q in range(0, r - p + 1):
                    assert contains_induced(make_q(p, q, r), t1) is None

    def test_witness_is_checked(self):
        host, pattern = catalog("H_XVI"), catalog("H_IV")
        emb = contains_induced(host, pattern)
        assert emb is not None
        assert is_induced_embedding(host, pattern, emb)
        assert not is_induced_embedding(host, pattern, (0, 0, 0, 0))

    def test_hoffman_examples(self):
        assert contains_induced(catalog("H_XVI"), catalog("H_I")) is not None
        assert contains_induced(catalog("H_XVI"), catalog("H_II")) is not None
        assert contains_induced(catalog("H_XVII"), catalog("H_III")) is not None
        assert contains_induced(catalog("H_XVI"), catalog("H_III")) is None

    def test_induced_not_subgraph(self):
        # a plus triangle is a subgraph of K4 but the pattern must match
        # non-edges too
        host = make_q(0, 0, 4)
        pattern = signed(3, [(0, 1), (1, 2)])  # plus path
        assert contains_induced(host, pattern) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_monotone_under_growth(self, seed):
        rng = random.Random(seed)
        host = random_signed(rng, rng.randint(2, 6))
        pattern = random_signed(rng, rng.randint(1, 3))
        found = contains_induced(host, pattern)
        grown = signed(host.vertex_count + 1, host.plus_edges, host.minus_edges)
        if found is not None:
            assert contains_induced(grown, pattern) is not None


class TestInducedEmbeddings:
    @staticmethod
    def brute_force(host, pattern):
        return {m for m in permutations(range(host.vertex_count), pattern.vertex_count)
                if is_induced_embedding(host, pattern, m)}

    def check(self, host, pattern):
        found = list(induced_embeddings(host, pattern))
        assert len(found) == len(set(found))
        assert set(found) == self.brute_force(host, pattern)
        assert (contains_induced(host, pattern) is None) == (not found)
        return len(found)

    def test_signed_pairs_match_a_permutation_search(self):
        # half the patterns are induced subgraphs of their host, so most
        # pairs have several embeddings
        rng = random.Random(11)
        total = empty = 0
        for trial in range(120):
            host = random_signed(rng, rng.randint(0, 6))
            if trial % 2 and host.vertex_count:
                keep = rng.sample(range(host.vertex_count),
                                  rng.randint(1, min(4, host.vertex_count)))
                pattern = induced_signed_subgraph(host, keep)
            else:
                pattern = random_signed(rng, rng.randint(0, 4))
            found = self.check(host, pattern)
            total += found
            empty += found == 0
        assert total > 200 and empty > 10

    def test_hoffman_pairs_match_a_permutation_search(self):
        rng = random.Random(12)
        total = empty = 0
        for trial in range(120):
            host = random_hoffman(rng, 7)
            pattern = random_hoffman(rng, 4)
            if trial % 2:
                slims = rng.sample(range(host.slim_count),
                                   rng.randint(1, min(3, host.slim_count)))
                fats = [f for f in host.fat_vertices()
                        if any(host.has_edge(v, f) for v in slims) and rng.random() < 0.7]
                pattern = induced_hoffman_subgraph(host, tuple(slims + fats))
            found = self.check(host, pattern)
            total += found
            empty += found == 0
        assert total > 200 and empty > 10

    def test_empty_pattern_and_kind_mismatch(self):
        assert list(induced_embeddings(make_q(1, 0, 2), signed(0))) == [()]
        assert list(induced_embeddings(signed(2), signed(3))) == []
        with pytest.raises(TypeError):
            induced_embeddings(catalog("H_I"), signed(1))


def list_embeddings(host, pattern):
    """The list-based search the bitset kernel replaced, kept as its
    oracle: the same pattern vertex order, each candidate drawn from the
    host neighbours of a placed neighbour's image (or from all host
    vertices) and tested against every placed vertex by list lookups."""
    hsym, hcls = _classed(host)
    psym, pcls = _classed(pattern)
    m, n = len(psym), len(hsym)
    if m == 0:
        yield ()
        return
    if m > n:
        return
    order = []
    for _ in range(m):
        order.append(max(
            (v for v in range(m) if v not in order),
            key=lambda v: (sum(1 for u in order if psym[v][u]),
                           sum(1 for x in psym[v] if x), -v)))
    steps = []
    for i, v in enumerate(order):
        placed = [(u, psym[v][u]) for u in order[:i]]
        steps.append((v, pcls[v], next((u for u, x in placed if x), None), placed))
    neighbours = [[c for c in range(n) if row[c]] for row in hsym]
    mapping = [None] * m
    used = [False] * n

    def rec(i):
        v, cls, anchor, placed = steps[i]
        for c in range(n) if anchor is None else neighbours[mapping[anchor]]:
            if used[c] or hcls[c] != cls:
                continue
            row = hsym[c]
            if any(row[mapping[u]] != x for u, x in placed):
                continue
            mapping[v] = c
            if i + 1 == m:
                yield tuple(mapping)
                continue
            used[c] = True
            yield from rec(i + 1)
            used[c] = False

    yield from rec(0)


class TestBitsetKernel:
    """The bitset kernel yields the list oracle's embeddings in the same
    order, which `contains_induced` and the H-line lift rely on."""

    @staticmethod
    def same_sequence(host, pattern):
        found = list(induced_embeddings(host, pattern))
        assert found == list(list_embeddings(host, pattern))
        return len(found)

    def test_signed_sequences(self):
        rng = random.Random(21)
        total = 0
        for trial in range(300):
            host = random_signed(rng, rng.randint(0, 7))
            if trial % 2 and host.vertex_count:
                keep = rng.sample(range(host.vertex_count),
                                  rng.randint(1, min(5, host.vertex_count)))
                rng.shuffle(keep)
                pattern = induced_signed_subgraph(host, keep)
            else:
                pattern = random_signed(rng, rng.randint(0, 5))
            total += self.same_sequence(host, pattern)
        assert total > 500

    def test_hoffman_sequences(self):
        rng = random.Random(22)
        total = 0
        for trial in range(300):
            host = random_hoffman(rng, 9)
            pattern = random_hoffman(rng, 5)
            if trial % 2:
                slims = rng.sample(range(host.slim_count),
                                   rng.randint(1, min(4, host.slim_count)))
                fats = [f for f in host.fat_vertices()
                        if any(host.has_edge(v, f) for v in slims) and rng.random() < 0.7]
                pattern = induced_hoffman_subgraph(host, tuple(slims + fats))
            total += self.same_sequence(host, pattern)
        assert total > 500

    def test_edge_cases(self):
        # the empty pattern, a pattern larger than the host, and a host
        # without a vertex of a class the pattern needs
        for host in (signed(0), make_q(1, 0, 2), hoffman(0, 0), catalog("H_XVI")):
            pattern = signed(0) if isinstance(host, EdgeSignedGraph) else hoffman(0, 0)
            assert self.same_sequence(host, pattern) == 1
        assert self.same_sequence(signed(2), signed(3)) == 0
        assert self.same_sequence(catalog("H_I"), catalog("H_XVI")) == 0
        slim_only = hoffman(3, 0, [(0, 1), (1, 2)])
        assert self.same_sequence(slim_only, hoffman(1, 1, [(0, 1)])) == 0
        assert self.same_sequence(slim_only, hoffman(2, 0, [(0, 1)])) == 4

    def test_maximal_members_with_the_oracle(self, classification, maximal, monkeypatch):
        monkeypatch.setattr(enumeration, "prepare_host", lambda g: g)
        monkeypatch.setattr(enumeration, "prepare_pattern", lambda g: g)
        monkeypatch.setattr(enumeration, "prepared_embeddings", list_embeddings)
        members = classification.irreducible.members
        assert len(members) == 39
        by_oracle = enumeration.maximal_members(classification.irreducible)
        assert by_oracle.members == maximal.members

    def test_degree_profiles_admit_every_embedding(self, classification):
        # the degree prefilter of maximal_members refutes no pair that the
        # list oracle embeds, and it refutes some that it does not
        from golden_spectra.enumeration import _degree_profile, _degrees_admit
        graphs = [m.graph for m in classification.irreducible.members]
        verdicts = Counter()
        for g in graphs:
            for h in graphs:
                if g is h:
                    continue
                embeds = next(list_embeddings(h, g), None) is not None
                admitted = _degrees_admit(_degree_profile(h), _degree_profile(g))
                assert admitted or not embeds, (to_text(g), to_text(h))
                verdicts[embeds, admitted] += 1
        assert verdicts[True, True] == 103 and verdicts[False, False] > 300
