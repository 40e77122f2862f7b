from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from golden_spectra.algebra import NEG_ONE_MINUS_TAU, lambda_min_approx, lambda_min_at_least
from golden_spectra.decomp import (
    Decomposition,
    DecompositionError,
    HLineWitness,
    find_hline_witness,
    find_reducibility_witness,
    lambda_min_of_sum_check,
    partitions_joining,
    reduce_by_degree,
    reduce_q_realization,
    set_partitions,
    split_by_special_components,
    validate_decomposition,
    verify_hline_witness,
)
from golden_spectra.iso import canonical_key, is_isomorphic
from golden_spectra.model import (
    catalog,
    components,
    fat_neighbors,
    from_text,
    hoffman,
    recognize_q,
    to_text,
    validate_hoffman,
)
from golden_spectra.spectral import b_matrix, special_graph


def brute_reducible(g, max_added=2):
    """Oracle for the reducibility search: some container adding at most
    `max_added` fat vertices, with arbitrary slim neighborhoods, has a
    two-part decomposition with both parts at or above -1-tau."""
    ns = g.slim_count
    subsets = [c for size in range(1, ns + 1)
               for c in combinations(range(ns), size)]
    for k in range(max_added + 1):
        for chosen in combinations_with_replacement(subsets, k):
            edges = list(g.edges)
            base = g.vertex_count
            for i, sub in enumerate(chosen):
                edges += [(v, base + i) for v in sub]
            container = hoffman(ns, g.fat_count + k, edges)
            if validate_hoffman(container) is not None:
                continue
            cfat = {v: fat_neighbors(container, v) for v in range(ns)}
            for size in range(0, ns - 1):
                for extra in combinations(range(1, ns), size):
                    left = frozenset({0} | set(extra))
                    parts = []
                    for block in (left, frozenset(range(ns)) - left):
                        pf = set()
                        for v in block:
                            pf |= cfat[v]
                        parts.append(frozenset(block) | pf)
                    d = Decomposition(container, tuple(parts))
                    if validate_decomposition(d) is not None:
                        continue
                    if all(lambda_min_at_least(b_matrix(pg).entries, NEG_ONE_MINUS_TAU)
                           for pg in d.part_graphs()):
                        return True
    return False


def biclique_partitions_by_listing(edges, left, right, capacity):
    """Oracle for `_biclique_partitions`: at each node every subset A of
    the left vertices joined to y and every subset B of the right
    vertices joined to x, by crossing pairs covered or not, in order of
    size and then lexicographically, kept when A x B is still uncovered."""
    edge_set = set(edges)

    def rec(uncovered, cap):
        if not uncovered:
            yield []
            return
        x, y = min(uncovered)
        if cap[x] < 1 or cap[y] < 1:
            return
        lcands = sorted(u for u in left if cap[u] >= 1 and (u, y) in edge_set)
        rcands = sorted(v for v in right if cap[v] >= 1 and (x, v) in edge_set)
        for la in range(len(lcands)):
            for aset in combinations(lcands, la + 1):
                if x not in aset:
                    continue
                for lb in range(len(rcands)):
                    for bset in combinations(rcands, lb + 1):
                        if y not in bset:
                            continue
                        pairs = {(u, v) for u in aset for v in bset}
                        if not pairs <= uncovered:
                            continue
                        ncap = dict(cap)
                        for v in aset + bset:
                            ncap[v] -= 1
                        for rest in rec(uncovered - frozenset(pairs), ncap):
                            yield [(aset, bset)] + rest

    yield from rec(frozenset(edges), dict(capacity))


def witness_by_containers(g):
    """Oracle for `find_reducibility_witness`: the same bipartitions in the
    same order, the container of every cover built, and each part decided
    on its principal submatrix of the container's B."""
    ns = g.slim_count
    if ns < 2:
        return None
    fats = [fat_neighbors(g, v) for v in range(ns)]
    comp = components(ns, [(x, y) for x, y in combinations(range(ns), 2)
                           if len(fats[x] & fats[y]) > g.has_edge(x, y)])
    lefts = sorted((sorted(comp[0] + [v for block in chosen for v in block])
                    for size in range(len(comp) - 1)
                    for chosen in combinations(comp[1:], size)),
                   key=lambda left: (len(left), left))
    capacity = {v: 2 - len(fats[v]) for v in range(ns)}
    for left in lefts:
        right = sorted(frozenset(range(ns)).difference(left))
        need = [(x, y) for x in left for y in right
                if g.has_edge(x, y) and not fats[x] & fats[y]]
        for cover in biclique_partitions_by_listing(need, frozenset(left),
                                                    frozenset(right), capacity):
            edges = list(g.edges)
            for i, (aset, bset) in enumerate(cover):
                edges += [(v, g.vertex_count + i) for v in aset + bset]
            container = hoffman(ns, g.fat_count + len(cover), edges)
            rows = b_matrix(container).entries
            if all(lambda_min_at_least([[rows[x][y] for y in block] for x in block],
                                       NEG_ONE_MINUS_TAU) for block in (left, right)):
                cfat = [fat_neighbors(container, v) for v in range(ns)]
                return container, tuple(frozenset(block).union(*(cfat[v] for v in block))
                                        for block in (left, right))
    return None


def classify_inputs(census7):
    """The 40 graphs the classification runs the witness search on."""
    from golden_spectra.enumeration import (derive_two_slim, exceptional_members,
                                            realize_hoffman)
    return list(derive_two_slim()) + [
        g for members in exceptional_members(census7).values()
        for m in members for g in realize_hoffman(m.graph)]


K3_SHARED = hoffman(3, 1, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
# the shared-fat double cover of the two-slim edge: splits into two double stars
H_PRIME = hoffman(2, 3, [(0, 1), (0, 2), (1, 3), (0, 4), (1, 4)])


class TestValidateDecomposition:
    def test_k3_as_three_stars(self):
        d = Decomposition(K3_SHARED,
                          (frozenset({0, 3}), frozenset({1, 3}), frozenset({2, 3})))
        assert validate_decomposition(d) is None
        assert lambda_min_of_sum_check(d)
        assert abs(lambda_min_approx(b_matrix(K3_SHARED).entries) + 1) < 1e-9

    def test_hprime_two_double_stars(self):
        d = Decomposition(H_PRIME, (frozenset({0, 2, 4}), frozenset({1, 3, 4})))
        assert validate_decomposition(d) is None
        for pg in d.part_graphs():
            assert is_isomorphic(pg, catalog("H_II"))
        assert lambda_min_of_sum_check(d)

    def test_fat_closure_violation(self):
        d = Decomposition(H_PRIME, (frozenset({0, 3, 4}), frozenset({1, 2, 4})))
        msg = validate_decomposition(d)
        assert msg is not None and "fat vertex" in msg

    def test_cover_and_disjoint(self):
        d = Decomposition(H_PRIME, (frozenset({0, 2, 4}),))
        assert "not covered" in validate_decomposition(d)
        d = Decomposition(H_PRIME,
                          (frozenset({0, 1, 2, 4}), frozenset({1, 3, 4})))
        assert "slim vertex 1" in validate_decomposition(d)

    def test_single_part_trivial(self):
        g = catalog("H_XVI")
        d = Decomposition(g, (frozenset(range(g.vertex_count)),))
        assert validate_decomposition(d) is None
        assert lambda_min_of_sum_check(d)


class TestSplit:
    def test_indecomposable(self):
        assert split_by_special_components(catalog("H_IV")) is None

    def test_disjoint_union(self):
        two = hoffman(2, 2, [(0, 2), (1, 3)])
        d = split_by_special_components(two)
        assert d is not None and len(d.parts) == 2

    def test_hprime(self):
        d = split_by_special_components(H_PRIME)
        assert d is not None and len(d.parts) == 2
        assert lambda_min_of_sum_check(d)

    def test_iff_over_catalog(self):
        # special graph connected exactly when no split exists
        from golden_spectra.model import is_connected_signed
        for name in ("H_I", "H_II", "H_III", "H_IV", "H_XVI", "H_XVII"):
            g = catalog(name)
            connected = is_connected_signed(special_graph(g))
            assert (split_by_special_components(g) is None) == connected

    def test_iff_over_random(self):
        # the split/connectivity dichotomy lives in the world where slim
        # pairs share at most one fat vertex (between pairs sharing two or
        # more, decompositions cannot separate them at all, and such
        # graphs drop to -3 or below anyway)
        import random
        from itertools import combinations
        from conftest import random_hoffman
        from golden_spectra.model import fat_neighbors, is_connected_signed
        rng = random.Random(59)
        split_count = 0
        checked = 0
        while checked < 300:
            g = random_hoffman(rng, 8)
            if g.slim_count == 0:
                continue
            if any(len(fat_neighbors(g, a) & fat_neighbors(g, b)) > 1
                   for a, b in combinations(g.slim_vertices(), 2)):
                continue
            checked += 1
            d = split_by_special_components(g)
            connected = is_connected_signed(special_graph(g))
            assert (d is None) == connected
            if d is not None:
                split_count += 1
                if split_count <= 40:
                    assert lambda_min_of_sum_check(d)
        assert split_count > 30

    def test_forced_pairs_decide_over_unfiltered_random(self):
        # slim pairs may share two fat vertices: every split is a valid
        # decomposition, and none exists exactly when the forced pairs
        # (shared fat count other than the adjacency) connect the slims
        import random
        from conftest import random_hoffman
        from golden_spectra.model import components
        rng = random.Random(61)
        split_count = double_count = 0
        for _ in range(400):
            g = random_hoffman(rng, 8)
            fats = [fat_neighbors(g, v) for v in g.slim_vertices()]
            forced = [(a, b) for a, b in combinations(g.slim_vertices(), 2)
                      if len(fats[a] & fats[b]) != g.has_edge(a, b)]
            double_count += any(len(fats[a] & fats[b]) > 1
                                for a, b in combinations(g.slim_vertices(), 2))
            d = split_by_special_components(g)
            assert (d is None) == (len(components(g.slim_count, forced)) <= 1)
            if d is not None:
                split_count += 1
                assert validate_decomposition(d) is None
        assert split_count > 30 and double_count > 30


class TestReduceByDegree:
    def test_p3(self):
        p3 = hoffman(3, 0, [(0, 1), (1, 2)])
        container, d = reduce_by_degree(p3)
        kinds = sorted(pg.fat_count for pg in d.part_graphs())
        assert kinds == [1, 1, 2]
        assert lambda_min_of_sum_check(d)
        # each part is a one-slim star whose bottom eigenvalue is minus its degree
        for pg in d.part_graphs():
            assert abs(lambda_min_approx(b_matrix(pg).entries) + pg.fat_count) < 1e-9

    def test_k2(self):
        container, d = reduce_by_degree(hoffman(2, 0, [(0, 1)]))
        assert len(d.parts) == 2 and container.fat_count == 1

    def test_c4(self):
        c4 = hoffman(4, 0, [(0, 1), (1, 2), (2, 3), (0, 3)])
        _, d = reduce_by_degree(c4)
        assert all(is_isomorphic(pg, catalog("K1T(2)")) for pg in d.part_graphs())

    def test_preconditions(self):
        with pytest.raises(DecompositionError):
            reduce_by_degree(catalog("H_I"))
        with pytest.raises(DecompositionError):
            reduce_by_degree(hoffman(1, 0))


class TestReduceQRealization:
    def _realization(self, edges, slim, fat):
        return hoffman(slim, fat, edges)

    def test_q102(self):
        g = hoffman(3, 3, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)])
        shape = recognize_q(special_graph(g))
        vp = tuple(v for v, _ in shape.plus_pendants)
        vq = tuple(v for v, _ in shape.minus_pendants)
        container, d = reduce_q_realization(g, (vp, vq, shape.clique))
        names = sorted(canonical_key(pg).hex() for pg in d.part_graphs())
        assert names == sorted(canonical_key(catalog(n)).hex()
                               for n in ("H_XVI", "H_II"))
        assert lambda_min_of_sum_check(d)

    def test_q002(self):
        g = hoffman(2, 2, [(0, 1), (0, 2), (1, 3)])  # special graph: one (+)-edge
        shape = recognize_q(special_graph(g))
        if shape.r >= 2:
            _, d = reduce_q_realization(g, ((), (), shape.clique))
            assert all(is_isomorphic(pg, catalog("H_II")) for pg in d.part_graphs())

    def test_r1_single_part(self):
        g = catalog("H_I")
        shape = recognize_q(special_graph(g))
        container, d = reduce_q_realization(g, ((), (), shape.clique))
        assert len(d.parts) == 1
        assert is_isomorphic(d.part_graphs()[0], catalog("H_II"))

    def test_bad_partition(self):
        g = hoffman(3, 3, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)])
        with pytest.raises(DecompositionError):
            reduce_q_realization(g, ((0,), (), (0, 1)))
        # a (+)-pendant listed as a (-)-pendant
        with pytest.raises(DecompositionError):
            reduce_q_realization(catalog("H_IV"), ((), (0,), (1,)))

    @pytest.mark.parametrize("partition, container, parts", [
        (((0,), (), (1,)), "hg 2 3 0-1,0-2,1-3,1-4", [{0, 1, 2, 3, 4}]),
        (((1,), (), (0,)), "hg 2 3 0-1,0-2,0-4,1-3", [{0, 1, 2, 3, 4}]),
        (((), (), (0, 1)), "hg 2 3 0-1,0-2,0-4,1-3,1-4", [{0, 2, 4}, {1, 3, 4}])])
    def test_every_reading_of_an_ambiguous_shape(self, partition, container, parts):
        # the special graph of H_IV is one (+)-edge: Q(1,0,1) either way
        # round, or Q(0,0,2)
        c, d = reduce_q_realization(catalog("H_IV"), partition)
        assert (to_text(c), list(d.parts)) == (container, parts)


class TestReducibilityWitness:
    def test_h_iv_reducible(self):
        container, d = find_reducibility_witness(catalog("H_IV"))
        assert validate_decomposition(d) is None
        assert len(d.parts) == 2
        assert is_isomorphic(d.part_graphs()[0], catalog("H_II"))

    def test_irreducible_anchors(self):
        for name in ("H_I", "H_II", "H_III", "H_XVI", "H_XVII"):
            assert find_reducibility_witness(catalog(name)) is None

    def test_fat_degree_capacity_drops_no_witness(self, census7, fat_classes4,
                                                  monkeypatch):
        # the search with the fat-degree cap lifted gives the same verdicts
        # on the classification's inputs up to five slim vertices and on
        # the fat classes up to four slim with a connected special graph
        from golden_spectra import decomp
        from golden_spectra.enumeration import (derive_two_slim, exceptional_members,
                                                realize_hoffman)
        from golden_spectra.model import is_connected_signed
        inputs = list(derive_two_slim()) + [
            g for members in exceptional_members(census7).values()
            for m in members for g in realize_hoffman(m.graph)]
        graphs = [g for g in inputs if g.slim_count <= 5]
        fat = [g for level in fat_classes4.values() for g in level.values()
               if is_connected_signed(special_graph(g))]
        assert (len(inputs), len(graphs), len(fat)) == (40, 27, 29)
        graphs += fat
        capped = [find_reducibility_witness(g) is not None for g in graphs]
        real = decomp._biclique_partitions

        def uncapped(edges, left, right, capacity):
            return real(edges, left, right, {v: 99 for v in capacity})
        monkeypatch.setattr(decomp, "_biclique_partitions", uncapped)
        assert [find_reducibility_witness(g) is not None for g in graphs] == capped
        assert 0 < sum(capped) < len(graphs)

    def test_covers_come_in_the_order_of_listing_every_biclique(self, census7,
                                                               monkeypatch):
        # every (left, need) pair the classification's searches reach gives
        # the covers of the listing oracle, in its order, with its capacity,
        # with the capacity lifted, and with one side at capacity 1 and the
        # other at 2
        from golden_spectra import decomp
        reached = []
        real = decomp._biclique_partitions

        def recorded(edges, left, right, capacity):
            reached.append((edges, left, right, capacity))
            return real(edges, left, right, capacity)
        monkeypatch.setattr(decomp, "_biclique_partitions", recorded)
        for g in classify_inputs(census7):
            find_reducibility_witness(g)
        monkeypatch.undo()
        assert len(reached) > 100
        covers = Counter()
        for edges, left, right, capacity in reached:
            for cap in (capacity, {v: 99 for v in capacity},
                        {v: 1 + (v in right) for v in capacity},
                        {v: 1 + (v in left) for v in capacity}):
                expected = list(biclique_partitions_by_listing(edges, left, right, cap))
                assert list(real(edges, left, right, cap)) == expected
                covers[cap is capacity, min(len(expected), 2)] += 1
        assert covers[True, 1] > 100 and covers[False, 2] > 500

    def test_same_witness_as_building_every_container(self, census7, fat_classes4):
        # deciding each cover on B(g) minus its cliques, and building only
        # the passing container, returns the oracle's container and parts
        graphs = classify_inputs(census7)
        assert len(graphs) == 40
        graphs += [g for level in fat_classes4.values() for g in level.values()]
        found = 0
        for g in graphs:
            w = find_reducibility_witness(g)
            expected = witness_by_containers(g)
            assert (w and (w[0], w[1].parts)) == expected, to_text(g)
            found += w is not None
        assert 0 < found < len(graphs)

    def test_q_shape_realization_reducible(self):
        g = hoffman(3, 3, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)])
        assert find_reducibility_witness(g) is not None

    @pytest.mark.parametrize("text", [
        "hg 4 4 0-3,0-4,1-2,1-5,2-3,2-6,3-7",
        "hg 4 2 0-2,0-3,0-4,1-2,1-3,1-5,2-3,2-4,3-5"])
    def test_crossing_pair_with_larger_left_id_is_covered(self, text):
        # realizations of the all-plus path Q(2,0,2) whose only witnesses
        # put the larger id of a crossing pair on the left side
        g = from_text(text)
        assert brute_reducible(g)
        container, d = find_reducibility_witness(g)
        assert validate_decomposition(d) is None
        assert all(lambda_min_at_least(b_matrix(pg).entries, NEG_ONE_MINUS_TAU)
                   for pg in d.part_graphs())

    def test_every_relabelled_fat_class_matches_brute_force(self, fat_classes4):
        # the verdict must not depend on vertex labels, so every slim
        # relabelling of every class with 2..4 slim vertices is searched
        disagree = []
        for s in (2, 3, 4):
            for g in fat_classes4[s].values():
                expected = brute_reducible(g)
                for perm in permutations(range(s)):
                    h = hoffman(s, g.fat_count, [
                        tuple(perm[v] if g.is_slim(v) else v for v in e)
                        for e in g.edges])
                    if (find_reducibility_witness(h) is not None) != expected:
                        disagree.append(to_text(h))
        assert disagree == []

    def test_never_misses_a_brute_force_witness(self):
        # wherever an unstructured container search (arbitrary added-fat
        # neighborhoods) certifies reducibility, the structured
        # bipartition-plus-biclique-cover search must as well
        import random
        from conftest import random_hoffman

        rng = random.Random(90210)
        checked = 0
        while checked < 40:
            g = random_hoffman(rng, 6)
            if not 2 <= g.slim_count <= 3:
                continue
            checked += 1
            mine = find_reducibility_witness(g)
            if brute_reducible(g):
                assert mine is not None
            if mine is not None:
                container, d = mine
                assert validate_decomposition(d) is None
                assert all(lambda_min_at_least(b_matrix(pg).entries,
                                               NEG_ONE_MINUS_TAU)
                           for pg in d.part_graphs())


class TestHLineWitness:
    def test_verify_example(self):
        emb = (0, 1, 2, 3)
        d = Decomposition(H_PRIME, (frozenset({0, 2, 4}), frozenset({1, 3, 4})))
        key_ii = canonical_key(catalog("H_II"))
        w = HLineWitness(catalog("H_IV"), H_PRIME, emb, d, (key_ii, key_ii))
        assert verify_hline_witness(w, {key_ii})
        assert not verify_hline_witness(w, {canonical_key(catalog("H_I"))})

    def test_trivial_self_witness(self):
        g = catalog("H_XVI")
        key = canonical_key(g)
        d = Decomposition(g, (frozenset(range(g.vertex_count)),))
        w = HLineWitness(g, g, tuple(range(g.vertex_count)), d, (key,))
        assert verify_hline_witness(w, {key})

    def test_find_h_iv_with_double_star_family(self):
        w = find_hline_witness(catalog("H_IV"), [catalog("H_II")])
        assert w is not None
        assert len(w.decomposition.parts) == 2
        assert w.container.fat_count == 3  # the added shared fat vertex

    def test_find_small_catalog_with_threshold_family(self):
        fam = [catalog("H_XVI"), catalog("H_XVII")]
        keys = {canonical_key(g) for g in fam}
        for name in ("H_I", "H_II", "H_III", "H_IV"):
            w = find_hline_witness(catalog(name), fam)
            assert w is not None, name
            assert verify_hline_witness(w, keys)

    def test_q_route_with_fattening(self):
        # all slims with one fat, special graph a pure clique shape; the
        # family lacks the double star so bare parts must be fattened
        g = hoffman(3, 3, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
        shape = recognize_q(special_graph(g))
        assert shape is not None and (shape.p, shape.q, shape.r) == (0, 0, 3)
        fam = [catalog("H_XVI"), catalog("H_XVII")]
        w = find_hline_witness(g, fam)
        assert w is not None
        assert verify_hline_witness(w, {canonical_key(x) for x in fam})
        assert len(w.decomposition.parts) == 3

    def test_not_found_is_none(self):
        # a part keeps every fat neighbour of its slim vertices, so no
        # number of added fat vertices gives H_XVI parts isomorphic to H_I
        w = find_hline_witness(catalog("H_XVI"), [catalog("H_I")])
        assert w is None

    def test_precondition(self):
        with pytest.raises(DecompositionError):
            find_hline_witness(hoffman(1, 0), [catalog("H_I")])
        with pytest.raises(DecompositionError):
            find_hline_witness(catalog("K1T(3)"), [catalog("H_I")])

    def test_more_than_eight_slim_vertices_raise(self):
        # nine slim vertices, each with its own fat vertex: B = -I
        g = hoffman(9, 9, [(v, 9 + v) for v in range(9)])
        with pytest.raises(DecompositionError, match="8 slim vertices"):
            find_hline_witness(g, [catalog("H_I")])

    def test_lift_grows_parts_into_whole_members(self):
        # Q(0,0,3) with one fat vertex per slim vertex and one added fat
        # vertex over the triangle: each part is a double star, cut from
        # H_XVII, whose other slim vertex the lift adds
        g = hoffman(3, 3, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
        w = find_hline_witness(g, [catalog("H_XVI"), catalog("H_XVII")])
        assert w.container.slim_count == 6
        assert all(is_isomorphic(pg, catalog("H_XVII"))
                   for pg in w.decomposition.part_graphs())

    def test_theorem_every_fat_class_up_to_four_slim(self, fat_classes4, maximal):
        # every fat Hoffman graph with smallest eigenvalue at least -1-tau
        # is an H-line graph over the maximal irreducible members; a class
        # without a witness is a counterexample or an engine fault
        family = [m.graph for m in maximal.members]
        family_keys = {m.key for m in maximal.members}
        assert {s: len(level) for s, level in fat_classes4.items()} == \
            {1: 2, 2: 10, 3: 45, 4: 252}
        missing = []
        for level in fat_classes4.values():
            for g in level.values():
                w = find_hline_witness(g, family)
                if w is None or not verify_hline_witness(w, family_keys):
                    missing.append(to_text(g))
        assert missing == []

    def test_crossing_rule_alone_decides_the_searched_partitions(self, fat_classes4):
        # on every container the witness search tries for the fat classes
        # with at most three slim vertices (up to two added fat vertices),
        # the partitions it yields are, in order, the slim set partitions
        # whose decomposition into blocks with their fat neighbors is valid
        from golden_spectra.decomp import _containers, _forced_pairs
        verdicts = Counter()
        for s in (1, 2, 3):
            for g in fat_classes4[s].values():
                for container, cfat in _containers(g, 2):
                    valid = []
                    for blocks in set_partitions(s):
                        d = Decomposition(container, tuple(
                            frozenset(block).union(*(cfat[v] for v in block))
                            for block in blocks))
                        ok = validate_decomposition(d) is None
                        if ok:
                            valid.append(blocks)
                        verdicts[ok] += 1
                    assert list(partitions_joining(
                        s, _forced_pairs(container, cfat))) == valid
        assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_set_partitions_count():
    # Bell numbers
    assert sum(1 for _ in set_partitions(4)) == 15
    assert sum(1 for _ in set_partitions(0)) == 1


def test_partitions_joining_filters_set_partitions_in_order():
    import random
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(0, 7)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.15]
        expected = [blocks for blocks in set_partitions(n)
                    if all(any(a in b and c in b for b in blocks) for a, c in pairs)]
        assert list(partitions_joining(n, pairs)) == expected


def test_partitions_joining_splits_apart_pairs_in_order():
    # the pruned search yields the partitions that pass both rules, in
    # `set_partitions` order, and nothing when an apart pair is forced
    # into one block
    import random
    rng = random.Random(20)
    empty = 0
    for _ in range(300):
        n = rng.randint(0, 7)
        pairs = list(combinations(range(n), 2))
        together = [p for p in pairs if rng.random() < 0.15]
        apart = [p for p in pairs if p not in together and rng.random() < 0.2]
        if together and rng.random() < 0.1:
            apart.append(rng.choice(together))
        expected = [blocks for blocks in set_partitions(n)
                    if all(any(a in b and c in b for b in blocks) for a, c in together)
                    and not any(a in b and c in b for b in blocks for a, c in apart)]
        assert list(partitions_joining(n, together, apart)) == expected
        empty += not expected
    assert empty > 10
