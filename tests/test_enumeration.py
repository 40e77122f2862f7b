import hashlib
import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from golden_spectra.algebra import (
    NEG_ONE_MINUS_TAU,
    NEG_TAU,
    IntPolynomial,
    char_poly,
    compare_smallest_roots,
    eliminate,
    lambda_min_approx,
    lambda_min_at_least,
    lambda_min_equals,
    parse_threshold,
)
from golden_spectra.decomp import partitions_joining, set_partitions
from golden_spectra.enumeration import (
    SOURCE_CLASSIFICATION,
    ClassificationError,
    brute_force_signed_keys,
    classify_irreducible,
    derive_two_slim,
    enumerate_signed,
    exceptional_members,
    is_q_graph,
    labelled_signed_graphs,
    lambda_min_table_check,
    realize_hoffman,
    verify_extension_step,
    verify_three_vertex_diagonal_lemma,
)
from golden_spectra.iso import (
    canonical_key,
    canonical_key_and_automorphisms,
    contains_induced,
    is_isomorphic,
    orbit,
    prepare_host,
    prepared_embeddings,
)
from golden_spectra.model import (
    adjacency,
    catalog,
    from_text,
    hoffman,
    induced_signed_subgraph,
    is_connected_signed,
    make_q,
    signed,
    to_text,
)
from golden_spectra.spectral import b_matrix, signed_adjacency, special_graph

from conftest import random_signed

T1 = catalog("T1")

# forbidden pattern sets for the row prune; S11 and Q(0,0,0) have one and
# no vertex, so every graph with a vertex contains them
PATTERN_SETS = (("T1", "T2"), ("S21",), ("S22",), ("S11",), ("Q(0,0,0)",), ("Q(1,1,2)",))


def labelled(n: int, code):
    """The labelled graph on n vertices with pair symbols `code` over
    (0, 1, -1), pairs in lexicographic order."""
    pairs = list(combinations(range(n), 2))
    return signed(n, [p for p, c in zip(pairs, code) if c == 1],
                  [p for p, c in zip(pairs, code) if c == -1])


def random_labelled(rng: random.Random, n: int, symbols: tuple):
    return labelled(n, [rng.choice(symbols) for _ in range(n * (n - 1) // 2)])


def forbidden_rows_oracle(parent, cuts):
    """The constraints of the forbidden patterns on a child's new row as
    (value, earlier (position, value) pairs), keyed by the last position,
    uncompiled; None if every child contains a pattern."""
    if cuts is None:
        return None
    rows: dict = {}
    host = prepare_host(parent) if cuts else None
    for pattern, signs in cuts:
        for e in prepared_embeddings(host, pattern):
            *earlier, (j, value) = sorted(zip(e, signs))
            rows.setdefault(j, set()).add((value, tuple(earlier)))
    return rows


def allowed_oracle(rows, row):
    """The entries 0, 1, -1 less those that some constraint keyed at the
    next position blocks, each tested pair by pair over the prefix."""
    constraints = rows.get(len(row)) if rows else None
    if not constraints:
        return (0, 1, -1)
    blocked = {a for a, earlier in constraints if all(row[p] == v for p, v in earlier)}
    return tuple(a for a in (0, 1, -1) if a not in blocked)


def children_of(parent, threshold, cuts, connected, automorphisms):
    """The children `_children` makes of a parent eliminated from scratch
    at the cutoff, none if the parent lies below it."""
    from golden_spectra.enumeration import _children
    block = eliminate(signed_adjacency(parent).entries, threshold)
    if block is None:
        return []
    return [child for child, _, _ in _children(parent, block, cuts, connected, automorphisms)]


@pytest.fixture(scope="module")
def labelled_sweep():
    """Every labelled graph on 1..4 vertices at or above each of two
    cutoffs, decided one whole graph at a time."""
    out = {}
    for threshold in (NEG_TAU, parse_threshold("-2")):
        out[threshold] = []
        for n in range(1, 5):
            for code in product((0, 1, -1), repeat=n * (n - 1) // 2):
                g = labelled(n, code)
                if lambda_min_at_least(signed_adjacency(g).entries, threshold):
                    out[threshold].append(g)
    return out


class TestEnumerateSigned:
    def test_two_vertices(self):
        census = enumerate_signed(2, NEG_TAU, (T1,))
        keys = {m.key for m in census.members(1)} | {m.key for m in census.members(2)}
        assert keys == {canonical_key(catalog(n)) for n in ("S11", "S21", "S22")}

    def test_three_vertices(self, census7):
        members = census7.members(3)
        assert len(members) == 4
        exceptional = [m for m in members if is_q_graph(m.graph) is None]
        assert len(exceptional) == 1
        # the unique 3-vertex exceptional graph is the all-minus path
        assert is_isomorphic(exceptional[0].graph,
                             signed(3, [], [(0, 1), (1, 2)]))

    def test_level_counts(self, census7):
        assert {n: len(census7.members(n)) for n in range(1, 8)} == {
            1: 1, 2: 2, 3: 4, 4: 12, 5: 13, 6: 13, 7: 10}
        # every member at the top level is a Q graph
        assert all(is_q_graph(m.graph) is not None for m in census7.members(7))

    def test_members_satisfy_predicate(self, census7):
        from golden_spectra.iso import contains_induced
        from golden_spectra.model import is_connected_signed
        from golden_spectra.spectral import signed_adjacency
        from golden_spectra.algebra import lambda_min_at_least
        for n in (4, 6):
            for m in census7.members(n):
                assert is_connected_signed(m.graph)
                assert contains_induced(m.graph, T1) is None
                assert lambda_min_at_least(signed_adjacency(m.graph).entries, NEG_TAU)

    def test_other_threshold(self):
        census = enumerate_signed(3, parse_threshold("-1"), ())
        # only graphs whose signed adjacency stays at or above -1
        for n in range(1, 4):
            for m in census.members(n):
                assert m.lam.approx >= -1 - 1e-9

    def test_max_n_guard(self):
        with pytest.raises(ValueError):
            enumerate_signed(13)

    def test_levels_eight_to_twelve_are_the_q_graphs(self):
        # a second route to acceptance 07: past n = 7 every level of the
        # T1-free census at -tau holds exactly the Q(p,q,r) with
        # p+q+r = n and p+q <= r, so no exceptional graph appears
        census = enumerate_signed(12, NEG_TAU, (T1,))
        for n in range(8, 13):
            q_keys = {canonical_key(make_q(p, q, n - p - q))
                      for p in range(n + 1) for q in range(n - p + 1)
                      if 2 * (p + q) <= n}
            assert {m.key for m in census.members(n)} == q_keys
            assert exceptional_members(census)[n] == ()

    def test_every_level_listed_above_zero(self):
        # the one-vertex graph lies below a positive cutoff, so every level
        # is empty, and each is listed
        census = enumerate_signed(3, parse_threshold("1/2"), ())
        assert census.by_n == {1: (), 2: (), 3: ()}

    def test_level_one_grows_from_the_empty_graph(self):
        assert children_of(signed(0), NEG_TAU, (), True, ()) == [signed(1)]

    def test_each_class_keyed_once(self, monkeypatch):
        # one child per Aut(parent) orbit of new rows, less those with a
        # one-vertex deletion certainly an earlier parent, each keyed once:
        # 279 keys for 279 classes at -2 (840 without the deletion rule,
        # 1,345 children unpruned), 55 for 55 at -tau with T1 (103, 183)
        from golden_spectra import enumeration
        real_children = enumeration._children
        real_key = enumeration.canonical_key_and_automorphisms

        def counted_children(*args, **kwargs):
            nonlocal children
            out = real_children(*args, **kwargs)
            children += len(out)
            return out

        def counted_key(g):
            nonlocal keys
            keys += 1
            return real_key(g)

        monkeypatch.setattr(enumeration, "_children", counted_children)
        monkeypatch.setattr(enumeration, "canonical_key_and_automorphisms", counted_key)
        for args, expected in (((5, parse_threshold("-2")), 279), ((7, NEG_TAU, (T1,)), 55)):
            children = keys = 0
            census = enumeration.enumerate_signed(*args)
            assert keys == children == expected == sum(len(v) for v in census.by_n.values())

    @pytest.mark.parametrize("census", ["census7", "census6_unforbidden", "census_wide"])
    def test_orbit_pruning_keeps_every_class_and_representative(self, census, request):
        # per parent, the children pruned by the parent's automorphisms
        # against every child: the same keys, and the same first child of
        # each key, so the census and its files cannot change
        from golden_spectra.enumeration import _pattern_cuts
        census = request.getfixturevalue(census)
        threshold = parse_threshold(census.threshold_name)
        cuts = _pattern_cuts(tuple(from_text(p) for p in census.forbidden))
        pruned = 0
        for n in range(1, census.max_n + 1):
            parents = [m.graph for m in census.members(n - 1)] if n > 1 else [signed(0)]
            for parent in parents:
                _, automorphisms = canonical_key_and_automorphisms(parent)
                firsts = []
                for gens in (automorphisms, ()):
                    first: dict = {}
                    for child in children_of(parent, threshold, cuts, True, gens):
                        first.setdefault(canonical_key(child), to_text(child))
                    firsts.append(first)
                assert firsts[0] == firsts[1]
                pruned += bool(automorphisms)
        assert pruned > 10

    def test_disconnected_mode(self):
        census = enumerate_signed(4, NEG_TAU, (T1,), connected=False)
        oracle = brute_force_signed_keys(4, NEG_TAU, (T1,), connected=False)
        for n in range(1, 5):
            assert tuple(m.key for m in census.members(n)) == oracle[n]
        # strictly more classes than the connected census at n >= 2
        connected = enumerate_signed(4, NEG_TAU, (T1,), connected=True)
        assert len(census.members(4)) > len(connected.members(4))


def every_child_keyed(max_n: int, threshold, forbidden=(), connected: bool = True) -> dict:
    """The census levels, vertex count -> members, by the level loop that
    keys every child `_children` makes with no deletion rule and keeps the
    first child of each key: `enumerate_signed` before it skipped children
    by their one-vertex deletions."""
    from golden_spectra.algebra import Elimination, berkowitz_step
    from golden_spectra.enumeration import (
        SignedCensusMember, _children, _Parent, _pattern_cuts, _polynomial_descriptor)
    cuts = _pattern_cuts(tuple(forbidden))
    by_n: dict = {}
    level = [_Parent(signed(0), (), Elimination.start(threshold), (), IntPolynomial.one())]
    for n in range(1, max_n + 1):
        found: dict = {}
        for parent in level:
            for child, row, block in _children(parent.graph, parent.block, cuts, connected,
                                               parent.automorphisms):
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
    return by_n


@pytest.fixture(scope="module")
def census5_golden():
    """The census at -1-tau with no pattern, n <= 5."""
    return enumerate_signed(5, NEG_ONE_MINUS_TAU)


@pytest.fixture(scope="module")
def census5_disconnected():
    """The census at -tau without T1, n <= 5, disconnected graphs included."""
    return enumerate_signed(5, NEG_TAU, (T1,), connected=False)


class TestEarlierDeletion:
    """The census skips a child, unkeyed, when one of its one-vertex
    deletions has a degree code that only earlier members of the level
    have; the lemma in `enumerate_signed` says the census is unchanged."""

    @pytest.mark.parametrize("census", [
        "census7", "census6_unforbidden", "census_wide", "census5_golden",
        "census5_disconnected"])
    def test_census_matches_keying_every_child(self, census, request):
        # each member's key, labelled graph and descriptor, level by level
        census = request.getfixturevalue(census)
        oracle = every_child_keyed(census.max_n, parse_threshold(census.threshold_name),
                                   [from_text(p) for p in census.forbidden], census.connected)
        assert oracle.keys() == census.by_n.keys()
        for n, members in oracle.items():
            assert [(m.key, to_text(m.graph), m.lam) for m in census.members(n)] \
                == [(m.key, to_text(m.graph), m.lam) for m in members]
        assert sum(map(len, oracle.values())) > 50

    def test_guards_keep_first_children(self, census5_golden, monkeypatch):
        # the rule on level 5 of the -1-tau census, as the census runs it,
        # keeps two children that are the first of their classes at n = 6.
        # The first has a deletion whose degree code only earlier members
        # have, but that deletion is disconnected (a rule without the
        # connectivity guard loses 134 classes at n = 6); the second a
        # connected deletion whose code an earlier member has, and a later
        # one too (a rule on the first index loses 2,112)
        from golden_spectra import enumeration
        from golden_spectra.enumeration import _degree_code, _extend
        cases = {"sg 5 +0-4,2-3 -0-1,1-2":
                 ((0, 0, 1, 1, 0), "sg 6 +0-4,2-3,2-5,3-5 -0-1,1-2", "connected"),
                 "sg 5 +0-1,1-2,1-3,2-4,3-4":
                 ((1, 0, 1, -1, 1), "sg 6 +0-1,0-5,1-2,1-3,2-4,2-5,3-4,4-5 -3-5", "last")}
        real_children = enumeration._children
        kept = {}

        def searched_at_the_cases(parent, *args, **kwargs):
            # level 5 is searched at the two parents only
            if parent.vertex_count < 5:
                return real_children(parent, *args, **kwargs)
            if to_text(parent) in cases:
                kept[to_text(parent)] = [r for _, r, _ in real_children(parent, *args, **kwargs)]
            return []

        monkeypatch.setattr(enumeration, "_children", searched_at_the_cases)
        enumeration.enumerate_signed(6, NEG_ONE_MINUS_TAU)
        level = [m.graph for m in census5_golden.members(5)]
        first, last = {}, {}
        for i, g in enumerate(level):
            first.setdefault(_degree_code(signed_adjacency(g).entries), i)
            last[_degree_code(signed_adjacency(g).entries)] = i
        texts = [to_text(g) for g in level]
        for parent, (row, child, guard) in cases.items():
            assert row in kept[parent]
            index = texts.index(parent)
            assert to_text(_extend(level[index], row)) == child
            guarded = 0
            for v in range(5):
                deleted = induced_signed_subgraph(from_text(child),
                                                  [u for u in range(6) if u != v])
                code = _degree_code(signed_adjacency(deleted).entries)
                if is_connected_signed(deleted):
                    assert last[code] >= index
                    guarded += guard == "last" and first[code] < index
                else:
                    guarded += guard == "connected" and last.get(code, index) < index
            assert guarded


def generated_group(generators, n: int) -> set:
    """Every permutation of range(n) in the group the generators generate,
    closed under composition."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


class TestOrbit:
    # `iso.orbit` against the images under every element of the group, for
    # the generators the key search finds

    def test_row_orbits(self, census7):
        from golden_spectra.enumeration import _moved_row
        nontrivial = 0
        for n in range(1, 7):
            for m in census7.members(n):
                _, gens = canonical_key_and_automorphisms(m.graph)
                group = generated_group(gens, n)
                assert all(m.graph.sign(p[a], p[b]) == m.graph.sign(a, b)
                           for p in group for a, b in combinations(range(n), 2))
                inverses = [tuple(sorted(range(n), key=p.__getitem__)) for p in group]
                for row in product((0, 1, -1), repeat=n):
                    images = {tuple(row[q[j]] for j in range(n)) for q in inverses}
                    assert orbit(row, gens, _moved_row) == images
                nontrivial += len(group) > 1
        assert nontrivial > 10

    def test_partition_orbits(self, census7):
        from golden_spectra.enumeration import _moved_partition
        members = [m.graph for ms in exceptional_members(census7).values() for m in ms]
        assert len(members) == 17
        checked = 0
        for s in members:
            _, gens = canonical_key_and_automorphisms(s)
            group = generated_group(gens, s.vertex_count)
            for blocks in partitions_joining(s.vertex_count, s.minus_edges, s.plus_edges):
                classes = frozenset(map(frozenset, blocks))
                images = {frozenset(frozenset(p[v] for v in c) for c in classes)
                          for p in group}
                assert orbit(classes, gens, _moved_partition) == images
                checked += 1
        assert checked > 34

    def test_fat_candidate_orbits(self, fat_classes4):
        # a generator of a fat class moves each candidate (new row of B,
        # the sorted slim neighbourhoods of the fat choice) onto the
        # candidate of an isomorphic child; each child is built here from
        # its candidate, with the first free old fat of each neighbourhood,
        # and its row is read back off its B
        from golden_spectra.enumeration import _moved_fat_row

        def child(parent, element):
            row, named = element
            s, f = parent.slim_count, parent.fat_count
            shared = [sum(v in nbhd for nbhd in named) for v in range(s)]
            adjacent = [a + c for a, c in zip(row, shared)]
            assert set(adjacent) <= {0, 1}
            free, new, fats = list(parent.fat_vertices()), iter((s + 1 + f, s + 2 + f)), []
            for nbhd in named:
                if nbhd:
                    x = next(x for x in free if tuple(sorted(adjacency(parent)[x])) == nbhd)
                    free.remove(x)
                    fats.append(x + 1)
                else:
                    fats.append(next(new))
            edges = [(a, b + 1) if b >= s else (a, b) for a, b in parent.edges]
            g = hoffman(s + 1, f + named.count(()), edges + [(s, x) for x in fats]
                        + [(v, s) for v in range(s) if adjacent[v]])
            assert tuple(b_matrix(g).entries[s][:s]) == row
            return g

        moved = 0
        for s in (1, 2, 3):
            for parent in fat_classes4[s].values():
                _, gens = canonical_key_and_automorphisms(parent)
                old = [tuple(sorted(adjacency(parent)[x])) for x in parent.fat_vertices()]
                choices = {tuple(sorted(c)) for k in (1, 2)
                           for c in combinations(old + [(), ()], k)}
                for named in choices:
                    shared = [sum(v in nbhd for nbhd in named) for v in range(s)]
                    for adjacent in product((0, 1), repeat=s):
                        element = (tuple(a - c for a, c in zip(adjacent, shared)), named)
                        key = canonical_key(child(parent, element))
                        for g in gens:
                            image = child(parent, _moved_fat_row(g, element))
                            assert canonical_key(image) == key
                            moved += 1
        assert moved > 1000


class TestScreen:
    def test_children_match_unscreened_loop(self):
        # the pruned generator against a loop over every new row:
        # connectivity, one exact decision per child, forbidden patterns
        from golden_spectra.enumeration import _extend, _pattern_cuts

        def reference(parent, threshold, forbidden, connected):
            out = []
            for row in product((0, 1, -1), repeat=parent.vertex_count):
                child = _extend(parent, row)
                if connected and not is_connected_signed(child):
                    continue
                if not lambda_min_at_least(signed_adjacency(child).entries, threshold):
                    continue
                if all(contains_induced(child, pat) is None for pat in forbidden):
                    out.append(child)
            return out

        def check(parent, threshold, forbidden):
            connected = is_connected_signed(parent)
            got = children_of(parent, threshold, _pattern_cuts(forbidden), connected, ())
            assert got == reference(parent, threshold, forbidden, connected)
            if not lambda_min_at_least(signed_adjacency(parent).entries, threshold):
                assert got == []
                return None
            return len(got)

        # -1-tau, -1 and 0 skip zero pivots on parents with a kernel there
        rng = random.Random(7)
        cutoffs = ((NEG_TAU, ()), (NEG_TAU, (T1,)), (parse_threshold("-2"), ()),
                   (NEG_ONE_MINUS_TAU, ()), (parse_threshold("-1"), ()),
                   (parse_threshold("0"), ()))
        parents = children = below = 0
        while parents < 36:
            parent = random_signed(rng, rng.randint(1, 6))
            if contains_induced(parent, T1) is not None:
                continue
            parents += 1
            for threshold, forbidden in cutoffs:
                found = check(parent, threshold, forbidden)
                below += found is None
                children += found or 0
        assert children > 1500 and below > 40
        # Q parents with a kernel at -tau: nullity 3 for Q(2,2,4)
        for q in ((2, 2, 4), (1, 1, 5)):
            assert check(make_q(*q), NEG_TAU, (T1,)) > 0
        # the empty parent at a positive cutoff: no entry is reduced, so
        # only the leaf's pending diagonal rejects the one-vertex child
        half = parse_threshold("1/2")
        assert children_of(signed(0), half, (), False, ()) == []
        assert reference(signed(0), half, (), False) == []
        # the pattern-row prune against the whole-graph search, on parents
        # free of every pattern with two or more vertices; a pattern with at
        # most one vertex lies in every child, whatever the parent
        rng = random.Random(8)
        for names in PATTERN_SETS:
            forbidden = tuple(catalog(name) for name in names)
            parents = children = pruned = 0
            while parents < 10:
                parent = random_labelled(rng, rng.randint(0, 6),
                                         rng.choice(((0, 1, -1), (0, 1), (0, -1))))
                if any(pat.vertex_count > 1 and contains_induced(parent, pat) is not None
                       for pat in forbidden):
                    continue
                parents += 1
                for threshold in (NEG_TAU, parse_threshold("-2")):
                    found = check(parent, threshold, forbidden) or 0
                    children += found
                    pruned += (check(parent, threshold, ()) or 0) - found
            if min(pat.vertex_count for pat in forbidden) <= 1:
                assert children == 0 and pruned > 50
            else:
                assert children > 10 and pruned > 10

    def test_patterns_compiled_once_per_parent(self, monkeypatch):
        # no leaf searches the whole child: each P - a is prepared once per
        # generator call, each parent once as a host, and each parent runs
        # one embedding search per pattern vertex, T1 has three
        from golden_spectra import enumeration
        calls = Counter()

        def counted(name):
            real = getattr(enumeration, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(enumeration, name, call)

        def whole_graph(host, pattern):
            raise AssertionError("whole-graph pattern search in a generator")

        for name in ("prepare_host", "prepare_pattern", "prepared_embeddings"):
            counted(name)
        monkeypatch.setattr(enumeration, "contains_induced", whole_graph)
        census = enumeration.enumerate_signed(6, NEG_TAU, (T1,))
        parents = 1 + sum(len(census.members(n)) for n in range(1, 6))
        assert calls == {"prepare_pattern": 3, "prepare_host": parents,
                         "prepared_embeddings": 3 * parents}
        calls.clear()
        labelled = Counter(g.vertex_count
                           for g in enumeration.labelled_signed_graphs(4, NEG_TAU, (T1,)))
        parents = 1 + labelled[1] + labelled[2] + labelled[3]
        assert calls == {"prepare_pattern": 3, "prepare_host": parents,
                         "prepared_embeddings": 3 * parents}
        # the Q extension step checks its base by a whole-graph search
        monkeypatch.setattr(enumeration, "contains_induced", contains_induced)
        calls.clear()
        assert enumeration.verify_extension_step(1, 1, 5)
        assert calls == {"prepare_pattern": 3, "prepare_host": 1,
                         "prepared_embeddings": 3}

    def test_compiled_constraints_match_the_prefix_loop(self, census7):
        # on every prefix the row search reaches, the compiled constraints
        # allow the entries that a loop over each constraint's (position,
        # value) pairs allows
        from golden_spectra.enumeration import (
            _allowed, _forbidden_rows, _grow, _pattern_cuts)
        parents = [(signed(0), (T1,))] + [(m.graph, (T1,)) for ms in census7.by_n.values()
                                          for m in ms]
        parents += [(make_q(*q), (T1,)) for q in ((0, 0, 7), (1, 1, 5), (2, 1, 4))]
        rng = random.Random(9)
        for names in PATTERN_SETS:
            forbidden = tuple(catalog(name) for name in names)
            while sum(f == forbidden for _, f in parents) < 8:
                parent = random_labelled(rng, rng.randint(0, 6), (0, 1, -1))
                if not any(pat.vertex_count > 1 and contains_induced(parent, pat) is not None
                           for pat in forbidden):
                    parents.append((parent, forbidden))
        prefixes = blocked = 0
        for parent, forbidden in parents:
            cuts = _pattern_cuts(forbidden)
            rows, oracle = _forbidden_rows(parent, cuts), forbidden_rows_oracle(parent, cuts)
            block = eliminate(signed_adjacency(parent).entries, NEG_TAU)
            if rows is None or block is None:
                assert rows is oracle is None or block is None
                continue

            def values(prefix):
                nonlocal prefixes, blocked
                want = allowed_oracle(oracle, prefix)
                assert _allowed(rows, prefix) == want
                prefixes += 1
                blocked += 3 - len(want)
                return want

            for _ in _grow(block, 0, values):
                pass
        assert prefixes > 1500 and blocked > 300

    def test_one_table_row_per_searched_parent(self, monkeypatch):
        # the census and the oracle eliminate no parent from scratch but
        # the empty graph: no parent takes the per-entry bordered step, the
        # empty graph's table is empty, and every other searched parent
        # grows the table it shares with its own parent by one row
        from golden_spectra import enumeration
        from golden_spectra.algebra import Elimination
        calls = Counter()

        def counted(name):
            real = getattr(Elimination, name)

            def call(block, *args):
                calls[name, len(block.steps)] += 1
                return real(block, *args)
            monkeypatch.setattr(Elimination, name, call)

        for name in ("_table_row", "extend"):
            counted(name)
        real_eliminate = enumeration.eliminate

        def counted_eliminate(*args):
            calls["eliminate"] += 1
            return real_eliminate(*args)
        monkeypatch.setattr(enumeration, "eliminate", counted_eliminate)
        census = enumerate_signed(6, NEG_TAU, (T1,))
        assert calls == Counter({("_table_row", k): len(census.members(k))
                                 for k in range(1, 6)})
        # the oracle searches the empty graph and each yielded graph on at
        # most three vertices
        calls.clear()
        labelled = Counter(g.vertex_count
                           for g in labelled_signed_graphs(4, NEG_TAU, (T1,)))
        assert calls == Counter({("_table_row", k): labelled[k] for k in range(1, 4)})


class TestInheritedState:
    """The state a census member or a fat class inherits from its parent
    against the same state computed from scratch: the elimination, the
    linear table and, for a census member, the characteristic
    polynomial."""

    def test_every_fat_class_carries_the_elimination_of_its_b(self, monkeypatch):
        # each searched class, s <= 4, comes with the copy of its parent's
        # elimination that accepted its row, holding its parent's table,
        # and its search grows that table by the one missing row
        from golden_spectra import enumeration
        searched = {}
        real_grow = enumeration._grow

        def recorded_grow(block, *args):
            searched.setdefault(id(block), (block, block.table))
            return real_grow(block, *args)

        monkeypatch.setattr(enumeration, "_grow", recorded_grow)
        levels = enumeration.fat_classes(5)
        classes = [hoffman(0, 0)] + [g for s in range(1, 5) for g in levels[s].values()]
        assert len(searched) == len(classes) == 310
        for g, (block, held) in zip(classes, searched.values()):
            fresh = eliminate(b_matrix(g).entries, NEG_ONE_MINUS_TAU)
            assert (block.steps, block.columns, block.divisor) \
                == (fresh.steps, fresh.columns, fresh.divisor)
            assert len(held) == max(g.slim_count - 1, 0)
            assert block.linear_table() == fresh.linear_table()
            assert block.table[:len(held)] == held

    @pytest.mark.parametrize("census", ["census7", "census6_unforbidden", "census_wide"])
    def test_every_member_matches_its_state_from_scratch(self, census, request,
                                                         monkeypatch):
        from golden_spectra import enumeration
        from golden_spectra.enumeration import _extend
        census = request.getfixturevalue(census)
        threshold = parse_threshold(census.threshold_name)
        searched, polys = [], []
        real_children = enumeration._children
        real_descriptor = enumeration._polynomial_descriptor

        def recorded_children(parent, block, *args, **kwargs):
            table = block.table
            out = real_children(parent, block, *args, **kwargs)
            searched.append((parent, block, table, out))
            return out

        def recorded_descriptor(poly):
            polys.append(poly)
            return real_descriptor(poly)

        monkeypatch.setattr(enumeration, "_children", recorded_children)
        monkeypatch.setattr(enumeration, "_polynomial_descriptor", recorded_descriptor)
        again = enumerate_signed(census.max_n, threshold,
                                 [from_text(p) for p in census.forbidden], census.connected)
        assert again.by_n == census.by_n
        members = [m.graph for n in sorted(census.by_n) for m in census.members(n)]
        # every member has its polynomial, and every member below the last
        # level is searched, in census order after the empty graph
        assert polys == [char_poly(signed_adjacency(g)) for g in members]
        assert [parent for parent, _, _, _ in searched] \
            == [signed(0)] + members[:-len(census.members(census.max_n)) or None]

        def scratch(g):
            block = eliminate(signed_adjacency(g).entries, threshold)
            return block.steps, block.columns, block.divisor, block.linear_table()

        children = 0
        for parent, block, table, out in searched:
            # the parent came with its own parent's table, one row short
            # but for the empty graph, and its search grew the last row
            assert table == block.table[:len(table)]
            assert len(table) == max(len(block.steps) - 1, 0)
            assert (block.steps, block.columns, block.divisor, block.table) == scratch(parent)
            for child, row, grown in out:
                assert grown.linear_table()[:-1] == block.table
                assert (grown.steps, grown.columns, grown.divisor, grown.table) == scratch(child)
                assert child == _extend(parent, row)
                children += 1
        # one child per class: the census keys each child it is given
        assert children == len(members)


def code_matrix(n: int, code):
    """The signed adjacency matrix of `labelled(n, code)`, as lists."""
    matrix = [[0] * n for _ in range(n)]
    for (a, b), c in zip(combinations(range(n), 2), code):
        matrix[a][b] = matrix[b][a] = c
    return matrix


def is_breadth_first(matrix) -> bool:
    """Whether the labelling of a signed adjacency matrix gives every
    vertex m >= 1 an earlier neighbour and, with p(m) the least of them,
    p(m-1) <= p(m) for m >= 2, vertex m not joined to p(m) by a (+)-edge
    if p(m-1) == p(m) and vertex m-1 is joined to it by a (-)-edge."""
    firsts = [next(((i, row[i]) for i in range(m) if row[i]), None)
              for m, row in enumerate(matrix) if m]
    if None in firsts:
        return False
    return all(p < q or (p == q and (s, t) != (-1, 1))
               for (p, s), (q, t) in zip(firsts, firsts[1:]))


def breadth_first_relabelling(matrix, root: int):
    """The matrix relabelled in the order of a breadth-first search from
    root that queues each dequeued vertex's undiscovered (+)-neighbours,
    then its (-)-neighbours; None if the search misses a vertex."""
    n = len(matrix)
    order, seen = [root], {root}
    for v in order:
        for sign in (1, -1):
            for u in range(n):
                if u not in seen and matrix[v][u] == sign:
                    seen.add(u)
                    order.append(u)
    if len(order) < n:
        return None
    return [[matrix[a][b] for b in order] for a in order]


class TestBreadthFirstLemma:
    """The lemma the connected oracle rests on, checked apart from the
    generator: every connected signed graph has a breadth-first ordering,
    the one its breadth-first search gives."""

    def test_every_small_connected_graph_relabels_to_one(self):
        # every labelled graph on 1..5 vertices, roots taken in turn
        checked = 0
        for n in range(1, 6):
            for i, code in enumerate(product((0, 1, -1), repeat=n * (n - 1) // 2)):
                relabelled = breadth_first_relabelling(code_matrix(n, code), i % n)
                if relabelled is None:
                    assert not is_connected_signed(labelled(n, code))
                    continue
                assert is_breadth_first(relabelled)
                checked += 1
        assert checked > 30000

    def test_random_connected_graphs_relabel_to_one(self):
        rng = random.Random(27)
        checked = 0
        while checked < 400:
            n = rng.randint(2, 9)
            symbols = rng.choice(((0, 1, -1), (0, 0, 0, 1, -1), (0, 0, 0, 0, 0, 1, -1)))
            g = random_labelled(rng, n, symbols)
            if not is_connected_signed(g):
                continue
            relabelled = breadth_first_relabelling(signed_adjacency(g).entries,
                                                   rng.randrange(n))
            assert relabelled is not None and is_breadth_first(relabelled)
            h = labelled(n, [relabelled[a][b] for a, b in combinations(range(n), 2)])
            assert canonical_key(h) == canonical_key(g)
            checked += 1

    def test_the_rule(self):
        def rule(n, plus, minus=()):
            return is_breadth_first(signed_adjacency(signed(n, plus, minus)).entries)

        assert rule(3, [(0, 1), (0, 2)]) and rule(3, [(0, 1)], [(0, 2)])
        # a (+)-child of 0 after a (-)-child of 0
        assert not rule(3, [(0, 2)], [(0, 1)])
        # p(3) = 0 after p(2) = 1
        assert not rule(4, [(0, 1), (1, 2), (0, 3)])
        # vertex 2 has no earlier neighbour
        assert not rule(3, [(0, 1)])


def connected_labelled_keys(max_n, threshold, forbidden=()):
    """Oracle for the connected oracle: the whole labelled search,
    disconnected survivors included, filtered by `is_connected_signed`."""
    keys = {n: set() for n in range(1, max_n + 1)}
    for g in labelled_signed_graphs(max_n, threshold, forbidden):
        if is_connected_signed(g):
            keys[g.vertex_count].add(canonical_key(g))
    return {n: tuple(sorted(found)) for n, found in keys.items()}


class TestBruteForce:
    def test_matches_enumeration_n6(self):
        oracle = brute_force_signed_keys(6, NEG_TAU, (T1,))
        census = enumerate_signed(6, NEG_TAU, (T1,))
        for n in range(1, 7):
            assert tuple(m.key for m in census.members(n)) == oracle[n]

    def test_matches_census7(self, census7):
        # the n = 7 level that `classify_irreducible` reads, by a second route
        oracle = brute_force_signed_keys(7, NEG_TAU, (T1,))
        assert oracle.keys() == census7.by_n.keys()
        for n in range(1, 8):
            assert tuple(m.key for m in census7.members(n)) == oracle[n]
        assert len(oracle[7]) == 10

    @pytest.mark.parametrize("max_n, threshold, names", [
        (5, "-tau", ("T1",)), (5, "-1", ()), (4, "-2", ()), (4, "-1-tau", ())])
    def test_connected_orderings_match_the_whole_search(self, max_n, threshold, names):
        forbidden = tuple(catalog(name) for name in names)
        t = parse_threshold(threshold)
        assert (brute_force_signed_keys(max_n, t, forbidden)
                == connected_labelled_keys(max_n, t, forbidden))

    def test_breadth_first_orderings(self):
        # every yield is connected and a breadth-first ordering, and every
        # labelled survivor that is one is yielded, once; far fewer than
        # the 1/3/20/228/1834 of the whole search
        found = Counter()
        yielded = list(labelled_signed_graphs(5, NEG_TAU, (T1,), connected=True))
        for g in yielded:
            assert is_breadth_first(signed_adjacency(g).entries)
            assert is_connected_signed(g)
            found[g.vertex_count] += 1
        assert found == {1: 1, 2: 2, 3: 8, 4: 41, 5: 91}
        assert set(yielded) == {g for g in labelled_signed_graphs(5, NEG_TAU, (T1,))
                                if is_breadth_first(signed_adjacency(g).entries)}
        assert len(set(yielded)) == len(yielded)

    def test_oracle_reaches_n8(self):
        # the oracle-checked base case of the Q family: at n = 8 every
        # class is a Q graph
        oracle = brute_force_signed_keys(8, NEG_TAU, (T1,))
        census = enumerate_signed(8, NEG_TAU, (T1,))
        assert oracle.keys() == census.by_n.keys() == set(range(1, 9))
        for n in range(1, 9):
            assert tuple(m.key for m in census.members(n)) == oracle[n]
        assert len(oracle[8]) == 15
        assert exceptional_members(census)[8] == ()

    def test_matches_enumeration_other_cutoffs(self):
        # cutoffs other than -tau, with no pattern to prune by; -1-tau and
        # -1 skip zero pivots
        for max_n, threshold in ((4, "-2"), (4, "-1-tau"), (5, "-1")):
            t = parse_threshold(threshold)
            oracle = brute_force_signed_keys(max_n, t)
            census = enumerate_signed(max_n, t)
            for n in range(1, max_n + 1):
                assert tuple(m.key for m in census.members(n)) == oracle[n]

    def test_labelled_survivor_counts(self):
        # labelled graphs at or above -tau and T1-free, connected or not;
        # a prune that skips the exact test on zero entries lets 252
        # four-vertex graphs through instead of 228
        found = Counter(g.vertex_count
                        for g in labelled_signed_graphs(5, NEG_TAU, (T1,)))
        assert found == {1: 1, 2: 3, 3: 20, 4: 228, 5: 1834}
        for n in range(1, 5):
            pairs = list(combinations(range(n), 2))
            swept = 0
            for code in product((0, 1, 2), repeat=len(pairs)):
                g = signed(n, [p for p, c in zip(pairs, code) if c == 1],
                           [p for p, c in zip(pairs, code) if c == 2])
                if (lambda_min_at_least(signed_adjacency(g).entries, NEG_TAU)
                        and contains_induced(g, T1) is None):
                    swept += 1
            assert swept == found[n]

    @pytest.mark.parametrize("names", PATTERN_SETS)
    def test_labelled_prune_matches_a_whole_graph_sweep(self, names, labelled_sweep):
        forbidden = tuple(catalog(name) for name in names)
        for threshold, above in labelled_sweep.items():
            found = list(labelled_signed_graphs(4, threshold, forbidden))
            assert len(found) == len(set(found))
            assert set(found) == {g for g in above if all(
                contains_induced(g, pat) is None for pat in forbidden)}

    def test_patterns_must_be_edge_signed(self):
        for call in (lambda f: enumerate_signed(3, NEG_TAU, f),
                     lambda f: list(labelled_signed_graphs(3, NEG_TAU, f))):
            for pattern in (catalog("H_I"), catalog("K1T(2)")):
                with pytest.raises(TypeError):
                    call((T1, pattern))

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_signed_keys(9)
        assert brute_force_signed_keys(0) == {}


class TestQRecognition:
    def test_examples(self):
        assert is_q_graph(signed(2, [], [(0, 1)])) == (0, 1, 1)
        assert is_q_graph(make_q(0, 0, 4)) == (0, 0, 4)
        assert is_q_graph(catalog("T1")) is None


class TestExtensionStep:
    def test_examples(self):
        assert verify_extension_step(0, 0, 4)
        assert verify_extension_step(1, 1, 2)
        assert verify_extension_step(0, 0, 0)

    def test_verdict_matches_canonical_keys(self):
        # every admissible child of a base with 7 <= p+q+r <= 8 is T1-free,
        # and its Q shape is a bumped triple exactly when its canonical key
        # is the key of a bumped Q graph
        from golden_spectra.enumeration import _pattern_cuts
        cuts = _pattern_cuts((T1,))
        children = representatives = 0
        for total in (7, 8):
            for r in range((total + 1) // 2, total + 1):
                for p in range(total - r + 1):
                    q = total - r - p
                    bumped = {(p + 1, q, r), (p, q + 1, r), (p, q, r + 1)}
                    keys = {canonical_key(make_q(*b)) for b in bumped if b[0] + b[1] <= b[2]}
                    base = make_q(p, q, r)
                    unpruned = children_of(base, NEG_TAU, cuts, True, ())
                    for child in unpruned:
                        assert contains_induced(child, T1) is None
                        assert (is_q_graph(child) in bumped) == (canonical_key(child) in keys)
                    # one child per orbit under the base's automorphisms
                    gens = canonical_key_and_automorphisms(base)[1]
                    pruned = children_of(base, NEG_TAU, cuts, True, gens)
                    assert {canonical_key(c) for c in pruned} \
                        == {canonical_key(c) for c in unpruned}
                    children += len(unpruned)
                    representatives += len(pruned)
                    assert verify_extension_step(p, q, r)
        assert (children, representatives) == (165, 65)

    def test_eleven_vertex_base(self):
        assert verify_extension_step(3, 2, 6)

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_extension_step(2, 2, 3)
        with pytest.raises(ValueError):
            verify_extension_step(0, 0, 12)


class TestTwoSlim:
    def test_six_graphs(self):
        six = derive_two_slim()
        assert len(six) == 6
        keys = {canonical_key(g) for g in six}
        expected = {canonical_key(catalog(n)) for n in
                    ("H_I", "H_II", "H_III", "H_IV", "H_XVI", "H_XVII")}
        assert keys == expected

    def test_eigenvalue_multiset(self):
        at_threshold = 0
        at_minus_two = 0
        at_minus_one = 0
        for g in derive_two_slim():
            b = b_matrix(g).entries
            if lambda_min_equals(b, NEG_ONE_MINUS_TAU):
                at_threshold += 1
            elif lambda_min_equals(b, parse_threshold("-2")):
                at_minus_two += 1
            elif lambda_min_equals(b, parse_threshold("-1")):
                at_minus_one += 1
        assert (at_minus_one, at_minus_two, at_threshold) == (1, 3, 2)


# SHA-256 of each level of `fat_classes(5)`, its lines "<key hex> <text>"
# joined by newlines
FAT_CLASSES_SHA256 = {
    1: "b437ffe97a44a4b53f1f58fad244e5f375f1a4d9cf51c05d2ca457d0f33b53b0",
    2: "be4de06eee38c716c4f2895325b2044e44d02d1cede015df4286a34b3556473e",
    3: "414622a37671cfa3333f001ae72974ccd494efddddeec3f24899cd761245431b",
    4: "1e681be005ea2d9bd6419d1611560401b709690035568976acf7ab7b1bafebe7",
    5: "bc4bde41693d2223603d4b7c1b2716d4b7c95fbeaeebb6e0102193a13048ee93",
}


def fat_children_from_scratch(parent):
    """Every fat Hoffman graph made by adding one slim vertex to parent:
    joined to any subset of the earlier slim vertices and to one or two
    fat vertices, each an old one or a new one."""
    s, f = parent.slim_count, parent.fat_count
    # the new slim vertex takes id s, so the old fat ids move up by one
    edges = [(a, b + 1) if b >= s else (a, b) for a, b in parent.edges]
    old = tuple(range(s + 1, s + 1 + f))
    new = (s + 1 + f, s + 2 + f)
    fat_choices = ([(a,) for a in old] + list(combinations(old, 2))
                   + [(a, new[0]) for a in old] + [new[:1], new])
    for size in range(s + 1):
        for slims in combinations(range(s), size):
            for fats in fat_choices:
                added = sum(1 for x in fats if x >= new[0])
                yield hoffman(s + 1, f + added,
                              edges + [(v, s) for v in slims] + [(s, x) for x in fats])


def fat_classes_from_scratch(max_slim):
    """Oracle for `fat_classes`: every child built whole, its B computed
    and decided whole, the first child of each key kept.  Returns the
    levels and the number of children at or above -1-tau."""
    levels, level, passing = {}, [hoffman(0, 0)], 0
    for s in range(1, max_slim + 1):
        found = {}
        for parent in level:
            for child in fat_children_from_scratch(parent):
                if lambda_min_at_least(b_matrix(child).entries, NEG_ONE_MINUS_TAU):
                    passing += 1
                    found.setdefault(canonical_key(child), child)
        levels[s] = {k: found[k] for k in sorted(found)}
        level = list(levels[s].values())
    return levels, passing


@pytest.fixture(scope="module")
def from_scratch4():
    return fat_classes_from_scratch(4)


class TestFatClasses:
    def test_matches_the_from_scratch_loop(self, fat_classes4, from_scratch4):
        # the same keys in the same order, and the same representative
        levels, _ = from_scratch4
        assert list(fat_classes4) == list(levels) == [1, 2, 3, 4]
        for s, level in levels.items():
            assert list(fat_classes4[s]) == list(level)
            assert ([to_text(g) for g in fat_classes4[s].values()]
                    == [to_text(g) for g in level.values()])

    def test_level_sizes_to_five_slim(self, fat_classes5):
        assert [len(level) for level in fat_classes5.values()] == [2, 10, 45, 252, 1465]

    def test_representatives_pinned_to_five_slim(self, fat_classes5):
        # each level's keys and representatives, which pruning by the
        # parents' automorphisms must leave as they are
        digests = {s: hashlib.sha256("\n".join(f"{key.hex()} {to_text(g)}"
                                               for key, g in level.items()).encode()).hexdigest()
                   for s, level in fat_classes5.items()}
        assert digests == FAT_CLASSES_SHA256

    def test_special_graphs_match_the_realizations_to_five_slim(self, fat_classes5, census7):
        # a second route to the realizations of the exceptional members
        # with n <= 5: the fat classes grouped by the key of their special
        # graph, which shares no code with `realize_hoffman`'s partitions;
        # the two members without a realization are the special graph of
        # no fat class with at most five slim vertices
        groups: dict = {}
        for level in fat_classes5.values():
            for key, g in level.items():
                groups.setdefault(canonical_key(special_graph(g)), set()).add(key)
        members = [m for n, ms in exceptional_members(census7).items() if n <= 5 for m in ms]
        assert len(members) == 14
        for m in members:
            assert groups.get(m.key, set()) == {canonical_key(h) for h in realize_hoffman(m.graph)}
        assert sorted(to_text(m.graph) for m in members if m.key not in groups) \
            == ["sg 4 +0-3 -0-1,1-2,2-3", "sg 5 +0-4 -0-1,1-2,2-3,3-4"]

    def test_no_parent_eliminated_and_only_accepted_rows_built(
            self, monkeypatch, from_scratch4):
        # B only for the K1T(3) certificate, no parent eliminated from
        # scratch, no whole-matrix decision but that certificate, and a
        # graph built and keyed only for a row the parent's elimination
        # accepts outside the orbit of an accepted row (plus the empty
        # start): 893 keys, per slim count 2 / 14 / 103 / 774, for the
        # 1,362 children at or above -1-tau
        from golden_spectra import enumeration
        calls = Counter()
        keys = Counter()

        def counted(name):
            real = getattr(enumeration, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(enumeration, name, call)

        for name in ("b_matrix", "eliminate", "lambda_min_at_least", "canonical_key",
                     "hoffman"):
            counted(name)
        real_key = enumeration.canonical_key_and_automorphisms

        def keyed(g):
            keys[g.slim_count] += 1
            return real_key(g)
        monkeypatch.setattr(enumeration, "canonical_key_and_automorphisms", keyed)
        levels = enumeration.fat_classes(4)
        parents = 1 + sum(len(levels[s]) for s in (1, 2, 3))
        _, passing = from_scratch4
        assert parents == 58 and passing == 1362
        assert calls == {"b_matrix": 1, "lambda_min_at_least": 1, "hoffman": 894}
        assert keys == {1: 2, 2: 14, 3: 103, 4: 774}

    def test_levels_sorted_by_key_and_at_the_bound(self, fat_classes4):
        for s, level in fat_classes4.items():
            assert list(level) == sorted(level)
            for key, g in level.items():
                assert key == canonical_key(g) and g.slim_count == s
                assert lambda_min_at_least(b_matrix(g).entries, NEG_ONE_MINUS_TAU)

    def test_levels_match_a_labelled_search_up_to_three_slim(self, fat_classes4):
        # every labelled graph: any slim edges, and fat vertices given as a
        # multiset of nonempty slim neighborhoods, one or two per slim vertex
        for s in (1, 2, 3):
            subsets = [c for size in range(1, s + 1) for c in combinations(range(s), size)]
            pairs = list(combinations(range(s), 2))
            keys = set()
            for k in range(1, 2 * s + 1):
                for fats in combinations_with_replacement(subsets, k):
                    degree = Counter(v for sub in fats for v in sub)
                    if any(not 1 <= degree[v] <= 2 for v in range(s)):
                        continue
                    for mask in product((0, 1), repeat=len(pairs)):
                        edges = [p for p, on in zip(pairs, mask) if on]
                        edges += [(v, s + i) for i, sub in enumerate(fats) for v in sub]
                        g = hoffman(s, k, edges)
                        if lambda_min_at_least(b_matrix(g).entries, NEG_ONE_MINUS_TAU):
                            keys.add(canonical_key(g))
            assert keys == set(fat_classes4[s])


def realize_by_signs(s):
    """Oracle for `realize_hoffman`: every set partition of V(s), each pair
    checked against its sign, (+) only across classes and (-) only inside
    one; the same deduplication and order."""
    n = s.vertex_count
    found = {}
    for blocks in set_partitions(n):
        cls = [0] * n
        for bi, block in enumerate(blocks):
            for v in block:
                cls[v] = bi
        edges = []
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                sg = s.sign(i, j)
                if cls[i] == cls[j]:
                    if sg == 1:
                        ok = False
                        break
                    if sg == 0:
                        edges.append((i, j))
                elif sg == -1:
                    ok = False
                    break
                elif sg == 1:
                    edges.append((i, j))
            if not ok:
                break
        if not ok:
            continue
        for bi, block in enumerate(blocks):
            edges.extend((v, n + bi) for v in block)
        g = hoffman(n, len(blocks), edges)
        assert special_graph(g) == s
        if lambda_min_at_least(b_matrix(g).entries, NEG_ONE_MINUS_TAU):
            found.setdefault(canonical_key(g), g)
    return tuple(found[k] for k in sorted(found))


def realize_every_partition(s):
    """Oracle for `realize_hoffman`: one graph built from every partition
    `partitions_joining` lists, none skipped by an automorphism."""
    n = s.vertex_count
    shifted = [[a - (i == j) for j, a in enumerate(row)]
               for i, row in enumerate(signed_adjacency(s).entries)]
    if not lambda_min_at_least(shifted, NEG_ONE_MINUS_TAU):
        return ()
    found = {}
    for blocks in partitions_joining(n, s.minus_edges, s.plus_edges):
        cls = {v: bi for bi, block in enumerate(blocks) for v in block}
        edges = [(i, j) for i, j in combinations(range(n), 2)
                 if (cls[i] == cls[j]) == (s.sign(i, j) == 0)]
        for bi, block in enumerate(blocks):
            edges.extend((v, n + bi) for v in block)
        g = hoffman(n, len(blocks), edges)
        found.setdefault(canonical_key(g), g)
    return tuple(found[k] for k in sorted(found))


class TestRealize:
    def test_matches_every_partition_oracle(self, census7):
        # one graph per orbit of partitions gives the same ordered tuple,
        # representatives included, on the 17 exceptional members
        members = [m.graph for ms in exceptional_members(census7).values() for m in ms]
        assert len(members) == 17
        for s in members:
            assert realize_hoffman(s) == realize_every_partition(s), to_text(s)

    def test_matches_sign_by_sign_oracle(self, census7):
        # the same ordered tuple, representatives included, on the census
        # at the rational cutoff -2 and on the 17 exceptional members
        wide = enumerate_signed(5, parse_threshold("-2"), connected=True)
        graphs = [m.graph for n in range(3, 6) for m in wide.members(n)]
        graphs += [m.graph for members in exceptional_members(census7).values()
                   for m in members]
        assert len(graphs) > 100
        realized = 0
        for s in graphs:
            reals = realize_hoffman(s)
            assert reals == realize_by_signs(s), to_text(s)
            realized += bool(reals)
        assert realized > 20

    def test_bound_decided_once_on_m_minus_i(self, census7, monkeypatch):
        # every graph built from a partition has B = M(s) - I, so one
        # decision on M(s) - I stands for all of them
        from golden_spectra import enumeration
        built = []
        real = enumeration.hoffman

        def recorded(*args):
            built.append(real(*args))
            return built[-1]
        monkeypatch.setattr(enumeration, "hoffman", recorded)
        members = [m.graph for ms in exceptional_members(census7).values() for m in ms]
        realized = partitions = 0
        for s in members:
            built.clear()
            realized += len(realize_hoffman(s))
            m = signed_adjacency(s).entries
            shifted = tuple(tuple(a - (i == j) for j, a in enumerate(row))
                            for i, row in enumerate(m))
            assert all(b_matrix(g).entries == shifted for g in built)
            partitions += len(built)
        # one partition per orbit under the automorphisms of s: one per
        # realization
        assert (len(members), partitions, realized) == (17, 34, 34)
        # a connected graph below -tau: M - I lies below -1-tau, so no
        # partition is built
        built.clear()
        assert realize_hoffman(signed(3, [], [(0, 1), (0, 2), (1, 2)])) == ()
        assert built == []

    def test_q_family_matches_sign_by_sign_oracle(self):
        # the partition search splits the (+)-edges instead of listing every
        # partition and dropping those with a (+)-edge inside a class
        graphs = [make_q(p, q, r) for r in range(1, 8) for p in range(r + 1)
                  for q in range(r + 1 - p) if 3 <= p + q + r <= 7]
        assert len(graphs) > 20
        for s in graphs:
            assert realize_hoffman(s) == realize_by_signs(s), to_text(s)

    def test_plus_clique_builds_one_partition(self, monkeypatch):
        # the all-(+) 12-clique has one realization and one partition to
        # build, not Bell(12) = 4,213,597 to list
        from golden_spectra import enumeration
        built = Counter()
        real = enumeration.hoffman

        def counted(*args):
            built["hoffman"] += 1
            return real(*args)
        monkeypatch.setattr(enumeration, "hoffman", counted)
        start = time.perf_counter()
        reals = realize_hoffman(make_q(0, 0, 12))
        elapsed = time.perf_counter() - start
        assert len(reals) == 1 and built == {"hoffman": 1}
        assert elapsed < 0.1

    def test_all_minus_path(self):
        reals = realize_hoffman(signed(3, [], [(0, 1), (1, 2)]))
        assert len(reals) == 1
        g = reals[0]
        assert (g.slim_count, g.fat_count) == (3, 1)

    def test_plus_triangle_singletons(self):
        reals = realize_hoffman(make_q(0, 0, 3))
        # singleton classes give the triangle with private fats
        shapes = {(g.slim_count, g.fat_count) for g in reals}
        assert (3, 3) in shapes

    def test_round_trip_and_fat_degree(self, classification):
        from golden_spectra.spectral import special_graph
        from golden_spectra.model import fat_neighbors
        for name, member in classification.exceptional[:6]:
            for g in realize_hoffman(member.graph):
                assert is_isomorphic(special_graph(g), member.graph)
                assert all(len(fat_neighbors(g, v)) == 1
                           for v in g.slim_vertices())

    def test_unrealizable_extras(self):
        c4 = signed(4, [(0, 3)], [(0, 1), (1, 2), (2, 3)])
        c5 = signed(5, [(0, 4)], [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert realize_hoffman(c4) == ()
        assert realize_hoffman(c5) == ()

    def test_guards(self):
        with pytest.raises(ValueError):
            realize_hoffman(signed(2, [(0, 1)]))
        with pytest.raises(ValueError):
            realize_hoffman(signed(3, [(0, 1)]))


class TestClassification:
    def test_census15_names(self, classification):
        names = [name for name, _ in classification.exceptional]
        assert names == ["S3.1", "S4.1", "S4.2", "S4.3", "S4.4", "S4.5",
                         "S5.1", "S5.2", "S5.3", "S5.4", "S5.5", "S5.6",
                         "S6.1", "S6.2", "S6.3"]

    def test_lambda_table(self, classification):
        counts = lambda_min_table_check([m for _, m in classification.exceptional])
        assert counts == {"sqrt2": 2, "sqrt17": 3, "cubic": 1, "tau": 9}

    def test_descriptor_classes_by_root_comparison(self, census7):
        # an independent exact route for the class on each descriptor: the
        # smallest root of the characteristic polynomial equals that of the
        # class polynomial and of no other
        classes = {"tau": IntPolynomial((-1, 1, 1)),
                   "sqrt2": IntPolynomial((-2, 0, 1)),
                   "sqrt17": IntPolynomial((-4, -1, 1)),
                   "cubic": IntPolynomial((7, -3, -3, 1))}
        counts = Counter()
        for members in exceptional_members(census7).values():
            for m in members:
                p = char_poly(signed_adjacency(m.graph).entries)
                equal = [name for name, f in classes.items()
                         if compare_smallest_roots(p, f) == 0]
                assert equal == [m.lam.known], to_text(m.graph)
                counts[m.lam.known] += 1
        # the 15 realizable members and the two without a realization
        assert counts == {"tau": 10, "sqrt2": 3, "sqrt17": 3, "cubic": 1}

    def test_unrealizable_reported(self, classification):
        texts = sorted(to_text(m.graph) for m in classification.unrealizable)
        assert texts == ["sg 4 +0-3 -0-1,1-2,2-3",
                         "sg 5 +0-4 -0-1,1-2,2-3,3-4"]

    def test_derived_census_size(self, classification):
        # derived truth: two more members than the expected source count
        assert len(classification.irreducible.members) == 39
        assert len(classification.reducible) == 0
        assert classification.discrepancies == (
            "realization profile at n=6: derived (('cubic', 3), ('tau', 3), "
            "('tau', 7)), expected (('cubic', 3), ('tau', 3), ('tau', 5))",
            "exceptional members without fat realization: "
            "sg 4 +0-3 -0-1,1-2,2-3, sg 5 +0-4 -0-1,1-2,2-3,3-4",
            "irreducible census has 39 members, expected 37",
        )

    def test_source_table_counts(self):
        # the counts the source table implies, pinned as literals
        rows = dict(SOURCE_CLASSIFICATION.realizations)
        classes = Counter(c for row in rows.values() for c, _ in row)
        assert sum(classes.values()) == 15
        assert classes == {"sqrt2": 2, "sqrt17": 3, "cubic": 1, "tau": 9}
        assert {n: len(row) for n, row in rows.items()} == {3: 1, 4: 5, 5: 6, 6: 3}
        two_slim = SOURCE_CLASSIFICATION.two_slim
        irreducible = [name for name, special in two_slim if special is not None]
        assert len(two_slim) == 6
        assert irreducible == ["H_I", "H_II", "H_III", "H_XVI", "H_XVII"]
        realizations = sum(count for row in rows.values() for _, count in row)
        assert len(irreducible) + realizations == 5 + 32 == 37

    def test_two_slim_verdicts_must_match_the_table(self, census7, monkeypatch):
        # a table that marks the reducible H_IV irreducible is refused
        from golden_spectra import enumeration
        two_slim = tuple((name, "Q(0,0,2)" if name == "H_IV" else special)
                         for name, special in SOURCE_CLASSIFICATION.two_slim)
        monkeypatch.setattr(enumeration, "SOURCE_CLASSIFICATION",
                            SOURCE_CLASSIFICATION._replace(two_slim=two_slim))
        with pytest.raises(ClassificationError, match="two-slim"):
            enumeration.classify_irreducible(census7)

    def test_members_sane(self, classification):
        # a second route, member by member, for each fact the census
        # settles where the member is derived
        from golden_spectra.enumeration import lambda_descriptor
        from golden_spectra.model import is_fat
        seen = set()
        for m in classification.irreducible.members:
            b = b_matrix(m.graph).entries
            assert is_fat(m.graph)
            assert is_connected_signed(special_graph(m.graph))
            assert lambda_min_at_least(b, NEG_ONE_MINUS_TAU)
            assert m.lam == lambda_descriptor(b)
            assert m.key == canonical_key(m.graph)
            assert m.key not in seen
            seen.add(m.key)

    def test_each_fact_decided_where_the_member_is_derived(self, census7, monkeypatch):
        # no per-member re-check: one B and one descriptor per two-slim
        # member and per realizable exceptional graph (5 + 15, and the
        # fat-degree cap's B), one key per catalog graph and per
        # realization (6 + 34), one bound decision for the cap and one per
        # exceptional graph (1 + 17), one special graph per class of
        # fat_classes(2) and per realization (12 + 34), and no fatness test
        from golden_spectra import enumeration
        names = ("char_poly", "b_matrix", "lambda_min_at_least", "canonical_key",
                 "special_graph", "is_fat")
        calls = Counter()

        def counted(name):
            real = getattr(enumeration, name, None)

            def call(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(enumeration, name, call, raising=False)

        for name in names:
            counted(name)
        result = enumeration.classify_irreducible(census7)
        assert len(result.irreducible.members) == 39
        assert {name: calls[name] for name in names} == {
            "char_poly": 20, "b_matrix": 21, "lambda_min_at_least": 18,
            "canonical_key": 40, "special_graph": 46, "is_fat": 0}

    def test_census_must_forbid_t1_alone(self):
        # the catalog and the realization profile hold only for the census
        # that forbids T1 alone: no pattern, or one more, is refused
        for forbidden in ((), (T1, catalog("T2"))):
            census = enumerate_signed(7, NEG_TAU, forbidden)
            with pytest.raises(ValueError, match="forbidding T1 alone"):
                classify_irreducible(census)

    def test_fat_degree_bound(self, classification):
        # at the threshold no slim vertex carries three fat neighbors; the
        # one-slim triple star itself drops below
        from golden_spectra.model import fat_neighbors
        from golden_spectra.algebra import lambda_min_at_least
        from golden_spectra.spectral import b_matrix
        for m in classification.irreducible.members:
            g = m.graph
            assert all(len(fat_neighbors(g, v)) <= 2 for v in g.slim_vertices())
        assert not lambda_min_at_least(
            b_matrix(catalog("K1T(3)")).entries, NEG_ONE_MINUS_TAU)

    def test_h61_realizations_pairwise_non_isomorphic_by_brute_force(self, classification):
        # no canonical key: two Hoffman graphs are isomorphic exactly when
        # some slim permutation maps the slim edges onto the other's slim
        # edges and the multiset of fat neighborhoods onto the other's
        def image(g, perm):
            slim_edges = {frozenset((perm[a], perm[b]))
                          for a, b in g.edges if g.is_slim(b)}
            fat_nbhds = sorted(sorted(perm[v] for v in g.slim_vertices() if g.has_edge(v, f))
                               for f in g.fat_vertices())
            return slim_edges, fat_nbhds

        graphs = [m.graph for m in classification.irreducible.members
                  if m.name.startswith("H6.1.")]
        assert len(graphs) == 7 and all(g.slim_count == 6 for g in graphs)
        for g, h in combinations(graphs, 2):
            target = image(h, range(6))
            assert all(image(g, perm) != target for perm in permutations(range(6)))

    def test_small_members_named(self, classification):
        # the catalog graphs, with the special-graph names the census prints
        members = classification.irreducible.members[:5]
        assert [(m.name, m.special_name) for m in members] == [
            ("H_I", "Q(0,0,1)"), ("H_II", "Q(0,0,1)"), ("H_III", "Q(0,1,1)"),
            ("H_XVI", "Q(1,0,1)"), ("H_XVII", "Q(0,1,1)")]
        assert all(m.graph == catalog(m.name) for m in members)

    def test_maximal_members(self, classification, maximal):
        keys = {m.key for m in maximal.members}
        assert len(maximal.members) == 20
        assert canonical_key(catalog("H_XVI")) in keys
        assert canonical_key(catalog("H_XVII")) in keys
        six = [m for m in classification.irreducible.members
               if m.graph.slim_count == 6]
        assert len(six) == 13
        assert all(m.key in keys for m in six)
        # every non-maximal member embeds into some maximal one
        from golden_spectra.iso import contains_induced
        for m in classification.irreducible.members:
            if m.key in keys:
                continue
            assert any(contains_induced(mm.graph, m.graph) is not None
                       for mm in maximal.members)

    def test_forced_maximal_members_are_derived(self, classification):
        # the two-slim members whose B has smallest eigenvalue exactly
        # -1-tau, and the members with the largest slim count: 2 + 13
        from golden_spectra.enumeration import _forced_maximal
        members = classification.irreducible.members
        forced = [m.key for m in _forced_maximal(classification.irreducible)]
        six = {m.key for m in members if m.graph.slim_count == 6}
        assert max(m.graph.slim_count for m in members) == 6 and len(six) == 13
        assert len(forced) == 15
        assert set(forced) == six | {canonical_key(catalog("H_XVI")),
                                     canonical_key(catalog("H_XVII"))}

    def test_degree_profiles(self):
        # H_I embeds in H_II; H_III's fat vertex has two slim neighbours and
        # H_IV's fat vertices one each, so H_III cannot embed in H_IV
        from golden_spectra.enumeration import _degree_profile, _degrees_admit
        profile = {name: _degree_profile(catalog(name))
                   for name in ("H_I", "H_II", "H_III", "H_IV")}
        assert profile["H_III"] == ([1, 1], [2]) and profile["H_IV"] == ([2, 2], [1, 1])
        assert _degrees_admit(profile["H_II"], profile["H_I"])
        assert not _degrees_admit(profile["H_IV"], profile["H_III"])
        assert not _degrees_admit(profile["H_I"], profile["H_II"])


class TestDescriptorMemo:
    def test_memo_matches_an_uncached_computation(self, census_wide, classification):
        # the descriptor is a function of the characteristic polynomial
        # alone: the memoized one equals a fresh computation for every
        # wide member and every irreducible member
        from golden_spectra.enumeration import _polynomial_descriptor, lambda_descriptor
        members = [(m.lam, signed_adjacency(m.graph).entries)
                   for ms in census_wide.by_n.values() for m in ms]
        members += [(m.lam, b_matrix(m.graph).entries)
                    for m in classification.irreducible.members]
        assert len(members) == 279 + 39
        for lam, matrix in members:
            fresh = _polynomial_descriptor.__wrapped__(char_poly(matrix))
            assert lam == lambda_descriptor(matrix) == fresh


def test_three_vertex_diagonal_sweep():
    assert verify_three_vertex_diagonal_lemma()


def test_single_case_of_the_sweep():
    from golden_spectra.algebra import char_poly, count_roots_below
    from golden_spectra.spectral import signed_adjacency
    m = [list(r) for r in signed_adjacency(catalog("T2")).entries]
    for i, d in enumerate((2, 1, 1)):
        m[i][i] -= d
    assert count_roots_below(char_poly(m), NEG_ONE_MINUS_TAU) >= 1
