import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from golden_spectra.model import (
    CatalogError,
    EdgeSignedGraph,
    HoffmanGraph,
    InvalidGraphError,
    ParseError,
    QShape,
    catalog,
    from_text,
    hoffman,
    induced_hoffman_subgraph,
    induced_signed_subgraph,
    is_connected_signed,
    is_fat,
    make_q,
    parse_graph,
    recognize_q,
    signed,
    to_json_obj,
    to_text,
    validate_hoffman,
    validate_signed,
)

from conftest import random_hoffman, random_signed


class TestValidity:
    def test_catalog_members_valid(self):
        for name in ("H_I", "H_II", "H_III", "H_IV", "H_XVI", "H_XVII"):
            assert validate_hoffman(catalog(name)) is None

    def test_fat_fat_edge(self):
        g = hoffman(2, 2, [(2, 3), (0, 2), (1, 3)])
        assert "fat-fat edge" in validate_hoffman(g)

    def test_isolated_fat(self):
        assert "no slim neighbor" in validate_hoffman(hoffman(1, 1, []))

    def test_loop_and_range(self):
        assert "loop" in validate_hoffman(hoffman(2, 0, [(1, 1)]))
        assert "out of range" in validate_hoffman(hoffman(1, 0, [(0, 5)]))

    def test_signed_validity(self):
        assert validate_signed(signed(3, [(0, 1)], [(1, 2)])) is None
        assert "both" in validate_signed(signed(2, [(0, 1)], [(0, 1)]))


class TestCatalog:
    def test_h3(self):
        assert catalog("H_III") == hoffman(2, 1, [(0, 2), (1, 2)])

    def test_k1t(self):
        g = catalog("K1T(3)")
        assert (g.slim_count, g.fat_count) == (1, 3)
        assert len(g.edges) == 3
        k5 = catalog("K1T(5)")
        assert not any(k5.is_slim(a) and k5.is_slim(b) for a, b in k5.edges)

    def test_t1(self):
        t1 = catalog("T1")
        assert t1.plus_edges == frozenset({(0, 1)})
        assert t1.minus_edges == frozenset({(0, 2), (1, 2)})

    def test_errors(self):
        with pytest.raises(CatalogError):
            catalog("H_V")
        with pytest.raises(CatalogError):
            catalog("Q(2,2,3)")
        with pytest.raises(CatalogError):
            catalog("K1T(-1)")

    @pytest.mark.parametrize("name", [
        "Q(\u0661,0,1)", "Q(1_0,0,10)", "Q(1,0,+1)", "Q(1, 0,1)", "K1T(\uff12)",
        "K1T(2 )", "K1T()", "Q(1,,1)"])
    def test_parameters_are_ascii_decimals(self, name):
        # int() would also take other digits, underscores, a sign and spaces
        with pytest.raises(CatalogError, match="ASCII decimals"):
            catalog(name)


class TestMakeQ:
    def test_small(self):
        assert make_q(0, 0, 1).vertex_count == 1
        assert len(make_q(1, 0, 1).plus_edges) == 1
        assert make_q(0, 0, 0).vertex_count == 0

    def test_3_2_6(self):
        q = make_q(3, 2, 6)
        assert q.vertex_count == 11
        assert len(q.plus_edges) == 18
        assert len(q.minus_edges) == 2

    def test_counts_property(self):
        for r in range(0, 7):
            for p in range(0, r + 1):
                for q in range(0, r - p + 1):
                    g = make_q(p, q, r)
                    assert g.vertex_count == p + q + r
                    assert len(g.plus_edges) == r * (r - 1) // 2 + p
                    assert len(g.minus_edges) == q
                    assert validate_signed(g) is None


class TestRecognizeQ:
    def test_examples(self):
        assert recognize_q(signed(2, [], [(0, 1)])).q == 1
        shape = recognize_q(make_q(0, 0, 4))
        assert (shape.p, shape.q, shape.r) == (0, 0, 4)
        assert recognize_q(catalog("T1")) is None

    def test_round_trip(self):
        for r in range(0, 6):
            for p in range(0, r + 1):
                for q in range(0, r - p + 1):
                    shape = recognize_q(make_q(p, q, r))
                    assert shape is not None
                    assert shape.p + shape.q + shape.r == p + q + r

    def test_non_q(self):
        # an unbalanced four-cycle, and a star: three pendants on one anchor
        for text in ("sg 4 +0-3 -0-1,1-2,2-3", "sg 4 +0-1,0-2,0-3"):
            assert recognize_q(from_text(text)) is None

    def test_matches_the_clique_search(self):
        # the degree rule gives the shape of the first maximal all-(+)
        # clique that fits, field by field: every signed graph with at most
        # four vertices, random graphs of every density up to ten vertices,
        # and every Q graph up to twelve, relabelled, and with one pair's
        # sign changed
        graphs = [signed_from(n, dict(zip(pairs, signs)))
                  for n in range(5) for pairs in [list(combinations(range(n), 2))]
                  for signs in product((0, 1, -1), repeat=len(pairs))]
        assert len(graphs) == 1 + 1 + 3 + 27 + 729
        rng = random.Random(18)
        for _ in range(1500):
            n = rng.randint(1, 10)
            density = rng.random()
            plus = [(a, b) for a in range(n) for b in range(a + 1, n)
                    if rng.random() < density]
            minus = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if (a, b) not in plus and rng.random() < 0.3]
            graphs.append(signed(n, plus, minus))
        for r in range(13):
            for p in range(r + 1):
                for q in range(min(r - p, 12 - r - p) + 1):
                    n = p + q + r
                    perm = rng.sample(range(n), n)
                    g = make_q(p, q, r)
                    sign = {tuple(sorted((perm[a], perm[b]))): g.sign(a, b)
                            for a, b in g.all_edges()}
                    graphs.append(signed_from(n, sign))
                    if n >= 2:
                        pair = tuple(sorted(rng.sample(range(n), 2)))
                        sign[pair] = rng.choice([x for x in (0, 1, -1)
                                                 if x != sign.get(pair, 0)])
                        graphs.append(signed_from(n, sign))
        for g in graphs:
            assert recognize_q(g) == clique_search_q(g), to_text(g)


def subset_plus_cliques(s):
    """The maximal all-(+) cliques by the include/exclude recursion over
    every subset that is a clique, largest first, then by the sorted
    clique: the cliques `clique_search_q` tries."""
    n = s.vertex_count
    nbr = [set() for _ in range(n)]
    for a, b in s.plus_edges:
        nbr[a].add(b)
        nbr[b].add(a)
    out = []

    def grow(clique: set, candidates: set):
        if not candidates:
            if all(not clique <= nbr[v] for v in range(n) if v not in clique):
                out.append(tuple(sorted(clique)))
            return
        v = min(candidates)
        grow(clique | {v}, candidates & nbr[v])
        grow(clique, candidates - {v})

    grow(set(), set(range(n)))
    return sorted(set(out), key=lambda c: (-len(c), c))


def clique_search_q(s):
    """The Q shape by clique search, kept as the oracle of `recognize_q`:
    the first maximal all-(+) clique, largest first and then the least
    sorted, whose removal leaves an independent set of single-edge
    pendants with distinct anchors in the clique."""
    n = s.vertex_count
    if n == 0:
        return QShape(0, 0, 0, (), (), ())
    deg = [0] * n
    for a, b in s.all_edges():
        deg[a] += 1
        deg[b] += 1
    for clique in subset_plus_cliques(s):
        cset = set(clique)
        outside = [v for v in range(n) if v not in cset]
        plus_p, minus_p = [], []
        ok = True
        for v in outside:
            if deg[v] != 1:
                ok = False
                break
            anchor = next(u for u in range(n)
                          if s.sign(v, u) != 0)
            if anchor not in cset:
                ok = False
                break
            if s.sign(v, anchor) > 0:
                plus_p.append((v, anchor))
            else:
                minus_p.append((v, anchor))
        if not ok:
            continue
        pa = [a for _, a in plus_p]
        qa = [a for _, a in minus_p]
        if len(set(pa)) != len(pa) or len(set(qa)) != len(qa) or set(pa) & set(qa):
            continue
        p, q, r = len(plus_p), len(minus_p), len(clique)
        if p + q > r:
            continue
        return QShape(p, q, r, clique, tuple(sorted(plus_p)), tuple(sorted(minus_p)))
    return None


def signed_from(n, sign):
    return signed(n, [e for e, x in sign.items() if x > 0],
                  [e for e, x in sign.items() if x < 0])


class TestInduced:
    def test_h4_restriction(self):
        from golden_spectra.iso import is_isomorphic
        sub = induced_hoffman_subgraph(catalog("H_IV"), {0, 2})
        assert is_isomorphic(sub, catalog("H_I"))

    def test_identity(self):
        g = catalog("H_XVI")
        assert induced_hoffman_subgraph(g, range(g.vertex_count)) == g

    def test_isolated_fat_reported(self):
        with pytest.raises(InvalidGraphError):
            induced_hoffman_subgraph(catalog("H_II"), {1})

    def test_signed_restrictions(self):
        from golden_spectra.iso import is_isomorphic
        t1 = catalog("T1")
        assert is_isomorphic(induced_signed_subgraph(t1, {0, 1}), catalog("S21"))
        assert is_isomorphic(induced_signed_subgraph(t1, {0, 2}), catalog("S22"))
        q = make_q(1, 1, 2)
        clique = recognize_q(q).clique
        sub = induced_signed_subgraph(q, clique)
        assert is_isomorphic(sub, make_q(0, 0, 2))

    @given(st.integers(0, 10 ** 6))
    def test_restriction_commutes(self, seed):
        rng = random.Random(seed)
        g = random_hoffman(rng, 7)
        vertices = list(range(g.vertex_count))
        a = set(rng.sample(vertices, rng.randint(0, len(vertices))))
        b = set(rng.sample(sorted(a), rng.randint(0, len(a))))
        try:
            ga = induced_hoffman_subgraph(g, a)
        except InvalidGraphError:
            return
        # map original ids in b through the slim-first relabeling of a
        slims = sorted(v for v in a if g.is_slim(v))
        fats = sorted(v for v in a if not g.is_slim(v))
        remap = {v: i for i, v in enumerate(slims + fats)}
        try:
            direct = induced_hoffman_subgraph(g, b)
        except InvalidGraphError:
            with pytest.raises(InvalidGraphError):
                induced_hoffman_subgraph(ga, {remap[v] for v in b})
            return
        assert induced_hoffman_subgraph(ga, {remap[v] for v in b}) == direct


class TestPredicates:
    def test_is_fat(self):
        assert is_fat(catalog("H_IV"))
        assert not is_fat(hoffman(2, 0, [(0, 1)]))

    def test_connectivity(self):
        assert not is_connected_signed(signed(2))
        assert is_connected_signed(signed(1))
        assert is_connected_signed(make_q(2, 1, 3))


# pieces of both exchange formats, and characters that int() or \d accept
# beyond ASCII decimals
GRAMMAR_TOKENS = ("hg", "sg", " ", "0", "1", "2", "7", "99999999999", "+", "-",
                  ",", "_", "\t", "\u0663", "{", "}", "[", "]", ":", '"n"',
                  '"slim"', '"fat"', '"edges"', '"plus"', '"minus"')
SEED_TEXTS = ("sg 4 +0-1,2-3 -1-2", "hg 2 1 0-1,0-2,1-2", "hg 3 0",
              '{"n": 2, "plus": [[0, 1]]}', '{"slim": 1, "fat": 1, "edges": [[0, 1]]}')


@st.composite
def near_graph_texts(draw):
    """A valid graph text with up to three pieces cut out or put in."""
    text = draw(st.sampled_from(SEED_TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(GRAMMAR_TOKENS + ("",))) + text[at + cut:]
    return text


class TestFormats:
    def test_round_trips(self):
        rng = random.Random(5)
        samples = [catalog("H_IV"), catalog("H_XVI"), make_q(3, 2, 6),
                   catalog("T1"), catalog("S11"), hoffman(1, 0), signed(0)]
        samples += [random_hoffman(rng, 7) for _ in range(20)]
        samples += [random_signed(rng, rng.randint(0, 6)) for _ in range(20)]
        for g in samples:
            if isinstance(g, HoffmanGraph) and validate_hoffman(g) is not None:
                continue
            assert parse_graph(to_text(g)) == g
            assert parse_graph(json.dumps(to_json_obj(g))) == g

    def test_text_rejects(self):
        with pytest.raises(ParseError) as err:
            from_text("sg 3 +0-1 -0-1")
        assert err.value.position > 0
        with pytest.raises(ParseError):
            from_text("hg 1 1")          # isolated fat vertex
        with pytest.raises(ParseError):
            from_text("hg 2 0 0-1 junk")
        with pytest.raises(ParseError):
            from_text("xx 1 2")
        with pytest.raises(ParseError):
            from_text("hg 2 0 0-0")      # loop

    def test_json_rejects(self):
        with pytest.raises(ParseError):
            parse_graph('{"slim": 1, "fat": 1, "edges": []}')
        with pytest.raises(ParseError):
            parse_graph('{"n": 2, "plus": [[0,1]], "minus": [[0,1]]}')
        with pytest.raises(ParseError):
            parse_graph('{"noise": 1}')
        with pytest.raises(ParseError):
            parse_graph('{bad json')

    @pytest.mark.parametrize("text", ["sg 3_0", "hg 1_0 0", "sg +3",
                                      "sg \u0663 +\u0660-\u0661"])
    def test_text_numbers_are_ascii_decimals(self, text):
        # int() and \d would read these as sg 30, hg 10 0, sg 3, sg 3 +0-1
        with pytest.raises(ParseError, match="decimal integer|bad edge token"):
            from_text(text)

    @pytest.mark.parametrize("text", ["sg 3 +", "sg 3 + -", "sg 3 +0-1 -",
                                      "sg 3 +0-1 +1-2", "sg 3 +0-1,0-1", "sg 3 +1-0",
                                      "hg 2 1 2-0,1-2", "hg 2 1 0-2,0-2,1-2"])
    def test_text_rejects_edge_lists_to_text_never_writes(self, text):
        # an empty list, a second list of the same sign, a repeated edge or
        # an edge with its larger end first
        with pytest.raises(ParseError):
            parse_graph(text)

    def test_huge_fat_count_is_checked_edge_by_edge(self):
        with pytest.raises(ParseError, match="fat vertex 1 has no slim neighbor"):
            from_text("hg 1 1000000000000")
        with pytest.raises(ParseError, match="fat vertex 2 has no slim neighbor"):
            parse_graph('{"slim": 1, "fat": 1000000000000, "edges": [[0, 1]]}')

    def test_json_errors_carry_no_position(self):
        with pytest.raises(ParseError) as err:
            parse_graph('{"n": -1}')
        assert err.value.position is None
        assert "at position" not in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_graph('{"n": 1,}')
        assert err.value.position == 8

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        near_graph_texts(),
        st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=12).map("".join),
        st.text(alphabet="".join(GRAMMAR_TOKENS), max_size=16)))
    def test_fuzz_parse_round_trips_or_raises_parse_error(self, text):
        # parsing only: a parsed vertex count may be far too large to build
        # a matrix for
        try:
            g = parse_graph(text)
        except ParseError:
            return
        assert parse_graph(to_text(g)) == g

    def test_text_sorted_deterministic(self):
        g1 = hoffman(2, 1, [(1, 2), (0, 2)])
        g2 = hoffman(2, 1, [(0, 2), (1, 2)])
        assert to_text(g1) == to_text(g2)
