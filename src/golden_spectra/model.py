"""Hoffman graphs and edge-signed graphs.

A Hoffman graph is a simple graph whose vertices are labelled slim or fat;
fat vertices are pairwise non-adjacent and each fat vertex has a slim
neighbor.  An edge-signed graph carries disjoint sets of (+)- and
(-)-edges.  Vertex ids are dense integers with slim vertices first, which
makes the block layout of the reduced matrices positional.

This module holds the two data types, their validity rules, induced
substructures, the constructive catalog of named graphs, and the JSON /
compact-text exchange formats.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Union


class InvalidGraphError(ValueError):
    """A structural rule was violated."""


class CatalogError(ValueError):
    """Unknown catalog name or invalid catalog parameters."""


class ParseError(ValueError):
    """Malformed graph input; carries the character position where one is
    known (compact text, JSON syntax), else None."""

    def __init__(self, message: str, position: Union[int, None] = None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


def _norm_edges(edges: Iterable) -> frozenset:
    out = set()
    for e in edges:
        a, b = e
        a, b = int(a), int(b)
        out.add((a, b) if a <= b else (b, a))
    return frozenset(out)


class HoffmanGraph(NamedTuple):
    """Immutable slim/fat labelled graph.

    Ids 0..slim_count-1 are slim, the rest fat.  Constructing does not
    validate; `validate_hoffman` is the total checking function.
    """

    slim_count: int
    fat_count: int
    edges: frozenset

    @property
    def vertex_count(self) -> int:
        return self.slim_count + self.fat_count

    def is_slim(self, v: int) -> bool:
        return v < self.slim_count

    def slim_vertices(self) -> range:
        return range(self.slim_count)

    def fat_vertices(self) -> range:
        return range(self.slim_count, self.vertex_count)

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a <= b else (b, a)) in self.edges


class EdgeSignedGraph(NamedTuple):
    """Immutable graph with disjoint (+)- and (-)-edge sets."""

    vertex_count: int
    plus_edges: frozenset
    minus_edges: frozenset

    def sign(self, a: int, b: int) -> int:
        e = (a, b) if a <= b else (b, a)
        if e in self.plus_edges:
            return 1
        if e in self.minus_edges:
            return -1
        return 0

    def all_edges(self) -> frozenset:
        return self.plus_edges | self.minus_edges


def hoffman(slim: int, fat: int, edges: Iterable = ()) -> HoffmanGraph:
    return HoffmanGraph(int(slim), int(fat), _norm_edges(edges))


def signed(n: int, plus: Iterable = (), minus: Iterable = ()) -> EdgeSignedGraph:
    return EdgeSignedGraph(int(n), _norm_edges(plus), _norm_edges(minus))


@lru_cache(maxsize=8192)
def adjacency(g: HoffmanGraph) -> tuple:
    """Neighbor sets indexed by vertex id."""
    nbr = [set() for _ in range(g.vertex_count)]
    for a, b in g.edges:
        nbr[a].add(b)
        nbr[b].add(a)
    return tuple(frozenset(s) for s in nbr)


def fat_neighbors(g: HoffmanGraph, v: int) -> frozenset:
    return frozenset(u for u in adjacency(g)[v] if not g.is_slim(u))


# ---------------------------------------------------------------------------
# validity


def validate_hoffman(g: HoffmanGraph) -> Union[str, None]:
    """None if valid, else a description naming the failing rule and witness."""
    if g.slim_count < 0 or g.fat_count < 0:
        return "negative vertex count"
    n = g.vertex_count
    for a, b in sorted(g.edges):
        if a == b:
            return f"loop at vertex {a}"
        if not (0 <= a < n and 0 <= b < n):
            return f"edge ({a},{b}) out of range"
        if not g.is_slim(a) and not g.is_slim(b):
            return f"fat-fat edge ({a},{b})"
    # each edge now has a slim end; it covers its other end if that is fat
    covered = {b for a, b in g.edges if not g.is_slim(b)}
    if len(covered) < g.fat_count:
        f = next(f for f in g.fat_vertices() if f not in covered)
        return f"fat vertex {f} has no slim neighbor"
    return None


def require_valid(g: HoffmanGraph) -> HoffmanGraph:
    msg = validate_hoffman(g)
    if msg is not None:
        raise InvalidGraphError(msg)
    return g


def validate_signed(s: EdgeSignedGraph) -> Union[str, None]:
    if s.vertex_count < 0:
        return "negative vertex count"
    for a, b in sorted(s.plus_edges | s.minus_edges):
        if a == b:
            return f"loop at vertex {a}"
        if not (0 <= a < s.vertex_count and 0 <= b < s.vertex_count):
            return f"edge ({a},{b}) out of range"
    overlap = s.plus_edges & s.minus_edges
    if overlap:
        a, b = min(overlap)
        return f"edge ({a},{b}) is both (+) and (-)"
    return None


def is_fat(g: HoffmanGraph) -> bool:
    """True iff every slim vertex has at least one fat neighbor."""
    return all(fat_neighbors(g, v) for v in g.slim_vertices())


def components(n: int, pairs: Iterable) -> list:
    """The connected components of the graph on range(n) with edges `pairs`:
    sorted blocks, ordered by least vertex."""
    nbr = [[] for _ in range(n)]
    for a, b in pairs:
        nbr[a].append(b)
        nbr[b].append(a)
    seen: set = set()
    out = []
    for v in range(n):
        if v in seen:
            continue
        seen.add(v)
        block, stack = [v], [v]
        while stack:
            for w in nbr[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    block.append(w)
                    stack.append(w)
        out.append(sorted(block))
    return out


def is_connected_signed(s: EdgeSignedGraph) -> bool:
    return len(components(s.vertex_count, s.all_edges())) <= 1


# ---------------------------------------------------------------------------
# induced substructures


def induced_hoffman_subgraph(g: HoffmanGraph, keep: Iterable) -> HoffmanGraph:
    """Induced subgraph on `keep`, slim labels preserved, ids recompacted
    slim-first.  Raises if a kept fat vertex loses all slim neighbors."""
    keep = set(int(v) for v in keep)
    if not keep <= set(range(g.vertex_count)):
        raise InvalidGraphError("keep set contains unknown vertex ids")
    slims = sorted(v for v in keep if g.is_slim(v))
    fats = sorted(v for v in keep if not g.is_slim(v))
    remap = {v: i for i, v in enumerate(slims + fats)}
    edges = [(remap[a], remap[b]) for a, b in g.edges if a in keep and b in keep]
    sub = hoffman(len(slims), len(fats), edges)
    msg = validate_hoffman(sub)
    if msg is not None:
        raise InvalidGraphError(f"induced subgraph invalid: {msg}")
    return sub


def induced_signed_subgraph(s: EdgeSignedGraph, keep: Iterable) -> EdgeSignedGraph:
    keep = sorted(set(int(v) for v in keep))
    if not set(keep) <= set(range(s.vertex_count)):
        raise InvalidGraphError("keep set contains unknown vertex ids")
    remap = {v: i for i, v in enumerate(keep)}
    kset = set(keep)
    plus = [(remap[a], remap[b]) for a, b in s.plus_edges if a in kset and b in kset]
    minus = [(remap[a], remap[b]) for a, b in s.minus_edges if a in kset and b in kset]
    return signed(len(keep), plus, minus)


# ---------------------------------------------------------------------------
# catalog of named graphs


def make_q(p: int, q: int, r: int) -> EdgeSignedGraph:
    """The signed graph with an all-(+) r-clique, p pendant (+)-vertices and
    q pendant (-)-vertices attached to distinct clique vertices.

    Vertices: pendant (+) block 0..p-1, pendant (-) block p..p+q-1, clique
    p+q..p+q+r-1.  Anchors are the first p clique vertices for the (+)
    pendants and the next q for the (-) pendants.
    """
    if p < 0 or q < 0 or r < 0:
        raise CatalogError("parameters must be non-negative")
    if p + q > r:
        raise CatalogError(f"requires p+q <= r, got ({p},{q},{r})")
    base = p + q
    plus = [(base + i, base + j) for i in range(r) for j in range(i + 1, r)]
    plus += [(i, base + i) for i in range(p)]
    minus = [(p + j, base + p + j) for j in range(q)]
    return signed(p + q + r, plus, minus)


def make_k1t(t: int) -> HoffmanGraph:
    """One slim vertex joined to t fat vertices."""
    if t < 0:
        raise CatalogError("t must be non-negative")
    return hoffman(1, t, [(0, 1 + i) for i in range(t)])


_FIXED_CATALOG = {
    # slim ids first, then fats
    "H_I": lambda: hoffman(1, 1, [(0, 1)]),
    "H_II": lambda: hoffman(1, 2, [(0, 1), (0, 2)]),
    "H_III": lambda: hoffman(2, 1, [(0, 2), (1, 2)]),
    "H_IV": lambda: hoffman(2, 2, [(0, 1), (0, 2), (1, 3)]),
    # derived shapes, confirmed by the exhaustive two-slim derivation:
    # H_XVI: slim edge, one endpoint with two private fats, the other with one
    # H_XVII: non-adjacent slims sharing a fat, one with an extra private fat
    "H_XVI": lambda: hoffman(2, 3, [(0, 1), (0, 2), (0, 3), (1, 4)]),
    "H_XVII": lambda: hoffman(2, 2, [(0, 2), (1, 2), (0, 3)]),
    "T1": lambda: signed(3, [(0, 1)], [(0, 2), (1, 2)]),
    "T2": lambda: signed(3, [(0, 2), (1, 2)], [(0, 1)]),
    "S11": lambda: signed(1),
    "S21": lambda: signed(2, [(0, 1)]),
    "S22": lambda: signed(2, [], [(0, 1)]),
}

_PARAM_RE = re.compile(r"^(K1T|Q)\(([^)]*)\)$")

# The most vertices a catalog family member may have, and the largest
# matrix `spectrum` and `check` build; the census graphs have at most 12.
MAX_MATRIX_ORDER = 64


def catalog(name: str):
    """Named graph lookup: H_I..H_IV, H_XVI, H_XVII, T1, T2, S11, S21, S22,
    K1T(t), Q(p,q,r)."""
    name = name.strip()
    if name in _FIXED_CATALOG:
        return _FIXED_CATALOG[name]()
    m = _PARAM_RE.match(name)
    if m:
        params = m.group(2).split(",")
        if not all(re.fullmatch(_DECIMAL, x) for x in params):
            raise CatalogError(f"bad parameters in {name!r}: expected ASCII decimals")
        try:
            args = [int(x) for x in params]
        except ValueError as exc:  # more digits than int() accepts
            raise CatalogError(f"bad parameters in {name!r}") from exc
        k1t = m.group(1) == "K1T"
        if len(args) != (1 if k1t else 3):
            raise CatalogError("K1T takes one parameter" if k1t else "Q takes three parameters")
        if sum(args) + k1t > MAX_MATRIX_ORDER:
            raise CatalogError(f"{name} has more than {MAX_MATRIX_ORDER} vertices")
        return make_k1t(*args) if k1t else make_q(*args)
    raise CatalogError(f"unknown catalog name {name!r}")


# ---------------------------------------------------------------------------
# structural recognition of the Q family


class QShape(NamedTuple):
    """A witnessed match of an edge-signed graph against Q(p,q,r):
    the clique, and pendant-anchor pairs by sign."""

    p: int
    q: int
    r: int
    clique: tuple
    plus_pendants: tuple   # (pendant, anchor) pairs
    minus_pendants: tuple


def q_shape(s: EdgeSignedGraph, clique: Iterable) -> Union[QShape, None]:
    """The Q shape of s on the given clique, or None unless the clique is
    all-(+) and every other vertex is a pendant: it has exactly one
    neighbour, that neighbour lies in the clique, and no two pendants share
    it.  Distinct anchors in the clique give p + q <= r."""
    clique = tuple(sorted(clique))
    if any(s.sign(a, b) != 1 for a, b in combinations(clique, 2)):
        return None
    nbr: list = [[] for _ in range(s.vertex_count)]
    for a, b in s.all_edges():
        nbr[a].append(b)
        nbr[b].append(a)
    inside = set(clique)
    outside = [v for v in range(s.vertex_count) if v not in inside]
    if any(len(nbr[v]) != 1 for v in outside):
        return None
    pendants = [(v, nbr[v][0]) for v in outside]
    anchors = {a for _, a in pendants}
    if not anchors <= inside or len(anchors) < len(pendants):
        return None
    plus = tuple(sorted((v, a) for v, a in pendants if s.sign(v, a) > 0))
    minus = tuple(sorted((v, a) for v, a in pendants if s.sign(v, a) < 0))
    return QShape(len(plus), len(minus), len(clique), clique, plus, minus)


def recognize_q(s: EdgeSignedGraph) -> Union[QShape, None]:
    """Match s against Q(p,q,r): the first clique, largest first and then
    the least sorted, on which `q_shape` holds.

    The clique is read off the degrees.  In a Q shape a vertex outside the
    clique has degree 1, and a clique vertex has degree r - 1 + a, where a
    is 1 if it anchors a pendant and 0 if not.  A clique vertex of degree
    at most 1 therefore has r <= 1, so p + q <= 1 and n <= 2, or r = 2 and
    a = 0, so that only the other clique vertex can anchor and n <= 3.
    Hence for n >= 4 every clique vertex has degree >= 2, and the clique is
    exactly the set of vertices of degree >= 2: the only candidate.

    For n <= 3 every vertex subset is tried, largest first and then the
    least sorted, at most eight of them.  The first that holds is a maximal
    all-(+) clique.  Say v lies outside a clique C that holds and is joined
    by (+)-edges to all of C.  Then v is a pendant, with its one neighbour
    in C, so C = {c}; anchors are distinct, so v is the only pendant, and
    C + v, the whole graph, comes earlier and holds too.  So the shape is
    that of the first maximal all-(+) clique that holds, in the same
    order, and the parameters of small ambiguous graphs are deterministic."""
    n = s.vertex_count
    if n >= 4:
        degree = [0] * n
        for a, b in s.all_edges():
            degree[a] += 1
            degree[b] += 1
        return q_shape(s, [v for v in range(n) if degree[v] >= 2])
    return next((shape for size in range(n, -1, -1)
                 for clique in combinations(range(n), size)
                 if (shape := q_shape(s, clique)) is not None), None)


# ---------------------------------------------------------------------------
# exchange formats


def to_json_obj(g) -> dict:
    if isinstance(g, HoffmanGraph):
        return {
            "slim": g.slim_count,
            "fat": g.fat_count,
            "edges": sorted([a, b] for a, b in g.edges),
        }
    if isinstance(g, EdgeSignedGraph):
        return {
            "n": g.vertex_count,
            "plus": sorted([a, b] for a, b in g.plus_edges),
            "minus": sorted([a, b] for a, b in g.minus_edges),
        }
    raise TypeError(f"not a graph: {g!r}")


def _json_int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _json_pairs(obj: dict, key: str) -> list:
    pairs = obj.get(key, [])
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ParseError(f"{key!r} must be a list of vertex pairs")
    return [tuple(_json_int(v, f"{key!r} endpoint") for v in pair) for pair in pairs]


def from_json_obj(obj):
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    if "slim" in obj:
        g = hoffman(_json_int(obj["slim"], "'slim'"),
                    _json_int(obj.get("fat"), "'fat'"), _json_pairs(obj, "edges"))
        msg = validate_hoffman(g)
        if msg is not None:
            raise ParseError(msg)
        return g
    if "n" in obj:
        s = signed(_json_int(obj["n"], "'n'"),
                   _json_pairs(obj, "plus"), _json_pairs(obj, "minus"))
        msg = validate_signed(s)
        if msg is not None:
            raise ParseError(msg)
        return s
    raise ParseError("object is neither a Hoffman nor an edge-signed graph")


def to_text(g) -> str:
    """Compact one-line form: 'hg n_s n_f a-b,...' / 'sg n +a-b,... -a-b,...'."""
    if isinstance(g, HoffmanGraph):
        parts = [f"hg {g.slim_count} {g.fat_count}"]
        if g.edges:
            parts.append(",".join(f"{a}-{b}" for a, b in sorted(g.edges)))
        return " ".join(parts)
    if isinstance(g, EdgeSignedGraph):
        parts = [f"sg {g.vertex_count}"]
        if g.plus_edges:
            parts.append("+" + ",".join(f"{a}-{b}" for a, b in sorted(g.plus_edges)))
        if g.minus_edges:
            parts.append("-" + ",".join(f"{a}-{b}" for a, b in sorted(g.minus_edges)))
        return " ".join(parts)
    raise TypeError(f"not a graph: {g!r}")


# counts and endpoints are ASCII decimals: int() also takes a sign,
# underscores and surrounding whitespace, and int() and \d take other digits
_DECIMAL = "[0-9]+"


def _parse_count(token: str, what: str, position: int) -> int:
    if not re.fullmatch(_DECIMAL, token):
        raise ParseError(f"{what} must be a decimal integer, got {token!r}", position)
    return int(token)


def _parse_pairs(text: str, offset: int) -> list:
    """Edge tokens 'a-b'; like `to_text`, each edge at most once and with
    its smaller end first (the constructors fold the other forms)."""
    pairs = []
    if not text:
        return pairs
    seen = set()
    pos = offset
    for token in text.split(","):
        m = re.fullmatch(f"({_DECIMAL})-({_DECIMAL})", token)
        if not m:
            raise ParseError(f"bad edge token {token!r}", pos)
        pair = (int(m.group(1)), int(m.group(2)))
        if pair[0] > pair[1]:
            raise ParseError(f"reversed edge {token!r}", pos)
        if pair in seen:
            raise ParseError(f"repeated edge {token!r}", pos)
        seen.add(pair)
        pairs.append(pair)
        pos += len(token) + 1
    return pairs


def from_text(line: str):
    """Parse the compact one-line form; raises ParseError with positions."""
    stripped = line.strip()
    tokens = stripped.split(" ")
    if not tokens or tokens[0] not in ("hg", "sg"):
        raise ParseError("line must start with 'hg' or 'sg'", 0)
    if tokens[0] == "hg":
        if len(tokens) < 3:
            raise ParseError("expected 'hg n_s n_f [edges]'", len(tokens[0]))
        ns = _parse_count(tokens[1], "slim count", len("hg "))
        nf = _parse_count(tokens[2], "fat count", len("hg ") + len(tokens[1]) + 1)
        offset = len(" ".join(tokens[:3])) + 1
        pairs = _parse_pairs(tokens[3], offset) if len(tokens) > 3 else []
        if len(tokens) > 4:
            raise ParseError("unexpected trailing tokens", offset)
        g = hoffman(ns, nf, pairs)
        msg = validate_hoffman(g)
        if msg is not None:
            raise ParseError(msg, offset)
        return g
    if len(tokens) < 2:
        raise ParseError("expected 'sg n [+edges] [-edges]'", len(tokens[0]))
    n = _parse_count(tokens[1], "vertex count", len("sg "))
    lists = {}
    offset = len(" ".join(tokens[:2])) + 1
    for token in tokens[2:]:
        kind = token[:1]
        if kind not in ("+", "-"):
            raise ParseError(f"edge list must start with '+' or '-', got {token!r}",
                             offset)
        # to_text writes each list at most once and never an empty one
        if kind in lists:
            raise ParseError(f"second '{kind}' edge list", offset)
        if len(token) == 1:
            raise ParseError(f"empty '{kind}' edge list", offset)
        lists[kind] = _parse_pairs(token[1:], offset + 1)
        offset += len(token) + 1
    s = signed(n, lists.get("+", ()), lists.get("-", ()))
    msg = validate_signed(s)
    if msg is not None:
        raise ParseError(msg, offset)
    return s


def parse_graph(text: str):
    """Parse either exchange format (JSON object or compact text)."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.pos) from exc
        except ValueError as exc:  # an integer longer than int() accepts
            raise ParseError(f"bad JSON: {exc}") from exc
        except RecursionError as exc:  # arrays or objects nested past the stack
            raise ParseError("bad JSON: nested too deeply") from exc
        return from_json_obj(obj)
    return from_text(stripped)
