"""Matrices attached to graphs: the reduced slim-vertex matrix B, the
signed adjacency matrix M, the fat-degree diagonal D, and the special
graph construction connecting them.

The smallest eigenvalue of a Hoffman graph is by definition the smallest
eigenvalue of B = A_s - C C^T, where A_s is the slim-slim adjacency block
and C the slim-fat incidence block.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import (
    EdgeSignedGraph,
    HoffmanGraph,
    fat_neighbors,
    require_valid,
    signed,
)


class PreconditionError(ValueError):
    """A stated matrix-identity hypothesis does not hold for the input."""


class BMatrix(NamedTuple):
    """Reduced matrix on slim vertices, compared and hashed by its entries."""

    entries: tuple


class SignedAdjacency(NamedTuple):
    """{-1,0,1} adjacency of an edge-signed graph, compared and hashed by
    its entries."""

    entries: tuple


def b_matrix(g: HoffmanGraph) -> BMatrix:
    """Entries computed combinatorially: diagonal -|N^f(x)|, off-diagonal
    A_xy - |N^f(x) n N^f(y)|.  `b_matrix_by_product` is the independent
    cross-check route."""
    require_valid(g)
    fats = [fat_neighbors(g, v) for v in g.slim_vertices()]
    n = g.slim_count
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(-len(fats[i]))
            else:
                row.append(int(g.has_edge(i, j)) - len(fats[i] & fats[j]))
        rows.append(tuple(row))
    return BMatrix(tuple(rows))


def b_matrix_by_product(g: HoffmanGraph) -> tuple:
    """B = A_s - C C^T computed literally from the adjacency blocks."""
    require_valid(g)
    n, f = g.slim_count, g.fat_count
    a_s = [[int(g.has_edge(i, j)) if i != j else 0 for j in range(n)] for i in range(n)]
    c = [[int(g.has_edge(i, n + k)) for k in range(f)] for i in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(a_s[i][j] - sum(c[i][k] * c[j][k] for k in range(f)))
        rows.append(tuple(row))
    return tuple(rows)


def signed_adjacency(s: EdgeSignedGraph) -> SignedAdjacency:
    n = s.vertex_count
    rows = tuple(
        tuple(s.sign(i, j) if i != j else 0 for j in range(n)) for i in range(n)
    )
    return SignedAdjacency(rows)


def d_matrix(g: HoffmanGraph) -> tuple:
    """Diagonal matrix of fat degrees of the slim vertices."""
    require_valid(g)
    n = g.slim_count
    return tuple(
        tuple(len(fat_neighbors(g, i)) if i == j else 0 for j in range(n))
        for i in range(n)
    )


def special_graph(g: HoffmanGraph) -> EdgeSignedGraph:
    """Edge-signed graph on the slim vertices: (+) for adjacent pairs with
    disjoint fat neighborhoods, (-) for non-adjacent pairs with a common
    fat neighbor.  Total; defined even when pairs share two fats."""
    require_valid(g)
    fats = [fat_neighbors(g, v) for v in g.slim_vertices()]
    plus, minus = [], []
    n = g.slim_count
    for i in range(n):
        for j in range(i + 1, n):
            shared = fats[i] & fats[j]
            if g.has_edge(i, j):
                if not shared:
                    plus.append((i, j))
            elif shared:
                minus.append((i, j))
    return signed(n, plus, minus)


def check_msbd(g: HoffmanGraph) -> bool:
    """Entrywise identity M(special graph) == B + D.

    Requires that distinct slim vertices share at most one fat neighbor;
    violations raise with the offending pair."""
    require_valid(g)
    fats = [fat_neighbors(g, v) for v in g.slim_vertices()]
    n = g.slim_count
    for i in range(n):
        for j in range(i + 1, n):
            if len(fats[i] & fats[j]) > 1:
                raise PreconditionError(
                    f"slim vertices {i} and {j} share {len(fats[i] & fats[j])} fat neighbors"
                )
    m = signed_adjacency(special_graph(g)).entries
    b = b_matrix(g).entries
    d = d_matrix(g)
    return all(
        m[i][j] == b[i][j] + d[i][j] for i in range(n) for j in range(n)
    )
