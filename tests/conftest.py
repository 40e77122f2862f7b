import random

import pytest

from golden_spectra import (
    catalog,
    classify_irreducible,
    enumerate_signed,
    hoffman,
    maximal_members,
    signed,
)
from golden_spectra.algebra import NEG_TAU, parse_threshold
from golden_spectra.enumeration import fat_classes


@pytest.fixture(scope="session")
def census7():
    return enumerate_signed(7, NEG_TAU, (catalog("T1"),), connected=True)


@pytest.fixture(scope="session")
def census6_unforbidden():
    return enumerate_signed(6, NEG_TAU)


@pytest.fixture(scope="session")
def census_wide():
    return enumerate_signed(5, parse_threshold("-2"))


@pytest.fixture(scope="session")
def classification(census7):
    return classify_irreducible(census7)


@pytest.fixture(scope="session")
def maximal(classification):
    return maximal_members(classification.irreducible)


@pytest.fixture(scope="session")
def fat_classes4():
    return fat_classes(4)


@pytest.fixture(scope="session")
def fat_classes5():
    return fat_classes(5)


def random_hoffman(rng: random.Random, max_vertices: int = 8):
    """A uniform-ish random valid Hoffman graph: fat vertices pairwise
    non-adjacent, each with at least one slim neighbor."""
    while True:
        total = rng.randint(1, max_vertices)
        ns = rng.randint(1, total)
        nf = total - ns
        edges = set()
        for a in range(ns):
            for b in range(a + 1, ns):
                if rng.random() < 0.5:
                    edges.add((a, b))
        ok = True
        for f in range(ns, ns + nf):
            nbrs = [v for v in range(ns) if rng.random() < 0.5]
            if not nbrs:
                ok = False
                break
            edges.update((v, f) for v in nbrs)
        if ok:
            return hoffman(ns, nf, edges)


def random_signed(rng: random.Random, n: int):
    plus, minus = [], []
    for a in range(n):
        for b in range(a + 1, n):
            roll = rng.random()
            if roll < 1 / 3:
                plus.append((a, b))
            elif roll < 2 / 3:
                minus.append((a, b))
    return signed(n, plus, minus)
