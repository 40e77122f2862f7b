import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, count, product
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from golden_spectra.algebra import (
    NEG_ONE_MINUS_TAU,
    NEG_TAU,
    AlgebraError,
    Elimination,
    _semidefinite_nullity,
    _sign_at_golden_scaled,
    _sign_root5,
    _sturm_chain,
    _variations,
    as_int_rows,
    berkowitz_step,
    IntPolynomial,
    Threshold,
    char_poly,
    compare_smallest_roots,
    count_roots_below,
    deflate,
    isolate_smallest_root,
    lambda_min_approx,
    lambda_min_at_least,
    lambda_min_equals,
    parse_threshold,
    root_bound,
    squarefree_decomposition,
    squarefree_part,
)

TAU = (1 + 5 ** 0.5) / 2
DESCRIPTOR_WIDTH = Fraction(1, 2 * 10 ** 9)


def rand_symmetric(rng, n, lo=-1, hi=1):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def det_exact(matrix) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(a) for a in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return int(det)


def linear_table_by_units(block):
    """The linear table built one unit row e_i at a time, each reduced
    entry by entry, kept as the oracle of the row-by-row fold."""
    n = len(block.steps)
    units = []
    for i in range(n):
        xs = ys = (0,) * i
        for j in range(i, n):
            x, y = block._reduced(int(i == j), xs, ys)
            xs += (x,)
            ys += (y,)
        units.append((xs, ys))
    return tuple((tuple(units[i][0][j] for i in range(j + 1)),
                  tuple(units[i][1][j] for i in range(j + 1))) for j in range(n))


def fraction_try_div(p, divisor):
    """The long division in Fractions that the integer one replaced."""
    if p.is_zero():
        return p
    if p.degree < divisor.degree:
        return None
    rem = [Fraction(c) for c in p.coeffs]
    dv = divisor.coeffs
    q = [Fraction(0)] * (len(rem) - len(dv) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(dv) - 1] / dv[-1]
        for j, d in enumerate(dv):
            rem[k + j] -= q[k] * d
    if any(rem) or any(c.denominator != 1 for c in q):
        return None
    return IntPolynomial(int(c) for c in q)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_count_below(chain, x: Fraction) -> int:
    """Distinct real roots of chain[0] below x, which is not one, by
    evaluating each polynomial of the Sturm chain in Fractions."""
    at_inf = (sign(q[-1]) * (-1) ** (len(q) - 1) for q in chain)
    return _variations(at_inf) - _variations(sign(IntPolynomial(q)(x)) for q in chain)


def count_roots_in_interval(p, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi); neither end is a root."""
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    assert sf(lo) and sf(hi), "interval ends must not be roots"
    chain = _sturm_chain(list(sf.coeffs))
    return sturm_count_below(chain, hi) - sturm_count_below(chain, lo)


def fraction_isolation(p, max_width: Fraction) -> tuple:
    """The bisection that the integer one replaced: Fractions throughout,
    the Sturm count at every step, and as sample point the midpoint or,
    when that is a root, the first non-root j/k of the way, k = 3, 4, ..."""
    sf = squarefree_part(p)
    chain = _sturm_chain(list(sf.coeffs))
    lo, hi = -root_bound(sf), root_bound(sf)
    below = sturm_count_below(chain, hi)
    assert below
    while below > 1 or hi - lo > max_width:
        mid = next(x for k in count(2) for j in range(1, k)
                   if sf(x := lo + (hi - lo) * Fraction(j, k)))
        n = sturm_count_below(chain, mid)
        if n == 0:
            lo = mid
        else:
            hi, below = mid, n
    return lo, hi


def poly_with_roots(roots) -> IntPolynomial:
    p = IntPolynomial((1,))
    for r in roots:
        p = p * IntPolynomial((-r.numerator, r.denominator))
    return p


class TestGoldenNumber:
    """Exact signs of numbers a + b*sqrt5 (`_sign_root5`)."""

    def test_sign_examples(self):
        assert _sign_root5(0, 0) == 0
        # (-3 + sqrt5)/2 < 0 since 5 < 9
        assert _sign_root5(Fraction(-3, 2), Fraction(1, 2)) == -1
        # (sqrt5 - 2)/2 > 0 since 5 > 4
        assert _sign_root5(-1, Fraction(1, 2)) == 1

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_sign_matches_float(self, a, b):
        for x, y in ((a, b), (Fraction(a, 7), Fraction(b, 9))):
            approx = float(x) + float(y) * 5 ** 0.5
            if abs(approx) > 1e-6:
                assert _sign_root5(x, y) == (1 if approx > 0 else -1)
            else:
                assert _sign_root5(x, y) == 0 == a == b

    def test_ordering(self):
        # tau > 1 and -tau < -3/2, as signs of the differences
        assert _sign_root5(Fraction(-1, 2), Fraction(1, 2)) == 1
        assert _sign_root5(1, Fraction(-1, 2)) == -1
        # -1-tau < -tau, from their scaled integers
        (c1, d1, e1), (c2, d2, e2) = NEG_ONE_MINUS_TAU.scaled, NEG_TAU.scaled
        assert _sign_root5(Fraction(c1, e1) - Fraction(c2, e2),
                           Fraction(d1, e1) - Fraction(d2, e2)) == -1


class TestPolynomials:
    def test_str(self):
        assert str(IntPolynomial((1, 3, 1))) == "1 + 3*x + 1*x^2"
        assert str(IntPolynomial(())) == "0"

    def test_arithmetic(self):
        x = IntPolynomial((0, 1))
        p = (x + 1) * (x - 1)
        assert p == IntPolynomial((-1, 0, 1))
        assert (x ** 3).degree == 3
        assert p(2) == 3
        assert p.derivative() == IntPolynomial((0, 2))

    def test_copy_and_pickle_round_trip(self, census7, classification):
        # the immutable polynomial is rebuilt from its coefficients, so the
        # cutoffs and eigenvalue descriptors that hold one copy and pickle,
        # and so does every value type holding graphs, keys and matrices
        from golden_spectra.decomp import split_by_special_components
        from golden_spectra.model import hoffman, make_q, recognize_q
        from golden_spectra.spectral import b_matrix
        member = census7.by_n[7][0]
        g = hoffman(2, 1, [(0, 2), (1, 2)])
        for obj in (IntPolynomial((-1, 1, 1)), IntPolynomial(()), NEG_TAU, member.lam,
                    g, member.graph, member.key, member, classification.irreducible.members[0],
                    split_by_special_components(hoffman(2, 2, [(0, 2), (1, 3)])),
                    recognize_q(make_q(1, 1, 2)), b_matrix(g)):
            for back in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert back == obj and hash(back) == hash(obj)
        for obj, field in ((NEG_TAU.min_poly, "coeffs"), (NEG_TAU, "name"), (g, "edges"),
                           (member, "key"), (member.key, "data")):
            with pytest.raises(AttributeError):
                setattr(copy.deepcopy(obj), field, None)

    def test_value_type_reprs_and_key_order(self, census7):
        from golden_spectra.iso import CanonicalKey, canonical_key
        from golden_spectra.model import hoffman, signed
        g = hoffman(2, 1, [(0, 2), (1, 2)])
        assert repr(g) == "HoffmanGraph(slim_count=2, fat_count=1, edges=frozenset({(0, 2), (1, 2)}))"
        assert repr(signed(3, [(0, 1)], [(1, 2)])) == ("EdgeSignedGraph(vertex_count=3, "
                                                       "plus_edges=frozenset({(0, 1)}), "
                                                       "minus_edges=frozenset({(1, 2)}))")
        # keys order as their bytes do
        keys = [m.key for n in census7.by_n for m in census7.by_n[n]]
        keys += [canonical_key(g), CanonicalKey(b""), CanonicalKey(b"\x00"), CanonicalKey(b"\xff")]
        assert [k.data for k in sorted(keys)] == sorted(k.data for k in keys)
        assert all((a < b) == (a.data < b.data) for a in keys for b in keys)

    def test_divexact(self):
        p = IntPolynomial((-1, 1, 1)) * IntPolynomial((5, 7))
        assert p.divexact(IntPolynomial((5, 7))) == IntPolynomial((-1, 1, 1))
        assert p.try_div(IntPolynomial((1, 1))) is None

    def test_try_div_in_integers(self):
        x = IntPolynomial((0, 1))
        # exact over Q but not over Z: the quotient x/2 is not integral
        assert (2 * x * (x + 1)).try_div(4 * x + 4) is None
        assert (x * x + 1).try_div(2 * x) is None
        assert (6 * x * x - 3).try_div(IntPolynomial((3,))) == 2 * x * x - 1
        assert IntPolynomial.zero().try_div(x) == IntPolynomial.zero()
        assert x.try_div(x * x) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
           st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any),
           st.lists(st.integers(-3, 3), max_size=3),
           st.sampled_from((1, -1, 2, 3, -4)))
    def test_try_div_matches_fraction_long_division(self, q, d, r, scale):
        # p = q*d + r divided by scale*d: non-monic divisors, remainders,
        # and quotients q/scale that are not integral
        divisor = IntPolynomial(d) * scale
        p = IntPolynomial(q) * IntPolynomial(d) + IntPolynomial(r[:len(d) - 1])
        got = p.try_div(divisor)
        assert got == fraction_try_div(p, divisor)
        if not any(r[:len(d) - 1]):
            if all(c % scale == 0 for c in q):
                assert got == IntPolynomial(c // scale for c in q)
            else:
                assert got is None

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_mul_degree_and_eval(self, a, b):
        pa, pb = IntPolynomial(a), IntPolynomial(b)
        prod = pa * pb
        assert prod(3) == pa(3) * pb(3)
        if not pa.is_zero() and not pb.is_zero():
            assert prod.degree == pa.degree + pb.degree

    def test_squarefree_decomposition(self):
        p = IntPolynomial((-1, 1, 1)) ** 3 * IntPolynomial((-1, -3, 1))
        parts = sorted((f.coeffs, m) for f, m in squarefree_decomposition(p))
        assert parts == [((-1, -3, 1), 1), ((-1, 1, 1), 3)]
        sf = squarefree_part(p)
        assert sf.try_div(IntPolynomial((-1, 1, 1))) is not None
        assert sf.try_div(IntPolynomial((-1, -3, 1))) is not None
        assert sf.degree == 4

    def test_squarefree_decomposition_property(self):
        # non-monic products with repeated factors and characteristic
        # polynomials: prod f_i^i recovers the primitive part up to sign
        from golden_spectra.algebra import poly_gcd
        rng = random.Random(11)
        polys = [char_poly(rand_symmetric(rng, rng.randint(1, 8))) for _ in range(60)]
        for _ in range(60):
            p = IntPolynomial((rng.choice((-6, -2, -1, 1, 3, 5)),))
            for _ in range(rng.randint(1, 4)):
                f = [rng.randint(-4, 4) for _ in range(rng.randint(2, 4))]
                f[-1] = f[-1] or rng.choice((-2, 1, 3))
                p = p * IntPolynomial(f) ** rng.randint(1, 3)
            polys.append(p)
        for p in polys:
            parts = squarefree_decomposition(p)
            prod = IntPolynomial.one()
            for f, i in parts:
                assert f.leading > 0 and gcd(*f.coeffs) == 1
                assert poly_gcd(f, f.derivative()).degree == 0
                prod = prod * f ** i
            assert prod in (p.primitive(), -p.primitive())
            assert [i for _, i in parts] == sorted({i for _, i in parts})


class TestCharPoly:
    def test_examples(self):
        assert char_poly([[-1]]) == IntPolynomial((1, 1))
        assert char_poly([[0, 1], [1, 0]]) == IntPolynomial((-1, 0, 1))
        assert char_poly([]) == IntPolynomial((1,))

    def test_q_rr2r_identity_r2(self):
        from golden_spectra.model import make_q
        from golden_spectra.spectral import signed_adjacency
        m = signed_adjacency(make_q(2, 2, 4)).entries
        expected = IntPolynomial((-1, 1, 1)) ** 3 * IntPolynomial((-1, -3, 1))
        assert char_poly(m) == expected

    def test_against_determinant(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 7)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            p = char_poly(m)
            assert p.leading == 1 and p.degree == n
            assert p(0) == (-1) ** n * det_exact(m)

    def test_against_numpy(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = rand_symmetric(rng, n)
            got = char_poly(m)
            want = np.poly(np.array(m, dtype=float))[::-1]  # ascending
            assert np.allclose([float(c) for c in got.coeffs], want, atol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 7), st.integers(-3, 3), st.integers(0, 10 ** 6))
    def test_border_step_is_the_bordered_polynomial(self, n, diagonal, seed):
        # one border step from the minor's polynomial gives the polynomial
        # of the whole bordered matrix, here with the new row first
        rng = random.Random(seed)
        m = rand_symmetric(rng, n, -3, 3)
        row = [rng.randint(-3, 3) for _ in range(n)]
        bordered = [[diagonal] + row] + [[a] + r for a, r in zip(row, m)]
        assert berkowitz_step(char_poly(m), diagonal, row, row, m) == char_poly(bordered)


class TestThresholds:
    def test_parse(self):
        assert parse_threshold("-tau") == NEG_TAU
        assert parse_threshold("-1-tau") == NEG_ONE_MINUS_TAU
        assert parse_threshold("-3/2").scaled == (-3, 0, 2)
        assert parse_threshold("+3/4").scaled == (3, 0, 4)
        assert parse_threshold(" -1/2 ").scaled == (-1, 0, 2)
        # only ASCII decimals: Fraction() would also take underscores,
        # other digits and exponents
        for text in ("-1.5", "pi", "1_0", "\u0661/\u0662", "1/0", "1e3"):
            with pytest.raises(AlgebraError, match="cannot parse threshold.*exact"):
                parse_threshold(text)

    SCALED = {"-tau": (-1, -1, 2), "-1-tau": (-3, -1, 2), "-2": (-2, 0, 1),
              "-5/2": (-5, 0, 2)}

    def test_minimal_polynomials_vanish(self):
        for text, scaled in self.SCALED.items():
            t = parse_threshold(text)
            assert t.scaled == scaled
            assert _sign_at_golden_scaled(t.min_poly.coeffs, *t.scaled) == 0
            c, d, e = scaled
            root = min(r.real for r in np.roots(t.min_poly.coeffs[::-1]))
            assert abs((c + d * 5 ** 0.5) / e - root) < 1e-12


class TestRootCounting:
    def test_examples(self):
        assert count_roots_below(IntPolynomial((2, 1)), NEG_TAU) == 1
        assert count_roots_below(IntPolynomial((-1, 1, 1)), NEG_TAU) == 0
        t2 = [[0, -1, 1], [-1, 0, 1], [1, 1, 0]]
        assert count_roots_below(char_poly(t2), NEG_TAU) >= 1

    def test_deflate(self):
        p = IntPolynomial((-1, 1, 1)) ** 3 * IntPolynomial((-1, -3, 1))
        q, k = deflate(p, NEG_TAU)
        assert (q, k) == (IntPolynomial((-1, -3, 1)), 3)
        q, k = deflate(IntPolynomial((-2, 0, 1)), NEG_TAU)
        assert k == 0
        q, k = deflate(IntPolynomial((1, 3, 1)), NEG_ONE_MINUS_TAU)
        assert (q, k) == (IntPolynomial((1,)), 1)

    def test_lambda_examples(self):
        from golden_spectra.model import catalog, make_q
        from golden_spectra.spectral import b_matrix, signed_adjacency
        assert lambda_min_at_least(signed_adjacency(make_q(3, 2, 6)).entries, NEG_TAU)
        assert not lambda_min_at_least(
            b_matrix(catalog("K1T(3)")).entries, NEG_ONE_MINUS_TAU)
        assert lambda_min_at_least([[0]], NEG_TAU)

    def test_agreement_with_float_eigensolver(self):
        # the exact count of eigenvalues below -tau matches the float count
        # away from a 1e-6 exclusion zone around the threshold
        rng = random.Random(101)
        tau = TAU
        checked = 0
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = rand_symmetric(rng, n)
            evs = np.linalg.eigvalsh(np.array(m, dtype=float))
            if any(abs(e + tau) < 1e-6 for e in evs):
                continue  # exact path is authoritative near the threshold
            float_count = int(np.sum(evs < -tau))
            # the exact side counts distinct roots
            distinct = len({round(e, 9) for e in evs if e < -tau})
            exact = count_roots_below(char_poly(m), NEG_TAU)
            assert exact == distinct, (m, evs)
            assert (exact == 0) == (float_count == 0)
            checked += 1
        assert checked > 900

    def test_no_real_roots_raises(self):
        with pytest.raises(AlgebraError):
            isolate_smallest_root(IntPolynomial((1, 0, 1)), Fraction(1, 10))

    def test_interval_isolates_roots_closer_than_the_width(self):
        # roots -1 - 1e-10 and -1, far closer than the width asked for
        p = IntPolynomial((1, 1)) * IntPolynomial((10 ** 10 + 1, 10 ** 10))
        lo, hi = isolate_smallest_root(p, DESCRIPTOR_WIDTH)
        assert count_roots_in_interval(p, lo, hi) == 1
        assert lo < Fraction(-(10 ** 10 + 1), 10 ** 10) < hi < -1
        assert (lo, hi) == fraction_isolation(p, DESCRIPTOR_WIDTH)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(-3, 3, max_denominator=40), min_size=1, max_size=5),
           st.fractions(Fraction(1, 1000), 2, max_denominator=1000))
    def test_interval_isolates_the_smallest_root(self, roots, width):
        p = poly_with_roots(roots)
        lo, hi = isolate_smallest_root(p, width)
        assert hi - lo <= width
        assert lo < min(roots) < hi
        assert count_roots_in_interval(p, lo, hi) == 1

    def test_rational_threshold(self):
        t = parse_threshold("0")
        assert count_roots_below(IntPolynomial((0, 1)), t) == 0  # root at 0
        assert count_roots_below(IntPolynomial((1, 1)), t) == 1  # root at -1


class TestIsolationOracle:
    """`isolate_smallest_root` returns the very intervals of the Fraction
    bisection with a Sturm count at every step, not just isolating ones.
    The descriptor isolates on the product of the squarefree
    decomposition's factors, which for a characteristic polynomial is its
    squarefree part, so it prints the same interval."""

    @staticmethod
    def assert_same_intervals(matrices):
        from golden_spectra.enumeration import lambda_descriptor
        for m in matrices:
            p = char_poly(m)
            interval = isolate_smallest_root(p, DESCRIPTOR_WIDTH)
            assert interval == fraction_isolation(p, DESCRIPTOR_WIDTH), m
            product = IntPolynomial.one()
            for f, _ in squarefree_decomposition(p):
                product = product * f
            assert product == squarefree_part(p), m
            assert lambda_descriptor(m).interval == interval, m

    @pytest.mark.parametrize("cutoff", ["-2", "-1", "0"])
    def test_signed_graphs_up_to_five(self, cutoff):
        from golden_spectra.enumeration import enumerate_signed
        from golden_spectra.spectral import signed_adjacency
        census = enumerate_signed(5, parse_threshold(cutoff), ())
        members = [m for n in census.by_n for m in census.by_n[n]]
        assert members
        self.assert_same_intervals(signed_adjacency(m.graph).entries for m in members)

    def test_tau_census(self, census7):
        from golden_spectra.spectral import signed_adjacency
        members = [m for n in census7.by_n for m in census7.by_n[n]]
        assert max(m.graph.vertex_count for m in members) == 7
        self.assert_same_intervals(signed_adjacency(m.graph).entries for m in members)

    def test_irreducible_census_b_matrices(self, classification):
        from golden_spectra.spectral import b_matrix
        members = classification.irreducible.members
        assert len(members) == 39
        self.assert_same_intervals(b_matrix(m.graph).entries for m in members)

    def test_midpoint_on_the_root(self):
        # B(H_I) = [-1]: bound 2, then midpoint 0 and next -1, the root;
        # every later step samples a third of the way
        lo, hi = isolate_smallest_root(IntPolynomial((1, 1)), DESCRIPTOR_WIDTH)
        assert (lo, hi) == (Fraction(-10460353204, 10460353203),
                            Fraction(-3486784400, 3486784401))
        assert (lo, hi) == fraction_isolation(IntPolynomial((1, 1)), DESCRIPTOR_WIDTH)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=5),
           st.lists(st.fractions(-4, 4, max_denominator=16), max_size=3),
           st.sampled_from((1, 2, 3)),
           st.sampled_from((DESCRIPTOR_WIDTH, Fraction(1, 3), Fraction(1, 64), Fraction(5, 2))))
    def test_integer_and_dyadic_roots(self, ints, fractions, multiplicity, width):
        # integer and dyadic roots land on midpoints of the dyadic bisection
        # and on j/k points, and repeated roots are collapsed first
        dyadic = [Fraction(round(f * 8), 8) for f in fractions]
        p = poly_with_roots([Fraction(r) for r in ints] * multiplicity + dyadic)
        assert isolate_smallest_root(p, width) == fraction_isolation(p, width)


class TestApproxAndCompare:
    def test_approx_examples(self):
        from golden_spectra.model import catalog, make_q
        from golden_spectra.spectral import b_matrix, signed_adjacency
        assert abs(lambda_min_approx(signed_adjacency(make_q(1, 0, 1)).entries)
                   + 1.0) < 1e-9
        assert abs(lambda_min_approx(b_matrix(catalog("H_XVI")).entries)
                   - (-(3 + 5 ** 0.5) / 2)) < 1e-9
        # smallest eigenvalue of the doubled-pendant clique is exactly -tau
        assert abs(lambda_min_approx(
            signed_adjacency(make_q(2, 2, 4)).entries) + TAU) < 1e-9

    def test_approx_against_numpy(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 7)
            m = rand_symmetric(rng, n)
            want = np.linalg.eigvalsh(np.array(m, dtype=float))[0]
            assert abs(lambda_min_approx(m) - want) < 1e-7

    def test_compare_smallest_roots(self):
        pa = IntPolynomial((1, 3, 1))       # smallest root -1-tau
        pb = IntPolynomial((2, 1))          # root -2
        assert compare_smallest_roots(pa, pb) == -1
        assert compare_smallest_roots(pb, pa) == 1
        assert compare_smallest_roots(pa, pa * IntPolynomial((-1, 1))) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.lists(st.fractions(-3, 3, max_denominator=8), min_size=1, max_size=4))
    def test_compare_against_the_roots(self, a, b):
        # integer roots put the midpoints on roots, dyadic ones the sign test
        ra, rb = [Fraction(r) for r in a], b
        want = sign(min(ra) - min(rb))
        assert compare_smallest_roots(poly_with_roots(ra), poly_with_roots(rb)) == want

    def test_lambda_min_equals(self):
        assert lambda_min_equals([[-2, 1], [1, -1]], NEG_ONE_MINUS_TAU)
        assert not lambda_min_equals([[-2]], NEG_ONE_MINUS_TAU)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_deflate_reexpand(self, seed):
        rng = random.Random(seed)
        k = rng.randint(0, 3)
        rest = IntPolynomial([rng.randint(-5, 5) for _ in range(4)] + [1])
        p = NEG_TAU.min_poly ** k * rest
        q, got_k = deflate(p, NEG_TAU)
        assert NEG_TAU.min_poly ** got_k * q == p
        assert got_k >= k


# -- the semidefinite kernel against the Sturm route -------------------------


def row_nullity(rows, t):
    """The one-shot row-oriented elimination that the bordered fold
    replaced: symmetric Bareiss on e*A - (c + d*sqrt5)*I, pivots on the
    diagonal in order, every entry right of a pivot updated at its step.
    None if some eigenvalue lies below t, else the multiplicity of t."""
    c, d, e = t.scaled
    n = len(rows)
    xs = [[e * v for v in row] for row in rows]
    ys = [[0] * n for _ in range(n)]
    for i in range(n):
        xs[i][i] -= c
        ys[i][i] = -d
    pa, pb = 1, 0
    nullity = 0
    for k in range(n):
        xk, yk = xs[k], ys[k]
        ka, kb = xk[k], yk[k]
        sign = _sign_root5(ka, kb)
        if sign < 0:
            return None
        if sign == 0:
            if any(xk[j] or yk[j] for j in range(k + 1, n)):
                return None
            nullity += 1
            continue
        div = pa * pa - 5 * pb * pb if pb else pa
        for i in range(k + 1, n):
            ia, ib = xk[i], yk[i]
            xi, yi = xs[i], ys[i]
            for j in range(i, n):
                ja, jb = xk[j], yk[j]
                ma, mb = xi[j], yi[j]
                u = ka * ma + 5 * kb * mb - ia * ja - 5 * ib * jb
                v = ka * mb + kb * ma - ia * jb - ib * ja
                if pb:
                    u, v = u * pa - 5 * v * pb, v * pa - u * pb
                u, ru = divmod(u, div)
                v, rv = divmod(v, div)
                assert not (ru or rv), "inexact Bareiss division"
                xi[j], yi[j] = u, v
        pa, pb = ka, kb
    return nullity

KERNEL_CUTOFFS = (NEG_TAU, NEG_ONE_MINUS_TAU, parse_threshold("-2"),
                  parse_threshold("-1"), parse_threshold("0"))


def assert_kernel_matches_sturm(m, cutoffs=KERNEL_CUTOFFS):
    """`lambda_min_at_least`, `lambda_min_equals` and the eigenvalue
    multiplicity of the elimination agree with char_poly + Sturm."""
    p = char_poly(m)
    for t in cutoffs:
        at_least = count_roots_below(p, t) == 0
        _, mult = deflate(p, t)
        assert lambda_min_at_least(m, t) == at_least, (m, t.name)
        assert lambda_min_equals(m, t) == (at_least and mult >= 1), (m, t.name)
        nullity = _semidefinite_nullity(as_int_rows(m), t)
        assert nullity == (mult if at_least else None), (m, t.name)
        assert nullity == row_nullity(as_int_rows(m), t), (m, t.name)


def golden_cutoff(a: Fraction, b: Fraction) -> Threshold:
    """The cutoff a + b*sqrt5 with b < 0, the smaller root of its minimal
    polynomial x^2 - 2a x + a^2 - 5b^2."""
    coeffs = (a * a - 5 * b * b, -2 * a, Fraction(1))
    scale = lcm(*(c.denominator for c in coeffs))
    e = lcm(a.denominator, b.denominator)
    return Threshold("a+b*sqrt5", IntPolynomial(int(c * scale) for c in coeffs),
                     (int(a * e), int(b * e), e))


class TestSemidefiniteKernel:
    def test_every_labelled_signed_matrix_up_to_four(self):
        count = 0
        for n in range(5):
            pairs = list(combinations(range(n), 2))
            for code in product((0, 1, -1), repeat=len(pairs)):
                m = [[0] * n for _ in range(n)]
                for (a, b), v in zip(pairs, code):
                    m[a][b] = m[b][a] = v
                assert_kernel_matches_sturm(m)
                count += 1
        assert count == 1 + 1 + 3 + 27 + 729

    def test_irreducible_census_b_matrices(self, classification):
        from golden_spectra.spectral import b_matrix
        members = classification.irreducible.members
        assert len(members) == 39
        at_cutoff = 0
        for member in members:
            b = b_matrix(member.graph).entries
            assert lambda_min_at_least(b, NEG_ONE_MINUS_TAU)
            at_cutoff += lambda_min_equals(b, NEG_ONE_MINUS_TAU)
            assert_kernel_matches_sturm(b, (NEG_ONE_MINUS_TAU,))
        # the other 14 (H_I, H_II, H_III and eleven realizations) lie above
        assert at_cutoff == 25

    def test_q_family_at_neg_tau(self):
        from golden_spectra.model import make_q
        from golden_spectra.spectral import signed_adjacency
        at_cutoff = 0
        for r in range(1, 7):
            for p in range(r + 1):
                for q in range(r + 1 - p):
                    m = signed_adjacency(make_q(p, q, r)).entries
                    assert lambda_min_at_least(m, NEG_TAU)
                    at_cutoff += lambda_min_equals(m, NEG_TAU)
                    assert_kernel_matches_sturm(m, (NEG_TAU,))
        assert at_cutoff > 0

    def test_random_up_to_twelve(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(1, 12)
            m = rand_symmetric(rng, n)
            for i in range(n):
                m[i][i] = rng.choice((0, -1, -2))
            assert_kernel_matches_sturm(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.lists(st.integers(-2, 2), min_size=28, max_size=28),
           st.fractions(-4, 1, max_denominator=6),
           st.fractions(-2, -Fraction(1, 6), max_denominator=6))
    def test_property_any_golden_cutoff(self, n, entries, a, b):
        m = [[0] * n for _ in range(n)]
        values = iter(entries)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(values)
        assert_kernel_matches_sturm(m, (golden_cutoff(a, b), Threshold.from_rational(a)))

    def test_zero_pivot_with_nonzero_row_is_below(self):
        # A - 0*I: the first pivot is zero and its row is not; eigenvalue -1
        assert not lambda_min_at_least([[0, 1], [1, 0]], parse_threshold("0"))
        # at -tau the second Schur pivot vanishes exactly in Q(sqrt5) while
        # its row keeps a 1, so the matrix dips below -tau
        below = [[0, 1, 0], [1, -1, 1], [0, 1, 0]]
        assert not lambda_min_at_least(below, NEG_TAU)
        assert_kernel_matches_sturm(below)
        # with that row cleared the same zero pivot is skipped: -tau exactly
        at = [[0, 1, 0], [1, -1, 0], [0, 0, 0]]
        assert lambda_min_equals(at, NEG_TAU)
        assert_kernel_matches_sturm(at)

    def test_multiplicity_and_rejections(self):
        from golden_spectra.model import make_q
        from golden_spectra.spectral import signed_adjacency
        m = signed_adjacency(make_q(2, 2, 4)).entries  # (x^2+x-1)^3 divides
        assert _semidefinite_nullity(as_int_rows(m), NEG_TAU) == 3
        assert row_nullity(as_int_rows(m), NEG_TAU) == 3
        assert not lambda_min_equals([], NEG_TAU)
        assert lambda_min_at_least([], NEG_TAU)
        with pytest.raises(AlgebraError):
            lambda_min_at_least([[0, 1], [0, 0]], NEG_TAU)
        block = Elimination.start(NEG_TAU)
        assert block.close(block.open(0))
        with pytest.raises(AlgebraError):
            block.close(block.open(0))  # the entry to vertex 0 is missing

    def test_every_prefix_decision_matches_the_one_shot(self):
        # entry j of row m is decided on the principal submatrix {0..j, m},
        # by `extend` for the entry itself and by `branches` for each value
        # the entry could take, also after skipped zero pivots
        rng = random.Random(5)
        cutoffs = (NEG_TAU, NEG_ONE_MINUS_TAU, parse_threshold("-1"))
        below = skipped = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            m = rand_symmetric(rng, n)
            for i in range(n):
                m[i][i] = rng.choice((0, -1))
            for t in cutoffs:
                block = Elimination.start(t)
                for k in range(n):
                    border = block.open(m[k][k])
                    block.linear_table()
                    for j in range(k):
                        keep = list(range(j + 1)) + [k]
                        sub = [[m[a][b] for b in keep] for a in keep]
                        want = []
                        for a in (0, 1, -1):
                            sub[-1][-2] = sub[-2][-1] = a
                            if row_nullity(sub, t) is not None:
                                want.append(a)
                        assert [a for a, _ in block.branches(border, m[k][:j], (0, 1, -1))] \
                            == want
                        skipped += block.steps[j] is None
                        sub[-1][-2] = sub[-2][-1] = m[k][j]
                        border = block.extend(border, (m[k][j],))
                        assert (border is not None) == (row_nullity(sub, t) is not None)
                        if border is None:
                            below += 1
                            break
                    if border is None:
                        break
                    closed = block.close(border)
                    assert closed == (row_nullity(
                        [row[:k + 1] for row in m[:k + 1]], t) is not None)
                    if not closed:
                        assert len(block.steps) == k  # left unchanged
                        below += 1
                        break
                else:
                    assert block.steps.count(None) == row_nullity(m, t)
        assert below > 100 and skipped > 50

    def test_every_branch_matches_the_per_entry_step(self):
        # one pass per position on the block's linear table keeps exactly
        # the values, and builds exactly the borders, that one bordered
        # step per value does, also after skipped zero pivots
        rng = random.Random(18)
        cutoffs = (NEG_TAU, NEG_ONE_MINUS_TAU, parse_threshold("-1"),
                   parse_threshold("-2"), parse_threshold("0"))
        positions = skipped = rejected = 0
        for _ in range(150):
            n = rng.randint(1, 9)
            m = rand_symmetric(rng, n)
            for i in range(n):
                m[i][i] = rng.choice((0, 0, -1, 1))
            for t in cutoffs:
                block = Elimination.start(t)
                for k in range(n):
                    table = block.linear_table()
                    assert len(table) == k
                    border = block.open(m[k][k])
                    for j in range(k):
                        want = [(a, grown) for a in (0, 1, -1)
                                if (grown := block.extend(border, (a,))) is not None]
                        assert block.branches(border, m[k][:j], (0, 1, -1)) == want
                        assert block.branches(border, m[k][:j], (-1, 0)) == [
                            (a, grown) for a, grown in want if a != 1][::-1]
                        positions += 1
                        skipped += block.steps[j] is None
                        rejected += 3 - len(want)
                        border = block.extend(border, (m[k][j],))
                        if border is None:
                            break
                    if border is None or not block.close(border):
                        break
        assert positions > 2000 and skipped > 100 and rejected > 1000

    def test_tables_grow_one_row_at_a_time(self):
        # a block closed by one row has its parent's table plus one row,
        # and the fold of that growth is the table built one unit row at a
        # time, also after skipped zero pivots; a copy shares the table it
        # was taken with, and growing one block's table leaves the other's
        rng = random.Random(19)
        cutoffs = (NEG_TAU, NEG_ONE_MINUS_TAU, parse_threshold("-1"), parse_threshold("-2"))
        rows = skipped = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            m = rand_symmetric(rng, n)
            for t in cutoffs:
                block, table = Elimination.start(t), ()
                for k in range(n):
                    border = block.extend(block.open(m[k][k]), m[k][:k])
                    before = block.copy()
                    assert before.table is block.table == table
                    if border is None or not block.close(border):
                        break
                    grown = block.linear_table()
                    assert grown[:-1] == table and len(grown) == k + 1
                    assert grown == linear_table_by_units(block)
                    assert block.linear_table() is grown
                    assert before.linear_table() == table
                    table = grown
                    rows += 1
                    skipped += block.steps[-1] is None
        assert rows > 1000 and skipped > 50
