"""Exact algebra kernel: integer polynomials, cutoffs in Q(sqrt5) held as
scaled integers, Sturm root counting, and smallest-eigenvalue decisions
for integer symmetric matrices.

A decision `lambda_min >= t` or `lambda_min == t` for a cutoff t in Q(sqrt5)
is one fraction-free (Bareiss) semidefinite elimination of A - t*I over
Z[sqrt5]; no characteristic polynomial is formed.  The elimination
(`Elimination`) is a fold of one bordered step that adds a row in O(n^2)
work, entry by entry, so a search that grows a matrix one row or one entry
at a time decides each prefix without redoing the block before it.  Each
reduced entry of a new row is a minor of the bordered matrix, linear in
the row, so a search over many rows of one block reads it off a table of
coefficients and decides each entry by one sum and one exact
pending-diagonal step; the table's coefficients are minors themselves,
so no division is lost.  The block keeps its table, grown on first need
one row per row of the block and shared with its copies.  It is the
only route to such a decision; every cutoff lies in Q(sqrt5).  Characteristic polynomials are the division-free Berkowitz
recursion, the fold of one border step that adds a row and column in
O(n^3) work, so a matrix grown by one row gets its polynomial from the
smaller one's in one step.  Sturm chains remain for eigenvalue
descriptors (an isolating interval for the smallest root) and root
comparison.  One bisection serves both: its
endpoints are integer numerators over one shared denominator, a Sturm
count decides each step until the smallest root is alone in the
interval, and from then on one sign of the squarefree part does.
Polynomial division is long division in integers.

Every decision procedure in this module is exact over the integers and
rationals.  Floating point appears only in the reporting helper
`lambda_min_approx` and never feeds a verdict.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class AlgebraError(ValueError):
    """An exact operation was applied outside its domain."""


# ---------------------------------------------------------------------------
# matrices (plain nested sequences of ints)


def as_int_rows(matrix) -> tuple[tuple[int, ...], ...]:
    entries = getattr(matrix, "entries", matrix)
    rows = tuple(tuple(map(int, row)) for row in entries)
    if any(len(r) != len(rows) for r in rows):
        raise AlgebraError("matrix is not square")
    return rows


# ---------------------------------------------------------------------------
# integer polynomials


class IntPolynomial:
    """Integer-coefficient polynomial; coefficients ascending by degree.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    def __reduce__(self):
        return IntPolynomial, (self.coeffs,)

    # constructors

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    # basics

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts).replace("+ -", "- ")

    # arithmetic

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise AlgebraError("negative polynomial power")
        result = IntPolynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def __call__(self, x):
        """Evaluate at an int or Fraction (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x) -> int:
        """Sign of the value at an int or Fraction x, in integers."""
        return _sign_at(self.coeffs, x.numerator, x.denominator)

    def primitive(self) -> "IntPolynomial":
        """Divide out the (positive) content; the leading sign is kept."""
        return IntPolynomial(_prim(self.coeffs))

    def try_div(self, divisor: "IntPolynomial") -> Optional["IntPolynomial"]:
        """Exact quotient self / divisor over Z[x], or None if not exact.

        Long division in integers: each quotient coefficient must divide
        out of the leading remainder coefficient exactly, so the first
        nonzero remainder of that division ends it."""
        if divisor.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if self.is_zero():
            return IntPolynomial.zero()
        if self.degree < divisor.degree:
            return None
        rem = list(self.coeffs)
        *dv, dlead = divisor.coeffs
        m = len(dv)
        q = [0] * (len(rem) - m)
        for k in range(len(q) - 1, -1, -1):
            coef, r = divmod(rem[k + m], dlead)
            if r:
                return None
            q[k] = coef
            if coef:
                for j, d in enumerate(dv):
                    rem[k + j] -= coef * d
        if any(rem[:m]):
            return None
        return IntPolynomial(q)

    def divexact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        q = self.try_div(divisor)
        if q is None:
            raise AlgebraError("inexact polynomial division")
        return q


def char_poly(matrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - m), exact over Z.

    Division-free Berkowitz recursion, the fold of its one border step
    (`berkowitz_step`) over the rows from the last: each step borders the
    trailing block by the row and column before it.  Safe for arbitrary
    integer entries.
    """
    rows = as_int_rows(matrix)
    p = IntPolynomial.one()
    for k in range(len(rows) - 1, -1, -1):
        p = berkowitz_step(p, rows[k][k], rows[k][k + 1:], [r[k] for r in rows[k + 1:]],
                           [r[k + 1:] for r in rows[k + 1:]])
    return p


def berkowitz_step(p: IntPolynomial, diagonal: int, top: Sequence[int],
                   left: Sequence[int], minor: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(xI - A) for A = [[diagonal, top], [left, minor]], given
    p = det(xI - minor): one division-free border step (Berkowitz 1984) in
    O(m^3) for an m x m minor.  The coefficients of A's polynomial,
    descending, are those of p times the lower triangular Toeplitz matrix
    with first column 1, -diagonal, -top.left, -top.minor.left, ...,
    -top.minor^(m-1).left."""
    v = p.coeffs[::-1]
    col = [1, -diagonal]
    w = list(left)
    for k in range(len(minor)):
        if k:
            w = [sum(map(mul, r, w)) for r in minor]
        col.append(-sum(map(mul, top, w)))
    return IntPolynomial(sum(map(mul, col[i::-1], v)) for i in range(len(col) - 1, -1, -1))


# ---------------------------------------------------------------------------
# gcd / squarefree machinery (primitive pseudo-remainder sequences)


def _prim(cs: Sequence[int]) -> Sequence[int]:
    """The coefficients over their (positive) content."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _pseudo_rem(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """(prem, multiplier sign): lc(g)^(df-dg+1) * f = q*g + prem."""
    df, dg = len(f) - 1, len(g) - 1
    lead = g[-1]
    mult_sign = 1 if lead > 0 or (df - dg + 1) % 2 == 0 else -1
    rem = list(f)
    for k in range(df - dg, -1, -1):
        coef = rem[k + dg]
        for i in range(len(rem)):
            rem[i] *= lead
        if coef:
            for j in range(dg + 1):
                rem[k + j] -= coef * g[j]
        # rem now has degree < k+dg in position; keep full array, trim later
        rem[k + dg] = 0
    while rem and rem[-1] == 0:
        rem.pop()
    return rem, mult_sign


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z[x] with positive leading coefficient."""
    a = list(f.primitive().coeffs)
    b = list(g.primitive().coeffs)
    if not a:
        return IntPolynomial(b if not b or b[-1] > 0 else [-c for c in b])
    if not b:
        return IntPolynomial(a if a[-1] > 0 else [-c for c in a])
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, _ = _pseudo_rem(a, b)
        a, b = b, _prim(r)
    if a[-1] < 0:
        a = [-c for c in a]
    return IntPolynomial(a)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p with all repeated roots collapsed to simple ones (primitive)."""
    if p.is_zero():
        raise AlgebraError("squarefree part of the zero polynomial")
    pp = p.primitive()
    if pp.degree <= 1:
        return pp
    g = poly_gcd(pp, pp.derivative())
    if g.degree == 0:
        return pp
    return pp.divexact(g).primitive()


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun decomposition: [(f_i, i)] with p = c * prod f_i^i, f_i squarefree,
    primitive, with positive leading coefficient.  Every division is exact
    over Z[x] (Gauss's lemma: each divisor is a primitive gcd)."""
    if p.is_zero():
        raise AlgebraError("decomposition of the zero polynomial")
    if p.degree < 1:
        return []
    f = p.primitive()
    df = f.derivative()
    g = poly_gcd(f, df)
    out: list[tuple[IntPolynomial, int]] = []
    c = f.divexact(g)
    d = df.divexact(g) - c.derivative()
    i = 1
    while c.degree > 0:
        h = poly_gcd(c, d)
        if h.degree > 0:
            out.append((h, i))
        c = c.divexact(h)
        d = d.divexact(h) - c.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# cutoffs in Q(sqrt5): signs and thresholds


def _sign_root5(a, b) -> int:
    """Sign of a + b*sqrt5 for rational (or integer) a, b."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # opposite strict signs; a^2 == 5 b^2 is impossible for nonzero
    # rationals since sqrt5 is irrational
    if a > 0:
        return 1 if a * a > 5 * b * b else -1
    return -1 if a * a > 5 * b * b else 1


class Threshold(NamedTuple):
    """A cutoff in Q(sqrt5), always the smallest real root of min_poly,
    held as the integers `scaled` = (c, d, e), e > 0, with value
    (c + d*sqrt5)/e.

    The scaled integers feed the semidefinite elimination, and Sturm signs
    at the cutoff are evaluated from them directly in the field.
    """

    name: str
    min_poly: IntPolynomial
    scaled: tuple[int, int, int]

    @staticmethod
    def from_rational(r) -> "Threshold":
        r = Fraction(r)
        poly = IntPolynomial((-r.numerator, r.denominator))
        return Threshold(str(r), poly, (r.numerator, 0, r.denominator))


# -(1+sqrt5)/2, the smaller root of x^2 + x - 1
NEG_TAU = Threshold("-tau", IntPolynomial((-1, 1, 1)), (-1, -1, 2))
# -(3+sqrt5)/2, the smaller root of x^2 + 3x + 1
NEG_ONE_MINUS_TAU = Threshold("-1-tau", IntPolynomial((1, 3, 1)), (-3, -1, 2))
# the width of a smallest eigenvalue's interval, printed and in descriptors
DESCRIPTOR_WIDTH = Fraction(1, 2 * 10 ** 9)


def parse_threshold(text: str) -> Threshold:
    """Parse '-tau', '-1-tau', or an exact rational 'a' or 'a/b' in ASCII
    decimals with an optional sign; floats, underscores, other digits and
    a zero denominator are refused."""
    t = text.strip()
    if t == "-tau":
        return NEG_TAU
    if t == "-1-tau":
        return NEG_ONE_MINUS_TAU
    try:
        if re.fullmatch("[+-]?[0-9]+(/[0-9]+)?", t):
            return Threshold.from_rational(Fraction(t))
    except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
        pass
    raise AlgebraError(f"cannot parse threshold {text!r}: expected -tau, -1-tau "
                       "or an exact rational a/b")


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def _sturm_chain(p0: list[int]) -> list[list[int]]:
    chain = [list(p0)]
    if len(p0) <= 1:
        return chain
    p1 = _prim([i * c for i, c in enumerate(p0) if i])
    chain.append(p1)
    while len(chain[-1]) > 1:
        f, g = chain[-2], chain[-1]
        r, mult_sign = _pseudo_rem(f, g)
        if not r:
            break
        if mult_sign > 0:
            r = [-c for c in r]
        chain.append(_prim(r))
    return chain


def _sign_at_neg_inf(cs: Sequence[int]) -> int:
    if not cs:
        return 0
    lead = cs[-1]
    s = 1 if lead > 0 else -1
    return s if (len(cs) - 1) % 2 == 0 else -s


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sign_at(cs: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0, all-integer Horner."""
    if not cs:
        return 0
    acc = cs[-1]
    dpow = 1
    for c in reversed(cs[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def _sign_at_golden_scaled(cs: Sequence[int], c: int, d: int, e: int) -> int:
    """Sign of p((c + d*sqrt5)/e) with e > 0, all-integer Horner on pairs."""
    if not cs:
        return 0
    A, B = cs[-1], 0
    epow = 1
    for coeff in reversed(cs[:-1]):
        epow *= e
        A, B = A * c + 5 * B * d, A * d + B * c
        A += coeff * epow
    return _sign_root5(A, B)


def _count_in_open_interval(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    v_lo = _variations(_sign_at(q, lo.numerator, lo.denominator) for q in chain)
    v_hi = _variations(_sign_at(q, hi.numerator, hi.denominator) for q in chain)
    return v_lo - v_hi


def deflate(p: IntPolynomial, t: Threshold) -> tuple[IntPolynomial, int]:
    """Write p = min_poly(t)^k * q with q not divisible; returns (q, k)."""
    if p.is_zero():
        raise AlgebraError("cannot deflate the zero polynomial")
    k = 0
    current = p
    while True:
        q = current.try_div(t.min_poly)
        if q is None:
            return current, k
        current = q
        k += 1


def count_roots_below(p: IntPolynomial, t: Threshold) -> int:
    """Number of distinct real roots of p strictly less than the cutoff.

    Deflates the cutoff's minimal polynomial out of p first; since every
    cutoff is the smallest root of its minimal polynomial, deflation never
    removes roots strictly below it.
    """
    if p.is_zero():
        raise AlgebraError("cannot count roots of the zero polynomial")
    pd, _ = deflate(p, t)
    sf = squarefree_part(pd)
    if sf.degree <= 0:
        return 0
    chain = _sturm_chain(list(sf.coeffs))
    c, d, e = t.scaled
    v_inf = _variations(_sign_at_neg_inf(q) for q in chain)
    v_t = _variations(_sign_at_golden_scaled(q, c, d, e) for q in chain)
    return v_inf - v_t


def _symmetric_rows(matrix) -> tuple[tuple[int, ...], ...]:
    rows = as_int_rows(matrix)
    if rows != tuple(zip(*rows)):
        raise AlgebraError("matrix must be symmetric")
    return rows


class Elimination:
    """The symmetric fraction-free (Bareiss 1968) elimination of
    e*A - (c + d*sqrt5)*I over Z[sqrt5] on a leading block of A at or above
    the cutoff t = (c + d*sqrt5)/e, grown one bordered row at a time;
    x + y*sqrt5 is the pair (x, y).  Pivots are on the diagonal in order.
    After the positive pivots on an index set P the remaining block is
    det(P) times the Schur complement of P, so each division by the
    previous pivot is exact (Sylvester's identity) and each pending entry
    has the sign of its Schur-complement entry.  A negative pending entry on
    the diagonal, or a zero pivot whose row meets a nonzero entry, exhibits
    a vector on which A - t*I is negative.  A zero pivot whose row is zero
    is skipped, keeps the previous divisor, and counts one dimension of the
    kernel of A - t*I.  `_diagonal_step` is the one place where a reduced
    entry of a new row is accepted or rejected, at a positive pivot and at
    a skipped one; `extend` and `branches` both call it.

    Entry j of a new row r, reduced by the pivots before it, is the minor
    of the block's matrix bordered by the row e*r on the rows P_j + {new}
    and the columns P_j + {j}, P_j the positive pivots before j; a skipped
    pivot drops out, its row of the Schur complement being zero.  A minor
    is linear in its last row, so the reduced entry is sum_i r_i*K[j][i],
    where K[j][i] is the same minor for the unit row e_i: an element of
    Z[sqrt5], zero for i > j and for a skipped i, and K[j][j] is e times
    the divisor of step j.  A search over many rows of one block reads K
    and decides each entry by one sum and one pending-diagonal step
    (`branches`).  No division is lost: the table's entries and the sums
    are the exact minors that `extend` divides its way to, every division
    in building the table is checked as in `extend`, and so is the
    pending-diagonal step.

    State: `columns[k]`, the entries (i, k), i < k, each as it stood at
    step i (by symmetry, pivot row i at its own step); `steps[k]`, pivot k
    and the divisor of its step, or None if skipped; `divisor`, that of
    the next step; `table`, the rows of K held so far, grown on first need
    (`linear_table`).  `close` grows the block in place; a search that
    grows one block in many ways closes copies.  Row j of K depends on the
    block's rows 0..j only and `close` only appends rows, so a held table
    stays a valid prefix after `close` and a copy shares it: the tuple is
    immutable, and growing it rebinds only the growing block's slot."""

    __slots__ = ("scaled", "columns", "steps", "divisor", "table")

    def __init__(self, scaled, columns=(), steps=(), divisor=(1, 0, 1), table=()):
        self.scaled = scaled
        self.columns = list(columns)
        self.steps = list(steps)
        self.divisor = divisor
        self.table = table

    def copy(self) -> "Elimination":
        return Elimination(self.scaled, self.columns, self.steps, self.divisor, self.table)

    @staticmethod
    def start(t: Threshold) -> "Elimination":
        """The empty block at the cutoff t."""
        return Elimination(t.scaled)

    def open(self, diagonal: int) -> tuple:
        """Border of a new row with diagonal entry `diagonal` and no other
        entry yet: (entries x, entries y, pending diagonal x, y)."""
        c, d, e = self.scaled
        return (), (), e * diagonal - c, -d

    def _reduced(self, a: int, xs: tuple, ys: tuple) -> tuple:
        """Entry len(xs) of a new row, of value a, reduced by the pivots
        before it, given the row's earlier entries xs, ys as they stood at
        their own steps: the one reduction loop of the module."""
        x, y = self.scaled[2] * a, 0
        cx, cy = self.columns[len(xs)]
        for step, ia, ib, ja, jb in zip(self.steps, cx, cy, xs, ys):
            if step is None:
                continue
            ka, kb, pa, pb, norm = step
            u = ka * x + 5 * kb * y - ia * ja - 5 * ib * jb
            v = ka * y + kb * x - ia * jb - ib * ja
            if pb:  # divide by pa + pb*sqrt5: times its conjugate, over its norm
                u, v = u * pa - 5 * v * pb, v * pa - u * pb
            x, ru = divmod(u, norm)
            y, rv = divmod(v, norm)
            if ru or rv:
                raise AlgebraError("inexact Bareiss division over Z[sqrt5]")
        return x, y

    def extend(self, border: tuple, entries: Iterable[int]) -> Optional[tuple]:
        """The border with the next entries of the new row appended one at
        a time, or None once the principal submatrix on {0..j, new} lies
        below the cutoff.

        Entry j is reduced by pivots 0..j-1, then the pending diagonal by
        pivot j (`_diagonal_step`)."""
        xs, ys, px, py = border
        steps = self.steps
        for a in entries:
            x, y = self._reduced(a, xs, ys)
            pending = _diagonal_step(steps[len(xs)], px, py, x, y)
            if pending is None:
                return None
            xs += (x,)
            ys += (y,)
            px, py = pending
        return xs, ys, px, py

    def linear_table(self) -> tuple:
        """K of the class docstring: row j is the pair (xs, ys) of the
        K[j][i], i <= j, so that entry j of a new row r, reduced, is
        sum_i r_i*K[j][i].  Only the rows the block does not hold yet are
        built (`_table_row`), and the block keeps the result."""
        while len(self.table) < len(self.steps):
            self.table += (self._table_row(self.table),)
        return self.table

    def _table_row(self, table: tuple) -> tuple:
        """Row j of K, given `table`, its rows 0..j-1 (j = len(table)).
        K[j][i] is the unit row e_i's entry j, reduced, by the loop
        `extend` runs; the unit row's earlier entries, reduced, are
        K[i..j-1][i] (zero before i)."""
        j = len(table)
        xs, ys = [], []
        for i in range(j + 1):
            below = table[i:]
            x, y = self._reduced(int(i == j), (0,) * i + tuple([row[0][i] for row in below]),
                                 (0,) * i + tuple([row[1][i] for row in below]))
            xs.append(x)
            ys.append(y)
        return tuple(xs), tuple(ys)

    def branches(self, border: tuple, row: Sequence[int], values: Iterable[int]) -> list:
        """The pairs (a, border with the entry a appended), in the order of
        `values`, for the values a that `extend(border, (a,))` keeps, each
        border equal to the one it returns; `row` is the prefix `border`
        holds, and the held `table` must reach its position.

        The prefix's share of the reduced entry is summed once over its
        nonzero entries; each value adds a*K[j][j] and takes one
        pending-diagonal step (`_diagonal_step`)."""
        xs, ys, px, py = border
        j = len(xs)
        kx, ky = self.table[j]
        sx = sy = 0
        for r, ax, ay in zip(row, kx, ky):
            if r:
                sx += r * ax
                sy += r * ay
        dx, dy = kx[j], ky[j]
        step = self.steps[j]
        out = []
        for a in values:
            x, y = sx + a * dx, sy + a * dy
            pending = _diagonal_step(step, px, py, x, y)
            if pending is not None:
                out.append((a, (xs + (x,), ys + (y,)) + pending))
        return out

    def close(self, border: tuple) -> bool:
        """Grow the block by a complete border, whose pending diagonal is
        the new pivot; False, and the block unchanged, if below."""
        xs, ys, px, py = border
        if len(xs) != len(self.steps):
            raise AlgebraError("the border lacks entries of the new row")
        sign = _sign_root5(px, py)
        if sign < 0:
            return False
        self.columns.append((xs, ys))
        if sign == 0:
            self.steps.append(None)
        else:
            self.steps.append((px, py) + self.divisor)
            self.divisor = (px, py, px * px - 5 * py * py if py else px)
        return True


def _diagonal_step(step: Optional[tuple], px: int, py: int, x: int, y: int) -> Optional[tuple]:
    """The pending diagonal px + py*sqrt5 of a new row reduced by the pivot
    of `step`, in whose row the new row's entry is x + y*sqrt5; None if it
    is negative, since the principal submatrix then lies below the cutoff.
    At a skipped pivot (`step` None) the pending diagonal stays and any
    nonzero entry is None: the pivot's row of the Schur complement is zero,
    so the entry exhibits a vector on which A - t*I is negative."""
    if step is None:
        return None if x or y else (px, py)
    ka, kb, pa, pb, norm = step
    u = ka * px + 5 * kb * py - x * x - 5 * y * y
    v = ka * py + kb * px - 2 * x * y
    if pb:
        u, v = u * pa - 5 * v * pb, v * pa - u * pb
    px, ru = divmod(u, norm)
    py, rv = divmod(v, norm)
    if ru or rv:
        raise AlgebraError("inexact Bareiss division over Z[sqrt5]")
    if (px < 0 or py < 0) and _sign_root5(px, py) < 0:
        return None
    return px, py


def eliminate(rows, t: Threshold) -> Optional[Elimination]:
    """The elimination of the symmetric integer matrix at the cutoff t in
    Q(sqrt5), or None if it has an eigenvalue below t: the bordered step
    (open, extend, close) folded over the rows."""
    block = Elimination.start(t)
    for m, row in enumerate(rows):
        border = block.extend(block.open(row[m]), row[:m])
        if border is None or not block.close(border):
            return None
    return block


def _semidefinite_nullity(rows, t: Threshold) -> Optional[int]:
    """None if the symmetric integer matrix has an eigenvalue below the
    cutoff t in Q(sqrt5), else the multiplicity of t as an eigenvalue."""
    block = eliminate(rows, t)
    return None if block is None else block.steps.count(None)


def lambda_min_at_least(matrix, t: Threshold) -> bool:
    """Exact test: smallest eigenvalue of a symmetric matrix >= cutoff.

    A - t*I is semidefinite."""
    return _semidefinite_nullity(_symmetric_rows(matrix), t) is not None


def lambda_min_equals(matrix, t: Threshold) -> bool:
    """Exact test: smallest eigenvalue of a symmetric matrix == cutoff.

    A - t*I is semidefinite and singular."""
    return bool(_semidefinite_nullity(_symmetric_rows(matrix), t))


def root_bound(p: IntPolynomial) -> Fraction:
    """Cauchy bound: all real roots of p lie in (-bound, bound)."""
    if p.is_zero() or p.degree < 1:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def _isolating_intervals(sf: IntPolynomial,
                         max_width: Fraction) -> Iterator[tuple[int, int, int]]:
    """The bisection of the smallest real root of the squarefree sf: each
    interval lo/den..hi/den (den > 0) it passes through, one step apart,
    from the first that isolates the root and is at most max_width wide.

    The bisection starts from the root bound and keeps no root at or below
    lo.  Each step samples the midpoint, or when that is a root j/k of the
    way for k = 3, 4, ... and j = 1..k-1, the first that is not, over one
    shared denominator, all in integers.  While more than one distinct
    root lies below hi, the Sturm count at the sample point decides the
    step.  Once the one root in (lo, hi) is isolated, a simple root, the
    sign of sf at the sample point decides it: it differs from the sign
    below every root exactly when the root lies below the sample point."""
    cs = sf.coeffs
    chain = _sturm_chain(list(cs))
    v_inf = _variations(_sign_at_neg_inf(q) for q in chain)
    sign_lo = _sign_at_neg_inf(cs)
    bound = root_bound(sf)
    lo, hi, den = -bound.numerator, bound.numerator, bound.denominator
    below = v_inf - _variations(_sign_at(q, hi, den) for q in chain)
    if below == 0:
        raise AlgebraError("polynomial has no real roots")
    width_num, width_den = max_width.numerator, max_width.denominator
    while True:
        if below == 1 and (hi - lo) * width_den <= width_num * den:
            yield lo, hi, den
        k, j = 2, 1
        while True:
            mid = lo * k + (hi - lo) * j
            sign = _sign_at(cs, mid, den * k)
            if sign:
                break
            j += 1
            if j == k:
                k, j = k + 1, 1
                if k > 4096:  # sf has finitely many roots; unreachable in practice
                    raise AlgebraError("could not find a non-root sample point")
        lo, hi, den = lo * k, hi * k, den * k
        if below > 1:
            count = v_inf - _variations(_sign_at(q, mid, den) for q in chain)
            if count == 0:
                lo = mid
            else:
                hi, below = mid, count
        elif sign == sign_lo:
            lo = mid
        else:
            hi = mid


def isolate_smallest_root(p: IntPolynomial, max_width: Fraction) -> tuple[Fraction, Fraction]:
    """Interval [lo, hi) of width <= max_width isolating the smallest real
    root of p: no root at or below lo, none at hi, and no other distinct
    root inside."""
    return _isolate_squarefree(squarefree_part(p), max_width)


def _isolate_squarefree(sf: IntPolynomial, max_width: Fraction) -> tuple[Fraction, Fraction]:
    """`isolate_smallest_root` given the squarefree part sf of p, for a
    caller that has it already: the interval depends on sf alone."""
    if sf.degree < 1:
        raise AlgebraError("polynomial has no roots")
    lo, hi, den = next(_isolating_intervals(sf, Fraction(max_width)))
    return Fraction(lo, den), Fraction(hi, den)


def lambda_min_approx(matrix) -> float:
    """Smallest eigenvalue to within 1e-9, by exact Sturm bisection.

    Reporting helper only; decisions always go through the exact tests.
    """
    rows = _symmetric_rows(matrix)
    if not rows:
        raise AlgebraError("empty matrix has no eigenvalues")
    p = char_poly(rows)
    lo, hi = isolate_smallest_root(p, DESCRIPTOR_WIDTH)
    return float(lo + (hi - lo) / 2)


def compare_smallest_roots(pa: IntPolynomial, pb: IntPolynomial) -> int:
    """Exact three-way comparison of the smallest real roots of pa and pb.

    Interval bisection with exact Sturm counts; equality is certified by a
    shared root of gcd(pa, pb) once both isolating intervals collapse onto
    the common value.  Tolerance-free.
    """
    sa, sb = squarefree_part(pa), squarefree_part(pb)
    ca, cb = _sturm_chain(list(sa.coeffs)), _sturm_chain(list(sb.coeffs))
    steps_a = _isolating_intervals(sa, root_bound(sa))
    steps_b = _isolating_intervals(sb, root_bound(sb))
    h = poly_gcd(sa, sb)
    ch = _sturm_chain(list(h.coeffs)) if h.degree >= 1 else None
    while True:
        la, ha, da = next(steps_a)
        lb, hb, db = next(steps_b)
        # isolating intervals are [lo, hi) with the root strictly inside
        # (lo, hi), so interval separation decides strictly
        if ha * db <= lb * da:
            return -1
        if hb * da <= la * db:
            return 1
        if ch is not None:
            lo = min(Fraction(la, da), Fraction(lb, db))
            hi = max(Fraction(ha, da), Fraction(hb, db))
            if (all(f.sign_at(x) for f in (sa, sb) for x in (lo, hi))
                    and _count_in_open_interval(ca, lo, hi) == 1
                    and _count_in_open_interval(cb, lo, hi) == 1
                    and _count_in_open_interval(ch, lo, hi) >= 1):
                return 0
