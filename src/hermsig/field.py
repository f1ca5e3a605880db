"""Exact arithmetic in real number fields and their coefficient rings.

A field is Q[x]/(m) for a monic squarefree m over Q.  Its orderings are the
real roots of m, each stored as an isolating interval with dyadic endpoints.
One integer algorithm does the polynomial work: the remainder chain of
primitive pseudo-remainders (`_remainder_chain`).  On m and m' it is the
field's Sturm sequence, which decides that m is squarefree and isolates the
roots by bisection on dyadic integers; on m and an element it ends at their
gcd.  All sign decisions are exact and run on integers: a sign is read off
an integer interval evaluation over the root's current interval, refined by
bisection, and only an element whose enclosure still contains 0 goes
through the zero test: whether its gcd with m changes sign over the
ordering's defining interval.

F is the r = 1 coefficient ring of the catalogue, beside the entry rings
F(sqrt(delta)) and (a, b)_F (`algebras.EntryRing`), and the elements of
every ring are one class, `FieldElement`: F-coordinates as one canonical
integer vector over one denominator, with one normalization
(`_canonical`), one multiply-accumulate (`Ring.dot`) and one set of
operators.  A ring supplies what differs: its norms and the builder of
the multiplication matrix that products apply and keep on the right
operand, reduction modulo m for F (`NumberField._matrix_of`) and block
assembly from the table for an entry ring (`EntryRing._matrix_of`).  An
element of an entry ring that equals a scalar of F equals that scalar and
hashes like it, and a rational element hashes like its int or Fraction.
Inverses in F solve the matrix by fraction-free (Bareiss) elimination.
No floating point anywhere.

A rational root of m (a linear factor) is found at construction.  Any
other reducible m shows itself as a nonzero zero divisor: one that is 0 at
an ordering, or one whose multiplication matrix is singular.  Each raises
ReducibleModulusError, which names the factor, not a quiet 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from operator import add, mul, ne, sub

from .errors import AlgebraMismatchError, FieldMismatchError, ReducibleModulusError

RationalLike = int | str | Fraction

# A float has no exact decimal meaning (0.1 is 3602879701896397 / 2^55), so
# element coefficients refuse it.
_NOT_A_FLOAT = "coefficients must be int, str or Fraction, not float"

# ---------------------------------------------------------------------------
# Dense polynomials over Q: tuples of Fractions, constant term first,
# trailing zeros stripped; () is the zero polynomial.


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def poly_deriv(p: tuple) -> tuple:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _remainder_chain(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, ...]]:
    """a, b, -rem(a, b), ... for integer a and nonzero b, each remainder a
    pseudo-remainder (`_pseudo_rem`), scaled by a positive power of lc b,
    negated and divided by its positive content (Collins' primitive
    remainder sequence), so it has the signs of the rational sequence.  It
    ends at a constant or at the last member that divides the one before:
    gcd(a, b) up to a nonzero rational factor."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def sturm_chain(p: tuple) -> list[tuple[int, ...]]:
    """The Sturm chain p, p', -rem(p_(k-1), p_k), ... of p of degree >= 1,
    as primitive integer polynomials: the remainder chain of p and p'
    (`_remainder_chain`).  It ends at gcd(p, p'), a constant exactly when p
    is squarefree."""
    p = _primitive(p)
    return _remainder_chain(p, _primitive(poly_deriv(p)))


def _primitive(p: Sequence[RationalLike]) -> tuple[int, ...]:
    """The primitive integer polynomial that is a positive multiple of p."""
    den = math.lcm(*(c.denominator for c in p))
    num = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*num) or 1
    return tuple(v // g for v in num)


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """|lc b|^delta a mod b for integer a, b and delta = deg a - deg b + 1."""
    *tail, lead = b
    k, scale, sign = len(tail), abs(lead), 1 if lead > 0 else -1
    rem = list(a)
    for top in range(len(a) - 1, k - 1, -1):
        c = rem.pop() * sign
        rem = [scale * v for v in rem]
        for j, t in enumerate(tail, top - k):
            rem[j] -= c * t
    return _trim(rem)


def _scaled_eval(p: Sequence[int], n: int, dd: int = 1) -> int:
    """dd^e p(n/dd) for dd > 0 and p of degree e >= 0 with integer
    coefficients, by homogeneous Horner: an integer with the sign of
    p(n/dd)."""
    acc, pw = p[-1], 1
    for c in reversed(p[:-1]):
        pw *= dd
        acc = acc * n + c * pw
    return acc


def _sign_variations(values: Iterable[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


def cauchy_bound(p: tuple) -> int:
    """Integer B with every real root of p strictly inside (-B, B)."""
    return max((abs(c) for c in p[:-1]), default=0) // abs(p[-1]) + 2


def isolate_real_roots(chain: list[tuple[int, ...]]) -> list[tuple[int, int, int]]:
    """Sorted isolating intervals (a/2^e, b/2^e), as (a, b, e) and never
    ending at a root, for the real roots of a squarefree p, from its chain
    of primitive pseudo-remainders (`sturm_chain`): bisection from the
    Cauchy bound where each interval carries the chain's sign variations at
    both ends, read by `_scaled_eval` with dd = 2^e, so each midpoint is
    evaluated once."""

    def variations(n: int, e: int) -> int | None:  # None at a root of p
        values = [_scaled_eval(q, n, 1 << e) for q in chain]
        return _sign_variations(values) if values[0] else None

    bound = cauchy_bound(chain[0])
    done: list[tuple[int, int, int]] = []
    stack = [(-bound, bound, 0, variations(-bound, 0), variations(bound, 0))]
    while stack:
        a, b, e, va, vb = stack.pop()
        if va - vb == 1:
            done.append((a, b, e))
        elif va != vb:
            mid, vm = a + b, variations(a + b, e + 1)
            if vm is not None:
                stack.append((2 * a, mid, e + 1, va, vm))
                stack.append((mid, 2 * b, e + 1, vm, vb))
                continue
            # a root at the midpoint: halve the window (2 mid -+ w) / 2^f
            # until it isolates it, then recurse on the rest
            f, mid, w = e + 2, 2 * mid, b - a
            while (vl := variations(mid - w, f)) is None or (
                    vh := variations(mid + w, f)) is None or vl - vh != 1:
                f, mid = f + 1, 2 * mid
            done.append((mid - w, mid + w, f))
            stack.append((a << (f - e), mid - w, f, va, vl))
            stack.append((mid + w, b << (f - e), f, vh, vb))
    done.sort(key=lambda iv: Fraction(iv[0] + iv[1], 1 << iv[2]))
    return done


def _rational_root(m: tuple[Fraction, ...]) -> Fraction | None:
    """A rational root of the monic squarefree m, or None.  Its denominator
    divides L, the lcm of the denominators of m, so it is y / L for an
    integer root y of the monic integer q(y) = L^d m(y / L), and
    |y| < B = 1 + max |q_i|.  Take the first p >= 2 at which q' is a unit
    modulo p at every root of q modulo p (every prime not dividing the
    discriminant is such a p).  Each of those roots lifts by Newton's
    iteration to a unique root modulo p^k > 2B, and an integer root is the
    symmetric residue of its lift: no divisor of q(0) is enumerated."""
    d = len(m) - 1
    big = math.lcm(*(c.denominator for c in m))
    q = [int(c * big ** (d - i)) for i, c in enumerate(m)]
    dq = poly_deriv(q)
    bound = 2 * (1 + max(map(abs, q)))
    p = 2
    while any(_scaled_eval(q, r) % p == 0 and math.gcd(_scaled_eval(dq, r), p) > 1
              for r in range(p)):
        p += 1
    for r in range(p):
        if _scaled_eval(q, r) % p == 0:
            pk = p
            while pk <= bound:
                pk *= pk
                r = (r - _scaled_eval(q, r) * pow(_scaled_eval(dq, r), -1, pk)) % pk
            y = r - pk if 2 * r > pk else r
            if _scaled_eval(q, y) == 0:
                return Fraction(y, big)
    return None


# ---------------------------------------------------------------------------
# Coefficient rings, elements, orderings.


class Ring:
    """A coefficient ring: F itself (r = 1) or an entry ring F(sqrt(delta))
    or (a, b)_F (`algebras.EntryRing`), with the F-basis e_0 = 1, ...,
    e_{r-1}.  A ring has ``field`` (F), ``dim`` (r), ``norms`` (of Nrd),
    ``_width`` (r d, d the degree of F) and ``_matrix_of``."""

    @cached_property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (), 1)

    @cached_property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,), 1)

    @cached_property
    def basis(self) -> tuple["FieldElement", ...]:
        d = self.field.degree
        return tuple(FieldElement(self, (0,) * (t * d) + (1,), 1) for t in range(self.dim))

    def from_coords(self, coords: Sequence) -> "FieldElement":
        """The element with these coordinates, elements of F or what
        `NumberField.element` takes.  With den the lcm of their denominators,
        each in lowest terms, the vector is in lowest terms too."""
        field, d = self.field, self.field.degree
        if len(coords) != self.dim:
            raise ValueError(f"elements of this ring have {self.dim} coordinates "
                             f"over F, not {len(coords)}")
        coords = [field.element(c) for c in coords]
        den = math.lcm(*[c.den for c in coords])
        num: list[int] = []
        for t, c in enumerate(coords):
            if c.num:
                num += [0] * (t * d - len(num))
                num += c.num if c.den == den else [v * (den // c.den) for v in c.num]
        return FieldElement(self, tuple(num), den)

    def dot(self, terms: Iterable[tuple], base: "FieldElement | None" = None,
            scalar_only: bool = False) -> "FieldElement":
        """base + sum of sign * x * y over the (sign, x, y) in terms, sign
        +-1, None standing for 0: the products (`_product`) are summed over
        a common denominator and normalized once, by one gcd and one trim.
        With `scalar_only`, only the F-scalar coordinate of the sum is
        computed, and the others are returned as 0: all of a sum known to
        be conj-fixed, or what a reduced trace reads."""
        d = self.field.degree
        size = d if scalar_only else self._width
        acc, den = (None, 1) if base is None else (
            list(base.num[:size] if scalar_only else base.num), base.den)
        for sign, x, y in terms:
            if not x.num or not y.num:
                continue
            v, vden = _product(x, y, d, size)
            if acc is None:
                acc, den = v if sign > 0 else [-u for u in v], vden
                continue
            if len(acc) < len(v):
                acc += [0] * (len(v) - len(acc))
            if vden != den:
                g = math.gcd(den, vden)
                if vden != g:
                    acc = [u * (vden // g) for u in acc]
                if den != g:
                    v = [u * (den // g) for u in v]
                den = den // g * vden
            acc[:len(v)] = map(add if sign > 0 else sub, acc, v)
        return self.zero if acc is None else _canonical(self, acc, den)


class NumberField(Ring):
    """Q[x]/(m) for monic squarefree m; d = 1 gives Q itself.  As a ring it
    is the r = 1 entry ring of the split_orth family: its own field, with
    the identity involution and Nrd(x) = x^2."""

    dim = 1

    def __init__(self, min_poly: Iterable[RationalLike]):
        coeffs = _trim([Fraction(c) for c in min_poly])
        if len(coeffs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            coeffs = tuple(c / coeffs[-1] for c in coeffs)
        # L*m, for L the lcm of the denominators of m: primitive with leading
        # one L, as a prime power exactly dividing L exactly divides some
        # denominator.  _matrix_of and the orderings read m off it.
        self._scaled_m: tuple[int, ...] = _primitive(coeffs)
        self._sturm = sturm_chain(self._scaled_m)
        if len(self._sturm[-1]) > 1:
            raise ValueError("minimal polynomial must be squarefree")
        self.field = self
        self.degree = self._width = len(coeffs) - 1
        self._scale = self._scaled_m[-1] ** (self.degree - 1)  # of every matrix over F
        if len(coeffs) > 2 and (root := _rational_root(coeffs)) is not None:
            raise ReducibleModulusError("minimal polynomial is reducible: it has the "
                                        f"factor {render_element(self.element([-root, 1]))}")
        self.min_poly: tuple[Fraction, ...] = coeffs
        self.norms = (self.one,)  # Nrd(x) = x^2
        # (expression, generator name) -> element, memoized by
        # session.parse_element for the document that built this field
        self._parsed: dict[tuple[str, str], FieldElement] = {}

    def _columns(self, num: Sequence[int]) -> list[list[int]]:
        """The columns of the multiplication matrix of the integer polynomial
        num of degree < d over the scale s = L^(d-1) (`_scale`): column j is
        x^j num times s, reduced.  Column j + 1 is x times column j minus C/L
        times L*m, for C the top coefficient: s times a multiple of 1/L^j."""
        *tail, lead = self._scaled_m
        d, s = self.degree, self._scale
        col = [v * s for v in num] + [0] * (d - len(num))
        cols = [col]
        for _ in range(d - 1):
            c = col[-1] // lead
            col = [v - c * t for v, t in zip([0, *col], tail)]
            cols.append(col)
        return cols

    def _matrix_of(self, num: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The multiplication matrix of num by reduction modulo m
        (`_columns`), by rows R, with x^j num congruent to
        sum_i R[i][j] x^i / s."""
        return tuple(zip(*self._columns(num))), self._scale

    @cached_property
    def orderings(self) -> tuple["Ordering", ...]:
        intervals = isolate_real_roots(self._sturm)
        return tuple(Ordering(self, a, b, e, i) for i, (a, b, e) in enumerate(intervals))

    def element(self, coeffs: RationalLike | Iterable[RationalLike]) -> "FieldElement":
        """The element with these coefficients; an element of F is taken as
        it is, and one of another ring refused."""
        if isinstance(coeffs, (int, str, Fraction)):
            coeffs = [coeffs]
        elif type(coeffs) is FieldElement:
            if coeffs.ring is not self and coeffs.ring != self:
                raise FieldMismatchError("not an element of this field")
            return coeffs
        elif isinstance(coeffs, float):
            raise TypeError(_NOT_A_FLOAT)
        vec = list(coeffs)
        if len(vec) <= self.degree and all(type(c) is int for c in vec):
            # already reduced, with integer coefficients: the numerators over 1
            return _canonical(self, vec, 1)
        if any(isinstance(c, float) for c in vec):
            raise TypeError(_NOT_A_FLOAT)
        vec = [Fraction(c) for c in vec]
        den = math.lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        if len(num) > self.degree:
            # L^delta num = q L*m + rem, for L = lc(L*m) > 0 and delta the
            # number of reduction steps: the element is rem / (den L^delta)
            den *= self._scaled_m[-1] ** (len(num) - self.degree)
            num = list(_pseudo_rem(num, self._scaled_m))
        return _canonical(self, num, den)

    @cached_property
    def gen(self) -> "FieldElement":
        """The class of x; for d = 1 this is a rational number."""
        return self.element([0, 1])

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, NumberField) and self.min_poly == other.min_poly)

    def __hash__(self) -> int:
        return hash(self.min_poly)

    def __repr__(self) -> str:
        return f"NumberField({[str(c) for c in self.min_poly]})"


def _common_ring(r: Ring, s: Ring) -> Ring:
    """The ring of a result of an r-element and an s-element: r when r = s,
    else the entry ring of the two when the other is its field F."""
    if r is s or r == s or s == r.field:
        return r
    if r == s.field:
        return s
    if r.field != s.field:
        raise FieldMismatchError("elements of different fields")
    raise AlgebraMismatchError("elements of different entry rings")


def _canonical(ring: Ring, num: list[int], den: int) -> "FieldElement":
    """The element num/den of the ring: trailing zeros dropped, lowest
    terms.  The one normalization of every ring."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return FieldElement(ring, (), 1)
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
    return FieldElement(ring, tuple(num), den)


def _product(x: "FieldElement", y: "FieldElement", d: int,
             size: int) -> tuple[list[int], int]:
    """The numerator and denominator of x y (nonzero) before normalization,
    up to coordinate `size` (blocks of d).  A rational operand scales the
    other; else the matrix of y (`FieldElement._matrix`) applies to x, F
    being central: an F-scalar x goes right, and the matrix of an F-scalar
    y applies to each coordinate of x, unless they are all rational and
    scale y."""
    xn, yn = x.num, y.num
    lx, ly = len(xn), len(yn)
    if ly == 1:
        return [yn[0] * v for v in xn[:size]], x.den * y.den
    if 1 < lx <= d >= ly:
        rows, s = y._matrix()
        return [sum(map(mul, xn, row)) for row in rows], x.den * y.den * s
    if lx == 1:
        return [xn[0] * v for v in yn[:size]], x.den * y.den
    if ly > d:
        if lx > d:
            rows, s = y._matrix()
            return [sum(map(mul, xn, row)) for row in rows[:size]], x.den * y.den * s
        x, y, xn, yn, lx, ly = y, x, yn, xn, ly, lx
    den = x.den * y.den
    blocks = range(0, min(lx, size), d)
    if any(any(xn[i + 1:i + d]) for i in blocks):
        rows, s = y._matrix()
        return [sum(map(mul, xn[i:i + d], row)) for i in blocks for row in rows], den * s
    out: list[int] = []
    for i in blocks:
        if xn[i]:
            out += [0] * (i - len(out))
            out += [xn[i] * w for w in yn]
    return out, den


class FieldElement:
    """An element of a coefficient ring (`Ring`): its F-coordinates x_0,
    ..., x_{r-1} as one integer vector over one common denominator,
    coordinate t being sum_i num[t d + i] x^i / den (d the degree of F),
    with den > 0, gcd(den, num) = 1 and no trailing zero in num.  So
    equality is equality of (num, den) over compatible rings, and an
    F-scalar of an entry ring (len(num) <= d) has the (num, den) of the
    element of F it equals.  A product by y applies the multiplication
    matrix of y, built on first use and kept (`_matrix`)."""

    __slots__ = ("ring", "num", "den", "_mat")

    def __init__(self, ring: Ring, num: tuple[int, ...], den: int):
        self.ring = ring
        self.num = num
        self.den = den
        self._mat = None

    @property
    def field(self) -> NumberField:
        return self.ring.field

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients c_0, ..., c_{d-1} as Fractions (trimmed)."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def _coerce(self, other) -> "FieldElement | None":
        """other as an element, None for a type it does not know."""
        if type(other) is FieldElement:
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.ring.field, (int(other.numerator),) if other else (),
                                other.denominator)
        return None

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def as_fraction(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        if len(self.num) > 1:
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    # -- the involution and the coordinates -----------------------------------
    def conj(self) -> "FieldElement":
        """The involution: it fixes the F-scalars and negates the other
        coordinates."""
        num, d = self.num, self.ring.field.degree
        if len(num) <= d:
            return self
        return FieldElement(self.ring, num[:d] + tuple([-v for v in num[d:]]), self.den)

    def mirrors(self, other: "FieldElement", skew: bool = False) -> bool:
        """other == conj(self), or -conj(self) when skew, without building
        either."""
        a, b, d = self.num, other.num, self.ring.field.degree
        if other.den != self.den or len(a) != len(b):
            return False
        if skew:
            return a[d:] == b[d:] and all(u == -v for u, v in zip(a[:d], b[:d]))
        return a[:d] == b[:d] and all(u == -v for u, v in zip(a[d:], b[d:]))

    def coords(self) -> tuple["FieldElement", ...]:
        """x_0, ..., x_{r-1}, elements of F."""
        field, num, den = self.ring.field, self.num, self.den
        d = field.degree
        return tuple(_canonical(field, list(num[i:i + d]), den)
                     for i in range(0, self.ring._width, d))

    def scalar_part(self) -> "FieldElement":
        """x_0, an element of F, without building the other coordinates."""
        field = self.ring.field
        return _canonical(field, list(self.num[:field.degree]), self.den)

    def trd(self) -> "FieldElement":
        """The reduced trace x + conj(x) = 2 x_0 of an entry ring; on F,
        the trace of M_1(F), x itself."""
        if self.ring is self.ring.field:
            return self
        return self.scalar_part() * 2

    def nrd(self) -> "FieldElement":
        """The reduced norm x conj(x), sum_t norms[t] x_t^2, in F."""
        ring = self.ring
        return ring.field.dot([(1, p * n, p) for p, n in zip(self.coords(), ring.norms) if p.num])

    # -- arithmetic ----------------------------------------------------------
    def _add(self, other, sign: int) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring if o.ring is self.ring else _common_ring(self.ring, o.ring)
        a, da = self.num, self.den
        b, db = o.num, o.den
        if da == db:
            sa = sb = 1
            den = da
        else:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            den = da * sa
        out = [v * sa for v in a] if sa != 1 else list(a)
        if len(b) > len(out):
            out.extend([0] * (len(b) - len(out)))
        sb *= sign
        for i, v in enumerate(b):
            out[i] += v * sb
        return _canonical(ring, out, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.ring, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The one-term case of `Ring.dot`."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring if o.ring is self.ring else _common_ring(self.ring, o.ring)
        if not self.num or not o.num:
            return ring.zero
        return _canonical(ring, *_product(self, o, ring.field.degree, ring._width))

    # only a scalar of F comes on the left through __rmul__, and F is central
    __rmul__ = __mul__

    def _matrix(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The multiplication matrix R of num and its scale s, built on
        first use and kept: x y = (R x.num) / (x.den y.den s).  F builds it
        for an F-scalar, whose matrix acts on each coordinate, else the
        ring (`NumberField._matrix_of`, `EntryRing._matrix_of`)."""
        if self._mat is None:
            ring = self.ring
            field = ring.field
            self._mat = (ring if len(self.num) > field.degree else field)._matrix_of(self.num)
        return self._mat

    def _eliminate(self) -> tuple[list[list[int]], int, int]:
        """Fraction-free (Bareiss) elimination of [M | e_0], for M the
        multiplication matrix of num (`_matrix`) over F.  Returns the rows,
        the last pivot prev and the number of row swaps; det M = (-1)^swaps
        prev.  M is singular exactly when the element is a zero divisor,
        which raises ReducibleModulusError."""
        field = self.ring
        d = field.degree
        rows = [list(r) + [int(i == 0)] for i, r in enumerate(self._matrix()[0])]
        prev, swaps = 1, 0
        for k in range(d):
            if not rows[k][k]:
                r = next((r for r in range(k + 1, d) if rows[r][k]), None)
                if r is None:
                    raise _zero_divisor(field, _remainder_chain(field._scaled_m, self.num)[-1])
                rows[k], rows[r] = rows[r], rows[k]
                swaps += 1
            pivot_row = rows[k]
            p = pivot_row[k]
            for i in range(k + 1, d):
                row = rows[i]
                a = row[k]
                for j in range(k + 1, d + 1):
                    row[j] = (p * row[j] - a * pivot_row[j]) // prev
            prev = p
        return rows, prev, swaps

    def inverse(self) -> "FieldElement":
        """1 / x: in an entry ring conj(x) Nrd(x)^-1; in F, the solution of
        num * y = 1 for the multiplication matrix of num (`_eliminate`)."""
        num, ring = self.num, self.ring
        if not num:
            raise ZeroDivisionError("division by zero")
        if len(num) == 1:
            c = num[0]
            return FieldElement(ring, (self.den if c > 0 else -self.den,), abs(c))
        if ring is not ring.field:
            return self.conj() * self.nrd().inverse()
        d = ring.degree
        rows, prev, _ = self._eliminate()
        # prev = +-det(M), so det * solution is integral: back-substitute
        # z_i = prev * y_i exactly, for M y = e_0.
        z = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            acc = prev * row[d]
            for j in range(i + 1, d):
                acc -= row[j] * z[j]
            z[i] = acc // row[i]
        # M = s * (multiplication by num), so 1 / num = s y
        sign = 1 if prev > 0 else -1
        den = self.den * self._mat[1] * sign
        return _canonical(ring, [den * v for v in z], prev * sign)

    def norm(self) -> Fraction:
        """N(e), the determinant of multiplication by e in F.  For
        e = num / den it is N(num) / den^d, and the matrix M that
        `_eliminate` reduces is s times multiplication by num, so
        det M = s^d N(num)."""
        num, d = self.num, _field_of(self, "the norm N_F/Q").degree
        if len(num) <= 1:
            return Fraction(num[0] if num else 0, self.den) ** d
        _, prev, swaps = self._eliminate()
        return Fraction(-prev if swaps % 2 else prev, (self._mat[1] * self.den) ** d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        """Square-and-multiply from the lowest bit, never multiplying by 1."""
        if n < 0:
            return self.inverse() ** (-n)
        acc, base = self.ring.one if not n else None, self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other) -> bool:
        if type(other) is not FieldElement:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return (self.den == other.denominator
                    and self.num == ((int(other.numerator),) if other else ()))
        if other.num != self.num or other.den != self.den:
            return False
        r, s = self.ring, other.ring
        return r is s or r == s or s == r.field or r == s.field

    def __hash__(self) -> int:
        # a rational element hashes like the int or Fraction it equals
        num = self.num
        if len(num) > 1:
            return hash((num, self.den))
        n = num[0] if num else 0
        return hash(n) if self.den == 1 else hash(Fraction(n, self.den))

    def __repr__(self) -> str:
        return f"<{', '.join(render_element(c) for c in self.coords())}>"


#: The rationals as the degree-1 field Q[x]/(x).
QQ = NumberField([0, 1])


def _field_of(a: FieldElement, what: str) -> NumberField:
    """The ring of a, which must be a field: an element of an entry ring
    has no sign, norm over Q or polynomial representative."""
    if a.ring is not a.ring.field:
        raise FieldMismatchError(f"{what} is defined for elements of F, not of an entry ring")
    return a.ring


def render_element(a: FieldElement, gen: str = "x") -> str:
    """Canonical human/machine string: polynomial in the generator."""
    _field_of(a, "rendering")
    if a.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mono = gen if i == 1 else f"{gen}^{i}"
        if c == 1:
            term = mono
        elif c == -1:
            term = f"-{mono}"
        else:
            term = f"{c}*{mono}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


class Ordering:
    """An ordering of a number field: an isolated real root of min_poly.

    The defining interval (a/2^e, b/2^e) of `isolate_real_roots` is
    immutable (it is the identity of the ordering) and ends at no root;
    sign queries refine a private copy monotonically, which never changes
    any result, only the amount of work later queries do.  The copy is kept
    as integers (L, H, D) with D > 0, standing for [L/D, H/D].
    """

    def __init__(self, field: NumberField, a: int, b: int, e: int, index: int):
        self.field = field
        self.lo = Fraction(a, 1 << e)
        self.hi = Fraction(b, 1 << e)
        self.index = index
        # orderings key dicts on hot paths; the identity never changes
        self._hash = hash((field.min_poly, self.lo, self.hi))
        self._L, self._H, self._D = a, b, 1 << e
        # m changes sign only at the root, so its sign at every later lower
        # endpoint is this one.
        self._lo_positive = _scaled_eval(field._scaled_m, a, 1 << e) > 0

    @cached_property
    def separator(self) -> "FieldElement":
        """s_P = -(theta - lo)(theta - hi) over the defining interval: positive
        at this ordering only, whose root is the one inside (lo, hi)."""
        fld = self.field
        return -(fld.gen - fld.element(self.lo)) * (fld.gen - fld.element(self.hi))

    def _refine_once(self) -> None:
        lo, hi, dd = self._L, self._H, self._D
        mid = lo + hi
        if (_scaled_eval(self.field._scaled_m, mid, 2 * dd) > 0) == self._lo_positive:
            self._L, self._H = mid, 2 * hi
        else:
            self._L, self._H = 2 * lo, mid
        self._D = 2 * dd

    def __eq__(self, other) -> bool:
        # a field object builds each of its orderings once, at its own index
        return isinstance(other, Ordering) and (
            other.index == self.index if other.field is self.field else
            other.field == self.field and (other.lo, other.hi) == (self.lo, self.hi))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Ordering#{self.index}({self.lo}, {self.hi})"


def _zero_divisor(field: NumberField, g: Sequence[int]) -> ReducibleModulusError:
    """The error for a nonzero element that shares the proper factor g
    (integer, 0 < deg g < d) with m; the message names g / lc g."""
    factor = field.element([Fraction(c, g[-1]) for c in g])
    return ReducibleModulusError(
        "element is a zero divisor, not invertible: the minimal polynomial "
        f"has the factor {render_element(factor)}")


def _zero_test(a: FieldElement, ordering: Ordering) -> None:
    """Raise ReducibleModulusError if the nonzero a is 0 at the ordering.
    In a field no nonzero element vanishes at a root of m, so one that does
    is a zero divisor.  It does exactly when g = gcd(L*m, num a), the last
    member of their remainder chain (`_remainder_chain`), changes sign
    between the ends lo, hi of the ordering's defining interval: g divides
    the squarefree m, so it has at most the one root of m inside, a simple
    one, and the ends are roots of m, hence of g, neither.  The defining
    interval never changes, so the answer does not depend on how far the
    ordering was refined."""
    g = _remainder_chain(a.ring._scaled_m, a.num)[-1]
    lo, hi = ordering.lo, ordering.hi
    if _scaled_eval(g, lo.numerator, lo.denominator) * \
            _scaled_eval(g, hi.numerator, hi.denominator) < 0:
        raise _zero_divisor(a.ring, g)


def sign_at(a: FieldElement, ordering: Ordering) -> int:
    """Exact sign of a at the ordering: -1, 0 or +1.

    The numerator polynomial is evaluated over the current root interval
    [L/D, H/D] by integer interval Horner: step j adds num[j] * D^(e-j),
    so the enclosure is the rational one times D^e > 0.  Each step bounds
    v t, for v in the running enclosure and t in [L, H], by a corner of the
    box: on an interval on one side of 0 the sign of each bound of v picks
    its corner, two products per coefficient; on one that straddles 0 the
    bounds are the least and greatest of the four products.  While the
    enclosure contains 0 the interval is bisected; the zero test
    (`_zero_test`, a sign change of gcd(L*m, num) over the defining
    interval) runs once, before the first bisection, because refinement
    never ends on a true zero.  Only the zero element has sign 0: a nonzero
    element that is 0 at the ordering proves m reducible and raises
    ReducibleModulusError.
    """
    if a.ring is not ordering.field and _field_of(a, "a sign") != ordering.field:
        raise FieldMismatchError("element and ordering belong to different fields")
    num = a.num
    if not num:
        return 0
    if len(num) == 1:
        return 1 if num[0] > 0 else -1
    zero_tested = False
    while True:
        lo_end, hi_end, dd = ordering._L, ordering._H, ordering._D
        vlo = vhi = 0
        pw = 1
        if lo_end >= 0:
            # t >= 0 on the interval: v t is least at (vlo, lo) when vlo >= 0,
            # else at (vlo, hi); greatest at (vhi, hi) when vhi >= 0, else
            # at (vhi, lo)
            for c in reversed(num):
                c *= pw
                vlo, vhi = (vlo * (lo_end if vlo >= 0 else hi_end) + c,
                            vhi * (hi_end if vhi >= 0 else lo_end) + c)
                pw *= dd
        elif hi_end <= 0:
            # t <= 0: the mirror image, least at (vhi, lo) or (vhi, hi) and
            # greatest at (vlo, hi) or (vlo, lo)
            for c in reversed(num):
                c *= pw
                vlo, vhi = (vhi * (lo_end if vhi >= 0 else hi_end) + c,
                            vlo * (hi_end if vlo >= 0 else lo_end) + c)
                pw *= dd
        else:
            for c in reversed(num):
                cands = (vlo * lo_end, vlo * hi_end, vhi * lo_end, vhi * hi_end)
                c *= pw
                vlo, vhi = min(cands) + c, max(cands) + c
                pw *= dd
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        if not zero_tested:
            _zero_test(a, ordering)
            zero_tested = True
        ordering._refine_once()


def four_square_decomposition(r: RationalLike) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Write r > 0 exactly as a sum of four rational squares.

    r = pq/q^2 with integers p, q > 0; pq = 4^k m with m not divisible by 4
    is decomposed into four integer squares by descending bounded search on
    m, then scaled by 2^k / q.  A first square a^2 is skipped when m - a^2
    has the form 4^j (8i + 7), which is no sum of three squares (Legendre).
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("input must be positive")
    n = r.numerator * r.denominator
    scale = Fraction(1, r.denominator)
    while n % 4 == 0:
        n //= 4
        scale *= 2
    for a in range(math.isqrt(n), -1, -1):
        ra = n - a * a
        rest = ra
        while rest and rest % 4 == 0:
            rest //= 4
        if rest % 8 == 7:
            continue
        for b in range(min(a, math.isqrt(ra)), -1, -1):
            rb = ra - b * b
            for c in range(min(b, math.isqrt(rb)), -1, -1):
                rc = rb - c * c
                d = math.isqrt(rc)
                if d * d == rc and d <= c:
                    return (a * scale, b * scale, c * scale, d * scale)
    raise AssertionError("unreachable: Lagrange guarantees a decomposition")
