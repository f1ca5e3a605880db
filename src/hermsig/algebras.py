"""The catalogue of F-algebras with involution.

Four families, closed by construction:

* ``split_orth``  (M_n(F), transpose)                       orthogonal
* ``unitary``     (M_n(F(sqrt(delta))), conjugate-transpose) unitary
* ``quat_symp``   (M_n((a,b)_F), conjugate-transpose)        symplectic
* ``quat_skew``   skew-hermitian data over (M_n((a,b)_F),
                  conjugate-transpose), modeling the orthogonal
                  involutions Int(u) o conj by scaling

Everything the code needs to know about a family is in its ``Family``
record (the table ``FAMILIES``): the parameter names, the entry ring and
its dimension over F, the trace-form divisor, whether Grams are skew, and
the sign rules for nil orderings and X_sigma.  Elements are n x n matrices
over the entry ring: F itself, or one ``EntryRing`` class, a composition
algebra with its standard involution defined by two data, the products of
its basis elements e_s e_t = c e_k and the diagonal norm form of Nrd.  F(sqrt(delta)) is the
table sqrt(delta)^2 = delta with norms (1, -delta); (a, b)_F is the
quaternion table with norms (1, -a, -b, ab).  Their entries are one class,
``Entry``: one integer vector over one denominator, multiplied on the right
through an integer matrix kept on the right operand.  F and the ring share
one protocol (``zero``, ``one``, ``basis``, ``norms``, ``from_coords``, and
entries with ``conj``, ``coords``, ``trd``, ``is_zero``), so no code
branches on the family name.  Everything is immutable and exact.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub

from .errors import AlgebraMismatchError, FieldMismatchError, UnsupportedError
from .field import FieldElement, NumberField, Ordering, _canonical, sign_at
from .quadforms import diagonalize

# ---------------------------------------------------------------------------
# Entry rings.


class EntryRing:
    """A composition algebra over F with its standard involution.

    The F-basis is e_0 = 1, e_1, ..., e_{r-1}; conj fixes e_0 and negates
    the others, so Trd(x) = 2 x_0, and Nrd is the diagonal form
    sum norms[t] x_t^2.  A ring is given by its products e_s e_t = c e_k
    for s, t >= 1 (``table[(s, t)] = (c, k)``, c in F or an integer; for
    each s, t -> k is one-to-one) and by ``norms``; rings over one field are
    equal when their norms are, which determine the table of each
    constructor below.

    An entry (`Entry`) is one integer vector over one denominator, and a
    product x y is the integer right-multiplication matrix of y applied to
    the vector of x.  That matrix is assembled block by block from the
    multiplication matrices of the coordinates of y (`NumberField._columns`)
    and the table: block (k, s) is the matrix of c y_t for e_s e_t = c e_k.
    The table's constants are folded in once, here, for E the least common
    denominator that makes every E c integral: ``_blocks[k][s]`` is
    (t, f, i) with E c = f when c is rational (i None), else
    E c = f * (the constant whose integer matrix on numerators is
    ``_consts[i]``), f = +-1, each such constant kept once up to sign.  So
    the matrix of y is over y.den * E * L^(d-1) (``_scale``).
    """

    def __init__(self, field: NumberField, norms: tuple, table: dict):
        self.field = field
        self.norms = norms
        self.dim = dim = len(norms)
        deg = field.degree
        scale = field._scaled_m[-1] ** (deg - 1)
        products = {}  # (k, s) -> (t, c) for e_s e_t = c e_k
        for s in range(dim):
            for t in range(dim):
                c, k = (1, s + t) if s == 0 or t == 0 else table[s, t]
                products[k, s] = t, field.one * c
        big = math.lcm(*(c.den * (1 if c.is_rational() else scale)
                         for _, c in products.values()))
        consts: list = []

        def folded(t, c):
            if c.is_rational():
                return t, c.num[0] * (big // c.den), None
            f = 1 if c.num[-1] > 0 else -1
            rows, sc = (c * f)._matrix()
            m = tuple(tuple(big // (c.den * sc) * v for v in row) for row in rows)
            if m not in consts:
                consts.append(m)
            return t, f, consts.index(m)

        self._blocks = tuple(tuple(folded(*products[k, s]) for s in range(dim))
                             for k in range(dim))
        self._consts = tuple(consts)
        self._scale = big * scale
        self._zero_cols = [[0] * deg] * deg
        self._width = dim * deg  # the length of an entry's vector
        self._pads = tuple((0,) * (deg - i) for i in range(deg + 1))
        self._hash = hash((field, norms))

    def dot(self, terms: Iterable[tuple], base: "Entry | None" = None,
            scalar_only: bool = False) -> "Entry":
        """base + sum of sign * x * y over the (sign, x, y) in terms, None
        standing for 0 (as `NumberField.dot`): each product is the matrix
        of y (`Entry._matrix`) applied to the vector of x, or, for a y that
        is an F-scalar and has no matrix yet, x scaled by y (`_scaled`); the
        sum is taken over a common denominator and normalized once.  With
        `scalar_only`, only the F-scalar coordinate of the sum is computed,
        and the others are returned as 0: all of a sum known to be
        conj-fixed, or what a reduced trace reads."""
        d = self.field.degree
        size = d if scalar_only else self._width
        acc, den = (None, 1) if base is None else (list(base.num[:size]), base.den)
        for sign, x, y in terms:
            xn, yn = x.num, y.num
            if not any(xn) or not any(yn):
                continue
            if y._mat is None and not any(yn[d:]):
                # F is central: no matrix is built for a scalar
                c = y.c[0]
                v, vden = _scaled(xn[:size], c, d)
                vden *= x.den
            else:
                rows, mden = y._matrix()
                v = [sum(map(mul, xn, row)) for row in rows[:size]]
                vden = x.den * mden
            if acc is None:
                acc, den = v if sign > 0 else [-u for u in v], vden
                continue
            if vden != den:
                g = math.gcd(den, vden)
                if vden != g:
                    acc = [u * (vden // g) for u in acc]
                if den != g:
                    v = [u * (den // g) for u in v]
                den = den // g * vden
            acc = list(map(add if sign > 0 else sub, acc, v))
        if acc is None:
            return self.zero
        return _entry(self, acc + [0] * (self._width - size), den)

    def element(self, *coords) -> "Entry":
        cs = [c if isinstance(c, FieldElement) else self.field.element(c) for c in coords]
        return self.from_coords(cs + [self.field.zero] * (self.dim - len(cs)))

    def from_coords(self, coords: Sequence[FieldElement]) -> "Entry":
        field, pads = self.field, self._pads
        # with den the lcm of the coordinates' denominators, each in lowest
        # terms, the vector is in lowest terms too
        den = math.lcm(*[c.den for c in coords])
        num: list[int] = []
        for c in coords:
            if c.field is not field and c.field != field:
                raise FieldMismatchError("entry coordinates from a different field")
            cn = c.num
            if c.den != den:
                f = den // c.den
                cn = [v * f for v in cn]
            num += cn
            num += pads[len(cn)]
        e = Entry(self, tuple(num), den)
        e._c = tuple(coords)
        return e

    @cached_property
    def zero(self) -> "Entry":
        return Entry(self, (0,) * self._width, 1)

    @cached_property
    def one(self) -> "Entry":
        return self.element(1)

    @cached_property
    def basis(self) -> tuple:
        return tuple(self.element(*[0] * t, 1) for t in range(self.dim))

    def __eq__(self, other):
        return (isinstance(other, EntryRing) and other.field == self.field
                and other.norms == self.norms)

    def __hash__(self):
        return self._hash


class QuadExtension(EntryRing):
    """K = F(sqrt(delta)) with conjugation sqrt(delta) -> -sqrt(delta)."""

    def __init__(self, field: NumberField, delta: FieldElement):
        self.delta = delta
        super().__init__(field, (field.one, -delta), {(1, 1): (delta, 0)})


class QuaternionAlgebra(EntryRing):
    """(a, b)_F with i^2 = a, j^2 = b, ij = k = -ji."""

    def __init__(self, field: NumberField, a: FieldElement, b: FieldElement):
        self.a = a
        self.b = b
        ab = a * b
        super().__init__(field, (field.one, -a, -b, ab), {
            (1, 1): (a, 0), (1, 2): (1, 3), (1, 3): (a, 2),
            (2, 1): (-1, 3), (2, 2): (b, 0), (2, 3): (-b, 1),
            (3, 1): (-a, 2), (3, 2): (b, 1), (3, 3): (-ab, 0)})

    @property
    def i(self) -> "Entry":
        return self.basis[1]

    @property
    def j(self) -> "Entry":
        return self.basis[2]

    @property
    def k(self) -> "Entry":
        return self.basis[3]


def _scaled(num: Sequence[int], c: FieldElement, d: int) -> tuple[list[int], int]:
    """The vector num of coordinates (blocks of d) times the nonzero c, over
    a denominator that is the returned factor times that of num: a scaling,
    or the multiplication matrix of c applied to each block."""
    if len(c.num) == 1:
        return [c.num[0] * v for v in num], c.den
    rows, s = c._matrix()
    return ([sum(map(mul, num[i:i + d], row)) for i in range(0, len(num), d) for row in rows],
            c.den * s)


def _entry(ring: EntryRing, num: list[int], den: int) -> "Entry":
    """The entry num/den in lowest terms (the zero vector over 1)."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
    return Entry(ring, tuple(num), den)


class Entry:
    """An element of an entry ring: its F-coordinates x_0, ..., x_{r-1} in
    the basis e_t as one integer vector over one denominator.  Coordinate t
    is sum_i num[t d + i] x^i / den (d the degree of F), with den > 0 and
    gcd(den, num) = 1, so the representation is canonical: equality is
    equality of (num, den), and an entry equal to a scalar of F hashes like
    it.  A product by the entry on the right is its integer
    right-multiplication matrix over Q applied to a vector (`_matrix`,
    assembled by `EntryRing`), built on first use and kept.  The
    coordinates as field elements (``c``, `coords`) are a view, built on
    first use and kept."""

    __slots__ = ("ring", "num", "den", "_c", "_mat")

    def __init__(self, ring: EntryRing, num: tuple[int, ...], den: int):
        self.ring = ring
        self.num = num
        self.den = den
        self._c = None
        self._mat = None

    @property
    def c(self) -> tuple[FieldElement, ...]:
        if self._c is None:
            field, num, den = self.ring.field, self.num, self.den
            d = field.degree
            self._c = tuple(_canonical(field, list(num[i:i + d]), den)
                            for i in range(0, len(num), d))
        return self._c

    def _matrix(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The right-multiplication matrix of the entry and its
        denominator: x y = (rows applied to x.num) / (x.den * mden).  Each
        block is the column list of one coordinate's multiplication matrix
        (`NumberField._columns`), of a folded constant times it, or the
        negation of one, each made once; a block row is their transpose."""
        if self._mat is None:
            ring = self.ring
            field, num = ring.field, self.num
            d = field.degree
            ys = [num[i:i + d] for i in range(0, len(num), d)]
            made: dict = {}  # (t, f, i) -> the columns of the block
            rows: list = []
            for block_row in ring._blocks:
                cols: list = []
                for t, f, i in block_row:
                    y = ys[t]
                    if not any(y):
                        cols += ring._zero_cols
                        continue
                    block = made.get((t, f, i))
                    if block is None:
                        block = made.get((t, 1, i))
                        if block is None:
                            w = y if i is None else [sum(map(mul, y, r)) for r in ring._consts[i]]
                            block = made[t, 1, i] = field._columns(w)[0]
                        if f != 1:
                            block = made[t, f, i] = [[f * v for v in col] for col in block]
                    cols += block
                rows += zip(*cols)
            self._mat = tuple(rows), self.den * ring._scale
        return self._mat

    def _scalar(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            field = self.ring.field
            if other.field is not field and other.field != field:
                raise FieldMismatchError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.field.element(other)
        return None

    def _lift(self, other) -> "Entry | None":
        if isinstance(other, Entry):
            if other.ring is not self.ring and other.ring != self.ring:
                raise AlgebraMismatchError("entries from different entry rings")
            return other
        c = self._scalar(other)
        return None if c is None else self.ring.element(c)

    def _add(self, other, op) -> "Entry":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, da, b, db = self.num, self.den, o.num, o.den
        if da != db:
            g = math.gcd(da, db)
            a = [v * (db // g) for v in a]
            b = [v * (da // g) for v in b]
            da = da // g * db
        return _entry(self.ring, list(map(op, a, b)), da)

    def __add__(self, other):
        return self._add(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Entry(self.ring, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        return self._add(other, sub)

    def __mul__(self, other):
        c = self._scalar(other)
        if c is None:
            o = self._lift(other)
            return NotImplemented if o is None else self.ring.dot(((1, self, o),))
        if not c.num:
            return self.ring.zero
        v, vden = _scaled(self.num, c, self.ring.field.degree)
        return _entry(self.ring, v, self.den * vden)

    # F is central, so a scalar on the left acts as on the right.
    __rmul__ = __mul__

    def conj(self) -> "Entry":
        num, d = self.num, self.ring.field.degree
        return Entry(self.ring, num[:d] + tuple(-v for v in num[d:]), self.den)

    def mirrors(self, other: "Entry", skew: bool = False) -> bool:
        """other == conj(self), or -conj(self) when skew, without building
        either."""
        if other.den != self.den:
            return False
        a, b, d = self.num, other.num, self.ring.field.degree
        if skew:
            return a[d:] == b[d:] and all(u == -v for u, v in zip(a[:d], b[:d]))
        return a[:d] == b[:d] and all(u == -v for u, v in zip(a[d:], b[d:]))

    def trd(self) -> FieldElement:
        field = self.ring.field
        return _canonical(field, [2 * v for v in self.num[:field.degree]], self.den)

    def nrd(self) -> FieldElement:
        return self.ring.field.dot([(1, p * n, p) for p, n in zip(self.c, self.ring.norms) if p.num])

    def inverse(self) -> "Entry":
        return self.conj() * self.nrd().inverse()

    def is_zero(self) -> bool:
        return not any(self.num)

    def coords(self) -> tuple[FieldElement, ...]:
        return self.c

    def scalar_part(self) -> FieldElement:
        """x_0, without building the other coordinates."""
        if self._c is not None:
            return self._c[0]
        field = self.ring.field
        return _canonical(field, list(self.num[:field.degree]), self.den)

    def __eq__(self, other):
        if not isinstance(other, Entry):
            if isinstance(other, FieldElement) and other.field != self.ring.field:
                return False
            c = self._scalar(other)
            if c is None:
                return NotImplemented
            other = self.ring.element(c)
        return (other.num == self.num and other.den == self.den
                and (other.ring is self.ring or other.ring == self.ring))

    def __hash__(self):
        # an entry equal to a scalar of F hashes like it
        num, d = self.num, self.ring.field.degree
        return hash((num, self.den)) if any(num[d:]) else hash(self.scalar_part())

    def __repr__(self):
        return f"Entry({', '.join(map(repr, self.c))})"


# ---------------------------------------------------------------------------
# Squareness of delta (unitary-family validation).


def _is_rational_square(r: Fraction) -> bool:
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def is_square_in_field(e: FieldElement) -> bool:
    """Exact squareness test; supports degree <= 2 fields, rational values
    over odd-degree fields, elements negative at some ordering and
    elements whose norm is not a rational square (never squares, as
    N(y^2) = N(y)^2).  Raises UnsupportedError otherwise."""
    field = e.field
    d = field.degree
    if e.is_zero():
        return True
    if d == 1:
        return _is_rational_square(e.as_fraction())
    if d == 2:
        # m = x^2 + p x + q; solve (e0 + e1 x)^2 = u + v x exactly.
        q, p = field.min_poly[0], field.min_poly[1]
        cs = e.coeffs + (Fraction(0),) * (2 - len(e.coeffs))
        u, v = cs[0], cs[1]
        if v == 0 and _is_rational_square(u):
            return True
        # e1 != 0 branch: t = e1^2 satisfies (p^2 - 4q) t^2 + (2pv - 4u) t + v^2 = 0
        aa, bb, cc = p * p - 4 * q, 2 * p * v - 4 * u, v * v
        if aa == 0:
            roots = [] if bb == 0 else [-cc / bb]
        else:
            disc = bb * bb - 4 * aa * cc
            if disc < 0 or not _is_rational_square(disc):
                roots = []
            else:
                s = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
                roots = [(-bb + s) / (2 * aa), (-bb - s) / (2 * aa)]
        for t in roots:
            if t > 0 and _is_rational_square(t):
                e1 = Fraction(math.isqrt(t.numerator), math.isqrt(t.denominator))
                e0 = (v + p * t) / (2 * e1)
                if e0 * e0 - q * t == u:
                    return True
        return False
    if e.is_rational() and d % 2 == 1:
        # Q(sqrt(r)) has degree 1 or 2 over Q; 2 does not divide an odd degree.
        return _is_rational_square(e.as_fraction())
    if any(sign_at(e, p) < 0 for p in field.orderings):
        return False
    if not _is_rational_square(e.norm()):
        return False
    raise UnsupportedError(
        f"cannot decide squareness of {e!r} over a degree-{d} field")


# ---------------------------------------------------------------------------
# The family table.


def _unitary_ring(field: NumberField, delta: FieldElement) -> QuadExtension:
    if is_square_in_field(delta):
        raise ValueError("delta is a square; the unitary family requires "
                         "a field center")
    return QuadExtension(field, delta)


class Family:
    """The per-family facts of the catalogue.

    ``nil`` decides whether an ordering is nil from the signs of the
    parameters there, and ``x_sigma`` whether the unit trace form is PSD
    there (n copies of 2, <1, -delta>, <1, -a, -b, ab>, or for quat_skew
    one definite exactly where a < 0 < b); ``trace_divisor`` is the
    trace-form signature of a form divided by its signature at the
    collapsed (n = 1) level, read by the oracle
    ``hermitian.sylvester_count_oracle`` only; ``build_ring`` makes the
    entry ring from the field and the parameters.
    """

    def __init__(self, name: str, params: tuple[str, ...], entry_dim: int,
                 trace_divisor: int, skew: bool, nil: Callable[[tuple[int, ...]], bool],
                 x_sigma: Callable[[tuple[int, ...]], bool], build_ring: Callable):
        self.name = name
        self.params = params
        self.entry_dim = entry_dim
        self.trace_divisor = trace_divisor
        self.skew = skew
        self.nil = nil
        self.x_sigma = x_sigma
        self.build_ring = build_ring

    def make_ring(self, field: NumberField, given: dict) -> tuple[tuple, object]:
        """Validate the given parameters; return them in order, as field
        elements, with the entry ring they define."""
        if any(v is not None for k, v in given.items() if k not in self.params):
            raise ValueError(f"{self.name} takes " + (
                f"only {' and '.join(self.params)}" if self.params else "no parameters"))
        names = " and ".join(self.params)
        if any(given.get(k) is None for k in self.params):
            raise ValueError(f"{self.name} requires {names}")
        values = tuple(v if isinstance(v, FieldElement) else field.element(v)
                       for v in (given[k] for k in self.params))
        if any(v.is_zero() for v in values):
            raise ValueError(f"{names} must be nonzero")
        return values, self.build_ring(field, *values)


FAMILIES = {f.name: f for f in (
    Family("split_orth", (), 1, 1, False, lambda s: False, lambda s: True,
           lambda field: field),
    Family("unitary", ("delta",), 2, 2, False, lambda s: s[0] > 0, lambda s: s[0] < 0,
           _unitary_ring),
    Family("quat_symp", ("a", "b"), 4, 4, False, lambda s: s[0] > 0 or s[1] > 0,
           lambda s: s[0] < 0 and s[1] < 0, QuaternionAlgebra),
    Family("quat_skew", ("a", "b"), 4, 2, True, lambda s: s[0] < 0 and s[1] < 0,
           lambda s: s[0] < 0 < s[1], QuaternionAlgebra),
)}


# ---------------------------------------------------------------------------
# Algebras with involution and their elements.


class AlgebraWithInvolution:
    """A catalogue member over a number field; immutable."""

    _reference = None  # the ReferenceForm, memoized by hermitian.reference_form

    def __init__(self, field: NumberField, family: str, n: int = 1, *,
                 a=None, b=None, delta=None):
        spec = FAMILIES.get(family) if isinstance(family, str) else None
        if spec is None:
            raise UnsupportedError(
                f"unknown family {family!r}; the catalogue is closed "
                f"(supported: {', '.join(FAMILIES)})")
        if n < 1:
            raise ValueError("matrix size n must be >= 1")
        self.field = field
        self.family = family
        self.spec = spec
        self.n = n
        self.params, self.ring = spec.make_ring(field, {"a": a, "b": b, "delta": delta})

    def rebuild(self, *, field: NumberField | None = None, n: int | None = None,
                coerce: Callable[[FieldElement], FieldElement] | None = None
                ) -> "AlgebraWithInvolution":
        """The same family over another field or matrix size, with the
        parameters mapped by `coerce`."""
        values = self.params if coerce is None else tuple(coerce(v) for v in self.params)
        return AlgebraWithInvolution(self.field if field is None else field, self.family,
                                     self.n if n is None else n,
                                     **dict(zip(self.spec.params, values)))

    # -- identity -----------------------------------------------------------
    def _key(self):
        return (self.field.min_poly, self.family, self.n, self.params)

    def __eq__(self, other):
        return other is self or (isinstance(other, AlgebraWithInvolution)
                                 and other._key() == self._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        params = "".join(f", {k}={v!r}" for k, v in zip(self.spec.params, self.params))
        return f"AlgebraWithInvolution({self.family}, n={self.n}{params})"

    # -- structural invariants ------------------------------------------------
    @property
    def ext(self) -> QuadExtension | None:
        """The entry ring F(sqrt(delta)) of a unitary member, else None."""
        return self.ring if isinstance(self.ring, QuadExtension) else None

    @property
    def quat(self) -> QuaternionAlgebra | None:
        """The entry ring (a, b)_F of a quaternion member, else None."""
        return self.ring if isinstance(self.ring, QuaternionAlgebra) else None

    @property
    def entry_dim(self) -> int:
        return self.spec.entry_dim

    @property
    def skew_gram(self) -> bool:
        """True when forms over this family carry skew-hermitian Grams."""
        return self.spec.skew

    def where(self, rule: Callable[[tuple[int, ...]], bool]) -> tuple[Ordering, ...]:
        """The orderings at whose parameter signs `rule` (a ``Family``
        sign rule) holds."""
        return tuple(p for p in self.field.orderings
                     if rule(tuple(sign_at(v, p) for v in self.params)))

    @cached_property
    def _nil_tuple(self) -> tuple[Ordering, ...]:
        return self.where(self.spec.nil)

    def nil_orderings(self) -> list[Ordering]:
        return list(self._nil_tuple)

    def is_nil(self, ordering: Ordering) -> bool:
        return ordering in self._nil_tuple

    @cached_property
    def _nonnil_tuple(self) -> tuple[Ordering, ...]:
        return tuple(p for p in self.field.orderings if p not in self._nil_tuple)

    def nonnil_orderings(self) -> list[Ordering]:
        return list(self._nonnil_tuple)

    # -- entries ----------------------------------------------------------------
    @property
    def entry_zero(self):
        return self.ring.zero

    @property
    def entry_one(self):
        return self.ring.one

    def entry(self, value):
        """Coerce a ready entry, a scalar of F or a coordinate sequence."""
        if isinstance(value, Entry):
            if value.ring is not self.ring and value.ring != self.ring:
                raise AlgebraMismatchError("entry from a different entry ring")
            return value
        ed = self.entry_dim
        if isinstance(value, (int, Fraction, str, FieldElement)):
            value = (value,) + (self.field.zero,) * (ed - 1)
        if not isinstance(value, (list, tuple)) or len(value) != ed:
            raise ValueError(f"{self.family} entries are scalars or "
                             f"{ed}-component coordinate lists over F")
        return self.ring.from_coords(
            [c if isinstance(c, FieldElement) else self.field.element(c) for c in value])

    # -- twists -------------------------------------------------------------------
    def twist_at(self, ordering: Ordering) -> "Entry | None":
        """None for the hermitian families.  For quat_skew, the first of
        k, j, i with positive reduced norm at a non-nil ordering:
        Nrd(k) = ab, Nrd(j) = -b, Nrd(i) = -a.

        The signature carrier reads the pure pivots q of a skew Gram
        through Trd(w q), which is a Morita identification only where
        Nrd(w) > 0; the choice per ordering is normalized later by the
        reference form.
        """
        if not self.skew_gram:
            return None
        if self.is_nil(ordering):
            raise ValueError("no twist at a nil ordering")
        ring = self.ring
        return next(ring.basis[t] for t in (3, 2, 1) if sign_at(ring.norms[t], ordering) > 0)

    # -- elements ---------------------------------------------------------------
    def element(self, rows) -> "AlgebraElement":
        return AlgebraElement(self, rows)

    @cached_property
    def zero_element(self) -> "AlgebraElement":
        return self.scalar_element(self.entry_zero)

    @cached_property
    def one_element(self) -> "AlgebraElement":
        return self.scalar_element(self.entry_one)

    def scalar_element(self, value) -> "AlgebraElement":
        e = self.entry(value)
        z = self.entry_zero
        return AlgebraElement._of(self, [[e if r == c else z for c in range(self.n)]
                                         for r in range(self.n)])

    def collapsed(self) -> "AlgebraWithInvolution":
        """The Morita-equivalent n = 1 member of the same family."""
        return self if self.n == 1 else self.rebuild(n=1)

    def is_symmetric_element(self, x: "AlgebraElement") -> bool:
        """Fixed by the involution: conj-transpose symmetric, or skew for
        the quat_skew family (which models Int(u) o conj by scaling)."""
        ct = x.conj_transpose()
        return ct == (-x if self.skew_gram else x)

    def sym_basis(self) -> list["AlgebraElement"]:
        """Deterministic F-basis of the involution-symmetric elements: the
        basis entries e with conj(e) = +-e on the diagonal, then the pairs
        (e, +-conj(e)) at (r, c), (c, r) for every basis entry e."""
        n, z = self.n, self.entry_zero

        def flip(e):
            return -e if self.skew_gram else e

        def pair(r, c, e, f):
            rows = [[z] * n for _ in range(n)]
            rows[r][c] = e
            rows[c][r] = f
            return AlgebraElement._of(self, rows)

        basis = self.ring.basis
        diagonal = [e for e in basis if e.conj() == flip(e)]
        out = [pair(r, r, e, e) for r in range(n) for e in diagonal]
        for r in range(n):
            for c in range(r + 1, n):
                for e in basis:
                    out.append(pair(r, c, e, flip(e.conj())))
        return out


class AlgebraElement:
    """n x n matrix over the entry ring of its algebra."""

    # _form: <x> once x is known to be symmetric (hermitian.rank1_form)
    __slots__ = ("algebra", "rows", "_form")

    def __init__(self, algebra: AlgebraWithInvolution, rows):
        self.algebra = algebra
        self._form = None
        n = algebra.n
        mat = tuple(tuple(algebra.entry(v) for v in row) for row in rows)
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError(f"element must be a {n}x{n} matrix")
        self.rows = mat

    @classmethod
    def _of(cls, algebra: AlgebraWithInvolution, rows) -> "AlgebraElement":
        """An element from n rows that already hold entries of the ring
        (results of ring arithmetic on elements): no coercion, no checks."""
        x = object.__new__(cls)
        x.algebra = algebra
        x.rows = tuple(map(tuple, rows))
        x._form = None
        return x

    # rows, size, ring, field and skew: the input of quadforms.diagonalize,
    # which reduces products x* x, hermitian in every family
    skew = False
    size = property(lambda self: self.algebra.n)
    ring = property(lambda self: self.algebra.ring)
    field = property(lambda self: self.algebra.field)

    def _check(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise AlgebraMismatchError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement._of(self.algebra, [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return AlgebraElement._of(self.algebra, [[-a for a in row] for row in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.scale(other)
        self._check(other)
        dot, cols = self.algebra.ring.dot, list(zip(*other.rows))
        return AlgebraElement._of(self.algebra, [
            [dot([(1, x, y) for x, y in zip(a, col)]) for col in cols] for a in self.rows])

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int | Fraction | FieldElement) -> "AlgebraElement":
        return AlgebraElement._of(self.algebra, [[a * c for a in row] for row in self.rows])

    def conj_transpose(self) -> "AlgebraElement":
        n = self.algebra.n
        return AlgebraElement._of(self.algebra, [[self.rows[c][r].conj() for c in range(n)]
                                                 for r in range(n)])

    def trace(self):
        """Sum of diagonal entries, an entry-ring value."""
        acc = self.algebra.entry_zero
        for r in range(self.algebra.n):
            acc = acc + self.rows[r][r]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def coords(self) -> tuple[FieldElement, ...]:
        return tuple(c for row in self.rows for a in row for c in a.coords())

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and other.algebra == self.algebra
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.algebra, self.rows))

    def __repr__(self):
        return f"AlgebraElement({self.algebra.family}, n={self.algebra.n})"


def is_invertible(x: AlgebraElement) -> bool:
    """x is invertible exactly when the hermitian matrix x* x is (x* x is a
    product of invertibles, and a left inverse of x in a finite-dimensional
    algebra is an inverse): the congruence kernel finds no radical."""
    return diagonalize(x.conj_transpose() * x).radical_dim == 0


class SplitIsomorphism:
    """Explicit (1, b)_F -> M_2(F): i -> diag(1, -1), j -> [[0, b], [1, 0]].

    Plumbing of the oracle `hermitian.split_oracle_signature`, which stays
    in the package for the benchmark's answer checker; requires the
    witnessed split a = 1.
    """

    def __init__(self, quat: QuaternionAlgebra):
        if quat.a != quat.field.one:
            raise ValueError("split isomorphism requires a = 1")
        self.quat = quat

    def apply(self, q: Entry) -> list[list[FieldElement]]:
        b = self.quat.b
        w, x, y, z = q.coords()
        return [[w + x, b * (y + z)], [y - z, w - x]]

    def apply_gram(self, entries: Sequence[Sequence[Entry]]) -> list[list[FieldElement]]:
        """Blockwise image of a matrix over the quaternion algebra."""
        s = len(entries)
        out = [[None] * (2 * s) for _ in range(2 * s)]
        for r in range(s):
            for c in range(s):
                block = self.apply(entries[r][c])
                for rr in range(2):
                    for cc in range(2):
                        out[2 * r + rr][2 * c + cc] = block[rr][cc]
        return out
