"""Quadratic forms over a number field and their signatures.

A form is diagonal, or a Gram matrix that is reduced to a diagonal by exact
congruence once per form (`GramQuadraticForm._kernel`).  `diagonalize` is
the one congruence kernel of the package: it also reduces the entry Grams
of hermitian forms over F(sqrt(delta)) and (a, b)_F.  The signature at an
ordering is the sign sum of the diagonal; no isotropy decision beyond
signatures is attempted.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property

from .errors import FieldMismatchError
from .field import (
    FieldElement,
    NumberField,
    Ordering,
    sign_at,
)


class QuadraticForm:
    """Diagonal form <d_1, ..., d_k>; the empty list is the zero form."""

    def __init__(self, field: NumberField, entries: Iterable):
        self.field = field
        self.entries: tuple[FieldElement, ...] = tuple(map(field.element, entries))
        if any(e.is_zero() for e in self.entries):
            raise ValueError("diagonal entries must be nonzero")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuadraticForm) and other.field == self.field
                and other.entries == self.entries)

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        return f"QuadraticForm({list(self.entries)!r})"


class GramQuadraticForm:
    """Symmetric Gram matrix over the field; possibly degenerate."""

    skew = False  # the input protocol of diagonalize

    def __init__(self, field: NumberField, rows: Sequence[Sequence]):
        self.field = self.ring = field  # the input of diagonalize: ring is F
        self.rows: tuple[tuple[FieldElement, ...], ...] = tuple(
            tuple(map(field.element, row)) for row in rows
        )
        self.size = k = len(self.rows)
        if any(len(row) != k for row in self.rows):
            raise ValueError("Gram matrix must be square")
        for i in range(k):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i}, {j})")

    @cached_property
    def _kernel(self) -> "Diagonalization":
        """The congruence kernel on the Gram, computed once per form."""
        return diagonalize(self)

    def __repr__(self) -> str:
        return f"GramQuadraticForm({self.size}x{self.size})"


class Diagonalization:
    """Result of congruence reduction: S* G S = diag(pivots, 0, ..., 0), S*
    the conjugate transpose.  The pivots are F-scalars, except for a skew
    Gram, whose pivots are pure quaternions, with their reduced norms in
    `norms` (None otherwise).  `transform` is S, or None when not asked
    for."""

    def __init__(self, field: NumberField, pivots: tuple, radical_dim: int,
                 transform: tuple[tuple, ...] | None = None, norms: tuple | None = None):
        self.field = field
        self.pivots = pivots
        self.radical_dim = radical_dim
        self.transform = transform
        self.norms = norms

    @cached_property
    def form(self) -> QuadraticForm:
        """<pivots> over F (F-scalar pivots only)."""
        return QuadraticForm(self.field, self.pivots)


def _generalized_inverse(q, ring):
    """G with q G q = q for a nonzero pure q with Nrd(q) = 0: with w the
    first basis entry with tau = Trd(q w) != 0, q w q = tau q and
    q conj(w) q = -tau q give G = (w - conj(w) + conj(w) q w / tau) / tau."""
    w = next(b for b in ring.basis if not (q * b).trd().is_zero())
    ti = (q * w).trd().inverse()
    wc = w.conj()
    return (w - wc + wc * q * w * ti) * ti


def diagonalize(gram, *, with_transform: bool = False) -> Diagonalization:
    """Gaussian elimination by congruence: the one kernel of the package.

    `gram` has a square matrix ``rows`` of ``size`` over ``ring``, entries
    with ``conj``, ``is_zero``, ``coords`` and ring arithmetic, and a flag
    ``skew``: a `GramQuadraticForm` (``ring`` is F), a ``HermitianForm``, or
    an ``AlgebraElement`` x* x.  A hermitian Gram has m[s][r] = conj(m[r][s])
    and conj-fixed diagonal entries, so each pivot is their F-scalar part.
    A skew Gram (a quat_skew ``HermitianForm``) has m[s][r] = -conj(m[r][s])
    and pure-quaternion diagonal entries, which are kept as the pivots.

    Pivot rule: the first nonzero diagonal entry; for a skew Gram the first
    with Nrd != 0 if there is one.  If the remaining diagonal is zero but
    the block is not, take its first nonzero m_ij: over F the block
    [[0, c], [c, 0]] becomes diag(c, -c) via the columns
    (e_i + e_j/2, e_i - e_j/2); over an entry ring e_i <- e_i + e_j lam,
    lam the first basis entry that makes the new m_ii = c lam +- conj(c lam)
    nonzero.  Each pivot d replaces the trailing block by its Schur
    complement m_rs - m_rp d^-1 m_ps on the lower triangle, mirrored.  Each
    m_rs - t m_ps, t = m_rp d^-1, is one multiply-accumulate (`ring.dot`)
    through the matrix of m_ps, built once for every later row; on a
    hermitian Gram the diagonal one, m_rr - Nrd(m_rp) d^-1, is conj-fixed,
    so only its F-scalar coordinate is computed.

    A skew pivot q with Nrd(q) = 0 is nilpotent (q^2 = -Nrd(q)) and has no
    inverse.  If q m_pr = 0 for every later row r, each m_pr lies in qD,
    the right annihilator of q, and a G with q G q = q stands in for q^-1.
    Otherwise, for the first r with q m_pr != 0, e_p <- e_p + e_r t mu, mu
    the first basis entry with Trd(q m_pr mu) != 0: the new Nrd(m_pp) is a
    quartic in t with a simple root at 0, so one of t = 1..4 makes it
    nonzero.  Nrd of each diagonal entry the pivot search examines is
    computed once; a skew pivot q is inverted as conj(q) Nrd(q)^-1, and
    its norm kept.  Zero rows are the radical.  S is built on request.
    """
    field, ring = gram.field, gram.ring
    scalar = ring is field
    skew = gram.skew
    k = gram.size
    # m is kept (skew-)hermitian and indexed by original rows; order[pos] is
    # the row at elimination position pos, so swaps move no entries.
    m = [list(row) for row in gram.rows]
    order = list(range(k))
    zero = ring.zero
    # scol[r] is column r of S, kept by original index like m.
    scol = ([[ring.one if i == j else zero for i in range(k)] for j in range(k)]
            if with_transform else None)

    def mirror(v):  # m_sr from m_rs (conj is the identity on F)
        return -v.conj() if skew else v.conj()

    def sheared(rp, r, c):
        """m_pp after e_p <- e_p + e_r c."""
        x = m[rp][r] * c
        return m[rp][rp] + x + mirror(x) + c.conj() * m[r][r] * c

    def shear(p, r, c):
        """e_p <- e_p + e_r c over an entry ring: only row and column p
        change."""
        rp = order[p]
        pp = sheared(rp, r, c)
        for s in order[p + 1:]:
            v = m[s][r]
            if not v.is_zero():
                w = m[s][rp] = m[s][rp] + v * c
                m[rp][s] = mirror(w)
        m[rp][rp] = pp
        if scol is not None:
            scol[rp] = [a + b * c for a, b in zip(scol[rp], scol[r])]

    diag: list = []
    norms: list = []
    for p in range(k):
        pivot = next((pos for pos in range(p, k) if not m[order[pos]][order[pos]].is_zero()),
                     None)
        norm = None  # Nrd of a skew pivot, once known
        if skew and pivot is not None:
            norm = field.zero  # unless a later entry has Nrd != 0
            for pos in range(pivot, k):
                e = m[order[pos]][order[pos]]
                if not e.is_zero() and not (n := e.nrd()).is_zero():
                    pivot, norm = pos, n
                    break
        if pivot is None:
            off = next(((i, j) for i in range(p, k) for j in range(i + 1, k)
                        if not m[order[i]][order[j]].is_zero()), None)
            if off is None:
                break
            i, j = off
            order[p], order[i] = order[i], order[p]
            rp, rj = order[p], order[j]
            if scalar:
                # columns (p, j) <- (c_p + c_j/2, c_p - c_j/2): block becomes
                # diag(c, -c) for the off-diagonal entry c.
                c = m[rp][rj]
                half = field.element(Fraction(1, 2))
                for r in order[p + 1:]:
                    if r == rj:
                        continue
                    a, hb = m[r][rp], half * m[r][rj]
                    m[r][rp] = m[rp][r] = a + hb
                    m[r][rj] = m[rj][r] = a - hb
                m[rp][rp], m[rj][rj] = c, -c
                m[rp][rj] = m[rj][rp] = zero
                if scol is not None:
                    sp, sj = scol[rp], scol[rj]
                    scol[rp] = [a + half * b for a, b in zip(sp, sj)]
                    scol[rj] = [a - half * b for a, b in zip(sp, sj)]
            else:
                shear(p, rj, next(b for b in ring.basis
                                  if not sheared(rp, rj, b).is_zero()))
            pivot = p
        order[p], order[pivot] = order[pivot], order[p]
        rp = order[p]
        mp = m[rp]
        rest = order[p + 1:]
        d = mp[rp] if scalar or skew else mp[rp].scalar_part()
        if not skew:
            # The inverse also certifies that the pivot is not a zero divisor.
            inv = d.inverse()
        else:
            if norm is None:  # a pivot made by the hyperbolic step
                norm = d.nrd()
            if norm.is_zero():
                r = next((r for r in rest if not (d * mp[r]).is_zero()), None)
                if r is None:
                    inv = _generalized_inverse(d, ring)
                else:
                    dm = d * mp[r]
                    mu = next(b for b in ring.basis if not (dm * b).trd().is_zero())
                    for c in range(1, 5):
                        if not (norm := sheared(rp, r, mu * c).nrd()).is_zero():
                            break
                    shear(p, r, mu * c)
                    d = mp[rp]
            if not norm.is_zero():
                inv = d.conj() * norm.inverse()
            norms.append(norm)
        for idx, r in enumerate(rest):
            mr = m[r]
            a = mr[rp]
            if a.is_zero():
                continue
            t = a * inv
            for s in rest[:idx]:
                b = mp[s]
                if not b.is_zero():
                    v = mr[s] = ring.dot(((-1, t, b),), mr[s])
                    m[s][r] = v if scalar else mirror(v)
            # over an entry ring a hermitian m_rr - Nrd(m_rp) d^-1 is conj-fixed
            mr[r] = ring.dot(((-1, t, mp[r]),), mr[r], scalar_only=not (skew or scalar))
            if scol is not None:
                # e_r <- e_r - e_p d^-1 m_pr, and d^-1 m_pr = conj(t)
                tc = t.conj()
                scol[r] = [x - y * tc for x, y in zip(scol[r], scol[rp])]
        diag.append(d)

    radical = k - len(diag)
    transform = None
    if scol is not None:
        transform = tuple(tuple(scol[order[c]][r] for c in range(k)) for r in range(k))
    return Diagonalization(field, tuple(diag), radical, transform,
                           tuple(norms) if skew else None)


def signature_q(form: QuadraticForm | GramQuadraticForm, ordering: Ordering) -> int:
    """Sylvester signature at one ordering."""
    if isinstance(form, GramQuadraticForm):
        form = form._kernel.form
    if form.field != ordering.field:
        raise FieldMismatchError("form and ordering belong to different fields")
    return sum(sign_at(d, ordering) for d in form.entries)


def total_signature_q(form: QuadraticForm | GramQuadraticForm) -> list[tuple[Ordering, int]]:
    if isinstance(form, GramQuadraticForm):
        form = form._kernel.form
    return [(p, signature_q(form, p)) for p in form.field.orderings]


def harrison_set(field: NumberField, slots: Sequence) -> list[Ordering]:
    """Orderings at which every slot is positive; all of X_F for no slots."""
    elems = [field.element(b) for b in slots]
    if any(b.is_zero() for b in elems):
        raise ValueError("Harrison slots must be nonzero")
    return [p for p in field.orderings if all(sign_at(b, p) > 0 for b in elems)]


def field_trace(e: FieldElement) -> Fraction:
    """Tr_{L/Q}(e): the trace of the multiplication matrix of e (over its
    scale and the denominator of e; d e for a rational e)."""
    if e.is_rational():
        return e.field.degree * e.as_fraction()
    rows, s = e._matrix()
    return Fraction(sum(row[i] for i, row in enumerate(rows)), s * e.den)
