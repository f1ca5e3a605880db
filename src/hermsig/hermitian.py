"""Hermitian forms over catalogue algebras and their signatures.

A form of rank k over (M_n(D), -) is stored at entry level: a kn x kn
matrix over the entry ring D, conj-transpose symmetric (skew for the
quat_skew family, whose Grams are skew-hermitian data for the orthogonal
involutions Int(u) o conj).  In every family the kn x kn entry Gram is
reduced by the one congruence kernel ``quadforms.diagonalize``.  Its pivots
are F-scalars for the hermitian families and pure quaternions q for
quat_skew; ``_carrier`` reads them as F-values (for q, through the twist
``AlgebraWithInvolution.twist_at(P)``), and the signature at a non-nil
ordering is the sum of their signs.  The sign ambiguity of the Morita
reduction is fixed by one reference form per algebra, constructed per
family and memoized on the algebra (`reference_form`); every signature
reads its sign, and no function takes another reference.  The trace form
over F is not on this path; it serves the oracle ``sylvester_count_oracle``
only.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .algebras import (
    AlgebraElement,
    AlgebraWithInvolution,
    SplitIsomorphism,
    is_invertible,
)
from .errors import (
    AlgebraMismatchError,
    InvariantError,
    UnsupportedError,
)
from .field import QQ, FieldElement, NumberField, Ordering, sign_at
from .quadforms import (
    Diagonalization,
    GramQuadraticForm,
    QuadraticForm,
    diagonalize,
    field_trace,
    signature_q,
)

class HermitianForm:
    """Gram matrix over the entry ring; rank k = size / n over the algebra."""

    def __init__(self, algebra: AlgebraWithInvolution, rows: Sequence[Sequence]):
        self.algebra = algebra
        gram = tuple(tuple(map(algebra.entry, row)) for row in rows)
        size = len(gram)
        if any(len(row) != size for row in gram):
            raise ValueError("Gram matrix must be square")
        if size % algebra.n != 0:
            raise ValueError("Gram size must be a multiple of the matrix degree n")
        # gram (also rows), size, ring and field: the input of diagonalize
        self.gram = self.rows = gram
        self.size = size
        self.ring, self.field = algebra.ring, algebra.field
        skew = algebra.skew_gram
        for r in range(size):
            for c in range(r, size):
                if not gram[r][c].mirrors(gram[c][r], skew):
                    kind = "skew-hermitian" if skew else "hermitian"
                    raise ValueError(f"Gram matrix is not {kind} at ({r}, {c})")

    @classmethod
    def _of(cls, algebra: AlgebraWithInvolution, rows) -> "HermitianForm":
        """A form from rows of ring entries already known to be
        (skew-)hermitian: no coercion, no checks."""
        h = object.__new__(cls)
        h.algebra = algebra
        h.gram = h.rows = rows
        h.size = len(rows)
        h.ring, h.field = algebra.ring, algebra.field
        return h

    @classmethod
    def diagonal(cls, algebra: AlgebraWithInvolution, values: Iterable) -> "HermitianForm":
        """<a_1, ..., a_k> as a block-diagonal entry Gram."""
        blocks = []
        for v in values:
            if isinstance(v, AlgebraElement):
                if v.algebra != algebra:
                    raise AlgebraMismatchError("diagonal entry from a different algebra")
                blocks.append(v.rows)
            else:
                blocks.append(algebra.scalar_element(v).rows)
        n = algebra.n
        size = n * len(blocks)
        z = algebra.ring.zero
        rows = [[z] * size for _ in range(size)]
        for b, block in enumerate(blocks):
            for r in range(n):
                for c in range(n):
                    rows[b * n + r][b * n + c] = block[r][c]
        return cls(algebra, rows)

    # with gram, size, ring and field: the input of diagonalize
    skew = property(lambda self: self.algebra.skew_gram)

    @property
    def rank(self) -> int:
        return self.size // self.algebra.n

    @cached_property
    def _kernel(self) -> Diagonalization:
        """The congruence kernel on the entry Gram."""
        return diagonalize(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HermitianForm) and other.algebra == self.algebra
                and other.gram == self.gram)

    def __repr__(self) -> str:
        return f"HermitianForm({self.algebra.family}, rank={self.rank})"


def rank1_form(x: AlgebraElement, error: str) -> HermitianForm:
    """<x> for a symmetric element x, built once and kept on x, so that its
    kernel pivots serve every ordering and orientation; raises
    ValueError(error) if x is not symmetric (a failure is not kept)."""
    form = x._form
    if form is None:
        if not x.algebra.is_symmetric_element(x):
            raise ValueError(error)
        form = x._form = HermitianForm._of(x.algebra, x.rows)
    return form


def scale_by_quadratic(q: QuadraticForm, h: HermitianForm) -> HermitianForm:
    """q . h: the Gram tensor of a diagonal quadratic form with h."""
    if q.field != h.algebra.field:
        raise AlgebraMismatchError("quadratic factor over a different field")
    alg = h.algebra
    z = alg.ring.zero
    s = h.size
    size = s * q.rank
    rows = [[z] * size for _ in range(size)]
    for b, d in enumerate(q.entries):
        for r in range(s):
            for c in range(s):
                rows[b * s + r][b * s + c] = h.gram[r][c] * d
    return HermitianForm(alg, rows)


# ---------------------------------------------------------------------------
# Signature carriers and raw signatures.


def _carrier(h: HermitianForm, ordering: Ordering) -> Sequence[FieldElement]:
    """F-values whose signs at a non-nil ordering sum to the signature of h,
    and which all lie on a cone's side exactly when h does.

    For the hermitian families these are the kernel's pivots.  For
    quat_skew each pure pivot q gives two values, with u = `twist_at(P)`:
    (Trd(u q), Trd(u q) Nrd(q)), or (Nrd(q), -Nrd(q)) when Trd(u q) = 0,
    which forces Nrd(q) <_P 0 because u^perp is negative definite at P."""
    pivots = h._kernel.pivots
    if not h.skew:
        return pivots
    u = h.algebra.twist_at(ordering)
    values = []
    for q, n in zip(pivots, h._kernel.norms):
        # Trd(u q) = Trd(q u): u, a basis entry, keeps its matrix, and the
        # trace reads only the F-scalar coordinate
        t = h.ring.dot(((1, q, u),), scalar_only=True).trd()
        values += (n, -n) if t.is_zero() else (t, t * n)
    return values


def raw_signature(h: HermitianForm, ordering: Ordering) -> int:
    """s_P(h): zero at nil orderings, otherwise the sign sum of the carrier.

    quat_skew uses the positive-norm twist at the ordering; the resulting
    per-ordering Morita choice is normalized by the reference form.
    """
    alg = h.algebra
    if alg.field != ordering.field:
        raise AlgebraMismatchError("ordering belongs to a different field")
    if alg.is_nil(ordering):
        return 0
    return sum(sign_at(d, ordering) for d in _carrier(h, ordering))


def _nondegenerate_dim(h: HermitianForm) -> int:
    """F-dimension of the nondegenerate part of h: entry_dim per pivot, but
    2 for a quat_skew pivot with Nrd = 0, whose qD has dimension 2."""
    ed = h.algebra.entry_dim
    if not h.skew:
        return len(h._kernel.pivots) * ed
    return sum(2 if n.is_zero() else ed for n in h._kernel.norms)


def witt_rank(h: HermitianForm) -> int:
    """Rank of the nondegenerate part (the Witt-class rank)."""
    nd = _nondegenerate_dim(h)
    width = h.algebra.entry_dim * h.algebra.n
    if nd % width != 0:
        raise InvariantError("degenerate part is not a free-module form; "
                             "width is not an algebra rank")
    return nd // width


def rank1_max_signature(algebra: AlgebraWithInvolution, ordering: Ordering) -> int:
    """Largest rank-1 signature at the ordering: 0 at nil orderings, n for
    the hermitian families, 2n for quat_skew (attained by <twist_at(P)>)."""
    if algebra.is_nil(ordering):
        return 0
    return 2 * algebra.n if algebra.skew_gram else algebra.n


# ---------------------------------------------------------------------------
# Reference forms and normalized signatures.


class ReferenceForm:
    """A diagonal form with nonzero raw signature on every non-nil ordering."""

    def __init__(self, form: HermitianForm, certificate: dict[Ordering, int]):
        if any(v == 0 for v in certificate.values()):
            raise InvariantError("reference certificate entries must be nonzero")
        self.form = form
        self.certificate = certificate


def find_reference_form(algebra: AlgebraWithInvolution) -> ReferenceForm:
    """The reference form, built: <1> for the hermitian families, whose
    kernel pivots are all 1, so s_P = n at every non-nil P.  For quat_skew,
    <t I_n> for each distinct twist t = `twist_at(P)` over the non-nil P, in
    (i, j, k) order, or <i> without non-nil orderings: at a non-nil P the
    twist is the one pure of i, j, k with Nrd >_P 0, so its block gives
    |s_P| = 2n and the other two give 0.

    Both claims are checked, not assumed: the entries must be invertible (a
    reference form is nonsingular), and `ReferenceForm` rejects a zero in
    the certificate that `raw_signature` reads."""
    nonnil = algebra.nonnil_orderings()
    if algebra.skew_gram:
        quat = algebra.quat
        twists = {algebra.twist_at(p) for p in nonnil} or {quat.i}
        diagonal = [algebra.scalar_element(t) for t in (quat.i, quat.j, quat.k)
                    if t in twists]
    else:
        diagonal = [algebra.one_element]
    if not all(is_invertible(d) for d in diagonal):
        raise InvariantError("reference diagonal entries must be invertible")
    form = HermitianForm.diagonal(algebra, diagonal)
    return ReferenceForm(form, {p: raw_signature(form, p) for p in nonnil})


def reference_form(algebra: AlgebraWithInvolution) -> ReferenceForm:
    """find_reference_form(algebra), memoized on the algebra."""
    if algebra._reference is None:
        algebra._reference = find_reference_form(algebra)
    return algebra._reference


def _reference_sign(algebra: AlgebraWithInvolution, ordering: Ordering) -> int:
    """sgn s_P(eta) for eta = `reference_form(algebra)` at a non-nil P."""
    return 1 if reference_form(algebra).certificate[ordering] > 0 else -1


def signature(h: HermitianForm, ordering: Ordering) -> int:
    """sign^eta_P h = sgn(s_P(eta)) * s_P(h) for eta = `reference_form` of
    the algebra of h; zero at nil orderings."""
    if h.algebra.is_nil(ordering):
        return 0
    return _reference_sign(h.algebra, ordering) * raw_signature(h, ordering)


def total_signature_h(h: HermitianForm) -> list[tuple[Ordering, int]]:
    return [(p, signature(h, p)) for p in h.algebra.field.orderings]


# ---------------------------------------------------------------------------
# Going-up and the trace-formula transfer.


def going_up_algebra(algebra: AlgebraWithInvolution, ext: NumberField) -> AlgebraWithInvolution:
    if algebra.field.degree != 1:
        raise UnsupportedError("going-up supports base field Q only")
    return algebra.rebuild(field=ext, coerce=lambda e: ext.element(e.as_fraction()))


def going_up(h: HermitianForm, ext: NumberField) -> HermitianForm:
    """Reinterpret the structure constants and Gram entries over L."""
    target = going_up_algebra(h.algebra, ext)
    rows = [[target.ring.from_coords([c.as_fraction() for c in entry.coords()])
             for entry in row] for row in h.gram]
    return HermitianForm(target, rows)


def _descend_algebra(algebra: AlgebraWithInvolution) -> AlgebraWithInvolution:
    return algebra.rebuild(field=QQ, coerce=lambda e: QQ.element(e.as_fraction()))


def scharlau_transfer(h: HermitianForm) -> HermitianForm:
    """Transfer along id_A (x) Tr_{L/Q} in the power basis of L; the
    algebra's structure constants must be rational."""
    ext = h.algebra.field
    try:
        base_alg = _descend_algebra(h.algebra)
    except ValueError as exc:
        raise UnsupportedError("transfer requires rational structure constants") from exc
    d = ext.degree
    powers = [ext.element([0] * i + [1]) for i in range(d)]
    size = h.size * d
    z = base_alg.ring.zero
    rows = [[z] * size for _ in range(size)]
    for s in range(h.size):
        for t in range(h.size):
            g = h.gram[s][t]
            coords = g.coords()
            for alpha in range(d):
                for beta in range(d):
                    rows[s * d + alpha][t * d + beta] = base_alg.ring.from_coords(
                        [field_trace(c * powers[alpha] * powers[beta]) for c in coords])
    return HermitianForm(base_alg, rows)


class KnebuschReport:
    def __init__(self, holds: bool, transfer_side: int, sum_side: int):
        self.holds = holds
        self.transfer_side = transfer_side
        self.sum_side = sum_side


def knebusch_check(h: HermitianForm) -> KnebuschReport:
    """Both sides of the trace formula for a form over A (x) L, base Q,
    each signed by the reference form of its algebra.  That of A (x) L is
    the one of A gone up: the structure constants are rational, so
    `find_reference_form` picks the same twists over L as over Q."""
    transferred = scharlau_transfer(h)
    lhs = signature(transferred, QQ.orderings[0])
    rhs = sum(signature(h, q) for q in h.algebra.field.orderings)
    return KnebuschReport(lhs == rhs, lhs, rhs)


class SylvesterDecomposition:
    """n_P^2 x <u_1..u_t> (x) h ~ <a_1..a_r> perp <b_1..b_s> with t = 1,
    u_1 = 1 in the division-at-P scope; value = (r - s) / (n_P t)."""

    def __init__(self, weights: tuple[FieldElement, ...], positive: list[FieldElement],
                 negative: list[FieldElement], radical_dim: int):
        self.weights = weights
        self.positive = positive
        self.negative = negative
        self.radical_dim = radical_dim

    @property
    def value(self) -> int:
        return len(self.positive) - len(self.negative)


def sylvester_decompose(h: HermitianForm, cone) -> SylvesterDecomposition:
    """Decompose against a positive cone (orientation epsilon over P).

    Scope: n = 1 and A (x) F_P division (n_P = 1), i.e. the split_orth,
    unitary and quat_symp families at a non-nil P.
    """
    alg = h.algebra
    if cone.algebra != alg:
        raise AlgebraMismatchError("cone over a different algebra")
    if alg.n != 1:
        raise UnsupportedError("decomposition is defined at the n = 1 level: "
                               "reread the Gram over the collapsed algebra first")
    if alg.skew_gram:
        raise UnsupportedError("non-division scope violation: A (x) F_P is "
                               "a full matrix algebra for quat_skew")
    p = cone.ordering
    dec = h._kernel
    pos, neg = [], []
    for d in dec.pivots:
        side = cone._side * sign_at(d, p)
        if side > 0:
            pos.append(d)
        elif side < 0:
            neg.append(d)
        else:
            raise InvariantError("invertible diagonal entry on no side")
    return SylvesterDecomposition((alg.field.one,), pos, neg, dec.radical_dim)


# ---------------------------------------------------------------------------
# Oracles.  No command calls `split_oracle_signature` or
# `sylvester_count_oracle`: they are independent signatures that the
# benchmark's answer checker (perfbench/checks.py) imports from this module,
# so they stay here, with `SplitIsomorphism`, `_entry_trace_rows` and
# `Family.trace_divisor` behind them, until a benchmark change moves them to
# the tests.


def split_oracle_signature(h: HermitianForm, ordering: Ordering) -> int:
    """Independent signature via the explicit split D = (1, b)_F -> M_2(F).

    quat_symp Grams become alternating bilinear forms (Witt-trivial), so the
    oracle value is 0; quat_skew Grams G map to the symmetric matrix
    (I (x) J) phi(G) whose Sylvester signature is the oracle value.
    """
    alg = h.algebra
    if alg.quat is None:
        raise UnsupportedError("oracle applies to the quaternion families")
    phi = SplitIsomorphism(alg.quat)
    if not alg.skew_gram:
        return 0
    big = phi.apply_gram(h.gram)
    field = alg.field
    size = 2 * h.size
    rows = [[field.zero] * size for _ in range(size)]
    for r in range(h.size):
        # left-multiply each 2x2 block row by J = [[0, 1], [-1, 0]]
        for c in range(size):
            rows[2 * r][c] = big[2 * r + 1][c]
            rows[2 * r + 1][c] = -big[2 * r][c]
    return signature_q(GramQuadraticForm(field, rows), ordering)


def _entry_trace_rows(h: HermitianForm) -> list[list[FieldElement]]:
    """Gram over F of (x, y) -> Trd(conj(x)^t G y) in the F-basis of the
    entry vectors (alternating for a skew Gram)."""
    basis, g = h.ring.basis, h.gram
    return [[(bu.conj() * g[r][t] * bv).trd() for t in range(h.size) for bv in basis]
            for r in range(h.size) for bu in basis]


def sylvester_count_oracle(h: HermitianForm, ordering: Ordering) -> int:
    """Independent signature for the hermitian families at a non-nil
    ordering: the trace-form signature divided by the family's
    ``trace_divisor``, off the pivot route of `raw_signature`."""
    if h.skew:
        raise UnsupportedError("the untwisted trace form of a skew Gram is alternating")
    trace = diagonalize(GramQuadraticForm(h.field, _entry_trace_rows(h)))
    total = sum(sign_at(d, ordering) for d in trace.pivots)
    q, r = divmod(total, h.algebra.spec.trace_divisor)
    if r:
        raise InvariantError(f"trace-form signature {total} is not a multiple of the divisor")
    return q
