"""The trace form over F: a test oracle for the congruence kernel.

The trace form of a form h with entry Gram G is x -> Trd(conj(x)^t G x w)
on the entry vectors, a quadratic form over F of dimension size * entry_dim.
For the hermitian families w = 1.  A quat_skew Gram is skew, so its
untwisted pairing is alternating, and a pure twist w makes it symmetric:
the fixed i of the involution convention Int(i) o conj in `trace_form`, or
the positive-norm `twist_at(P)` for signatures.  The signature at a non-nil
ordering is the trace-form signature divided by the family's
``trace_divisor``; the package computes it from the kernel's pivots
instead (``hermitian._carrier``).
"""

from hermsig.hermitian import HermitianForm
from hermsig.quadforms import GramQuadraticForm, diagonalize
from hermsig.errors import InvariantError
from hermsig.field import sign_at


def default_twist(algebra):
    """The twist i of the convention Int(i) o conj of quat_skew; None for
    the hermitian families."""
    return algebra.quat.i if algebra.skew_gram else None


def entry_trace_rows(h, twist=None):
    """The Gram over F of (x, y) -> Trd(conj(x)^t G y [twist]) in the
    F-basis of the entry vectors of h."""
    if (twist is None) == h.algebra.skew_gram:
        raise ValueError("a twist is required exactly for quat_skew")
    w = h.ring.one if twist is None else twist
    basis, g = h.ring.basis, h.gram
    return [[(bu.conj() * g[r][t] * bv * w).trd() for t in range(h.size) for bv in basis]
            for r in range(h.size) for bu in basis]


def trace_form(h):
    """The quadratic form x -> Trd(sigma(x)^t G x) on A^k over F, of
    dimension rank(h) * dim_F A (n orthogonal copies of the collapsed one);
    quat_skew Grams are paired with the fixed twist i."""
    entry_rows = entry_trace_rows(h, default_twist(h.algebra))
    n = h.algebra.n
    base = len(entry_rows)
    zero = h.algebra.field.zero
    rows = [[zero] * (base * n) for _ in range(base * n)]
    for copy in range(n):
        for r in range(base):
            for c in range(base):
                rows[copy * base + r][copy * base + c] = entry_rows[r][c]
    return GramQuadraticForm(h.algebra.field, rows)


def trace_diag(h, twist=None):
    """A diagonal of the trace form of h with the given twist."""
    gram = GramQuadraticForm(h.algebra.field, entry_trace_rows(h, twist))
    return list(diagonalize(gram).pivots)


def trace_carrier(h, ordering):
    """The trace-form diagonal at a non-nil ordering (twisted by
    `twist_at(P)` for quat_skew) and the family's trace divisor."""
    alg = h.algebra
    return trace_diag(h, alg.twist_at(ordering)), alg.spec.trace_divisor


def trace_signature(h, ordering):
    """s_P(h) from the trace form: zero at nil orderings, otherwise the
    carrier's sign sum divided, exactly, by the trace divisor."""
    if h.algebra.is_nil(ordering):
        return 0
    values, div = trace_carrier(h, ordering)
    total = sum(sign_at(d, ordering) for d in values)
    if total % div:
        raise InvariantError(f"trace-form signature {total} not divisible by {div}")
    return total // div


def trace_rank(h):
    """The rank of the trace form of h (with the fixed twist i for quat_skew)."""
    return len(trace_diag(h, default_twist(h.algebra)))


def unit_form(algebra):
    """<1>_sigma; for quat_skew the scaled skew Gram <(1/a) i> representing
    the unit form of the modeled involution Int(i) o conj."""
    if not algebra.skew_gram:
        return HermitianForm.diagonal(algebra, [algebra.one_element])
    return HermitianForm.diagonal(algebra, [algebra.scalar_element(algebra.quat.i.inverse())])
