"""Witt-level operations that only the tests use.

Nondegeneracy, orthogonal sums, negation, Pfister forms, the Witt sum and product with
syntactic cancellation of <a, -a> pairs, the Scharlau transfer of a
diagonal form along Tr_{L/Q}, the trace formula, and the local-global
torsion tests.  No command needs them (the `torsion` op applies its own
rule to the signature table), so they are test helpers, not package code.
"""

from fractions import Fraction

from hermsig.errors import AlgebraMismatchError, FieldMismatchError
from hermsig.field import QQ
from hermsig.hermitian import HermitianForm, _nondegenerate_dim, total_signature_h
from hermsig.quadforms import (
    GramQuadraticForm,
    QuadraticForm,
    _as_element,
    field_trace,
    signature_q,
)


def is_nondegenerate(h):
    """The Gram is invertible over the algebra: the radical is trivial."""
    return _nondegenerate_dim(h) == h.size * h.algebra.entry_dim


def perp(h1, h2):
    """The orthogonal sum h1 perp h2 of hermitian forms."""
    if h2.algebra != h1.algebra:
        raise AlgebraMismatchError("forms over different algebras")
    z = h1.algebra.entry_zero
    s1, s2 = h1.size, h2.size
    rows = [[z] * (s1 + s2) for _ in range(s1 + s2)]
    for r in range(s1):
        for c in range(s1):
            rows[r][c] = h1.gram[r][c]
    for r in range(s2):
        for c in range(s2):
            rows[s1 + r][s1 + c] = h2.gram[r][c]
    return HermitianForm(h1.algebra, rows)


def neg(h):
    """-h: the negated Gram."""
    return HermitianForm(h.algebra, [[-v for v in row] for row in h.gram])


def pfister(field, slots):
    """<<b_1, ..., b_t>> = tensor of <1, b_i>: all subset products, 2^t entries."""
    elems = [_as_element(field, b) for b in slots]
    if any(b.is_zero() for b in elems):
        raise ValueError("Pfister slots must be nonzero")
    entries = []
    for mask in range(1 << len(elems)):
        prod = field.one
        for i, b in enumerate(elems):
            if mask >> i & 1:
                prod = prod * b
        entries.append(prod)
    return QuadraticForm(field, entries)


def witt_cancel(entries):
    """Drop matched <a, -a> pairs (first-match order); a normalization
    convenience, not a Witt-class decision procedure."""
    out = list(entries)
    i = 0
    while i < len(out):
        j = next((j for j in range(i + 1, len(out)) if out[j] == -out[i]), None)
        if j is None:
            i += 1
        else:
            del out[j]
            del out[i]
    return tuple(out)


def witt_sum(f, g):
    if f.field != g.field:
        raise FieldMismatchError("forms over different fields")
    return QuadraticForm(f.field, witt_cancel(f.entries + g.entries))


def witt_tensor(f, g):
    if f.field != g.field:
        raise FieldMismatchError("forms over different fields")
    prods = [a * b for a in f.entries for b in g.entries]
    return QuadraticForm(f.field, witt_cancel(prods))


def transfer(form):
    """Scharlau transfer along Tr_{L/Q}: the Gram matrix over Q of
    (x, y) -> Tr(d x y) in the power basis, one block per diagonal entry."""
    field = form.field
    d = field.degree
    size = form.rank * d
    zero = Fraction(0)
    rows = [[zero] * size for _ in range(size)]
    for slot, entry in enumerate(form.entries):
        for i in range(d):
            for j in range(i, d):
                basis_i = field.element([0] * i + [1])
                basis_j = field.element([0] * j + [1])
                v = field_trace(entry * basis_i * basis_j)
                rows[slot * d + i][slot * d + j] = v
                rows[slot * d + j][slot * d + i] = v
    return GramQuadraticForm(QQ, rows)


def knebusch_identity_holds(form):
    """Both sides of the trace formula for a form over L, base Q."""
    lhs = signature_q(transfer(form), QQ.orderings[0])
    rhs = sum(signature_q(form, q) for q in form.field.orderings)
    return lhs == rhs


def torsion_test_q(form):
    """Local-global: torsion iff the signature vanishes at every ordering."""
    return all(signature_q(form, p) == 0 for p in form.field.orderings)


def torsion_test_h(h):
    """Local-global: torsion iff the full signature table vanishes."""
    return all(v == 0 for _, v in total_signature_h(h))
