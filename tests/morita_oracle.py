"""Morita collapse and expansion of hermitian forms, and the transport of a
reference form along them, for the tests only.

`morita_collapse` rereads a Gram over M_n(D) as one over D and
`morita_expand` goes back; `transport_reference` carries a reference form
along either, recomputing its certificate, and `signature_by` signs a form
by such a form.  No command reads them: every signature reads
`reference_form` of its algebra, and the tests use the transport as the
oracle that it has the same signs.
"""

from hermsig.algebras import AlgebraWithInvolution
from hermsig.errors import AlgebraMismatchError, UnsupportedError
from hermsig.field import Ordering
from hermsig.hermitian import HermitianForm, ReferenceForm, raw_signature


def morita_collapse(h: HermitianForm) -> HermitianForm:
    """Reread a k x k Gram over M_n(D) as an nk x nk Gram over D."""
    collapsed = h.algebra.collapsed()
    if collapsed is h.algebra:
        return h
    return HermitianForm(collapsed, h.gram)


def morita_expand(h: HermitianForm, n: int) -> HermitianForm:
    """Inverse reread onto the degree-n member of the same family."""
    alg = h.algebra
    if alg.n != 1:
        raise UnsupportedError("expand starts from a collapsed (n = 1) form")
    if h.size % n != 0:
        raise ValueError(f"rank {h.size} is not a multiple of {n}")
    return HermitianForm(alg.rebuild(n=n), h.gram)


def transport_reference(reference: ReferenceForm,
                        target: AlgebraWithInvolution) -> ReferenceForm:
    """zeta(eta) along collapse/expand: same entry Gram, certificate
    recomputed (raw signatures are collapse-invariant)."""
    alg = reference.form.algebra
    if target.n == 1 and alg.n != 1:
        form = morita_collapse(reference.form)
    elif alg.n == 1 and target.n != 1:
        form = morita_expand(reference.form, target.n)
        if form.algebra != target:
            raise AlgebraMismatchError("expansion target mismatch")
    elif alg == target:
        return reference
    else:
        raise AlgebraMismatchError("transport requires Morita-related members")
    cert = {p: raw_signature(form, p) for p in target.nonnil_orderings()}
    return ReferenceForm(form, cert)


def signature_by(h: HermitianForm, ordering: Ordering, eta: HermitianForm) -> int:
    """sign^eta_P h for a reference form eta other than `reference_form`:
    sgn(s_P(eta)) * s_P(h), zero at nil orderings, where s_P(h) is."""
    if eta.algebra != h.algebra:
        raise AlgebraMismatchError("reference form over a different algebra")
    return (1 if raw_signature(eta, ordering) > 0 else -1) * raw_signature(h, ordering)
