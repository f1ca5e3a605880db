"""Morita collapse and expansion of hermitian forms, and the transport of a
reference form along them, for the tests only.

`morita_collapse` rereads a Gram over M_n(D) as one over D and
`morita_expand` goes back; `transport_reference` carries a reference form
along either, recomputing its certificate.  No command reads them: the cone,
Morita and transfer layers read `reference_form` of each algebra, and the
tests use the transport as the oracle that it has the same signs.
"""

from hermsig.algebras import AlgebraWithInvolution
from hermsig.errors import AlgebraMismatchError, UnsupportedError
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
    alg = reference.algebra
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
