"""Positive cones on catalogue algebras and sums-of-hermitian-squares.

Cones are intensional: an ordering P, an orientation, and a membership
procedure; they are never materialized.  Membership is the diagonal sign
rule of the rank-1 form <m>: every value of its signature carrier lies on
the oriented side at P.  The values are read from the pivots of the
congruence kernel on the entry Gram of m: the pivots themselves for the
hermitian families, two values per pure pivot for quat_skew
(``hermitian._carrier``).  The pivots do not depend on the cone: <m> is
built once per element (``rank1_form``), so one reduction serves every
ordering and orientation.

A sums-of-hermitian-squares certificate writes a symmetric u as a weighted
sum of sandwiches of one generator <a>, `default_generator` unless one is
given: `find_sos_certificate` constructs or searches for one, gated by the
cones over the non-nil orderings of a Harrison set, and
`verify_certificate` re-evaluates it exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebras import AlgebraElement, AlgebraWithInvolution, is_invertible
from .errors import AlgebraMismatchError
from .field import FieldElement, Ordering, four_square_decomposition, sign_at
from .hermitian import (
    ReferenceForm,
    _carrier,
    rank1_form,
    rank1_max_signature,
    raw_signature,
    reference_form,
    signature,
)
from .quadforms import GramQuadraticForm, diagonalize, harrison_set


class PositiveCone:
    """A maximal cone: base ordering, orientation, reference for the sign."""

    def __init__(self, algebra: AlgebraWithInvolution, ordering: Ordering,
                 orientation: int, reference: ReferenceForm | None = None):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if algebra.is_nil(ordering):
            raise ValueError("positive cones exist over non-nil orderings only")
        self.algebra = algebra
        self.ordering = ordering
        self.orientation = orientation
        self.reference = reference if reference is not None else reference_form(algebra)
        if self.reference.algebra != algebra:
            raise AlgebraMismatchError("reference form over a different algebra")

    def _oriented_sign(self) -> int:
        cert = self.reference.certificate[self.ordering]
        return self.orientation * (1 if cert > 0 else -1)

    def contains(self, element: AlgebraElement) -> bool:
        """Membership by congruence reduction of <element>: every value of
        its signature carrier must lie on the oriented side (zero pivots
        impose no constraint; 0 is always a member)."""
        alg = self.algebra
        if element.algebra != alg:
            raise AlgebraMismatchError("element of a different algebra")
        form = rank1_form(element, "cone membership is defined for symmetric elements")
        want = self._oriented_sign()
        return all(want * sign_at(d, self.ordering) >= 0
                   for d in _carrier(form, self.ordering))

    def sample_member(self, rng, terms: int = 2, height: int = 2) -> AlgebraElement:
        """A random member: sum of weighted sandwiches of the oriented
        maximal generator (axioms (P2)+(P3) closure applied to it)."""
        alg = self.algebra
        if not hasattr(self, "_max_gen"):
            self._max_gen = maximal_generator(self)
        total = alg.zero_element
        for _ in range(rng.randint(1, terms)):
            x = _random_element(alg, rng, height)
            while x.is_zero():
                x = _random_element(alg, rng, height)
            u = _random_positive_scalar(alg, self.ordering, rng, height)
            total = total + (x.conj_transpose() * self._max_gen * x).scale(u)
        return total

    def id_pair(self) -> tuple[int, int]:
        return (self.ordering.index, self.orientation)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PositiveCone) and other.algebra == self.algebra
                and other.ordering == self.ordering
                and other.orientation == self.orientation)

    def __hash__(self) -> int:
        return hash((self.algebra, self.ordering, self.orientation))

    def __repr__(self) -> str:
        sign = "+" if self.orientation > 0 else "-"
        return f"PositiveCone(P{self.ordering.index}, {sign})"


def _random_element(alg: AlgebraWithInvolution, rng, height: int) -> AlgebraElement:
    ed = alg.entry_dim
    return AlgebraElement(alg, [[[rng.randint(-height, height) for _ in range(ed)]
                                 for _ in range(alg.n)] for _ in range(alg.n)])


def _random_positive_scalar(alg: AlgebraWithInvolution, ordering: Ordering,
                            rng, height: int) -> FieldElement:
    fld = alg.field
    while True:
        e = fld.element([rng.randint(-height, height) for _ in range(fld.degree)])
        if not e.is_zero() and sign_at(e, ordering) > 0:
            return e


def maximal_generator(cone: PositiveCone) -> AlgebraElement:
    """An invertible element of the cone with maximal rank-1 signature: the
    oriented unit for the hermitian families, +-twist_at(P) for quat_skew."""
    alg = cone.algebra
    p = cone.ordering
    want = cone._oriented_sign()
    if not alg.skew_gram:
        return alg.scalar_element(alg.field.element(want))
    gen = alg.scalar_element(alg.twist_at(p))
    form = rank1_form(gen, "pure quaternion scalars are symmetric for quat_skew")
    return gen if want * raw_signature(form, p) > 0 else -gen


def eta_maximal(element: AlgebraElement, ordering: Ordering,
                reference: ReferenceForm) -> bool:
    """Maximal rank-1 signature at the ordering, with positive sign; at a
    nil ordering every invertible symmetric element is vacuously maximal."""
    alg = element.algebra
    form = rank1_form(element, "eta-maximality is defined for symmetric elements")
    if not is_invertible(element):
        raise ValueError("eta-maximality is defined for invertible elements")
    return signature(form, ordering, reference) == rank1_max_signature(alg, ordering)


def enumerate_positive_cones(algebra: AlgebraWithInvolution,
                             reference: ReferenceForm | None = None) -> list[PositiveCone]:
    """Two cones per non-nil ordering; empty iff the algebra is not
    formally real."""
    ref = reference if reference is not None else reference_form(algebra)
    cones = []
    for p in algebra.nonnil_orderings():
        for eps in (1, -1):
            cones.append(PositiveCone(algebra, p, eps, ref))
    return cones


def formally_real(algebra: AlgebraWithInvolution) -> bool:
    return bool(algebra.nonnil_orderings())


@dataclass
class PositivityReport:
    x_sigma: list[Ordering]
    x_tilde: list[Ordering]
    ps_prime_holds: bool
    ps_sufficient: bool


def positivity_sets(algebra: AlgebraWithInvolution) -> PositivityReport:
    """X_sigma, where the unit trace form is PSD (nil orderings included),
    by the sign rule of the family; (PS') holds iff X_sigma equals the
    non-nil set, which is also the sufficient condition for (PS)."""
    x_sigma = list(algebra.where(algebra.spec.x_sigma))
    x_tilde = algebra.nonnil_orderings()
    same = set(x_sigma) == set(x_tilde)
    return PositivityReport(x_sigma, x_tilde, same, same)


# ---------------------------------------------------------------------------
# Sums-of-hermitian-squares certificates.


@dataclass
class CertTerm:
    """weight = prod of the chosen Pfister slots times a square; the
    generator index points into the diagonal of copies x <<b_1..b_t>> <a>."""

    weight_subset: tuple[int, ...]
    weight_root: FieldElement
    vector: AlgebraElement
    generator_index: int


@dataclass
class SquareCertificate:
    terms: list[CertTerm]


@dataclass
class Refutation:
    ordering: Ordering
    witness: FieldElement


@dataclass
class SosSearchResult:
    status: str  # "certificate" | "refuted" | "unknown"
    certificate: SquareCertificate | None = None
    refutation: Refutation | None = None


def _subset_product(alg: AlgebraWithInvolution, slots: Sequence[FieldElement],
                    subset: Iterable[int]) -> FieldElement:
    prod = alg.field.one
    for i in subset:
        prod = prod * slots[i]
    return prod


def verify_certificate(u: AlgebraElement, a: AlgebraElement,
                       slots: Sequence[FieldElement], copies: int,
                       cert: SquareCertificate) -> bool:
    """Exact re-evaluation: sum of w_i sigma(x_i)^t g_i x_i must equal u,
    with g_i the designated diagonal generator of copies x <<b>> <a>."""
    alg = u.algebra
    if a.algebra != alg:
        raise AlgebraMismatchError("generator over a different algebra")
    t = len(slots)
    width = copies * (1 << t)
    seen = set()
    total = alg.zero_element
    for term in cert.terms:
        idx = term.generator_index
        if not 0 <= idx < width:
            raise ValueError(f"generator index {idx} out of range for "
                             f"{copies} copies of a {1 << t}-slot Pfister block")
        if idx in seen:
            raise ValueError("each generator slot may be used once")
        seen.add(idx)
        if any(not 0 <= i < t for i in term.weight_subset):
            raise ValueError("weight subset indexes an absent Pfister slot")
        if term.weight_root.is_zero():
            raise ValueError("weight roots must be nonzero")
        if term.vector.algebra != alg:
            raise AlgebraMismatchError("certificate vector over a different algebra")
        weight = _subset_product(alg, slots, term.weight_subset) \
            * term.weight_root * term.weight_root
        pf = 1 << t
        mask = idx % pf
        gen_scalar = _subset_product(alg, slots,
                                     [i for i in range(t) if mask >> i & 1])
        x = term.vector
        piece = (x.conj_transpose() * a * x).scale(weight * gen_scalar)
        total = total + piece
    return total == u


def _invert_matrix(field, rows):
    k = len(rows)
    m = [list(r) + [field.one if i == j else field.zero for j in range(k)]
         for i, r in enumerate(rows)]
    for c in range(k):
        piv = next(r for r in range(c, k) if not m[r][c].is_zero())
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c].inverse()
        m[c] = [v * inv for v in m[c]]
        for r in range(k):
            if r != c and not m[r][c].is_zero():
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return [row[k:] for row in m]


def _split_orth_constructive(u: AlgebraElement) -> SquareCertificate:
    """u PSD over (M_n(Q), t): u = L^t D L gives u as a sum of at most 4n
    rank-1 squares via the four-square decomposition of each pivot."""
    alg = u.algebra
    field = alg.field
    gram = GramQuadraticForm(field, [list(r) for r in u.rows])
    dec = diagonalize(gram, with_transform=True)
    s_inv = _invert_matrix(field, dec.transform)
    terms = []
    for p, d in enumerate(dec.pivots):
        dv = d.as_fraction()
        row = s_inv[p]
        for c in four_square_decomposition(dv):
            if c == 0:
                continue
            vec_rows = [[field.element(c) * row[j] for j in range(alg.n)]]
            vec_rows += [[field.zero] * alg.n for _ in range(alg.n - 1)]
            terms.append(CertTerm((), field.one,
                                  AlgebraElement(alg, vec_rows), len(terms)))
    return SquareCertificate(terms)


def _search_pool(alg: AlgebraWithInvolution, slots, height: int):
    """Deterministic term pool for the bounded search: canonical vectors x
    (first nonzero coordinate positive) by height, crossed with Pfister
    subsets for the weight and the generator slot."""
    ed = alg.entry_dim
    t = len(slots)
    vectors = []
    vals = list(range(-height, height + 1))
    for coords in itertools.product(vals, repeat=ed):
        if all(c == 0 for c in coords):
            continue
        lead = next(c for c in coords if c != 0)
        if lead < 0:
            continue
        if max(abs(c) for c in coords) > height:
            continue
        vectors.append(coords)
    vectors.sort(key=lambda cs: (max(abs(c) for c in cs), cs))
    subsets = [tuple(i for i in range(t) if mask >> i & 1) for mask in range(1 << t)]
    pool = []
    for coords in vectors:
        x = alg.element([[coords]])
        for wsub in subsets:
            for gmask in range(1 << t):
                pool.append((coords, wsub, gmask, x))
    return pool


def default_generator(algebra: AlgebraWithInvolution) -> AlgebraElement:
    """The generator <a> of the squares when none is given, for `sos-find`
    and `sos-verify` alike: the unit, or for quat_skew, whose unit is not
    symmetric, the maximal generator +-twist of the positive cone at the
    first non-nil ordering, and i when every ordering is nil."""
    if not algebra.skew_gram:
        return algebra.one_element
    nonnil = algebra.nonnil_orderings()
    if nonnil:
        return maximal_generator(PositiveCone(algebra, nonnil[0], 1))
    return algebra.scalar_element(algebra.quat.i)


def find_sos_certificate(u: AlgebraElement, a: AlgebraElement | None = None,
                         slots: Sequence = (), *, height: int = 3,
                         max_terms: int = 6) -> SosSearchResult:
    """Certificate that u is a weighted sum of hermitian squares of the
    generator form, a refutation ordering, or unknown at exhaustion.

    Without a, the generator is `default_generator`.  Constructive for
    split_orth over Q with a = 1 (congruence reduction plus four squares,
    at most 4n vectors); bounded deterministic search otherwise (n = 1
    members), returning the first certificate at minimal height.  The gate
    and the search read the cones over the non-nil orderings of the
    Harrison set.  The search prunes a remainder that one of these cones
    does not contain; its last term must equal the remainder, so it is
    found by comparison, without subtracting or testing the differences.
    """
    alg = u.algebra
    fld = alg.field
    if a is None:
        a = default_generator(alg)
    u_form = rank1_form(u, "the target must be a symmetric element")
    a_error = "the generator a must be symmetric and invertible"
    a_form = rank1_form(a, a_error)
    if not is_invertible(a):
        raise ValueError(a_error)
    slot_elems = [e if isinstance(e, FieldElement) else fld.element(e) for e in slots]
    # cones exist over the non-nil orderings only
    y_set = [p for p in harrison_set(fld, slot_elems) if not alg.is_nil(p)]
    eta = reference_form(alg)
    for p in y_set:
        if signature(a_form, p, eta) != rank1_max_signature(alg, p):
            raise ValueError("a is not eta-maximal on the Harrison set")

    # necessary-condition gate: u must lie in the positively-oriented cone
    # at every ordering of Y
    for p in y_set:
        cone = PositiveCone(alg, p, 1, eta)
        if not cone.contains(u):
            # the witness is the first carrier value with the wrong sign
            want = cone._oriented_sign()
            witness = next(d for d in _carrier(u_form, p) if want * sign_at(d, p) < 0)
            return SosSearchResult("refuted", refutation=Refutation(p, witness))

    if alg.entry_dim == 1 and fld.degree == 1 and a == alg.one_element:
        cert = _split_orth_constructive(u)
        return SosSearchResult("certificate", certificate=cert)

    if alg.n != 1:
        return SosSearchResult("unknown")

    cones = [PositiveCone(alg, p, 1, eta) for p in y_set]

    def representable(rem: AlgebraElement) -> bool:
        return all(c.contains(rem) for c in cones)

    for h in range(1, height + 1):
        pool = _search_pool(alg, slot_elems, h)
        values = []
        for coords, wsub, gmask, x in pool:
            w = _subset_product(alg, slot_elems, wsub)
            g = _subset_product(alg, slot_elems,
                                [i for i in range(len(slot_elems)) if gmask >> i & 1])
            val = (x.conj_transpose() * a * x).scale(w * g)
            if val.is_zero():
                continue
            values.append((wsub, gmask, x, val))

        def dfs(rem: AlgebraElement, start: int, chosen: list) -> list | None:
            if rem.is_zero():
                return list(chosen)
            if len(chosen) >= max_terms:
                return None
            if not representable(rem):
                return None
            if len(chosen) + 1 == max_terms:
                # the last term must be the remainder itself
                last = next((v for v in values[start:] if v[3] == rem), None)
                return None if last is None else chosen + [last[:3]]
            for idx in range(start, len(values)):
                wsub, gmask, x, val = values[idx]
                chosen.append((wsub, gmask, x))
                got = dfs(rem - val, idx, chosen)
                if got is not None:
                    return got
                chosen.pop()
            return None

        found = dfs(u, 0, [])
        if found is not None:
            t = len(slot_elems)
            terms = [CertTerm(wsub, fld.one, x, i * (1 << t) + gmask)
                     for i, (wsub, gmask, x) in enumerate(found)]
            return SosSearchResult("certificate", certificate=SquareCertificate(terms))
    return SosSearchResult("unknown")
