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
given, over the Pfister form <<b_1..b_t>> <a>: `find_sos_certificate`
constructs or searches for one, and `verify_certificate` re-evaluates it
exactly.  Both read what a term is worth from `_term_scale`, and both
certificate producers put term i in copy i of the Pfister block (index
i << t).  One list of cones, over the non-nil orderings of the Harrison
set, serves the search's gate, its refutation witness and its pruning.
The search is a branch and bound.  For the hermitian families every value
is an F-scalar, and a term of height at most h is worth at most h^2
`_value_cap` at each cone ordering, so a remainder above what the terms
left can reach is pruned before any cone test.  The last term is looked
up by value among the terms built so far.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .algebras import AlgebraElement, AlgebraWithInvolution, is_invertible
from .errors import AlgebraMismatchError
from .field import FieldElement, Ordering, four_square_decomposition, sign_at
from .hermitian import (
    _carrier,
    _reference_sign,
    rank1_form,
    rank1_max_signature,
    raw_signature,
    signature,
)
from .quadforms import GramQuadraticForm, diagonalize, harrison_set


# Defaults and caps of the sos-find search.  The pool holds about
# (2h + 1)^d / 2 vectors of height at most h in entry dimension d, each
# scaled by the at most 3^t distinct products of t slots.
SEARCH_HEIGHT = 3
SEARCH_TERMS = 6
MAX_SEARCH_HEIGHT = 4
MAX_SEARCH_TERMS = 16
MAX_SLOTS = 3


class PositiveCone:
    """A maximal cone: base ordering and orientation, read against the sign
    of `reference_form(algebra)` at the ordering."""

    def __init__(self, algebra: AlgebraWithInvolution, ordering: Ordering,
                 orientation: int):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if algebra.is_nil(ordering):
            raise ValueError("positive cones exist over non-nil orderings only")
        self.algebra = algebra
        self.ordering = ordering
        self.orientation = orientation
        self._side = orientation * _reference_sign(algebra, ordering)

    def contains(self, element: AlgebraElement) -> bool:
        """Membership by congruence reduction of <element>: every value of
        its signature carrier must lie on the oriented side (zero pivots
        impose no constraint; 0 is always a member)."""
        return self._outside_value(element) is None

    def _outside_value(self, element: AlgebraElement) -> FieldElement | None:
        """The first carrier value of <element> on the wrong side, or None."""
        if element.algebra != self.algebra:
            raise AlgebraMismatchError("element of a different algebra")
        form = rank1_form(element, "cone membership is defined for symmetric elements")
        return next((d for d in _carrier(form, self.ordering)
                     if self._side * sign_at(d, self.ordering) < 0), None)

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


def maximal_generator(cone: PositiveCone) -> AlgebraElement:
    """An invertible element of the cone with maximal rank-1 signature: the
    oriented unit for the hermitian families, +-twist_at(P) for quat_skew."""
    alg = cone.algebra
    p = cone.ordering
    if not alg.skew_gram:
        return alg.scalar_element(alg.field.element(cone._side))
    gen = alg.scalar_element(alg.twist_at(p))
    form = rank1_form(gen, "pure quaternion scalars are symmetric for quat_skew")
    return gen if cone._side * raw_signature(form, p) > 0 else -gen


def eta_maximal(element: AlgebraElement, ordering: Ordering) -> bool:
    """Maximal rank-1 signature at the ordering, with positive sign; at a
    nil ordering every invertible symmetric element is vacuously maximal."""
    alg = element.algebra
    form = rank1_form(element, "eta-maximality is defined for symmetric elements")
    if not is_invertible(element):
        raise ValueError("eta-maximality is defined for invertible elements")
    return signature(form, ordering) == rank1_max_signature(alg, ordering)


def enumerate_positive_cones(algebra: AlgebraWithInvolution) -> list[PositiveCone]:
    """Two cones per non-nil ordering; empty iff the algebra is not
    formally real."""
    return [PositiveCone(algebra, p, eps)
            for p in algebra.nonnil_orderings() for eps in (1, -1)]


def formally_real(algebra: AlgebraWithInvolution) -> bool:
    return bool(algebra.nonnil_orderings())


class PositivityReport:
    def __init__(self, x_sigma: list[Ordering], x_tilde: list[Ordering],
                 ps_prime_holds: bool, ps_sufficient: bool):
        self.x_sigma = x_sigma
        self.x_tilde = x_tilde
        self.ps_prime_holds = ps_prime_holds
        self.ps_sufficient = ps_sufficient


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


class CertTerm:
    """weight = prod of the chosen Pfister slots times a square; the
    generator index points into the diagonal of copies x <<b_1..b_t>> <a>."""

    def __init__(self, weight_subset: tuple[int, ...], weight_root: FieldElement,
                 vector: AlgebraElement, generator_index: int):
        self.weight_subset = weight_subset
        self.weight_root = weight_root
        self.vector = vector
        self.generator_index = generator_index


class SquareCertificate:
    def __init__(self, terms: list[CertTerm]):
        self.terms = terms


class Refutation:
    def __init__(self, ordering: Ordering, witness: FieldElement):
        self.ordering = ordering
        self.witness = witness


class SosSearchResult:
    def __init__(self, status: str,  # "certificate" | "refuted" | "unknown"
                 certificate: SquareCertificate | None = None,
                 refutation: Refutation | None = None):
        self.status = status
        self.certificate = certificate
        self.refutation = refutation


def _term_scale(slots: Sequence[FieldElement], weight_subset: Iterable[int],
                root: FieldElement, index: int) -> FieldElement:
    """What a term scales its sandwich x* a x by: the product of its weight
    slots times root^2, times the slots of the Pfister mask index % 2^t of
    its generator in the diagonal of copies x <<b_1..b_t>> <a>."""
    mask = index % (1 << len(slots))
    prod = root * root
    for i in weight_subset:
        prod = prod * slots[i]
    for i, b in enumerate(slots):
        if mask >> i & 1:
            prod = prod * b
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
        x = term.vector
        total = total + (x.conj_transpose() * a * x).scale(
            _term_scale(slots, term.weight_subset, term.weight_root, idx))
    return total == u


def _split_orth_constructive(u: AlgebraElement, t: int) -> SquareCertificate:
    """u PSD over (M_n(Q), t): u = L^t D L gives u as a sum of at most 4n
    rank-1 squares via the four-square decomposition of each pivot.  With
    S^t u S = D from the kernel, row p of L = S^-1 is (u s_p) / d_p for the
    column s_p of S.  Term i is copy i of the Pfister block, slot mask 0."""
    alg = u.algebra
    field = alg.field
    gram = GramQuadraticForm(field, [list(r) for r in u.rows])
    dec = diagonalize(gram, with_transform=True)
    s = dec.transform
    terms = []
    for p, d in enumerate(dec.pivots):
        inv = d.inverse()
        row = [sum((g * s[k][p] for k, g in enumerate(grow)), field.zero) * inv
               for grow in gram.rows]
        for c in four_square_decomposition(d.as_fraction()):
            if c == 0:
                continue
            vec_rows = [[field.element(c) * v for v in row]]
            vec_rows += [[field.zero] * alg.n for _ in range(alg.n - 1)]
            terms.append(CertTerm((), field.one, AlgebraElement(alg, vec_rows),
                                  len(terms) << t))
    return SquareCertificate(terms)


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


def _value_cap(coeffs: Sequence[FieldElement], scales: Iterable[FieldElement],
               ordering: Ordering) -> FieldElement:
    """The largest value at the ordering of a term of height 1, for the
    hermitian families, whose terms scaled by g are worth c g Nrd(x) =
    sum_t c g norms_t x_t^2 (coeffs = c norms_t): the maximum over the
    scales g of sum_t max(0, c g norms_t) there.  With |x_t| <= h each
    summand is at most h^2 max(0, c g norms_t), so h^2 times this element
    bounds every term of height at most h at the ordering."""
    zero = ordering.field.zero
    best = zero
    for g in scales:
        total = sum((v for v in (g * k for k in coeffs) if sign_at(v, ordering) > 0), zero)
        if sign_at(total - best, ordering) > 0:
            best = total
    return best


def find_sos_certificate(u: AlgebraElement, a: AlgebraElement | None = None,
                         slots: Sequence = (), *, height: int = SEARCH_HEIGHT,
                         max_terms: int = SEARCH_TERMS) -> SosSearchResult:
    """Certificate that u is a weighted sum of hermitian squares of the
    generator form, a refutation ordering, or unknown at exhaustion.

    Without a, the generator is `default_generator`.  Constructive for
    split_orth over Q with a = 1 (congruence reduction plus four squares,
    at most 4n vectors); bounded deterministic search otherwise (n = 1
    members), returning the first certificate at minimal height.  One list
    of cones, over the non-nil orderings of the Harrison set, serves the
    gate and the search.

    The search is a depth-first branch and bound: it visits the nodes of
    the plain search in the same order, less subtrees proved empty, so it
    returns the same first certificate.  A node is pruned when a cone does
    not contain its remainder.  For the hermitian families a is an
    F-scalar c, a term x scaled by g is worth c g Nrd(x), and a cone holds
    an F-scalar remainder when it is >= 0 at the ordering.  A term of
    height at most h is worth at most cap_P(h) = h^2 `_value_cap` at each
    cone ordering P, so a node with k terms left is first pruned when its
    remainder exceeds k cap_P(h) at some P.  quat_skew values are pure
    quaternions and have no such bound.  The last term must equal the
    remainder: it is looked up by value among the terms built so far, and
    the rest of the pool is built only when the value is absent but passes
    the tests.

    The pool is grown by height: height h adds the canonical vectors x
    (first nonzero coordinate positive) whose largest |coordinate| is h, in
    lexicographic order, each crossed with the Pfister subsets for the
    weight and the generator slot that give a distinct scale, so the
    h-pool is a prefix of the (h + 1)-pool.  A term whose value x* a x
    times its scale equals that of an earlier term is left out: the first
    certificate never needs it, and the search does not try again a value
    whose subtree failed.  For the hermitian families x* a x = c Nrd(x)
    comes from the integer coordinates and the norms of the entry ring,
    with no product of algebra elements.  The terms are built on demand, in
    pool order, when the search first reaches them: a certificate found
    early, or a bound met at the root, leaves the rest of the pool unbuilt.
    """
    alg = u.algebra
    fld = alg.field
    if a is None:
        a = default_generator(alg)
    rank1_form(u, "the target must be a symmetric element")
    a_error = "the generator a must be symmetric and invertible"
    a_form = rank1_form(a, a_error)
    if not is_invertible(a):
        raise ValueError(a_error)
    slot_elems = [e if isinstance(e, FieldElement) else fld.element(e) for e in slots]
    t = len(slot_elems)
    # cones exist over the non-nil orderings only
    cones = [PositiveCone(alg, p, 1)
             for p in harrison_set(fld, slot_elems) if not alg.is_nil(p)]
    for cone in cones:
        if signature(a_form, cone.ordering) != rank1_max_signature(alg, cone.ordering):
            raise ValueError("a is not eta-maximal on the Harrison set")

    # necessary-condition gate: u must lie in every cone
    for cone in cones:
        witness = cone._outside_value(u)
        if witness is not None:
            return SosSearchResult("refuted", refutation=Refutation(cone.ordering, witness))

    if alg.entry_dim == 1 and fld.degree == 1 and a == alg.one_element:
        return SosSearchResult("certificate", certificate=_split_orth_constructive(u, t))

    if alg.n != 1:
        return SosSearchResult("unknown")

    subsets = [tuple(i for i in range(t) if mask >> i & 1) for mask in range(1 << t)]
    # scale -> its first (weight subset, generator mask): each slot is a
    # factor 0, 1 or 2 times, so at most 3^t of the 4^t choices differ.
    scales: dict[FieldElement, tuple] = {}
    for wsub in subsets:
        for gmask in range(1 << t):
            scales.setdefault(_term_scale(slot_elems, wsub, fld.one, gmask), (wsub, gmask))

    # sandwich: x* a x from the coordinates of x; fits: whether a remainder
    # passes the tests of a node with k terms left, at the height h searched
    if alg.skew_gram:
        def sandwich(coords):
            x = alg.element([[coords]])
            return x.conj_transpose() * a * x

        def fits(rem, k):
            return all(c.contains(rem) for c in cones)
        target = u
    else:
        coeffs = [a.rows[0][0].coords()[0] * n for n in alg.ring.norms]
        caps = [(c.ordering, _value_cap(coeffs, scales, c.ordering)) for c in cones]

        def sandwich(coords):
            return sum((w * (v * v) for w, v in zip(coeffs, coords) if v), fld.zero)

        def fits(rem, k):
            k *= h * h
            return (all(sign_at(rem - k * cap, p) <= 0 for p, cap in caps)
                    and all(sign_at(rem, p) >= 0 for p, _ in caps))
        target = u.rows[0][0].coords()[0]

    # The pool keeps the first term of each distinct value, so a value whose
    # subtree failed is not searched again.  Dropping the later ones keeps
    # the first certificate: every pool value lies in every cone, so no
    # remainder of a valid term sequence is pruned, and a sequence with a
    # later copy has an earlier twin (swap in the first copy and sort).  A
    # vector whose sandwich an earlier vector had has that vector's values,
    # all pulled by then, so it adds no term.
    sandwiches: set = set()
    values: list = []  # the terms pulled so far, a prefix of the pool
    index: dict = {}  # value -> its index in values
    source = iter(())  # the pool terms not yet pulled

    def height_terms(h: int):
        """The pool terms of height h, in pool order."""
        for coords in itertools.product(range(-h, h + 1), repeat=alg.entry_dim):
            if max(map(abs, coords)) != h or next(c for c in coords if c) < 0:
                continue
            s = sandwich(coords)
            if s.is_zero() or s in sandwiches:
                continue
            sandwiches.add(s)
            x = None
            for g, (wsub, gmask) in scales.items():
                val = s * g
                if val not in index:
                    if x is None:
                        x = alg.element([[coords]])
                    yield wsub, gmask, x, val

    def pull() -> bool:
        """Pull the next pool term from the source; False at its end."""
        term = next(source, None)
        if term is None:
            return False
        index[term[3]] = len(values)
        values.append(term)
        return True

    def pool_from(start: int):
        """The pool terms from index start on, each pulled from the source
        when the search first reaches it."""
        for idx in itertools.count(start):
            if idx == len(values) and not pull():
                return
            yield idx, values[idx]

    def dfs(rem, start: int, chosen: list) -> list | None:
        if rem.is_zero():
            return list(chosen)
        left = max_terms - len(chosen)
        if left == 1:
            # the last term must be the remainder itself
            idx = index.get(rem)
            if idx is None and fits(rem, 1):
                while idx is None and pull():
                    idx = index.get(rem)
            return None if idx is None or idx < start else chosen + [values[idx][:3]]
        if left < 1 or not fits(rem, left):
            return None
        for idx, (wsub, gmask, x, val) in pool_from(start):
            chosen.append((wsub, gmask, x))
            got = dfs(rem - val, idx, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    for h in range(1, height + 1):
        # The terms of h follow those of the heights below, some of which a
        # bound at the root may have left unpulled.
        source = itertools.chain(source, height_terms(h))
        found = dfs(target, 0, [])
        if found is not None:
            terms = [CertTerm(wsub, fld.one, x, i << t | gmask)
                     for i, (wsub, gmask, x) in enumerate(found)]
            return SosSearchResult("certificate", certificate=SquareCertificate(terms))
    return SosSearchResult("unknown")
