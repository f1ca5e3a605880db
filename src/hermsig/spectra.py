"""Prime ideal pairs of the Witt module, signature morphisms, and the
finite topology of the positive-cone space.

Ordering spaces of number fields are finite, so the cone space is a finite
space.  Its subbasis is the H-sets of one exact generator set, the seeds
scaled by +-1 and by the Harrison-set separators s_P of the orderings; a
`ConeSpace` tests cone membership on the seeds only and derives the H-sets
of the scaled ones by the sign of the scalar.  The topology is kept as the
minimal neighbourhoods U_x (McCord 1966): t0, agreement and the number of
open sets are read off them, and no open set is listed.  Signature
morphisms are separated by a constructed form.  Cones, prime pairs,
morphisms and the Morita check take no reference: each signature reads
`reference_form(algebra)`.  Prime-pair membership, and the prime-pair
axioms, are decided on signature-visible invariants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .algebras import AlgebraElement, AlgebraWithInvolution, is_invertible
from .cones import enumerate_positive_cones
from .errors import AlgebraMismatchError, InvariantError, NilOrderingError
from .field import FieldElement, Ordering
from .hermitian import (
    HermitianForm,
    reference_form,
    scale_by_quadratic,
    signature,
    witt_rank,
)
from .quadforms import QuadraticForm, signature_q


def image_generator(algebra: AlgebraWithInvolution) -> int:
    """Generator of im(sign^eta_P) in Z: quadratic Morita ranks are even
    multiples for even n and for quat_skew, so the image is 2Z there."""
    if algebra.skew_gram or algebra.n % 2 == 0:
        return 2
    return 1


class FundamentalDescriptor:
    """N-descriptor for 2-in-I pairs: a finite generator list; membership
    on (rank, signature table) invariants.  The closed mode reduces mod 2,
    so I(F) W(A, sigma) maps to zero and is automatically contained; the
    raw mode decides by rational-span membership of the integer table and
    deliberately omits the closure (fabricated descriptors then fail the
    ideal axiom, detectably)."""

    def __init__(self, generators: list[HermitianForm], closed: bool = True):
        self.generators = generators
        self.closed = closed


class PrimeIdealPair:
    def __init__(self, kind: str,  # "signature" | "mod_p" | "fundamental"
                 algebra: AlgebraWithInvolution,
                 ordering: Ordering | None = None, p: int | None = None,
                 descriptor: FundamentalDescriptor | None = None):
        self.kind = kind
        self.algebra = algebra
        self.ordering = ordering
        self.p = p
        self.descriptor = descriptor
        if self.kind not in ("signature", "mod_p", "fundamental"):
            raise ValueError(f"unknown prime-pair kind {self.kind!r}")
        if self.kind in ("signature", "mod_p"):
            if self.ordering is None:
                raise ValueError("an ordering is required")
            if self.algebra.is_nil(self.ordering):
                raise ValueError("prime pairs live over non-nil orderings")
        if self.kind == "mod_p":
            if self.p is None or self.p <= 2 or not _is_prime(self.p):
                raise ValueError("the residue characteristic must be an odd prime")
        if self.kind == "fundamental" and self.descriptor is None:
            raise ValueError("a fundamental pair needs an explicit N-descriptor")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _inv_vector(h: HermitianForm, nonnil: list[Ordering]) -> tuple[int, ...]:
    # Witt classes carry the rank of the nondegenerate part
    return (witt_rank(h),) + tuple(signature(h, p) for p in nonnil)


def _span_contains(vectors: list[tuple[int, ...]], target: tuple[int, ...],
                   modulus: int | None = None) -> bool:
    """Whether target lies in the span of the vectors over Q (on
    Fractions), or over F_2 for modulus 2 (on ints): Gauss-Jordan
    elimination on the rows."""
    def norm(v):
        return v % modulus if modulus else v

    lift = norm if modulus else Fraction
    rows = [[lift(v) for v in vec] for vec in vectors]
    t = [lift(v) for v in target]
    r = 0
    for c in range(len(t)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, modulus) if modulus else 1 / rows[r][c]
        rows[r] = [norm(v * inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [norm(a - f * b) for a, b in zip(rows[i], rows[r])]
        if t[c] != 0:
            f = t[c]
            t = [norm(a - f * b) for a, b in zip(t, rows[r])]
        r += 1
    return not any(t)


def _descriptor_contains(pair: PrimeIdealPair, h: HermitianForm) -> bool:
    desc = pair.descriptor
    nonnil = pair.algebra.nonnil_orderings()
    vecs = [_inv_vector(g, nonnil) for g in desc.generators]
    target = _inv_vector(h, nonnil)
    return _span_contains(vecs, target, 2 if desc.closed else None)


def _q_in_ideal(pair: PrimeIdealPair, q: QuadraticForm) -> bool:
    if pair.kind == "signature":
        return signature_q(q, pair.ordering) == 0
    if pair.kind == "mod_p":
        return signature_q(q, pair.ordering) % pair.p == 0
    return q.rank % 2 == 0


def _h_in_submodule(pair: PrimeIdealPair, h: HermitianForm) -> bool:
    if h.algebra != pair.algebra:
        raise AlgebraMismatchError("form over a different algebra")
    if pair.kind == "signature":
        return signature(h, pair.ordering) == 0
    if pair.kind == "mod_p":
        c = image_generator(pair.algebra)
        sig_h = signature(h, pair.ordering)
        if sig_h % c != 0:
            raise InvariantError("signature outside the expected image subgroup")
        return (sig_h // c) % pair.p == 0
    return _descriptor_contains(pair, h)


def ideal_membership(q: QuadraticForm, h: HermitianForm,
                     pair: PrimeIdealPair) -> tuple[bool, bool]:
    """(q in I, h in N) for the pair."""
    return (_q_in_ideal(pair, q), _h_in_submodule(pair, h))


class PrimeSampleReport:
    def __init__(self, passed: bool,
                 failed_axiom: str | None = None,  # "proper" | "ideal" | "prime"
                 witness_q: QuadraticForm | None = None,
                 witness_h: HermitianForm | None = None):
        self.passed = passed
        self.failed_axiom = failed_axiom
        self.witness_q = witness_q
        self.witness_h = witness_h


def prime_property_sample(pair: PrimeIdealPair) -> PrimeSampleReport:
    """The prime-pair axioms decided exactly, in the order proper (N is not
    all of M), ideal (I.M inside N) and prime (q.h in N implies q in I or h
    in N); the first that fails is reported with a witness.

    signature and mod_p pairs pass.  N is proper: the ordering is not nil
    (`PrimeIdealPair` refuses one), so im(sign_P) = cZ with c =
    `image_generator`, and a form of signature c lies outside N.  Both
    axioms follow from sign(q.h) = sign(q) sign(h): a factor of signature
    zero, or a multiple of p, makes the product one; conversely, a product
    that is zero, or a multiple of the prime p, has such a factor.

    A fundamental pair reads its descriptor, by `_closed_fundamental` or
    `_raw_fundamental`."""
    if pair.kind != "fundamental":
        return PrimeSampleReport(True)
    if pair.descriptor.closed:
        return _closed_fundamental(pair)
    return _raw_fundamental(pair)


def _closed_fundamental(pair: PrimeIdealPair) -> PrimeSampleReport:
    """Closed mode: N is the F_2-span V of the generators' invariant vectors
    v(h) = (rank, sign_P for the non-nil P).  A quadratic form has signature
    = rank mod 2 at every ordering, so q acts on v(h) mod 2 as 0 when q is
    in I(F) (even rank) and as the identity when its rank is odd.  Hence
    I.M maps to 0, inside N, and q.h in N with q outside I gives h in N:
    the ideal and prime axioms always hold.  When c = `image_generator` is
    2 every signature is even; when it is 1, n is odd and a rank-r form
    collapses to a diagonal of n r entries with one sign each at a non-nil
    P, so its signature is r mod 2.  Hence v(h) = rank(h) (1, e, ..., e)
    mod 2 with e = 1 iff c = 1.  A rank-1 form exists, so N is proper
    exactly when (1, e, ..., e) is not in V; otherwise N = M holds the
    reference form, the witness."""
    nonnil = pair.algebra.nonnil_orderings()
    vecs = [_inv_vector(g, nonnil) for g in pair.descriptor.generators]
    odd = (1,) + (image_generator(pair.algebra) % 2,) * len(nonnil)
    if _span_contains(vecs, odd, 2):
        return PrimeSampleReport(False, "proper", None, reference_form(pair.algebra).form)
    return PrimeSampleReport(True)


def _raw_fundamental(pair: PrimeIdealPair) -> PrimeSampleReport:
    """Raw mode: N is the Q-span V of the invariant vectors, so it is never
    a prime pair.  With eta the reference form, v(eta) = (r, t_1, ..., t_k)
    has no zero coordinate: its rank r and its signatures at the non-nil
    orderings are nonzero.  The multipliers <1, -1> and <1, s_P>, both in
    I(F), act on v as diag(2, 0, ..., 0) and diag(2, 2 e_P), as s_P is
    positive at P only; so the vectors of their products with eta span the
    whole space.  If V is the whole space, N = M and N is not proper, with
    eta as witness.  Otherwise one product q.eta lies outside V: the ideal
    axiom fails with the witness (q, eta), whose non-membership is checked
    exactly on the way."""
    fld = pair.algebra.field
    eta = reference_form(pair.algebra).form
    multipliers = [QuadraticForm(fld, [1, -1])] + [
        QuadraticForm(fld, [fld.one, p.separator]) for p in pair.algebra.nonnil_orderings()]
    for q in multipliers:
        if not _h_in_submodule(pair, scale_by_quadratic(q, eta)):
            return PrimeSampleReport(False, "ideal", q, eta)
    return PrimeSampleReport(False, "proper", None, eta)


# ---------------------------------------------------------------------------
# Signature morphisms.


class MorphismComparison:
    def __init__(self, equivalent: bool, witness: HermitianForm | None = None):
        self.equivalent = equivalent
        self.witness = witness


def morphism_distinctness(algebra: AlgebraWithInvolution, p: Ordering,
                          q: Ordering) -> MorphismComparison:
    """A form separating the two signature morphisms, or `equivalent` when
    the orderings coincide.  The witness is built, not searched: eta when
    its signatures at p and q differ (as when one of them is nil), else
    <s_p> . eta, whose signatures there are sig and -sig because the
    separator s_p is positive at p only."""
    if p == q:
        return MorphismComparison(True)
    eta = reference_form(algebra).form
    if signature(eta, p) != signature(eta, q):
        return MorphismComparison(False, eta)
    if algebra.is_nil(p):
        raise NilOrderingError(f"orderings {p.index} and {q.index} are both nil: "
                               "both signature morphisms are zero")
    return MorphismComparison(
        False, scale_by_quadratic(QuadraticForm(algebra.field, [p.separator]), eta))


# ---------------------------------------------------------------------------
# The cone space and its topology.


class ConeSpace:
    """All positive cones of an algebra and the H-sets of the exact
    generator set of the subbasis of its topology."""

    def __init__(self, algebra: AlgebraWithInvolution):
        self.algebra = algebra
        self.cones = enumerate_positive_cones(algebra)

    @cached_property
    def _pool(self) -> tuple[list[AlgebraElement], list[tuple[FieldElement, Ordering | None]]]:
        return _generator_pool(self.algebra)

    @cached_property
    def generator_sets(self) -> list[frozenset[int]]:
        """H(g) for each generator g = e s of the subbasis, for every scalar
        e in +-scalars and every seed s, in that order (`_generator_pool`),
        derived from the H-sets of the seeds: the cone (P, eps) holds e s,
        for a nonzero scalar e, exactly when the cone (P, eps sgn_P(e))
        holds s.

        Proof.  The congruence kernel on <e s> takes the same steps as on
        <s>, with every entry multiplied by e: its tests see e x != 0 and
        Nrd(e x) = e^2 Nrd(x), so no choice changes, and a hermitian pivot
        d becomes e d.  A quat_skew pure pivot q becomes e q, so its
        carrier pair (Trd(u q), Trd(u q) Nrd(q)) becomes (e t, e^3 t n),
        with the signs of (t, t n) times sgn(e); the pair (Nrd, -Nrd) is
        scaled by e^2, and no cone holds it unless it is 0.  So flipping
        the orientation by sgn_P(e) gives the same verdict.

        The signs of the scalars are read from their construction, with no
        sign evaluation: 1 is positive everywhere, and sgn_Q(s_P) = +1
        exactly when Q = P.  Proof: s_P = -(theta - lo)(theta - hi) over the
        defining interval (lo, hi) of P, whose endpoints are not roots of
        the minimal polynomial.  At P, theta is the root strictly inside it,
        so the factors have opposite signs and s_P > 0.  At Q != P, theta is
        another root; the defining interval of P holds one root only, and
        its endpoints are not roots, so this one lies outside [lo, hi], the
        factors have the same sign, and s_P < 0."""
        seeds, scalars = self._pool
        seed_sets = [self._h_single(s) for s in seeds]
        index = {cone.id_pair(): i for i, cone in enumerate(self.cones)}
        out = []
        for _, only in scalars:
            signs = [1 if only is None or cone.ordering == only else -1 for cone in self.cones]
            for e_sign in (1, -1):
                # cone i holds e s iff cone moved[i] holds s
                moved = [index[cone.ordering.index, e_sign * sg * cone.orientation]
                         for cone, sg in zip(self.cones, signs)]
                out += [frozenset(i for i, j in enumerate(moved) if j in h)
                        for h in seed_sets]
        return out

    @cached_property
    def generator_invertible(self) -> list[bool]:
        """Whether each generator of `generator_sets` is invertible: e s is
        exactly when the seed s is, as e is a nonzero scalar."""
        seeds, scalars = self._pool
        return [is_invertible(s) for s in seeds] * (2 * len(scalars))

    def __len__(self) -> int:
        return len(self.cones)

    def _h_single(self, element: AlgebraElement) -> frozenset[int]:
        """H(element): the indices of the cones holding it."""
        return frozenset(i for i, cone in enumerate(self.cones) if cone.contains(element))


def generate_topology(size: int, subbasic: list[frozenset]) -> tuple[frozenset, ...]:
    """The topology on range(size) generated by the given sets, as its
    minimal neighbourhoods: U_x is the intersection of the subbasic sets
    containing x (the whole space if none does).  They fix the topology
    (McCord 1966): its open sets are the unions of U_x."""
    whole = frozenset(range(size))
    return tuple(whole.intersection(*[s for s in subbasic if x in s]) for x in range(size))


def _generator_pool(algebra: AlgebraWithInvolution
                    ) -> tuple[list[AlgebraElement], list[tuple[FieldElement, Ordering | None]]]:
    """One exact generator set, as seeds and scalars: the generators are
    the seeds, `sym_basis` and the unit (for quat_skew the pure i, j, k),
    scaled by +-1 and, when F has two orderings or more, by +-s_P for every
    non-nil P.  Each scalar comes with the one ordering where it is
    positive, P for s_P, or None for 1, positive at all of them.
    `ConeSpace` computes H-sets on the seeds only and derives the others
    (`ConeSpace.generator_sets`).

    It is complete.  Since s_P is positive at P only, H(1) & H(s_P) is the
    single cone (P, sgn eta_P), and H(-1) & H(-s_P) is the other
    orientation; for quat_skew the same holds with the pure q in {i, j, k}
    definite at P, the twist `twist_at(P)`, which always exists.  So every
    singleton is open, the space is discrete, and no other symmetric
    element can refine it."""
    fld, quat = algebra.field, algebra.quat
    units = (quat.i, quat.j, quat.k) if algebra.skew_gram else (algebra.ring.one,)
    seeds = algebra.sym_basis()
    seeds += [u for u in map(algebra.scalar_element, units) if u not in seeds]
    scalars = [(fld.one, None)]
    if len(fld.orderings) > 1:
        scalars += [(p.separator, p) for p in algebra.nonnil_orderings()]
    return seeds, scalars


def topology_compare(space: ConeSpace) -> bool:
    """The topologies generated by all pool generators and by the
    invertible ones only must agree: equal minimal neighbourhoods.  Both
    read the H-sets and invertibility the space derives from its seeds
    (`ConeSpace.generator_sets`), so no generator but a seed is tested."""
    sets = space.generator_sets
    inv_sets = [h for h, inv in zip(sets, space.generator_invertible) if inv]
    t_all = generate_topology(len(space), sets)
    t_inv = generate_topology(len(space), inv_sets)
    return t_all == t_inv


def cone_space_topology(algebra: AlgebraWithInvolution) -> tuple[ConeSpace, tuple]:
    """The cone space and the minimal neighbourhoods of its topology."""
    space = ConeSpace(algebra)
    return space, generate_topology(len(space), space.generator_sets)


def is_t0(minimal: tuple[frozenset, ...]) -> bool:
    """T0: no two points have the same minimal neighbourhood."""
    return len(set(minimal)) == len(minimal)


def count_open_sets(minimal: tuple[frozenset, ...]) -> int:
    """The number of open sets, i.e. of down-sets of the specialization
    preorder (y <= x iff y is in U_x), counted without listing them.  A
    down-set either holds x and so U_x, or avoids x and every point above
    it; both branches recurse on the points left, memoized on the set, so
    a discrete space or a chain takes linear time."""
    below = [sum(1 << y for y in u) for u in minimal]
    above = [sum(1 << y for y, u in enumerate(minimal) if x in u)
             for x in range(len(minimal))]
    memo = {0: 1}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        x = (mask & -mask).bit_length() - 1
        got = count(mask & ~below[x]) + count(mask & ~above[x])
        memo[mask] = got
        return got

    return count((1 << len(minimal)) - 1)


# ---------------------------------------------------------------------------
# Morita compatibility of cone spaces.


class MoritaConeReport:
    def __init__(self, pairs: list[tuple[tuple[int, int], tuple[int, int]]], ok: bool):
        self.pairs = pairs
        self.ok = ok


def morita_cone_maps(algebra: AlgebraWithInvolution) -> MoritaConeReport:
    """The bijection (P, eps) <-> (P, eps) between the cone spaces of
    M_n(D) and D, and whether it is the Morita map of cones: `ok` says that
    both cone lists carry the same labels in the same order, and that for
    every a in the generator pool of D, the cones of M_n(D) holding
    diag(a, 0, ..., 0) are those paired with the cones of D holding a.  The
    pool is finite and its H-sets generate the topology of D
    (`_generator_pool`), so `ok` is decided over the whole pool, not
    sampled; it is compared on the seeds s of the pool only.  Each side
    orients its cones by its own reference form.  The entry Gram of the
    one of M_n(D) is congruent to n copies of that of D
    (`find_reference_form`), so its raw signature is n times that of D at
    every ordering, and the orientations agree.

    Proof.  Every generator is e s for a nonzero scalar e, and diag(e s, 0,
    ..., 0) = e diag(s, 0, ..., 0).  The congruence kernel on <e m> takes
    the same steps as on <m>, scaled by e, so in both spaces the cone (P,
    eps) holds e m exactly when the cone (P, eps sgn_P(e)) holds m
    (`ConeSpace.generator_sets`).  With the same labels in the same order,
    e moves the cones of both lists alike, so equal H-sets for diag(s, 0,
    ..., 0) and s give equal H-sets for every e s."""
    up = ConeSpace(algebra)
    down = ConeSpace(algebra.collapsed())
    pairs = [(c.id_pair(), d.id_pair()) for c, d in zip(up.cones, down.cones)]
    same_labels = [c.id_pair() for c in up.cones] == [d.id_pair() for d in down.cones]
    n, zero = algebra.n, algebra.ring.zero
    ok = same_labels and all(
        up._h_single(algebra.element([[s.rows[0][0] if r == c == 0 else zero
                                       for c in range(n)] for r in range(n)]))
        == down._h_single(s)
        for s in down._pool[0])
    return MoritaConeReport(pairs, ok)
