"""Prime ideal pairs of the Witt module, signature morphisms, and the
finite topology of the positive-cone space.

Ordering spaces of number fields are finite, so the cone space is a finite
space.  Its subbasis is the H-sets of one exact generator set, built from
the Harrison-set separators s_P of the orderings; a `ConeSpace` computes
the H-set of each element once.  The topology is kept as the minimal
neighbourhoods U_x (McCord 1966): t0, agreement and the number of open sets
are read off them, and no open set is listed.  Signature morphisms are
separated by a constructed form.  Prime-pair membership is decided on
signature-visible invariants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .algebras import AlgebraElement, AlgebraWithInvolution, is_invertible
from .cones import enumerate_positive_cones
from .errors import AlgebraMismatchError, InvariantError, NilOrderingError
from .field import Ordering
from .hermitian import (
    HermitianForm,
    ReferenceForm,
    is_nondegenerate,
    reference_form,
    scale_by_quadratic,
    signature,
    transport_reference,
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
                 algebra: AlgebraWithInvolution, reference: ReferenceForm,
                 ordering: Ordering | None = None, p: int | None = None,
                 descriptor: FundamentalDescriptor | None = None):
        self.kind = kind
        self.algebra = algebra
        self.reference = reference
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


def _inv_vector(h: HermitianForm, reference: ReferenceForm,
                nonnil: list[Ordering]) -> tuple[int, ...]:
    # Witt classes carry the rank of the nondegenerate part
    return (witt_rank(h),) + tuple(signature(h, p, reference) for p in nonnil)


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
    vecs = [_inv_vector(g, pair.reference, nonnil) for g in desc.generators]
    target = _inv_vector(h, pair.reference, nonnil)
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
        return signature(h, pair.ordering, pair.reference) == 0
    if pair.kind == "mod_p":
        c = image_generator(pair.algebra)
        sig_h = signature(h, pair.ordering, pair.reference)
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


def prime_property_sample(pair: PrimeIdealPair, rng, trials: int = 40) -> PrimeSampleReport:
    """Sampled module-theoretic checks: N proper (some sampled form stays
    outside), I.M inside N, and r m in N implies r in I or m in N.
    Reports the first counterexample."""
    alg = pair.algebra
    fld = alg.field

    def random_q(k: int | None = None) -> QuadraticForm:
        k = k if k is not None else rng.choice([1, 2, 3])
        entries = []
        while len(entries) < k:
            e = fld.element([rng.randint(-3, 3) for _ in range(fld.degree)])
            if not e.is_zero():
                entries.append(e)
        return QuadraticForm(fld, entries)

    def random_q_in_ideal() -> QuadraticForm:
        # constructive member q' perp -q' belongs to every ideal kind;
        # mix in rejection samples for variety
        for _ in range(20):
            q = random_q()
            if _q_in_ideal(pair, q):
                return q
        q = random_q(rng.choice([1, 2]))
        doubled = QuadraticForm(fld, q.entries + tuple(-e for e in q.entries))
        return doubled

    def random_h() -> HermitianForm:
        while True:
            k = rng.choice([1, 2])
            s = k * alg.n
            rows = [[alg.entry([rng.randint(-2, 2) for _ in range(alg.entry_dim)])
                     for _ in range(s)] for _ in range(s)]
            ct = [[rows[c][r].conj() for c in range(s)] for r in range(s)]
            if alg.skew_gram:
                gram = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(rows, ct)]
            else:
                gram = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(rows, ct)]
            form = HermitianForm(alg, gram)
            if is_nondegenerate(form):
                return form

    candidates = [pair.reference.form] + [random_h() for _ in range(trials)]
    if all(_h_in_submodule(pair, h) for h in candidates):
        return PrimeSampleReport(False, "proper", None, candidates[0])
    for _ in range(trials):
        q = random_q_in_ideal()
        h = random_h()
        if not _h_in_submodule(pair, scale_by_quadratic(q, h)):
            return PrimeSampleReport(False, "ideal", q, h)
    for _ in range(trials):
        q = random_q()
        h = random_h()
        if not _h_in_submodule(pair, scale_by_quadratic(q, h)):
            continue
        if not _q_in_ideal(pair, q) and not _h_in_submodule(pair, h):
            return PrimeSampleReport(False, "prime", q, h)
    return PrimeSampleReport(True)


# ---------------------------------------------------------------------------
# Signature morphisms.


class MorphismComparison:
    def __init__(self, equivalent: bool, witness: HermitianForm | None = None):
        self.equivalent = equivalent
        self.witness = witness


def morphism_distinctness(algebra: AlgebraWithInvolution, p: Ordering, q: Ordering,
                          reference: ReferenceForm | None = None) -> MorphismComparison:
    """A form separating the two signature morphisms, or `equivalent` when
    the orderings coincide.  The witness is built, not searched: eta when
    its signatures at p and q differ (as when one of them is nil), else
    <s_p> . eta, whose signatures there are sig and -sig because the
    separator s_p is positive at p only."""
    if p == q:
        return MorphismComparison(True)
    ref = reference if reference is not None else reference_form(algebra)
    eta = ref.form
    if signature(eta, p, ref) != signature(eta, q, ref):
        return MorphismComparison(False, eta)
    if algebra.is_nil(p):
        raise NilOrderingError(f"orderings {p.index} and {q.index} are both nil: "
                               "both signature morphisms are zero")
    return MorphismComparison(
        False, scale_by_quadratic(QuadraticForm(algebra.field, [p.separator]), eta))


# ---------------------------------------------------------------------------
# The cone space and its topology.


class ConeSpace:
    """All positive cones of an algebra with a subbasis cache of H-sets."""

    def __init__(self, algebra: AlgebraWithInvolution,
                 reference: ReferenceForm | None = None):
        self.algebra = algebra
        self.reference = reference if reference is not None else reference_form(algebra)
        self.cones = enumerate_positive_cones(algebra, self.reference)
        self._h_cache: dict = {}

    @cached_property
    def generators(self) -> list[AlgebraElement]:
        """The exact generator set of the subbasis (`_generator_pool`)."""
        return _generator_pool(self.algebra)

    def __len__(self) -> int:
        return len(self.cones)

    def _h_single(self, element: AlgebraElement) -> frozenset[int]:
        key = element.coords()
        got = self._h_cache.get(key)
        if got is None:
            got = frozenset(i for i, cone in enumerate(self.cones)
                            if cone.contains(element))
            self._h_cache[key] = got
        return got


def generate_topology(size: int, subbasic: list[frozenset]) -> tuple[frozenset, ...]:
    """The topology on range(size) generated by the given sets, as its
    minimal neighbourhoods: U_x is the intersection of the subbasic sets
    containing x (the whole space if none does).  They fix the topology
    (McCord 1966): its open sets are the unions of U_x."""
    whole = frozenset(range(size))
    return tuple(whole.intersection(*[s for s in subbasic if x in s]) for x in range(size))


def _generator_pool(algebra: AlgebraWithInvolution) -> list[AlgebraElement]:
    """One exact generator set: `sym_basis` and the unit (for quat_skew the
    pure i, j, k), scaled by +-1 and, when F has two orderings or more, by
    +-s_P for every non-nil P.

    It is complete.  Since s_P is positive at P only, H(1) & H(s_P) is the
    single cone (P, sgn eta_P), and H(-1) & H(-s_P) is the other
    orientation; for quat_skew the same holds with the pure q in {i, j, k}
    definite at P, the twist `twist_at(P)`, which always exists.  So every
    singleton is open, the space is discrete, and no other symmetric
    element can refine it."""
    fld, quat = algebra.field, algebra.quat
    units = (quat.i, quat.j, quat.k) if algebra.skew_gram else (algebra.entry_one,)
    seeds = algebra.sym_basis()
    seeds += [u for u in map(algebra.scalar_element, units) if u not in seeds]
    scalars = [fld.one]
    if len(fld.orderings) > 1:
        scalars += [p.separator for p in algebra.nonnil_orderings()]
    return [s.scale(e) for c in scalars for e in (c, -c) for s in seeds]


def topology_compare(space: ConeSpace) -> bool:
    """The topologies generated by all pool generators and by the
    invertible ones only must agree: equal minimal neighbourhoods.
    Membership sets already computed on the space are reused."""
    pool = space.generators
    all_sets = [space._h_single(a) for a in pool]
    inv_sets = [space._h_single(a) for a in pool if is_invertible(a)]
    t_all = generate_topology(len(space), all_sets)
    t_inv = generate_topology(len(space), inv_sets)
    return t_all == t_inv


def cone_space_topology(algebra: AlgebraWithInvolution,
                        reference: ReferenceForm | None = None) -> tuple[ConeSpace, tuple]:
    """The cone space and the minimal neighbourhoods of its topology."""
    space = ConeSpace(algebra, reference)
    sets = [space._h_single(a) for a in space.generators]
    return space, generate_topology(len(space), sets)


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
    def __init__(self, pairs: list[tuple[tuple[int, int], tuple[int, int]]],
                 trace_ok: bool, values_ok: bool, pullback_ok: bool):
        self.pairs = pairs
        self.trace_ok = trace_ok
        self.values_ok = values_ok
        self.pullback_ok = pullback_ok

    @property
    def ok(self) -> bool:
        return self.trace_ok and self.values_ok and self.pullback_ok


def morita_cone_maps(algebra: AlgebraWithInvolution, rng,
                     reference: ReferenceForm | None = None,
                     samples: int = 10) -> MoritaConeReport:
    """The bijection (P, eps) <-> (P, eps) between the cone spaces of
    M_n(D) and D, with trace/value membership checks on sampled members
    and a finite pullback check of subbasic opens."""
    ref_up = reference if reference is not None else reference_form(algebra)
    down_alg = algebra.collapsed()
    ref_down = transport_reference(ref_up, down_alg)
    up = ConeSpace(algebra, ref_up)
    down = ConeSpace(down_alg, ref_down)
    pairs = [(c.id_pair(), d.id_pair()) for c, d in zip(up.cones, down.cones)]
    trace_ok = values_ok = True
    n = algebra.n
    for cone_up, cone_down in zip(up.cones, down.cones):
        for _ in range(samples):
            m = cone_up.sample_member(rng)
            tr = down_alg.element([[m.trace()]])
            if not cone_down.contains(tr):
                trace_ok = False
            # a random column vector X as a matrix supported on one column
            col = [algebra.entry([rng.randint(-2, 2) for _ in range(algebra.entry_dim)])
                   for _ in range(n)]
            x = algebra.element([[col[r] if c == 0 else algebra.entry_zero
                                  for c in range(n)] for r in range(n)])
            value = (x.conj_transpose() * m * x).rows[0][0]
            if not cone_down.contains(down_alg.element([[value]])):
                values_ok = False
    pullback_ok = True
    for a_down in down.generators[:16]:
        h_down = down._h_single(a_down)
        entry = a_down.rows[0][0]
        rows = [[entry if r == c == 0 else algebra.entry_zero
                 for c in range(n)] for r in range(n)]
        embedded = algebra.element(rows)
        h_up = up._h_single(embedded)
        if h_up != h_down:
            pullback_ok = False
    return MoritaConeReport(pairs, trace_ok, values_ok, pullback_ok)
