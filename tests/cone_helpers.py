"""Cone-level checks that only the tests use.

`sample_member` draws a random member of a cone.  `prepositive_axiom_check`
samples such members, so it tests the prepositive-cone axioms on a
candidate set, and `sampled_morita_checks` tests the Morita map of cones
on them; neither is a decision procedure.  `strongly_anisotropic_flag` is
a one-sided criterion, and `basic_open` and `labels` read the H-sets of a
`ConeSpace`; `pool_generators` lists the generators whose H-sets it
derives.  `plain_sos_search` is the sos-find search on a pool that
keeps every term, equal values too, and `every_generator_pullback` is the
Morita check on every generator of the pool, not on its seeds only.
"""

import itertools
from dataclasses import dataclass

from hermsig.algebras import AlgebraElement
from hermsig.cones import (
    PositiveCone,
    _term_scale,
    default_generator,
    enumerate_positive_cones,
    maximal_generator,
)
from hermsig.field import sign_at
from hermsig.hermitian import rank1_max_signature, signature
from hermsig.quadforms import harrison_set
from hermsig.spectra import ConeSpace


def sample_member(cone, rng, terms=2, height=2):
    """A random member: sum of weighted sandwiches of the oriented
    maximal generator (axioms (P2)+(P3) closure applied to it)."""
    alg = cone.algebra
    gen = maximal_generator(cone)
    total = alg.zero_element
    for _ in range(rng.randint(1, terms)):
        x = _random_element(alg, rng, height)
        while x.is_zero():
            x = _random_element(alg, rng, height)
        u = _random_positive_scalar(alg, cone.ordering, rng, height)
        total = total + (x.conj_transpose() * gen * x).scale(u)
    return total


def _random_element(alg, rng, height):
    ed = alg.entry_dim
    return AlgebraElement(alg, [[[rng.randint(-height, height) for _ in range(ed)]
                                 for _ in range(alg.n)] for _ in range(alg.n)])


def _random_positive_scalar(alg, ordering, rng, height):
    fld = alg.field
    while True:
        e = fld.element([rng.randint(-height, height) for _ in range(fld.degree)])
        if not e.is_zero() and sign_at(e, ordering) > 0:
            return e


def sampled_morita_checks(algebra, rng, samples=10):
    """(trace_ok, values_ok) for the cone pairing of `morita_cone_maps`:
    for sampled members m of each cone of M_n(D), the trace of m and the
    value X* m X at a random column X lie in the paired cone of D."""
    down_alg = algebra.collapsed()
    up = enumerate_positive_cones(algebra)
    down = enumerate_positive_cones(down_alg)
    trace_ok = values_ok = True
    n = algebra.n
    for cone_up, cone_down in zip(up, down):
        for _ in range(samples):
            m = sample_member(cone_up, rng)
            if not cone_down.contains(down_alg.element([[m.trace()]])):
                trace_ok = False
            # a random column vector X as a matrix supported on one column
            col = [algebra.entry([rng.randint(-2, 2) for _ in range(algebra.entry_dim)])
                   for _ in range(n)]
            x = algebra.element([[col[r] if c == 0 else algebra.ring.zero
                                  for c in range(n)] for r in range(n)])
            value = (x.conj_transpose() * m * x).rows[0][0]
            if not cone_down.contains(down_alg.element([[value]])):
                values_ok = False
    return trace_ok, values_ok


class SymmetricSetCandidate:
    """The whole of Sym(A, sigma); fails properness."""

    def __init__(self, algebra):
        self.algebra = algebra
        self._basis = algebra.sym_basis()

    def contains(self, element):
        return self.algebra.is_symmetric_element(element)

    def sample_member(self, rng, **_):
        total = self.algebra.zero_element
        for b in self._basis:
            c = rng.randint(-2, 2)
            if c:
                total = total + b.scale(self.algebra.field.element(c))
        return total


class UnionCandidate:
    """P union -P; fails additive closure on mixed-signature witnesses."""

    def __init__(self, cone):
        self.cone = cone
        self.algebra = cone.algebra
        self._flip = -1

    def contains(self, element):
        return self.cone.contains(element) or self.cone.contains(-element)

    def sample_member(self, rng, **kw):
        self._flip = -self._flip
        m = sample_member(self.cone, rng, **kw)
        return m if self._flip > 0 else -m


@dataclass
class AxiomReport:
    passed: bool
    failed_axiom: str | None = None
    witness: str | None = None


def prepositive_axiom_check(candidate, ordering, rng, trials=40):
    """Sampled check of the prepositive-cone axioms.

    (P1) nonempty (0 belongs), (P2) closed under addition, (P3) closed
    under conj(x)^t . m . x, (P5) proper, (P4) the weight stabilizer is
    exactly the base ordering.  Properness is checked before the
    stabilizer; the first counterexample is reported.
    """
    alg = candidate.algebra
    if not candidate.contains(alg.zero_element):
        return AxiomReport(False, "P1", "0 is not a member")
    draw = (sample_member if isinstance(candidate, PositiveCone)
            else type(candidate).sample_member)
    members = [draw(candidate, rng) for _ in range(max(4, trials // 4))]
    for m1, m2 in itertools.islice(itertools.product(members, repeat=2), trials):
        if not candidate.contains(m1 + m2):
            return AxiomReport(False, "P2", "sum of two members escapes the set")
    for m in members[: max(2, trials // 8)]:
        for _ in range(4):
            x = _random_element(alg, rng, 2)
            if not candidate.contains(x.conj_transpose() * m * x):
                return AxiomReport(False, "P3", "sandwich of a member escapes the set")
    for m in members:
        if not m.is_zero() and candidate.contains(-m):
            return AxiomReport(False, "P5", "nonzero element in both the set and its negative")
    for _ in range(trials):
        u = _random_nonzero_scalar(alg, rng)
        stays = all(candidate.contains(m.scale(u)) for m in members)
        positive = sign_at(u, ordering) > 0
        if stays != positive:
            return AxiomReport(False, "P4",
                               "weight stabilizer differs from the base ordering")
    return AxiomReport(True)


def _random_nonzero_scalar(alg, rng):
    fld = alg.field
    while True:
        e = fld.element([rng.randint(-3, 3) for _ in range(fld.degree)])
        if not e.is_zero():
            return e


def strongly_anisotropic_flag(h):
    """Sufficient criterion for strong anisotropy: the signature attains
    rank times the maximal rank-1 value at some ordering (the form is
    definite there, so no multiple has a nontrivial zero).  False is
    inconclusive, not a refutation."""
    alg = h.algebra
    for p in alg.nonnil_orderings():
        top = rank1_max_signature(alg, p) * h.rank
        if top and abs(signature(h, p)) == top:
            return True
    return False


def basic_open(space, elements):
    """H_sigma(a_1, ..., a_k): indices of the cones of the space containing
    every a_i; the whole space for no arguments."""
    out = frozenset(range(len(space.cones)))
    for a in elements:
        out &= space._h_single(a)
    return out


def pool_generators(space):
    """The exact generator set of the subbasis of the space, e s for every
    scalar e in +-scalars and every seed s, in that order: the elements
    whose H-sets `ConeSpace.generator_sets` derives (`_generator_pool`)."""
    seeds, scalars = space._pool
    return [s.scale(e) for c, _ in scalars for e in (c, -c) for s in seeds]


def labels(space, subset):
    """The (ordering index, orientation) pairs of the cones in subset."""
    return sorted(space.cones[i].id_pair() for i in subset)


def plain_sos_search(u, slots=(), height=1, max_terms=3):
    """The bounded search of `find_sos_certificate` on an n = 1 algebra with
    the default generator, as a plain depth-first search that tries every
    pool value, equal ones too, and subtracts the last term as well: the
    oracle of its pool of distinct values.  The terms are the vectors of
    height 1 to `height` in order, each times the distinct slot scales in
    their first (weight subset, generator mask).  Returns ("refuted",
    None) when u is outside a cone of the Harrison set, ("certificate",
    [(weight subset, generator index, vector), ...]) for the first
    certificate at minimal height, and ("unknown", None) at exhaustion."""
    alg = u.algebra
    fld = alg.field
    a = default_generator(alg)
    slots = [fld.element(b) if isinstance(b, int) else b for b in slots]
    t = len(slots)
    cones = [PositiveCone(alg, p, 1) for p in harrison_set(fld, slots) if not alg.is_nil(p)]
    if not all(c.contains(u) for c in cones):
        return "refuted", None
    scales = {}
    for wmask in range(1 << t):
        wsub = tuple(i for i in range(t) if wmask >> i & 1)
        for gmask in range(1 << t):
            scales.setdefault(_term_scale(slots, wsub, fld.one, gmask), (wsub, gmask))
    values = []

    def dfs(rem, start, depth):
        if rem.is_zero():
            return []
        if depth == max_terms or not all(c.contains(rem) for c in cones):
            return None
        for idx in range(start, len(values)):
            wsub, gmask, x, val = values[idx]
            got = dfs(rem - val, idx, depth + 1)
            if got is not None:
                return [(wsub, depth << t | gmask, x)] + got
        return None

    for h in range(1, height + 1):
        for coords in itertools.product(range(-h, h + 1), repeat=alg.entry_dim):
            if max(map(abs, coords)) != h or next(c for c in coords if c) < 0:
                continue
            x = alg.element([[coords]])
            sandwich = x.conj_transpose() * a * x
            if not sandwich.is_zero():
                values += [(wsub, gmask, x, sandwich.scale(g))
                           for g, (wsub, gmask) in scales.items()]
        found = dfs(u, 0, 0)
        if found is not None:
            return "certificate", found
    return "unknown", None


def every_generator_pullback(algebra):
    """The `ok` of `morita_cone_maps`, decided by testing diag(a, 0, ..., 0)
    over M_n(D) against a over D for every generator a of the pool of D,
    one by one, with the cones paired by position."""
    up = ConeSpace(algebra)
    down = ConeSpace(algebra.collapsed())
    n, zero = algebra.n, algebra.ring.zero
    return all(
        up._h_single(algebra.element([[a.rows[0][0] if r == c == 0 else zero
                                       for c in range(n)] for r in range(n)]))
        == down._h_single(a)
        for a in pool_generators(down))
