"""Cone-level checks that only the tests use.

`prepositive_axiom_check` samples random members, so it tests the
prepositive-cone axioms on a candidate set; it is not a decision
procedure.  `strongly_anisotropic_flag` is a one-sided criterion, and
`basic_open` and `labels` read the H-sets of a `ConeSpace`.
"""

import itertools
from dataclasses import dataclass

from hermsig.cones import _random_element
from hermsig.field import sign_at
from hermsig.hermitian import rank1_max_signature, signature


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
        m = self.cone.sample_member(rng, **kw)
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
    members = [candidate.sample_member(rng) for _ in range(max(4, trials // 4))]
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


def strongly_anisotropic_flag(h, reference):
    """Sufficient criterion for strong anisotropy: the signature attains
    rank times the maximal rank-1 value at some ordering (the form is
    definite there, so no multiple has a nontrivial zero).  False is
    inconclusive, not a refutation."""
    alg = h.algebra
    for p in alg.nonnil_orderings():
        top = rank1_max_signature(alg, p) * h.rank
        if top and abs(signature(h, p, reference)) == top:
            return True
    return False


def basic_open(space, elements):
    """H_sigma(a_1, ..., a_k): indices of the cones of the space containing
    every a_i; the whole space for no arguments."""
    out = frozenset(range(len(space.cones)))
    for a in elements:
        out &= space._h_single(a)
    return out


def labels(space, subset):
    """The (ordering index, orientation) pairs of the cones in subset."""
    return sorted(space.cones[i].id_pair() for i in subset)
