import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hermsig.algebras import AlgebraElement, AlgebraWithInvolution, is_invertible
from hermsig.cones import (
    PositiveCone,
    SquareCertificate,
    CertTerm,
    _term_scale,
    _value_cap,
    enumerate_positive_cones,
    eta_maximal,
    find_sos_certificate,
    formally_real,
    maximal_generator,
    positivity_sets,
    verify_certificate,
)
from hermsig.field import QQ, NumberField, sign_at
from hermsig.hermitian import (
    HermitianForm,
    rank1_form,
    rank1_max_signature,
    reference_form,
    signature,
)
from cone_helpers import (
    SymmetricSetCandidate,
    UnionCandidate,
    plain_sos_search,
    prepositive_axiom_check,
    sample_member,
    strongly_anisotropic_flag,
)
from kernel_calls import count_diagonalize
from trace_oracle import trace_carrier, trace_diag

SQRT2 = NumberField([-2, 0, 1])
F5 = NumberField([1, 3, -3, -4, 1, 1])
P0 = QQ.orderings[0]

HAMILTON1 = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
HAMILTON2 = AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1)
SO2 = AlgebraWithInvolution(QQ, "split_orth", 2)
SO3 = AlgebraWithInvolution(QQ, "split_orth", 3)


def test_membership_schur_complement_example():
    m = HAMILTON2.element([[2, (0, 1, 0, 0)], [(0, -1, 0, 0), 1]])
    assert HAMILTON2.is_symmetric_element(m)
    plus = PositiveCone(HAMILTON2, P0, 1)
    minus = PositiveCone(HAMILTON2, P0, -1)
    assert plus.contains(m)
    assert not minus.contains(m)


def test_membership_basics():
    plus = PositiveCone(SO2, P0, 1)
    minus = PositiveCone(SO2, P0, -1)
    indef = SO2.element([[1, 0], [0, -1]])
    assert not plus.contains(indef)
    assert not minus.contains(indef)
    assert plus.contains(SO2.zero_element)
    assert minus.contains(SO2.zero_element)
    psd_singular = SO2.element([[1, 1], [1, 1]])
    assert plus.contains(psd_singular)
    assert not minus.contains(psd_singular)
    with pytest.raises(ValueError):
        plus.contains(SO2.element([[0, 1], [0, 0]]))


def test_membership_matches_quadratic_psd_for_split_orth():
    rng = random.Random(60)
    plus = PositiveCone(SO2, P0, 1)
    for _ in range(30):
        raw = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        sym = [[QQ.element(raw[r][c] + raw[c][r]) for c in range(2)] for r in range(2)]
        m = SO2.element(sym)
        a, b, c = sym[0][0], sym[1][1], sym[0][1]
        det = a * b - c * c
        trace_psd = (sign_at(a, P0) >= 0 and sign_at(b, P0) >= 0
                     and sign_at(det, P0) >= 0)
        assert plus.contains(m) == trace_psd


def test_cone_membership_skew_family_matches_split_oracle():
    alg = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    q = alg.quat
    # N(q) = J phi(q); membership in an oriented cone must match the
    # definiteness of N at the ordering
    from hermsig.algebras import SplitIsomorphism

    phi = SplitIsomorphism(alg.quat)
    plus = PositiveCone(alg, P0, 1)
    minus = PositiveCone(alg, P0, -1)
    rng = random.Random(61)
    for _ in range(40):
        coords = [rng.randint(-2, 2) for _ in range(3)]
        if all(c == 0 for c in coords):
            continue
        pure = q.element(0, *coords)
        m = alg.scalar_element(pure)
        img = phi.apply(pure)
        n_mat = [img[1], [-v for v in img[0]]]  # J * phi
        a, b, c = n_mat[0][0], n_mat[1][1], n_mat[0][1]
        det = a * b - c * c
        psd = sign_at(a, P0) >= 0 and sign_at(b, P0) >= 0 and sign_at(det, P0) >= 0
        nsd = sign_at(a, P0) <= 0 and sign_at(b, P0) <= 0 and sign_at(det, P0) >= 0
        # membership orientation depends on the reference sign, so compare
        # the unordered pair of verdicts
        assert {plus.contains(m), minus.contains(m)} == {psd, nsd}


def test_eta_maximal():
    assert eta_maximal(HAMILTON1.one_element, P0)
    assert not eta_maximal(-HAMILTON1.one_element, P0)
    with pytest.raises(ValueError):
        eta_maximal(HAMILTON1.zero_element, P0)
    # vacuous maximality at a nil ordering
    allnil = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1)
    assert eta_maximal(allnil.one_element, P0)


def test_enumerate_cones_counts():
    assert len(enumerate_positive_cones(HAMILTON1)) == 2
    assert enumerate_positive_cones(AlgebraWithInvolution(QQ, "quat_symp", 2, a=1, b=1)) == []
    assert len(enumerate_positive_cones(SO2)) == 2
    theta_alg = AlgebraWithInvolution(SQRT2, "split_orth", 1)
    assert len(enumerate_positive_cones(theta_alg)) == 4


def test_formally_real():
    assert formally_real(HAMILTON1)
    assert not formally_real(AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1))
    assert formally_real(AlgebraWithInvolution(QQ, "split_orth", 1))


def test_positivity_sets():
    rep = positivity_sets(HAMILTON1)
    assert rep.x_sigma == list(QQ.orderings)
    assert rep.x_tilde == list(QQ.orderings)
    assert rep.ps_prime_holds and rep.ps_sufficient

    rep = positivity_sets(SO3)
    assert rep.x_sigma == list(QQ.orderings)
    assert rep.ps_prime_holds

    rep = positivity_sets(AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1))
    assert rep.x_tilde == []
    assert not formally_real(AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1))

    theta = SQRT2.gen
    mixed = AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=theta)
    rep = positivity_sets(mixed)
    assert {p.index for p in rep.x_tilde} == {0}
    assert rep.ps_prime_holds == ({p.index for p in rep.x_sigma} == {0})


def test_x_sigma_sign_rule_matches_the_unit_trace_form():
    """X_sigma is read from the signs of the parameters (``Family.x_sigma``);
    it is where the unit trace form (the oracle) is PSD, nil orderings
    included: every family at n = 1, 2 over Q, Q(sqrt 2) and F5."""
    from trace_oracle import default_twist, unit_form

    checked = 0
    for field in (QQ, SQRT2, F5):
        one = field.one
        x = field.gen if field.degree > 1 else 5 * one
        values = (one, -one, x, -x, one + x, -one - x)
        for n in (1, 2):
            algebras = [AlgebraWithInvolution(field, "split_orth", n)]
            algebras += [AlgebraWithInvolution(field, "unitary", n, delta=d)
                         for d in values if d != one]
            algebras += [AlgebraWithInvolution(field, family, n, a=a, b=b)
                         for family in ("quat_symp", "quat_skew")
                         for a in values for b in values]
            for alg in algebras:
                diag = trace_diag(unit_form(alg), default_twist(alg))
                want = [p for p in field.orderings if all(sign_at(d, p) >= 0 for d in diag)]
                assert positivity_sets(alg).x_sigma == want, alg
                checked += 1
    assert checked == 3 * 2 * (1 + 5 + 72)


def test_membership_respects_cone_axioms_sampled():
    rng = random.Random(62)
    for alg in (HAMILTON1, SO2, AlgebraWithInvolution(QQ, "quat_skew", 1, a=2, b=5)):
        cone = PositiveCone(alg, P0, 1)
        for _ in range(15):
            m1 = sample_member(cone, rng)
            m2 = sample_member(cone, rng)
            assert cone.contains(m1)
            assert cone.contains(m1 + m2)
            x = alg.element([[tuple(rng.randint(-2, 2) for _ in range(alg.entry_dim))
                              if alg.entry_dim > 1 else rng.randint(-2, 2)
                              for _ in range(alg.n)] for _ in range(alg.n)])
            assert cone.contains(x.conj_transpose() * m1 * x)
            if not m1.is_zero():
                assert not cone.contains(-m1)


def test_prepositive_axiom_reports():
    rng = random.Random(63)
    cone = PositiveCone(SO2, P0, 1)
    assert prepositive_axiom_check(cone, P0, rng).passed

    rng = random.Random(64)
    rep = prepositive_axiom_check(SymmetricSetCandidate(SO2), P0, rng)
    assert not rep.passed and rep.failed_axiom == "P5"

    rng = random.Random(65)
    rep = prepositive_axiom_check(UnionCandidate(cone), P0, rng)
    assert not rep.passed and rep.failed_axiom == "P2"


def test_cone_invertible_members_are_eta_maximal():
    rng = random.Random(66)
    for alg in (HAMILTON1, SO2):
        for eps in (1, -1):
            cone = PositiveCone(alg, P0, eps)
            hits = 0
            for _ in range(60):
                m = sample_member(cone, rng)
                if not is_invertible(m):
                    continue
                hits += 1
                if eps == 1:
                    assert eta_maximal(m, P0)
                else:
                    assert eta_maximal(-m, P0)
            assert hits > 10


def test_verify_certificate_examples():
    # u = 2 represented by x = 1 + i over the Hamilton quaternions
    u = HAMILTON1.scalar_element(2)
    x = HAMILTON1.element([[(1, 1, 0, 0)]])
    cert = SquareCertificate([CertTerm((), QQ.one, x, 0)])
    assert verify_certificate(u, HAMILTON1.one_element, [], 1, cert)

    # empty certificate verifies only u = 0
    assert verify_certificate(HAMILTON1.zero_element, HAMILTON1.one_element, [],
                              1, SquareCertificate([]))
    assert not verify_certificate(u, HAMILTON1.one_element, [], 1,
                                  SquareCertificate([]))

    # weight sqrt2 positive on Y = H(sqrt2)
    theta = SQRT2.gen
    rat2 = AlgebraWithInvolution(SQRT2, "split_orth", 1)
    x2 = rat2.element([[1 + 0 * theta]])
    target = rat2.scalar_element(theta)
    cert2 = SquareCertificate([CertTerm((0,), SQRT2.one, x2, 0)])
    assert verify_certificate(target, rat2.one_element, [theta], 1, cert2)


def test_verify_certificate_shape_errors():
    u = HAMILTON1.scalar_element(2)
    x = HAMILTON1.element([[(1, 1, 0, 0)]])
    with pytest.raises(ValueError):
        verify_certificate(u, HAMILTON1.one_element, [], 1,
                           SquareCertificate([CertTerm((), QQ.one, x, 5)]))
    with pytest.raises(ValueError):
        verify_certificate(u, HAMILTON1.one_element, [], 1,
                           SquareCertificate([CertTerm((2,), QQ.one, x, 0)]))
    with pytest.raises(ValueError):
        verify_certificate(u, HAMILTON1.one_element, [], 1,
                           SquareCertificate([CertTerm((), QQ.zero, x, 0)]))


def test_find_sos_rational_scalars():
    rat = AlgebraWithInvolution(QQ, "split_orth", 1)
    res = find_sos_certificate(rat.scalar_element(7))
    assert res.status == "certificate"
    vals = sorted(t.vector.rows[0][0].as_fraction() for t in res.certificate.terms)
    assert vals == [1, 1, 1, 2]
    assert verify_certificate(rat.scalar_element(7), rat.one_element, [], 4,
                              res.certificate)

    res = find_sos_certificate(rat.scalar_element(1))
    assert res.status == "certificate"
    assert verify_certificate(rat.scalar_element(1), rat.one_element, [],
                              len(res.certificate.terms), res.certificate)

    res = find_sos_certificate(rat.scalar_element(-3))
    assert res.status == "refuted"
    assert res.refutation.ordering == P0


def test_find_sos_matrix_constructive():
    u = SO2.element([[2, 1], [1, 2]])
    res = find_sos_certificate(u)
    assert res.status == "certificate"
    assert len(res.certificate.terms) <= 8
    assert verify_certificate(u, SO2.one_element, [], len(res.certificate.terms),
                              res.certificate)

    indef = SO2.element([[1, 2], [2, 1]])
    res = find_sos_certificate(indef)
    assert res.status == "refuted"
    assert sign_at(res.refutation.witness, P0) < 0

    singular = SO2.element([[1, 1], [1, 1]])
    res = find_sos_certificate(singular)
    assert res.status == "certificate"
    assert verify_certificate(singular, SO2.one_element, [],
                              len(res.certificate.terms), res.certificate)


def test_find_sos_search_path_hamilton():
    u = HAMILTON1.scalar_element(2)
    res = find_sos_certificate(u, height=1, max_terms=2)
    assert res.status == "certificate"
    assert verify_certificate(u, HAMILTON1.one_element, [],
                              len(res.certificate.terms), res.certificate)


def test_find_sos_with_pfister_weights():
    theta = SQRT2.gen
    rat2 = AlgebraWithInvolution(SQRT2, "split_orth", 1)
    target = rat2.scalar_element(theta)
    res = find_sos_certificate(target, slots=[theta], height=1, max_terms=2)
    assert res.status == "certificate"
    assert verify_certificate(target, rat2.one_element, [theta],
                              len(res.certificate.terms), res.certificate)
    # -theta is negative somewhere on Y = H(theta): refuted
    res = find_sos_certificate(rat2.scalar_element(-theta), slots=[theta],
                               height=1, max_terms=2)
    assert res.status == "refuted"


def test_find_sos_unknown_is_an_honest_outcome():
    u = HAMILTON1.scalar_element(7)
    res = find_sos_certificate(u, height=1, max_terms=1)
    assert res.status == "unknown"
    # with workable bounds the same target is certified
    res = find_sos_certificate(u, height=2, max_terms=2)
    assert res.status == "certificate"
    assert verify_certificate(u, HAMILTON1.one_element, [],
                              len(res.certificate.terms), res.certificate)


def test_not_formally_real_means_all_signatures_vanish():
    import random as _random

    from hermsig.hermitian import HermitianForm, reference_form, total_signature_h

    rng = _random.Random(13)
    allnil = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1)
    for _ in range(50):
        coords = [rng.randint(-3, 3) for _ in range(4)]
        q = allnil.quat.element(*coords)
        gram = [[q + q.conj()]]
        h = HermitianForm(allnil, gram)
        assert all(v == 0 for _, v in total_signature_h(h))
    # while a formally real instance carries a nonzero table
    eta_h = reference_form(HAMILTON1)
    assert any(v != 0 for _, v in total_signature_h(eta_h.form))


def test_membership_matches_algebra_level_diagonalization():
    # cone membership of a symmetric x must agree with the pivot-sign rule
    # of the algebra-level congruence reduction of <x> for the hermitian
    # families; at n = 2, <x> is a rank-1 form whose Gram is x itself
    from test_hermitian import hermitian_diagonalize

    theta = SQRT2.gen
    rng = random.Random(80)
    instances = [
        AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "unitary", 2, delta=-1),
        AlgebraWithInvolution(SQRT2, "quat_symp", 2, a=-1, b=-1),
        AlgebraWithInvolution(SQRT2, "unitary", 2, delta=theta - 3),
    ]
    outcomes = set()
    for alg in instances:
        eta = reference_form(alg)
        ed = alg.entry_dim
        for _ in range(15):
            raw = alg.element([[[rng.randint(-2, 2) for _ in range(ed)] for _ in range(2)]
                               for _ in range(2)])
            x = raw + raw.conj_transpose()
            pivots, _ = hermitian_diagonalize(HermitianForm(alg, x.rows))
            trace = trace_diag(rank1_form(x, "x is symmetric"))
            for p in alg.nonnil_orderings():
                for eps in (1, -1):
                    want = eps * (1 if eta.certificate[p] > 0 else -1)
                    pivot_rule = all(want * sign_at(d, p) >= 0 for d in pivots)
                    assert PositiveCone(alg, p, eps).contains(x) == pivot_rule
                    # the trace diagonal of <x> carries the same rule
                    assert all(want * sign_at(d, p) >= 0 for d in trace) == pivot_rule
                    outcomes.add(pivot_rule)
    assert outcomes == {True, False}


def test_totally_imaginary_field_has_no_cones():
    from hermsig.field import NumberField

    imag = NumberField([1, 0, 1])  # x^2 + 1
    alg = AlgebraWithInvolution(imag, "split_orth", 2)
    assert not formally_real(alg)
    assert enumerate_positive_cones(alg) == []
    rep = positivity_sets(alg)
    assert rep.x_sigma == [] and rep.x_tilde == []


def test_strongly_anisotropic_sufficient_flag():
    from hermsig.hermitian import HermitianForm

    assert strongly_anisotropic_flag(HermitianForm.diagonal(HAMILTON1, [1, 1]))
    assert not strongly_anisotropic_flag(
        HermitianForm.diagonal(HAMILTON1, [1, -1]))

    skew = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    k = skew.quat.k
    definite = HermitianForm.diagonal(
        skew, [skew.scalar_element(k), skew.scalar_element(k)])
    assert strongly_anisotropic_flag(definite)
    mixed = HermitianForm.diagonal(
        skew, [skew.scalar_element(k), skew.scalar_element(-k)])
    assert not strongly_anisotropic_flag(mixed)

    # flag implies formal reality on samples
    allnil = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1)
    assert not strongly_anisotropic_flag(HermitianForm.diagonal(allnil, [1, 1]))
    assert not formally_real(allnil)


def test_sos_refutation_witness_is_the_carrier_pivot():
    # the witness is the first wrong-signed carrier value of <u>, the kernel
    # pivot 1 + x (the trace form's diagonal value was 2(1 + x))
    x = SQRT2.gen
    alg = AlgebraWithInvolution(SQRT2, "quat_symp", 2, a=-1, b=x - 2)
    q = alg.ring.element(1, 2, 0, -1)
    u = alg.element([[x + 1, q], [q.conj(), -3]])
    res = find_sos_certificate(u)
    assert res.status == "refuted"
    assert res.refutation.ordering.index == 0
    assert res.refutation.witness == 1 + x
    assert sign_at(res.refutation.witness, res.refutation.ordering) < 0


# ---------------------------------------------------------------------------
# One reduction of <x> serves every cone.


def _membership_algebras():
    # quat_skew (x, x - 1) over F5 has twist j at one non-nil ordering and
    # k at the other, so one set of pivots of <x> serves two twists
    out = []
    for field in (SQRT2, F5):
        x = field.gen
        for n in (1, 2):
            out += [AlgebraWithInvolution(field, "split_orth", n),
                    AlgebraWithInvolution(field, "unitary", n, delta=-1),
                    AlgebraWithInvolution(field, "quat_symp", n, a=-1, b=x),
                    AlgebraWithInvolution(field, "quat_skew", n, a=1, b=1),
                    AlgebraWithInvolution(field, "quat_skew", n, a=x, b=x - 1)]
    return out


MEMBERSHIP_ALGEBRAS = _membership_algebras()


@st.composite
def _membership_case(draw):
    """An element y of M_n(D) and x = y +- sigma(y)^t, which is symmetric
    (skew for quat_skew); y itself is usually not."""
    alg = draw(st.sampled_from(MEMBERSHIP_ALGEBRAS))
    field, ed = alg.field, alg.entry_dim

    def entry():
        return [field.element([draw(st.integers(-2, 2)), draw(st.integers(-1, 1))])
                for _ in range(ed)]

    y = alg.element([[entry() for _ in range(alg.n)] for _ in range(alg.n)])
    ct = y.conj_transpose()
    return y, (y - ct if alg.skew_gram else y + ct)


@settings(max_examples=120, deadline=None)
@given(_membership_case())
def test_membership_on_one_element_matches_a_fresh_carrier(case):
    y, x = case
    alg = x.algebra
    cones = enumerate_positive_cones(alg)
    want = {}
    for cone in cones:
        values, _ = trace_carrier(HermitianForm(alg, x.rows), cone.ordering)
        want[cone] = all(cone._side * sign_at(d, cone.ordering) >= 0 for d in values)
    for cone in cones + cones[::-1]:
        assert cone.contains(x) == want[cone]
    if not alg.is_symmetric_element(y):
        for cone in cones + cones[::-1]:
            with pytest.raises(ValueError, match="symmetric elements"):
                cone.contains(y)


@pytest.mark.parametrize("family,params", [
    ("split_orth", {}), ("unitary", {"delta": -1}), ("quat_symp", {"a": -1, "b": -1})])
def test_h_single_reduces_a_fresh_element_once(monkeypatch, family, params):
    from hermsig.spectra import ConeSpace

    alg = AlgebraWithInvolution(F5, family, 1, **params)
    space = ConeSpace(alg)
    assert len(space) == 10
    calls = count_diagonalize(monkeypatch)
    ed = alg.entry_dim
    x = alg.element([[[F5.gen - 1] + [0] * (ed - 1)]])
    got = space._h_single(x)
    # one reduction of the 1 x 1 entry Gram of <x> for all ten cones
    assert [g.size for g in calls] == [1]
    assert got == frozenset(i for i, cone in enumerate(space.cones)
                            if all(cone._side * sign_at(d, cone.ordering) >= 0
                                   for d in trace_carrier(HermitianForm(alg, x.rows),
                                                          cone.ordering)[0]))


def _cert_summary(res):
    if res.certificate is None:
        return res.status, None
    return res.status, [(t.weight_subset, tuple(int(c.as_fraction()) for c in t.vector.coords()),
                         t.generator_index) for t in res.certificate.terms]


def test_find_sos_certificate_pinned_hamilton_seven():
    u = HAMILTON1.scalar_element(7)
    res = find_sos_certificate(u, height=2, max_terms=2)
    assert _cert_summary(res) == ("certificate", [((), (0, 1, -1, -1), 0),
                                                  ((), (1, -1, -1, -1), 1)])
    assert verify_certificate(u, HAMILTON1.one_element, [], 2, res.certificate)


def test_find_sos_certificate_pinned_quintic_targets(monkeypatch):
    ham = AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=-1)
    u = ham.scalar_element(3)
    res = find_sos_certificate(u, height=1, max_terms=3)
    assert _cert_summary(res) == ("certificate", [((), (0, 0, 0, 1), i) for i in range(3)])
    assert verify_certificate(u, ham.one_element, [], 3, res.certificate)
    # 13 needs four terms of reduced norm at most 4.  Whatever the number of
    # cones: one reduction for the invertibility test of the generator and
    # one for <13> at the gate.  Two terms of height 1 are worth at most
    # 2 * 4 < 13, so the bound prunes the root, and the search reduces no
    # remainder: its tests on F-scalar remainders are signs
    calls = count_diagonalize(monkeypatch)
    res = find_sos_certificate(ham.scalar_element(13), height=1, max_terms=2)
    assert _cert_summary(res) == ("unknown", None)
    assert len(calls) == 1 + 1


def test_find_sos_certificate_one_term_short_is_unknown():
    ham = AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=-1)
    u = ham.scalar_element(13)
    assert find_sos_certificate(u, height=1, max_terms=3).status == "unknown"
    res = find_sos_certificate(u, height=1, max_terms=4)
    assert _cert_summary(res) == ("certificate", [((), (0, 0, 0, 1), 0)] + [
        ((), (1, -1, -1, -1), i) for i in (1, 2, 3)])
    assert verify_certificate(u, ham.one_element, [], 4, res.certificate)


UNITARY1 = AlgebraWithInvolution(QQ, "unitary", 1, delta=-1)
SO1_SQRT2 = AlgebraWithInvolution(SQRT2, "split_orth", 1)
_H0001, _H01 = (0, 0, 0, 1), (0, 1)


@pytest.mark.parametrize("alg, target, slots, height, max_terms, terms", [
    (HAMILTON1, 6, [2, 3], 1, 2, [((), _H0001, 1), ((0,), _H0001, 5)]),
    (HAMILTON1, 18, [2, 3], 1, 2, [((), _H0001, 1), ((0,), (1, -1, -1, -1), 5)]),
    (HAMILTON1, 30, [2, 3, 5], 1, 2, [((), _H0001, 2), ((1,), (0, 1, -1, -1), 10)]),
    (HAMILTON1, 45, [3, 5], 2, 2, [((), _H0001, 3), ((), (0, 0, 1, -1), 7)]),
    (HAMILTON1, 50, [2, 5], 1, 3, [((), _H0001, 1), ((0,), (0, 0, 1, -1), 5),
                                   ((0,), (0, 0, 1, -1), 11)]),
    (HAMILTON1, 96577, [2, 3, 5], 1, 1, None),
    (UNITARY1, 10, [2, 5], 1, 2, [((), _H01, 1), ((0,), (1, -1), 5)]),
    (UNITARY1, 12, [2, 3], 2, 3, [((), _H01, 0), ((), _H01, 5), ((1,), _H01, 10)]),
    (SO1_SQRT2, SQRT2.gen, [SQRT2.gen, 2], 1, 2, [((), (1,), 1)]),
    (SO1_SQRT2, 2 + SQRT2.gen, [SQRT2.gen, 2], 1, 2, [((), (1,), 1), ((), (1,), 6)]),
    (SO1_SQRT2, 3 * SQRT2.gen, [SQRT2.gen, 2], 1, 2, [((), (1,), 1), ((), (1,), 7)]),
])
def test_find_sos_certificate_with_slots_is_pinned(alg, target, slots, height,
                                                   max_terms, terms):
    """The pool keeps, per vector, one term for each distinct slot product:
    the first of the 4^t (weight subset, generator mask) choices that gives
    it.  These are the certificates the search found with all 4^t."""
    u = alg.scalar_element(target)
    res = find_sos_certificate(u, slots=slots, height=height, max_terms=max_terms)
    assert _cert_summary(res) == ("unknown" if terms is None else "certificate", terms)
    if terms is not None:
        copies = max(t.generator_index for t in res.certificate.terms) // (1 << len(slots)) + 1
        assert verify_certificate(u, alg.one_element, slots, copies, res.certificate)


_THETA = SQRT2.gen


@pytest.mark.parametrize("alg, targets, slots, height, max_terms", [
    (HAMILTON1, range(1, 21), [], 1, 3),
    (AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=-1), range(1, 21), [], 1, 3),
    (UNITARY1, range(1, 21), [2, 5], 2, 2),
    (SO1_SQRT2, [k + j * _THETA for k in range(-2, 6) for j in (-2, 1, 3)],
     [_THETA, 2], 1, 3),
], ids=["quat_symp_Q", "quat_symp_quintic", "unitary_slots", "split_orth_sqrt2_slots"])
def test_pool_of_distinct_values_keeps_the_first_certificate(alg, targets, slots, height,
                                                             max_terms):
    """The search keeps one term per pool value, so it never searches a
    value again after its subtree failed; the plain search, which keeps
    every term, finds the same first certificate, or none.  The targets
    over Q(sqrt 2) mix certificates, refutations and exhaustion."""
    statuses = _same_search_as_the_plain_oracle(alg, targets, slots, height, max_terms)
    assert "certificate" in statuses and "unknown" in statuses


def _same_search_as_the_plain_oracle(alg, targets, slots, height, max_terms):
    """Assert that sos-find gives the outcome and the first certificate of
    `plain_sos_search` for every target; return the outcomes seen."""
    statuses = set()
    for target in targets:
        u = alg.scalar_element(target)
        res = find_sos_certificate(u, slots=slots, height=height, max_terms=max_terms)
        status, terms = plain_sos_search(u, slots, height, max_terms)
        got = None if res.certificate is None else [
            (term.weight_subset, term.generator_index, term.vector)
            for term in res.certificate.terms]
        assert (res.status, got) == (status, terms), (target, max_terms)
        statuses.add(status)
    return statuses


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("alg, targets, slots", [
    (HAMILTON1, range(1, 21), ()),
    (HAMILTON1, range(1, 21), (2,)),
    (AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=-1), range(1, 21), ()),
    (AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=-1), range(1, 21), (2,)),
    (SO1_SQRT2, [k + j * _THETA for k in range(-2, 6) for j in (-2, 1, 3)], (_THETA, 2)),
], ids=["quat_symp_Q", "quat_symp_Q_slot", "quat_symp_quintic", "quat_symp_quintic_slot",
        "split_orth_sqrt2_slots"])
def test_on_demand_pool_searches_as_the_full_pool(alg, targets, slots, height):
    """The pool is built term by term as the search reaches it, in the
    order of the full pool: for 1 to 3 terms, the outcome and the first
    certificate are those of the plain search on a pool built in full."""
    statuses = set()
    for max_terms in (1, 2, 3):
        statuses |= _same_search_as_the_plain_oracle(alg, targets, slots, height, max_terms)
    assert "certificate" in statuses


def test_on_demand_pool_builds_the_sandwiches_the_search_reaches(monkeypatch):
    """The invertibility test of the generator makes one product of algebra
    elements, and the search none: over the quaternions, x* x = Nrd(x) is
    read from the integer coordinates.  3 = 1 + 1 + 1 needs the first
    vector only, and the unknown 13 with two terms is pruned at the root
    (2 * 4 < 13), with no sandwich built.  So is 1000 at the defaults
    (height 3, 6 terms, 6 * 4 * 3^2 < 1000), which used to build the whole
    pool of every height."""
    ham = AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=-1)
    reference_form(ham)
    products = []
    mul = AlgebraElement.__mul__

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    res = find_sos_certificate(ham.scalar_element(3), height=1, max_terms=3)
    assert res.status == "certificate"
    assert len(products) == 1
    products.clear()
    res = find_sos_certificate(ham.scalar_element(13), height=1, max_terms=2)
    assert res.status == "unknown"
    assert len(products) == 1
    reference_form(HAMILTON1)
    products.clear()
    assert find_sos_certificate(HAMILTON1.scalar_element(1000)).status == "unknown"
    assert len(products) == 1


@pytest.mark.parametrize("alg, targets, slots, height", [
    (AlgebraWithInvolution(F5, "unitary", 1, delta=-1),
     [k + j * F5.gen for k in range(1, 13) for j in (0, 1)], [], 1),
    (AlgebraWithInvolution(F5, "unitary", 1, delta=-1), range(1, 16), [2, 5], 1),
    (AlgebraWithInvolution(F5, "split_orth", 1),
     [k + j * F5.gen for k in range(-1, 9) for j in (0, -1)], [], 2),
    (AlgebraWithInvolution(F5, "split_orth", 1), range(1, 16), [3], 2),
], ids=["unitary", "unitary_slots", "split_orth", "split_orth_slot"])
def test_bounded_search_agrees_with_the_plain_search_over_the_quintic(
        alg, targets, slots, height):
    """Over the quintic field the bound and the cone tests read five
    orderings; for 1 to 3 terms, the outcome and the first certificate are
    still those of the plain search, which has neither the bound nor the
    lookup."""
    statuses = set()
    for max_terms in (1, 2, 3):
        statuses |= _same_search_as_the_plain_oracle(alg, targets, slots, height, max_terms)
    assert "certificate" in statuses and "unknown" in statuses


@pytest.mark.parametrize("family", ["split_orth", "unitary", "quat_symp"])
@pytest.mark.parametrize("field", [QQ, SQRT2, F5], ids=["Q", "sqrt2", "quintic"])
def test_value_cap_bounds_every_pool_value(field, family):
    """h^2 `_value_cap` at an ordering is at least the value c g Nrd(x) of
    every term x* c x of height at most h scaled by a slot scale g, with and
    without slots, at every ordering; a vector with coordinates 0 and h
    attains it.  The sandwiches are computed by products of algebra
    elements (x* c x = c x* x, as c is central)."""
    x = field.gen
    height = 2 if field.degree < 5 else 1
    slot_sets = [[], [2, 3]] + ([[1 + x * x, 2]] if field.degree > 1 else [])
    for alg in grid_algebras(field, family):
        if alg.n != 1:
            continue
        # the sandwiches x* x of the vectors of height at most h, by h
        norms = [set() for _ in range(height + 1)]
        for coords in itertools.product(range(-height, height + 1), repeat=alg.entry_dim):
            v = alg.element([[coords]])
            norms[max(map(abs, coords))].add((v.conj_transpose() * v).rows[0][0].coords()[0])
        for slots in slot_sets:
            slots = [field.element(b) if isinstance(b, int) else b for b in slots]
            t = len(slots)
            scales = {_term_scale(slots, [i for i in range(t) if m >> i & 1], field.one, g)
                      for m in range(1 << t) for g in range(1 << t)}
            for c in (field.one, field.element(3)):
                coeffs = [c * n for n in alg.ring.norms]
                caps = [_value_cap(coeffs, scales, p) for p in field.orderings]
                for h in range(1, height + 1):
                    values = {c * s * g for k in range(h + 1) for s in norms[k] for g in scales}
                    for p, cap in zip(field.orderings, caps):
                        assert all(sign_at(cap * (h * h) - v, p) >= 0 for v in values)
                        assert cap * (h * h) in values


def grid_algebras(field, family):
    """The family at n = 1 and 2 with each parameter in 1, -1, x, -x, 1 + x,
    -1 - x (x the generator of F; over Q, x = 0, and the zero and repeated
    values drop), less the square delta = 1 of the unitary family."""
    x, one = field.gen, field.one
    values = list(dict.fromkeys(v for v in (one, -one, x, -x, one + x, -one - x)
                                if not v.is_zero()))
    params = {"split_orth": [{}],
              "unitary": [{"delta": d} for d in values if d != one],
              "quat_symp": [{"a": a, "b": b} for a in values for b in values],
              "quat_skew": [{"a": a, "b": b} for a in values for b in values]}[family]
    return [AlgebraWithInvolution(field, family, n, **kw) for n in (1, 2) for kw in params]


@pytest.mark.parametrize("family", ["split_orth", "unitary", "quat_symp", "quat_skew"])
@pytest.mark.parametrize("field", [QQ, SQRT2, F5], ids=["Q", "sqrt2", "quintic"])
def test_constructed_reference_form_and_maximal_generator(field, family):
    """Every grid algebra has a memoized reference form with a nonzero
    certificate at each non-nil ordering.  The maximal generator of each
    cone is the unit, or the twist for quat_skew, up to sign: a member of
    the cone whose rank-1 signature is the maximum on the cone's side."""
    for alg in grid_algebras(field, family):
        eta = reference_form(alg)
        assert reference_form(alg) is eta
        nonnil = alg.nonnil_orderings()
        assert sorted(eta.certificate, key=lambda p: p.index) == nonnil
        assert all(eta.certificate.values())
        for p in nonnil:
            unit = alg.scalar_element(alg.twist_at(p) if alg.skew_gram else alg.ring.one)
            for eps in (1, -1):
                cone = PositiveCone(alg, p, eps)
                gen = maximal_generator(cone)
                assert gen == unit or gen == -unit
                assert cone.contains(gen)
                form = rank1_form(gen, "the generator is symmetric")
                assert signature(form, p) == eps * rank1_max_signature(alg, p)


def test_find_sos_ranges_over_the_non_nil_harrison_set():
    """Over Q(sqrt 2), unitary delta = x and quat_symp (x, -1) are nil at the
    ordering x > 0; `sos-find` used to build a cone there and raise."""
    theta = SQRT2.gen
    nil_at_one = (AlgebraWithInvolution(SQRT2, "unitary", 1, delta=theta),
                  AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=theta, b=-1))
    for alg in nil_at_one:
        assert [p.index for p in alg.nil_orderings()] == [1]
        u = alg.scalar_element(2)
        res = find_sos_certificate(u, height=1, max_terms=2)
        assert res.status == "certificate"
        assert verify_certificate(u, alg.one_element, [],
                                  len(res.certificate.terms), res.certificate)
        # x is negative at the one non-nil ordering, so the gate refutes it there
        res = find_sos_certificate(alg.scalar_element(theta), height=1, max_terms=2)
        assert res.status == "refuted" and res.refutation.ordering.index == 0
