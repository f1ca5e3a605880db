"""Differential sweeps: independent computation paths must agree on wide
randomized instance sets (seeded, deterministic)."""

import random

from hermsig.algebras import AlgebraWithInvolution, is_invertible
from hermsig.cones import PositiveCone
from hermsig.field import QQ, NumberField
from hermsig.hermitian import (
    HermitianForm,
    raw_signature,
    reference_form,
    signature,
    sylvester_count_oracle,
)
from cone_helpers import sample_member
from morita_oracle import morita_collapse, signature_by, transport_reference
from test_hermitian import hermitian_diagonalize
from trace_oracle import trace_diag

SQRT2 = NumberField([-2, 0, 1])
SQRT3 = NumberField([-3, 0, 1])
CBRT2 = NumberField([-2, 0, 0, 1])


def random_hermitian(alg, rng, rank, height=3):
    ed = alg.entry_dim
    s = rank * alg.n
    rows = [[alg.entry([rng.randint(-height, height) for _ in range(ed)])
             if ed > 1 else alg.entry(rng.randint(-height, height))
             for _ in range(s)] for _ in range(s)]
    ct = [[rows[c][r].conj() for c in range(s)] for r in range(s)]
    op = (lambda x, y: x - y) if alg.skew_gram else (lambda x, y: x + y)
    return HermitianForm(alg, [[op(x, y) for x, y in zip(r1, r2)]
                               for r1, r2 in zip(rows, ct)])


def test_trace_route_vs_diagonal_sign_count_broad():
    # division-at-P families: the normalized trace route must equal a
    # direct hermitian Gaussian elimination sign count, on three fields
    rng = random.Random(200)
    instances = [
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=-2, b=-7),
        AlgebraWithInvolution(QQ, "unitary", 1, delta=-13),
        AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(SQRT2, "unitary", 1, delta=-1),
        AlgebraWithInvolution(SQRT3, "quat_symp", 1, a=-1, b=SQRT3.gen - 2),
        AlgebraWithInvolution(CBRT2, "quat_symp", 1, a=-1, b=-CBRT2.gen),
        AlgebraWithInvolution(CBRT2, "split_orth", 1),
    ]
    for alg in instances:
        for p in alg.nonnil_orderings():
            for _ in range(10):
                h = random_hermitian(alg, rng, rng.randint(1, 3))
                assert raw_signature(h, p) == sylvester_count_oracle(h, p), alg


def test_membership_stable_under_invertible_congruence():
    rng = random.Random(201)
    for alg in (
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1),
        AlgebraWithInvolution(SQRT2, "split_orth", 2),
    ):
        for p in alg.nonnil_orderings():
            for eps in (1, -1):
                cone = PositiveCone(alg, p, eps)
                for _ in range(10):
                    basis = alg.sym_basis()
                    m = alg.zero_element
                    for b in basis:
                        c = rng.randint(-2, 2)
                        if c:
                            m = m + b.scale(alg.field.element(c))
                    while True:
                        ed = alg.entry_dim
                        x = alg.element([[tuple(rng.randint(-2, 2) for _ in range(ed))
                                          if ed > 1 else rng.randint(-2, 2)
                                          for _ in range(alg.n)] for _ in range(alg.n)])
                        if is_invertible(x):
                            break
                    sandwich = x.conj_transpose() * m * x
                    assert cone.contains(sandwich) == cone.contains(m)


def test_collapse_commutes_with_signature_everywhere():
    rng = random.Random(202)
    for alg in (
        AlgebraWithInvolution(SQRT2, "quat_symp", 2, a=-1, b=-1),
        AlgebraWithInvolution(SQRT2, "unitary", 2, delta=-1),
        AlgebraWithInvolution(QQ, "quat_skew", 2, a=1, b=3),
        AlgebraWithInvolution(QQ, "split_orth", 3),
    ):
        eta_down = transport_reference(reference_form(alg), alg.collapsed()).form
        for _ in range(4):
            h = random_hermitian(alg, rng, rank=rng.randint(1, 2), height=2)
            down = morita_collapse(h)
            for p in alg.field.orderings:
                assert signature(h, p) == signature_by(down, p, eta_down), alg


def test_skew_rank1_maximum_attained_on_mixed_field():
    from hermsig.hermitian import rank1_max_signature

    theta = SQRT2.gen
    alg = AlgebraWithInvolution(SQRT2, "quat_skew", 2, a=theta, b=theta)
    live = alg.nonnil_orderings()
    assert len(live) == 1
    assert rank1_max_signature(alg, live[0]) == 4


def test_diagonalization_pivot_count_matches_trace_rank():
    # radical dimensions agree between the two reductions (hermitian
    # families), so degenerate parts are consistently sized
    rng = random.Random(203)
    for alg in (
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "unitary", 1, delta=-5),
        AlgebraWithInvolution(SQRT2, "split_orth", 2),
    ):
        ed = alg.entry_dim
        for _ in range(12):
            h = random_hermitian(alg, rng, rank=rng.randint(1, 3))
            pivots, radical = hermitian_diagonalize(h)
            # both reductions work at entry level: kn slots, ed coords each
            assert len(trace_diag(h)) == len(pivots) * ed
            assert len(pivots) + radical == h.size


def test_quat_skew_matrix_cones_and_maximality():
    from hermsig.cones import eta_maximal
    from hermsig.hermitian import rank1_max_signature

    rng = random.Random(204)
    alg = AlgebraWithInvolution(QQ, "quat_skew", 2, a=1, b=1)
    p = alg.nonnil_orderings()[0]
    assert rank1_max_signature(alg, p) == 4
    k = alg.quat.k
    definite = alg.scalar_element(k)
    oriented = definite if signature(
        HermitianForm(alg, definite.rows), p) > 0 else -definite
    assert eta_maximal(oriented, p)
    assert not eta_maximal(-oriented, p)
    for eps in (1, -1):
        cone = PositiveCone(alg, p, eps)
        for _ in range(8):
            m = sample_member(cone, rng)
            assert cone.contains(m)
            if not m.is_zero():
                assert not cone.contains(-m)
