import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermsig.algebras import AlgebraWithInvolution
from hermsig.cones import PositiveCone
from hermsig.errors import InvariantError, UnsupportedError
from hermsig.field import QQ, FieldElement, NumberField
from hermsig.hermitian import (
    HermitianForm,
    ReferenceForm,
    going_up,
    going_up_algebra,
    knebusch_check,
    raw_signature,
    reference_form,
    scale_by_quadratic,
    scharlau_transfer,
    signature,
    split_oracle_signature,
    total_signature_h,
    sylvester_count_oracle,
    sylvester_decompose,
)
from hermsig.quadforms import QuadraticForm, signature_q
from morita_oracle import morita_collapse, morita_expand, signature_by, transport_reference
from trace_oracle import trace_form, unit_form
from witt_helpers import neg, perp, torsion_test_h

SQRT2 = NumberField([-2, 0, 1])
SQRT3 = NumberField([-3, 0, 1])
CBRT2 = NumberField([-2, 0, 0, 1])
F5 = NumberField([1, 3, -3, -4, 1, 1])

HAMILTON1 = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
RAT = AlgebraWithInvolution(QQ, "split_orth", 1)
GAUSS = AlgebraWithInvolution(QQ, "unitary", 1, delta=-1)
P0 = QQ.orderings[0]


def _scalar_part(entry):
    coords = entry.coords()
    if any(not c.is_zero() for c in coords[1:]):
        raise InvariantError("diagonal pivot is not a scalar")
    return coords[0]


def hermitian_diagonalize(h):
    """Reference hermitian congruence: the full-matrix loop with physical
    row and column swaps that `quadforms.diagonalize` replaced.  Returns
    (pivots, radical dimension); the pivots are F-scalars for the hermitian
    families."""
    alg = h.algebra
    if alg.skew_gram:
        raise UnsupportedError("skew Grams have pure-quaternion diagonals; "
                               "use the trace-form route")
    s = h.size
    m = [list(row) for row in h.gram]

    def swap(i, j):
        for r in range(s):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]

    diag = []
    for p in range(s):
        pivot = next((i for i in range(p, s) if not m[i][i].is_zero()), None)
        if pivot is None:
            off = next(((i, j) for i in range(p, s) for j in range(i + 1, s)
                        if not m[i][j].is_zero()), None)
            if off is None:
                break
            i, j = off
            lam = next(b for b in alg.ring.basis
                       if not (m[i][j] * b + (m[i][j] * b).conj()).is_zero())
            # e_i <- e_i + e_j lam
            for r in range(s):
                m[r][i] = m[r][i] + m[r][j] * lam
            lam_c = lam.conj()
            for r in range(s):
                m[i][r] = m[i][r] + lam_c * m[j][r]
            pivot = i
        if pivot != p:
            swap(p, pivot)
        f = _scalar_part(m[p][p])
        inv = f.inverse()
        for r in range(p + 1, s):
            if m[p][r].is_zero():
                continue
            c = m[p][r] * inv
            c_conj = c.conj()
            for x in range(s):
                m[x][r] = m[x][r] - m[x][p] * c
            for x in range(s):
                m[r][x] = m[r][x] - c_conj * m[p][x]
        diag.append(f)
    return diag, s - len(diag)


def conj_transpose_gram(alg, rows):
    s = len(rows)
    return [[rows[c][r].conj() for c in range(s)] for r in range(s)]


def random_hermitian(alg, rng, rank, height=2):
    """R + sigma(R)^t (or R - sigma(R)^t for skew Grams)."""
    s = rank * alg.n
    ed = alg.entry_dim
    rows = [[alg.entry([rng.randint(-height, height) for _ in range(ed)])
             if ed > 1 else alg.entry(rng.randint(-height, height))
             for _ in range(s)] for _ in range(s)]
    ct = conj_transpose_gram(alg, rows)
    if alg.skew_gram:
        gram = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(rows, ct)]
    else:
        gram = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(rows, ct)]
    return HermitianForm(alg, gram)


def congruence(h, s_rows):
    """sigma(S)^t G S at entry level."""
    alg = h.algebra
    n = h.size
    st = conj_transpose_gram(alg, s_rows)

    def matmul(x, y):
        out = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = alg.ring.zero
                for t in range(n):
                    acc = acc + x[r][t] * y[t][c]
                row.append(acc)
            out.append(row)
        return out

    return HermitianForm(alg, matmul(st, matmul([list(r) for r in h.gram], s_rows)))


def random_unit_upper(alg, rng, size, height=1):
    ed = alg.entry_dim
    rows = [[alg.ring.one if r == c else alg.ring.zero for c in range(size)]
            for r in range(size)]
    for r in range(size):
        for c in range(r + 1, size):
            coords = [rng.randint(-height, height) for _ in range(ed)]
            rows[r][c] = alg.entry(coords if ed > 1 else coords[0])
    return rows


def test_hamilton_calibration():
    from hermsig.quadforms import diagonalize

    one = HermitianForm.diagonal(HAMILTON1, [1])
    t = trace_form(one)
    diag = [v.as_fraction() for v in diagonalize(t).form.entries]
    assert diag == [2, 2, 2, 2]
    assert raw_signature(one, P0) == 1
    assert signature(one, P0) == 1
    h = HermitianForm.diagonal(HAMILTON1, [1, -2, 3])
    assert signature(h, P0) == 1


def test_trace_form_dimensions_and_base_cases():
    assert trace_form(HermitianForm.diagonal(RAT, [1])).size == 1
    t = trace_form(HermitianForm.diagonal(GAUSS, [1]))
    from hermsig.quadforms import diagonalize

    assert [v.as_fraction() for v in diagonalize(t).form.entries] == [2, 2]
    so2 = AlgebraWithInvolution(QQ, "split_orth", 2)
    h = HermitianForm(so2, [[1, 0], [0, -1]])
    assert trace_form(h).size == h.rank * so2.n * so2.n * so2.entry_dim == 4
    assert raw_signature(h, P0) == 0


def test_nil_ordering_short_circuit():
    allnil = AlgebraWithInvolution(QQ, "quat_symp", 2, a=1, b=1)
    h = HermitianForm.diagonal(allnil, [allnil.one_element, allnil.one_element])
    assert raw_signature(h, P0) == 0


def test_split_orth_matches_direct_sylvester_count():
    # the trace route with divisor n must agree with the signature of the
    # Gram matrix read as a plain quadratic form
    rng = random.Random(41)
    for n in (1, 2, 3):
        alg = AlgebraWithInvolution(QQ, "split_orth", n)
        for _ in range(12):
            h = random_hermitian(alg, rng, rank=rng.randint(1, 2))
            from hermsig.quadforms import GramQuadraticForm

            quad = GramQuadraticForm(QQ, [list(r) for r in h.gram])
            assert raw_signature(h, P0) == signature_q(quad, P0)


def test_unitary_matches_diagonal_sign_count():
    rng = random.Random(42)
    for delta in (-1, -5):
        alg = AlgebraWithInvolution(QQ, "unitary", 1, delta=delta)
        for _ in range(15):
            h = random_hermitian(alg, rng, rank=rng.randint(1, 3))
            assert raw_signature(h, P0) == sylvester_count_oracle(h, P0)


def test_quat_symp_division_matches_diagonal_sign_count():
    rng = random.Random(43)
    for (a, b) in ((-1, -1), (-2, -3)):
        alg = AlgebraWithInvolution(QQ, "quat_symp", 1, a=a, b=b)
        for _ in range(15):
            h = random_hermitian(alg, rng, rank=rng.randint(1, 3))
            assert raw_signature(h, P0) == sylvester_count_oracle(h, P0)


def test_quat_symp_split_oracle_zero():
    rng = random.Random(44)
    alg = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=2)
    for _ in range(10):
        h = random_hermitian(alg, rng, rank=rng.randint(1, 3))
        assert split_oracle_signature(h, P0) == 0
        # the trace form itself is hyperbolic, not only nil-graded to zero
        from hermsig.quadforms import GramQuadraticForm
        from hermsig.hermitian import _entry_trace_rows

        t = GramQuadraticForm(QQ, _entry_trace_rows(h))
        assert signature_q(t, P0) == 0


def test_quat_skew_split_oracle_agreement():
    # raw signatures equal the explicit Morita oracle up to one global sign
    # per ordering
    rng = random.Random(45)
    for b in (1, 3):
        alg = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=b)
        forms = [random_hermitian(alg, rng, rank=rng.randint(1, 3)) for _ in range(15)]
        k_ref = HermitianForm.diagonal(alg, [alg.scalar_element(alg.quat.k)])
        base = split_oracle_signature(k_ref, P0)
        raw = raw_signature(k_ref, P0)
        assert base != 0 and raw != 0 and abs(base) == abs(raw)
        eps = 1 if base == raw else -1
        for h in forms:
            assert split_oracle_signature(h, P0) == eps * raw_signature(h, P0)


def test_skew_pivot_norms_are_computed_once_per_form(monkeypatch):
    """The carrier reads Nrd of each pure pivot at every ordering; once the
    kernel exists, a total signature over the quintic field (five
    orderings) computes each pivot's norm at most once."""
    x = F5.gen
    alg = AlgebraWithInvolution(F5, "quat_skew", 1, a=-x, b=1 + x)
    i, j, k = alg.quat.i, alg.quat.j, alg.quat.k
    h = HermitianForm.diagonal(alg, [alg.scalar_element(q) for q in (i, j + k, k * x)])
    assert len(h._kernel.pivots) == 3
    want = total_signature_h(HermitianForm.diagonal(
        alg, [alg.scalar_element(q) for q in (i, j + k, k * x)]))
    calls = []
    nrd = FieldElement.nrd
    monkeypatch.setattr(FieldElement, "nrd", lambda q: calls.append(q) or nrd(q))
    assert total_signature_h(h) == want and total_signature_h(h) == want
    assert len(calls) <= 3


@pytest.mark.parametrize("params, pures, examined", [
    # j + k has Nrd 0 over (1, 1): the search passes it at the first two
    # steps and takes it last, as a nilpotent pivot
    ((1, 1), lambda q, x: (q.j + q.k, q.i, q.k * x), 5),
    ((-F5.gen, 1 + F5.gen), lambda q, x: (q.i, q.j + q.k, q.k * x), 3),
], ids=["nilpotent", "invertible"])
def test_skew_kernel_reads_each_pivot_norm_once(monkeypatch, params, pures, examined):
    """Building the kernel of a 3-pivot quat_skew form over the quintic and
    reading its pivot norms computes Nrd once per diagonal entry the pivot
    search examines: not again in the nilpotency test, in the pivot's
    inverse or for the carrier."""
    a, b = params
    alg = AlgebraWithInvolution(F5, "quat_skew", 1, a=a, b=b)
    h = HermitianForm.diagonal(
        alg, [alg.scalar_element(q) for q in pures(alg.quat, F5.gen)])
    reference_form(alg)  # the reference form's own kernel, built before counting
    calls = []
    nrd = FieldElement.nrd
    monkeypatch.setattr(FieldElement, "nrd", lambda q: calls.append(q) or nrd(q))
    kernel = h._kernel
    assert len(kernel.pivots) == 3 and len(kernel.norms) == 3
    assert [n.is_zero() for n in kernel.norms] == [False, False, examined == 5]
    total_signature_h(h)
    assert len(calls) == examined
    monkeypatch.undo()
    assert kernel.norms == tuple(q.nrd() for q in kernel.pivots)


def test_rank1_skew_signatures_are_even_with_max_two():
    alg = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    q = alg.quat
    vals = {}
    for name, pure in (("i", q.i), ("j", q.j), ("k", q.k)):
        h = HermitianForm.diagonal(alg, [alg.scalar_element(pure)])
        vals[name] = raw_signature(h, P0)
    assert vals["i"] == 0 and vals["j"] == 0 and abs(vals["k"]) == 2


def test_reference_forms():
    eta = reference_form(AlgebraWithInvolution(QQ, "split_orth", 2))
    assert eta.form.rank == 1
    assert eta.certificate[P0] == 2  # identity Gram

    eta = reference_form(HAMILTON1)
    assert eta.certificate[P0] == 1

    skew = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    eta = reference_form(skew)
    assert abs(eta.certificate[P0]) == 2
    entry = eta.form.gram[0][0]
    assert entry.trd().is_zero()

    for alg in (HAMILTON1, GAUSS, skew):
        eta = reference_form(alg)
        for p in alg.nonnil_orderings():
            assert signature(eta.form, p) > 0


def test_signature_axioms_on_samples():
    rng = random.Random(46)
    theta = SQRT2.gen
    algebras = [
        HAMILTON1,
        GAUSS,
        AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=theta - 2),
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=2, b=5),
    ]
    for alg in algebras:
        field = alg.field
        for _ in range(8):
            h1 = random_hermitian(alg, rng, rank=rng.randint(1, 2))
            h2 = random_hermitian(alg, rng, rank=rng.randint(1, 2))
            q = QuadraticForm(field, [field.element(rng.choice([1, -1, 2, -3]))])
            for p in field.orderings:
                s1, s2 = signature(h1, p), signature(h2, p)
                assert signature(perp(h1, h2), p) == s1 + s2
                assert signature(perp(h1, neg(h1)), p) == 0
                assert signature(scale_by_quadratic(q, h1), p) == \
                    signature_q(q, p) * s1


def test_congruence_invariance():
    rng = random.Random(47)
    for alg in (HAMILTON1, GAUSS, AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)):
        for _ in range(6):
            h = random_hermitian(alg, rng, rank=2)
            s = random_unit_upper(alg, rng, h.size)
            g = congruence(h, s)
            for p in alg.field.orderings:
                assert signature(g, p) == signature(h, p)


def test_morita_collapse_preserves_signature_table():
    rng = random.Random(48)
    for alg in (
        AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "split_orth", 2),
        AlgebraWithInvolution(SQRT2, "unitary", 2, delta=-1),
    ):
        eta_down = transport_reference(reference_form(alg), alg.collapsed()).form
        for _ in range(5):
            h = random_hermitian(alg, rng, rank=2)
            down = morita_collapse(h)
            assert down.rank == h.rank * alg.n
            for p in alg.field.orderings:
                assert signature(h, p) == signature_by(down, p, eta_down)
            back = morita_expand(down, alg.n)
            assert back.gram == h.gram


def test_torsion_examples():
    h = HermitianForm.diagonal(HAMILTON1, [1])
    assert not torsion_test_h(h)
    assert torsion_test_h(perp(h, neg(h)))
    assert torsion_test_h(HermitianForm.diagonal(HAMILTON1, [1, -2]))


def test_going_up_preserves_signatures():
    h = HermitianForm.diagonal(HAMILTON1, [1, -2, 3])
    up = going_up(h, SQRT2)
    eta_up = going_up(reference_form(HAMILTON1).form, SQRT2)
    base = signature(h, P0)
    for q in SQRT2.orderings:
        assert signature_by(up, q, eta_up) == base


def test_scharlau_transfer_and_knebusch():
    # <1> over Hamilton tensor Q(sqrt2): both orderings give 1, transfer side 2
    h = going_up(HermitianForm.diagonal(HAMILTON1, [1]), SQRT2)
    report = knebusch_check(h)
    assert report.holds and report.sum_side == 2

    # <sqrt2>: transfer side 0 = (+1) + (-1)
    theta = SQRT2.gen
    alg_up = h.algebra
    h2 = HermitianForm.diagonal(alg_up, [theta])
    report = knebusch_check(h2)
    assert report.holds and report.sum_side == 0

    # degenerate tower L = Q: the formula reduces to the identity
    h3 = HermitianForm.diagonal(HAMILTON1, [1, -2])
    transferred = scharlau_transfer(h3)
    assert signature(transferred, P0) == signature(h3, P0)


def test_knebusch_random_forms_over_towers():
    rng = random.Random(49)
    for coeffs in ([-2, 0, 1], [-3, 0, 1], [-2, 0, 0, 1]):
        ext = NumberField(coeffs)
        base = going_up_target = going_up(HermitianForm.diagonal(HAMILTON1, [1]), ext).algebra
        for _ in range(4):
            h = random_hermitian(base, rng, rank=rng.randint(1, 2))
            assert knebusch_check(h).holds
        rat = AlgebraWithInvolution(ext, "split_orth", 1)
        for _ in range(4):
            h = random_hermitian(rat, rng, rank=rng.randint(1, 3))
            assert knebusch_check(h).holds


def test_sylvester_decompose_examples():
    dec = sylvester_decompose(HermitianForm.diagonal(HAMILTON1, [1, -2, 3]),
                              PositiveCone(HAMILTON1, P0, 1))
    assert (len(dec.positive), len(dec.negative)) == (2, 1)
    assert dec.value == 1

    dec = sylvester_decompose(HermitianForm.diagonal(RAT, [1, -2]),
                              PositiveCone(RAT, P0, 1))
    assert (len(dec.positive), len(dec.negative)) == (1, 1)
    assert dec.value == 0

    dec = sylvester_decompose(HermitianForm.diagonal(GAUSS, [1, -2]),
                              PositiveCone(GAUSS, P0, 1))
    assert (len(dec.positive), len(dec.negative)) == (1, 1)
    assert dec.value == 0


def test_sylvester_decompose_agrees_with_signature():
    rng = random.Random(50)
    for alg in (HAMILTON1, GAUSS, RAT):
        for _ in range(8):
            h = random_hermitian(alg, rng, rank=rng.randint(1, 3))
            for eps in (1, -1):
                dec = sylvester_decompose(h, PositiveCone(alg, P0, eps))
                assert dec.value == eps * signature(h, P0)


def test_sylvester_decompose_scope_errors():
    skew = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    with pytest.raises(UnsupportedError):
        sylvester_decompose(HermitianForm.diagonal(skew, [skew.scalar_element(skew.quat.k)]),
                            PositiveCone(skew, P0, 1))
    big = AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1)
    with pytest.raises(UnsupportedError):
        sylvester_decompose(HermitianForm.diagonal(big, [big.one_element]),
                            PositiveCone(big, P0, 1))


def test_unit_form_shapes():
    assert unit_form(HAMILTON1).rank == 1
    skew = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    u = unit_form(skew)
    assert u.gram[0][0].trd().is_zero()


def test_degenerate_forms_use_nondegenerate_part():
    so2 = AlgebraWithInvolution(QQ, "split_orth", 2)
    h = HermitianForm(so2, [[1, 1], [1, 1]])
    assert raw_signature(h, P0) == 1
    pivots, radical = hermitian_diagonalize(h)
    assert len(pivots) == 1 and radical == 1


def test_signature_bounded_by_rank_times_max():
    from hermsig.hermitian import rank1_max_signature

    rng = random.Random(51)
    for alg in (HAMILTON1, GAUSS, AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)):
        for _ in range(10):
            h = random_hermitian(alg, rng, rank=rng.randint(1, 3))
            for p in alg.field.orderings:
                assert abs(signature(h, p)) <= h.rank * rank1_max_signature(alg, p)


def test_unitary_with_irrational_delta():
    theta = SQRT2.gen
    alg = AlgebraWithInvolution(SQRT2, "unitary", 1, delta=theta - 3)
    # theta - 3 is negative at both orderings: no nil orderings
    assert alg.nil_orderings() == []
    rng = random.Random(52)
    for _ in range(6):
        h = random_hermitian(alg, rng, rank=2)
        for p in SQRT2.orderings:
            assert signature(h, p) == -signature(neg(h), p)
    one = HermitianForm.diagonal(alg, [1])
    assert all(signature(one, p) == 1 for p in SQRT2.orderings)


def test_morita_collapse_quat_skew():
    rng = random.Random(53)
    alg = AlgebraWithInvolution(QQ, "quat_skew", 2, a=1, b=1)
    eta_down = transport_reference(reference_form(alg), alg.collapsed()).form
    for _ in range(4):
        h = random_hermitian(alg, rng, rank=1)
        down = morita_collapse(h)
        for p in QQ.orderings:
            assert signature(h, p) == signature_by(down, p, eta_down)


def test_knebusch_for_quat_skew_tower():
    rng = random.Random(54)
    base = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    up_alg = going_up(HermitianForm.diagonal(
        base, [base.scalar_element(base.quat.k)]), SQRT2).algebra
    for _ in range(5):
        h = random_hermitian(up_alg, rng, rank=rng.randint(1, 2))
        assert knebusch_check(h).holds


def test_unitary_nil_nonnil_split():
    theta = SQRT2.gen
    alg = AlgebraWithInvolution(SQRT2, "unitary", 1, delta=theta)
    nil = alg.nil_orderings()
    assert len(nil) == 1 and nil[0].index == 1  # theta > 0 there
    rng = random.Random(55)
    p_nil = nil[0]
    p_live = alg.nonnil_orderings()[0]
    saw_nonzero = False
    for _ in range(8):
        h = random_hermitian(alg, rng, rank=rng.randint(1, 2))
        assert signature(h, p_nil) == 0
        saw_nonzero = saw_nonzero or signature(h, p_live) != 0
    assert saw_nonzero


def test_morita_expand_direction_with_reference_transport():
    rng = random.Random(56)
    down = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
    up = AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1)
    eta_down = reference_form(down)
    h = random_hermitian(down, rng, rank=4)  # rank divisible by 2
    expanded = morita_expand(h, 2)
    assert expanded.algebra == up
    eta_up_via_expand = transport_reference(
        ReferenceForm(HermitianForm.diagonal(down, [1, 1]),
                      {p: raw_signature(HermitianForm.diagonal(down, [1, 1]), p)
                       for p in down.nonnil_orderings()}), up)
    for p in QQ.orderings:
        assert signature_by(expanded, p, eta_up_via_expand.form) == \
            signature_by(h, p, transport_reference(eta_up_via_expand, down).form)


def test_knebusch_for_division_quat_skew():
    # (2,5)_Q is a division algebra split at the real place; the transfer
    # formula cross-checks the per-ordering twist carrier against the
    # quadratic transfer machinery
    rng = random.Random(57)
    base = AlgebraWithInvolution(QQ, "quat_skew", 1, a=2, b=5)
    eta = reference_form(base)
    assert abs(eta.certificate[QQ.orderings[0]]) == 2
    for coeffs in ([-2, 0, 1], [-3, 0, 1]):
        ext = NumberField(coeffs)
        up_alg = going_up(eta.form, ext).algebra
        for _ in range(5):
            h = random_hermitian(up_alg, rng, rank=rng.randint(1, 2))
            assert knebusch_check(h).holds


# ---------------------------------------------------------------------------
# One reference form per algebra: the Morita and going-up transports of the
# reference form have its signs, so the cone, Morita and transfer layers
# read `reference_form` of each algebra.


def test_collapsed_reference_has_the_signs_of_the_transported_one():
    """reference_form(M_n(D) collapsed) has the certificate signs of the
    reference form of M_n(D) transported to D (`transport_reference`), whose
    raw signatures are n times its own: every family at n = 2 and 3 over
    four fields, quat_skew (1, x) and quat_symp (-1, x) included."""
    cases = 0
    for field in (QQ, SQRT2, CBRT2, F5):
        params = [("split_orth", {}), ("unitary", {"delta": -1}),
                  ("quat_symp", {"a": -1, "b": -1}), ("quat_symp", {"a": 1, "b": 1}),
                  ("quat_skew", {"a": 1, "b": 1}), ("quat_skew", {"a": -1, "b": 1})]
        if field.degree > 1:
            params += [("quat_symp", {"a": -1, "b": field.gen}),
                       ("quat_skew", {"a": 1, "b": field.gen})]
        for n in (2, 3):
            for family, kw in params:
                alg = AlgebraWithInvolution(field, family, n, **kw)
                down = alg.collapsed()
                moved = transport_reference(reference_form(alg), down)
                own = reference_form(down).certificate
                assert moved.certificate == {p: n * v for p, v in own.items()}, alg
                cases += 1
    assert cases == 60


def test_lifted_reference_is_the_reference_gone_up():
    """reference_form(going_up_algebra(A, L)) is the reference form of A gone
    up to L, with the raw signatures of the lifted form as its certificate:
    every family at n = 1, 2 and 3 over Q, lifted to four fields."""
    cases = 0
    for ext in (SQRT2, SQRT3, CBRT2, F5):
        for family, kw in [("split_orth", {}), ("unitary", {"delta": -1}),
                           ("quat_symp", {"a": -1, "b": -1}), ("quat_symp", {"a": 1, "b": 1}),
                           ("quat_skew", {"a": 1, "b": 1}), ("quat_skew", {"a": 2, "b": 5}),
                           ("quat_skew", {"a": -1, "b": 1})]:
            for n in (1, 2, 3):
                base = AlgebraWithInvolution(QQ, family, n, **kw)
                lifted = going_up(reference_form(base).form, ext)
                own = reference_form(going_up_algebra(base, ext))
                assert own.form == lifted, (base, ext)
                assert own.certificate == {q: raw_signature(lifted, q)
                                           for q in lifted.algebra.nonnil_orderings()}
                cases += 1
    assert cases == 84


# ---------------------------------------------------------------------------
# The congruence kernel on entry Grams against the trace-form oracle.


def _kernel_algebras():
    out = []
    for field in (SQRT2, F5):
        x = field.gen
        # unitary over F5 needs a rational delta (squareness is decided for
        # rational values only); delta = 2 and the parameters with x are
        # nil at some or all orderings
        deltas = (-1, x - 3, x) if field is SQRT2 else (-1, -3, 2)
        for n in (1, 2):
            out.append(AlgebraWithInvolution(field, "split_orth", n))
            out += [AlgebraWithInvolution(field, "unitary", n, delta=d) for d in deltas]
            out += [AlgebraWithInvolution(field, "quat_symp", n, a=a, b=b)
                    for a, b in ((-1, -1), (-1, x), (x - 3, -2))]
    return out


KERNEL_ALGEBRAS = _kernel_algebras()


@st.composite
def _kernel_case(draw):
    """A hermitian Gram over a split_orth, unitary or quat_symp member over
    Q(sqrt 2) or F5 (n = 1, 2): random, with an all-zero diagonal (which
    forces the hyperbolic step), or C* D C of lower rank (dependent rows)."""
    alg = draw(st.sampled_from(KERNEL_ALGEBRAS))
    field, ring, ed = alg.field, alg.ring, alg.entry_dim
    s = draw(st.integers(1, 2)) * alg.n

    def scalar():
        # a + b x^e: small, but not confined to Q
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        return field.element(a) + field.gen ** draw(st.integers(0, field.degree - 1)) * b

    def entry():
        return ring.from_coords([scalar() for _ in range(ed)]) if ed > 1 else scalar()

    kind = draw(st.sampled_from(["random", "zero_diagonal", "dependent"]))
    if kind == "dependent":
        r = draw(st.integers(0, s - 1))
        c = [[entry() for _ in range(s)] for _ in range(r)]
        d = [scalar() for _ in range(r)]
        zero = alg.ring.zero
        gram = [[zero] * s for _ in range(s)]
        for i in range(s):
            for j in range(s):
                for t in range(r):
                    gram[i][j] = gram[i][j] + c[t][i].conj() * d[t] * c[t][j]
    else:
        raw = [[entry() for _ in range(s)] for _ in range(s)]
        gram = [[raw[i][j] + raw[j][i].conj() for j in range(s)] for i in range(s)]
        if kind == "zero_diagonal":
            for i in range(s):
                gram[i][i] = alg.ring.zero
    return HermitianForm(alg, gram)


@settings(max_examples=200, deadline=None)
@given(_kernel_case())
def test_kernel_matches_trace_form_oracle(h):
    from hermsig.field import sign_at
    from hermsig.hermitian import _entry_trace_rows
    from hermsig.quadforms import GramQuadraticForm, diagonalize
    from test_quadforms import full_matrix_diagonalize

    alg = h.algebra
    dec = diagonalize(h, with_transform=True)
    pivots = list(dec.form.entries)
    assert dec.radical_dim == h.size - len(pivots)
    trace = diagonalize(GramQuadraticForm(alg.field, _entry_trace_rows(h)))
    assert trace.radical_dim == alg.entry_dim * dec.radical_dim
    div = alg.spec.trace_divisor
    for p in alg.nonnil_orderings():
        total = sum(sign_at(d, p) for d in trace.form.entries)
        assert total % div == 0
        assert sum(sign_at(d, p) for d in pivots) == total // div == raw_signature(h, p)

    # S* G S = diag(pivots, 0, ..., 0)
    s_rows, g, k = dec.transform, h.gram, h.size
    for i in range(k):
        for j in range(k):
            acc = alg.ring.zero
            for r in range(k):
                for c in range(k):
                    acc = acc + s_rows[r][i].conj() * g[r][c] * s_rows[c][j]
            assert acc == (pivots[i] if i == j and i < len(pivots) else 0)

    if alg.entry_dim == 1:
        want_diag, want_radical, want_s = full_matrix_diagonalize(h)
        assert (pivots, dec.radical_dim) == (want_diag, want_radical)
        assert list(dec.transform) == want_s
        assert diagonalize(h).form.entries == dec.form.entries
    else:
        # the same pivots as the full-matrix hermitian reduction, which the
        # decompose command used to render
        assert (pivots, dec.radical_dim) == hermitian_diagonalize(h)


def _skew_algebras():
    out = []
    for field in (SQRT2, F5):
        x = field.gen
        for n in (1, 2):
            out += [AlgebraWithInvolution(field, "quat_skew", n, a=a, b=b)
                    for a, b in ((1, 1), (1, x), (x, x - 1))]
    return out


SKEW_ALGEBRAS = _skew_algebras()
SKEW_KINDS = ("random", "nilpotent_diagonal", "annihilated", "shear_trap",
              "zero_diagonal", "dependent")


@st.composite
def _skew_case(draw):
    """A skew-hermitian Gram over quat_skew (1, 1), (1, x) or (x, x - 1) over
    Q(sqrt 2) or F5 (n = 1, 2).  In the split members (a = 1) the diagonal
    can be made of pure q with Nrd(q) = 0, g (j + k) conj(g): with rows in qD
    ("annihilated", the generalized inverse), with a first step whose
    t = 1 gives a nilpotent m_pp ("shear_trap"), or random.  Also: an
    all-zero diagonal (the hyperbolic step) and C* D C of lower rank."""
    alg = draw(st.sampled_from(SKEW_ALGEBRAS))
    field, ring, quat = alg.field, alg.ring, alg.quat
    split = quat.a == field.one
    kinds = SKEW_KINDS if split else ("random", "zero_diagonal", "dependent")
    kind = draw(st.sampled_from(kinds))
    s = 2 * alg.n if kind == "shear_trap" else draw(st.integers(1, 2)) * alg.n

    def scalar():
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        return field.element(a) + field.gen ** draw(st.integers(0, field.degree - 1)) * b

    def entry():
        return ring.from_coords([scalar() for _ in range(4)])

    def pure():
        return ring.from_coords([field.zero] + [scalar() for _ in range(3)])

    def nilpotent():
        q = quat.j + quat.k
        g = entry()
        return (g * q * g.conj() if not g.nrd().is_zero() else q) * draw(st.sampled_from(
            (1, -2, field.gen)))

    zero = alg.ring.zero
    if kind == "dependent":
        r = draw(st.integers(0, s - 1))
        c = [[entry() for _ in range(s)] for _ in range(r)]
        d = [nilpotent() if split and draw(st.booleans()) else pure() for _ in range(r)]
        gram = [[zero] * s for _ in range(s)]
        for i in range(s):
            for j in range(s):
                for t in range(r):
                    gram[i][j] = gram[i][j] + c[t][i].conj() * d[t] * c[t][j]
        return HermitianForm(alg, gram)
    raw = [[entry() for _ in range(s)] for _ in range(s)]
    gram = [[raw[i][j] - raw[j][i].conj() for j in range(s)] for i in range(s)]
    if kind == "zero_diagonal":
        for i in range(s):
            gram[i][i] = zero
    elif kind == "nilpotent_diagonal":
        for i in range(s):
            gram[i][i] = nilpotent()
    elif kind == "annihilated":
        q = nilpotent()
        gram[0][0] = q
        for r in range(1, s):
            y = q * entry()
            gram[0][r] = q if y.is_zero() else y
            gram[r][0] = -gram[0][r].conj()
            gram[r][r] = nilpotent()
    elif kind == "shear_trap":
        # diag(q, 0) with m_01 = c + (z - q)/2, Trd(q z) != 0: the first
        # shear e_0 <- e_0 + e_1 t (mu = 1) gives m_00 = z at t = 1
        q, z = nilpotent(), nilpotent()
        gram = [[zero] * s for _ in range(s)]
        gram[0][0] = q
        gram[0][1] = scalar() + (z - q) * field.element(Fraction(1, 2))
        gram[1][0] = -gram[0][1].conj()
    return HermitianForm(alg, gram)


def _first_step(h) -> str:
    """The kernel's first step on h, read off its Gram."""
    g, k = h.gram, h.size
    diag = [g[i][i] for i in range(k)]
    if any(not d.nrd().is_zero() for d in diag):
        return "invertible"
    p = next((i for i, d in enumerate(diag) if not d.is_zero()), None)
    if p is None:
        return "hyperbolic" if any(not v.is_zero() for row in g for v in row) else "zero"
    if all((diag[p] * g[p][r]).is_zero() for r in range(k) if r != p):
        return "generalized_inverse"
    return "shear"


def test_skew_kernel_matches_twisted_trace_oracle():
    """The pure-quaternion pivots of a skew Gram against the twisted trace
    form: signatures at every ordering, nondegeneracy and Witt rank, the
    congruence S* G S = diag(pivots, 0), cone membership of rank-1 forms,
    and the split oracle where a = 1.  Each skew-only branch of the kernel
    is reached."""
    from hermsig.algebras import AlgebraElement
    from hermsig.cones import enumerate_positive_cones
    from hermsig.field import sign_at
    from hermsig.hermitian import witt_rank
    from witt_helpers import is_nondegenerate
    from hermsig.quadforms import diagonalize
    from trace_oracle import trace_carrier, trace_rank, trace_signature

    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(_skew_case())
    def check(h):
        alg, k = h.algebra, h.size
        seen.add(_first_step(h))
        for p in alg.field.orderings:
            assert raw_signature(h, p) == trace_signature(h, p)

        rank = trace_rank(h)
        assert is_nondegenerate(h) == (rank == 4 * k)
        width = 4 * alg.n
        if rank % width:
            with pytest.raises(InvariantError):
                witt_rank(h)
        else:
            assert witt_rank(h) == rank // width

        dec = diagonalize(h, with_transform=True)
        pivots, s_rows, g = dec.pivots, dec.transform, h.gram
        assert all(q.trd().is_zero() and not q.is_zero() for q in pivots)
        assert dec.radical_dim == k - len(pivots)
        for i in range(k):
            for j in range(k):
                acc = alg.ring.zero
                for r in range(k):
                    for c in range(k):
                        acc = acc + s_rows[r][i].conj() * g[r][c] * s_rows[c][j]
                assert acc == (pivots[i] if i == j and i < len(pivots) else 0)

        if k == alg.n:
            x = AlgebraElement(alg, g)
            for cone in enumerate_positive_cones(alg):
                side, p = cone._side, cone.ordering
                values, _ = trace_carrier(h, p)
                assert cone.contains(x) == all(side * sign_at(d, p) >= 0 for d in values)

        if alg.quat.a == alg.field.one:
            for p in alg.nonnil_orderings():
                twist = HermitianForm.diagonal(alg, [alg.scalar_element(alg.twist_at(p))])
                base, raw = split_oracle_signature(twist, p), raw_signature(twist, p)
                assert abs(base) == abs(raw) == 2 * alg.n
                eps = base // raw
                assert split_oracle_signature(h, p) == eps * raw_signature(h, p)

    check()
    assert {"generalized_inverse", "shear", "hyperbolic"} <= seen


@pytest.mark.parametrize("field", [SQRT2, F5], ids=["sqrt2", "quintic"])
@pytest.mark.parametrize("a, b", [("1", "x"), ("x", "1"), ("x", "-x"), ("-x", "1"),
                                  ("-x", "1+x"), ("1+x", "-x")])
def test_quat_skew_rank2_reference_forms(field, a, b):
    """quat_skew at n = 1 whose twist changes between orderings has no rank-1
    reference form; the constructed one is the diagonal of the distinct
    twists, and `reference-form`, `total-sign` and `cones` run on it.  Over
    F5, (-x, 1+x) and (1+x, -x) have all of i, j, k as twists, and had no
    reference form before it was constructed."""
    import json

    from hermsig.cli import run_session
    from hermsig.session import parse_session, render_entry

    doc = {"field": {"min_poly": [str(c) for c in field.min_poly]},
           "algebras": [{"name": "s", "family": "quat_skew", "a": a, "b": b}],
           "forms": [{"name": "h", "algebra": "s",
                      "diag": [["0", "1", "0", "0"], ["0", "0", "x", "1"]]}],
           "commands": [{"op": "reference-form", "algebra": "s"},
                        {"op": "total-sign", "form": "h"},
                        {"op": "cones", "algebra": "s"}]}
    parsed = parse_session(json.dumps(doc))
    alg = parsed.algebras["s"]
    records = run_session(parsed).records
    assert [r["status"] for r in records] == ["ok"] * 3
    ref, total, cones = (r["result"] for r in records)
    nonnil = alg.nonnil_orderings()
    twists = {alg.twist_at(p) for p in nonnil}
    assert len(twists) == (3 if field is F5 and "1+x" in (a, b) else 2)
    quat = alg.quat
    assert ref["diagonal"] == [[[render_entry(t, "x")]]
                               for t in (quat.i, quat.j, quat.k) if t in twists]
    assert [i for i, _ in ref["certificate"]] == [p.index for p in nonnil]
    assert all(s != 0 for _, s in ref["certificate"])
    # the table is the raw signature normalized by the reference's sign
    eta = reference_form(alg)
    h = parsed.forms["h"]
    assert total == [[p.index, signature(h, p)] for p in field.orderings]
    for p in nonnil:
        assert signature(eta.form, p) == abs(eta.certificate[p]) > 0
        assert abs(signature(h, p)) == abs(raw_signature(h, p))
    assert cones["count"] == 2 * len(nonnil)


def test_quat_skew_reference_signs_agree_with_the_collapsed_member():
    """Over Q(sqrt 2), every quat_skew (a, b) with a, b in 1, -1, x, -x, 1+x,
    -1-x has, at n = 2, the certificate signs of its n = 1 member, so
    signatures keep their sign convention under Morita collapse."""
    x, one = SQRT2.gen, SQRT2.one
    values = (one, -one, x, -x, one + x, -one - x)
    differ = []
    for a in values:
        for b in values:
            alg = AlgebraWithInvolution(SQRT2, "quat_skew", 2, a=a, b=b)
            signs = [{p: s > 0 for p, s in reference_form(m).certificate.items()}
                     for m in (alg, alg.collapsed())]
            if signs[0] != signs[1]:
                differ.append((a, b))
    assert differ == []


def test_reference_form_rejects_a_zero_certificate_entry():
    eta = reference_form(HAMILTON1)
    with pytest.raises(InvariantError, match="must be nonzero"):
        ReferenceForm(eta.form, {P0: 0})
    with pytest.raises(InvariantError, match="must be nonzero"):
        ReferenceForm(form=eta.form, certificate={P0: 0})
    assert ReferenceForm(eta.form, eta.certificate).certificate is eta.certificate
    # the record takes its fields by name too (it left hermsig.__all__)
    named = ReferenceForm(form=eta.form, certificate=eta.certificate)
    assert named.form is eta.form and named.certificate is eta.certificate
