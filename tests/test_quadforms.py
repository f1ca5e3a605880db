import random
from fractions import Fraction

import pytest

from hermsig.field import QQ, NumberField, sign_at
from hermsig.quadforms import (
    GramQuadraticForm,
    QuadraticForm,
    diagonalize,
    harrison_set,
    signature_q,
    total_signature_q,
)
from witt_helpers import (
    knebusch_identity_holds,
    pfister,
    torsion_test_q,
    transfer,
    witt_sum,
    witt_tensor,
)

SQRT2 = NumberField([-2, 0, 1])


def congruence_apply(gram, s):
    """S^t G S computed directly, as an independent check."""
    field = gram.field
    k = gram.size
    rows = [[field.zero for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            acc = field.zero
            for r in range(k):
                for c in range(k):
                    acc = acc + s[r][i] * gram.rows[r][c] * s[c][j]
            rows[i][j] = acc
    return rows


def test_hyperbolic_block_rule():
    g = GramQuadraticForm(QQ, [[0, 1], [1, 0]])
    d = diagonalize(g, with_transform=True)
    assert [e.as_fraction() for e in d.form.entries] == [1, -1]
    assert d.radical_dim == 0
    # verify the congruence witness
    out = congruence_apply(g, d.transform)
    assert out[0][0] == 1 and out[1][1] == -1
    assert out[0][1].is_zero() and out[1][0].is_zero()


def test_identity_and_schur_complement():
    g = GramQuadraticForm(QQ, [[1, 0], [0, 1]])
    assert [e.as_fraction() for e in diagonalize(g).form.entries] == [1, 1]
    g = GramQuadraticForm(QQ, [[2, 1], [1, 2]])
    assert [e.as_fraction() for e in diagonalize(g).form.entries] == [2, Fraction(3, 2)]


def test_degenerate_gram_reports_radical():
    g = GramQuadraticForm(QQ, [[1, 1], [1, 1]])
    d = diagonalize(g)
    assert d.form.rank == 1
    assert d.radical_dim == 1


def test_asymmetric_gram_rejected():
    with pytest.raises(ValueError):
        GramQuadraticForm(QQ, [[1, 2], [3, 4]])


def test_diagonalize_transform_is_congruence_witness():
    rng = random.Random(11)
    for _ in range(10):
        k = rng.randint(1, 4)
        entries = [[Fraction(rng.randint(-5, 5)) for _ in range(k)] for _ in range(k)]
        rows = [[entries[i][j] + entries[j][i] for j in range(k)] for i in range(k)]
        g = GramQuadraticForm(QQ, rows)
        d = diagonalize(g, with_transform=True)
        out = congruence_apply(g, d.transform)
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert out[i][j].is_zero()
        nonzero = [out[i][i] for i in range(k) if not out[i][i].is_zero()]
        assert len(nonzero) == d.form.rank


def full_matrix_diagonalize(gram):
    """Reference elimination: the full-matrix loop that always tracks S.

    Same pivot rule and hyperbolic step as `diagonalize`, applied as column
    operations mirrored on rows of the whole k x k matrix.  Returns the
    pivots, the radical dimension and S."""
    field = gram.field
    k = gram.size
    m = [list(row) for row in gram.rows]
    s = [[field.one if i == j else field.zero for j in range(k)] for i in range(k)]

    def col_op(dst, src, c):
        for r in range(k):
            m[r][dst] = m[r][dst] + c * m[r][src]
        for r in range(k):
            m[dst][r] = m[dst][r] + c * m[src][r]
        for r in range(k):
            s[r][dst] = s[r][dst] + c * s[r][src]

    def col_swap(i, j):
        for r in range(k):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(k):
            s[r][i], s[r][j] = s[r][j], s[r][i]

    diag = []
    for p in range(k):
        pivot = next((i for i in range(p, k) if not m[i][i].is_zero()), None)
        if pivot is None:
            off = next(((i, j) for i in range(p, k) for j in range(i + 1, k)
                        if not m[i][j].is_zero()), None)
            if off is None:
                break
            i, j = off
            if i != p:
                col_swap(p, i)
            half = field.element(Fraction(1, 2))
            for r in range(k):
                cp, cj = m[r][p], m[r][j]
                m[r][p], m[r][j] = cp + half * cj, cp - half * cj
            mp, mj = m[p], m[j]
            m[p] = [a + half * b for a, b in zip(mp, mj)]
            m[j] = [a - half * b for a, b in zip(mp, mj)]
            for r in range(k):
                cp, cj = s[r][p], s[r][j]
                s[r][p], s[r][j] = cp + half * cj, cp - half * cj
            pivot = p
        if pivot != p:
            col_swap(p, pivot)
        inv = m[p][p].inverse()
        for r in range(p + 1, k):
            if not m[p][r].is_zero():
                col_op(r, p, -(m[p][r] * inv))
        diag.append(m[p][p])
    return diag, k - len(diag), [tuple(row) for row in s]


F5 = NumberField([1, 3, -3, -4, 1, 1])


def _random_element(rng, field):
    return field.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          if rng.random() < 0.7 else 0 for _ in range(field.degree)])


def _singular_gram(rng, field, k):
    """A^t diag(w) A for a random r x k matrix A with r < k."""
    r = rng.randint(1, k - 1)
    a = [[_random_element(rng, field) for _ in range(k)] for _ in range(r)]
    w = [_random_element(rng, field) for _ in range(r)]
    return [[sum((a[t][i] * w[t] * a[t][j] for t in range(r)), field.zero)
             for j in range(k)] for i in range(k)]


def _zero_diagonal_gram(rng, field, k):
    """Zero diagonal, so the first pivot is hyperbolic; a zero first row
    makes it start with a swap."""
    rows = [[field.zero] * k for _ in range(k)]
    first = rng.random() < 0.5
    for i in range(k):
        for j in range(i + 1, k):
            if (i > 0 or first) and rng.random() < 0.6:
                rows[i][j] = rows[j][i] = _random_element(rng, field)
    return rows


def test_diagonalize_matches_full_matrix_reference():
    rng = random.Random(5)
    cases = 0
    for field in (QQ, SQRT2, F5):
        for _ in range(12):
            k = rng.randint(2, 6)
            for rows in (_singular_gram(rng, field, k), _zero_diagonal_gram(rng, field, k)):
                g = GramQuadraticForm(field, rows)
                want_diag, want_radical, want_s = full_matrix_diagonalize(g)
                plain = diagonalize(g)
                witnessed = diagonalize(g, with_transform=True)
                assert plain.transform is None
                for d in (plain, witnessed):
                    assert list(d.form.entries) == want_diag
                    assert d.radical_dim == want_radical
                assert list(witnessed.transform) == want_s
                cases += 1
    assert cases == 72


def test_signature_examples():
    p0 = QQ.orderings[0]
    assert signature_q(QuadraticForm(QQ, [1, 1, -3]), p0) == 1
    assert signature_q(QuadraticForm(QQ, []), p0) == 0
    neg, pos = SQRT2.orderings
    theta = SQRT2.gen
    assert signature_q(QuadraticForm(SQRT2, [theta]), neg) == -1
    assert signature_q(QuadraticForm(SQRT2, [theta]), pos) == 1


def test_sylvester_law_signature_invariant_under_congruence():
    rng = random.Random(23)
    p0 = QQ.orderings[0]
    base = GramQuadraticForm(QQ, [[2, 1, 0], [1, -3, 1], [0, 1, 5]])
    sig = signature_q(base, p0)
    for _ in range(10):
        while True:
            s = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            det = (
                s[0][0] * (s[1][1] * s[2][2] - s[1][2] * s[2][1])
                - s[0][1] * (s[1][0] * s[2][2] - s[1][2] * s[2][0])
                + s[0][2] * (s[1][0] * s[2][1] - s[1][1] * s[2][0])
            )
            if det != 0:
                break
        rows = congruence_apply(base, [[QQ.element(v) for v in row] for row in s])
        assert signature_q(GramQuadraticForm(QQ, rows), p0) == sig


def test_pfister_forms():
    theta = SQRT2.gen
    assert [e.as_fraction() for e in pfister(QQ, [5]).entries] == [1, 5]
    assert [e.as_fraction() for e in pfister(QQ, [1, 1]).entries] == [1, 1, 1, 1]
    assert [e.as_fraction() for e in pfister(QQ, [2, 3]).entries] == [1, 2, 3, 6]
    f = pfister(SQRT2, [theta])
    assert f.entries == (SQRT2.one, theta)
    with pytest.raises(ValueError):
        pfister(QQ, [0])


def test_harrison_sets():
    theta = SQRT2.gen
    assert harrison_set(SQRT2, []) == list(SQRT2.orderings)
    pos = [p for p in SQRT2.orderings if sign_at(theta, p) > 0]
    assert harrison_set(SQRT2, [theta]) == pos
    assert harrison_set(SQRT2, [-SQRT2.one]) == []


def test_torsion_tests():
    assert torsion_test_q(QuadraticForm(QQ, [1, -2]))
    assert not torsion_test_q(QuadraticForm(QQ, [1]))
    theta = SQRT2.gen
    assert torsion_test_q(QuadraticForm(SQRT2, [theta, -theta]))
    assert not torsion_test_q(QuadraticForm(SQRT2, [theta]))


def test_witt_sum_and_tensor():
    f = QuadraticForm(QQ, [1])
    g = QuadraticForm(QQ, [-1])
    assert witt_sum(f, g).rank == 0
    t = witt_tensor(QuadraticForm(QQ, [1, 2]), QuadraticForm(QQ, [3]))
    assert [e.as_fraction() for e in t.entries] == [3, 6]
    prod = witt_tensor(QuadraticForm(QQ, [1, 1]), QuadraticForm(QQ, [1, -1]))
    assert all(v == 0 for _, v in total_signature_q(prod)) if prod.rank else True
    # signature multiplicativity even after cancellation
    p0 = QQ.orderings[0]
    assert signature_q(prod, p0) == 0 if prod.rank else True


def test_signature_additive_and_multiplicative_on_samples():
    rng = random.Random(5)
    for _ in range(25):
        f = QuadraticForm(SQRT2, [_random_nonzero(rng) for _ in range(rng.randint(1, 3))])
        g = QuadraticForm(SQRT2, [_random_nonzero(rng) for _ in range(rng.randint(1, 3))])
        for p in SQRT2.orderings:
            assert signature_q(witt_sum(f, g), p) == signature_q(f, p) + signature_q(g, p)
            assert signature_q(witt_tensor(f, g), p) == signature_q(f, p) * signature_q(g, p)


def _random_nonzero(rng):
    while True:
        e = SQRT2.element([rng.randint(-5, 5), rng.randint(-5, 5)])
        if not e.is_zero():
            return e


def test_transfer_frozen_examples():
    one_form = QuadraticForm(SQRT2, [1])
    g = transfer(one_form)
    assert [[v.as_fraction() for v in row] for row in g.rows] == [[2, 0], [0, 4]]
    assert signature_q(g, QQ.orderings[0]) == 2

    theta_form = QuadraticForm(SQRT2, [SQRT2.gen])
    g = transfer(theta_form)
    assert [[v.as_fraction() for v in row] for row in g.rows] == [[0, 4], [4, 0]]
    assert signature_q(g, QQ.orderings[0]) == 0

    rational = transfer(QuadraticForm(QQ, [1]))
    assert [[v.as_fraction() for v in row] for row in rational.rows] == [[1]]


def test_knebusch_identity_on_random_forms():
    rng = random.Random(31)
    fields = [SQRT2, NumberField([-3, 0, 1]), NumberField([-2, 0, 0, 1])]
    for field in fields:
        for _ in range(8):
            entries = []
            for _ in range(rng.randint(1, 3)):
                while True:
                    e = field.element([rng.randint(-4, 4) for _ in range(field.degree)])
                    if not e.is_zero():
                        entries.append(e)
                        break
            assert knebusch_identity_holds(QuadraticForm(field, entries))


def test_rank_parity_bound():
    rng = random.Random(3)
    for _ in range(20):
        f = QuadraticForm(SQRT2, [_random_nonzero(rng) for _ in range(rng.randint(1, 4))])
        for p in SQRT2.orderings:
            s = signature_q(f, p)
            assert abs(s) <= f.rank
            assert (s - f.rank) % 2 == 0


def test_torsion_of_hyperbolic_doubles_sampled():
    rng = random.Random(77)
    for _ in range(15):
        entries = [_random_nonzero(rng) for _ in range(rng.randint(1, 3))]
        q = QuadraticForm(SQRT2, entries)
        doubled = QuadraticForm(SQRT2, q.entries + tuple(-e for e in q.entries))
        assert torsion_test_q(doubled)
