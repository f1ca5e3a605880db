import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hermsig.algebras import (
    FAMILIES,
    AlgebraWithInvolution,
    QuadExtension,
    QuaternionAlgebra,
    SplitIsomorphism,
    is_invertible,
    is_square_in_field,
)
from hermsig.errors import AlgebraMismatchError, FieldMismatchError, UnsupportedError
from hermsig.field import QQ, NumberField, render_element, sign_at
from hermsig.session import parse_session
from trace_oracle import default_twist

SQRT2 = NumberField([-2, 0, 1])
F5 = NumberField([1, 3, -3, -4, 1, 1])
HAMILTON = QuaternionAlgebra(QQ, QQ.element(-1), QQ.element(-1))


def random_quat(alg, rng, height=4):
    return alg.element(*[rng.randint(-height, height) for _ in range(4)])


def test_defining_relations():
    q = HAMILTON
    assert q.i * q.j == q.k
    assert q.j * q.i == -q.k
    assert q.i * q.i == q.element(-1)
    assert q.k * q.k == q.element(-1)
    assert q.i.trd().is_zero()


def test_nrd_and_trd_frozen_values():
    one_plus_i = HAMILTON.element(1, 1)
    assert one_plus_i.nrd() == 2
    assert one_plus_i.trd() == 2
    assert HAMILTON.element(0, 1, 1, 1).nrd() == 3


def test_conjugation_is_an_involution_and_antihomomorphism():
    rng = random.Random(17)
    for _ in range(20):
        p, q = random_quat(HAMILTON, rng), random_quat(HAMILTON, rng)
        assert p.conj().conj() == p
        assert (p * q).conj() == q.conj() * p.conj()
        assert (p * q).nrd() == p.nrd() * q.nrd()
        assert (p + q).trd() == p.trd() + q.trd()
        assert p * p.conj() == HAMILTON.element(p.nrd())


def test_quaternion_inverse():
    q = HAMILTON.element(1, 2, -1, 3)
    assert q * q.inverse() == HAMILTON.one
    with pytest.raises(ZeroDivisionError):
        HAMILTON.zero.inverse()


def test_zero_divisors_in_split_algebra():
    for field in (QQ, SQRT2, F5):
        split = QuaternionAlgebra(field, field.one, field.one)
        zd = split.one + split.i  # Nrd = 1 - 1 = 0
        assert zd.nrd().is_zero()
        assert not zd.is_zero()
        other = split.one - split.i
        assert (zd * other).is_zero()
        for x in (zd, split.j - split.k, split.zero):
            with pytest.raises(ZeroDivisionError):
                x.inverse()


def test_nil_ordering_tables():
    assert AlgebraWithInvolution(QQ, "split_orth", 2).nil_orderings() == []
    hamilton1 = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
    assert hamilton1.nil_orderings() == []
    allnil = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1)
    assert len(allnil.nil_orderings()) == 1

    theta = SQRT2.gen
    mixed = AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=theta)
    nils = mixed.nil_orderings()
    assert len(nils) == 1
    assert sign_at(theta, nils[0]) > 0

    skew = AlgebraWithInvolution(QQ, "quat_skew", 1, a=-1, b=-1)
    assert len(skew.nil_orderings()) == 1
    skew_pos = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    assert skew_pos.nil_orderings() == []


def test_nil_orderings_independent_of_n():
    for n in (1, 2, 3):
        alg = AlgebraWithInvolution(SQRT2, "quat_symp", n, a=-1, b=SQRT2.gen)
        assert [p.index for p in alg.nil_orderings()] == [1]


def test_sym_basis_dimensions():
    assert len(AlgebraWithInvolution(QQ, "split_orth", 2).sym_basis()) == 3
    assert len(AlgebraWithInvolution(QQ, "split_orth", 3).sym_basis()) == 6
    assert len(AlgebraWithInvolution(QQ, "unitary", 2, delta=-1).sym_basis()) == 4
    assert len(AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1).sym_basis()) == 1
    assert len(AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1).sym_basis()) == 6
    skew = AlgebraWithInvolution(QQ, "quat_skew", 1, a=-1, b=-1)
    basis = skew.sym_basis()
    assert len(basis) == 3
    for e in basis:
        q = e.rows[0][0]
        assert q.trd().is_zero()
    skew2 = AlgebraWithInvolution(QQ, "quat_skew", 2, a=-1, b=-1)
    assert len(skew2.sym_basis()) == 2 * 2 * 2 + 2  # n(2n+1) = 10


def test_sym_basis_elements_are_symmetric():
    for alg in (
        AlgebraWithInvolution(QQ, "split_orth", 2),
        AlgebraWithInvolution(QQ, "unitary", 2, delta=-1),
        AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "quat_skew", 2, a=-1, b=-1),
    ):
        for e in alg.sym_basis():
            assert alg.is_symmetric_element(e)


def test_unitary_rejects_square_delta():
    with pytest.raises(ValueError):
        AlgebraWithInvolution(QQ, "unitary", 1, delta=4)
    with pytest.raises(ValueError):
        AlgebraWithInvolution(SQRT2, "unitary", 1, delta=2)  # 2 = theta^2
    # fine: -1 is not a square in a real field
    AlgebraWithInvolution(SQRT2, "unitary", 1, delta=-1)


def test_squareness_decisions():
    assert is_square_in_field(QQ.element(Fraction(9, 4)))
    assert not is_square_in_field(QQ.element(2))
    theta = SQRT2.gen
    assert is_square_in_field(SQRT2.element(2))
    assert is_square_in_field((1 + theta) * (1 + theta))
    assert not is_square_in_field(theta + 5)
    cubic = NumberField([-2, 0, 0, 1])
    assert not is_square_in_field(cubic.element(2))
    # x is positive at the one real root; its norm 2 is no rational square
    assert cubic.gen.norm() == 2
    assert not is_square_in_field(cubic.gen)
    # x^2 is a square whose root the test cannot build: still loud
    assert (cubic.gen * cubic.gen).norm() == 4
    with pytest.raises(UnsupportedError):
        is_square_in_field(cubic.gen * cubic.gen)


def test_squareness_decided_by_a_negative_sign():
    """An element negative at some ordering is no square, in any degree: the
    unitary family with delta = -1 - x^2 over the quintic used to raise
    "cannot decide squareness"."""
    from hermsig.hermitian import HermitianForm, total_signature_h

    x = F5.gen
    delta = -1 - x * x
    assert not is_square_in_field(delta)
    assert not is_square_in_field(x)  # negative at orderings 0-2
    uni = AlgebraWithInvolution(F5, "unitary", 1, delta=delta)
    h = HermitianForm.diagonal(uni, [uni.entry(1), uni.entry(x)])
    table = total_signature_h(h)
    assert [v for _, v in table] == [0, 0, 0, 2, 2]
    # totally positive and not rational: decided by a norm that is no
    # rational square (89), undecided and loud when it is one (1)
    for value, norm in ((x * x + 1, 89), (2 + x, 1)):
        assert all(sign_at(value, p) > 0 for p in F5.orderings)
        assert value.norm() == norm
    assert not is_square_in_field(x * x + 1)
    with pytest.raises(UnsupportedError):
        is_square_in_field(2 + x)


def test_unitary_with_a_totally_positive_delta_is_nil_everywhere():
    """delta = 1 + x^2 over the quintic used to raise "cannot decide
    squareness"; its norm 89 shows it is no square.  It is positive at all
    five orderings, so the algebra is nil there and every signature is 0."""
    from hermsig.hermitian import HermitianForm, total_signature_h

    x = F5.gen
    uni = AlgebraWithInvolution(F5, "unitary", 1, delta=1 + x * x)
    assert len(uni.nil_orderings()) == 5 and not uni.nonnil_orderings()
    h = HermitianForm.diagonal(uni, [uni.entry(1), uni.entry(x), uni.entry(-2 - x)])
    table = total_signature_h(h)
    assert [v for _, v in table] == [0] * 5


def test_closed_catalogue():
    with pytest.raises(UnsupportedError):
        AlgebraWithInvolution(QQ, "octonion", 1)


def test_split_isomorphism_frozen_images():
    split = QuaternionAlgebra(QQ, QQ.element(1), QQ.element(1))
    phi = SplitIsomorphism(split)
    img_one = phi.apply(split.one)
    assert [[c.as_fraction() for c in row] for row in img_one] == [[1, 0], [0, 1]]
    img_k = phi.apply(split.k)
    assert [[c.as_fraction() for c in row] for row in img_k] == [[0, 1], [-1, 0]]


def test_split_isomorphism_is_a_ring_homomorphism():
    rng = random.Random(9)
    split = QuaternionAlgebra(QQ, QQ.element(1), QQ.element(3))
    phi = SplitIsomorphism(split)

    def matmul(x, y):
        return [[x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
                [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]]]

    for _ in range(20):
        p, q = random_quat(split, rng), random_quat(split, rng)
        lhs = phi.apply(p * q)
        rhs = matmul(phi.apply(p), phi.apply(q))
        assert lhs == rhs
        img = phi.apply(p)
        det = img[0][0] * img[1][1] - img[0][1] * img[1][0]
        tr = img[0][0] + img[1][1]
        assert det == p.nrd()
        assert tr == p.trd()

    with pytest.raises(ValueError):
        SplitIsomorphism(HAMILTON)


def test_invertibility():
    alg = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1)
    zd = alg.element([[(1, 1, 0, 0)]])
    assert not is_invertible(zd)
    assert is_invertible(alg.one_element)
    so2 = AlgebraWithInvolution(QQ, "split_orth", 2)
    assert is_invertible(so2.element([[1, 1], [0, 1]]))
    assert not is_invertible(so2.element([[1, 1], [1, 1]]))


def test_element_arithmetic_and_conj_transpose():
    alg = AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1)
    i = alg.quat.i
    m = alg.element([[(2, 0, 0, 0), (0, 1, 0, 0)], [(0, -1, 0, 0), (1, 0, 0, 0)]])
    assert alg.is_symmetric_element(m)
    prod = m * alg.one_element
    assert prod == m
    mi = m.rows[0][1]
    assert mi == i


def test_nrd_zero_iff_zero_divisor_sampled():
    rng = random.Random(19)
    split = QuaternionAlgebra(QQ, QQ.element(1), QQ.element(3))
    for _ in range(40):
        q = random_quat(split, rng)
        if q.is_zero():
            continue
        if q.nrd().is_zero():
            witness = q.conj()
            assert not witness.is_zero()
            assert (q * witness).is_zero()
        else:
            assert q * q.inverse() == split.one


def _nil_by_definition(family, signs):
    """The nil rule as the per-family branches stated it before the Family
    table: unitary over delta > 0, quat_symp split, quat_skew division."""
    if family == "split_orth":
        return False
    if family == "unitary":
        return signs[0] > 0
    a, b = signs
    if family == "quat_symp":
        return a > 0 or b > 0
    return a < 0 and b < 0


# name -> (parameters over Q(sqrt 2), entry_dim, trace_divisor, skew)
_FAMILY_FACTS = {
    "split_orth": ({}, 1, 1, False),
    "unitary": ({"delta": -3}, 2, 2, False),
    "quat_symp": ({"a": -1, "b": Fraction(-5, 2)}, 4, 4, False),
    "quat_skew": ({"a": Fraction(1, 3), "b": -7}, 4, 2, True),
}


@pytest.mark.parametrize("name", sorted(_FAMILY_FACTS))
def test_family_table(name):
    from hermsig.hermitian import _descend_algebra, going_up_algebra

    params, entry_dim, divisor, skew = _FAMILY_FACTS[name]
    fam = FAMILIES[name]
    assert fam.params == tuple(params)
    assert (fam.entry_dim, fam.trace_divisor, fam.skew) == (entry_dim, divisor, skew)
    for signs in itertools.product((-1, 0, 1), repeat=len(fam.params)):
        assert fam.nil(signs) == _nil_by_definition(name, signs), signs

    # the nil orderings of members with every sign pattern over Q(sqrt 2)
    theta = SQRT2.gen
    values = (1, -1, theta, -theta)
    for vals in itertools.product(values, repeat=len(fam.params)):
        if name == "unitary" and vals[0] == 1:
            continue  # a square
        alg = AlgebraWithInvolution(SQRT2, name, 2, **dict(zip(fam.params, vals)))
        want = [p for p in SQRT2.orderings
                if _nil_by_definition(name, [sign_at(v, p) for v in alg.params])]
        assert alg.nil_orderings() == want

    # the entry ring and its entries share one protocol
    base = AlgebraWithInvolution(QQ, name, 2, **params)
    ring = base.ring
    assert len(ring.basis) == base.entry_dim and ring.basis[0] == base.ring.one
    e = base.entry(list(range(1, entry_dim + 1)))
    assert ring.from_coords(e.coords()) == e
    assert e.conj().conj() == e and (e + e.conj()).trd() == e.trd() + e.trd()
    assert base.entry(5) == ring.from_coords([QQ.element(5)] + [QQ.zero] * (entry_dim - 1))
    assert (base.twist_at(QQ.orderings[0]) is None) == (not skew)
    assert (default_twist(base) is None) == (not skew)

    # rebuild against the explicit constructions of the going-up, descent,
    # collapse and expansion builders it replaces
    ext = NumberField([-3, 0, 1])
    lift = lambda c: ext.element(c.as_fraction())  # noqa: E731
    up = AlgebraWithInvolution(ext, name, 2, **{k: ext.element(v) for k, v in params.items()})
    assert base.rebuild(field=ext, coerce=lift) == up == going_up_algebra(base, ext)
    descend = lambda c: QQ.element(c.as_fraction())  # noqa: E731
    assert up.rebuild(field=QQ, coerce=descend) == base == _descend_algebra(up)
    assert base.collapsed() == base.rebuild(n=1) == AlgebraWithInvolution(QQ, name, 1, **params)
    assert base.collapsed().rebuild(n=2) == base
    assert repr(base).startswith(f"AlgebraWithInvolution({name}, n=2")


def test_family_parameter_validation():
    with pytest.raises(ValueError, match="split_orth takes no parameters"):
        AlgebraWithInvolution(QQ, "split_orth", 1, a=1)
    with pytest.raises(ValueError, match="unitary takes only delta"):
        AlgebraWithInvolution(QQ, "unitary", 1, delta=-1, a=1)
    with pytest.raises(ValueError, match="unitary requires delta"):
        AlgebraWithInvolution(QQ, "unitary", 1)
    with pytest.raises(ValueError, match="quat_skew requires a and b"):
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=1)
    with pytest.raises(ValueError, match="delta must be nonzero"):
        AlgebraWithInvolution(QQ, "unitary", 1, delta=0)
    with pytest.raises(ValueError, match="a and b must be nonzero"):
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=0)
    with pytest.raises(UnsupportedError):
        AlgebraWithInvolution(QQ, ["quat_symp"], 1)


def test_entries_of_different_rings_do_not_mix():
    """Over Q, sqrt(-1) * sqrt(-3) used to return -1 silently."""
    r1 = AlgebraWithInvolution(QQ, "unitary", 1, delta=-1).ext.basis[1]
    r3 = AlgebraWithInvolution(QQ, "unitary", 1, delta=-3).ext.basis[1]
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(AlgebraMismatchError):
            op(r1, r3)
    with pytest.raises(AlgebraMismatchError):
        HAMILTON.i * QuaternionAlgebra(QQ, QQ.element(-1), QQ.element(-3)).i
    assert r1 != r3 and r1 == QuadExtension(QQ, QQ.element(-1)).basis[1]


def test_ring_constants_from_another_field_are_refused():
    """The table's constants are taken into F without a product by F's one,
    and one from another field is still refused, not read over F."""
    other = NumberField([-3, 0, 0, 0, 0, 1])
    with pytest.raises(FieldMismatchError):
        QuadExtension(F5, other.gen)
    with pytest.raises(FieldMismatchError):
        QuaternionAlgebra(F5, other.gen, F5.element(-1))


# The closed-form products and norms the multiplication tables replace.
def _quat_mul(a, b, p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    ab = a * b
    return (w1 * w2 + a * x1 * x2 + b * y1 * y2 - ab * z1 * z2,
            w1 * x2 + x1 * w2 - b * y1 * z2 + b * z1 * y2,
            w1 * y2 + y1 * w2 + a * x1 * z2 - a * z1 * x2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2)


def _quat_nrd(a, b, p):
    w, x, y, z = p
    return w * w - a * x * x - b * y * y + a * b * z * z


def _quad_mul(delta, p, q):
    (u, v), (u2, v2) = p, q
    return (u * u2 + delta * v * v2, u * v2 + v * u2)


def _quad_norm(delta, p):
    u, v = p
    return u * u - delta * v * v


_small = st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=5))


@st.composite
def _ring_case(draw):
    """A ring over Q, Q(sqrt 2) or F5 (parameters often +-1, so split rings
    and zero divisors come up), two entries and the closed-form oracles."""
    field = draw(st.sampled_from([QQ, SQRT2, F5]))

    def element(nonzero=False):
        cs = draw(st.lists(_small, min_size=field.degree, max_size=field.degree))
        e = field.element(cs)
        return field.one if nonzero and e.is_zero() else e

    def param():
        if draw(st.booleans()):
            return field.element(draw(st.sampled_from([1, -1, 2])))
        return element(nonzero=True)

    if draw(st.booleans()):
        a, b = param(), param()
        ring = QuaternionAlgebra(field, a, b)
        mul, nrd = (lambda p, q: _quat_mul(a, b, p, q)), (lambda p: _quat_nrd(a, b, p))
    else:
        delta = param()
        ring = QuadExtension(field, delta)
        mul, nrd = (lambda p, q: _quad_mul(delta, p, q)), (lambda p: _quad_norm(delta, p))

    def entry():
        if draw(st.integers(0, 4)) == 0:  # a zero divisor when a = 1 or delta = 1
            return ring.from_coords([field.one, field.one] + [field.zero] * (ring.dim - 2))
        return ring.from_coords([element() for _ in range(ring.dim)])

    return ring, entry(), entry(), mul, nrd


@settings(max_examples=100, deadline=None)
@given(_ring_case())
def test_entry_dot_matches_closed_forms(case):
    """EntryRing.dot is base + sum of sign x y, one multiply-accumulate per
    coordinate, with the +-1 structure constants taken as signs."""
    ring, x, y, mul, _ = case
    p, q = x.coords(), y.coords()
    assert ring.dot(()) == ring.zero and ring.dot((), x) == x
    assert ring.dot(((1, x, y),)).coords() == mul(p, q)
    assert ring.dot(((-1, x, y),), y).coords() == tuple(b - v for b, v in zip(q, mul(p, q)))
    both = ring.dot(((1, x, y), (-1, y, x), (1, y, y)), x).coords()
    assert both == tuple(a + u - v + w for a, u, v, w in zip(p, mul(p, q), mul(q, p), mul(q, q)))


@settings(max_examples=150, deadline=None)
@given(_ring_case())
def test_table_products_match_closed_forms(case):
    ring, x, y, mul, nrd = case
    p, q = x.coords(), y.coords()
    assert (x * y).coords() == mul(p, q)
    assert x.conj().coords() == (p[0],) + tuple(-c for c in p[1:])
    assert x.nrd() == nrd(p) and x.trd() == p[0] + p[0]
    c = ring.field.gen + 3
    assert (c * x).coords() == (x * c).coords() == tuple(c * v for v in p)
    n = nrd(p)
    if n.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        inv = n.inverse()
        assert x.inverse().coords() == (p[0] * inv,) + tuple(-v * inv for v in p[1:])
        assert x * x.inverse() == ring.one == x.inverse() * x


# The coordinate-wise reference for entry arithmetic: the table loop that
# EntryRing.dot ran before entries multiplied through one integer matrix,
# over the multiplication tables of the two constructors, on coordinates.
def _reference_table(ring):
    if isinstance(ring, QuaternionAlgebra):
        a, b = ring.a, ring.b
        table = {(1, 1): (a, 0), (1, 2): (1, 3), (1, 3): (a, 2),
                 (2, 1): (-1, 3), (2, 2): (b, 0), (2, 3): (-b, 1),
                 (3, 1): (-a, 2), (3, 2): (b, 1), (3, 3): (-a * b, 0)}
        norms = (1, -a, -b, a * b)
    else:
        table, norms = {(1, 1): (ring.delta, 0)}, (1, -ring.delta)
    return table, tuple(ring.field.one * n for n in norms)


def _reference_dot(ring, terms, base=None):
    """base + sum of sign * x * y, coordinate by coordinate."""
    table, _ = _reference_table(ring)
    out = list(base.coords()) if base is not None else [ring.field.zero] * ring.dim
    for sign, x, y in terms:
        for s, xs in enumerate(x.coords()):
            for t, yt in enumerate(y.coords()):
                c, k = (1, s + t) if s == 0 or t == 0 else table[s, t]
                out[k] = out[k] + xs * yt * c * sign
    return tuple(out)


_with_denominators = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _entry_arithmetic_case(draw):
    """A ring over Q, Q(sqrt 2) or F5 whose parameters have denominators,
    a pool of entries (some F-scalars, some zero), a base and signed terms."""
    field = draw(st.sampled_from([QQ, SQRT2, F5]))

    def element(nonzero=False):
        e = field.element(draw(st.lists(_with_denominators, min_size=1,
                                        max_size=field.degree)))
        return field.one / 3 if nonzero and e.is_zero() else e

    if draw(st.booleans()):
        ring = QuaternionAlgebra(field, element(True), element(True))
    else:
        ring = QuadExtension(field, element(True))

    def entry():
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return ring.zero
        if kind == 1:  # an F-scalar
            return ring.element(element())
        return ring.from_coords([element() for _ in range(ring.dim)])

    pool = [entry() for _ in range(4)]
    terms = [(draw(st.sampled_from([1, -1])), draw(st.sampled_from(pool)),
              draw(st.sampled_from(pool))) for _ in range(draw(st.integers(1, 4)))]
    base = draw(st.sampled_from([None] + pool))
    return ring, pool, terms, base


def _assert_canonical_entry(e):
    assert e.den > 0 and math.gcd(e.den, *e.num) == 1
    assert len(e.num) <= e.ring.dim * e.ring.field.degree and (not e.num or e.num[-1])


@settings(max_examples=150, deadline=None)
@given(_entry_arithmetic_case())
def test_entry_arithmetic_matches_the_coordinate_reference(case):
    """Products, multiply-accumulates, conj, Trd, Nrd, inverses, equality
    and hashing of entries agree with coordinate-wise arithmetic over F,
    whether the right operand's matrix is built or not."""
    ring, pool, terms, base = case
    field = ring.field
    _, norms = _reference_table(ring)
    got = ring.dot(terms, base)
    _assert_canonical_entry(got)
    assert got.coords() == _reference_dot(ring, terms, base)
    for x in pool:
        _assert_canonical_entry(x)
        p = x.coords()
        for y in pool:
            want = _reference_dot(ring, [(1, x, y)])
            assert (x * y).coords() == want
            assert ring.dot(((1, x, y),), scalar_only=True) == ring.element(want[0])
            y._matrix()  # the same product through the built matrix
            assert (x * y).coords() == want
            assert x.mirrors(y) == (y == x.conj())
            assert x.mirrors(y, skew=True) == (y == -x.conj())
        assert x.conj().coords() == (p[0],) + tuple(-v for v in p[1:])
        assert x.mirrors(x.conj()) and x.mirrors(-x.conj(), skew=True)
        assert x.trd() == p[0] + p[0] and x.scalar_part() == p[0]
        n = sum((v * v * c for v, c in zip(p, norms)), field.zero)
        assert x.nrd() == n
        assert ring.dot(((1, x, x.conj()),), scalar_only=True) == ring.element(n)
        if n.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            inv = x.inverse()
            assert inv.coords() == tuple(v / n for v in x.conj().coords())
            assert x * inv == ring.one == inv * x
        # equal however built, and equal entries hash alike
        twin = ring.from_coords(list(p))
        other = (x + pool[0]) - pool[0]
        assert twin == x == other and hash(twin) == hash(x) == hash(other)
        assert (x == pool[1]) == (p == pool[1].coords())
        if all(v.is_zero() for v in p[1:]):
            assert x == p[0] and p[0] == x and hash(x) == hash(p[0])
        else:
            assert x != p[0] and p[0] != x


@pytest.mark.parametrize("ring", [
    QuaternionAlgebra(F5, F5.element(-1), F5.element([0, 1])),
    QuadExtension(F5, F5.element([-3, 1])),
], ids=["quaternion", "quadratic"])
def test_rational_coordinates_scale_a_scalar_without_its_matrix(ring):
    """An entry whose coordinates are all rational, times an F-scalar c that
    is not, scales c by each coordinate: c keeps no multiplication matrix,
    and the product is the coordinate-wise one."""
    x = ring.element(*[Fraction(k - 2, k + 1) for k in range(ring.dim)])
    c = F5.element([Fraction(1, 3), -2, 0, 5])
    want = _reference_dot(ring, [(1, x, ring.element(c))])
    assert (x * c).coords() == (c * x).coords() == want and c._mat is None
    y = ring.element(c)  # an F-scalar entry with no matrix: dot scales by its coordinate
    assert ring.dot(((1, x, y),)).coords() == want and y._mat is None
    assert y.coords()[0]._mat is None


def test_an_entry_equal_to_a_scalar_hashes_like_it():
    """Q.element(3) == F.element(3) held, but the two hashed differently,
    so a set of both had two members."""
    quat = QuaternionAlgebra(SQRT2, SQRT2.element(-1), SQRT2.element(-1))
    three = SQRT2.element(3)
    assert quat.element(3) == three and three == quat.element(3)
    assert hash(quat.element(3)) == hash(three) == hash(3)
    assert len({quat.element(3), three}) == len({three, quat.element(3)}) == 1
    half_x = SQRT2.element([0, Fraction(1, 2)])
    assert quat.element(half_x) == half_x and hash(quat.element(half_x)) == hash(half_x)
    assert quat.element(Fraction(-2, 3)) == Fraction(-2, 3)
    assert hash(quat.element(Fraction(-2, 3))) == hash(Fraction(-2, 3))
    assert quat.i != three and three != quat.i and quat.element(3) != SQRT2.element(2)
    assert quat.element(3) != NumberField([-3, 0, 1]).element(3)


def rank_is_invertible(x):
    """Reference invertibility test: the F-linear rank of v -> x v on the
    column module, by Gaussian elimination over F."""
    alg = x.algebra
    n, ed = alg.n, alg.entry_dim
    dim = n * ed
    cols = []
    for slot in range(n):
        for bu in alg.ring.basis:
            col = []
            for r in range(n):
                col.extend((x.rows[r][slot] * bu).coords())
            cols.append(col)
    m = [[cols[c][r] for c in range(dim)] for r in range(dim)]
    rank = 0
    for c in range(dim):
        piv = next((r for r in range(rank, dim) if not m[r][c].is_zero()), None)
        if piv is None:
            return False
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c].inverse()
        for r in range(rank + 1, dim):
            if not m[r][c].is_zero():
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return True


@st.composite
def _element_case(draw):
    """An element of M_n(D), n = 1, 2, over Q(sqrt 2) or F5, for every
    family; split quaternion parameters (a = 1) and entries built from
    1 +- e_1 make zero divisors common."""
    field = draw(st.sampled_from([SQRT2, F5]))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params = {"split_orth": {}, "unitary": {"delta": draw(st.sampled_from([-1, 3]))}}.get(
        family, {"a": draw(st.sampled_from([1, -1])), "b": draw(st.sampled_from([-1, 3]))})
    alg = AlgebraWithInvolution(field, family, draw(st.integers(1, 2)), **params)
    ed = alg.entry_dim

    def entry():
        if ed > 1 and draw(st.integers(0, 3)) == 0:
            return [1, draw(st.sampled_from([1, -1]))] + [0] * (ed - 2)
        return [field.element([draw(st.integers(-2, 2)), draw(st.integers(-1, 1))])
                for _ in range(ed)]

    rows = [[entry() for _ in range(alg.n)] for _ in range(alg.n)]
    if alg.n == 2 and draw(st.booleans()):
        rows[1] = rows[0]  # equal rows: never invertible
    return alg.element(rows)


@settings(max_examples=150, deadline=None)
@given(_element_case())
def test_is_invertible_matches_rank_reference(x):
    assert is_invertible(x) == rank_is_invertible(x)


_FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", sorted(p.name for p in _FIXTURES.glob("*_session.json")))
def test_nil_decisions_at_every_ordering_of_the_fixture_algebras(name):
    """is_nil and nonnil_orderings follow the family rule at the parameter
    signs, also for the equal orderings of a second field object, and each
    call returns a list of its own."""
    doc = parse_session((_FIXTURES / name).read_text())
    twin = NumberField(doc.field.min_poly)
    assert doc.algebras
    for algebra in doc.algebras.values():
        nils = []
        for p, q in zip(doc.field.orderings, twin.orderings, strict=True):
            nil = _nil_by_definition(algebra.family, [sign_at(v, p) for v in algebra.params])
            assert algebra.is_nil(p) is nil and algebra.is_nil(q) is nil
            nils.append(nil)
        want = [p for p, nil in zip(doc.field.orderings, nils) if not nil]
        got = algebra.nonnil_orderings()
        assert got == want and algebra.nil_orderings() == [
            p for p, nil in zip(doc.field.orderings, nils) if nil]
        got.append(got[0] if got else None)
        assert algebra.nonnil_orderings() == want


def test_elements_take_exactly_the_ring_dimension_of_coordinates():
    """`element(1, 2, 3, 4, 5)` over the Hamilton quaternions built a
    5-long vector whose square silently dropped the fifth coordinate, and
    `from_coords` took one coordinate over Q(i): both are refused, with the
    count the ring expects."""
    quat = QuaternionAlgebra(QQ, QQ.element(-1), QQ.element(-1))
    with pytest.raises(ValueError, match="^elements of this ring have 4 coordinates over F, not 5$"):
        quat.element(1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match="have 4 coordinates over F, not 5$"):
        quat.from_coords([QQ.one] * 5)
    x = quat.element(1, 2, 3, 4)
    assert (x * x).coords() == tuple(QQ.element(c) for c in (-28, 4, 6, 8))
    ext = QuadExtension(QQ, QQ.element(-1))
    for coords in ([QQ.one], [QQ.one] * 3):
        with pytest.raises(ValueError, match=f"have 2 coordinates over F, not {len(coords)}$"):
            ext.from_coords(coords)
    with pytest.raises(ValueError, match="have 1 coordinates over F, not 2$"):
        QQ.from_coords([QQ.one, QQ.one])
    assert ext.element(3) == ext.from_coords([QQ.element(3), QQ.zero]) == 3


def test_operations_of_f_refuse_an_element_of_an_entry_ring():
    """A sign, a rendering, the norm N_F/Q and a coordinate are elements of
    F; an element of an entry ring is refused, even one that equals a scalar
    of F, and its inverse is conj(x) Nrd(x)^-1, not the inverse of a matrix
    over F."""
    ext = QuadExtension(F5, F5.element(-1))
    for e in (ext.basis[1], ext.element(F5.gen), ext.one):
        with pytest.raises(FieldMismatchError, match="not of an entry ring"):
            sign_at(e, F5.orderings[0])
        with pytest.raises(FieldMismatchError, match="not of an entry ring"):
            render_element(e)
        with pytest.raises(FieldMismatchError, match="not of an entry ring"):
            e.norm()
    for coerce in (F5.element, lambda e: ext.from_coords([e, 0])):
        with pytest.raises(FieldMismatchError, match="^not an element of this field$"):
            coerce(ext.one)
    assert F5.element(F5.gen) is F5.gen
    x = ext.element(F5.gen, 1)
    inv = x.inverse()
    assert inv.ring is ext and inv == x.conj() * (x * x.conj()).scalar_part().inverse()
    assert x * inv == inv * x == 1 and ext.element(F5.gen) == F5.gen
