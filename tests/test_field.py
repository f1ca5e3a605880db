import json
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hermsig.errors import FieldMismatchError, HermsigError, ReducibleModulusError
from hermsig.field import (
    QQ,
    FieldElement,
    NumberField,
    _rational_root,
    _remainder_chain,
    _scaled_eval,
    _sign_variations,
    _zero_test,
    cauchy_bound,
    four_square_decomposition,
    render_element,
    sign_at,
    sturm_chain,
)

SQRT2 = NumberField([-2, 0, 1])


def lazy_field(m):
    """NumberField(m), also for an m with a rational root, which the
    constructor rejects.  The lazy zero-divisor checks still guard every
    reducible m without one, such as (x^2 - 2)(x^2 - 3); they are tested
    here on moduli whose factors are easy to name."""
    with mock.patch("hermsig.field._rational_root", return_value=None):
        return NumberField(m)


# Fraction polynomial reference arithmetic: dense tuples of Fractions,
# constant term first, trailing zeros stripped.
def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def poly_sub(p, q):
    return poly_add(p, tuple(-c for c in q))


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_divmod(p, q):
    """Quotient and remainder of p by the nonzero q."""
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for k in range(len(p) - len(q), -1, -1):
        c = rem[k + len(q) - 1] / q[-1]
        if c:
            quo[k] = c
            for j, b in enumerate(q):
                rem[k + j] -= c * b
    return _trim(quo), _trim(rem)


def poly_gcd(p, q):
    """Monic gcd by the Euclidean algorithm."""
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return tuple(c / p[-1] for c in p)


def count_roots(chain, lo, hi):
    """Number of distinct real roots in (lo, hi] of the squarefree p whose
    integer Sturm chain (`sturm_chain`) is `chain`: the drop in its sign
    variations from lo to hi."""
    lo, hi = Fraction(lo), Fraction(hi)
    return (_sign_variations(_scaled_eval(q, lo.numerator, lo.denominator) for q in chain)
            - _sign_variations(_scaled_eval(q, hi.numerator, hi.denominator) for q in chain))


def poly_eval_interval(p, lo, hi):
    """Exact interval Horner evaluation of p over [lo, hi]."""
    alo = ahi = Fraction(0)
    for c in reversed(p):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


class FractionSigns:
    """Reference sign oracle: the eager gcd zero test, then Fraction
    interval Horner over a bisected root interval.  It keeps its own
    current interval per ordering, (lo, hi); a bisection point that is an
    exact root becomes an endpoint of the closed interval."""

    def __init__(self):
        self.current = {}

    def sign_at(self, a, ordering):
        coeffs, m = a.coeffs, a.field.min_poly
        if not coeffs:
            return 0
        g = poly_gcd(coeffs, m)
        if len(g) > 1 and fraction_sturm_count(g, ordering.lo, ordering.hi) >= 1:
            return 0
        key = id(ordering)
        lo, hi = self.current.get(key, (ordering.lo, ordering.hi))
        while True:
            vlo, vhi = poly_eval_interval(coeffs, lo, hi)
            if vlo > 0 or vhi < 0:
                self.current[key] = (lo, hi)
                return 1 if vlo > 0 else -1
            mid = (lo + hi) / 2
            if (poly_eval(m, mid) > 0) == (poly_eval(m, lo) > 0):
                lo = mid
            else:
                hi = mid


def fraction_inverse(a):
    """Reference inverse: extended Euclid of the representative and the
    minimal polynomial."""
    if a.is_zero():
        raise ZeroDivisionError("division by zero")
    r0, r1 = a.field.min_poly, a.coeffs
    s0, s1 = (), (Fraction(1),)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    if len(r0) > 1:
        raise ZeroDivisionError("element is a zero divisor, not invertible")
    return a.field.element([c / r0[0] for c in s0])


def test_rationals_have_a_unique_ordering():
    assert len(QQ.orderings) == 1


def test_sqrt2_has_two_orderings_around_the_roots():
    orderings = list(SQRT2.orderings)
    assert len(orderings) == 2
    neg, pos = orderings
    # isolating intervals bracket -sqrt(2) and sqrt(2)
    assert neg.lo < Fraction(-1415, 1000) < neg.hi or neg.lo < Fraction(-1414, 1000) < neg.hi
    assert pos.lo < Fraction(1415, 1000) < pos.hi or pos.lo < Fraction(1414, 1000) < pos.hi
    assert neg.hi <= pos.lo


def test_no_real_roots_gives_empty_ordering_space():
    field = NumberField([1, 0, 1])  # x^2 + 1
    assert list(field.orderings) == []


def test_non_squarefree_poly_rejected():
    with pytest.raises(ValueError):
        NumberField([0, 0, 1])  # x^2


def test_enumeration_is_deterministic():
    f1 = NumberField([-2, 0, 1])
    f2 = NumberField([-2, 0, 1])
    iv1 = [(p.lo, p.hi) for p in f1.orderings]
    iv2 = [(p.lo, p.hi) for p in f2.orderings]
    assert iv1 == iv2


def test_ordering_count_matches_sturm_over_cauchy_bound():
    # number of orderings equals the root count over (-B, B)
    for coeffs in ([-2, 0, 1], [0, 1], [1, 0, 1], [-2, 0, 0, 1], [1, -3, 0, 1]):
        field = NumberField(coeffs)
        bound = cauchy_bound(field.min_poly)
        assert len(field.orderings) == count_roots(sturm_chain(field.min_poly), -bound, bound)


def test_orderings_of_equal_fields_are_equal():
    """Orderings of one field object compare by index; orderings of two
    equal field objects by their intervals, and they hash alike."""
    first, second = NumberField(F5.min_poly), NumberField(F5.min_poly)
    assert first is not second and first == second and hash(first) == hash(second)
    for p, q in zip(first.orderings, second.orderings):
        assert p == q and q == p and hash(p) == hash(q)
        assert p in second.orderings and {p: 1}[q] == 1
    for i, p in enumerate(first.orderings):
        for j, q in enumerate(first.orderings + second.orderings):
            assert (p == q) == (i == j % 5) and (p != q) == (i != j % 5)
    assert len(set(first.orderings) | set(second.orderings)) == 5
    sqrt3 = NumberField([-3, 0, 1])
    assert all(p != q for p in SQRT2.orderings for q in sqrt3.orderings)


def test_an_ordering_equals_only_orderings():
    p = SQRT2.orderings[1]
    for other in (None, 0, 1, (p.lo, p.hi), p.lo, SQRT2, SQRT2.gen, repr(p)):
        assert p != other and not p == other and other != p


def test_field_elements_equal_ints_and_fractions():
    half = F5.element(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half and half != 1
    assert F5.element(7) == 7 and 7 == F5.element(7) and F5.element(-3) != 3
    assert F5.zero == 0 and F5.zero == Fraction(0) and F5.gen != 0
    assert F5.gen != Fraction(1) and F5.one == 1 and F5.one == True  # noqa: E712
    assert F5.one != 1.0 and F5.one != "1" and F5.one != None  # noqa: E711
    assert NumberField(F5.min_poly).gen == F5.gen and SQRT2.gen != F5.gen
    assert hash(half) == hash(Fraction(1, 2)) and hash(F5.element(7)) == hash(7)


def test_sign_of_sqrt2_at_both_orderings():
    theta = SQRT2.gen
    neg, pos = SQRT2.orderings
    assert sign_at(theta, pos) == 1
    assert sign_at(theta, neg) == -1
    assert sign_at(SQRT2.zero, pos) == 0


def test_sign_of_zero_divisor_representative():
    # squarefree reducible modulus: x^2 - 1; x - 1 vanishes at the root 1,
    # which proves the modulus reducible rather than giving a quiet sign 0
    field = lazy_field([-1, 0, 1])
    a = field.element([-1, 1])
    right = next(p for p in field.orderings if p.lo + p.hi > 0)
    left = next(p for p in field.orderings if p.lo + p.hi < 0)
    with pytest.raises(ReducibleModulusError, match=r"factor -1 \+ x$"):
        sign_at(a, right)
    assert sign_at(a, left) == -1


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        sign_at(SQRT2.gen, QQ.orderings[0])


def test_defining_relation_and_inverse():
    theta = SQRT2.gen
    assert theta * theta == 2
    assert theta.inverse() == theta / 2
    assert (theta.inverse() * theta) == 1
    a = SQRT2.element([3, -2])
    assert a + SQRT2.zero == a
    assert a * a.inverse() == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        SQRT2.zero.inverse()


def test_dividing_an_unsupported_operand_by_an_element_is_a_type_error():
    # __rtruediv__ used to multiply None by the inverse
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /"):
        1.5 / SQRT2.gen
    assert 2 / SQRT2.gen == SQRT2.gen and Fraction(1, 2) / SQRT2.gen == SQRT2.gen / 4


@pytest.mark.parametrize("coeffs", [0.1, [0.1, 1], [1, 2, 0.5], [Fraction(1, 3), 2.0]])
def test_element_refuses_a_float(coeffs):
    """element([0.1, 1]) took the binary value of 0.1, 3602879701896397 /
    2^55, and element(0.1) failed with "'float' object is not iterable"."""
    with pytest.raises(TypeError, match=r"^coefficients must be int, str or Fraction, not float$"):
        SQRT2.element(coeffs)
    assert SQRT2.element(["0.1", 1]) == SQRT2.element([Fraction(1, 10), 1])


def test_sign_multiplicative_on_samples():
    rng = random.Random(7)
    elems = [SQRT2.element([rng.randint(-4, 4), rng.randint(-4, 4)]) for _ in range(30)]
    for p in SQRT2.orderings:
        for a in elems:
            for b in elems[:10]:
                assert sign_at(a * b, p) == sign_at(a, p) * sign_at(b, p)
                assert sign_at(a * a, p) in (0, 1)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_field_arithmetic_matches_polynomial_identities(a0, a1, b0, b1):
    a = SQRT2.element([a0, a1])
    b = SQRT2.element([b0, b1])
    assert a + b == b + a
    assert a * b == b * a
    assert a * (a + b) == a * a + a * b


@given(st.fractions(min_value=Fraction(1, 32), max_value=60, max_denominator=32))
@example(7 * 4**15)  # 4^k (8m + 7): the descending search used to hang
@example(15 * 4**40)
def test_four_square_reconstructs_input(r):
    c = four_square_decomposition(r)
    assert sum(v * v for v in c) == r


def test_four_square_frozen_values():
    one = Fraction(1)
    assert four_square_decomposition(1) == (one, 0, 0, 0)
    assert four_square_decomposition(7) == (2, 1, 1, 1)
    assert four_square_decomposition(Fraction(1, 2)) == (Fraction(1, 2), Fraction(1, 2), 0, 0)


def test_four_square_rejects_nonpositive():
    with pytest.raises(ValueError):
        four_square_decomposition(0)
    with pytest.raises(ValueError):
        four_square_decomposition(-3)


def test_cubic_field_single_ordering():
    field = NumberField([-2, 0, 0, 1])  # x^3 - 2
    orderings = list(field.orderings)
    assert len(orderings) == 1
    theta = field.gen
    assert sign_at(theta, orderings[0]) == 1
    assert theta ** 3 == 2


def evaluate_poly(coeffs, a):
    """Evaluate a polynomial with rational coefficients (constant first)
    at a field element, by Horner's rule."""
    acc = a.field.zero
    for c in reversed([Fraction(c) for c in coeffs]):
        acc = acc * a + c
    return acc


def test_evaluate_poly_at_field_element():
    theta = SQRT2.gen
    # p(t) = t^2 - 2 vanishes at the generator
    assert evaluate_poly([-2, 0, 1], theta).is_zero()
    assert evaluate_poly([Fraction(1, 2), 1], theta) == theta + Fraction(1, 2)
    assert evaluate_poly([], theta).is_zero()


def test_sign_at_near_root_refinement():
    # continued-fraction convergents of sqrt(2) alternate sides of the root
    theta = SQRT2.gen
    pos = SQRT2.orderings[1]
    num, den = 1, 1
    expected = 1  # 1/1 < sqrt2 so theta - 1 > 0
    for _ in range(12):
        a = theta - Fraction(num, den)
        assert sign_at(a, pos) == expected
        num, den = num + 2 * den, num + den
        expected = -expected


def test_sign_at_with_large_coefficients():
    # sqrt2 = 1.41421356237309504...
    theta = SQRT2.gen
    neg, pos = SQRT2.orderings
    above = SQRT2.element([-14142135623731, 10 ** 13])  # theta - 1.4142135623731
    assert sign_at(above, pos) == -1
    assert sign_at(above, neg) == -1
    below = SQRT2.element([-14142135623730, 10 ** 13])
    assert sign_at(below, pos) == 1
    assert sign_at(below, neg) == -1


def test_non_monic_min_poly_normalized():
    field = NumberField([-4, 0, 2])  # 2x^2 - 4
    assert field.min_poly == (Fraction(-2), Fraction(0), Fraction(1))
    assert len(field.orderings) == 2


# Oracle fields for the integer-numerator element arithmetic: the totally
# real quintic, Q(sqrt 2), and a monic cubic with non-integral coefficients,
# whose products need the scaled reduction by 15*m.
F5 = NumberField([1, 3, -3, -4, 1, 1])
ORACLE_FIELDS = [F5, SQRT2, NumberField([Fraction(-1, 5), Fraction(-1, 3), 0, 1])]

_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def fraction_sturm_count(p, lo, hi):
    """Reference root count in (lo, hi]: the rational Sturm chain of p,
    evaluated by Fraction Horner."""
    chain = [p, _trim([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(tuple(-c for c in rem))

    def variations(x):
        signs = [v > 0 for v in (poly_eval(q, x) for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


_endpoints = st.fractions(min_value=-50, max_value=50, max_denominator=64)


@given(st.lists(_rationals, min_size=2, max_size=7).filter(lambda c: c[-1] != 0),
       _endpoints, _endpoints)
@example([Fraction(c) for c in (1, 3, -3, -4, 1, 1)], Fraction(-3), Fraction(3))
@example([Fraction(c) for c in (0, -1, 0, 1)], Fraction(-1), Fraction(1))
def test_count_roots_matches_the_fraction_oracle(coeffs, a, b):
    """The integer chain counts as the rational one does, also with an
    endpoint at a root (x^3 - x at -1 and 1); its members are integer."""
    p, lo, hi = tuple(coeffs), min(a, b), max(a, b)
    chain = sturm_chain(p)
    assert all(type(c) is int for q in chain for c in q)
    assert count_roots(chain, lo, hi) == fraction_sturm_count(p, lo, hi)


def fraction_isolate_real_roots(p):
    """Reference isolating intervals of the squarefree p: bisection from the
    Cauchy bound on Fraction endpoints, counted by the rational Sturm chain;
    a root at a midpoint is carved out in a window halved until it isolates
    that root.  Intervals are sorted."""
    lead = p[-1]
    bound = Fraction(math.floor(1 + max((abs(c / lead) for c in p[:-1]),
                                        default=Fraction(0))) + 1)

    def is_root(x):
        return poly_eval(p, x) == 0

    done = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = fraction_sturm_count(p, lo, hi)
        if n == 0:
            continue
        if n == 1:
            done.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if not is_root(mid):
            stack.append((lo, mid))
            stack.append((mid, hi))
        else:
            delta = (hi - lo) / 4
            while (is_root(mid - delta) or is_root(mid + delta)
                   or fraction_sturm_count(p, mid - delta, mid + delta) != 1):
                delta /= 2
            done.append((mid - delta, mid + delta))
            stack.append((lo, mid - delta))
            stack.append((mid + delta, hi))
    done.sort(key=lambda iv: iv[0] + iv[1])
    return done


# The oracle fields; x^4 - 10x^2 + 1 (the minimal polynomial of sqrt 2 +
# sqrt 3) and x^8 - 8x^6 + 20x^4 - 16x^2 + 2 (eight close roots); x^4 + 3x + 3
# and x^6 + x^3 - 5x + 4, whose chains drop two degrees below a member with
# a negative leading coefficient (an odd power of it would flip a sign);
# x^2 + 1, with no ordering; a degree-1 field; and the moduli with rational
# roots of the lazy-field tests, where x^3 - x takes the carve-out at 0.
ISOLATION_MODULI = [f.min_poly for f in ORACLE_FIELDS] + [
    (1, 0, -10, 0, 1),
    (2, 0, -16, 0, 20, 0, -8, 0, 1),
    (3, 3, 0, 0, 1),
    (4, -5, 0, 1, 0, 0, 1),
    (1, 0, 1),
    (Fraction(3, 7), 1),
    (-1, 0, 1),
    (0, -1, 0, 1),
    (Fraction(-1, 4), 0, 1),
    (6, 0, -5, 0, 1),
]


@pytest.mark.parametrize("m", ISOLATION_MODULI, ids=str)
def test_isolating_intervals_match_the_fraction_oracle(m):
    field = lazy_field(m)
    bound = cauchy_bound(field.min_poly)
    assert count_roots(field._sturm, -bound, bound) == \
        fraction_sturm_count(field.min_poly, -bound, bound)
    assert [(p.lo, p.hi) for p in field.orderings] == fraction_isolate_real_roots(field.min_poly)
    assert [p.index for p in field.orderings] == list(range(len(field.orderings)))


@given(st.lists(st.integers(-6, 6) | st.fractions(-3, 3, max_denominator=4),
                min_size=1, max_size=5, unique=True),
       st.sampled_from([(), (-2, 0, 1), (1, 0, 1), (Fraction(1, 3), 1, 1)]))
@settings(deadline=None)
@example([0, 1, -1], ())
@example([-2, 2, Fraction(1, 2), Fraction(-3, 4)], (-2, 0, 1))
def test_isolating_intervals_with_rational_roots_match_the_fraction_oracle(roots, extra):
    """Products of distinct linear factors, times a quadratic without a
    rational root: bisection meets the rational roots at its midpoints."""
    m = (Fraction(1),)
    for r in roots:
        m = poly_mul(m, (-Fraction(r), Fraction(1)))
    if extra:
        m = poly_mul(m, tuple(Fraction(c) for c in extra))
    field = lazy_field(m)
    assert [(p.lo, p.hi) for p in field.orderings] == fraction_isolate_real_roots(field.min_poly)
    assert len(field.orderings) == len(roots) + 2 * (extra == (-2, 0, 1))


@pytest.mark.parametrize("m", [
    (0, 0, 1),                      # x^2
    (4, 0, -4, 0, 1),               # (x^2 - 2)^2
    (2, -3, 0, 1),                  # (x - 1)^2 (x + 2)
    (Fraction(1, 4), 1, 1),         # (x + 1/2)^2
    (0, 0, 0, 2, 0, 6),             # 6 x^3 (x^2 + 1/3)
])
def test_a_repeated_factor_is_rejected(m):
    with pytest.raises(ValueError, match="^minimal polynomial must be squarefree$"):
        NumberField(m)


@given(st.lists(_rationals, min_size=1, max_size=3), st.lists(_rationals, max_size=2),
       st.booleans())
@settings(deadline=None)
def test_squarefree_decision_matches_the_fraction_gcd(g, h, square):
    """m = g^2 h or g h, monic: the integer chain rejects m exactly when
    gcd(m, m') over Q is not constant, and its members are primitive; L*m
    is the integer multiple of m by the lcm of its denominators."""
    g, h = tuple(g) + (Fraction(1),), tuple(h) + (Fraction(1),)
    m = poly_mul(poly_mul(g, g) if square else g, h)
    chain = sturm_chain(m)
    assert all(math.gcd(*q) == 1 for q in chain)
    repeated = len(poly_gcd(m, _trim([i * c for i, c in enumerate(m)][1:]))) > 1
    if repeated:
        with pytest.raises(ValueError, match="squarefree"):
            lazy_field(m)
        return
    field = lazy_field(m)
    big = math.lcm(*(c.denominator for c in m))
    assert field._scaled_m == tuple(int(c * big) for c in m)
    assert [(p.lo, p.hi) for p in field.orderings] == fraction_isolate_real_roots(m)


@st.composite
def _field_and_coeffs(draw, count):
    field = draw(st.sampled_from(ORACLE_FIELDS))
    vecs = [draw(st.lists(_rationals, min_size=field.degree, max_size=field.degree))
            for _ in range(count)]
    return field, vecs


def _reference_reduce(field, p):
    return poly_divmod(p, field.min_poly)[1]


def _assert_canonical(e):
    assert e.den > 0
    assert not e.num or e.num[-1] != 0
    assert math.gcd(e.den, *e.num) == 1


@given(_field_and_coeffs(2))
def test_element_arithmetic_matches_fraction_polynomials(case):
    field, (u, v) = case
    a, b = field.element(u), field.element(v)
    pa, pb = _reference_reduce(field, tuple(u)), _reference_reduce(field, tuple(v))
    assert a.coeffs == pa and b.coeffs == pb
    results = {
        "add": (a + b, poly_add(pa, pb)),
        "sub": (a - b, poly_sub(pa, pb)),
        "mul": (a * b, _reference_reduce(field, poly_mul(pa, pb))),
        "neg": (-a, poly_sub((), pa)),
        "scalar": (a * u[0], _reference_reduce(field, poly_mul(pa, (u[0],) if u[0] else ()))),
    }
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert got.coeffs == want, name
    assert (a == b) == (pa == pb)
    assert a == field.element(list(pa)) and hash(a) == hash(field.element(list(pa)))
    if pa:
        inv = a.inverse()
        _assert_canonical(inv)
        assert _reference_reduce(field, poly_mul(inv.coeffs, pa)) == (Fraction(1),)


# Fields for the integer sign and inverse kernels against the Fraction
# oracles: the oracle fields plus the reducible moduli x^2 - 1, x^3 - x and
# x^2 - 1/4, with factors of each modulus that make elements vanish at some
# but not all of its roots.  On x^2 - 1/4 bisection of (0, 2) lands exactly
# on the root 1/2.
SIGN_FIELDS = {
    (1, 3, -3, -4, 1, 1): [],
    (-2, 0, 1): [],
    (Fraction(-1, 5), Fraction(-1, 3), 0, 1): [],
    (-1, 0, 1): [(-1, 1), (1, 1)],
    (0, -1, 0, 1): [(0, 1), (-1, 1), (1, 1), (-1, 0, 1), (0, -1, 1)],
    (Fraction(-1, 4), 0, 1): [(Fraction(-1, 2), 1), (Fraction(1, 2), 1)],
}


@st.composite
def _sign_case(draw, count=6):
    """A modulus and `count` coefficient vectors, each of degree < d; some
    are multiples of a factor of the modulus."""
    m = draw(st.sampled_from(sorted(SIGN_FIELDS, key=str)))
    d = len(m) - 1
    factors = SIGN_FIELDS[m]
    vecs = []
    for _ in range(count):
        v = tuple(draw(st.lists(_rationals, min_size=d, max_size=d)))
        if factors and draw(st.booleans()):
            f = draw(st.sampled_from(factors))
            v = poly_mul(v[:d - len(f) + 1], tuple(Fraction(c) for c in f))
        vecs.append(v)
    return m, vecs


QUINTIC = (1, 3, -3, -4, 1, 1)
ONE_REAL_ROOT = (Fraction(-1, 5), Fraction(-1, 3), 0, 1)


def test_sign_examples_cover_each_side_of_zero():
    """The examples below reach both two-product forms of `sign_at` and the
    four-product one: the quintic's root intervals lie left of 0 (orderings
    0-2) and right of it (3-4), and the cubic with one real root keeps the
    interval (-B, B), which straddles 0, until its first bisection."""
    quintic, cubic = lazy_field(QUINTIC), lazy_field(ONE_REAL_ROOT)
    assert [p._H <= 0 for p in quintic.orderings] == [True] * 3 + [False] * 2
    assert [p._L >= 0 for p in quintic.orderings] == [False] * 3 + [True] * 2
    (root,) = cubic.orderings
    assert root._L < 0 < root._H


@given(_sign_case(), st.randoms(use_true_random=False))
@example((QUINTIC, [(1, -2, 0, 1, 0), (Fraction(-7, 3), 0, 5, 0, -1), (0, 1),
                    (3, Fraction(1, 2), -4, 0, 1), (-1, 0, 2, 1, -1), (0, 0, 1, -3)]),
         random.Random(0))
@example((ONE_REAL_ROOT, [(0, 1), (1, -3, 2), (Fraction(-1, 2), 0, 1), (2, 1, -1),
                          (0, -5, 3), (Fraction(1, 7), 1)]),
         random.Random(1))
def test_sign_at_matches_fraction_oracle_in_any_query_order(case, rng):
    """Signs and refinements match the Fraction oracle, whichever order the
    queries come in, on root intervals left of 0, right of 0 and across
    it (`test_sign_examples_cover_each_side_of_zero`)."""
    m, vecs = case
    queries = [(i, k) for i in range(len(vecs))
               for k in range(len(lazy_field(m).orderings))]
    answers = []
    for order in (queries, rng.sample(queries, len(queries))):
        field, oracle = lazy_field(m), FractionSigns()
        elems = [field.element(list(v)) for v in vecs]
        got = {}
        for i, k in order:
            p = field.orderings[k]
            try:
                got[i, k] = sign_at(elems[i], p)
            except ReducibleModulusError:
                got[i, k] = "zero divisor"
            # sign 0 for the zero element only; a nonzero element that the
            # oracle finds 0 at P raises
            want = oracle.sign_at(elems[i], p)
            assert got[i, k] == (want if want or elems[i].is_zero() else "zero divisor")
            # Same refinement sequence: the integer interval is the
            # oracle's Fraction interval.
            assert (Fraction(p._L, p._D), Fraction(p._H, p._D)) == \
                oracle.current.get(id(p), (p.lo, p.hi))
        answers.append(got)
    assert answers[0] == answers[1]


def test_sign_at_bisection_lands_on_exact_root():
    field = lazy_field([Fraction(-1, 4), 0, 1])  # roots -1/2 and 1/2
    neg, pos = field.orderings
    assert (pos.lo, pos.hi) == (0, 2)
    a = field.element([Fraction(-3, 4), 1])  # x - 3/4 is -1/4 at 1/2
    assert sign_at(a, pos) == -1
    with pytest.raises(ReducibleModulusError):  # x - 1/2 is 0 at 1/2
        sign_at(field.element([Fraction(-1, 2), 1]), pos)
    assert sign_at(field.element([Fraction(1, 2), 1]), pos) == 1
    assert sign_at(field.element([Fraction(-1, 2), 1]), neg) == -1


@given(_sign_case(count=3))
def test_inverse_matches_fraction_oracle(case):
    m, vecs = case
    field = lazy_field(m)
    for v in vecs:
        a = field.element(list(v))
        try:
            want = fraction_inverse(a)
        except ZeroDivisionError as exc:
            with pytest.raises(ZeroDivisionError, match=str(exc)):
                a.inverse()
            continue
        inv = a.inverse()
        _assert_canonical(inv)
        assert inv == want
        assert a * inv == 1


def test_zero_divisor_inverse_raises():
    field = lazy_field([-1, 0, 1])
    for a in (field.element([-1, 1]), field.element([3, 3])):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            a.inverse()
    a = field.element([2, 1])
    assert a * a.inverse() == 1


@pytest.mark.parametrize("modulus, element, factor, signs", [
    # x^3 - x: x is 0 at the root 0
    ([0, -1, 0, 1], [0, 1], "x", [-1, None, 1]),
    # (x^2 - 2)(x^2 - 3): x^2 - 2 is 0 at -sqrt 2 and sqrt 2
    ([6, 0, -5, 0, 1], [-2, 0, 1], "-2 + x^2", [1, None, None, 1]),
])
def test_reducible_modulus_fails_loudly(modulus, element, factor, signs):
    """A nonzero element that is 0 at an ordering, or has no inverse, is a
    zero divisor: a typed error names the factor it shares with the
    modulus (None marks the orderings where sign_at raises)."""
    field = lazy_field(modulus)
    a = field.element(element)
    message = rf"^element is a zero divisor, not invertible: .* factor {re.escape(factor)}$"
    with pytest.raises(ReducibleModulusError, match=message) as exc:
        a.inverse()
    assert isinstance(exc.value, HermsigError) and isinstance(exc.value, ZeroDivisionError)
    got = []
    for p in field.orderings:
        try:
            got.append(sign_at(a, p))
        except ReducibleModulusError as err:
            assert re.match(message, str(err))
            got.append(None)
    assert got == signs


# The prime p = 2^31 - 1, and sqrt 2 mod p (p = 7 mod 8): a gcd taken
# modulo p would see a common factor of x - s and x^2 - 2, and a modulus
# whose denominators p divides loses its degree there.
_P = 2**31 - 1
_S = pow(2, (_P + 1) // 4, _P)


@st.composite
def _zero_test_case(draw):
    """m = f * g, reducible when g has degree >= 1, where lead(f) is 1, 2 or
    the prime p (the monic m then has denominators 2 or p), and a nonzero
    element h, or f * h, which shares the factor f with m."""
    small = st.integers(-3, 3)
    f = draw(st.lists(small, min_size=1, max_size=2))
    f.append(draw(st.sampled_from([1, 2, _P])))
    g = draw(st.lists(small, max_size=3)) + [1]
    try:
        field = lazy_field(poly_mul(tuple(f), tuple(g)))
    except ValueError:  # not squarefree
        assume(False)
    a = field.element(draw(st.lists(small, max_size=field.degree)))
    if len(f) <= field.degree and draw(st.booleans()):
        a = a * field.element(f)
    assume(not a.is_zero())
    return field, a


_PRECHECK_CASES = [
    # (modulus, element, coprime over Q)
    (F5.min_poly, [1, 1], True),
    ([6, 0, -5, 0, 1], [-2, 0, 1], False),             # shares x^2 - 2
    (poly_mul((-1, _P), (-2, 0, 1)), [-1, _P], False),  # shares p x - 1; p divides L
    (poly_mul((-1, _P), (-2, 0, 1)), [0, 1], True),     # coprime, p divides L
    ([-2, 0, 1], [-_S, 1], True),                       # coprime over Q, not mod p
]


def _check_zero_test(field, a):
    """The zero test raises exactly where the Fraction gcd of a and m has a
    root in the ordering's defining interval, and names that gcd; refining
    the ordering first changes nothing."""
    g = poly_gcd(a.coeffs, field.min_poly)
    for refinements in (0, 3):
        for p in field.orderings:
            for _ in range(refinements):
                p._refine_once()
            if len(g) > 1 and fraction_sturm_count(g, p.lo, p.hi) >= 1:
                factor = re.escape(render_element(field.element(list(g))))
                with pytest.raises(ReducibleModulusError, match=rf"factor {factor}$"):
                    _zero_test(a, p)
            else:
                _zero_test(a, p)


@pytest.mark.parametrize("modulus, element, coprime", _PRECHECK_CASES)
def test_zero_test_precheck_cases(modulus, element, coprime):
    """Moduli and elements on which a zero test modulo the prime p would
    mislead: the zero test over Q sees through each."""
    field = lazy_field(modulus)
    a = field.element(element)
    assert (poly_gcd(a.coeffs, field.min_poly) == (1,)) is coprime
    _check_zero_test(field, a)


@given(_zero_test_case())
def test_zero_test_precheck_agrees_with_the_gcd(case):
    _check_zero_test(*case)


_chain_coeffs = st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4)


def _integer_multiple(p):
    """The integer polynomial L p, for L the lcm of the denominators of p."""
    big = math.lcm(*(c.denominator for c in p))
    return tuple(int(c * big) for c in p)


@given(st.lists(_chain_coeffs, min_size=1, max_size=3), st.lists(_chain_coeffs, max_size=3),
       st.lists(_chain_coeffs, min_size=1, max_size=4), st.booleans())
@example([0], [-2, 0], [-_S, 1], False)  # x (x^2 - 2) and x - s: coprime over Q
@example([-2, 0], [-3, 0], [1, 0, 1], True)  # (x^2 - 2)(x^2 - 3) and (x^2 - 2)(1 + x^2)
@example([Fraction(1, 3)], [Fraction(-1, 2)], [1], False)
def test_remainder_chain_ends_at_the_fraction_gcd(f, g, h, shared):
    """The last member of the remainder chain of L*m and an integer
    multiple of a (of degree < deg m) is gcd(a, m) up to a nonzero rational
    factor: for m = f g with a = f h mod m, which shares f, and with a = h
    mod m, mostly coprime to m; every remainder is a primitive integer
    polynomial."""
    f, g = tuple(map(Fraction, f)) + (Fraction(1),), tuple(map(Fraction, g)) + (Fraction(1),)
    m = poly_mul(f, g)
    a = poly_divmod(poly_mul(f, tuple(map(Fraction, h))) if shared else _trim(h), m)[1]
    assume(a)
    chain = _remainder_chain(_integer_multiple(m), _integer_multiple(a))
    assert all(type(c) is int for q in chain for c in q)
    assert all(math.gcd(*q) == 1 for q in chain[2:])
    last = chain[-1]
    assert tuple(Fraction(c, last[-1]) for c in last) == poly_gcd(a, m)


@given(st.sampled_from([QQ] + ORACLE_FIELDS),
       st.lists(_rationals | st.integers(-10**6, 10**6), max_size=12))
@example(F5, [Fraction(1, 3)] + [0] * 9 + [7])
@example(ORACLE_FIELDS[2], [1, 0, 0, 0, 1])
def test_element_of_a_long_vector_is_the_fraction_remainder(field, coeffs):
    """A vector longer than d reduces by a pseudo-remainder modulo L*m to
    the canonical element of its remainder modulo m over Q."""
    got = field.element(coeffs)
    _assert_canonical(got)
    assert got.coeffs == poly_divmod(tuple(map(Fraction, coeffs)), field.min_poly)[1]


_int_coeffs = st.lists(st.integers(-10**12, 10**12) | st.booleans(), max_size=8)


@given(st.sampled_from([QQ] + ORACLE_FIELDS), _int_coeffs)
@example(QQ, [True, False])
@example(F5, [3, 0, -1, 0, 0, 0])
def test_element_from_integers_matches_the_fraction_route(field, coeffs):
    """Integer coefficients, at most d of them, go straight to the
    numerators; the result is the element of their Fractions, reduced."""
    got = field.element(coeffs)
    want = field.element([Fraction(c) for c in coeffs])
    _assert_canonical(got)
    assert (got.num, got.den) == (want.num, want.den)
    assert all(type(v) is int for v in got.num)
    if len(coeffs) == 1:
        assert field.element(coeffs[0]) == got


def test_hash_is_consistent_with_equality():
    for field in (SQRT2, F5):
        x = field.gen
        built = field.element([Fraction(1, 2), -3])
        computed = (x * -6 + 1) / 2
        from_fracs = FieldElement(field, (1, -6), 2)  # the canonical (num, den), given
        assert built == computed == from_fracs
        assert hash(built) == hash(computed) == hash(from_fracs)
        assert len({built, computed, from_fracs}) == 1
    # the same (num, den) in two fields: equal hashes, unequal elements
    a, b = SQRT2.element([1, 2]), F5.element([1, 2])
    assert (a.num, a.den) == (b.num, b.den)
    assert a != b and b != a
    assert len({a, b}) == 2
    # a rational element hashes like the equal int or Fraction
    for field in (SQRT2, F5):
        for value in (0, 3, -7, Fraction(1, 2), Fraction(-9, 4), 2**70 + 1):
            elt = field.element(value)
            assert elt == value and hash(elt) == hash(value)
            assert value in {elt} and elt in {value}
        assert {field.element(3): "three"}[3] == "three"


# -- the rational-root test at construction ---------------------------------


def _oracle_rational_roots(m):
    """The rational roots of m, by the rational root theorem: every n / q
    with n | a_0 and q | a_d for the integer multiple a of m.  Small
    coefficients only: it enumerates divisors."""
    a = [int(c * math.lcm(*(c.denominator for c in m))) for c in m]
    if not a[0]:
        return {Fraction(0)}

    def divisors(v):
        return [k for k in range(1, abs(v) + 1) if v % k == 0]

    return {Fraction(sign * n, q) for n in divisors(a[0]) for q in divisors(a[-1])
            for sign in (1, -1) if poly_eval(tuple(m), Fraction(sign * n, q)) == 0}


@pytest.mark.parametrize("modulus, factor", [
    ([0, -1, 0, 1], "x"),                                  # x^3 - x
    ([1, -3, 2], "-1 + x"),                                # (2x - 1)(x - 1)
    ([-3 * 10**20, 10**20 - 3, 1], "100000000000000000000 + x"),  # (x + 10^20)(x - 3)
    ([-1, 2, -1, 2, -3, 6], "-1/2 + x"),                   # (2x - 1)(3x^4 + x^2 + 1)
])
def test_linear_factor_rejected_at_construction(modulus, factor):
    with pytest.raises(ReducibleModulusError,
                       match=rf"^minimal polynomial is reducible: it has the factor {re.escape(factor)}$"):
        NumberField(modulus)


@pytest.mark.parametrize("modulus", [[0, -1, 0, 1], [1, -3, 2]])
def test_linear_factor_is_a_session_parse_error(modulus):
    from hermsig.session import SessionParseError, parse_session

    doc = {"field": {"min_poly": [str(c) for c in modulus]}, "commands": []}
    with pytest.raises(SessionParseError, match="reducible") as exc:
        parse_session(json.dumps(doc))
    assert exc.value.path == "field.min_poly"


def test_reducible_modulus_without_rational_root_is_caught_lazily():
    """(x^2 - 2)(x^2 - 3) has no rational root: it builds, with 4
    orderings, and a zero divisor raises once it turns up.  So does a large
    irreducible x^2 - 2 * 10^40, whose constant term is not factored."""
    field = NumberField([6, 0, -5, 0, 1])
    assert len(field.orderings) == 4
    with pytest.raises(ReducibleModulusError, match=r"factor -2 \+ x\^2$"):
        field.element([-2, 0, 1]).inverse()
    assert NumberField([-2 * 10**40, 0, 1]).degree == 2


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
       st.integers(-4, 4), st.integers(1, 4), st.booleans())
def test_rational_root_matches_the_divisor_oracle(g, n, q, linear):
    """m = g, or (q x - n) g: _rational_root finds a root exactly when the
    rational root theorem does."""
    g = [Fraction(c) for c in g] + [Fraction(1)]
    m = poly_mul((Fraction(-n), Fraction(q)), tuple(g)) if linear else tuple(g)
    if len(m) < 3:
        return
    m = tuple(c / m[-1] for c in m)
    assume(len(poly_gcd(m, _trim([i * c for i, c in enumerate(m)][1:]))) == 1)
    root = _rational_root(m)
    roots = _oracle_rational_roots(m)
    assert (root is None) == (not roots)
    assert root is None or root in roots


# -- powers -----------------------------------------------------------------


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (8, 3), (13, 5)])
def test_power_product_counts(monkeypatch, n, products):
    """Square-and-multiply makes (bit length - 1) squarings and (set bits
    - 1) other products, and none by 1: x**8 makes 3, x**1 none."""
    x = F5.element([1, 2, 0, -1])
    want = F5.one
    for _ in range(n):
        want = want * x
    calls = []
    mul = FieldElement.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    assert x ** n == want
    assert len(calls) == products


# -- the multiply-accumulate and the cached multiplication matrix ------------

# Q(sqrt 2), the quintic, a monic m with denominators (2x^2 - 3: L = 2, so
# each matrix carries the scale 2), and the reducible (x^2 - 2)(x^2 - 3),
# with factors whose multiples are zero divisors.
DOT_FIELDS = {
    SQRT2: [],
    F5: [],
    NumberField([-3, 0, 2]): [],
    NumberField([6, 0, -5, 0, 1]): [(-2, 0, 1), (-3, 0, 1)],
}


@st.composite
def _dot_case(draw):
    field = draw(st.sampled_from(list(DOT_FIELDS)))
    factors = DOT_FIELDS[field]
    d = field.degree

    def operand():
        kind = draw(st.sampled_from(["zero", "rational", "full", "full", "divisor"]))
        if kind == "zero":
            return field.zero
        if kind == "rational":
            return field.element(draw(_rationals))
        v = tuple(draw(st.lists(_rationals, min_size=d, max_size=d)))
        if kind == "divisor" and factors:
            f = draw(st.sampled_from(factors))
            v = poly_mul(v[:d - len(f) + 1], tuple(Fraction(c) for c in f))
        return field.element(list(v))

    terms = [(draw(st.sampled_from([1, -1])), operand(), operand())
             for _ in range(draw(st.integers(0, 4)))]
    base = draw(st.none() | st.just(None).map(lambda _: operand()))
    return field, terms, base


@given(_dot_case())
@example((SQRT2, [], None))
@example((SQRT2, [], SQRT2.gen))
def test_dot_matches_term_by_term_and_fraction_polynomials(case):
    """NumberField.dot equals the sum of its products term by term, and the
    Fraction reduction of the polynomial products (which sees a lost scale
    of a non-integral modulus)."""
    field, terms, base = case
    got = field.dot(terms, base)
    _assert_canonical(got)
    want = field.zero if base is None else base
    ref = () if base is None else base.coeffs
    for sign, a, b in terms:
        want = want + a * b if sign > 0 else want - a * b
        p = _reference_reduce(field, poly_mul(a.coeffs, b.coeffs))
        ref = poly_add(ref, p if sign > 0 else poly_sub((), p))
    assert got == want
    assert got.coeffs == ref


@given(_dot_case())
def test_an_element_with_its_matrix_cached_equals_a_fresh_one(case):
    """Building the multiplication matrix (as a right operand) changes
    nothing an element shows: equality, hash, inverse and norm agree with a
    fresh element of the same (num, den), and the trace of the matrix is
    the trace of multiplication by the element."""
    from hermsig.quadforms import field_trace

    field, terms, _ = case
    for _, _, b in terms:
        if b.is_rational():
            continue
        (field.gen + 1) * b  # builds the matrix of b
        assert b._mat is not None
        fresh = FieldElement(field, b.num, b.den)
        assert fresh._mat is None
        assert b == fresh and fresh == b and hash(b) == hash(fresh)
        for method in (FieldElement.inverse, FieldElement.norm):
            try:
                want = method(FieldElement(field, b.num, b.den))
            except ReducibleModulusError:  # a zero divisor: singular matrix
                with pytest.raises(ReducibleModulusError):
                    method(b)
            else:
                assert method(b) == want
        basis = [field.element([0] * j + [1]) for j in range(field.degree)]
        assert field_trace(b) == sum(((b * e).coeffs + (0,) * field.degree)[j]
                                     for j, e in enumerate(basis))
