import itertools
import random
import time

import pytest

from hermsig.algebras import AlgebraWithInvolution, is_invertible
from hermsig.cones import PositiveCone
from hermsig.errors import NilOrderingError
from hermsig.field import QQ, NumberField
from hermsig.hermitian import HermitianForm, reference_form, scale_by_quadratic, signature
from hermsig.quadforms import QuadraticForm
from hermsig.spectra import (
    ConeSpace,
    FundamentalDescriptor,
    PrimeIdealPair,
    cone_space_topology,
    count_open_sets,
    generate_topology,
    ideal_membership,
    image_generator,
    is_t0,
    morita_cone_maps,
    morphism_distinctness,
    prime_property_sample,
    topology_compare,
)
from cone_helpers import (
    basic_open,
    every_generator_pullback,
    labels,
    pool_generators,
    sampled_morita_checks,
)
from prime_oracle import sampled_prime_check, witness_holds

SQRT2 = NumberField([-2, 0, 1])
# the totally real quintic of the cone_search workload, and 2cos(pi/16)
F5 = NumberField([1, 3, -3, -4, 1, 1])
F8 = NumberField([2, 0, -16, 0, 20, 0, -8, 0, 1])
F4 = NumberField([2, 0, -4, 0, 1])  # x^4 - 4x^2 + 2, roots +-sqrt(2 +- sqrt 2)
P0 = QQ.orderings[0]

HAMILTON1 = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
SO2 = AlgebraWithInvolution(QQ, "split_orth", 2)


def test_signature_kernel_membership():
    pair = PrimeIdealPair("signature", HAMILTON1, ordering=P0)
    q0 = QuadraticForm(QQ, [1, -1])
    h0 = HermitianForm.diagonal(HAMILTON1, [1, -2])
    assert ideal_membership(q0, h0, pair) == (True, True)
    q1 = QuadraticForm(QQ, [1])
    h1 = HermitianForm.diagonal(HAMILTON1, [1])
    assert ideal_membership(q1, h1, pair) == (False, False)


def test_mod_p_membership_and_validation():
    pair = PrimeIdealPair("mod_p", HAMILTON1, ordering=P0, p=3)
    q = QuadraticForm(QQ, [1, 1, 1])
    h = HermitianForm.diagonal(HAMILTON1, [1, 1, 1])
    assert ideal_membership(q, h, pair) == (True, True)
    with pytest.raises(ValueError):
        PrimeIdealPair("mod_p", HAMILTON1, ordering=P0, p=2)
    with pytest.raises(ValueError):
        PrimeIdealPair("mod_p", HAMILTON1, ordering=P0, p=9)


def test_image_generator_values():
    assert image_generator(AlgebraWithInvolution(QQ, "split_orth", 1)) == 1
    assert image_generator(SO2) == 2
    assert image_generator(AlgebraWithInvolution(QQ, "split_orth", 3)) == 1
    assert image_generator(AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)) == 2


def test_fundamental_membership_closed():
    desc = FundamentalDescriptor([], closed=True)
    pair = PrimeIdealPair("fundamental", HAMILTON1, descriptor=desc)
    even_zero = HermitianForm.diagonal(HAMILTON1, [1, -2])  # rank 2, sig 0
    assert ideal_membership(QuadraticForm(QQ, [1, 1]), even_zero, pair) == (True, True)
    odd = HermitianForm.diagonal(HAMILTON1, [1])
    assert ideal_membership(QuadraticForm(QQ, [1]), odd, pair) == (False, False)
    # adding a generator enlarges N
    desc2 = FundamentalDescriptor([odd], closed=True)
    pair2 = PrimeIdealPair("fundamental", HAMILTON1, descriptor=desc2)
    assert ideal_membership(QuadraticForm(QQ, [1]), odd, pair2)[1]


def test_prime_property_passes_for_honest_pairs():
    for pair in (
        PrimeIdealPair("signature", HAMILTON1, ordering=P0),
        PrimeIdealPair("mod_p", HAMILTON1, ordering=P0, p=5),
        PrimeIdealPair("fundamental", HAMILTON1,
                       descriptor=FundamentalDescriptor([], closed=True)),
    ):
        assert prime_property_sample(pair).passed


def test_is_prime_reads_the_integer_square_root():
    """Trial division stops at isqrt(n); the float square root it read
    before raised OverflowError on 10**400."""
    from hermsig.spectra import _is_prime

    assert _is_prime(2**31 - 1)
    assert not _is_prime(10**400)
    assert not _is_prime(10**400 + 1)  # 353 divides 10^16 + 1, hence 10^400 + 1
    assert not _is_prime(1_000_003 ** 2)
    assert [n for n in range(30) if _is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_fabricated_raw_descriptor_fails_ideal_axiom():
    # over Q(sqrt2) a raw descriptor without the fundamental-ideal closure
    # fails the ideal axiom
    alg = AlgebraWithInvolution(SQRT2, "split_orth", 1)
    theta = SQRT2.gen
    gen = HermitianForm.diagonal(alg, [1, 1, theta])  # table (3, 1)
    pair = PrimeIdealPair("fundamental", alg,
                          descriptor=FundamentalDescriptor([gen], closed=False))
    report = prime_property_sample(pair)
    assert not report.passed
    assert report.failed_axiom == "ideal"
    assert witness_holds(pair, report)


def test_morphism_triviality_flag():
    allnil = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1)
    assert allnil.is_nil(P0)
    assert not HAMILTON1.is_nil(P0)


def test_morphism_distinctness():
    alg = AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=-1)
    p1, p2 = SQRT2.orderings
    res = morphism_distinctness(alg, p1, p2)
    assert not res.equivalent
    from hermsig.hermitian import signature

    assert signature(res.witness, p1) != signature(res.witness, p2)
    assert morphism_distinctness(alg, p1, p1).equivalent


def test_cone_space_counts_and_basic_opens():
    space = ConeSpace(HAMILTON1)
    assert len(space) == 2
    whole = basic_open(space, [])
    assert whole == frozenset({0, 1})
    one = basic_open(space, [HAMILTON1.one_element])
    assert labels(space, one) == [(0, 1)]
    both = basic_open(space, [HAMILTON1.one_element, -HAMILTON1.one_element])
    assert both == frozenset()


def test_generate_topology_small():
    sierpinski = generate_topology(2, [frozenset({0})])
    assert sierpinski == (frozenset({0}), frozenset({0, 1}))
    assert is_t0(sierpinski) and count_open_sets(sierpinski) == 3
    indiscrete = generate_topology(2, [])
    assert not is_t0(indiscrete) and count_open_sets(indiscrete) == 2
    discrete = generate_topology(2, [frozenset({0}), frozenset({1})])
    assert is_t0(discrete) and count_open_sets(discrete) == 4
    assert generate_topology(0, []) == () and count_open_sets(()) == 1


def union_closure_topology(size, subbasic):
    """Reference: close the subbasis under pairwise intersection, then the
    basis under pairwise union, round after round."""
    whole = frozenset(range(size))
    basis = {whole}
    pool = set(subbasic)
    while True:
        new = {a & b for a in pool | basis for b in pool} - (pool | basis)
        if not new:
            break
        pool |= new
    topo = {frozenset(), whole} | basis | pool
    while True:
        new = {a | b for a in topo for b in topo} - topo
        if not new:
            break
        topo |= new
    return topo


def test_generate_topology_matches_union_closure():
    """The minimal neighbourhoods, the T0 verdict and the open-set count
    agree with the listed topology on random subbases."""
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randint(0, 6)
        subbasic = [frozenset(x for x in range(size) if rng.random() < 0.5)
                    for _ in range(rng.randint(0, 5))]
        topo = union_closure_topology(size, subbasic)
        minimal = generate_topology(size, subbasic)
        assert minimal == tuple(frozenset.intersection(*[u for u in topo if x in u])
                                for x in range(size))
        assert count_open_sets(minimal) == len(topo)
        assert is_t0(minimal) == all(any((i in u) != (j in u) for u in topo)
                                     for i, j in itertools.combinations(range(size), 2))


def test_count_open_sets_scales_without_listing():
    start = time.monotonic()
    assert count_open_sets(tuple(frozenset({i}) for i in range(40))) == 2 ** 40
    chain = tuple(frozenset(range(i + 1)) for i in range(30))
    assert count_open_sets(chain) == 31 and is_t0(chain)
    assert time.monotonic() - start < 0.5


def test_topology_compare_and_t0():
    theta = SQRT2.gen
    instances = [
        AlgebraWithInvolution(QQ, "split_orth", 1),
        AlgebraWithInvolution(QQ, "split_orth", 2),
        HAMILTON1,
        AlgebraWithInvolution(QQ, "unitary", 1, delta=-1),
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1),
        AlgebraWithInvolution(SQRT2, "split_orth", 1),
        AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=theta),
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1),  # empty space
    ]
    for alg in instances:
        space, topo = cone_space_topology(alg)
        assert topology_compare(space), alg
        assert is_t0(topo), alg


def test_singletons_cover_basic_opens_on_matrix_instances():
    # the exact generator set makes every cone its own minimal neighbourhood
    for alg in (
        AlgebraWithInvolution(SQRT2, "split_orth", 2),
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1),
    ):
        space, minimal = cone_space_topology(alg)
        assert minimal == tuple(frozenset({i}) for i in range(len(space)))


def test_morita_cone_maps_quat2():
    alg = AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1)
    report = morita_cone_maps(alg)
    assert report.ok
    assert len(report.pairs) == 2

    so = AlgebraWithInvolution(SQRT2, "split_orth", 2)
    report = morita_cone_maps(so)
    assert report.ok
    assert len(report.pairs) == 4

    allnil = AlgebraWithInvolution(QQ, "quat_symp", 2, a=1, b=1)
    report = morita_cone_maps(allnil)
    assert report.ok and report.pairs == []


def test_full_span_descriptor_reported_not_proper():
    odd = HermitianForm.diagonal(HAMILTON1, [1])
    even = HermitianForm.diagonal(HAMILTON1, [1, 1])
    pair = PrimeIdealPair("fundamental", HAMILTON1,
                          descriptor=FundamentalDescriptor([odd, even], closed=True))
    report = prime_property_sample(pair)
    assert not report.passed and report.failed_axiom == "proper"
    assert witness_holds(pair, report)


def test_mod_p_membership_on_even_image_family():
    skew = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1)
    pair = PrimeIdealPair("mod_p", skew, ordering=P0, p=3)
    k = skew.quat.k
    # rank-3 diagonal of the definite generator: signature +-6 = c * (+-3)
    h = HermitianForm.diagonal(skew, [skew.scalar_element(k)] * 3)
    from hermsig.hermitian import signature as sig

    value = sig(h, P0)
    assert abs(value) == 6
    in_i, in_n = ideal_membership(QuadraticForm(QQ, [1, 1, 1]), h, pair)
    assert (in_i, in_n) == (True, True)
    single = HermitianForm.diagonal(skew, [skew.scalar_element(k)])
    assert ideal_membership(QuadraticForm(QQ, [1]), single, pair)[1] is False
    assert prime_property_sample(pair).passed


def test_morita_cone_maps_quat_skew_matrix():
    alg = AlgebraWithInvolution(QQ, "quat_skew", 2, a=1, b=1)
    report = morita_cone_maps(alg)
    assert report.ok
    assert len(report.pairs) == 2


@pytest.mark.parametrize("alg", [
    AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1),
    AlgebraWithInvolution(SQRT2, "split_orth", 2),
    AlgebraWithInvolution(QQ, "quat_skew", 2, a=1, b=1),
], ids=["quat_symp", "split_orth_sqrt2", "quat_skew"])
def test_sampled_morita_checks_agree_with_the_exact_pullback(alg):
    """The trace and value checks on sampled cone members, which
    `morita_cone_maps` used to run, pass where the exact pullback does."""
    assert morita_cone_maps(alg).ok
    assert sampled_morita_checks(alg, random.Random(72), samples=4) == (True, True)


def _grid_algebras(field):
    return [
        AlgebraWithInvolution(field, "split_orth", 1),
        AlgebraWithInvolution(field, "split_orth", 2),
        AlgebraWithInvolution(field, "unitary", 1, delta=-1),
        AlgebraWithInvolution(field, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(field, "quat_symp", 1, a=-1, b=field.gen),
        AlgebraWithInvolution(field, "quat_skew", 1, a=1, b=1),
    ]


def test_morita_pullback_tests_the_seeds_only(monkeypatch):
    """The pullback compares the H-sets of the seeds of the pool of D; those
    of the scaled generators follow by the scaling rule.  quat_skew over the
    quintic has 3 seeds and 36 generators."""
    alg = AlgebraWithInvolution(F5, "quat_skew", 2, a=1, b=1)
    seen = []
    h_single = ConeSpace._h_single

    def recording(space, element):
        if space.algebra.n == 1:
            seen.append(element.coords())
        return h_single(space, element)

    monkeypatch.setattr(ConeSpace, "_h_single", recording)
    report = morita_cone_maps(alg)
    assert report.ok and len(report.pairs) == 10
    down = ConeSpace(alg.collapsed())
    seeds = [s.coords() for s in down._pool[0]]
    assert len(seeds) == 3 and len(pool_generators(down)) == 36
    assert seen == seeds


def _morita_grid():
    return list(dict.fromkeys(
        [alg.rebuild(n=2) for field in (SQRT2, F5) for alg in _grid_algebras(field)]
        + [AlgebraWithInvolution(field, "quat_skew", 2, a=1, b=field.gen)
           for field in (SQRT2, F5)]))


@pytest.mark.parametrize("alg", _morita_grid(),
                         ids=[f"{f}-{a}" for f in ("sqrt2", "quintic")
                              for a in ("split_orth", "unitary", "quat_symp",
                                        "quat_symp_mix", "quat_skew")]
                         + ["sqrt2-quat_skew_mix", "quintic-quat_skew_mix"])
def test_morita_seed_pullback_matches_every_generator(alg):
    """Deciding the pullback on the seeds gives the answer of testing every
    generator of the pool of D one by one."""
    assert morita_cone_maps(alg).ok == every_generator_pullback(alg)


def test_morita_tampered_seed_set_or_labels_are_not_ok(monkeypatch):
    """A wrong H-set for diag(s, 0) of one seed s makes the pullback fail,
    on the seeds and on every generator alike; so do cone lists whose
    labels differ, which the scaling rule reads."""
    alg = AlgebraWithInvolution(F5, "quat_skew", 2, a=1, b=1)
    assert morita_cone_maps(alg).ok and every_generator_pullback(alg)
    seed = ConeSpace(alg.collapsed())._pool[0][1]
    n, zero = alg.n, alg.entry_zero
    target = alg.element([[seed.rows[0][0] if r == c == 0 else zero
                           for c in range(n)] for r in range(n)]).coords()
    h_single = ConeSpace._h_single

    def tampered(space, element):
        got = h_single(space, element)
        return got ^ {0} if space.algebra.n == 2 and element.coords() == target else got

    with monkeypatch.context() as m:
        m.setattr(ConeSpace, "_h_single", tampered)
        assert not morita_cone_maps(alg).ok
        assert not every_generator_pullback(alg)

    id_pair = PositiveCone.id_pair

    def relabelled(cone):
        i, eps = id_pair(cone)
        return (i, -eps) if cone.algebra.n == 1 else (i, eps)

    # the same cones of D, in the same order, under the other orientation's
    # label: the seed H-sets still agree, the labels do not
    monkeypatch.setattr(PositiveCone, "id_pair", relabelled)
    report = morita_cone_maps(alg)
    assert not report.ok
    assert report.pairs[0] == ((0, 1), (0, -1))


@pytest.mark.parametrize("alg", [
    alg for field in (SQRT2, F5, F4) for alg in _grid_algebras(field)
    + [AlgebraWithInvolution(field, "quat_skew", 1, a=1, b=field.gen)]],
    ids=[f"{f}-{a}" for f in ("sqrt2", "quintic", "quartic")
         for a in ("split_orth1", "split_orth2", "unitary", "quat_symp",
                   "quat_symp_mix", "quat_skew", "quat_skew_mix")])
def test_generator_sets_derived_from_the_seeds_match_direct_membership(alg):
    """The H-sets and invertibility the space derives from its seeds by the
    scaling rule are those of every generator, tested one by one."""
    space = ConeSpace(alg)
    direct = ConeSpace(alg)
    generators = pool_generators(space)
    assert space.generator_sets == [direct._h_single(g) for g in generators]
    assert space.generator_invertible == [is_invertible(g) for g in generators]
    assert len(generators) == len(space.generator_sets)


def _grid_descriptors(alg):
    """Generator lists built from the reference form eta: none, eta, its
    multiples by <1, -1>, <1, 1> and <s_P> at the last non-nil P, and the
    products of eta with <1, -1> and every <1, s_P>."""
    fld = alg.field
    eta = reference_form(alg).form
    seps = [p.separator for p in alg.nonnil_orderings()]

    def times(*entries):
        return scale_by_quadratic(QuadraticForm(fld, entries), eta)

    return [[], [eta], [times(1, -1)], [times(1, 1)], [times(*seps[-1:] or [1])],
            [times(1, -1)] + [times(1, s) for s in seps]]


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "raw"])
@pytest.mark.parametrize("alg", _grid_algebras(SQRT2) + _grid_algebras(F5),
                         ids=[f"{f}-{a}" for f in ("sqrt2", "quintic")
                              for a in ("split_orth1", "split_orth2", "unitary",
                                        "quat_symp", "quat_symp_mix", "quat_skew")])
def test_prime_property_matches_the_sampled_oracle(alg, closed):
    """On every family and descriptor the exact decision gives the sampled
    oracle's answer at 30 trials, and its witness shows the failure."""
    for generators in _grid_descriptors(alg):
        pair = PrimeIdealPair("fundamental", alg,
                              descriptor=FundamentalDescriptor(generators, closed))
        exact = prime_property_sample(pair)
        oracle = sampled_prime_check(pair, random.Random(30), trials=30)
        assert (exact.passed, exact.failed_axiom) == (oracle.passed, oracle.failed_axiom)
        assert closed or not exact.passed
        for report in (exact, oracle):
            assert report.passed or witness_holds(pair, report)


def test_topology_compare_quat_skew_matrix():
    alg = AlgebraWithInvolution(QQ, "quat_skew", 2, a=1, b=1)
    space, topo = cone_space_topology(alg)
    assert topology_compare(space)
    assert is_t0(topo)


def _assert_separated(alg, pairs):
    orderings = alg.field.orderings
    for i, j in pairs:
        res = morphism_distinctness(alg, orderings[i], orderings[j])
        assert not res.equivalent
        assert (signature(res.witness, orderings[i])
                != signature(res.witness, orderings[j])), (alg, i, j)


CONE_SEARCH_F5 = [
    (AlgebraWithInvolution(F5, "split_orth", 1), 1024),
    (AlgebraWithInvolution(F5, "unitary", 1, delta=-1), 1024),
    (AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=-1), 1024),
    (AlgebraWithInvolution(F5, "quat_symp", 1, a=-1, b=F5.gen), 64),
]


@pytest.mark.parametrize("alg, open_sets", CONE_SEARCH_F5,
                         ids=["split_orth", "unitary", "quat_symp", "quat_symp_mix"])
def test_quintic_cone_spaces_are_discrete(alg, open_sets):
    """The theta, 1 +- theta generators left adjacent orderings unseparated:
    256 and 16 open sets, not T0."""
    space, minimal = cone_space_topology(alg)
    assert topology_compare(space) and is_t0(minimal)
    assert count_open_sets(minimal) == open_sets == 2 ** len(space)


@pytest.mark.parametrize("alg", [alg for alg, _ in CONE_SEARCH_F5]
                         + [AlgebraWithInvolution(F5, "quat_skew", 1, a=1, b=1)],
                         ids=["split_orth", "unitary", "quat_symp", "quat_symp_mix",
                              "quat_skew"])
def test_quintic_morphisms_separate_every_pair(alg):
    """Adjacent orderings such as (0, 1) used to exhaust the witness search;
    two nil orderings have no witness, and say so."""
    nil = {p.index for p in alg.nil_orderings()}
    pairs = [(i, j) for i, j in itertools.permutations(range(5), 2)
             if not {i, j} <= nil]
    _assert_separated(alg, pairs)
    if nil:
        p, q = (F5.orderings[i] for i in sorted(nil))
        assert (p.index, q.index) == (3, 4)
        for a, b in ((p, q), (q, p)):
            with pytest.raises(NilOrderingError, match="both nil"):
                morphism_distinctness(alg, a, b)


@pytest.mark.parametrize("family, params", [("split_orth", {}),
                                            ("quat_symp", {"a": -1, "b": -1})])
def test_degree_eight_cone_space_is_discrete(family, params):
    alg = AlgebraWithInvolution(F8, family, 1, **params)
    start = time.monotonic()
    space, minimal = cone_space_topology(alg)
    assert len(space) == 16 and is_t0(minimal)
    assert count_open_sets(minimal) == 65536 and topology_compare(space)
    assert time.monotonic() - start < 1
    _assert_separated(alg, itertools.permutations(range(8), 2))


@pytest.mark.parametrize("n", [1, 2])
def test_quintic_quat_skew_neighbourhoods_are_singletons(n):
    space, minimal = cone_space_topology(AlgebraWithInvolution(F5, "quat_skew", n, a=1, b=1))
    assert len(space) == 10
    assert minimal == tuple(frozenset({i}) for i in range(10))


@pytest.mark.parametrize("field", [SQRT2, F5, F4], ids=["sqrt2", "quintic", "quartic"])
def test_generator_scalar_signs_read_from_the_construction_match_sign_at(field):
    """`ConeSpace.generator_sets` reads sgn_Q of each pool scalar from its
    construction: 1 is positive everywhere, s_P at P only.  sign_at agrees
    at every ordering, nil ones included; the sets derived with those
    signs are the H-sets of every generator
    (`test_generator_sets_derived_from_the_seeds_match_direct_membership`)."""
    from hermsig.field import sign_at

    for alg in _grid_algebras(field):
        scalars = ConeSpace(alg)._pool[1]
        assert len(scalars) == 1 + len(alg.nonnil_orderings())
        for c, only in scalars:
            assert [sign_at(c, q) for q in field.orderings] == \
                [1 if only is None or q == only else -1 for q in field.orderings]


def test_separator_is_positive_at_its_ordering_only():
    from hermsig.field import sign_at

    for fld in (SQRT2, F4, F5, F8):
        for p in fld.orderings:
            assert [sign_at(p.separator, q) for q in fld.orderings] == \
                [1 if q == p else -1 for q in fld.orderings]
