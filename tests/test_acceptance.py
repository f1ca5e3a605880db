"""Acceptance suite: every criterion exact, one verdict line per criterion.

Sampled checks use fixed seeds; reruns are byte-identical.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from hermsig.algebras import AlgebraWithInvolution, is_invertible
from hermsig.cli import run_session
from hermsig.cones import (
    PositiveCone,
    enumerate_positive_cones,
    eta_maximal,
    find_sos_certificate,
    formally_real,
    positivity_sets,
    verify_certificate,
)
from hermsig.field import QQ, NumberField, sign_at
from hermsig.hermitian import (
    HermitianForm,
    knebusch_check,
    raw_signature,
    scale_by_quadratic,
    signature,
    split_oracle_signature,
)
from hermsig.quadforms import (
    GramQuadraticForm,
    QuadraticForm,
    diagonalize,
    signature_q,
)
from hermsig.session import parse_session
from hermsig.spectra import cone_space_topology, is_t0, morita_cone_maps, topology_compare
from cone_helpers import sample_member
from trace_oracle import trace_form
from witt_helpers import neg, perp, torsion_test_q

SQRT2 = NumberField([-2, 0, 1])
P0 = QQ.orderings[0]
FIXTURES = Path(__file__).parent / "fixtures"


def verdict(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def catalogue_instance(family: str, field) -> AlgebraWithInvolution:
    if family == "split_orth":
        return AlgebraWithInvolution(field, "split_orth", 1)
    if family == "unitary":
        return AlgebraWithInvolution(field, "unitary", 1, delta=-1)
    if family == "quat_symp":
        return AlgebraWithInvolution(field, "quat_symp", 1, a=-1, b=-1)
    return AlgebraWithInvolution(field, "quat_skew", 1, a=1, b=1)


def random_form(alg, rng, rank, height=5):
    ed = alg.entry_dim
    s = rank * alg.n
    rows = [[alg.entry([rng.randint(-height, height) for _ in range(ed)])
             if ed > 1 else alg.entry(rng.randint(-height, height))
             for _ in range(s)] for _ in range(s)]
    ct = [[rows[c][r].conj() for c in range(s)] for r in range(s)]
    op = (lambda a, b: a - b) if alg.skew_gram else (lambda a, b: a + b)
    return HermitianForm(alg, [[op(a, b) for a, b in zip(r1, r2)]
                               for r1, r2 in zip(rows, ct)])


def random_quadratic(field, rng, rank, height=5):
    entries = []
    while len(entries) < rank:
        e = field.element([rng.randint(-height, height) for _ in range(field.degree)])
        if not e.is_zero():
            entries.append(e)
    return QuadraticForm(field, entries)


def test_criterion_1_signature_axioms():
    start = time.monotonic()
    rng = random.Random(101)
    total_checks = 0
    for family in ("split_orth", "unitary", "quat_symp", "quat_skew"):
        for field in (QQ, SQRT2):
            alg = catalogue_instance(family, field)
            for _ in range(50):
                h1 = random_form(alg, rng, rng.randint(1, 2))
                h2 = random_form(alg, rng, rng.randint(1, 2))
                q = random_quadratic(field, rng, rng.randint(1, 2))
                summed = perp(h1, h2)
                hyp = perp(h1, neg(h1))
                prod = scale_by_quadratic(q, h1)
                for p in field.orderings:
                    s1 = signature(h1, p)
                    s2 = signature(h2, p)
                    assert signature(summed, p) == s1 + s2
                    assert signature(hyp, p) == 0
                    assert signature(prod, p) == signature_q(q, p) * s1
                    total_checks += 3
    elapsed = time.monotonic() - start
    # 4 families x (50 forms over Q + 50 over Q(sqrt2) with 2 orderings) x 3
    verdict(1, total_checks == 1800 and elapsed < 60,
            f"additivity, hyperbolic vanishing and module rule exact on "
            f"{total_checks} checks in {elapsed:.1f}s")


def test_criterion_2_hamilton_calibration():
    ham = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
    one = HermitianForm.diagonal(ham, [1])
    tf = diagonalize(trace_form(one)).form
    diag = sorted(v.as_fraction() for v in tf.entries)
    ok = diag == [2, 2, 2, 2] and signature(one, P0) == 1
    three = HermitianForm.diagonal(ham, [1, -2, 3])
    ok = ok and signature(three, P0) == 1
    verdict(2, ok, "trace form of <1> is <2,2,2,2>; signatures 1 and 1")


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    # quat_symp(1, b): every diagonal form has oracle signature 0 and the
    # trace route must agree (full rank <= 3 enumeration, 84 forms each)
    for b in (1, 3):
        alg = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=b)
        scalars = [v for v in (-2, -1, 1, 2)]
        pool = [HermitianForm.diagonal(alg, [alg.scalar_element(v)]) for v in scalars]
        values = []
        for form in pool:
            from hermsig.hermitian import _entry_trace_rows

            t = GramQuadraticForm(QQ, _entry_trace_rows(form))
            values.append(signature_q(t, P0))
            assert split_oracle_signature(form, P0) == 0
        for v in values:
            assert v == 0
        for ranks in (2, 3):
            import itertools

            for combo in itertools.product(range(len(scalars)), repeat=ranks):
                assert sum(values[i] for i in combo) == 0
                checked += 1

    # quat_skew(1, b): precompute oracle and trace values per diagonal
    # entry; both routes are additive on diagonal forms (checked on real
    # objects below), so the full rank <= 3 enumeration reduces to sums
    for b in (1, 3):
        alg = AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=b)
        quat = alg.quat
        entries = []
        for x in range(-2, 3):
            for y in range(-2, 3):
                for z in range(-2, 3):
                    if x == y == z == 0:
                        continue
                    entries.append(quat.element(0, x, y, z))
        oracle_vals = []
        trace_vals = []
        for q in entries:
            form = HermitianForm.diagonal(alg, [alg.scalar_element(q)])
            oracle_vals.append(split_oracle_signature(form, P0))
            trace_vals.append(raw_signature(form, P0))
        # one global Morita sign per ordering (same scale: raw signatures
        # are sign sums of the carrier of the kernel's pure pivots)
        eps = None
        for o, t in zip(oracle_vals, trace_vals):
            assert abs(o) == abs(t)
            if o != 0:
                e = 1 if o == t else -1
                assert eps is None or eps == e
                eps = e
        assert eps is not None
        # additivity of both routes on real rank-2/3 objects
        rng = random.Random(103)
        for _ in range(60):
            idx = [rng.randrange(len(entries)) for _ in range(rng.choice([2, 3]))]
            form = HermitianForm.diagonal(
                alg, [alg.scalar_element(entries[i]) for i in idx])
            assert split_oracle_signature(form, P0) == sum(oracle_vals[i] for i in idx)
            assert raw_signature(form, P0) == sum(trace_vals[i] for i in idx)
        # full enumeration over the precomputed values
        m = len(entries)
        for i in range(m):
            assert oracle_vals[i] == eps * trace_vals[i]
            checked += 1
        for i in range(m):
            oi, ti = oracle_vals[i], trace_vals[i]
            for j in range(i, m):
                assert oi + oracle_vals[j] == eps * (ti + trace_vals[j])
                checked += 1
        osum2 = [[oracle_vals[i] + oracle_vals[j] for j in range(m)] for i in range(m)]
        tsum2 = [[trace_vals[i] + trace_vals[j] for j in range(m)] for i in range(m)]
        for i in range(m):
            row_o, row_t = osum2[i], tsum2[i]
            for j in range(i, m):
                oij, tij = row_o[j], row_t[j]
                for k in range(j, m):
                    if oij + oracle_vals[k] != eps * (tij + trace_vals[k]):
                        raise AssertionError((i, j, k))
                checked += m - j
    elapsed = time.monotonic() - start
    verdict(3, True, f"split-isomorphism oracle agrees with raw_signature "
                     f"on {checked} enumerated forms in {elapsed:.1f}s")


def test_criterion_4_knebusch_trace_formula():
    rng = random.Random(104)
    checked = 0
    for coeffs in ([-2, 0, 1], [-3, 0, 1], [-2, 0, 0, 1]):
        ext = NumberField(coeffs)
        rat = AlgebraWithInvolution(ext, "split_orth", 1)
        from hermsig.hermitian import going_up_algebra

        ham_base = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
        ham_up = going_up_algebra(ham_base, ext)
        for alg, ranks in ((rat, (1, 3)), (ham_up, (1, 2))):
            for _ in range(20):
                h = random_form(alg, rng, rng.randint(*ranks), height=3)
                report = knebusch_check(h)
                assert report.holds, (coeffs, alg.family)
                checked += 1
    verdict(4, checked == 120, f"both sides of the trace formula agree on "
                               f"{checked} forms over three extensions")


def test_criterion_5_pfister_constructive_direction():
    # S^t I S for S with rows (1,1), (1,-1) exhibits <1,1> ~ <2,2>
    s = [[1, 1], [1, -1]]
    prod = [[sum(Fraction(s[r][i]) * Fraction(s[r][j]) for r in range(2))
             for j in range(2)] for i in range(2)]
    ok = prod == [[2, 0], [0, 2]]
    doubled = QuadraticForm(QQ, [1, 1, -2, -2])
    ok = ok and torsion_test_q(doubled)
    ok = ok and not torsion_test_q(QuadraticForm(QQ, [1]))
    verdict(5, ok, "<1,1> ~ <2,2> via rows (1,1),(1,-1); 2x<1,-2> is torsion "
                   "and <1> is not")


def _random_symmetric(alg, rng, height=2):
    basis = alg.sym_basis()
    total = alg.zero_element
    for b in basis:
        c = rng.randint(-height, height)
        if c:
            total = total + b.scale(alg.field.element(c))
    return total


def test_criterion_6_cone_classification():
    rng = random.Random(106)
    theta = SQRT2.gen
    instances = [
        AlgebraWithInvolution(QQ, "split_orth", 1),
        AlgebraWithInvolution(QQ, "split_orth", 2),
        AlgebraWithInvolution(QQ, "unitary", 1, delta=-1),
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1),
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1),
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=-1, b=-1),
        AlgebraWithInvolution(SQRT2, "split_orth", 1),
        AlgebraWithInvolution(SQRT2, "unitary", 1, delta=-1),
        AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=theta),
        AlgebraWithInvolution(SQRT2, "quat_skew", 1, a=theta, b=theta),
    ]
    mismatches = 0
    samples = 0
    for alg in instances:
        nonnil = alg.nonnil_orderings()
        assert len(nonnil) in (0, 1, 2)
        cones = enumerate_positive_cones(alg)
        assert len(cones) == 2 * len(nonnil)
        if not cones:
            continue
        per_cone = max(1, 200 // (2 * len(cones)))
        for cone in cones:
            for _ in range(per_cone):
                m = sample_member(cone, rng)
                if is_invertible(m):
                    samples += 1
                    if not eta_maximal(m if cone.orientation > 0 else -m,
                                       cone.ordering):
                        mismatches += 1
            for _ in range(per_cone):
                m = _random_symmetric(alg, rng)
                if m.is_zero() or not is_invertible(m):
                    continue
                samples += 1
                for p in nonnil:
                    plus = PositiveCone(alg, p, 1)
                    minus = PositiveCone(alg, p, -1)
                    max_plus = eta_maximal(m, p)
                    max_minus = eta_maximal(-m, p)
                    if plus.contains(m) != max_plus or minus.contains(m) != max_minus:
                        mismatches += 1
    verdict(6, mismatches == 0 and samples >= 200,
            f"cone counts are 2|X~| and membership matches eta-maximality on "
            f"{samples} invertible samples, {mismatches} mismatches")


def test_criterion_7_artin_split_case():
    rng = random.Random(107)
    so3 = AlgebraWithInvolution(QQ, "split_orth", 3)
    psd_ok = 0
    for _ in range(25):
        r = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        u_rows = [[sum(r[t][i] * r[t][j] for t in range(3)) for j in range(3)]
                  for i in range(3)]
        u = so3.element(u_rows)
        res = find_sos_certificate(u)
        assert res.status == "certificate"
        assert len(res.certificate.terms) <= 12
        assert verify_certificate(u, so3.one_element, [],
                                  len(res.certificate.terms), res.certificate)
        psd_ok += 1
    indef_ok = 0
    while indef_ok < 25:
        raw = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        rows = [[Fraction(raw[i][j] + raw[j][i]) for j in range(3)] for i in range(3)]
        gram = GramQuadraticForm(QQ, rows)
        signs = {sign_at(d, P0) for d in diagonalize(gram).form.entries}
        if not (1 in signs and -1 in signs):
            continue
        res = find_sos_certificate(so3.element(rows))
        assert res.status == "refuted"
        assert res.refutation.ordering == P0
        indef_ok += 1
    verdict(7, psd_ok == 25 and indef_ok == 25,
            "25 PSD matrices certified with <= 12 vectors each; 25 indefinite "
            "matrices refuted with an ordering")


def test_criterion_8_ps_prime_predicate():
    ham = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
    rep = positivity_sets(ham)
    ok = (rep.x_sigma == list(QQ.orderings) and rep.x_tilde == list(QQ.orderings)
          and rep.ps_prime_holds)
    for n in (1, 2, 3):
        rep = positivity_sets(AlgebraWithInvolution(QQ, "split_orth", n))
        ok = ok and rep.x_sigma == list(QQ.orderings) and rep.ps_prime_holds
    allnil = AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1)
    ok = ok and not formally_real(allnil) and positivity_sets(allnil).x_tilde == []
    verdict(8, ok, "X_sigma = X~ = X_Q for the Hamilton and split-orthogonal "
                   "instances; the nil-everywhere instance is not formally real")


def test_criterion_9_topology():
    start = time.monotonic()
    theta = SQRT2.gen
    instances = [
        AlgebraWithInvolution(QQ, "split_orth", 1),
        AlgebraWithInvolution(QQ, "split_orth", 2),
        AlgebraWithInvolution(QQ, "unitary", 1, delta=-1),
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "quat_symp", 2, a=-1, b=-1),
        AlgebraWithInvolution(QQ, "quat_skew", 1, a=1, b=1),
        AlgebraWithInvolution(QQ, "quat_symp", 1, a=1, b=1),
        AlgebraWithInvolution(SQRT2, "split_orth", 1),
        AlgebraWithInvolution(SQRT2, "split_orth", 2),
        AlgebraWithInvolution(SQRT2, "quat_symp", 1, a=-1, b=theta),
    ]
    for alg in instances:
        assert len(alg.nonnil_orderings()) <= 3
        space, topo = cone_space_topology(alg)
        assert topology_compare(space), alg
        assert is_t0(topo), alg
        if alg.n > 1:
            assert morita_cone_maps(alg).ok, alg
    elapsed = time.monotonic() - start
    verdict(9, elapsed < 10,
            f"topologies agree, spaces are T0 and Morita maps round-trip "
            f"on {len(instances)} instances in {elapsed:.1f}s")


def test_criterion_10_determinism():
    fixture = (FIXTURES / "full_session.json").read_text()
    runs = [run_session(parse_session(fixture)).to_json() for _ in range(2)]
    ok = runs[0] == runs[1]
    fixture2 = (FIXTURES / "sqrt2_session.json").read_text()
    runs2 = [run_session(parse_session(fixture2)).to_json() for _ in range(2)]
    ok = ok and runs2[0] == runs2[1] and '"status": "error"' not in runs2[0]
    verdict(10, ok, "fixture reports are byte-identical across reruns")
