"""Sampled prime-pair axioms: a test oracle for `spectra.prime_property_sample`.

The package decides the axioms exactly.  This sampler draws random forms
and reports the first counterexample it meets, so it can miss one and is
not a decision procedure; where it finds a counterexample, the witness is
checked by the package's own membership tests.
"""

from hermsig.hermitian import HermitianForm, reference_form, scale_by_quadratic
from hermsig.quadforms import QuadraticForm
from hermsig.spectra import PrimeSampleReport, _h_in_submodule, _q_in_ideal
from witt_helpers import is_nondegenerate


def sampled_prime_check(pair, rng, trials=40):
    """Sampled module-theoretic checks: N proper (some sampled form stays
    outside), I.M inside N, and r m in N implies r in I or m in N.
    Reports the first counterexample."""
    alg = pair.algebra
    fld = alg.field

    def random_q(k=None):
        k = k if k is not None else rng.choice([1, 2, 3])
        entries = []
        while len(entries) < k:
            e = fld.element([rng.randint(-3, 3) for _ in range(fld.degree)])
            if not e.is_zero():
                entries.append(e)
        return QuadraticForm(fld, entries)

    def random_q_in_ideal():
        # constructive member q' perp -q' belongs to every ideal kind;
        # mix in rejection samples for variety
        for _ in range(20):
            q = random_q()
            if _q_in_ideal(pair, q):
                return q
        q = random_q(rng.choice([1, 2]))
        return QuadraticForm(fld, q.entries + tuple(-e for e in q.entries))

    def random_h():
        while True:
            k = rng.choice([1, 2])
            s = k * alg.n
            rows = [[alg.entry([rng.randint(-2, 2) for _ in range(alg.entry_dim)])
                     for _ in range(s)] for _ in range(s)]
            ct = [[rows[c][r].conj() for c in range(s)] for r in range(s)]
            if alg.skew_gram:
                gram = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(rows, ct)]
            else:
                gram = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(rows, ct)]
            form = HermitianForm(alg, gram)
            if is_nondegenerate(form):
                return form

    candidates = [reference_form(pair.algebra).form] + [random_h() for _ in range(trials)]
    if all(_h_in_submodule(pair, h) for h in candidates):
        return PrimeSampleReport(False, "proper", None, candidates[0])
    for _ in range(trials):
        q = random_q_in_ideal()
        h = random_h()
        if not _h_in_submodule(pair, scale_by_quadratic(q, h)):
            return PrimeSampleReport(False, "ideal", q, h)
    for _ in range(trials):
        q = random_q()
        h = random_h()
        if not _h_in_submodule(pair, scale_by_quadratic(q, h)):
            continue
        if not _q_in_ideal(pair, q) and not _h_in_submodule(pair, h):
            return PrimeSampleReport(False, "prime", q, h)
    return PrimeSampleReport(True)


def witness_holds(pair, report):
    """Whether the report's witness shows the axiom it names failing."""
    q, h = report.witness_q, report.witness_h
    if report.failed_axiom == "proper":
        return _h_in_submodule(pair, h)
    in_n = _h_in_submodule(pair, scale_by_quadratic(q, h))
    if report.failed_axiom == "ideal":
        return _q_in_ideal(pair, q) and not in_n
    return in_n and not _q_in_ideal(pair, q) and not _h_in_submodule(pair, h)
