"""Output check of one session report against independent oracles.

The check runs after the timed samples and is not timed.  It returns the
indices of records whose answer is wrong; error records are not checked
here (they count as failed already).

Signatures come from ``sylvester_count_oracle`` (n = 1 split_orth,
unitary, quat_symp at non-nil orderings) or ``split_oracle_signature``
(quat_skew over (1, b)), normalized by the reference form's sign as the
signature is.  Nil orderings come from the family parameters (the paper's
definition), not from the algebra's own nil set.

- total-sign and sign records agree with the oracle signature;
- every sign record agrees with the total-sign record of its form;
- a torsion record is true exactly when the form's total-sign is all zero;
- a decompose value is the orientation times the signature at its ordering;
- reference-form: the certificate covers exactly the non-nil orderings and
  each entry has the sign of the oracle signature of the rendered diagonal;
- cones, positivity, topology: two cones (P, +1), (P, -1) per non-nil
  ordering, x_tilde is the non-nil set, the two topologies agree;
- morphisms: equivalent exactly when the orderings coincide, `trivial`
  holds the nil flags, and a witness has different signatures at the two;
- cone-member: member exactly when orientation times the signature of the
  rank-1 form <element> is >= 0;
- eta-max: true exactly when that signature is the rank-1 maximum (1, or 2
  for quat_skew), or the ordering is nil;
- sos-find: refuted exactly when the target has a negative signature at
  some ordering, and then at the ordering given; every certificate passes
  ``verify_certificate``;
- morita-check: ok, and each cone maps to the cone of the same label;
- ideals (signature kind): membership is a zero signature at the ordering;
  the prime sample passes.
"""

from __future__ import annotations

from hermsig.algebras import AlgebraWithInvolution
from hermsig.cones import CertTerm, SquareCertificate, verify_certificate
from hermsig.field import sign_at
from hermsig.hermitian import (
    HermitianForm,
    reference_form,
    split_oracle_signature,
    sylvester_count_oracle,
)
from hermsig.quadforms import QuadraticForm
from hermsig.session import SessionDocument, parse_algebra_element, parse_element


def _nil(alg: AlgebraWithInvolution, p) -> bool:
    """Nil orderings by definition: unitary over delta > 0, quat_symp split
    at P, quat_skew division at P; split_orth is never nil."""
    if alg.family == "split_orth":
        return False
    if alg.family == "unitary":
        return sign_at(alg.ext.delta, p) > 0
    a, b = sign_at(alg.quat.a, p), sign_at(alg.quat.b, p)
    if alg.family == "quat_symp":
        return a > 0 or b > 0
    return a < 0 and b < 0


def _nonnil(alg: AlgebraWithInvolution) -> list[int]:
    return [p.index for p in alg.field.orderings if not _nil(alg, p)]


def _oracle(alg: AlgebraWithInvolution):
    """The oracle covering forms over the algebra, or None."""
    if alg.n != 1:
        return None
    if alg.family in ("split_orth", "unitary", "quat_symp"):
        return sylvester_count_oracle
    if alg.family == "quat_skew" and alg.quat.a == alg.field.one:
        return split_oracle_signature
    return None


def _signatures(form: HermitianForm) -> dict[int, int] | None:
    """Oracle signature table by ordering index, or None when no oracle
    covers the form.  Both sides use the same per-ordering sign convention:
    the signature of the reference form."""
    alg = form.algebra
    oracle = _oracle(alg)
    if oracle is None:
        return None
    ref = reference_form(alg).form
    table = {}
    for p in alg.field.orderings:
        if _nil(alg, p):
            table[p.index] = 0
        else:
            ref_sign = 1 if oracle(ref, p) > 0 else -1
            table[p.index] = ref_sign * oracle(form, p)
    return table


def _rank1(doc: SessionDocument, alg, value, path: str) -> HermitianForm:
    """The rank-1 form <value> of a rendered algebra element."""
    return HermitianForm(alg, parse_algebra_element(value, alg, doc.gen_name, path).rows)


def _certificate_ok(doc: SessionDocument, cmd: dict, result: dict) -> bool:
    alg = doc.algebras[cmd["algebra"]]
    gen = doc.gen_name
    if "a" in cmd or alg.family == "quat_skew":
        raise ValueError("the check covers sos-find with the default generator "
                         "a = 1 only")
    u = parse_algebra_element(cmd["element"], alg, gen, "element")
    slots = [parse_element(s, alg.field, gen, "slots") for s in cmd.get("slots", [])]
    terms = [CertTerm(tuple(t["weight_subset"]),
                      parse_element(t["weight_root"], alg.field, gen, "weight_root"),
                      parse_algebra_element(t["vector"], alg, gen, "vector"),
                      t["generator_index"])
             for t in result["certificate"]["terms"]]
    copies = max(t.generator_index for t in terms) // (1 << len(slots)) + 1
    return verify_certificate(u, alg.one_element, slots, copies,
                              SquareCertificate(terms))


def _reference_form_ok(doc, alg, cmd, result) -> bool:
    oracle = _oracle(alg)
    cert = dict((i, s) for i, s in result["certificate"])
    if sorted(cert) != _nonnil(alg) or any(s == 0 for s in cert.values()):
        return False
    if oracle is None:
        return True
    ref = HermitianForm.diagonal(alg, [
        parse_algebra_element(block, alg, doc.gen_name, "diagonal")
        for block in result["diagonal"]])
    return all((oracle(ref, p) > 0) == (cert[p.index] > 0)
               for p in alg.field.orderings if p.index in cert)


def _cones_ok(doc, alg, cmd, result) -> bool:
    labels = [[i, eps] for i in _nonnil(alg) for eps in (1, -1)]
    return (result["cones"] == labels and result["count"] == len(labels)
            and result["formally_real"] == bool(labels))


def _positivity_ok(doc, alg, cmd, result) -> bool:
    same = set(result["x_sigma"]) == set(result["x_tilde"])
    return (result["x_tilde"] == _nonnil(alg)
            and result["formally_real"] == bool(result["x_tilde"])
            and result["ps_prime_holds"] == same and result["ps_sufficient"] == same)


def _topology_ok(doc, alg, cmd, result) -> bool:
    size = 2 * len(_nonnil(alg))
    return (result["space_size"] == size and result["topologies_agree"] is True
            and min(2, 2 ** size) <= result["open_sets"] <= 2 ** size)


def _morphisms_ok(doc, alg, cmd, result) -> bool:
    i, j = cmd["orderings"]
    orderings = alg.field.orderings
    if result["trivial"] != [_nil(alg, orderings[i]), _nil(alg, orderings[j])]:
        return False
    if result["equivalent"] != (i == j):
        return False
    if i == j:
        return "witness" not in result
    table = _signatures(_rank1(doc, alg, result["witness"], "witness"))
    return table is None or table[i] != table[j]


def _cone_member_ok(doc, alg, cmd, result) -> bool:
    table = _signatures(_rank1(doc, alg, cmd["element"], "element"))
    return table is None or result == (cmd["orientation"] * table[cmd["ordering"]] >= 0)


def _eta_max_ok(doc, alg, cmd, result) -> bool:
    table = _signatures(_rank1(doc, alg, cmd["element"], "element"))
    if table is None:
        return True
    i = cmd["ordering"]
    if _nil(alg, alg.field.orderings[i]):
        return result is True
    return result == (table[i] == (2 if alg.family == "quat_skew" else 1))


def _sos_find_ok(doc, alg, cmd, result) -> bool:
    status = result["status"]
    if status == "certificate" and not _certificate_ok(doc, cmd, result):
        return False
    table = _signatures(_rank1(doc, alg, cmd["element"], "element"))
    if table is None or cmd.get("slots"):
        return True
    negative = [i for i, s in table.items() if s < 0]
    if status == "refuted":
        return result["refutation"]["ordering"] in negative
    return not negative


def _morita_check_ok(doc, alg, cmd, result) -> bool:
    if alg.n == 1:
        return result["identity"] is True and result["ok"] is True
    labels = [[i, eps] for i in _nonnil(alg) for eps in (1, -1)]
    return (result["identity"] is False and result["ok"] is True
            and [up for up, _ in result["pairs"]] == labels
            and all(up == down for up, down in result["pairs"]))


def _ideals_ok(doc, alg, cmd, result) -> bool:
    if result["prime_sample"] != "pass":
        return False
    if cmd["kind"] != "signature" or "q" not in cmd:
        return True
    p = alg.field.orderings[cmd["ordering"]]
    q = doc.forms[cmd["q"]]
    if isinstance(q, QuadraticForm) and \
            result["q_in_ideal"] != (sum(sign_at(d, p) for d in q.entries) == 0):
        return False
    table = _signatures(doc.forms[cmd["h"]])
    return table is None or result["h_in_submodule"] == (table[p.index] == 0)


_ALGEBRA_CHECKS = {
    "reference-form": _reference_form_ok, "cones": _cones_ok,
    "positivity": _positivity_ok, "topology": _topology_ok,
    "morphisms": _morphisms_ok, "cone-member": _cone_member_ok,
    "eta-max": _eta_max_ok, "sos-find": _sos_find_ok,
    "morita-check": _morita_check_ok, "ideals": _ideals_ok,
}


def check_report(doc: SessionDocument, records: list[dict]) -> list[int]:
    """Indices of ok records whose answer fails a check."""
    totals = {}
    for rec in records:
        cmd = doc.commands[rec["index"]]
        if rec["op"] == "total-sign" and rec["status"] == "ok":
            totals[cmd["form"]] = dict((i, v) for i, v in rec["result"])

    bad = []
    expected_cache: dict[str, dict | None] = {}
    for rec in records:
        if rec["status"] != "ok":
            continue
        cmd = doc.commands[rec["index"]]
        op, result = rec["op"], rec["result"]
        ok = True
        if op in ("total-sign", "sign", "torsion", "decompose"):
            name = cmd["form"]
            form = doc.forms[name]
            if isinstance(form, HermitianForm) and name not in expected_cache:
                expected_cache[name] = _signatures(form)
            expected = expected_cache.get(name)
            table = totals.get(name)
            if op == "total-sign":
                ok = expected is None or table == expected
            elif op == "sign":
                ok = (table is None or table[cmd["ordering"]] == result) and \
                    (expected is None or expected[cmd["ordering"]] == result)
            elif op == "torsion":
                ok = table is not None and result == all(v == 0 for v in table.values())
            else:
                sig = table[cmd["ordering"]] if table is not None else None
                ok = sig is not None and result["value"] == cmd["orientation"] * sig
        elif op in _ALGEBRA_CHECKS:
            ok = _ALGEBRA_CHECKS[op](doc, doc.algebras[cmd["algebra"]], cmd, result)
        if not ok:
            bad.append(rec["index"])
    return bad
