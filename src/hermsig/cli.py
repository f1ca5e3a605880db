"""Command dispatch and report emission for session documents.

Commands run sequentially in document order; every record is JSON-safe and
deterministic for a fixed seed, so machine-readable reports are
byte-identical across runs.  Exit codes: 0 success, 1 usage, 2 parse
error, 3 computation error (any error record).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from .algebras import AlgebraWithInvolution
from .cones import (
    CertTerm,
    PositiveCone,
    SquareCertificate,
    enumerate_positive_cones,
    find_sos_certificate,
    formally_real,
    positivity_sets,
    verify_certificate,
)
from .errors import HermsigError
from .field import NumberField, render_element
from .hermitian import (
    HermitianForm,
    going_up,
    knebusch_check,
    raw_signature,
    reference_form,
    signature,
    sylvester_decompose,
    torsion_test_h,
    total_signature_h,
)
from .quadforms import (
    GramQuadraticForm,
    QuadraticForm,
    diagonalize,
    signature_q,
    torsion_test_q,
    total_signature_q,
)
from .session import (
    SessionDocument,
    SessionParseError,
    parse_algebra_element,
    parse_diagonal,
    parse_element,
    parse_session,
    render_entry,
)
from .spectra import (
    FundamentalDescriptor,
    PrimeIdealPair,
    cone_space_topology,
    ideal_membership,
    is_t0,
    morita_cone_maps,
    morphism_distinctness,
    prime_property_sample,
    topology_compare,
)


@dataclass
class Report:
    records: list[dict]

    @property
    def has_errors(self) -> bool:
        return any(r.get("status") == "error" for r in self.records)

    def to_json(self) -> str:
        return json.dumps(self.records, indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        lines = []
        for rec in self.records:
            head = f"[{rec['index']}] {rec['op']}: {rec['status']}"
            lines.append(head)
            body = rec.get("error") if rec["status"] == "error" else rec.get("result")
            for line in json.dumps(body, indent=2, sort_keys=True).splitlines():
                lines.append("    " + line)
        return "\n".join(lines) + "\n"


def _render_algebra_element(element, gen: str):
    return [[render_entry(v, gen) for v in row] for row in element.rows]


def _render_certificate(cert: SquareCertificate, gen: str):
    return {
        "terms": [
            {
                "weight_subset": list(t.weight_subset),
                "weight_root": render_element(t.weight_root, gen),
                "vector": _render_algebra_element(t.vector, gen),
                "generator_index": t.generator_index,
            }
            for t in cert.terms
        ]
    }


class _Runner:
    def __init__(self, doc: SessionDocument, search_height: int, search_terms: int):
        self.doc = doc
        self.rng = random.Random(doc.seed)
        self.search_height = search_height
        self.search_terms = search_terms

    # -- helpers -------------------------------------------------------------
    def algebra(self, cmd) -> AlgebraWithInvolution:
        return self.doc.algebras[self._arg(cmd, "algebra")]

    def _arg(self, cmd, key):
        if key not in cmd:
            raise HermsigError(f"command requires {key!r}")
        return cmd[key]

    def form(self, cmd, key="form"):
        return self.doc.forms[self._arg(cmd, key)]

    def ordering(self, cmd, key="ordering"):
        return self._ordering_at(self._arg(cmd, key))

    def _ordering_at(self, idx):
        orderings = self.doc.field.orderings
        if not isinstance(idx, int) or not 0 <= idx < len(orderings):
            raise HermsigError(f"no ordering with index {idx}")
        return orderings[idx]

    def element(self, cmd, algebra, key="element"):
        return parse_algebra_element(self._arg(cmd, key), algebra,
                                     self.doc.gen_name, f"command.{key}")

    def ext_field(self, cmd) -> tuple[NumberField, str]:
        from .session import _exact_number

        spec = self._arg(cmd, "ext")
        if not isinstance(spec, dict) or not isinstance(spec.get("min_poly"), list):
            raise HermsigError("'ext' must be an object with a 'min_poly' list")
        coeffs = spec["min_poly"]
        gen = spec.get("generator", "t")
        return NumberField([_exact_number(c, "command.ext.min_poly")
                            for c in coeffs]), gen

    # -- command implementations ----------------------------------------------
    def run_command(self, cmd) -> dict:
        op = cmd["op"].replace("-", "_")
        return getattr(self, f"cmd_{op}")(cmd)

    def cmd_orderings(self, cmd):
        return [{"index": p.index, "interval": [str(p.lo), str(p.hi)]}
                for p in self.doc.field.orderings]

    def _signature_of(self, form, ordering) -> int:
        if isinstance(form, HermitianForm):
            return signature(form, ordering, reference_form(form.algebra))
        if isinstance(form, GramQuadraticForm):
            return signature_q(form, ordering)
        return signature_q(form, ordering)

    def cmd_sign(self, cmd):
        return self._signature_of(self.form(cmd), self.ordering(cmd))

    def cmd_total_sign(self, cmd):
        form = self.form(cmd)
        if isinstance(form, HermitianForm):
            table = total_signature_h(form, reference_form(form.algebra))
        else:
            if isinstance(form, GramQuadraticForm):
                form = diagonalize(form).form
            table = total_signature_q(form)
        return [[p.index, v] for p, v in table]

    def cmd_nil(self, cmd):
        return [p.index for p in self.algebra(cmd).nil_orderings()]

    def cmd_torsion(self, cmd):
        form = self.form(cmd)
        if isinstance(form, HermitianForm):
            return torsion_test_h(form, reference_form(form.algebra))
        if isinstance(form, GramQuadraticForm):
            form = diagonalize(form).form
        return torsion_test_q(form)

    def cmd_transfer_check(self, cmd):
        from .hermitian import going_up_algebra

        algebra = self.algebra(cmd)
        ext, ext_gen = self.ext_field(cmd)
        lifted_alg = going_up_algebra(algebra, ext)
        entries = parse_diagonal(self._arg(cmd, "diag"), lifted_alg, ext_gen, "command.diag")
        form = HermitianForm.diagonal(lifted_alg, entries)
        report = knebusch_check(form, reference_form(algebra))
        return {"holds": report.holds, "transfer_side": report.transfer_side,
                "sum_side": report.sum_side}

    def cmd_going_up(self, cmd):
        form = self.form(cmd)
        if not isinstance(form, HermitianForm):
            raise HermsigError("going-up applies to hermitian forms")
        ext, _ = self.ext_field(cmd)
        base_ref = reference_form(form.algebra)
        base = signature(form, self.doc.field.orderings[0], base_ref)
        lifted = going_up(form, ext)
        lifted_ref_form = going_up(base_ref.form, ext)
        from .hermitian import ReferenceForm

        cert = {p: raw_signature(lifted_ref_form, p)
                for p in lifted.algebra.nonnil_orderings()}
        lifted_ref = ReferenceForm(lifted_ref_form, cert)
        table = [[p.index, signature(lifted, p, lifted_ref)]
                 for p in ext.orderings]
        return {"base": base, "lifted": table,
                "agrees": all(v == base for _, v in table)}

    def cmd_reference_form(self, cmd):
        algebra = self.algebra(cmd)
        ref = reference_form(algebra)
        gen = self.doc.gen_name
        n = algebra.n
        diag = []
        for i in range(ref.form.rank):
            rows = [[ref.form.gram[i * n + r][i * n + c] for c in range(n)]
                    for r in range(n)]
            diag.append([[render_entry(v, gen) for v in row] for row in rows])
        return {"diagonal": diag,
                "certificate": [[p.index, s] for p, s in sorted(
                    ref.certificate.items(), key=lambda kv: kv[0].index)]}

    def cmd_cones(self, cmd):
        algebra = self.algebra(cmd)
        cones = enumerate_positive_cones(algebra)
        return {"count": len(cones),
                "cones": [list(c.id_pair()) for c in cones],
                "formally_real": formally_real(algebra)}

    def cmd_cone_member(self, cmd):
        algebra = self.algebra(cmd)
        cone = PositiveCone(algebra, self.ordering(cmd),
                            self._arg(cmd, "orientation"), reference_form(algebra))
        return cone.contains(self.element(cmd, algebra))

    def cmd_eta_max(self, cmd):
        from .cones import eta_maximal

        algebra = self.algebra(cmd)
        return eta_maximal(self.element(cmd, algebra), self.ordering(cmd),
                           reference_form(algebra))

    def cmd_sos_find(self, cmd):
        algebra = self.algebra(cmd)
        u = self.element(cmd, algebra)
        gen = self.doc.gen_name
        slots = [parse_element(s, algebra.field, gen, "command.slots")
                 for s in cmd.get("slots", [])]
        a = self.element(cmd, algebra, "a") if "a" in cmd else None
        res = find_sos_certificate(u, a, slots,
                                   height=cmd.get("height", self.search_height),
                                   max_terms=cmd.get("max_terms", self.search_terms))
        out = {"status": res.status}
        if res.certificate is not None:
            out["certificate"] = _render_certificate(res.certificate, gen)
        if res.refutation is not None:
            out["refutation"] = {
                "ordering": res.refutation.ordering.index,
                "witness": render_element(res.refutation.witness, gen),
            }
        return out

    def cmd_sos_verify(self, cmd):
        algebra = self.algebra(cmd)
        u = self.element(cmd, algebra)
        gen = self.doc.gen_name
        a = self.element(cmd, algebra, "a") if "a" in cmd \
            else algebra.one_element
        slots = [parse_element(s, algebra.field, gen, "command.slots")
                 for s in cmd.get("slots", [])]
        spec = self._arg(cmd, "certificate")
        terms = []
        for i, t in enumerate(spec.get("terms", [])):
            terms.append(CertTerm(
                tuple(t.get("weight_subset", [])),
                parse_element(t.get("weight_root", "1"), algebra.field, gen,
                              f"command.certificate.terms[{i}].weight_root"),
                parse_algebra_element(t["vector"], algebra, gen,
                                      f"command.certificate.terms[{i}].vector"),
                t["generator_index"],
            ))
        copies = cmd.get("copies", max((t.generator_index for t in terms),
                                       default=-1) // (1 << len(slots)) + 1)
        return verify_certificate(u, a, slots, copies, SquareCertificate(terms))

    def cmd_positivity(self, cmd):
        algebra = self.algebra(cmd)
        rep = positivity_sets(algebra)
        return {"x_sigma": [p.index for p in rep.x_sigma],
                "x_tilde": [p.index for p in rep.x_tilde],
                "ps_prime_holds": rep.ps_prime_holds,
                "ps_sufficient": rep.ps_sufficient,
                "formally_real": formally_real(algebra)}

    def cmd_ideals(self, cmd):
        algebra = self.algebra(cmd)
        ref = reference_form(algebra)
        kind = self._arg(cmd, "kind")
        kwargs = {}
        if kind in ("signature", "mod_p"):
            kwargs["ordering"] = self.ordering(cmd)
        if kind == "mod_p":
            kwargs["p"] = self._arg(cmd, "p")
        if kind == "fundamental":
            gens = [self.doc.forms[name] for name in cmd.get("generators", [])]
            if any(not isinstance(g, HermitianForm) for g in gens):
                raise HermsigError("fundamental generators must be hermitian forms")
            kwargs["descriptor"] = FundamentalDescriptor(
                gens, closed=cmd.get("closed", True))
        pair = PrimeIdealPair(kind, algebra, ref, **kwargs)
        out = {}
        if "q" in cmd and "h" in cmd:
            q = self.form(cmd, "q")
            h = self.form(cmd, "h")
            if isinstance(q, GramQuadraticForm):
                q = diagonalize(q).form
            if not isinstance(q, QuadraticForm) or not isinstance(h, HermitianForm):
                raise HermsigError("'q' must be quadratic and 'h' hermitian")
            in_i, in_n = ideal_membership(q, h, pair)
            out["q_in_ideal"] = in_i
            out["h_in_submodule"] = in_n
        sample = prime_property_sample(pair, self.rng,
                                       trials=cmd.get("trials", 30))
        out["prime_sample"] = "pass" if sample.passed else \
            f"counterexample ({sample.failed_axiom})"
        return out

    def cmd_morphisms(self, cmd):
        algebra = self.algebra(cmd)
        idx = self._arg(cmd, "orderings")
        if not isinstance(idx, list) or len(idx) != 2:
            raise HermsigError("'orderings' must be a list of two ordering indices")
        p, q = self._ordering_at(idx[0]), self._ordering_at(idx[1])
        res = morphism_distinctness(algebra, p, q, reference_form(algebra))
        out = {"equivalent": res.equivalent,
               "trivial": [algebra.is_nil(p), algebra.is_nil(q)]}
        if res.witness is not None:
            gen = self.doc.gen_name
            out["witness"] = [[render_entry(v, gen) for v in row]
                              for row in res.witness.gram]
        return out

    def cmd_topology(self, cmd):
        algebra = self.algebra(cmd)
        space, topo = cone_space_topology(algebra)
        return {"space_size": len(space),
                "topologies_agree": topology_compare(space),
                "t0": is_t0(len(space), topo),
                "open_sets": len(topo)}

    def cmd_morita_check(self, cmd):
        algebra = self.algebra(cmd)
        if algebra.n == 1:
            return {"identity": True, "ok": True, "pairs": []}
        report = morita_cone_maps(algebra, self.rng, samples=cmd.get("samples", 6))
        return {"identity": False, "ok": report.ok,
                "pairs": [[list(a), list(b)] for a, b in report.pairs]}

    def cmd_decompose(self, cmd):
        form = self.form(cmd)
        if not isinstance(form, HermitianForm):
            raise HermsigError("decompose applies to hermitian forms")
        algebra = form.algebra
        cone = PositiveCone(algebra, self.ordering(cmd),
                            self._arg(cmd, "orientation"), reference_form(algebra))
        dec = sylvester_decompose(form, cone)
        gen = self.doc.gen_name
        return {"weights": [render_element(w, gen) for w in dec.weights],
                "positive": [render_element(d, gen) for d in dec.positive],
                "negative": [render_element(d, gen) for d in dec.negative],
                "radical_dim": dec.radical_dim,
                "value": dec.value}


def run_session(doc: SessionDocument, search_height: int = 3,
                search_terms: int = 6) -> Report:
    """Execute the command list in order; every exception a command raises
    becomes its error record, whose message starts with the type name."""
    runner = _Runner(doc, search_height, search_terms)
    records = []
    for i, cmd in enumerate(doc.commands):
        record = {"index": i, "op": cmd["op"]}
        try:
            record["result"] = runner.run_command(cmd)
            record["status"] = "ok"
        except Exception as exc:
            name = type(exc).__name__
            record["status"] = "error"
            record["error"] = f"{name}: {exc}" if str(exc) else name
        records.append(record)
    return Report(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hermsig", add_help=True)
    sub = parser.add_subparsers(dest="mode")
    run_p = sub.add_parser("run", help="execute a session document")
    run_p.add_argument("file")
    run_p.add_argument("--format", choices=("json", "table"), default="json")
    run_p.add_argument("--search-height", type=int, default=3)
    run_p.add_argument("--search-terms", type=int, default=6)
    check_p = sub.add_parser("check", help="parse and validate only")
    check_p.add_argument("file")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.mode is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 1

    try:
        doc = parse_session(text)
    except SessionParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    if args.mode == "check":
        print("ok")
        return 0

    report = run_session(doc, args.search_height, args.search_terms)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_table())
    return 3 if report.has_errors else 0


if __name__ == "__main__":
    sys.exit(main())
