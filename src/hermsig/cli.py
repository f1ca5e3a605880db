"""Command dispatch and report emission for session documents.

Commands run sequentially in document order; every record is JSON-safe
and every decision exact, so machine-readable reports are byte-identical
across runs.  Exit codes: 0 success, 1 usage, 2 parse error, 3
computation error (any error record).
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii

from .cones import (
    MAX_SEARCH_HEIGHT,
    MAX_SEARCH_TERMS,
    SEARCH_HEIGHT,
    SEARCH_TERMS,
    PositiveCone,
    SquareCertificate,
    default_generator,
    enumerate_positive_cones,
    eta_maximal,
    find_sos_certificate,
    formally_real,
    positivity_sets,
    verify_certificate,
)
from .errors import HermsigError
from .field import render_element
from .hermitian import (
    HermitianForm,
    going_up,
    knebusch_check,
    reference_form,
    signature,
    sylvester_decompose,
    total_signature_h,
)
from .quadforms import GramQuadraticForm, QuadraticForm, total_signature_q
from .session import (
    SessionDocument,
    SessionParseError,
    parse_session,
    render_entry,
    resolve_args,
)
from .spectra import (
    FundamentalDescriptor,
    PrimeIdealPair,
    cone_space_topology,
    count_open_sets,
    ideal_membership,
    is_t0,
    morita_cone_maps,
    morphism_distinctness,
    prime_property_sample,
    topology_compare,
)


def _json(v, nl: str) -> str:
    """v as json.dumps(v, indent=2, sort_keys=True) writes it, nested at the
    line break and indent nl.  The types a report carries, and no subclass
    of them: str (ASCII-escaped by the stdlib's C encoder), int, bool,
    None, list, tuple and dict with str keys; any other value raises
    TypeError."""
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in v]) + nl + "]"
    if t is dict:
        if not v:
            return "{}"
        inner = nl + "  "
        # a key that is not a str fails in the sort or in the quoting
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(v[k], inner) for k in sorted(v)]) + nl + "}"
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


class Report:
    def __init__(self, records: list[dict]):
        self.records = records

    @property
    def has_errors(self) -> bool:
        return any(r.get("status") == "error" for r in self.records)

    def to_json(self) -> str:
        return _json(self.records, "\n") + "\n"

    def to_table(self) -> str:
        lines = []
        for rec in self.records:
            lines.append(f"[{rec['index']}] {rec['op']}: {rec['status']}")
            body = rec.get("error") if rec["status"] == "error" else rec.get("result")
            lines.append("    " + _json(body, "\n    "))
        return "\n".join(lines) + "\n"


def _render_rows(rows, gen: str):
    return [[render_entry(v, gen) for v in row] for row in rows]


def _render_certificate(cert: SquareCertificate, gen: str):
    return {
        "terms": [
            {
                "weight_subset": list(t.weight_subset),
                "weight_root": render_element(t.weight_root, gen),
                "vector": _render_rows(t.vector.rows, gen),
                "generator_index": t.generator_index,
            }
            for t in cert.terms
        ]
    }


class _Runner:
    """Runs checked commands: `run_command` resolves the arguments by the
    schema in `hermsig.session` and calls the op's handler `cmd_<op>`."""

    def __init__(self, doc: SessionDocument, search_height: int, search_terms: int):
        self.doc = doc
        self.search_height = search_height
        self.search_terms = search_terms
        # id(form) -> [(ordering, signature)]; doc.forms keeps each form alive
        self.totals: dict[int, list] = {}

    def run_command(self, i: int, cmd: dict):
        args = resolve_args(self.doc, cmd, f"commands[{i}]")
        return getattr(self, "cmd_" + cmd["op"].replace("-", "_"))(**args)

    def cmd_orderings(self):
        return [{"index": p.index, "interval": [str(p.lo), str(p.hi)]}
                for p in self.doc.field.orderings]

    def _total_signature(self, form):
        """The signature of a declared form at every ordering, computed once
        per session: total-sign returns it, torsion tests it and sign reads
        one entry."""
        total = self.totals.get(id(form))
        if total is None:
            if isinstance(form, HermitianForm):
                total = total_signature_h(form)
            else:
                total = total_signature_q(form)
            self.totals[id(form)] = total
        return total

    def cmd_sign(self, form, ordering):
        return self._total_signature(form)[ordering.index][1]

    def cmd_total_sign(self, form):
        return [[p.index, v] for p, v in self._total_signature(form)]

    def cmd_nil(self, algebra):
        return [p.index for p in algebra.nil_orderings()]

    def cmd_torsion(self, form):
        return all(v == 0 for _, v in self._total_signature(form))

    def cmd_transfer_check(self, algebra, ext, diag):
        report = knebusch_check(diag)
        return {"holds": report.holds, "transfer_side": report.transfer_side,
                "sum_side": report.sum_side}

    def cmd_going_up(self, form, ext):
        if not isinstance(form, HermitianForm):
            raise HermsigError("going-up applies to hermitian forms")
        ext_field, _ = ext
        base = signature(form, self.doc.field.orderings[0])
        lifted = going_up(form, ext_field)
        table = [[p.index, signature(lifted, p)] for p in ext_field.orderings]
        return {"base": base, "lifted": table,
                "agrees": all(v == base for _, v in table)}

    def cmd_reference_form(self, algebra):
        ref = reference_form(algebra)
        gram, n = ref.form.gram, algebra.n
        diag = [_render_rows([row[i * n:(i + 1) * n] for row in gram[i * n:(i + 1) * n]],
                             self.doc.gen_name) for i in range(ref.form.rank)]
        return {"diagonal": diag,
                "certificate": [[p.index, s] for p, s in sorted(
                    ref.certificate.items(), key=lambda kv: kv[0].index)]}

    def cmd_cones(self, algebra):
        cones = enumerate_positive_cones(algebra)
        return {"count": len(cones),
                "cones": [list(c.id_pair()) for c in cones],
                "formally_real": formally_real(algebra)}

    def cmd_cone_member(self, algebra, ordering, orientation, element):
        return PositiveCone(algebra, ordering, orientation).contains(element)

    def cmd_eta_max(self, algebra, ordering, element):
        return eta_maximal(element, ordering)

    def cmd_sos_find(self, algebra, element, a, slots, height, max_terms):
        res = find_sos_certificate(element, a, slots,
                                   height=height or self.search_height,
                                   max_terms=max_terms or self.search_terms)
        gen = self.doc.gen_name
        out = {"status": res.status}
        if res.certificate is not None:
            out["certificate"] = _render_certificate(res.certificate, gen)
        if res.refutation is not None:
            out["refutation"] = {
                "ordering": res.refutation.ordering.index,
                "witness": render_element(res.refutation.witness, gen),
            }
        return out

    def cmd_sos_verify(self, algebra, element, certificate, a, slots, copies):
        if copies is None:
            copies = max((t.generator_index for t in certificate.terms),
                         default=-1) // (1 << len(slots)) + 1
        return verify_certificate(element, default_generator(algebra) if a is None else a,
                                  slots, copies, certificate)

    def cmd_positivity(self, algebra):
        rep = positivity_sets(algebra)
        return {"x_sigma": [p.index for p in rep.x_sigma],
                "x_tilde": [p.index for p in rep.x_tilde],
                "ps_prime_holds": rep.ps_prime_holds,
                "ps_sufficient": rep.ps_sufficient,
                "formally_real": formally_real(algebra)}

    def cmd_ideals(self, algebra, kind, ordering, p, q, h, generators, closed):
        for key, value, used in (("ordering", ordering, kind != "fundamental"),
                                 ("p", p, kind == "mod_p"),
                                 ("generators", generators, kind == "fundamental"),
                                 ("closed", closed, kind == "fundamental")):
            if value is not None and not used:
                raise HermsigError(f"kind {kind!r} takes no {key!r}")
        generators = generators or []
        if any(not isinstance(g, HermitianForm) for g in generators):
            raise HermsigError("fundamental generators must be hermitian forms")
        pair = PrimeIdealPair(kind, algebra, ordering, p,
                              FundamentalDescriptor(generators, closed=closed is not False))
        out = {}
        if q is not None or h is not None:
            if isinstance(q, GramQuadraticForm):
                q = q._kernel.form
            if not isinstance(q, QuadraticForm) or not isinstance(h, HermitianForm):
                raise HermsigError("'q' must be quadratic and 'h' hermitian")
            out["q_in_ideal"], out["h_in_submodule"] = ideal_membership(q, h, pair)
        sample = prime_property_sample(pair)
        out["prime_sample"] = "pass" if sample.passed else \
            f"counterexample ({sample.failed_axiom})"
        return out

    def cmd_morphisms(self, algebra, orderings):
        p, q = orderings
        res = morphism_distinctness(algebra, p, q)
        out = {"equivalent": res.equivalent,
               "trivial": [algebra.is_nil(p), algebra.is_nil(q)]}
        if res.witness is not None:
            out["witness"] = _render_rows(res.witness.gram, self.doc.gen_name)
        return out

    def cmd_topology(self, algebra):
        space, minimal = cone_space_topology(algebra)
        return {"space_size": len(space),
                "topologies_agree": topology_compare(space),
                "t0": is_t0(minimal),
                "open_sets": count_open_sets(minimal)}

    def cmd_morita_check(self, algebra):
        if algebra.n == 1:
            return {"identity": True, "ok": True, "pairs": []}
        report = morita_cone_maps(algebra)
        return {"identity": False, "ok": report.ok,
                "pairs": [[list(a), list(b)] for a, b in report.pairs]}

    def cmd_decompose(self, form, ordering, orientation):
        if not isinstance(form, HermitianForm):
            raise HermsigError("decompose applies to hermitian forms")
        dec = sylvester_decompose(form, PositiveCone(form.algebra, ordering, orientation))
        gen = self.doc.gen_name
        return {"weights": [render_element(w, gen) for w in dec.weights],
                "positive": [render_element(d, gen) for d in dec.positive],
                "negative": [render_element(d, gen) for d in dec.negative],
                "radical_dim": dec.radical_dim,
                "value": dec.value}


def run_session(doc: SessionDocument, search_height: int = SEARCH_HEIGHT,
                search_terms: int = SEARCH_TERMS) -> Report:
    """Execute the command list in order; every exception a command raises
    becomes its error record, whose message starts with the type name."""
    runner = _Runner(doc, search_height, search_terms)
    records = []
    for i, cmd in enumerate(doc.commands):
        record = {"index": i, "op": cmd["op"]}
        try:
            record["result"] = runner.run_command(i, cmd)
            record["status"] = "ok"
        except Exception as exc:
            name = type(exc).__name__
            record["status"] = "error"
            record["error"] = f"{name}: {exc}" if str(exc) else name
        records.append(record)
    return Report(records)


def _search_bound(cap: int):
    """An argparse type: a positive integer at most cap, as the session key
    it stands in for."""
    def integer(text: str) -> int:
        value = int(text)
        if not 1 <= value <= cap:
            from argparse import ArgumentTypeError  # already loaded: main calls this
            raise ArgumentTypeError(f"must be a positive integer at most {cap}")
        return value
    return integer


def main(argv=None) -> int:
    import argparse  # here, so that importing hermsig.cli does not load it

    parser = argparse.ArgumentParser(prog="hermsig", add_help=True)
    sub = parser.add_subparsers(dest="mode")
    run_p = sub.add_parser("run", help="execute a session document")
    run_p.add_argument("file")
    run_p.add_argument("--format", choices=("json", "table"), default="json")
    run_p.add_argument("--search-height", type=_search_bound(MAX_SEARCH_HEIGHT),
                       default=SEARCH_HEIGHT)
    run_p.add_argument("--search-terms", type=_search_bound(MAX_SEARCH_TERMS),
                       default=SEARCH_TERMS)
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
