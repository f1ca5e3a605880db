"""Rendering a parsed session document back to JSON, for the round-trip
test of `parse_session`; no command writes documents."""

import json
from functools import partial

from hermsig.field import render_element
from hermsig.quadforms import GramQuadraticForm, QuadraticForm
from hermsig.session import render_entry


def render_session(doc):
    """Canonical JSON rendering; re-parsing yields a semantically identical
    document (hermitian forms are emitted as full entry Grams)."""
    gen = doc.gen_name
    elem = partial(render_element, gen=gen)
    out = {
        "field": {"min_poly": [str(c) for c in doc.field.min_poly],
                  "generator": gen},
        "seed": doc.seed,
        "algebras": [],
        "forms": [],
        "commands": doc.commands,
    }
    for name, alg in doc.algebras.items():
        spec = {"name": name, "family": alg.family, "n": alg.n}
        spec.update((k, elem(v)) for k, v in zip(alg.spec.params, alg.params))
        out["algebras"].append(spec)
    for name, form in doc.forms.items():
        if isinstance(form, QuadraticForm):
            out["forms"].append({"name": name, "diag": [elem(e) for e in form.entries]})
        elif isinstance(form, GramQuadraticForm):
            out["forms"].append({"name": name,
                                 "gram": [[elem(v) for v in row] for row in form.rows]})
        else:
            alg_name = next(n for n, a in doc.algebras.items() if a == form.algebra)
            out["forms"].append({
                "name": name, "algebra": alg_name,
                "gram": [[render_entry(v, gen) for v in row] for row in form.gram]})
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
