"""Seeded generator of session documents for the benchmark workloads.

``generate(workload, seed)`` returns the text of an ordinary hermsig session
document.  The same (workload, seed) always gives the same bytes.  The shape
of each document (fields, algebras, ranks, commands) is fixed per workload;
the seed only draws the coefficients, so two seeds give sessions of similar
cost.
"""

from __future__ import annotations

import json
import random

# Totally real quintic x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1: five orderings, the
# generator x is negative at orderings 0-2 and positive at 3-4.
F5 = ["1", "3", "-3", "-4", "1", "1"]
SQRT2 = ["-2", "0", "1"]

WORKLOADS = ("sig_tables", "small_forms", "cone_search")

# The document's own seed drives hermsig's sampling (ideals, morita-check).
# It stays fixed: the sizes of the sampled forms set most of the cost of
# those commands, so a seeded sampling seed would make the session cost
# depend on the benchmark seed.  The benchmark seed draws the forms and
# elements of the document.
SAMPLING_SEED = 20240801


def _poly(coeffs) -> str:
    """Render integer coefficients (constant first) as an expression in x."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


class _Draw:
    """Coefficient draws for one document: elements are polynomials in x of
    `terms` coefficients, each at most `height` in absolute value."""

    def __init__(self, seed: int, height: int, terms: int):
        self.rng = random.Random(seed)
        self.height = height
        self.terms = terms

    def elem(self, nonzero: bool = False) -> str:
        while True:
            coeffs = [self.rng.randint(-self.height, self.height)
                      for _ in range(self.terms)]
            if not nonzero or any(coeffs):
                return _poly(coeffs)

    def entry(self, dim: int, pure: bool = False, real: bool = False):
        """An entry with `dim` coordinates; `real` keeps only the first
        coordinate (hermitian diagonal), `pure` drops it (skew diagonal)."""
        if dim == 1:
            return self.elem()
        coords = [self.elem() for _ in range(dim)]
        if real:
            coords[1:] = ["0"] * (dim - 1)
            coords[0] = self.elem(nonzero=True)
        if pure:
            coords[0] = "0"
            if all(c == "0" for c in coords):
                coords[1] = self.elem(nonzero=True)
        return coords


def _neg(expr: str) -> str:
    return "0" if expr == "0" else f"-({expr})"


def _conj(entry, dim: int):
    if dim == 1:
        return entry
    return [entry[0]] + [_neg(c) for c in entry[1:]]


def _hermitian_gram(draw: _Draw, size: int, dim: int, skew: bool):
    """A random (skew-)hermitian entry Gram: the upper triangle is drawn, the
    lower triangle is its (negated) conjugate."""
    gram = [[None] * size for _ in range(size)]
    for r in range(size):
        gram[r][r] = draw.entry(dim, pure=skew, real=not skew)
        for c in range(r + 1, size):
            e = draw.entry(dim)
            gram[r][c] = e
            ce = _conj(e, dim)
            if skew:
                ce = [_neg(v) for v in ce] if dim > 1 else _neg(ce)
            gram[c][r] = ce
    return gram


def _symmetric_gram(draw: _Draw, size: int):
    gram = [[None] * size for _ in range(size)]
    for r in range(size):
        gram[r][r] = draw.elem(nonzero=True)
        for c in range(r + 1, size):
            gram[r][c] = gram[c][r] = draw.elem()
    return gram


ENTRY_DIM = {"split_orth": 1, "unitary": 2, "quat_symp": 4, "quat_skew": 4}


def _algebra(name, family, n=1, **params):
    spec = {"name": name, "family": family, "n": n}
    spec.update(params)
    return spec


def _sig_tables(seed: int) -> dict:
    """Few large eliminations over F5: hermitian Grams whose trace forms have
    sizes 6 to 24, and two quadratic Gram forms of size 8 and 12."""
    draw = _Draw(seed, height=2, terms=2)
    algebras = [
        _algebra("so1", "split_orth"),
        _algebra("so2", "split_orth", 2),
        _algebra("uni", "unitary", delta="-1"),
        _algebra("ham", "quat_symp", a="-1", b="-1"),
        _algebra("mix", "quat_symp", a="-1", b="x"),
        _algebra("skew", "quat_skew", a="1", b="1"),
        _algebra("ham2", "quat_symp", 2, a="-1", b="-1"),
    ]
    # (algebra, rank): trace-form size is rank * n * entry_dim
    shapes = [("so1", 6), ("so1", 8), ("so2", 3), ("so2", 4), ("uni", 4),
              ("uni", 6), ("ham", 3), ("mix", 3), ("skew", 3), ("ham2", 3)]
    by_name = {a["name"]: a for a in algebras}
    forms, commands = [], []
    for i, (alg, rank) in enumerate(shapes):
        spec = by_name[alg]
        family, n = spec["family"], spec["n"]
        name = f"h{i}"
        gram = _hermitian_gram(draw, rank * n, ENTRY_DIM[family],
                               skew=family == "quat_skew")
        forms.append({"name": name, "algebra": alg, "gram": gram})
        commands.append({"op": "total-sign", "form": name})
        commands.append({"op": "torsion", "form": name})
        if n == 1 and family != "quat_skew":
            commands.append({"op": "decompose", "form": name, "ordering": 0,
                             "orientation": 1})
        commands.append({"op": "sign", "form": name,
                         "ordering": draw.rng.randrange(5)})
    for size in (8, 12):
        name = f"g{size}"
        forms.append({"name": name, "gram": _symmetric_gram(draw, size)})
        commands.append({"op": "total-sign", "form": name})
        commands.append({"op": "torsion", "form": name})
    return {"seed": SAMPLING_SEED, "field": {"min_poly": F5, "generator": "x"},
            "algebras": algebras, "forms": forms, "commands": commands}


SMALL_FORMS = 200


def _small_forms(seed: int) -> dict:
    """SMALL_FORMS rank-1 to rank-3 forms over Q(sqrt 2), each queried once
    or twice, and small quadratic Gram forms."""
    draw = _Draw(seed, height=3, terms=2)
    algebras = [
        _algebra("so1", "split_orth"),
        _algebra("so2", "split_orth", 2),
        _algebra("uni", "unitary", delta="-1"),
        _algebra("ham", "quat_symp", a="-1", b="-1"),
        _algebra("mix", "quat_symp", a="-1", b="x"),
        _algebra("skew", "quat_skew", a="1", b="1"),
    ]
    forms, commands = [], []
    for i in range(SMALL_FORMS):
        spec = algebras[i % len(algebras)]
        family, n = spec["family"], spec["n"]
        rank = 1 + i // len(algebras) % 3
        name = f"h{i}"
        gram = _hermitian_gram(draw, rank * n, ENTRY_DIM[family],
                               skew=family == "quat_skew")
        forms.append({"name": name, "algebra": spec["name"], "gram": gram})
        commands.append({"op": "total-sign", "form": name})
        if i % 2:
            commands.append({"op": "torsion", "form": name})
    for i in range(SMALL_FORMS // 10):
        name = f"g{i}"
        forms.append({"name": name, "gram": _symmetric_gram(draw, 2 + i % 3)})
        commands.append({"op": "total-sign", "form": name})
    return {"seed": SAMPLING_SEED, "field": {"min_poly": SQRT2, "generator": "x"},
            "algebras": algebras, "forms": forms, "commands": commands}


def _cone_search(seed: int) -> dict:
    """Cones, certificates and topology over F5: many tiny eliminations,
    inverses and Python-level search."""
    draw = _Draw(seed, height=2, terms=2)
    members = [
        _algebra("so1", "split_orth"),
        _algebra("uni", "unitary", delta="-1"),
        _algebra("ham", "quat_symp", a="-1", b="-1"),
        _algebra("mix", "quat_symp", a="-1", b="x"),
    ]
    algebras = members + [_algebra("so2", "split_orth", 2)]
    forms = [
        {"name": "q", "diag": [draw.elem(nonzero=True) for _ in range(3)]},
        {"name": "hh", "algebra": "ham",
         "diag": [draw.elem(nonzero=True) for _ in range(2)]},
    ]
    # Ordering pairs at least two apart: adjacent pairs such as (0, 1) end in
    # SearchExhaustedError at the seed commit (see BASELINE.md), and the
    # workload must be one on which no operation fails.
    pairs = [(i, j) for i in range(5) for j in range(i + 2, 5)]
    commands = []
    for spec in members:
        a = spec["name"]
        commands += [
            {"op": "reference-form", "algebra": a},
            {"op": "cones", "algebra": a},
            {"op": "positivity", "algebra": a},
            {"op": "topology", "algebra": a},
            {"op": "morphisms", "algebra": a, "orderings": [2, 2]},
            {"op": "morphisms", "algebra": a,
             "orderings": list(draw.rng.choice(pairs))},
        ]
    for _ in range(4):
        v = draw.elem(nonzero=True)
        commands.append({"op": "cone-member", "algebra": "so1", "element": [[v]],
                         "ordering": draw.rng.randrange(5),
                         "orientation": draw.rng.choice([1, -1])})
        commands.append({"op": "eta-max", "algebra": "ham",
                         "element": [[[v, "0", "0", "0"]]],
                         "ordering": draw.rng.randrange(5)})
    # Rational targets with one outcome each: a short sum of squares
    # (certificate), a negative value (refuted), and values that need more
    # terms than max_terms allows (unknown once the budget is spent).
    # Explicit height and max_terms: at the CLI defaults the search may not
    # end.
    def sos(alg, value, terms):
        element = [[value]] if alg == "so1" else [[[value, "0", "0", "0"]]]
        return {"op": "sos-find", "algebra": alg, "element": element,
                "height": 1, "max_terms": terms}

    rnd = draw.rng.randint
    commands += [
        sos("ham", str(rnd(2, 4)), 3),
        sos("so1", str(rnd(2, 3)), 3),
        sos("ham", str(-rnd(1, 5)), 3),
        sos("so1", "x", 3),
        sos("ham", str(rnd(13, 15)), 2),
        sos("so1", str(rnd(5, 7)), 3),
    ]
    commands.append({"op": "morita-check", "algebra": "so2", "samples": 3})
    commands.append({"op": "ideals", "algebra": "ham", "kind": "signature",
                     "ordering": 0, "q": "q", "h": "hh", "trials": 6})
    commands.append({"op": "ideals", "algebra": "ham", "kind": "mod_p",
                     "ordering": 1, "p": 3, "trials": 6})
    return {"seed": SAMPLING_SEED, "field": {"min_poly": F5, "generator": "x"},
            "algebras": algebras, "forms": forms, "commands": commands}


_BUILDERS = {"sig_tables": _sig_tables, "small_forms": _small_forms,
             "cone_search": _cone_search}


def generate(workload: str, seed: int) -> str:
    """The session document for (workload, seed) as JSON text."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return json.dumps(_BUILDERS[workload](seed), indent=1, sort_keys=True) + "\n"
