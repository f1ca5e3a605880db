"""Session documents: a JSON-compatible declaration of one field, named
algebras and forms, and a command list.

Validation is strict: unknown keys, unknown families, unresolved names,
square deltas and non-squarefree polynomials are rejected at parse time.
JSON syntax errors carry the decoder's line/column; structural errors
carry a JSON path like ``algebras[0].a`` (and element expressions report
the offset inside the expression string).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction

from .algebras import AlgebraElement, AlgebraWithInvolution
from .cones import (MAX_SEARCH_HEIGHT, MAX_SEARCH_TERMS, MAX_SLOTS, CertTerm,
                    SquareCertificate)
from .errors import HermsigError
from .field import FieldElement, NumberField, render_element
from .hermitian import HermitianForm, going_up_algebra
from .quadforms import GramQuadraticForm, QuadraticForm


def _at(path) -> str:
    """A JSON path given as a string, or as (path, index, ...) and formatted
    only when a message needs it."""
    if isinstance(path, str):
        return path
    return _at(path[0]) + "".join(f"[{i}]" for i in path[1:])


class SessionParseError(Exception):
    def __init__(self, message: str, path: str | tuple = "", line: int | None = None,
                 col: int | None = None):
        self.message = message
        self.path = path = _at(path)
        self.line = line
        self.col = col
        where = path or (f"line {line}, column {col}" if line else "")
        super().__init__(f"{where}: {message}" if where else message)


# ---------------------------------------------------------------------------
# Element expressions: polynomials in the field generator with rational
# coefficients; numbers as integers, exact decimals or fractions "p/q".

MAX_EXPONENT = 64  # the largest n in "^n", and of a product of nested exponents


class _ExprParser:
    """Recursive descent over tokens, each lexed once (`advance`)."""

    def __init__(self, text: str, gen_name: str, field: NumberField, path):
        self.text = text
        self.gen_name = gen_name
        self.field = field
        self.path = path
        # the largest product of nested exponents in the factors parsed so
        # far at the current depth: (x^8)^8 has 64, and (x^2 + x^3)^4 has 12
        self.nested = 1
        self.pos = 0
        self.advance()

    def fail(self, message: str, at: int | None = None):  # at: default the token start
        raise SessionParseError(f"{message} (at offset {self.start if at is None else at} "
                                f"in {self.text!r})", self.path)

    def advance(self) -> None:
        """Lex the next token, self.tok: a number literal, a name, one other
        character or "" at the end, from offset self.start to self.pos."""
        text, pos, n = self.text, self.pos, len(self.text)
        while pos < n and text[pos].isspace():
            pos += 1
        self.start = end = pos
        if pos < n:
            end += 1
            if text[pos].isdigit() or text[pos] == ".":
                while end < n and (text[end].isdigit() or text[end] in "./"):
                    end += 1
            elif text[pos].isalpha() or text[pos] == "_":
                while end < n and (text[end].isalnum() or text[end] == "_"):
                    end += 1
        self.tok, self.pos = text[pos:end], end

    def parse(self) -> FieldElement:
        value = self.expr()
        if self.tok:
            self.fail("trailing input")
        return value

    def expr(self) -> FieldElement:
        value = self.term()
        while self.tok in ("+", "-"):
            op = self.tok
            self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> FieldElement:
        value = self.factor()
        while self.tok == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> FieldElement:
        if self.tok == "-":
            self.advance()
            return -self.factor()
        outer, self.nested = self.nested, 1
        value = self.atom()
        if self.tok == "^":
            start = self.pos
            self.advance()
            n = self.exponent()
            if self.nested * n > MAX_EXPONENT:
                self.fail(f"nested exponents multiply to {self.nested * n}; "
                          f"their product must be at most {MAX_EXPONENT}", start)
            self.nested *= n
            value = value ** n
        self.nested = max(outer, self.nested)
        return value

    def atom(self) -> FieldElement:
        tok = self.tok
        if tok == "(":
            self.advance()
            value = self.expr()
            if self.tok != ")":
                self.fail("expected ')'")
            self.advance()
            return value
        if tok[:1].isdigit() or tok[:1] == ".":
            try:
                value = int(tok) if tok.isdecimal() else Fraction(tok)
            except (ValueError, ZeroDivisionError):
                self.fail(f"bad numeric literal {tok!r}")
            self.advance()
            return self.field.element(value)
        if tok[:1].isalpha() or tok[:1] == "_":
            if tok != self.gen_name:
                self.fail(f"unknown name {tok!r}; the generator is {self.gen_name!r}", self.pos)
            self.advance()
            return self.field.gen
        self.fail("expected a number, the generator or a parenthesis")

    def exponent(self) -> int:
        """The decimal digits that start the current token; the rest of a
        literal such as "2.5" is lexed again."""
        tok, k = self.tok, 0
        while k < len(tok) and tok[k].isdecimal():
            k += 1
        if not k:
            self.fail("expected an exponent")
        digits = tok[:k].lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            self.fail(f"exponent must be at most {MAX_EXPONENT}")
        self.pos = self.start + k
        self.advance()
        return int(digits or 0)


def parse_element(value, field: NumberField, gen_name: str, path) -> FieldElement:
    """The element an expression or integer denotes.  Each distinct string
    is parsed once per field, that is once per document: the result is kept
    on the field under (value, gen_name).  A failure is not kept, so each
    bad occurrence reports its own path (`_at`: a string, or a tuple that
    only an error formats)."""
    if isinstance(value, str):
        key = (value, gen_name)
        element = field._parsed.get(key)
        if element is None:
            element = field._parsed[key] = _ExprParser(value, gen_name, field, path).parse()
        return element
    if isinstance(value, bool):
        raise SessionParseError("expected an element expression", path)
    if isinstance(value, int):
        return field.element(value)
    raise SessionParseError("expected an element expression (string or integer)", path)


# ---------------------------------------------------------------------------
# Document model.


class SessionDocument:
    def __init__(self, field: NumberField, gen_name: str,
                 algebras: dict[str, AlgebraWithInvolution],
                 forms: dict[str, object],  # QuadraticForm | GramQuadraticForm | HermitianForm
                 commands: list[dict], seed: int = 0):
        self.field = field
        self.gen_name = gen_name
        self.algebras = algebras
        self.forms = forms
        self.commands = commands
        self.seed = seed


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SessionParseError(f"missing required key {key!r}", path)
    return obj[key]


def _check_keys(obj: dict, allowed, path: str):
    for k in obj:
        if k not in allowed:
            raise SessionParseError(f"unknown key {k!r}", f"{path}.{k}")


def _declared_name(spec: dict, path: str) -> str:
    name = _require(spec, "name", path)
    if not isinstance(name, str):
        raise SessionParseError("name must be a string", f"{path}.name")
    return name


def _resolve(name, names: dict, kind: str, path: str):
    if not isinstance(name, str):
        raise SessionParseError(f"{kind} names are strings", path)
    if name not in names:
        raise SessionParseError(f"unresolved {kind} name {name!r}", path)
    return names[name]


def _parse_field(spec, path: str) -> tuple[NumberField, str]:
    if not isinstance(spec, dict):
        raise SessionParseError("field declaration must be an object", path)
    _check_keys(spec, {"min_poly", "generator"}, path)
    coeffs = _require(spec, "min_poly", path)
    if not isinstance(coeffs, list) or not coeffs:
        raise SessionParseError("min_poly must be a coefficient list, constant first",
                                f"{path}.min_poly")
    gen = spec.get("generator", "x")
    if not isinstance(gen, str) or not gen.isidentifier():
        raise SessionParseError("generator must be an identifier", f"{path}.generator")
    try:
        fractions = [_exact_number(c, f"{path}.min_poly[{i}]")
                     for i, c in enumerate(coeffs)]
        field = NumberField(fractions)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SessionParseError(str(exc), f"{path}.min_poly")
    return field, gen


def _exact_number(c, path: str) -> Fraction:
    if isinstance(c, bool) or isinstance(c, float):
        raise SessionParseError(
            "numeric literals must be integers or exact strings like \"3/4\"", path)
    if isinstance(c, (int, str)):
        return Fraction(c)
    raise SessionParseError("expected a number", path)


def _parse_algebra(spec, field: NumberField, gen: str, path: str) -> tuple[str, AlgebraWithInvolution]:
    if not isinstance(spec, dict):
        raise SessionParseError("algebra declaration must be an object", path)
    _check_keys(spec, {"name", "family", "n", "a", "b", "delta"}, path)
    name = _declared_name(spec, path)
    family = _require(spec, "family", path)
    n = spec.get("n", 1)
    if type(n) is not int or n < 1:
        raise SessionParseError("n must be a positive integer", f"{path}.n")
    kwargs = {}
    for key in ("a", "b", "delta"):
        if key in spec:
            kwargs[key] = parse_element(spec[key], field, gen, f"{path}.{key}")
    try:
        algebra = AlgebraWithInvolution(field, family, n, **kwargs)
    except Exception as exc:
        raise SessionParseError(str(exc), path)
    return name, algebra


def _parse_entry(value, algebra: AlgebraWithInvolution, gen: str, path):
    ed, field = algebra.entry_dim, algebra.field
    if ed == 1 or not isinstance(value, list):
        # bare expressions denote scalar entries in any family
        return algebra.entry(parse_element(value, field, gen, path))
    if len(value) != ed:
        raise SessionParseError(
            f"{algebra.family} entries are {ed}-component coordinate lists", path)
    return algebra.ring.from_coords(
        [parse_element(v, field, gen, (path, i)) for i, v in enumerate(value)])


def parse_algebra_element(value, algebra: AlgebraWithInvolution, gen: str,
                          path) -> AlgebraElement:
    n = algebra.n
    if not isinstance(value, list) or len(value) != n \
            or any(not isinstance(r, list) or len(r) != n for r in value):
        raise SessionParseError(f"expected an {n}x{n} entry matrix", path)
    rows = [[_parse_entry(v, algebra, gen, (path, r, c)) for c, v in enumerate(row)]
            for r, row in enumerate(value)]
    try:
        return AlgebraElement(algebra, rows)
    except Exception as exc:
        raise SessionParseError(str(exc), path)


def parse_diagonal(values: list, algebra: AlgebraWithInvolution, gen: str,
                   path) -> list:
    """The diagonal of <a_1, ..., a_k>: entries when n = 1, else entry
    matrices."""
    parse = _parse_entry if algebra.n == 1 else parse_algebra_element
    return [parse(v, algebra, gen, (path, i)) for i, v in enumerate(values)]


def _parse_form(spec, field: NumberField, gen: str,
                algebras: dict[str, AlgebraWithInvolution], path: str):
    if not isinstance(spec, dict):
        raise SessionParseError("form declaration must be an object", path)
    _check_keys(spec, {"name", "algebra", "diag", "gram"}, path)
    name = _declared_name(spec, path)
    if ("diag" in spec) == ("gram" in spec):
        raise SessionParseError("a form is either 'diag' or 'gram'", path)
    if not isinstance(spec.get("diag", []), list):
        raise SessionParseError("diag must be a list", f"{path}.diag")
    rows = spec.get("gram", [])
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SessionParseError("gram must be a row list", f"{path}.gram")

    key = "diag" if "diag" in spec else "gram"
    where = f"{path}.{key}"

    def grid(parse):
        return [[parse(v, (where, r, c)) for c, v in enumerate(row)]
                for r, row in enumerate(rows)]

    try:
        if "algebra" not in spec:
            def scalar(v, p):
                return parse_element(v, field, gen, p)
            if key == "diag":
                return name, QuadraticForm(field, [scalar(v, (where, i))
                                                   for i, v in enumerate(spec["diag"])])
            return name, GramQuadraticForm(field, grid(scalar))
        algebra = _resolve(spec["algebra"], algebras, "algebra", f"{path}.algebra")
        if key == "diag":
            return name, HermitianForm.diagonal(
                algebra, parse_diagonal(spec["diag"], algebra, gen, where))
        return name, HermitianForm(algebra, grid(lambda v, p: _parse_entry(v, algebra, gen, p)))
    except ValueError as exc:
        raise SessionParseError(str(exc), where)


# ---------------------------------------------------------------------------
# The command schema.  `ARGS` says what an argument key means in every op
# that takes it: the JSON type `parse_session` checks (a boolean is never an
# integer), the resolver that makes the handler's argument when the command
# runs (`args` holds the keys resolved before it, in table order) and the
# value of an absent optional key.  Names are resolved at parse time too.
# `OPS` gives the required and optional keys of each op.


def _named(table: str) -> Callable:
    return lambda name, doc, args, path: _resolve(name, getattr(doc, table), table[:-1], path)


_form = _named("forms")


def _generators(names, doc, args, path):
    return [_form(name, doc, args, f"{path}[{j}]") for j, name in enumerate(names)]


def _ordering(idx, doc, args, path):
    orderings = doc.field.orderings
    if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < len(orderings):
        raise HermsigError(f"no ordering with index {idx}")
    return orderings[idx]


def _two_orderings(value, doc, args, path):
    if not isinstance(value, list) or len(value) != 2:
        raise HermsigError("'orderings' must be a list of two ordering indices")
    return [_ordering(idx, doc, args, path) for idx in value]


def _element(value, doc, args, path):
    return parse_algebra_element(value, args["algebra"], doc.gen_name, path)


def _slots(values, doc, args, path):
    return [parse_element(v, doc.field, doc.gen_name, f"{path}[{j}]")
            for j, v in enumerate(values)]


def _certificate(spec, doc, args, path):
    algebra, gen = args["algebra"], doc.gen_name
    return SquareCertificate([CertTerm(
        tuple(t.get("weight_subset", [])),
        parse_element(t.get("weight_root", "1"), doc.field, gen,
                      f"{path}.terms[{j}].weight_root"),
        parse_algebra_element(t["vector"], algebra, gen, f"{path}.terms[{j}].vector"),
        t["generator_index"]) for j, t in enumerate(spec.get("terms", []))])


def _check_terms(spec: dict, path: str) -> None:
    """The certificate has no key but `terms`; each term is an object with
    a `vector` and an integer `generator_index`, no unknown key, and a
    `weight_subset`, if any, that lists integers."""
    _check_keys(spec, {"terms"}, path)
    terms = spec.get("terms", [])
    if not isinstance(terms, list) or any(not isinstance(t, dict) for t in terms):
        raise SessionParseError("terms must be a list of objects", f"{path}.terms")
    for j, term in enumerate(terms):
        where = f"{path}.terms[{j}]"
        _check_keys(term, {"weight_subset", "weight_root", "vector", "generator_index"}, where)
        for key in ("vector", "generator_index"):
            if key not in term:
                raise SessionParseError(f"missing required key {key!r}", f"{where}.{key}")
        if type(term["generator_index"]) is not int:
            raise SessionParseError("generator_index must be an integer",
                                    f"{where}.generator_index")
        subset = term.get("weight_subset", [])
        if not isinstance(subset, list) or any(type(i) is not int for i in subset):
            raise SessionParseError("weight_subset must be a list of integers",
                                    f"{where}.weight_subset")


def _ext(spec, doc, args, path) -> tuple[NumberField, str]:
    if not isinstance(spec, dict) or not isinstance(spec.get("min_poly"), list):
        raise HermsigError("'ext' must be an object with a 'min_poly' list")
    return NumberField([_exact_number(c, f"{path}.min_poly[{j}]")
                        for j, c in enumerate(spec["min_poly"])]), spec.get("generator", "t")


def _lifted_diagonal(values, doc, args, path) -> HermitianForm:
    ext, gen = args["ext"]
    algebra = going_up_algebra(args["algebra"], ext)
    return HermitianForm.diagonal(algebra, parse_diagonal(values, algebra, gen, path))


class Arg:
    def __init__(self,
                 json: type | None,      # None: any value, checked when the command runs
                 # None: validated, never passed to the handler
                 resolve: Callable | None = lambda value, doc, args, path: value,
                 default: object = None,
                 positive: bool = False,
                 cap: int | None = None,  # the largest integer, or list length, accepted
                 by_name: bool = False):  # a name or a list of names
        self.json = json
        self.resolve = resolve
        self.default = default
        self.positive = positive
        self.cap = cap
        self.by_name = by_name

    def check(self, key: str, value, doc: "SessionDocument", path: str) -> None:
        if self.json is not None and (not isinstance(value, self.json)
                                      or isinstance(value, bool) and self.json is not bool
                                      or self.positive and value < 1):
            what = "a positive integer" if self.positive else {
                int: "an integer", bool: "a boolean", str: "a string", list: "a list",
                dict: "an object"}[self.json]
            raise SessionParseError(f"{key} must be {what}", path)
        if self.cap is not None:
            if self.json is list and len(value) > self.cap:
                raise SessionParseError(f"{key} must have at most {self.cap} entries", path)
            if self.json is int and value > self.cap:
                raise SessionParseError(f"{key} must be at most {self.cap}", path)
        if self.by_name:
            self.resolve(value, doc, {}, path)


ARGS = {
    "algebra": Arg(str, _named("algebras"), by_name=True),
    "form": Arg(str, _form, by_name=True),
    "q": Arg(str, _form, by_name=True),
    "h": Arg(str, _form, by_name=True),
    "generators": Arg(list, _generators, by_name=True),
    "ordering": Arg(int, _ordering),
    "orderings": Arg(None, _two_orderings),
    "orientation": Arg(int),
    "element": Arg(list, _element),
    "a": Arg(list, _element),                   # absent: the op's own generator
    "slots": Arg(list, _slots, (), cap=MAX_SLOTS),
    "certificate": Arg(dict, _certificate),
    "copies": Arg(int, positive=True),          # absent: as many as the certificate uses
    "height": Arg(int, positive=True, cap=MAX_SEARCH_HEIGHT),  # absent: --search-height
    "max_terms": Arg(int, positive=True, cap=MAX_SEARCH_TERMS),  # absent: --search-terms
    "ext": Arg(None, _ext),
    "diag": Arg(list, _lifted_diagonal),
    "kind": Arg(str),
    "p": Arg(int, cap=2**31 - 1),               # trial division decides primality
    "closed": Arg(bool),                        # absent: true
    # accepted and validated, with no effect: the decisions are exact
    "trials": Arg(int, resolve=None, positive=True, cap=1000),
    "samples": Arg(int, resolve=None, positive=True, cap=1000),
}

OPS = {op: (tuple(required.split()), tuple(optional.split())) for op, required, optional in [
    ("orderings", "", ""),
    ("sign", "form ordering", ""),
    ("total-sign", "form", ""),
    ("nil", "algebra", ""),
    ("torsion", "form", ""),
    ("transfer-check", "algebra ext diag", ""),
    ("going-up", "form ext", ""),
    ("reference-form", "algebra", ""),
    ("cones", "algebra", ""),
    ("cone-member", "algebra ordering orientation element", ""),
    ("eta-max", "algebra ordering element", ""),
    ("sos-find", "algebra element", "a slots height max_terms"),
    ("sos-verify", "algebra element certificate", "a slots copies"),
    ("positivity", "algebra", ""),
    ("ideals", "algebra kind", "ordering p q h generators closed trials"),
    ("morphisms", "algebra orderings", ""),
    ("topology", "algebra", ""),
    ("morita-check", "algebra", "samples"),
    ("decompose", "form ordering orientation", ""),
]}


def check_command(cmd, doc: "SessionDocument", path: str) -> None:
    """Reject an unknown op or key, a missing required key, a value of the
    wrong JSON type and a name that resolves to nothing."""
    if not isinstance(cmd, dict):
        raise SessionParseError("command must be an object", path)
    op = _require(cmd, "op", path)
    if not isinstance(op, str) or op not in OPS:
        raise SessionParseError(f"unknown command {op!r}", f"{path}.op")
    required, optional = OPS[op]
    for key in required:
        if key not in cmd:
            raise SessionParseError(f"missing required key {key!r}", f"{path}.{key}")
    _check_keys(cmd, ("op",) + required + optional, path)
    for key, value in cmd.items():
        if key != "op":
            ARGS[key].check(key, value, doc, f"{path}.{key}")
    if "certificate" in cmd:
        _check_terms(cmd["certificate"], f"{path}.certificate")


# Per op, (key, Arg, optional) for each key it takes that resolves, in ARGS
# order: a later resolver reads the earlier ones (`_element` reads algebra).
RESOLVED = {op: tuple((key, arg, key in optional) for key, arg in ARGS.items()
                      if arg.resolve is not None and key in required + optional)
            for op, (required, optional) in OPS.items()}


def resolve_args(doc: "SessionDocument", cmd: dict, path: str) -> dict:
    """The handler arguments of a checked command: each present key
    resolved, each absent optional key at its default, and no key that
    resolves to nothing."""
    args: dict = {}
    for key, arg, optional in RESOLVED[cmd["op"]]:
        if key in cmd:
            args[key] = arg.resolve(cmd[key], doc, args, f"{path}.{key}")
        elif optional:
            args[key] = arg.default
    return args


def render_entry(entry, gen: str):
    """An entry as a session document writes it: an expression for a field
    element, else the list of its coordinates."""
    coords = entry.coords()
    if len(coords) == 1:
        return render_element(coords[0], gen)
    return [render_element(c, gen) for c in coords]


def parse_session(text: str) -> SessionDocument:
    """Parse and validate a session document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SessionParseError(exc.msg, line=exc.lineno, col=exc.colno)
    if not isinstance(raw, dict):
        raise SessionParseError("document must be a JSON object", "$")
    _check_keys(raw, {"field", "algebras", "forms", "commands", "seed"}, "$")
    field, gen = _parse_field(_require(raw, "field", "$"), "field")

    algebras: dict[str, AlgebraWithInvolution] = {}
    for i, spec in enumerate(raw.get("algebras", [])):
        name, algebra = _parse_algebra(spec, field, gen, f"algebras[{i}]")
        if name in algebras:
            raise SessionParseError(f"duplicate algebra name {name!r}", f"algebras[{i}]")
        algebras[name] = algebra

    forms: dict[str, object] = {}
    for i, spec in enumerate(raw.get("forms", [])):
        name, form = _parse_form(spec, field, gen, algebras, f"forms[{i}]")
        if name in forms or name in algebras:
            raise SessionParseError(f"duplicate name {name!r}", f"forms[{i}]")
        forms[name] = form

    seed = raw.get("seed", 0)
    if type(seed) is not int:
        raise SessionParseError("seed must be an integer", "seed")

    commands = raw.get("commands", [])
    if not isinstance(commands, list):
        raise SessionParseError("commands must be a list", "commands")
    doc = SessionDocument(field, gen, algebras, forms, commands, seed)
    for i, cmd in enumerate(commands):
        check_command(cmd, doc, f"commands[{i}]")
    return doc
