import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hermsig.cli import Report, main, run_session
from hermsig.cones import MAX_SEARCH_HEIGHT, MAX_SEARCH_TERMS, MAX_SLOTS
from hermsig.hermitian import HermitianForm
from hermsig.quadforms import GramQuadraticForm, QuadraticForm
from hermsig.field import NumberField
from hermsig.session import MAX_EXPONENT, SessionParseError, parse_element, parse_session
from kernel_calls import count_diagonalize
from session_render import render_session
from test_field import poly_add, poly_mul, poly_sub

FIXTURES = Path(__file__).parent / "fixtures"
FULL = FIXTURES / "full_session.json"


def minimal_doc(**overrides):
    doc = {
        "field": {"min_poly": ["0", "1"]},
        "algebras": [{"name": "a1", "family": "split_orth", "n": 1}],
        "forms": [{"name": "f1", "diag": ["1"]}],
        "commands": [{"op": "sign", "form": "f1", "ordering": 0}],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_minimal_document_parses_and_runs():
    doc = parse_session(minimal_doc())
    assert doc.field.degree == 1
    report = run_session(doc)
    assert not report.has_errors
    assert report.records[0]["result"] == 1


def test_expression_parsing():
    doc = parse_session(json.dumps({
        "field": {"min_poly": ["-2", "0", "1"], "generator": "y"},
        "forms": [{"name": "f", "diag": ["1/2 + y", "(1 - y)^2", "0.25", "-y^2"]}],
        "commands": [],
    }))
    form = doc.forms["f"]
    assert isinstance(form, QuadraticForm)
    theta = doc.field.gen
    half = doc.field.element("1/2")
    assert form.entries[0] == half + theta
    assert form.entries[1] == (doc.field.one - theta) ** 2
    assert form.entries[2] == doc.field.element("1/4")
    assert form.entries[3] == doc.field.element(-2)


def test_expression_errors_carry_position():
    with pytest.raises(SessionParseError) as exc:
        parse_session(json.dumps({
            "field": {"min_poly": ["0", "1"]},
            "forms": [{"name": "f", "diag": ["1 + z"]}],
            "commands": [],
        }))
    assert "forms[0].diag[0]" in str(exc.value)
    assert "z" in str(exc.value)


# Every expression error of the lexer, byte for byte as the character-at-a-
# time parser reported it: (expression, message after the path).
_EXPRESSION_ERRORS = [
    ("", "expected a number, the generator or a parenthesis (at offset 0 in '')"),
    ("   ", "expected a number, the generator or a parenthesis (at offset 3 in '   ')"),
    ("1 +", "expected a number, the generator or a parenthesis (at offset 3 in '1 +')"),
    ("x^", "expected an exponent (at offset 2 in 'x^')"),
    ("x^65", "exponent must be at most 64 (at offset 2 in 'x^65')"),
    ("(x", "expected ')' (at offset 2 in '(x')"),
    ("y", "unknown name 'y'; the generator is 'x' (at offset 1 in 'y')"),
    ("1..2", "bad numeric literal '1..2' (at offset 0 in '1..2')"),
    ("1/0", "bad numeric literal '1/0' (at offset 0 in '1/0')"),
    ("2 x", "trailing input (at offset 2 in '2 x')"),
    ("x^ 65", "exponent must be at most 64 (at offset 3 in 'x^ 65')"),
    ("x^0065", "exponent must be at most 64 (at offset 2 in 'x^0065')"),
    ("(x^8)^9", "nested exponents multiply to 72; their product must be at most 64 "
                "(at offset 6 in '(x^8)^9')"),
    ("(x^8)^ 9", "nested exponents multiply to 72; their product must be at most 64 "
                 "(at offset 6 in '(x^8)^ 9')"),
    ("((x^2)^2)^17", "nested exponents multiply to 68; their product must be at most 64 "
                     "(at offset 10 in '((x^2)^2)^17')"),
    ("1 + * 2", "expected a number, the generator or a parenthesis (at offset 4 in '1 + * 2')"),
    (")", "expected a number, the generator or a parenthesis (at offset 0 in ')')"),
    ("(", "expected a number, the generator or a parenthesis (at offset 1 in '(')"),
    ("x^-1", "expected an exponent (at offset 2 in 'x^-1')"),
    ("2^(3)", "expected an exponent (at offset 2 in '2^(3)')"),
    ("1/2/3", "bad numeric literal '1/2/3' (at offset 0 in '1/2/3')"),
    ("1.5/2", "bad numeric literal '1.5/2' (at offset 0 in '1.5/2')"),
    (".", "bad numeric literal '.' (at offset 0 in '.')"),
    ("\u00b2", "bad numeric literal '\u00b2' (at offset 0 in '\u00b2')"),
    (".5x", "trailing input (at offset 2 in '.5x')"),
    ("x1", "unknown name 'x1'; the generator is 'x' (at offset 2 in 'x1')"),
    ("_a", "unknown name '_a'; the generator is 'x' (at offset 2 in '_a')"),
    ("\u00e9", "unknown name '\u00e9'; the generator is 'x' (at offset 1 in '\u00e9')"),
    ("(1 + x))", "trailing input (at offset 7 in '(1 + x))')"),
    (" x ^ 2 ^ 2", "trailing input (at offset 7 in ' x ^ 2 ^ 2')"),
    ("x ^ 1.5", "trailing input (at offset 5 in 'x ^ 1.5')"),
    ("x^2/3", "trailing input (at offset 3 in 'x^2/3')"),
    ("1e5", "trailing input (at offset 1 in '1e5')"),
    ("1 / 2", "trailing input (at offset 2 in '1 / 2')"),
]


@pytest.mark.parametrize("text, message", _EXPRESSION_ERRORS)
def test_expression_errors_are_reported_byte_for_byte(text, message):
    with pytest.raises(SessionParseError) as exc:
        parse_element(text, NumberField([1, 3, -3, -4, 1, 1]), "x", "commands[0].x")
    assert str(exc.value) == f"commands[0].x: {message}"


def test_an_exponent_of_non_decimal_digits_is_a_parse_error():
    """A superscript digit is a digit but not a decimal one: after "^" it
    starts no exponent (it used to reach int() and fail without an offset),
    and after decimal digits it is trailing input."""
    field = NumberField([-2, 0, 1])
    for text, message in [("x^\u00b2", "expected an exponent (at offset 2 in 'x^\u00b2')"),
                          ("x^2\u00b2", "trailing input (at offset 3 in 'x^2\u00b2')")]:
        with pytest.raises(SessionParseError) as exc:
            parse_element(text, field, "x", "p")
        assert str(exc.value) == f"p: {message}"
    # any decimal digit reads as int() reads it
    assert parse_element("\u0663*x^\u0662", field, "x", "p") == field.element(6)


def _reduce_mod(poly, m):
    """The remainder of the Fraction polynomial poly modulo the monic m."""
    rem = list(poly)
    for top in range(len(rem) - 1, len(m) - 2, -1):
        c = rem[top]
        for j, b in enumerate(m):
            rem[top - len(m) + 1 + j] -= c * b
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem[:len(m) - 1])


_space = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _literal(draw):
    """A number literal and its value: an integer, an exact decimal or p/q."""
    kind = draw(st.sampled_from(["int", "decimal", "ratio"]))
    whole = draw(st.integers(0, 10**6))
    if kind == "int":
        return str(whole), Fraction(whole)
    if kind == "ratio":
        q = draw(st.integers(1, 999))
        return f"{whole}/{q}", Fraction(whole, q)
    digits = draw(st.integers(0, 3))
    frac = draw(st.integers(0, 10**digits - 1))
    head = str(whole) if digits == 0 or draw(st.booleans()) else ""  # "12.5", ".5", "12."
    tail = f"{frac:0{digits}d}" if digits else ""
    return f"{head}.{tail}", (whole if head else 0) + Fraction(frac, 10**digits)


def _atom(gen):
    """(text, Fraction polynomial, precedence, nested exponent product)."""
    return (_literal().map(lambda lv: (lv[0], (lv[1],), 4, 1))
            | st.just((gen, (Fraction(0), Fraction(1)), 4, 1)))


def _combine(gen):
    def grow(children):
        def wrap(node, level):
            text, value, prec, nested = node
            return (text, value, 4, nested) if prec >= level else (f"({text})", value, 4, nested)

        @st.composite
        def binary(draw):
            a, b = draw(children), draw(children)
            op = draw(st.sampled_from("+-*"))
            left, right = (0, 1) if op != "*" else (1, 2)
            a, b = wrap(a, left), wrap(b, right)
            text = f"{a[0]}{draw(_space)}{op}{draw(_space)}{b[0]}"
            value = {"+": poly_add, "-": poly_sub, "*": poly_mul}[op](a[1], b[1])
            return text, value, 0 if op != "*" else 1, max(a[3], b[3])

        @st.composite
        def negate(draw):
            a = wrap(draw(children), 2)
            return f"-{draw(_space)}{a[0]}", tuple(-c for c in a[1]), 2, a[3]

        @st.composite
        def power(draw):
            a = wrap(draw(children), 4)
            k = draw(st.integers(0, 4))
            assume(a[3] * k <= MAX_EXPONENT)
            value = (Fraction(1),)
            for _ in range(k):
                value = poly_mul(value, a[1])
            return f"{a[0]}{draw(_space)}^{draw(_space)}{k}", value, 3, a[3] * k

        return binary() | negate() | power()

    return st.recursive(_atom(gen), grow, max_leaves=8)


@given(st.sampled_from([("x", (1, 3, -3, -4, 1, 1)), ("theta", (-2, 0, 1)),
                        ("t", (Fraction(-1, 5), Fraction(-1, 3), 0, 1))]),
       st.data())
@settings(deadline=None)
def test_expressions_parse_to_the_fraction_polynomial_oracle(case, data):
    """An expression of literals, the generator, + - * ^ and parentheses
    parses to its Fraction polynomial value reduced modulo m."""
    gen, m = case
    text, value, _, _ = data.draw(_combine(gen))
    text = data.draw(_space) + text + data.draw(_space)
    field = NumberField(m)
    assert parse_element(text, field, gen, "p").coeffs == _reduce_mod(value, field.min_poly)


def test_json_syntax_errors_carry_line_and_column():
    with pytest.raises(SessionParseError) as exc:
        parse_session("{\n  \"field\": [,]\n}")
    assert exc.value.line == 2


def test_schema_violations():
    with pytest.raises(SessionParseError, match="unknown family"):
        parse_session(minimal_doc(algebras=[{"name": "a", "family": "nope"}]))
    with pytest.raises(SessionParseError, match="squarefree"):
        parse_session(json.dumps({
            "field": {"min_poly": ["0", "0", "1"]}, "commands": []}))
    with pytest.raises(SessionParseError, match="square"):
        parse_session(minimal_doc(
            algebras=[{"name": "a", "family": "unitary", "delta": "4"}]))
    with pytest.raises(SessionParseError, match="unresolved"):
        parse_session(minimal_doc(
            commands=[{"op": "sign", "form": "ghost", "ordering": 0}]))
    with pytest.raises(SessionParseError, match="unknown command"):
        parse_session(minimal_doc(commands=[{"op": "frobnicate"}]))
    with pytest.raises(SessionParseError, match="not hermitian"):
        parse_session(minimal_doc(
            algebras=[{"name": "a", "family": "quat_symp", "a": "-1", "b": "-1"}],
            forms=[{"name": "f", "algebra": "a",
                    "gram": [[["0", "1", "0", "0"]]]}]))
    # names that are not strings, and diag/gram that are not lists, used to
    # escape as TypeError tracebacks
    for doc, path in [
        (minimal_doc(algebras=[{"name": ["a1"], "family": "split_orth"}]), "algebras[0].name"),
        (minimal_doc(forms=[{"name": 5, "diag": ["1"]}]), "forms[0].name"),
        (minimal_doc(forms=[{"name": "g", "algebra": ["a1"], "diag": ["1"]}]),
         "forms[0].algebra"),
        (minimal_doc(forms=[{"name": "f1", "diag": 5}]), "forms[0].diag"),
        (minimal_doc(forms=[{"name": "f1", "gram": [5]}]), "forms[0].gram"),
        (minimal_doc(commands=[{"op": "ideals", "algebra": "a1", "kind": "fundamental",
                                "generators": [["f1"]]}]), "commands[0].generators[0]"),
    ]:
        with pytest.raises(SessionParseError) as exc:
            parse_session(doc)
        assert exc.value.path == path


def test_full_fixture_runs_every_command():
    doc = parse_session(FULL.read_text())
    report = run_session(doc)
    assert not report.has_errors
    assert len(report.records) == 21
    by_op = {}
    for r in report.records:
        by_op.setdefault(r["op"], r["result"])
    # the Gram quadratic goes through diagonalization
    assert report.records[19]["result"] == 2
    assert report.records[20]["result"] is False
    assert by_op["sign"] == 1
    assert by_op["total-sign"] == [[0, 1]]
    assert by_op["nil"] == [0]
    assert by_op["torsion"] is True
    assert by_op["transfer-check"]["holds"] is True
    assert by_op["going-up"]["agrees"] is True
    assert by_op["cones"]["count"] == 2
    assert by_op["cone-member"] is True
    assert by_op["eta-max"] is True
    assert by_op["sos-find"]["status"] == "certificate"
    assert by_op["sos-verify"] is True
    assert by_op["positivity"]["ps_prime_holds"] is True
    assert by_op["ideals"]["prime_sample"] == "pass"
    assert by_op["morphisms"]["equivalent"] is True
    assert by_op["topology"]["topologies_agree"] is True
    assert by_op["morita-check"]["ok"] is True
    assert by_op["decompose"]["value"] == 1


def test_reports_are_deterministic():
    doc1 = parse_session(FULL.read_text())
    doc2 = parse_session(FULL.read_text())
    out1 = run_session(doc1).to_json()
    out2 = run_session(doc2).to_json()
    assert out1 == out2


def test_error_records_carry_command_index():
    doc = parse_session(minimal_doc(commands=[
        {"op": "sign", "form": "f1", "ordering": 0},
        {"op": "sign", "form": "f1", "ordering": 7},
    ]))
    report = run_session(doc)
    assert report.has_errors
    assert report.records[0]["status"] == "ok"
    assert report.records[1]["status"] == "error"
    assert report.records[1]["index"] == 1


def test_unexpected_handler_exception_is_an_error_record(tmp_path, capsys, monkeypatch):
    # an exception type no handler anticipates (here a TypeError deep in a
    # handler) becomes a record naming the type; later commands still run
    from hermsig.cli import _Runner

    def broken(self, **args):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(_Runner, "cmd_orderings", broken)
    path = tmp_path / "doc.json"
    path.write_text(minimal_doc(commands=[
        {"op": "orderings"}, {"op": "sign", "form": "f1", "ordering": 0}]))
    assert main(["run", str(path)]) == 3
    records = json.loads(capsys.readouterr().out)
    assert records[0]["status"] == "error"
    assert records[0]["error"] == "TypeError: unsupported operand type(s)"
    assert records[1] == {"index": 1, "op": "sign", "result": 1, "status": "ok"}


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(minimal_doc())
    assert main(["run", str(good)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)[0]["result"] == 1

    assert main(["check", str(good)]) == 0
    capsys.readouterr()

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["run", str(bad_json)]) == 2
    capsys.readouterr()

    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(minimal_doc(algebras=[{"name": "a", "family": "nope"}]))
    assert main(["check", str(bad_schema)]) == 2
    capsys.readouterr()

    erroring = tmp_path / "err.json"
    erroring.write_text(minimal_doc(commands=[
        {"op": "sign", "form": "f1", "ordering": 5}]))
    assert main(["run", str(erroring)]) == 3
    capsys.readouterr()

    assert main(["run", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()

    assert main([]) == 1
    capsys.readouterr()


def test_cli_table_format(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(minimal_doc())
    assert main(["run", str(good), "--format=table"]) == 0
    out = capsys.readouterr().out
    assert "[0] sign: ok" in out


def test_hermitian_gram_form_roundtrip():
    doc = parse_session(FULL.read_text())
    h_so = doc.forms["h_so"]
    assert isinstance(h_so, HermitianForm)
    assert h_so.rank == 1
    assert h_so.algebra.n == 2


def test_render_parse_round_trip():
    doc = parse_session(FULL.read_text())
    rendered = render_session(doc)
    doc2 = parse_session(rendered)
    assert doc2.field == doc.field
    assert doc2.algebras == doc.algebras
    assert set(doc2.forms) == set(doc.forms)
    for name, form in doc.forms.items():
        other = doc2.forms[name]
        if isinstance(form, QuadraticForm):
            assert other == form
        elif isinstance(form, HermitianForm):
            assert other.gram == form.gram and other.algebra == form.algebra
        else:
            assert other.rows == form.rows
    assert doc2.commands == doc.commands
    # canonical fixpoint
    assert render_session(doc2) == rendered
    # and both runs produce the same report
    assert run_session(doc).to_json() == run_session(doc2).to_json()


def test_float_coefficients_rejected():
    with pytest.raises(SessionParseError, match="exact strings"):
        parse_session(json.dumps({
            "field": {"min_poly": [0.5, 1]}, "commands": []}))


def test_cli_search_bound_flags(tmp_path, capsys):
    doc = {
        "field": {"min_poly": ["0", "1"]},
        "algebras": [{"name": "ham", "family": "quat_symp", "a": "-1", "b": "-1"}],
        "forms": [],
        "commands": [{"op": "sos-find", "algebra": "ham",
                      "element": [[["7", "0", "0", "0"]]]}],
    }
    path = tmp_path / "sos.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--search-height=1", "--search-terms=1"]) == 0
    tight = json.loads(capsys.readouterr().out)
    assert tight[0]["result"]["status"] == "unknown"
    assert main(["run", str(path), "--search-height=2", "--search-terms=3"]) == 0
    wide = json.loads(capsys.readouterr().out)
    assert wide[0]["result"]["status"] == "certificate"
    # the flags are bounded as the session keys they stand in for; a
    # negative height used to run silently
    for flag, value in (("--search-height", -1), ("--search-height", 0),
                        ("--search-height", MAX_SEARCH_HEIGHT + 1),
                        ("--search-terms", 0), ("--search-terms", MAX_SEARCH_TERMS + 1)):
        assert main(["run", str(path), f"{flag}={value}"]) == 1
        assert flag in capsys.readouterr().err


def test_cli_transfer_check_cubic_extension(tmp_path, capsys):
    doc = {
        "field": {"min_poly": ["0", "1"]},
        "algebras": [{"name": "rat", "family": "split_orth", "n": 1}],
        "forms": [],
        "commands": [{"op": "transfer-check", "algebra": "rat",
                      "ext": {"min_poly": ["-2", "0", "0", "1"], "generator": "t"},
                      "diag": ["1", "t", "t^2 - 1"]}],
    }
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["result"]["holds"] is True


def test_going_up_on_quadratic_form_is_an_error_record():
    doc = parse_session(minimal_doc(commands=[
        {"op": "going-up", "form": "f1",
         "ext": {"min_poly": ["-2", "0", "1"]}}]))
    report = run_session(doc)
    assert report.records[0]["status"] == "error"
    assert "hermitian" in report.records[0]["error"]


def test_cli_error_paths_as_records(tmp_path):
    doc = {
        "field": {"min_poly": ["-2", "0", "1"]},
        "algebras": [
            {"name": "mix", "family": "quat_symp", "a": "-1", "b": "x"},
            {"name": "ham", "family": "quat_symp", "a": "-1", "b": "-1"},
        ],
        "forms": [{"name": "h", "algebra": "ham", "diag": ["1"]}],
        "commands": [
            # ordering 1 is nil for mix (x > 0 there): no cones over it
            {"op": "cone-member", "algebra": "mix", "ordering": 1,
             "orientation": 1, "element": [[["1", "0", "0", "0"]]]},
            {"op": "ideals", "algebra": "ham", "kind": "mod_p",
             "ordering": 0, "p": 2, "q": "h", "h": "h"},
            {"op": "decompose", "form": "h", "ordering": 0, "orientation": 3},
        ],
    }
    report = run_session(parse_session(json.dumps(doc)))
    assert [r["status"] for r in report.records] == ["error"] * 3
    assert "non-nil" in report.records[0]["error"]
    assert "odd prime" in report.records[1]["error"]
    assert "orientation" in report.records[2]["error"]


def test_subprocess_determinism(tmp_path):
    import subprocess
    import sys

    out = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "hermsig.cli", "run", str(FULL)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        out.append(proc.stdout)
    assert out[0] == out[1]


@pytest.mark.parametrize("name", ["full_session", "sqrt2_session", "quintic_session",
                                  "skew_session", "morita_session", "sos_bound_session",
                                  "entry_rings_session"])
def test_fixture_reports_match_golden(name):
    """`hermsig run` on each fixture reproduces its recorded report byte for
    byte; the .expected.json files were written before the integer-numerator
    element representation and the symmetric elimination kernel, and the
    quintic one (over x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1) before the integer
    sign and inverse kernels and the minimal-neighbourhood topology.  The
    sqrt2 `morphisms` witness and the quintic `topology` counts were
    rewritten when the Harrison separators replaced the heuristic
    generators (the quintic space was reported with 256 open sets, not T0).
    The skew one pins the constructed quat_skew reference forms over the
    quintic field, including <i, j, k> for (a, b) = (-x, 1 + x), which had
    none before they were constructed.  The morita one, over Q(sqrt 2), was
    written while the cone, Morita and transfer layers still took a
    reference form and D's was transported from M_n(D)'s.  The sos_bound
    one, over the quintic, was written before the sos-find search had its
    value bound: 1000 at the defaults then took 14 s to give `unknown`.
    The entry_rings one, over the quintic, was written while an entry
    product was one field product per pair of coordinates: Grams of size 4
    to 8 over F(sqrt(x - 3/2)), (-1/2, x)_F and (1, x)_F, and one at n = 2."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hermsig.cli", "run", str(FIXTURES / f"{name}.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    expected = (FIXTURES / f"{name}.expected.json").read_text(encoding="utf-8")
    assert proc.stdout == expected


def test_table_report_matches_golden(capsys):
    """`hermsig run --format table` on the sqrt2 fixture reproduces its
    recorded table byte for byte; the .expected.txt was written while each
    record body was rendered by json.dumps."""
    assert main(["run", str(FIXTURES / "sqrt2_session.json"), "--format", "table"]) == 0
    expected = (FIXTURES / "sqrt2_session.expected.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# Report values: every type a report carries, with the strings that need
# escapes (quotes, backslashes, control and non-ASCII characters, lone
# surrogates), ints beyond 64 bits, and nested empty containers.
_ESCAPED = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028\ud800é€\U0001f600 a{}[],:'))
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**200, 2**200) | st.text() | _ESCAPED,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text() | _ESCAPED, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
def test_report_json_is_the_stdlib_format(value):
    """The report writer emits what json.dumps(indent=2, sort_keys=True)
    emits, byte for byte."""
    assert Report(value).to_json() == json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["sign", "sos-find"]), st.booleans(),
                          _REPORT_VALUES), max_size=4))
def test_report_table_is_the_per_record_format(rows):
    """Each record is its header line, then its result (or error) as
    json.dumps(indent=2, sort_keys=True) writes it, each line indented by
    four spaces."""
    records = [{"index": i, "op": op, "status": "error" if failed else "ok",
                "error" if failed else "result": body}
               for i, (op, failed, body) in enumerate(rows)]
    lines = []
    for rec, (_, _, body) in zip(records, rows):
        lines.append(f"[{rec['index']}] {rec['op']}: {rec['status']}")
        lines += ["    " + line for line in
                  json.dumps(body, indent=2, sort_keys=True).splitlines()]
    assert Report(records).to_table() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("value", [1.5, [{"a": 0.0}], {1: "a"}, {"a": 1, 2: "b"},
                                   {("a",): 1}, [object()], {"a": {1, 2}}],
                         ids=["float", "nested-float", "int-key", "mixed-keys",
                              "tuple-key", "object", "set"])
def test_report_writer_refuses_what_reports_never_carry(value):
    with pytest.raises(TypeError):
        Report(value).to_json()


def test_reducible_modulus_ends_in_typed_error_records(capsys):
    """(x^2 - 2)(x^2 - 3) has no rational root, so it builds, with four
    orderings; a form entry that is 0 at one of them is a zero divisor, and
    each command that meets one ends in a ReducibleModulusError record that
    names the factor, not in endless bisection.  Errors exit with code 3."""
    assert main(["run", str(FIXTURES / "reducible_modulus.json")]) == 3
    report = capsys.readouterr().out
    assert report == (FIXTURES / "reducible_modulus.expected.json").read_text(encoding="utf-8")
    errors = [r["error"] for r in json.loads(report) if r["status"] == "error"]
    assert errors and all(e.startswith("ReducibleModulusError: ") and
                          e.endswith("factor -3 + x^2") for e in errors)


@pytest.mark.parametrize("workload", ["sig_tables", "cone_search", "small_forms"])
def test_workload_reports_match_golden(workload):
    """The benchmark's session document for each workload at seed 1, from
    perfbench/workloads.py, reproduces its recorded report."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = parse_session(workloads.generate(workload, 1))
    expected = (FIXTURES / f"{workload}_seed1.expected.json").read_text(encoding="utf-8")
    assert run_session(doc).to_json() == expected


def test_cli_module_runs_once():
    """The package used to import `hermsig.cli`, so `python -m hermsig.cli`
    warned on stderr and executed the module twice."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hermsig.cli", "check", str(FIXTURES / "sqrt2_session.json")],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_morphisms_ordering_indices_are_validated():
    base = {
        "field": {"min_poly": ["-2", "0", "1"]},
        "algebras": [{"name": "ham", "family": "quat_symp", "a": "-1", "b": "-1"}],
        "forms": [],
    }
    bad = [[0, -1], [2, 0], [0, "1"], [0], 0]
    doc = dict(base, commands=[{"op": "morphisms", "algebra": "ham", "orderings": o}
                               for o in bad])
    report = run_session(parse_session(json.dumps(doc)))
    assert [r["status"] for r in report.records] == ["error"] * len(bad)
    assert "no ordering with index -1" in report.records[0]["error"]
    assert "no ordering with index 2" in report.records[1]["error"]
    assert "two ordering indices" in report.records[3]["error"]
    good = dict(base, commands=[{"op": "morphisms", "algebra": "ham", "orderings": [0, 1]}])
    assert run_session(parse_session(json.dumps(good))).records[0]["status"] == "ok"


@pytest.mark.parametrize("ext", [5, "x^2 - 2", [], {"min_poly": "-2 + t^2"}, {}])
def test_malformed_ext_is_an_error_record(ext):
    doc = {
        "field": {"min_poly": ["0", "1"]},
        "algebras": [{"name": "ham", "family": "quat_symp", "a": "-1", "b": "-1"}],
        "forms": [{"name": "h", "algebra": "ham", "diag": ["1"]}],
        "commands": [
            {"op": "transfer-check", "algebra": "ham", "ext": ext, "diag": ["1"]},
            {"op": "going-up", "form": "h", "ext": ext},
        ],
    }
    report = run_session(parse_session(json.dumps(doc)))
    assert [r["status"] for r in report.records] == ["error", "error"]
    assert all("'min_poly' list" in r["error"] for r in report.records)


def test_cli_unitary_family_commands(tmp_path, capsys):
    doc = {
        "field": {"min_poly": ["0", "1"]},
        "algebras": [{"name": "g", "family": "unitary", "delta": "-1"}],
        "forms": [{"name": "h", "algebra": "g",
                   "diag": [["1", "0"], ["-2", "0"]]}],
        "commands": [
            {"op": "total-sign", "form": "h"},
            {"op": "cone-member", "algebra": "g", "ordering": 0,
             "orientation": 1, "element": [[["3", "0"]]]},
            {"op": "eta-max", "algebra": "g", "ordering": 0,
             "element": [[["-1", "0"]]]},
            {"op": "decompose", "form": "h", "ordering": 0, "orientation": 1},
            {"op": "reference-form", "algebra": "g"},
        ],
    }
    path = tmp_path / "unitary.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["result"] == [[0, 0]]
    assert out[1]["result"] is True
    assert out[2]["result"] is False
    assert out[3]["result"]["value"] == 0
    assert out[4]["result"]["certificate"] == [[0, 1]]


def test_readme_quick_tour_snippet(capsys):
    """The python block of the README's quick tour runs as written and
    prints the signature table of <1, -2, sqrt2> over the quaternions."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library quick tour\n", 1)[1]
    scope = {}
    exec(tour.split("```python\n", 1)[1].split("```", 1)[0], scope)
    table = scope["total_signature_h"](scope["h"])
    assert [v for _, v in table] == [-1, 1]
    assert capsys.readouterr().out == f"{table}\n"


def _sqrt2_with(command):
    doc = json.loads((FIXTURES / "sqrt2_session.json").read_text(encoding="utf-8"))
    doc["commands"].append(command)
    return doc, f"commands[{len(doc['commands']) - 1}]"


_IDEALS = {"op": "ideals", "algebra": "ham", "kind": "mod_p", "ordering": 1, "p": 3,
           "q": "qtheta", "h": "htheta", "trials": 8}
_UNIT = [[["2", "0", "0", "0"]]]


_FUNDAMENTAL = {"op": "ideals", "algebra": "ham", "kind": "fundamental",
                "generators": ["htheta"]}
# a well-formed value for each key below (default 2)
_WELL_FORMED = {"certificate": {"terms": []}, "form": "qtheta", "q": "qtheta",
                "h": "htheta", "algebra": "ham", "slots": ["x"], "diag": ["1"],
                "generators": ["htheta"], "closed": False}


@pytest.mark.parametrize("command, key", [
    (dict(_IDEALS, trials="8"), "trials"),
    (dict(_IDEALS, p="3"), "p"),
    ({"op": "sos-find", "algebra": "ham", "element": _UNIT, "height": "2"}, "height"),
    ({"op": "sos-verify", "algebra": "ham", "element": _UNIT, "certificate": 5},
     "certificate"),
    ({"op": "sign", "form": ["f"], "ordering": 0}, "form"),
    (dict(_IDEALS, q=["qtheta"]), "q"),
    (dict(_IDEALS, h={"htheta": 1}), "h"),
    ({"op": "nil", "algebra": ["ham"]}, "algebra"),
    ({"op": "sos-find", "algebra": "ham", "element": _UNIT, "slots": 5}, "slots"),
    ({"op": "transfer-check", "algebra": "ham", "ext": {"min_poly": [-3, 0, 1]},
      "diag": 5}, "diag"),
    (dict(_FUNDAMENTAL, generators=5), "generators"),
    (dict(_FUNDAMENTAL, closed="yes"), "closed"),
], ids=["ideals-trials", "ideals-p", "sos-find-height", "sos-verify-certificate",
        "sign-form", "ideals-q", "ideals-h", "nil-algebra", "sos-find-slots",
        "transfer-check-diag", "ideals-generators", "ideals-closed"])
def test_malformed_command_arguments_are_parse_errors(command, key, tmp_path, capsys):
    """Each of these used to pass `check` and escape `run` as a TypeError or
    AttributeError traceback (an unhashable name already escaped `check`)."""
    doc, path = _sqrt2_with(command)
    with pytest.raises(SessionParseError) as exc:
        parse_session(json.dumps(doc))
    assert exc.value.path == f"{path}.{key}"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(f)]) == 2
    assert f"{path}.{key}" in capsys.readouterr().err
    # the well-formed command parses; a boolean is no integer, object, name
    # or list
    good = dict(command, **{key: _WELL_FORMED.get(key, 2)})
    parse_session(json.dumps(_sqrt2_with(good)[0]))
    if key != "closed":
        with pytest.raises(SessionParseError):
            parse_session(json.dumps(_sqrt2_with(dict(command, **{key: True}))[0]))


_HAM = {"name": "ham", "family": "quat_symp", "a": "-1", "b": "-1"}
_QUAT_ZERO = ["0", "0", "0", "0"]


def _quat_gram(bad):
    """A quat_symp Gram whose entry [1][1] is bad."""
    return {"name": "h", "algebra": "ham",
            "gram": [[["1", "0", "0", "0"], _QUAT_ZERO], [_QUAT_ZERO, bad]]}


@pytest.mark.parametrize("doc, path, message", [
    ({"algebras": [dict(_HAM, a=True)]}, "algebras[0].a", "expected an element expression"),
    ({"algebras": [dict(_HAM, a=["-1"])]}, "algebras[0].a",
     "expected an element expression (string or integer)"),
    ({"algebras": [dict(_HAM, a=-1)]}, None, None),
    ({"field": ["0", "1"]}, "field", "field declaration must be an object"),
    ({"field": {"min_poly": "x"}}, "field.min_poly",
     "min_poly must be a coefficient list, constant first"),
    ({"field": {"min_poly": ["0", "1"], "generator": "2x"}}, "field.generator",
     "generator must be an identifier"),
    ({"field": {"min_poly": [["0"], "1"]}}, "field.min_poly[0]", "expected a number"),
    ({"algebras": ["ham"]}, "algebras[0]", "algebra declaration must be an object"),
    ({"algebras": [dict(_HAM, n=True)]}, "algebras[0].n", "n must be a positive integer"),
    ({"algebras": [_HAM], "forms": [{"name": "f1", "algebra": "ham", "diag": [["1", "0"]]}]},
     "forms[0].diag[0]", "quat_symp entries are 4-component coordinate lists"),
    ({"forms": ["f1"]}, "forms[0]", "form declaration must be an object"),
    ({"forms": [{"name": "f1", "diag": ["1"], "gram": [["1"]]}]}, "forms[0]",
     "a form is either 'diag' or 'gram'"),
    ({"commands": ["sign"]}, "commands[0]", "command must be an object"),
    ("[]", "$", "document must be a JSON object"),
    ({"algebras": [_HAM, _HAM]}, "algebras[1]", "duplicate algebra name 'ham'"),
    ({"forms": [{"name": "a1", "diag": ["1"]}]}, "forms[0]", "duplicate name 'a1'"),
    ({"seed": True}, "seed", "seed must be an integer"),
    ({"commands": {"op": "orderings"}}, "commands", "commands must be a list"),
    ({"algebras": [_HAM], "forms": [_quat_gram(["1", "0", "x^", "0"])]},
     "forms[0].gram[1][1][2]", "expected an exponent (at offset 2 in 'x^')"),
    ({"forms": [{"name": "g", "gram": [["1", "0"], ["0", "1 + y"]]}]}, "forms[0].gram[1][1]",
     "unknown name 'y'; the generator is 'x' (at offset 5 in '1 + y')"),
    ({"algebras": [_HAM], "forms": [_quat_gram(["1", "0", "0"])]}, "forms[0].gram[1][1]",
     "quat_symp entries are 4-component coordinate lists"),
    ({"algebras": [_HAM], "forms": [_quat_gram(["1", False, "0", "0"])]},
     "forms[0].gram[1][1][1]", "expected an element expression"),
    ({"forms": [{"name": "q", "diag": ["1", "2 *"]}]}, "forms[0].diag[1]",
     "expected a number, the generator or a parenthesis (at offset 3 in '2 *')"),
    ({"algebras": [_HAM], "forms": [{"name": "h", "algebra": "ham",
                                     "diag": [["1", "0", "0", "0"], ["1", "0", [], "0"]]}]},
     "forms[0].diag[1][2]", "expected an element expression (string or integer)"),
], ids=["element-boolean", "element-list", "element-integer", "field-not-object",
        "min-poly-not-list", "generator-not-identifier", "coefficient-not-number",
        "algebra-not-object", "n-boolean", "entry-wrong-length", "form-not-object",
        "form-diag-and-gram", "command-not-object", "document-not-object",
        "duplicate-algebra", "duplicate-name", "seed-boolean", "commands-not-list",
        "quaternion-gram-coordinate", "quadratic-gram-scalar", "gram-coordinate-list-length",
        "gram-boolean-coordinate", "quadratic-diagonal-scalar", "diagonal-list-coordinate"])
def test_parse_errors_name_their_path(doc, path, message):
    """Each raise site of the document head reports its message at its JSON
    path; a bare integer is an element.  A boolean n used to be read as 1,
    and a boolean seed was accepted.  Entry and coordinate paths are
    formatted only for an error, and name the same place as when each was
    formatted up front."""
    text = doc if isinstance(doc, str) else minimal_doc(**doc)
    if message is None:
        assert parse_session(text).algebras["ham"].quat.a == -1
        return
    with pytest.raises(SessionParseError) as exc:
        parse_session(text)
    assert (exc.value.path, exc.value.message) == (path, message)


def _verify_term(**changes):
    """An sos-verify command whose one certificate term has the changes;
    None drops the key."""
    term = {"weight_subset": [], "vector": [[["1", "0", "0", "0"]]], "generator_index": 0}
    term.update(changes)
    term = {k: v for k, v in term.items() if v is not None}
    return {"op": "sos-verify", "algebra": "ham", "element": _UNIT,
            "certificate": {"terms": [term]}}


@pytest.mark.parametrize("command, key, message", [
    ({"op": "sign", "form": "qtheta"}, "ordering", "missing required key"),
    ({"op": "eta-max", "algebra": "ham", "element": _UNIT}, "ordering",
     "missing required key"),
    ({"op": "sos-find", "algebra": "ham", "element": _UNIT, "max_term": 2}, "max_term",
     "unknown key"),
    ({"op": "sign", "form": "qtheta", "ordering": True}, "ordering", "an integer"),
    ({"op": "decompose", "form": "htheta", "ordering": 0, "orientation": True},
     "orientation", "an integer"),
    (dict(_IDEALS, trials=0), "trials", "a positive integer"),
    (dict(_IDEALS, trials=-1), "trials", "a positive integer"),
    ({"op": "morita-check", "algebra": "ham", "samples": 0}, "samples",
     "a positive integer"),
    ({"op": "sos-find", "algebra": "ham", "element": _UNIT, "max_terms": 0}, "max_terms",
     "a positive integer"),
    ({"op": "sos-find", "algebra": "ham", "element": _UNIT,
      "height": MAX_SEARCH_HEIGHT + 1}, "height", f"at most {MAX_SEARCH_HEIGHT}"),
    ({"op": "sos-find", "algebra": "ham", "element": _UNIT,
      "max_terms": MAX_SEARCH_TERMS + 1}, "max_terms", f"at most {MAX_SEARCH_TERMS}"),
    ({"op": "sos-find", "algebra": "ham", "element": _UNIT, "slots": ["2"] * 24}, "slots",
     f"at most {MAX_SLOTS} entries"),
    (dict(_IDEALS, trials=1001), "trials", "at most 1000"),
    ({"op": "morita-check", "algebra": "ham", "samples": 1001}, "samples", "at most 1000"),
    (_verify_term(generator_index=True), "certificate.terms[0].generator_index",
     "generator_index must be an integer"),
    (_verify_term(generator_index="0"), "certificate.terms[0].generator_index",
     "generator_index must be an integer"),
    (_verify_term(generator_index=None), "certificate.terms[0].generator_index",
     "missing required key 'generator_index'"),
    (_verify_term(vector=None), "certificate.terms[0].vector",
     "missing required key 'vector'"),
    (_verify_term(weight_subset="0"), "certificate.terms[0].weight_subset",
     "weight_subset must be a list of integers"),
    (_verify_term(weight_subset=[True]), "certificate.terms[0].weight_subset",
     "weight_subset must be a list of integers"),
    (dict(_verify_term(), certificate={"term": []}), "certificate.term", "unknown key 'term'"),
    (_verify_term(weight_subst=[0]), "certificate.terms[0].weight_subst",
     "unknown key 'weight_subst'"),
    (dict(_verify_term(), copies=0), "copies", "a positive integer"),
    (dict(_verify_term(), copies=-3, certificate={"terms": []}), "copies",
     "a positive integer"),
], ids=["missing-ordering", "missing-ordering-eta-max", "misspelt-max-terms",
        "ordering-true", "orientation-true", "trials-zero", "trials-negative",
        "samples-zero", "max-terms-zero", "height-above-cap", "max-terms-above-cap",
        "slots-above-cap", "trials-above-cap", "samples-above-cap",
        "generator-index-true", "generator-index-string", "generator-index-missing",
        "vector-missing", "weight-subset-string", "weight-subset-of-booleans",
        "certificate-key-misspelt", "term-key-misspelt", "copies-zero", "copies-negative"])
def test_check_rejects_what_would_run_wrong(command, key, message, tmp_path, capsys):
    """Each of these used to pass `check` and then run on a silent default:
    a dropped key, a misspelt key ignored (also in a certificate or its
    terms), a boolean read as 1, zero trials reported as a pass, or the
    zero element verified as a sum over -3 copies; or run without bound,
    as a 24-slot sos-find whose search pool holds 4^24 terms per vector; or
    fail as it ran, as a certificate term with a string or no generator
    index (a TypeError or KeyError record), or one over 0 copies."""
    doc, path = _sqrt2_with(command)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"{path}.{key}" in err and message in err


@pytest.mark.parametrize("kind, extra, key", [
    ("signature", {"p": 4, "generators": ["htheta"], "closed": False}, "p"),
    ("signature", {"generators": ["htheta"]}, "generators"),
    ("signature", {"closed": True}, "closed"),
    ("mod_p", {"p": 3, "generators": []}, "generators"),
    ("mod_p", {"p": 3, "closed": False}, "closed"),
    ("fundamental", {"p": 3}, "p"),
    ("fundamental", {"ordering": 0}, "ordering"),
], ids=["signature-all", "signature-generators", "signature-closed",
        "mod_p-generators", "mod_p-closed", "fundamental-p", "fundamental-ordering"])
def test_ideals_rejects_keys_its_kind_ignores(kind, extra, key):
    """These ran `ok` with the key silently unused."""
    command = dict({"op": "ideals", "algebra": "ham", "kind": kind, "trials": 2}, **extra)
    if kind != "fundamental":
        command["ordering"] = 0
    record = run_session(parse_session(json.dumps(_sqrt2_with(command)[0]))).records[-1]
    assert record["status"] == "error"
    assert f"takes no {key!r}" in record["error"]
    if kind != "signature":
        del command[key]
        record = run_session(parse_session(json.dumps(_sqrt2_with(command)[0]))).records[-1]
        assert record["status"] == "ok"


@pytest.mark.parametrize("diag", [["1"], ["1", "-1"]], ids=["one", "hyperbolic"])
def test_raw_fundamental_answer_does_not_depend_on_the_seed(diag):
    """Neither raw span is closed under I(F) on split_orth over Q(sqrt2), so
    the ideal axiom fails.  The sampler this replaced, at 2 trials, said
    `counterexample (proper)` for <1> at seed 1 and `pass` for <1, -1> at
    seed 3."""
    for seed in range(8):
        doc = {"field": {"min_poly": ["-2", "0", "1"]}, "seed": seed,
               "algebras": [{"name": "so", "family": "split_orth"}],
               "forms": [{"name": "g", "algebra": "so", "diag": diag}],
               "commands": [{"op": "ideals", "algebra": "so", "kind": "fundamental",
                             "generators": ["g"], "closed": False, "trials": 2}]}
        record = run_session(parse_session(json.dumps(doc))).records[0]
        assert record["result"] == {"prime_sample": "counterexample (ideal)"}, seed


def test_ideals_p_above_its_cap_is_a_parse_error(tmp_path, capsys):
    """`p` is tested prime by trial division, so a value above 2^31 - 1 is
    refused at parse time, with the cap in the message, rather than run:
    p = 10**400 used to raise OverflowError when the command ran."""
    doc, path = _sqrt2_with(dict(_IDEALS, p=10**400))
    with pytest.raises(SessionParseError) as exc:
        parse_session(json.dumps(doc))
    assert exc.value.path == f"{path}.p"
    assert exc.value.message == "p must be at most 2147483647"
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(f)]) == 2
    assert "2147483647" in capsys.readouterr().err
    parse_session(json.dumps(_sqrt2_with(dict(_IDEALS, p=2**31 - 1))[0]))


def test_exponent_above_its_cap_is_a_parse_error(tmp_path, capsys):
    """`^` takes exponents up to MAX_EXPONENT: "3^2000000000" used to run
    `check` until it was killed, and a 5000-digit exponent overran int()."""
    from hermsig.session import MAX_EXPONENT

    doc = json.loads((FIXTURES / "sqrt2_session.json").read_text(encoding="utf-8"))
    for big in ("3^2000000000", "x^" + "9" * 5000, f"(1 + x)^{MAX_EXPONENT + 1}"):
        doc["forms"][0]["diag"][1] = big
        with pytest.raises(SessionParseError) as exc:
            parse_session(json.dumps(doc))
        assert exc.value.path == "forms[0].diag[1]"
        assert exc.value.message.startswith(f"exponent must be at most {MAX_EXPONENT} ")
        f = tmp_path / "big.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(f)]) == 2
        assert f"at most {MAX_EXPONENT}" in capsys.readouterr().err
    doc["forms"][0]["diag"][1] = f"(1 + x)^{MAX_EXPONENT}"
    parse_session(json.dumps(doc))


def test_nested_exponents_multiply_under_the_cap(tmp_path, capsys):
    """Nested powers multiply their exponents: "((3^64)^64)^64" parsed to a
    415,489-bit integer, and two more levels exhausted memory.  Their product
    along each nesting is capped at MAX_EXPONENT, like a single exponent."""
    from hermsig.session import MAX_EXPONENT

    assert MAX_EXPONENT == 64
    doc = json.loads((FIXTURES / "sqrt2_session.json").read_text(encoding="utf-8"))
    for ok in ("(x^8)^8", "((x^2)^4)^8", "(x^2 + (1 + x)^3)^21", "x^64 * (x^64)^1",
               "-(-x^8)^8"):
        doc["forms"][0]["diag"][1] = ok
        parse_session(json.dumps(doc))
    for big, product in (("(x^8)^9", 72), ("((3^64)^64)^64", 4096),
                         ("(x^2 + (1 + x)^3)^22", 66), ("(-(x^8))^9", 72)):
        doc["forms"][0]["diag"][1] = big
        with pytest.raises(SessionParseError) as exc:
            parse_session(json.dumps(doc))
        assert exc.value.path == "forms[0].diag[1]"
        assert exc.value.message.startswith(
            f"nested exponents multiply to {product}; their product must be at most "
            f"{MAX_EXPONENT} ")
        f = tmp_path / "nested.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(f)]) == 2
        assert f"at most {MAX_EXPONENT}" in capsys.readouterr().err


@pytest.mark.parametrize("family, params, element, slots", [
    ("split_orth", {}, [["2"]], []),
    ("unitary", {"delta": "-1"}, [["2"]], []),
    ("quat_symp", {"a": "-1", "b": "-1"}, [["2"]], []),
    ("quat_skew", {"a": "1", "b": "1"}, [[["0", "0", "0", "1"]]], []),
    ("quat_skew", {"a": "-1", "b": "-1"}, [[["0", "1", "0", "0"]]], []),
    ("split_orth", {}, [["2"]], ["3"]),
    ("split_orth", {"n": 2}, [["2", "1"], ["1", "2"]], ["3"]),
], ids=["split_orth-params0-element0", "unitary-params1-element1",
        "quat_symp-params2-element2", "quat_skew-params3-element3",
        "quat_skew-params4-element4", "split_orth-n1-slots", "split_orth-n2-slots"])
def test_sos_find_certificate_verifies_with_the_same_keys(family, params, element, slots):
    """`sos-verify` reads the generator `sos-find` used when `a` is absent:
    over Q with quat_skew (1, 1) and element k, it used to verify against 1
    and return false.  Over quat_skew (-1, -1), nil everywhere, the unit is
    not symmetric and `sos-find` used to fail without `a`.  With slots, the
    split_orth construction used to give term i the generator index i, whose
    Pfister mask i % 2^t scaled term 1 by the slot."""
    spec = {"name": "alg", "family": family, **params}
    find = {"op": "sos-find", "algebra": "alg", "element": element, "slots": slots}
    doc = {"field": {"min_poly": ["0", "1"]}, "algebras": [spec], "commands": [find]}
    found = run_session(parse_session(json.dumps(doc))).records[0]
    assert found["status"] == "ok" and found["result"]["status"] == "certificate"
    doc["commands"].append({"op": "sos-verify", "algebra": "alg", "element": element,
                            "slots": slots, "certificate": found["result"]["certificate"]})
    assert run_session(parse_session(json.dumps(doc))).records[1]["result"] is True


@pytest.mark.parametrize("name", ["full_session", "sqrt2_session", "quintic_session",
                                  "skew_session", "morita_session", "sos_bound_session",
                                  "entry_rings_session"])
def test_fixture_reports_do_not_read_the_trace_form(monkeypatch, name):
    """Every command reads the congruence kernel: each golden report is
    reproduced with the trace form of a hermitian form unavailable."""
    from hermsig import hermitian

    def unavailable(h):
        raise AssertionError("the trace form was read")

    monkeypatch.setattr(hermitian, "_entry_trace_rows", unavailable)
    text = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
    expected = (FIXTURES / f"{name}.expected.json").read_text(encoding="utf-8")
    assert run_session(parse_session(text)).to_json() == expected


def test_ideals_with_q_but_no_h_is_an_error_record():
    """The membership answer used to be left out without a word."""
    q_only = {k: v for k, v in _IDEALS.items() if k != "h"}
    doc, _ = _sqrt2_with(q_only)
    record = run_session(parse_session(json.dumps(doc))).records[-1]
    assert record["status"] == "error"
    assert "'h'" in record["error"]


def test_element_errors_carry_the_command_path():
    doc, path = _sqrt2_with({"op": "eta-max", "algebra": "ham", "ordering": 0,
                             "element": [[["1", "z", "0", "0"]]]})
    record = run_session(parse_session(json.dumps(doc))).records[-1]
    assert record["status"] == "error"
    assert f"{path}.element[0][0][1]" in record["error"]


def test_each_quadratic_gram_is_diagonalized_once(monkeypatch):
    """total-sign, torsion, sign at every ordering and ideals q read one
    kernel per Gram form, and one total signature per form."""
    from hermsig import cli

    doc, _ = _sqrt2_with({"op": "orderings"})
    doc["forms"] += [{"name": "g1", "gram": [["x", "1"], ["1", "0"]]},
                     {"name": "g2", "gram": [["1", "x", "0"], ["x", "2", "1"], ["0", "1", "-x"]]}]
    start = len(doc["commands"])
    for g in ("g1", "g2"):
        doc["commands"] += [{"op": "total-sign", "form": g}, {"op": "torsion", "form": g},
                            {"op": "sign", "form": g, "ordering": 0},
                            {"op": "sign", "form": g, "ordering": 1}, dict(_IDEALS, q=g)]
    parsed = parse_session(json.dumps(doc))
    calls = count_diagonalize(monkeypatch)
    totals = []
    for name in ("total_signature_q", "total_signature_h"):
        monkeypatch.setattr(cli, name, lambda form, *rest, _total=getattr(cli, name):
                            totals.append(form) or _total(form, *rest))
    report = run_session(parsed)
    assert not report.has_errors
    want = sorted(id(parsed.forms[g]) for g in ("g1", "g2"))
    assert sorted(id(g) for g in calls if isinstance(g, GramQuadraticForm)) == want
    assert sorted(id(g) for g in totals if isinstance(g, GramQuadraticForm)) == want
    results = [r["result"] for r in report.records[start:]]
    for k in range(2):
        total, torsion, sign0, sign1, _ = results[5 * k:5 * k + 5]
        assert total == [[0, sign0], [1, sign1]]
        assert torsion == (sign0 == sign1 == 0)


def test_each_distinct_expression_is_parsed_once_per_document(monkeypatch):
    """Repeated strings share one parse and one element within a document;
    a second document parses them again."""
    from hermsig import session

    texts = []
    parse = session._ExprParser.parse
    monkeypatch.setattr(session._ExprParser, "parse",
                        lambda self: texts.append(self.text) or parse(self))
    text = json.dumps({
        "field": {"min_poly": ["-2", "0", "1"]},
        "forms": [{"name": "q", "diag": ["x", "1 + x", "x", "1 + x", "x"]},
                  {"name": "g", "gram": [["x", "1"], ["1", "x"]]}],
        "commands": [{"op": "total-sign", "form": "q"}]})
    first = parse_session(text)
    assert sorted(texts) == ["1", "1 + x", "x"]
    q = first.forms["q"]
    assert q.entries[0] is q.entries[2] is first.forms["g"].rows[0][0]
    second = parse_session(text)
    assert sorted(texts) == ["1", "1", "1 + x", "1 + x", "x", "x"]
    assert second.forms["q"].entries[0] is not q.entries[0]
    # the key holds the generator name: "x" names nothing when it is "y"
    with pytest.raises(SessionParseError, match="unknown name 'x'"):
        session.parse_element("x", first.field, "y", "here")
    # a whole session: commands reuse the strings of the declarations; an
    # "ext" field is a field of its own
    monkeypatch.setattr(session._ExprParser, "parse",
                        lambda self: texts.append((self.field, self.text)) or parse(self))
    texts.clear()
    run_session(parse_session(FULL.read_text()))
    assert texts and len({(id(f), t) for f, t in texts}) == len(texts)


def test_a_repeated_bad_expression_reports_each_path():
    """A failed parse is not kept: each occurrence reports its own path, also
    after the good strings around it were parsed once."""
    forms = [{"name": "a", "gram": [["x", "1"], ["1", "x"]]},
             {"name": "b", "gram": [["x", "1"], ["1 + z", "x"]]}]
    with pytest.raises(SessionParseError, match=r"^forms\[1\]\.gram\[1\]\[0\]: .*'z'"):
        parse_session(minimal_doc(forms=forms, commands=[]))
    bad = {"op": "eta-max", "algebra": "ham", "ordering": 0,
           "element": [[["1", "z", "0", "0"]]]}
    doc, path = _sqrt2_with(bad)
    doc["commands"].append(bad)
    records = run_session(parse_session(json.dumps(doc))).records[-2:]
    assert [r["status"] for r in records] == ["error", "error"]
    assert f"{path}.element[0][0][1]" in records[0]["error"]
    assert f"commands[{records[1]['index']}].element[0][0][1]" in records[1]["error"]


def test_handlers_receive_resolved_arguments(monkeypatch):
    """`run_command` resolves every key by the schema, fills absent optional
    keys with their defaults and calls `cmd_<op>` with keywords."""
    from hermsig.cli import _Runner

    seen = {}
    monkeypatch.setattr(_Runner, "cmd_sos_find", lambda self, **args: seen.update(args))
    doc = parse_session(FULL.read_text())
    runner = _Runner(doc, 3, 6)
    runner.run_command(0, {"op": "sos-find", "algebra": "ham",
                           "element": [[["2", "0", "0", "0"]]], "slots": ["3"]})
    assert seen["algebra"] is doc.algebras["ham"]
    assert seen["element"].algebra is doc.algebras["ham"]
    assert seen["slots"] == [doc.field.element(3)]
    assert (seen["a"], seen["height"], seen["max_terms"]) == (None, None, None)


def test_readme_command_table_matches_the_schema():
    """README's per-op table lists exactly the ops and keys of `OPS`, and its
    key table exactly the keys of `ARGS`."""
    import re

    from hermsig.session import ARGS, OPS

    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    ops_section = text.split("### Commands\n", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|([^|\n]*)\|([^|\n]*)\|$", ops_section, re.M)
    listed = {op: (tuple(re.findall(r"`(\w+)`", req)), tuple(re.findall(r"`(\w+)`", opt)))
              for op, req, opt in rows}
    assert listed == OPS
    keys_section = text.split("### Command keys\n", 1)[1].split("\n### ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", keys_section, re.M)
    assert sorted(keys) == sorted(ARGS) and len(keys) == len(set(keys))


def _recorded(key, resolve, calls, value, doc, args, path):
    calls.append((key, json.dumps(value), tuple(args), path))
    return resolve(value, doc, args, path)


def test_resolve_args_walks_only_the_keys_of_its_op(monkeypatch):
    """`resolve_args` walks only the keys its op can take (`RESOLVED`), in
    `ARGS` order, and gives what the walk over all of `ARGS` gives: the same
    resolver calls in the same order, on the same values, each seeing the
    same earlier arguments, the same argument keys and the same defaults.
    Every op of the schema, with all its optional keys and with none."""
    import functools

    from hermsig.session import ARGS, OPS, check_command, resolve_args

    doc = parse_session(FULL.read_text())
    first: dict = {}
    for cmd in doc.commands:
        first.setdefault(cmd["op"], cmd)
    assert set(first) == set(OPS)
    samples = {"slots": ["2"], "height": 2, "max_terms": 3, "copies": 1, "ordering": 0,
               "p": 5, "q": "q1", "h": "h1", "generators": ["h1"], "closed": True,
               "trials": 3, "samples": 3}
    calls: list = []
    for key, arg in ARGS.items():
        if arg.resolve is not None:
            monkeypatch.setattr(arg, "resolve", functools.partial(_recorded, key, arg.resolve, calls))

    def full_walk(cmd, path):
        optional = OPS[cmd["op"]][1]
        args: dict = {}
        for key, arg in ARGS.items():
            if arg.resolve is None:
                continue
            if key in cmd:
                args[key] = arg.resolve(cmd[key], doc, args, f"{path}.{key}")
            elif key in optional:
                args[key] = arg.default
        return args

    variants = 0
    for op, cmd in first.items():
        optional = OPS[op][1]
        bare = {k: v for k, v in cmd.items() if k not in optional}
        full = dict(bare, **{k: cmd.get(k, cmd["element"] if k == "a" else samples.get(k))
                             for k in optional})
        for variant in ([bare, full] if optional else [bare]):
            check_command(variant, doc, "c")
            calls.clear()
            got = resolve_args(doc, variant, "c")
            got_calls = calls[:]
            calls.clear()
            want = full_walk(variant, "c")
            assert got_calls == calls and list(got) == list(want), op
            assert all(type(got[k]) is type(want[k]) for k in want), op
            assert all(got[k] is want[k] for k in want if k not in variant), op
            variants += 1
    assert variants == len(OPS) + sum(1 for _, optional in OPS.values() if optional)
