"""Mutated commands from the fixture documents: `parse_session` either
rejects the document with a `SessionParseError` or accepts it, and running
an accepted command gives a record, never a traceback."""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from hermsig.cli import run_session
from hermsig.session import SessionParseError, parse_session

FIXTURES = Path(__file__).parent / "fixtures"
DOCS = {name: json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("full_session", "sqrt2_session", "quintic_session")}

VALUES = st.one_of(st.text(max_size=3), st.booleans(),
                   st.lists(st.integers(-2, 3), max_size=2), st.none(), st.integers(-2, 3))


@st.composite
def mutated_documents(draw):
    """One fixture command with one mutation, alone in its document: a key
    dropped, a value retyped, an unknown key added, or a name swapped for
    another declared name of the same table."""
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    cmd = draw(st.sampled_from(doc["commands"]))
    keys = sorted(cmd)
    named = [k for k in keys if k in ("form", "q", "h", "algebra")]
    how = draw(st.sampled_from(["drop", "retype", "unknown", "swap"]))
    if how == "drop":
        del cmd[draw(st.sampled_from(keys))]
    elif how == "retype":
        cmd[draw(st.sampled_from(keys))] = draw(VALUES)
    elif how == "unknown":
        cmd[draw(st.sampled_from(["max_term", "orderin", "x"]))] = draw(VALUES)
    elif named:
        key = draw(st.sampled_from(named))
        table = doc["algebras"] if key == "algebra" else doc["forms"]
        cmd[key] = draw(st.sampled_from([spec["name"] for spec in table]))
    doc["commands"] = [cmd]
    return doc


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_mutated_commands_parse_or_run_without_tracebacks(doc):
    try:
        parsed = parse_session(json.dumps(doc))
    except SessionParseError:
        return
    records = run_session(parsed, search_height=1, search_terms=2).records
    assert len(records) == 1
    assert records[0]["status"] in ("ok", "error")
