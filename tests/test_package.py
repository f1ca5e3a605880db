"""The package holds what the program runs, and exports what the README
states."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hermsig

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "hermsig"

# Top-level names that nothing in the package calls.  The benchmark's answer
# checker (perfbench/checks.py) imports both from hermsig.hermitian as
# independent signatures; they move to the tests with a benchmark change.
BENCHMARK_ORACLES = {
    "split_oracle_signature": "perfbench/checks.py checks quat_skew signatures with it",
    "sylvester_count_oracle": "perfbench/checks.py checks hermitian-family signatures with it",
}


def test_all_is_the_readme_public_api():
    """`hermsig.__all__` lists exactly the names of the README's "Public API"
    section, in its order, and each is bound in the package."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- [^\n]*(?:\n  [^\n]*)*", section, re.M)
    listed = [name for b in bullets for name in re.findall(r"`(\w+)`", b)]
    assert listed == hermsig.__all__
    assert len(listed) == len(set(listed))
    assert all(hasattr(hermsig, name) for name in listed)
    # the submodules are bound too, once imported
    bound = {name for name, value in vars(hermsig).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(listed)


def _references(node: ast.AST) -> set[str]:
    """Names read, imported or used as attributes in the node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_top_level_definition_is_used_in_the_package():
    """Each top-level function or class in src/hermsig is reached from other
    live code of the package: a name only the tests or the benchmark use
    belongs in tests/.  The re-exports of __init__ do not count, so the
    public API keeps nothing alive on its own, and a name used only by dead
    code is dead too.  The two benchmark oracles are the only exceptions:
    nothing in the package calls them, and they keep their helpers alive."""
    statements = [stmt for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"
                  for stmt in ast.parse(f.read_text(encoding="utf-8")).body]
    refs = [(stmt, _references(stmt)) for stmt in statements]
    defs = [stmt for stmt in statements if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]

    def used(stmt, dead):
        return any(stmt.name in names for other, names in refs
                   if other is not stmt and getattr(other, "name", None) not in dead)

    assert not any(used(stmt, set()) for stmt in defs if stmt.name in BENCHMARK_ORACLES)
    dead: set[str] = set()
    while True:
        newly = {stmt.name for stmt in defs if stmt.name not in dead
                 and stmt.name not in BENCHMARK_ORACLES and not used(stmt, dead)}
        if not newly:
            break
        dead |= newly
    assert dead == set()


def test_every_import_is_read():
    """Each name that a module of src/hermsig other than __init__.py imports
    at top level is read in that module, so a deletion leaves no import
    behind."""
    unread = []
    for f in sorted(SRC.glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
                    and getattr(stmt, "module", None) != "__future__"
                    for alias in stmt.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{f.name}: {name}" for name in sorted(imported - read)]
    assert unread == []


# Standard-library modules no session needs: dataclasses (which pulls in
# inspect, ast, dis and tokenize), argparse (with gettext; `cli.main` imports
# it), typing, and random (every decision is exact).
UNNEEDED_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse",
                    "gettext", "typing", "random")


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_importing_hermsig_loads_no_unneeded_modules(flags):
    """In a fresh interpreter, importing hermsig.cli and hermsig.session, as
    `hermsig run` does, and then hermsig, adds none of UNNEEDED_MODULES to
    sys.modules.  Only the modules the import adds count, so a module that
    site loads does not; under -S, site loads none of them."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import hermsig.cli, hermsig.session\n"
            "import hermsig\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "hermsig.cli" in added
    assert added.isdisjoint(UNNEEDED_MODULES), sorted(added & set(UNNEEDED_MODULES))


# Every record class with its parameters: names, order and defaults (a
# callable default shows as "...").
RECORDS = {
    "algebras.Family": "name params entry_dim trace_divisor skew nil x_sigma build_ring",
    "cli.Report": "records",
    "cones.PositivityReport": "x_sigma x_tilde ps_prime_holds ps_sufficient",
    "cones.CertTerm": "weight_subset weight_root vector generator_index",
    "cones.SquareCertificate": "terms",
    "cones.Refutation": "ordering witness",
    "cones.SosSearchResult": "status certificate=None refutation=None",
    "hermitian.ReferenceForm": "form certificate",
    "hermitian.KnebuschReport": "holds transfer_side sum_side",
    "hermitian.SylvesterDecomposition": "weights positive negative radical_dim",
    "quadforms.Diagonalization": "field pivots radical_dim transform=None",
    "session.SessionDocument": "field gen_name algebras forms commands seed=0",
    "session.Arg": "json resolve=... default=None positive=False cap=None by_name=False",
    "spectra.FundamentalDescriptor": "generators closed=True",
    "spectra.PrimeIdealPair": "kind algebra ordering=None p=None descriptor=None",
    "spectra.PrimeSampleReport": "passed failed_axiom=None witness_q=None witness_h=None",
    "spectra.MorphismComparison": "equivalent witness=None",
    "spectra.MoritaConeReport": "pairs ok",
}


def _record_class(name):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"hermsig.{module}"), cls)


def _rendered(param):
    if param.default is param.empty:
        return param.name
    return param.name + "=" + ("..." if callable(param.default) else repr(param.default))


@pytest.mark.parametrize("name", RECORDS)
def test_record_classes_keep_their_parameters(name):
    params = inspect.signature(_record_class(name)).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert " ".join(_rendered(p) for p in params) == RECORDS[name]


def _exported_record_args():
    from hermsig import (QQ, AlgebraWithInvolution, CertTerm, Diagonalization,
                         FundamentalDescriptor, PrimeIdealPair, SessionDocument,
                         SquareCertificate, reference_form)

    alg = AlgebraWithInvolution(QQ, "quat_symp", 1, a=-1, b=-1)
    eta = reference_form(alg)
    term = CertTerm((), QQ.one, alg.one_element, 0)
    return [
        (CertTerm, ((), QQ.one, alg.one_element, 0)),
        (SquareCertificate, ([term],)),
        (Diagonalization, (QQ, (QQ.one,), 0, None)),
        (PrimeIdealPair, ("mod_p", alg, QQ.orderings[0], 3, None)),
        (FundamentalDescriptor, ([eta.form], False)),
        (SessionDocument, (QQ, "x", {"ham": alg}, {}, [], 7)),
    ]


def test_exported_records_accept_positional_and_keyword_arguments():
    """Each record class in hermsig.__all__ takes its fields in order, or by
    name, and keeps each argument as the attribute of that name."""
    args = _exported_record_args()
    assert {cls.__name__ for cls, _ in args} == {
        name.split(".")[1] for name in RECORDS} & set(hermsig.__all__)
    for cls, values in args:
        names = list(inspect.signature(cls).parameters)
        for record in (cls(*values), cls(**dict(zip(names, values)))):
            assert all(getattr(record, n) is v for n, v in zip(names, values))
