"""The package holds what the program runs, and exports what the README
states."""

import ast
import re
import types
from pathlib import Path

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
