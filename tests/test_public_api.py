"""Every name the package exports is reachable from a user of the package.

The users are the demos, the acceptance tests and the ``mvdesc`` command
(``cli.main``). From them the test follows references through the
package's top-level definitions: a function, class or constant is reached
when a reached definition refers to it. A name imported into
``mvdesc/__init__.py`` that is not reached has no user; the unit tests do
not count, since a function only they call is a test oracle and belongs in
``tests/oracles.py``.

References are read from the syntax tree, by name: a name or attribute
such as ``image.build_pyramid`` reaches every package definition of that
name. The walk can only over-count uses, so a failure is never a false
alarm.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mvdesc"
USERS = [ROOT / "tests" / "test_acceptance.py",
         *sorted((ROOT / "demos").glob("*.py"))]


def identifiers(tree) -> set:
    """Every name ``tree`` reads, imports or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def package_graph():
    """``(refs, by_name)``: per ``(module, name)`` top-level function, class
    or constant the names its body refers to, and per name its
    definitions."""
    refs, by_name = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                refs[path.stem, name] = identifiers(node)
                by_name.setdefault(name, set()).add((path.stem, name))
    return refs, by_name


def reached() -> set:
    refs, by_name = package_graph()
    todo = [("cli", "main")]
    for path in USERS:
        for name in identifiers(ast.parse(path.read_text())):
            todo += by_name.get(name, ())
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            for name in refs[key]:
                todo += by_name.get(name, ())
    return seen


def exports() -> list:
    """``(name, defining module)`` of each name ``__init__`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(alias.name, node.module)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


EXPORTS = exports()
REACHED = reached()


def test_the_walk_reads_the_package():
    assert len(EXPORTS) > 50
    assert ("cli", "main") in REACHED and ("bench", "run_benchmark") in REACHED


@pytest.mark.parametrize("name, module", EXPORTS,
                         ids=[name for name, _ in EXPORTS])
def test_export_is_used(name, module):
    assert (module, name) in REACHED, (
        f"mvdesc.{name} ({module}.py) is reached from no demo, acceptance "
        f"test or CLI command")
