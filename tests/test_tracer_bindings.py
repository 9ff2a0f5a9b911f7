"""Every binding the benchmark tracer wraps still exists.

``perfbench/spans.py`` wraps each ``(module, attribute)`` pair it lists at
run time; a refactor that drops one is otherwise noticed only by a traced
benchmark run. The list is read from the file, which stays unedited.
"""

import ast
import importlib
import operator
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layer_functions() -> list:
    """``LAYER_FUNCTIONS`` of ``perfbench/spans.py``, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS}: no LAYER_FUNCTIONS")


BINDINGS = [(name, module, attr) for name, modules, attr in layer_functions()
            for module in modules]


@pytest.mark.parametrize("name, module, attr", BINDINGS,
                         ids=[f"{m}.{a}" for _, m, a in BINDINGS])
def test_traced_binding_resolves(name, module, attr):
    target = operator.attrgetter(attr)(importlib.import_module(module))
    assert callable(target), f"{name}: {module}.{attr} is not callable"
