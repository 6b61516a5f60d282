"""The functions the benchmark's traced run counts must exist in the package.

``apsbench/run.py`` names them as "layer:qualname" strings in ``COUNTERS``,
``TIMERS``, ``CONSTRAINT_MATRIX`` and ``INDEX``; a name that no longer
resolves makes that run report the metric as absent.  The file is read with
``ast``, not imported, so the benchmark's own imports play no part here.
"""

import ast
import importlib
import inspect
import os

import pytest

RUN_PY = os.path.join(os.path.dirname(__file__), os.pardir, "apsbench", "run.py")
TRACED = ("COUNTERS", "TIMERS", "CONSTRAINT_MATRIX", "INDEX")
# numpy/scipy entry points the tracer also wraps; they are not package code
NOT_PACKAGE = {"linalg"}


def traced_names() -> list:
    with open(RUN_PY) as fh:
        tree = ast.parse(fh.read())
    strings = {}  # module-level name -> string constant it is bound to
    values = {}  # traced name -> its assigned expression
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs = [(target, node.value)]
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            else:
                continue
            for t, v in pairs:
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    strings[t.id] = v.value
                if t.id in TRACED:
                    values[t.id] = v
    assert set(values) == set(TRACED)
    names = []
    for v in values.values():
        for item in v.values if isinstance(v, ast.Dict) else [v]:
            names.append(strings[item.id] if isinstance(item, ast.Name) else item.value)
    return names


def resolve(name: str):
    layer, qualname = name.split(":", 1)
    module = importlib.import_module(f"apslab.{layer}")
    obj = module
    for part in qualname.split("."):
        assert part == "__init__" or not part.startswith("_"), f"{name} is not public"
        obj = getattr(obj, part, None)
        assert obj is not None, f"{name} does not resolve"
    return module, obj


def test_traced_names_are_read():
    names = traced_names()
    assert "index_calculus:index" in names
    assert "cylinder_solver:homogeneous_constraint_matrix" in names
    assert len(names) == 14


@pytest.mark.parametrize(
    "name", [n for n in traced_names() if n.split(":", 1)[0] not in NOT_PACKAGE]
)
def test_traced_name_is_a_public_function_of_its_layer(name):
    module, obj = resolve(name)
    assert inspect.isfunction(obj) or inspect.ismethod(obj), name
    assert obj.__module__ == module.__name__, name


def test_index_takes_certify():
    # the traced run re-runs each captured index() call with certify=True and False
    _, index = resolve("index_calculus:index")
    assert "certify" in inspect.signature(index).parameters
