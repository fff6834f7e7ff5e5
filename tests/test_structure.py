"""Package structure: each private name is read only in the module that owns
it, each parameter-key spelling lives in the one function that owns it, and
only the sampler branches on the sampler kind."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wsnaslab"


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.relative_to(PACKAGE)} imports {'.' * node.level}{node.module or ''} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def test_op_weight_keys_are_spelled_only_in_op_weights():
    """supernet._op_weights owns the keys of the op weights; the builder, the
    path queries and the op forward read them from it."""
    owner = [range(node.lineno, node.end_lineno + 1)
             for node in ast.walk(ast.parse((PACKAGE / "supernet.py").read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "_op_weights"]
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        owned = owner[0] if owner and path == PACKAGE / "supernet.py" else range(0)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Constant) or not isinstance(node.value, str) or node.lineno in owned:
                continue
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno} spells {word}"
                      for word in ("conv3x3/weight", "conv1x1/weight", "ofa_proj") if word in node.value]
    assert found == []


def test_only_the_sampler_branches_on_the_sampler_kind():
    """sampling.Sampler owns the choice between a plan and a draw; every other
    caller trains or counts `Sampler.step` without naming a kind."""
    kinds = {"random_nas", "random_a", "fairnas"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owned = set()
        if path == PACKAGE / "sampling.py":
            owned = {line for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Sampler"
                     for line in range(node.lineno, node.end_lineno + 1)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and node.lineno not in owned:
                found += [f"{path.relative_to(PACKAGE)}:{node.lineno} compares against {o.value!r}"
                          for o in (node.left, *node.comparators)
                          if isinstance(o, ast.Constant) and isinstance(o.value, str) and o.value in kinds]
    assert found == []
