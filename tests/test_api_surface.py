"""Every public function or class of the package has a caller.

A caller is a reference in ``src/`` outside the name's own definition,
or, in ``perfbench/``, an attribute of a package module, a
``"layer.name"`` string the tracer looks up, or an import from
``crystal_polytope``.  ``cli.main``, the console script, is exempt.  A
name only the tests call belongs in ``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(folder: str) -> list:
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted((ROOT / folder).glob("*.py"))]


def test_every_public_name_has_a_caller():
    package = _trees("src/crystal_polytope")
    layers = {module for module, _ in package}
    reached = set()
    for _, tree in _trees("perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in layers:
                    reached.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                layer, _, name = node.value.partition(".")
                if layer in layers:
                    reached.add(name)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("crystal_polytope")):
                reached |= {alias.name for alias in node.names}
    statements = [(node, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                          if isinstance(n, (ast.Name, ast.Attribute))})
                  for _, tree in package for node in tree.body]
    orphans = [f"{module}.{node.name}" for module, tree in package for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and (module, node.name) != ("cli", "main")
               and node.name not in reached
               and not any(node.name in names for other, names in statements if other is not node)]
    assert not orphans, f"no caller in the package or the benchmark: {', '.join(orphans)}"
