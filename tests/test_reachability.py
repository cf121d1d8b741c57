"""Every public module-level function and class of the library is used by the
library itself or by the benchmark, not only by its own tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "dyninv"
SOURCES = sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
# the dense oracles are the tests' reference solutions
EXEMPT_MODULES = {"oracle"}
EXEMPT_NAMES = {
    # ROADMAP item C has `dyninv solve` write this file
    "gengk.dump_diagnostics_csv",
}


def test_every_public_name_is_used_outside_its_definition():
    uses = []      # (path, line, identifier) of each Name and Attribute node
    defined = []   # (path, module-level public def or class node)
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr))
        if path.parent == LIBRARY and path.stem not in EXEMPT_MODULES:
            defined += [(path, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]

    def used(path, node):
        return any(name == node.name
                   and not (p == path and node.lineno <= line <= node.end_lineno)
                   for p, line, name in uses)

    unused = {f"{path.stem}.{node.name}" for path, node in defined
              if not used(path, node)}
    assert unused <= EXEMPT_NAMES, sorted(unused - EXEMPT_NAMES)
