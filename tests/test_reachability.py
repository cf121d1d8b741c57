"""Every public module-level function and class of the library, and every
public method of its classes, is used by the library itself or by the
benchmark, not only by its own tests."""

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


def public_defs(node):
    return [child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef))
            and not child.name.startswith("_")]


def module_bindings(tree):
    """Names that ``from dyninv import m`` or ``from . import m as x`` bind to a
    library module: such a name refers to the module, not to a same-named
    function in it."""
    modules = {path.stem for path in LIBRARY.glob("*.py")}
    return {alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "dyninv" or (node.level and node.module is None))
            for alias in node.names if alias.name in modules}


def test_every_public_name_is_used_outside_its_definition():
    uses = []      # (path, line, identifier) of each Name and Attribute node
    defined = []   # (path, qualified name, public def or class node)
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        module_names = module_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id not in module_names:
                    uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr))
        if path.parent == LIBRARY and path.stem not in EXEMPT_MODULES:
            for node in public_defs(tree):
                defined.append((path, f"{path.stem}.{node.name}", node))
                if isinstance(node, ast.ClassDef):
                    defined += [(path, f"{path.stem}.{node.name}.{method.name}", method)
                                for method in public_defs(node)
                                if isinstance(method, ast.FunctionDef)]

    def used(path, node):
        return any(name == node.name
                   and not (p == path and node.lineno <= line <= node.end_lineno)
                   for p, line, name in uses)

    unused = {name for path, name, node in defined if not used(path, node)}
    assert unused <= EXEMPT_NAMES, sorted(unused - EXEMPT_NAMES)
