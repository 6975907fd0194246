"""No unused imports: every name a module in `src/mellin_edge` or `tests`
imports is used in that module.  And no module in `src/mellin_edge` imports
scipy, which only the tests need.

The scan is by name over the AST: an imported name counts as used when a
`Name` node with its id appears anywhere in the module.  Names imported on
a line marked `# noqa: F401` are re-exports and exempt.
"""

import ast
import pathlib

import mellin_edge

ROOTS = (pathlib.Path(mellin_edge.__file__).parent,
         pathlib.Path(__file__).parent)


def _unused(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_every_import_is_used():
    unused = [entry for root in ROOTS for path in sorted(root.glob("*.py"))
              for entry in _unused(path)]
    assert unused == [], "imported but never used: " + ", ".join(unused)


def _scipy_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    return ["%s: %s" % (path.name, name) for name in names
            if name.split(".")[0] == "scipy"]


def test_package_never_imports_scipy():
    found = [entry for path in sorted(ROOTS[0].glob("*.py"))
             for entry in _scipy_imports(path)]
    assert found == [], "scipy imported in the package: " + ", ".join(found)
