"""No unreached code: every public function, class and method in
`src/mellin_edge` is reached from `cli.main` or from the benchmark harness
in `perfbench/` (the dotted names of its `TARGETS` included).  The paper's
constructs are reached through `verify`, which runs every check of
`mellin_edge.checks`.

The scan is by name over the AST.  A definition is reached when its name
appears in a reached definition's body, in a module's top-level statements
(imports aside) or in one of the roots above; a reached class brings its
non-public members (`__init__`, `__call__`, ...) with it.  Because it
matches names, a definition passes when any reached code mentions its
name, for whatever object; attributes of numpy (`np.multiply`,
`np.linalg.eigvals`) are not counted, so numpy's names reach nothing.
"""

import ast
import pathlib

import mellin_edge

SRC = pathlib.Path(mellin_edge.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent


def _of_numpy(node):
    """Whether an attribute chain starts at the name `np`."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "np"


def _names(node, strings=False):
    """The identifiers `node` mentions, numpy's attributes aside; with
    `strings`, also the parts of its dotted string constants (the harness
    names targets that way)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute) and not _of_numpy(n):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]
        elif strings and isinstance(n, ast.Constant) and isinstance(
                n.value, str):
            yield from n.value.split(".")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(trees):
    """(name, qualified name, names its body mentions) of each top-level
    function and class and each method; a class's body leaves out its
    public methods, which are reached on their own."""
    defs = []
    for mod, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, "%s.%s" % (mod, node.name),
                             set(_names(node))))
            elif isinstance(node, ast.ClassDef):
                public = [m for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not m.name.startswith("_")]
                body = [s for s in node.body if s not in public]
                defs.append((node.name, "%s.%s" % (mod, node.name),
                             {x for part in body + node.bases
                              + node.decorator_list for x in _names(part)}))
                defs += [(m.name, "%s.%s.%s" % (mod, node.name, m.name),
                          set(_names(m))) for m in public]
    return defs


def unreached(src=SRC, repo=REPO):
    """The qualified names of the public definitions nothing reaches."""
    trees = [(p.stem, _parse(p)) for p in sorted(src.glob("*.py"))]
    reached = {"main"}           # cli.main
    for _mod, tree in trees:
        reached.update(x for stmt in tree.body if not isinstance(
            stmt, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))
                       for x in _names(stmt))
    for path in sorted((repo / "perfbench").glob("*.py")):
        reached.update(_names(_parse(path), strings=True))
    defs = _definitions(trees)
    grown = True
    while grown:
        grown = False
        for name, _qual, body in defs:
            if name in reached and not body <= reached:
                reached |= body
                grown = True
    return sorted(qual for name, qual, _body in defs
                  if not (name in reached or name.startswith("_")))


def test_every_public_definition_is_reached():
    found = unreached()
    assert found == [], "reached from no entry point: " + ", ".join(found)
