"""No write-only state: every attribute the package stores, or declares as
a dataclass field, is read somewhere in the package.

The scan is by attribute name over the AST of every module in
`src/mellin_edge` except `errors.py` (typed-error payloads are read by
callers outside the package).  Because it matches names, it cannot see a
stored field whose name is also read elsewhere for another object: a
`weight_hint` or `asym_type` stored on one class and read on another
passes.
"""

import ast
import pathlib

import mellin_edge

# attached to results by `cone.solve` for callers outside the package
ALLOWED = {"residual"}


def _is_dataclass(node):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def _scan(src_dir):
    stored, loaded = {}, set()
    for path in sorted(src_dir.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, "%s:%d" % (path.name,
                                                            node.lineno))
                else:
                    loaded.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        stored.setdefault(item.target.id, "%s:%d" % (
                            path.name, item.lineno))
    return stored, loaded


def test_every_stored_attribute_is_read():
    src_dir = pathlib.Path(mellin_edge.__file__).parent
    stored, loaded = _scan(src_dir)
    unread = sorted("%s (%s)" % (name, where) for name, where in stored.items()
                    if name not in loaded and name not in ALLOWED)
    assert unread == [], "stored but never read: " + ", ".join(unread)
