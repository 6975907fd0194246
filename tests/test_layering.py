"""Artifact layout lives in one module: only `kernels` (which defines them)
and `cli` name the CSV writer's `csv_rows`, `g17_field` and `d_field`, and
only `cli` and `edge_spaces` (its binary field I/O) call `open`.
Certifications return their defects, and a tolerance is compared by the
caller that needs an exception: only `kernels.certify_flat` and `cli`
raise `CertificationFailed`.

The scan is by name over the AST of every module in `src/mellin_edge`: a
name counts wherever it appears as a `Name`, an attribute, an imported
name or a definition.
"""

import ast
import pathlib

import mellin_edge

SRC = pathlib.Path(mellin_edge.__file__).parent
WRITER = {"csv_rows", "g17_field", "d_field"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _opens(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"]


def _raisers(tree, exc):
    """The top-level definition around each `raise exc` or `raise exc(...)`
    of tree."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                e = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(e, "id", getattr(e, "attr", None)) == exc:
                    yield getattr(top, "name", "<module>"), node.lineno


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_only_kernels_and_cli_name_the_csv_writer():
    found = ["%s:%d %s" % (mod, line, name) for mod, tree in _trees()
             if mod not in ("kernels", "cli")
             for name, line in _names(tree) if name in WRITER]
    assert found == [], "CSV writer named outside cli: " + ", ".join(found)


def test_only_cli_and_edge_spaces_open_files():
    found = ["%s:%d" % (mod, line) for mod, tree in _trees()
             if mod not in ("cli", "edge_spaces") for line in _opens(tree)]
    assert found == [], ("open() called outside cli and edge_spaces: "
                         + ", ".join(found))


def test_only_certify_flat_and_cli_raise_certification_failed():
    sites = [(mod, name, line) for mod, tree in _trees()
             for name, line in _raisers(tree, "CertificationFailed")]
    assert {s[:2] for s in sites} >= {("kernels", "certify_flat"),
                                     ("cli", "cmd_solve")}
    found = ["%s:%d %s" % (mod, line, name) for mod, name, line in sites
             if mod != "cli" and (mod, name) != ("kernels", "certify_flat")]
    assert found == [], ("CertificationFailed raised outside certify_flat "
                         "and cli: " + ", ".join(found))
