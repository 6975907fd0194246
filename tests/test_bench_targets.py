"""The benchmark's traced run wraps the functions named in
perfbench/tracer.py TARGETS; each must exist in the package, or a traced
run fails before it measures anything.  Each name the harness imports from
the package must exist too, or its output checks fail."""

import ast
import importlib
import importlib.util
import json
import os

import numpy as np
import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def _resolves(layer, path):
    owner = importlib.import_module("mellin_edge." + layer)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    assert len(tracer.TARGETS) > 0
    missing = [layer + "." + path for layer, path, _probe in tracer.TARGETS
               if not _resolves(layer, path)]
    assert missing == []


def _imported(module, name):
    """Whether `from module import name` (`import module` for name None)
    finds its target: an attribute of the module or a submodule."""
    try:
        mod = importlib.import_module(module)
        return name is None or hasattr(mod, name) or bool(
            importlib.import_module(module + "." + name))
    except ModuleNotFoundError:
        return False


def test_harness_imports_resolve():
    """Every `from mellin_edge... import ...` and `import mellin_edge...` in
    perfbench/*.py, those inside functions included, resolves."""
    bench = os.path.dirname(TRACER)
    imports = []
    for name in sorted(os.listdir(bench)):
        if name.endswith(".py"):
            with open(os.path.join(bench, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    imports += [(node.module, a.name) for a in node.names]
                elif isinstance(node, ast.Import):
                    imports += [(a.name, None) for a in node.names]
    ours = [(m, n) for m, n in imports if m.split(".")[0] == "mellin_edge"]
    assert len(ours) > 0
    assert [(m, n) for m, n in ours if not _imported(m, n)] == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


SOLVE_CONFIG = {
    "cone": {"coeffs": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                        [[0.0, 0.0]], [[1.0, 0.0]]],
             "y_domain": [-0.5, 0.5], "mu": 0, "gamma": 0.0,
             "rhs": {"a": 1.0, "b": 3.0, "amplitude": 1.0}},
    "grid": {"t_min": -50.0, "n_points": 8192},
    "y": {"min": -0.004, "max": 0.004, "n": 5},
    "depth": 0.75,
    "radii": [0.05, 0.1, 0.2],
}
GREEN_CONFIG = {
    "symbol": {"num": [[[1.0, 0.0]]],
               "den": [[[-0.25, 0.0]], [[1.0, 0.0]]], "y_domain": None},
    "delta": 0.0,
    "beta": 0.5,
}


@pytest.mark.parametrize("command, config, searches", [
    ("solve", SOLVE_CONFIG, 5),
    ("green-check", GREEN_CONFIG, 1),
])
def test_traced_readme_run_searches_each_pole_set_once(
        tmp_path, command, config, searches):
    """The README config under the benchmark's tracer: every probe reads
    its call, and no (symbol, y) has its poles searched twice.  The tracer
    wraps locate_poles only: solve's branch tracking searches the inverse
    symbol's 5 nodes in one pole_records call, so the 5 calls counted are
    the forward symbol's, one per node."""
    from mellin_edge import cli

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    tracer = _load_tracer()
    tr = tracer.Tracer()
    tr.install()
    try:
        status = cli.main([command, "--config", str(cfg),
                           "--out", str(tmp_path / "out")])
    finally:
        tr.uninstall()
    assert status == 0
    assert all(s.error is None for s in tr.spans)
    probed = {"symbols.locate_poles", "cone.solve"}
    assert all(s.value is not None for s in tr.spans if s.name in probed)
    m = tracer._invocation_metrics(tr.spans, 1.0)
    assert m["symbols.locate_poles.calls"] == searches
    assert m["symbols.locate_poles.distinct_frac"] == 1.0


def test_edge_apply_checker_op_mellin_form():
    """The edge_apply output check calls op_mellin(f, y, gamma, u) with
    four positional arguments."""
    from mellin_edge.mellin import HalfLineFunction, LogGrid, op_mellin
    from mellin_edge.symbols import MeromorphicSymbol

    grid = LogGrid(-15.0, -15.0 + 4096 * np.log(2.0) / 96.0, 4096)
    f = MeromorphicSymbol(np.ones((1, 1)), [[1.2, 0.3], [1.0, 0.0]],
                          reduce=False)
    u = HalfLineFunction(grid, grid.r ** 2 * np.exp(-grid.r))
    out = op_mellin(f, 0.5, 0.0, u)
    assert out.values.shape == (4096,)
    assert np.all(np.isfinite(out.values))
