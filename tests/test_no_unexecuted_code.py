"""No unexecuted code: every function and method defined in
`src/mellin_edge`, nested ones included, is entered when a fixed corpus
runs through `cli.main` under `sys.setprofile`.

The corpus is the README `poles`, `solve` and `green-check` configs,
`edge-apply` on a written field with each `y_dependent` value, `verify` with
every check at seed 0, and the exit-2 and exit-3 configs of
`tests/test_cli.py`.  It runs in a fresh process, so that no cache filled by
an earlier test (`kernels._g17_tables`) hides an entry.  A definition is
matched to the code objects entered by its file and first line.

`tests/test_no_unreached_code.py` stays beside this guard: it also covers
classes and error types, which have no code object of their own to enter.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import mellin_edge
from mellin_edge.edge_spaces import EdgeField, TorusGrid, field_to_binary

from conftest import make_grid
from test_cli import (
    BRANCHING_SYMBOL,
    GREEN_SYMBOL,
    MALFORMED,
    _solve_with,
    edge_apply_config,
    solve_config,
)

SRC = pathlib.Path(mellin_edge.__file__).resolve().parent

# qualified name -> why no cli.main run enters it
EXEMPT = {
    "functionals.singular_function":
        "wrapped by the benchmark's tracer (perfbench/tracer.py TARGETS); "
        "the continuous-asymptotics oracle (ROADMAP item 8) is to call it",
    "functionals.AnalyticFunctional.carrier_max_re":
        "read by singular_function alone",
    "errors.CoveringFailed.__init__":
        "raised only when a covering fails; verify's type_algebra corpus is "
        "covered",
    "errors.ResidualTooLarge.__init__":
        "raised only when a solve's residual exceeds SOLVE_TOL, which no "
        "config of the corpus reaches",
    "errors.PoleOnHarvestBoundary.__init__":
        "raised only when no harvest depth clears the poles, which no "
        "config of the corpus reaches",
}

CORPUS_RUN = r"""
import json, sys
entered = {}

def profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code

sys.setprofile(profile)
import mellin_edge.cli as cli
for argv in json.loads(sys.argv[1]):
    cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno)
                         for c in entered.values()})))
"""


def definitions(src=SRC):
    """{(file, first line): qualified name} of every def in the package;
    a decorated def's code starts at its first decorator."""
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                defs[(path, first)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for p in sorted(src.glob("*.py")):
        walk(ast.parse(p.read_text(), filename=str(p)), str(p), p.stem + ".")
    return defs


def corpus(tmp_path):
    """The argv of each cli.main run, with its config written."""
    runs = [
        ("poles", {"symbol": BRANCHING_SYMBOL,
                   "y": {"min": -0.5, "max": 0.5, "n": 21}}),
        ("solve", solve_config()),
        ("green-check", {"symbol": GREEN_SYMBOL, "delta": 0.0, "beta": 0.5}),
        ("verify", {"seed": 0}),
        # exit 2
        ("poles", {"symbol": BRANCHING_SYMBOL,
                   "y": {"min": -0.5, "max": 0.5, "n": 5}, "bogus": 1}),
        ("verify", {"checks": ["nonsense"]}),
        # exit 3
        ("solve", _solve_with("cone", "coeffs", [[]])),
        ("solve", _solve_with("cone", "rhs", {"a": 5000.0, "b": 12000.0,
                                              "amplitude": 1e-3})),
        ("green-check", {"symbol": {"num": [[[1.0, 0.0]]],
                                    "den": [[[-0.5, 0.0]], [[1.0, 0.0]]],
                                    "y_domain": None},
                         "delta": 0.0, "beta": 0.5}),
    ]
    branching = solve_config()
    branching["cone"]["gamma"] = 0.5
    branching["y"] = {"min": -0.4, "max": 0.4, "n": 5}
    runs.append(("solve", branching))
    for y_dependent in (False, True):
        d = tmp_path / ("edge_%s" % y_dependent)
        d.mkdir()
        cfg = edge_apply_config(d)
        cfg["operator"]["y_dependent"] = y_dependent
        runs.append(("edge-apply", cfg))
    q2 = tmp_path / "q2"
    q2.mkdir()
    cfg = edge_apply_config(q2)
    tg = TorusGrid(2 * np.pi, 4)
    field_to_binary(EdgeField([tg, tg], make_grid(-15.0, 16),
                              np.ones((4, 4, 16))),
                    cfg["field"]["bin"], cfg["field"]["json"])
    runs.append(("edge-apply", cfg))
    for i, param in enumerate(MALFORMED):
        cmd, make_cfg, _named = param.values
        d = tmp_path / ("malformed_%d" % i)
        d.mkdir()
        runs.append((cmd, make_cfg(d)))
    argv = []
    for i, (cmd, cfg) in enumerate(runs):
        path = tmp_path / ("config_%d.json" % i)
        path.write_text(json.dumps(cfg))
        argv.append([cmd, "--config", str(path),
                     "--out", str(tmp_path / ("out_%d" % i))])
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ not json")
    argv.append(["poles", "--config", str(bad_json),
                 "--out", str(tmp_path / "out_bad")])
    return argv


def test_every_def_is_entered_under_cli_main(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", CORPUS_RUN, json.dumps(corpus(tmp_path))],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    entered = {(os.path.realpath(f), line)
               for f, line in json.loads(proc.stdout)}
    defs = definitions()
    missed = sorted(name for key, name in defs.items()
                    if key not in entered and name not in EXEMPT)
    assert missed == [], "never entered under cli.main: " + ", ".join(missed)
    stale = sorted(set(EXEMPT) - {name for key, name in defs.items()
                                  if key not in entered})
    assert stale == [], "exempt but entered or gone: " + ", ".join(stale)
