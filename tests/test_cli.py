"""Batch CLI: subcommands, artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mellin_edge import cone, symbols
from mellin_edge.cli import main
from mellin_edge.edge_spaces import EdgeField, TorusGrid, field_to_binary
from mellin_edge.mellin import LogGrid

from conftest import DT, make_grid


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(cmd, cfg, out):
    os.makedirs(out, exist_ok=True)
    return main([cmd, "--config", cfg, "--out", str(out)])


BRANCHING_SYMBOL = {
    "num": [[[1.0, 0.0]]],
    "den": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    "y_domain": [-0.5, 0.5],
}


def test_poles_branching(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": BRANCHING_SYMBOL,
        "y": {"min": -0.5, "max": 0.5, "n": 21},
    })
    out = tmp_path / "out"
    assert run("poles", cfg, out) == 0
    lines = (out / "branches.csv").read_text().splitlines()
    assert lines[0] == "y,Re p,Im p,multiplicity,branch_id"
    assert len(lines) > 21
    ev = json.loads((out / "events.json").read_text())
    assert ev["n_branches"] == 2
    assert len(ev["events"]) == 1 and float(ev["events"][0]) == 0.0
    dat = (out / "branches.dat").read_text()
    assert dat.startswith("# y re_p im_p multiplicity branch_id\n")
    assert "\n\n" in dat          # blank line between branches for gnuplot
    # determinism: bit-identical artifacts on a re-run
    out2 = tmp_path / "out2"
    assert run("poles", cfg, out2) == 0
    for name in ("branches.csv", "events.json", "branches.dat"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_poles_pole_free(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": {"num": [[[1.0, 0.0]], [[2.0, 0.0]]],
                   "den": [[[1.0, 0.0]]], "y_domain": None},
        "y": {"min": 0.0, "max": 1.0, "n": 3},
    })
    out = tmp_path / "out"
    assert run("poles", cfg, out) == 0
    lines = (out / "branches.csv").read_text().splitlines()
    assert len(lines) == 1        # header only


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": BRANCHING_SYMBOL,
        "y": {"min": -0.5, "max": 0.5, "n": 5},
        "bogus": 1,
    })
    assert run("poles", cfg, tmp_path / "out") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "bogus" in err["message"]


def test_bad_json_config(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("{ not json")
    assert run("poles", str(p), tmp_path / "out") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def solve_config():
    return {
        "cone": {
            "coeffs": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                       [[0.0, 0.0]],
                       [[1.0, 0.0]]],
            "y_domain": [-0.5, 0.5],
            "mu": 0,
            "gamma": 0.0,
            "rhs": {"a": 1.0, "b": 3.0, "amplitude": 1.0},
        },
        "grid": {"t_min": -50.0, "n_points": 8192},
        "y": {"min": -0.004, "max": 0.004, "n": 5},
        "depth": 0.75,
        "radii": [0.05, 0.1, 0.2],
    }


def test_solve_end_to_end(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", solve_config())
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 0
    sol = (out / "solution.csv").read_text().splitlines()
    assert sol[0] == "y,r,re_u,im_u"
    assert len(sol) == 1 + 5 * 8192
    coeff = (out / "coefficients.csv").read_text().splitlines()
    assert coeff[0] == "y,re_p,im_p,k,re_c,im_c,branch_id"
    br = json.loads((out / "branching.json").read_text())
    assert len(br["events"]) == 1 and float(br["events"][0]) == 0.0
    assert float(br["continuity_defect"]) <= 1e-4
    cert = json.loads((out / "flat_certification.json").read_text())
    assert len(cert["certification"]) == 5
    for row in cert["certification"]:
        for v in row["mass_ratios"]:
            assert float(v) <= 50.0
    # determinism
    out2 = tmp_path / "out2"
    assert run("solve", cfg, out2) == 0
    for name in ("solution.csv", "coefficients.csv",
                 "flat_certification.json", "branching.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_artifact_and_one_solve_per_node(tmp_path, monkeypatch):
    """solution.csv is, byte for byte, the per-row %.17g loop over
    cone.solve's results; the CLI solves each y node once, after it has
    written coefficients.csv."""
    cfg = solve_config()
    grid = make_grid(-50.0, 8192)
    ys = np.linspace(-0.004, 0.004, 5)
    a = symbols.ConormalSymbol.from_json({"coeffs": cfg["cone"]["coeffs"],
                                          "y_domain": [-0.5, 0.5]})
    problem = cone.ConeProblem(a, 0, 0.0, cone.bump_rhs(grid), ys)
    want = ["y,r,re_u,im_u\n"]
    for y in ys:
        u = cone.solve(problem, y)
        for rr, uv in zip(grid.r, u.values):
            want.append("%.17g,%.17g,%.17g,%.17g\n"
                        % (y, rr, uv.real, uv.imag))

    out = tmp_path / "out"
    calls = []
    solve = cone.solve

    def counted(problem, y):
        calls.append((float(y), (out / "coefficients.csv").exists()))
        return solve(problem, y)

    monkeypatch.setattr(cone, "solve", counted)
    assert run("solve", write_cfg(tmp_path, "c.json", cfg), out) == 0
    assert (out / "solution.csv").read_bytes() == "".join(want).encode()
    assert calls == [(float(y), True) for y in ys]


def test_solve_branching_failure_precedes_solution(tmp_path, capsys):
    """The branching pass runs before any y is solved: a pole on the weight
    line at an interior node is reported before any artifact is written."""
    cfg = solve_config()
    cfg["cone"]["gamma"] = 0.5      # line Re z = 0 meets the pole p = y = 0
    cfg["y"] = {"min": -0.4, "max": 0.4, "n": 5}
    out = tmp_path / "out"
    assert run("solve", write_cfg(tmp_path, "c.json", cfg), out) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "PoleOnWeightLine"
    assert os.listdir(out) == []


def test_verify_subset_passes(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "checks": ["plancherel", "edge_w0_is_l2"], "seed": 0})
    out = tmp_path / "out"
    assert run("verify", cfg, out) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["all_pass"] is True
    assert [r["check_name"] for r in rep["checks"]] == [
        "plancherel", "edge_w0_is_l2"]
    for r in rep["checks"]:
        assert r["pass"] is True
        assert float(r["max_defect"]) <= float(r["tolerance"])


def test_verify_zero_tolerance_fails(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "checks": ["plancherel"], "tolerances": {"plancherel": 0.0}})
    out = tmp_path / "out"
    assert run("verify", cfg, out) == 1
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["all_pass"] is False


def test_verify_unknown_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"checks": ["nonsense"]})
    assert run("verify", cfg, tmp_path / "out") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_verify_dilation_note(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"checks": ["dilation_commutation"]})
    out = tmp_path / "out"
    assert run("verify", cfg, out) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    [row] = rep["checks"]
    assert "prefactor" in row["note"]


def test_green_check_pass(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": {"num": [[[1.0, 0.0]]],
                   "den": [[[-0.25, 0.0]], [[1.0, 0.0]]], "y_domain": None},
        "delta": 0.0,
        "beta": 0.5,
    })
    out = tmp_path / "out"
    assert run("green-check", cfg, out) == 0
    rep = json.loads((out / "green_report.json").read_text())
    assert rep["pass"] is True
    assert float(rep["agreement"]) <= 1e-7


def test_green_check_fail_exits_1(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": {"num": [[[1.0, 0.0]]],
                   "den": [[[-0.25, 0.0]], [[1.0, 0.0]]], "y_domain": None},
        "delta": 0.0,
        "beta": 0.5,
        "tolerance": 1e-300,
    })
    out = tmp_path / "out"
    assert run("green-check", cfg, out) == 1
    rep = json.loads((out / "green_report.json").read_text())
    assert rep["pass"] is False


def test_threads_flag_is_a_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"checks": ["plancherel"]})
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg, "--out", str(tmp_path / "out"),
              "--threads", "2"])
    assert exc.value.code == 2


def test_green_check_pole_on_line(tmp_path, capsys):
    # pole at 0.5 sits on the weight line of delta = 0
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": {"num": [[[1.0, 0.0]]],
                   "den": [[[-0.5, 0.0]], [[1.0, 0.0]]], "y_domain": None},
        "delta": 0.0,
        "beta": 0.5,
    })
    assert run("green-check", cfg, tmp_path / "out") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PoleOnWeightLine"


def edge_apply_config(tmp_path):
    grid = LogGrid(-15.0, -15.0 + 4096 * DT, 4096)
    tg = TorusGrid(2 * np.pi, 8)
    vals = ((1.0 + 0.5 * np.cos(tg.y))[:, None]
            * (grid.r**2 * np.exp(-grid.r))[None, :])
    u = EdgeField(tg, grid, vals)
    pb, pj = str(tmp_path / "u.bin"), str(tmp_path / "u.json")
    field_to_binary(u, pb, pj)
    return {
        "field": {"bin": pb, "json": pj},
        "operator": {
            "terms": [{"j": 0, "alpha": 0,
                       "f": {"num": [[[1.0, 0.0]]],
                             "den": [[[1.2, 0.0]], [[1.0, 0.0]]],
                             "y_domain": None},
                       "gamma_j": 0.0}],
            "mu": 0.0, "gamma": 0.0,
        },
    }


def test_edge_apply(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", edge_apply_config(tmp_path))
    out = tmp_path / "out"
    assert run("edge-apply", cfg, out) == 0
    assert (out / "out_field.bin").exists()
    sidecar = json.loads((out / "out_field.json").read_text())
    assert sidecar["shape"] == [8, 4096]
    lines = (out / "mode_norms.csv").read_text().splitlines()
    assert lines[0] == "eta,norm"
    assert len(lines) == 9


def _edge_config(tmp_path, y):
    grid = LogGrid(-15.0, -15.0 + 16 * DT, 16)
    tg = TorusGrid(2 * np.pi, 2)
    pb, pj = str(tmp_path / "u.bin"), str(tmp_path / "u.json")
    field_to_binary(EdgeField(tg, grid, np.zeros((2, 16))), pb, pj)
    return {"field": {"bin": pb, "json": pj},
            "operator": {"terms": [], "mu": 0.0, "gamma": 0.0, "y": y}}


def _edge_with_y_dependent(tmp_path, value):
    cfg = _edge_config(tmp_path, 0.0)
    cfg["operator"]["y_dependent"] = value
    return cfg


def _solve_with(section, key, value):
    """The solve config with cfg[section][key] (cfg[key] for section None)
    set to value."""
    cfg = solve_config()
    (cfg if section is None else cfg[section])[key] = value
    return cfg


GREEN_SYMBOL = {"num": [[[1.0, 0.0]]],
                "den": [[[-0.25, 0.0]], [[1.0, 0.0]]], "y_domain": None}


@pytest.mark.parametrize("cmd,make_cfg,named", [
    pytest.param("green-check", lambda tmp: {
        "symbol": GREEN_SYMBOL, "delta": 0.0, "beta": 0.5,
        "tolerance": "abc"}, "tolerance", id="tolerance"),
    pytest.param("solve", lambda tmp: _solve_with(None, "depth", "abc"),
                 "depth", id="depth"),
    pytest.param("solve", lambda tmp: _solve_with(None, "radii", ["x"]),
                 "radii", id="radii-item"),
    pytest.param("solve", lambda tmp: _solve_with(None, "radii", 0.1), "radii",
                 id="radii-scalar"),
    pytest.param("solve", lambda tmp: _solve_with("grid", "dt", "abc"), "grid",
                 id="grid-dt"),
    pytest.param("solve",
                 lambda tmp: _solve_with("cone", "support_radius", "abc"),
                 "cone", id="support-radius"),
    pytest.param("poles", lambda tmp: {
        "symbol": BRANCHING_SYMBOL, "y": {"min": -0.5, "max": 0.5, "n": 5},
        "seed": "abc"}, "seed", id="seed"),
    pytest.param("edge-apply", lambda tmp: _edge_config(tmp, "abc"),
                 "operator", id="operator-y"),
    pytest.param("edge-apply", lambda tmp: _edge_with_y_dependent(tmp, "false"),
                 "operator.y_dependent", id="y-dependent-string"),
    pytest.param("edge-apply", lambda tmp: _edge_with_y_dependent(tmp, 1),
                 "operator.y_dependent", id="y-dependent-int"),
    pytest.param("edge-apply", lambda tmp: _edge_with_y_dependent(tmp, None),
                 "operator.y_dependent", id="y-dependent-null"),
    pytest.param("verify", lambda tmp: {"checks": "plancherel"},
                 "checks must be a list", id="checks-string"),
    pytest.param("verify", lambda tmp: {
        "checks": ["plancherel"], "tolerances": {"plancherel": "abc"}},
        "tolerances.plancherel", id="verify-tolerance"),
])
def test_malformed_number_is_a_config_error(tmp_path, capsys, cmd, make_cfg,
                                            named):
    cfg = write_cfg(tmp_path, "c.json", make_cfg(tmp_path))
    assert run(cmd, cfg, tmp_path / "out") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert named in err["message"]


LOADED_AFTER_EACH_RUN = """
import json, sys
import mellin_edge.cli as cli
loaded = [[m for m in ("sympy", "scipy") if m in sys.modules]]
for cmd, cfg in json.loads(sys.argv[1]):
    assert cli.main([cmd, "--config", cfg, "--out", "out_" + cmd]) == 0, cmd
    loaded.append([m for m in ("sympy", "scipy") if m in sys.modules])
print(json.dumps(loaded))
"""


def test_cli_loads_sympy_and_scipy_only_where_called(tmp_path):
    """Importing the CLI loads neither sympy nor scipy; green-check and
    edge-apply never call them, poles and solve call scipy's assignment
    solver in track_branches but never sympy."""
    edge = edge_apply_config(tmp_path)
    edge["operator"]["y_dependent"] = True
    runs = [
        ("green-check", {"symbol": GREEN_SYMBOL, "delta": 0.0, "beta": 0.5}),
        ("edge-apply", edge),
        ("poles", {"symbol": BRANCHING_SYMBOL,
                   "y": {"min": -0.5, "max": 0.5, "n": 21}}),
        ("solve", solve_config()),
    ]
    args = json.dumps([(cmd, write_cfg(tmp_path, cmd + ".json", cfg))
                       for cmd, cfg in runs])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in sys.path))
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_EACH_RUN, args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [[], [], [], ["scipy"], ["scipy"]]
