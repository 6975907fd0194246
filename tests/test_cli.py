"""Batch CLI: subcommands, artifacts, exit codes, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mellin_edge import cli, cone, mellin, symbols
from mellin_edge.cli import main
from mellin_edge.errors import CertificationFailed
from mellin_edge.edge_spaces import EdgeField, TorusGrid, field_to_binary
from mellin_edge.mellin import TAIL_TOL, LogGrid

from conftest import DT, count_pole_searches, make_grid


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


def test_poles_dat_rows_are_csv_rows(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": BRANCHING_SYMBOL,
        "y": {"min": -0.5, "max": 0.5, "n": 21},
    })
    out = tmp_path / "out"
    assert run("poles", cfg, out) == 0
    csv_rows = [line.split(",") for line in
                (out / "branches.csv").read_text().splitlines()[1:]]
    dat = (out / "branches.dat").read_text()
    header, _, body = dat.partition("\n")
    assert header == "# y re_p im_p multiplicity branch_id"
    assert body.endswith("\n\n")
    blocks = [[line.split(" ") for line in block.splitlines()]
              for block in body[:-2].split("\n\n")]
    assert [row for block in blocks for row in block] == csv_rows
    # one block per branch, in id order
    assert [{row[4] for row in block} for block in blocks] \
        == [{str(b)} for b in range(len(blocks))]


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
    problem = cone.ConeProblem(symbols.decode_rows(cfg["cone"]["coeffs"]), 0,
                               0.0, cone.bump_rhs(grid), ys,
                               y_domain=(-0.5, 0.5))
    want = ["y,r,re_u,im_u\n"]
    for y in ys:
        u = cone.solve(problem, y,
                       symbols.locate_poles(problem.inverse_symbol, y))
        for rr, uv in zip(grid.r, u.values):
            want.append("%.17g,%.17g,%.17g,%.17g\n"
                        % (y, rr, uv.real, uv.imag))

    out = tmp_path / "out"
    calls = []
    solve = cone.solve

    def counted(problem, y, poles):
        calls.append((float(y), (out / "coefficients.csv").exists()))
        return solve(problem, y, poles)

    monkeypatch.setattr(cone, "solve", counted)
    assert run("solve", write_cfg(tmp_path, "c.json", cfg), out) == 0
    assert (out / "solution.csv").read_bytes() == "".join(want).encode()
    assert calls == [(float(y), True) for y in ys]


def test_solve_one_pole_search_per_symbol_and_node(tmp_path, monkeypatch):
    """The inverse symbol's record at each y node serves branch tracking,
    the harvest and the solve; the residual pass searches the forward
    symbol once per node: 2 x n_y (symbol, y) rows searched through
    pole_records, none repeated."""
    calls = count_pole_searches(monkeypatch)
    cfg = write_cfg(tmp_path, "c.json", solve_config())
    assert run("solve", cfg, tmp_path / "out") == 0
    assert len(calls) == 2 * 5
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("n_y", [5, 9])
def test_solve_transforms_the_rhs_once_per_run(tmp_path, monkeypatch, n_y):
    """cone transforms the right-hand side once per run and each node's
    solution once, for its residual (n_y + 1 line_transform calls); the
    run reaches no op_mellin."""
    transform = cone.line_transform
    tails = []

    def counted(values, grid, gamma, tail_tol):
        tails.append(tail_tol)
        return transform(values, grid, gamma, tail_tol)

    monkeypatch.setattr(cone, "line_transform", counted)
    op_mellin_code = mellin.op_mellin.__code__
    reached = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is op_mellin_code:
            reached.append(frame.f_code.co_name)

    cfg = write_cfg(tmp_path, "c.json", _solve_with("y", "n", n_y))
    sys.setprofile(profile)
    try:
        status = run("solve", cfg, tmp_path / "out")
    finally:
        sys.setprofile(None)
    assert status == 0
    assert tails == [TAIL_TOL] + [np.inf] * n_y
    assert reached == []


def test_solve_tail_failure_after_complete_coefficients(tmp_path, capsys,
                                                        monkeypatch):
    """A right-hand side that fails the tail check fails the first solve
    with TailTooLarge (exit 3) after coefficients.csv is complete: a run
    with the check waived writes the same file.  No solution.csv.part is
    left."""
    # the bump runs past the grid's right end, r = e^9.15 ~ 9400; small
    # enough that the harvest still certifies
    cfg = write_cfg(tmp_path, "c.json", _solve_with(
        "cone", "rhs", {"a": 5000.0, "b": 12000.0, "amplitude": 1e-3}))
    solve = cone.solve
    solves = []

    def counted(problem, y, poles):
        solves.append(y)
        return solve(problem, y, poles)

    monkeypatch.setattr(cone, "solve", counted)
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TailTooLarge"
    assert len(solves) == 1
    assert os.listdir(out) == ["coefficients.csv"]
    monkeypatch.setattr(cone, "TAIL_TOL", np.inf)
    waived = tmp_path / "waived"
    run("solve", cfg, waived)
    assert (out / "coefficients.csv").read_bytes() == (
        waived / "coefficients.csv").read_bytes()


@pytest.mark.parametrize("coeffs", [[[]], [[[1.0, 0.0]], []],
                                    [[[1.0, 0.0]], [[0.0, 0.0]]]],
                         ids=["empty-entry", "empty-leading", "zero-leading"])
def test_zero_leading_coefficient_is_not_elliptic(tmp_path, capsys, coeffs):
    """An empty coeffs entry is the zero polynomial, so a declared leading
    coefficient that is empty or zero fails the ellipticity check (exit 3)
    before any artifact is written."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.json", _solve_with("cone", "coeffs", coeffs))
    assert run("solve", cfg, out) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "EllipticityViolated",
        "message": "leading coefficient reaches 0.000e+00 (< 1.0e-08) on "
                   "the sample grid"}
    assert os.listdir(out) == []


def test_ragged_symbol_rows_are_zero_padded(tmp_path):
    """num/den rows of different lengths decode as the zero-padded array:
    the README poles config with its den rows cut after their last nonzero
    entry (and the zero z^1 row emptied) writes the same artifacts."""
    ragged = json.loads(json.dumps(BRANCHING_SYMBOL))
    ragged["den"] = [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], [],
                     [[1.0, 0.0]]]
    y = {"min": -0.5, "max": 0.5, "n": 21}
    for name, sym in (("full", BRANCHING_SYMBOL), ("ragged", ragged)):
        cfg = write_cfg(tmp_path, name + ".json", {"symbol": sym, "y": y})
        assert run("poles", cfg, tmp_path / name) == 0
    for name in ("branches.csv", "branches.dat", "events.json"):
        assert ((tmp_path / "full" / name).read_bytes()
                == (tmp_path / "ragged" / name).read_bytes())


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


def test_solve_failure_leaves_no_solution_csv(tmp_path, monkeypatch,
                                             capsys):
    """A numeric failure after some rows were streamed leaves no
    solution.csv and no temporary file; coefficients.csv is complete."""
    split = cone.split_flat_singular
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise CertificationFailed("planted")
        return split(*args, **kwargs)

    monkeypatch.setattr(cone, "split_flat_singular", fail_second)
    out = tmp_path / "out"
    assert run("solve", write_cfg(tmp_path, "c.json", solve_config()),
               out) == 3
    assert json.loads(capsys.readouterr().err)["error"] == \
        "CertificationFailed"
    assert os.listdir(out) == ["coefficients.csv"]


def test_solve_continuity_failure_precedes_any_artifact(tmp_path, capsys,
                                                       monkeypatch):
    """cmd_solve compares the branching pass's continuity defect with
    CONT_TOL: a jump of 2e-4 exits 3 before any artifact is written."""
    detect = cone.detect_branching

    def planted(*args, **kwargs):
        return dataclasses.replace(detect(*args, **kwargs),
                                   continuity_defect=2e-4)

    monkeypatch.setattr(cone, "detect_branching", planted)
    out = tmp_path / "out"
    assert run("solve", write_cfg(tmp_path, "c.json", solve_config()),
               out) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "CertificationFailed",
        "message": "singular part jumps by 2.000e-04 across a collision "
                   "event"}
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


def test_verify_runs_every_check(tmp_path):
    """With no check list verify runs every check on its seeded corpora,
    one row per clause of TOLERANCES, and all of them pass."""
    from mellin_edge import checks

    out = tmp_path / "out"
    assert run("verify", write_cfg(tmp_path, "c.json", {"seed": 3}), out) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert [r["check_name"] for r in rep["checks"]] == list(checks.TOLERANCES)
    assert rep["all_pass"] is True


def test_verify_zero_tolerance_fails(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "checks": ["plancherel"], "tolerances": {"plancherel": 0.0}})
    out = tmp_path / "out"
    assert run("verify", cfg, out) == 1
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["all_pass"] is False


def test_verify_failed_certification_is_a_row(tmp_path, monkeypatch):
    """A convention pair that is not a Green difference (poles 0.8 and 0.7)
    fails its row: verify writes the report and exits 1, and a tolerance
    override governs the row."""
    from mellin_edge import checks

    monkeypatch.setitem(
        checks.VERIFY, "convention_independence",
        lambda rng: checks.convention_independence(
            [(checks._edge(1, 0, 0.8, 1.0), checks._edge(1, 0, 0.7, 1.0, -0.6),
              [1.0, 2.0])], [], checks._deep_bump()))
    for tol, status in ((None, 1), (1.0, 0)):
        cfg = {"checks": ["convention_independence"]}
        if tol is not None:
            cfg["tolerances"] = {"convention_independence": tol}
        out = tmp_path / ("out%s" % tol)
        assert run("verify", write_cfg(tmp_path, "c.json", cfg), out) == status
        [row] = json.loads((out / "verify_report.json").read_text())["checks"]
        assert row["check_name"] == "convention_independence"
        assert 1e-7 < float(row["max_defect"]) < 1.0
        assert row["pass"] is (status == 0)


def test_verify_unknown_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"checks": ["nonsense"]})
    assert run("verify", cfg, tmp_path / "out") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_readme_lists_the_verify_checks(tmp_path, capsys, monkeypatch):
    """The README's verify bullet names each check of mellin_edge.checks
    once, and a list with an unknown name exits 2 before any check runs."""
    from mellin_edge import checks

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    bullet = readme.split("- **verify**")[1].split("- **green-check**")[0]
    assert re.findall(r"^  - `(\w+)`", bullet, re.M) == list(checks.VERIFY)
    for name in checks.VERIFY:
        monkeypatch.setitem(checks.VERIFY, name, None)   # not callable
    cfg = write_cfg(tmp_path, "c.json", {"checks": ["plancherel", "nonsense"]})
    assert run("verify", cfg, tmp_path / "out") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "out" / "verify_report.json").exists()


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


def test_edge_apply_rejects_a_q2_field(tmp_path, capsys):
    # the operator action is implemented for q = 1; a q = 2 field on a
    # 4 x 4 torus grid is a config error, found before any transform
    grid = LogGrid(-15.0, -15.0 + 16 * DT, 16)
    tg = TorusGrid(2 * np.pi, 4)
    cfg = edge_apply_config(tmp_path)
    field_to_binary(EdgeField([tg, tg], grid, np.ones((4, 4, 16))),
                    cfg["field"]["bin"], cfg["field"]["json"])
    assert run("edge-apply", write_cfg(tmp_path, "c.json", cfg),
               tmp_path / "out") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "q = 2" in err["message"]
    assert not (tmp_path / "out" / "out_field.bin").exists()


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


def _poles_with(den00=0.0, y_max=0.5, y_domain=(-0.5, 0.5)):
    """The README poles config with the z^0 y^0 coefficient of den, y.max
    and the symbol's y_domain replaced (JSON's NaN and Infinity are
    accepted on reading)."""
    sym = json.loads(json.dumps(BRANCHING_SYMBOL))
    sym["den"][0][0] = [den00, 0.0]
    sym["y_domain"] = y_domain
    return {"symbol": sym, "y": {"min": -0.5, "max": y_max, "n": 5}}


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
    pytest.param("solve", lambda tmp: _solve_with(None, "radii", []), "radii",
                 id="radii-empty"),
    pytest.param("solve", lambda tmp: _solve_with(None, "radii", [-0.05, 0.1]),
                 "radii", id="radii-negative"),
    pytest.param("solve", lambda tmp: _solve_with(None, "radii", [0.05, "nan"]),
                 "radii", id="radii-nan"),
    pytest.param("solve", lambda tmp: _solve_with(None, "radii", ["inf"]),
                 "radii", id="radii-inf"),
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
    pytest.param("green-check", lambda tmp: {
        "symbol": GREEN_SYMBOL, "delta": 0.0, "beta": 0.0}, "beta",
        id="beta-zero"),
    pytest.param("green-check", lambda tmp: {
        "symbol": GREEN_SYMBOL, "delta": 0.0, "beta": -0.5}, "beta",
        id="beta-negative"),
    pytest.param("poles", lambda tmp: _poles_with(den00=float("nan")),
                 "symbol", id="den-nan"),
    pytest.param("poles", lambda tmp: _poles_with(den00=float("inf")),
                 "symbol", id="den-inf"),
    pytest.param("poles", lambda tmp: _poles_with(y_max=float("inf")), "y",
                 id="y-max-inf"),
    pytest.param("solve", lambda tmp: _solve_with("cone", "y_domain", [0.0]),
                 "y_domain", id="cone-y-domain-one-number"),
    pytest.param("solve", lambda tmp: _solve_with(
        "cone", "y_domain", [-0.5, float("inf")]), "y_domain",
        id="cone-y-domain-inf"),
    pytest.param("solve", lambda tmp: _solve_with(
        "cone", "y_domain", [0.5, -0.5]), "y_domain", id="cone-y-domain-lo-hi"),
    pytest.param("poles", lambda tmp: _poles_with(y_domain=[0.0]), "y_domain",
                 id="symbol-y-domain-one-number"),
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
    """Importing the CLI loads neither sympy nor scipy, and no subcommand
    loads either: green-check and edge-apply never call them, and poles and
    solve match poles across nodes in symbols, on numpy alone."""
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
    assert json.loads(proc.stdout) == [[], [], [], [], []]


def test_csv_artifacts_equal_a_per_element_writer(tmp_path):
    """poles on the README config and a small solve (N = 1024, 3 y nodes):
    the CSV artifacts equal rows written one '%.17g' / '%d' at a time from
    the same in-memory results."""
    pcfg = {"symbol": BRANCHING_SYMBOL,
            "y": {"min": -0.5, "max": 0.5, "n": 21}}
    out = tmp_path / "poles"
    assert run("poles", write_cfg(tmp_path, "p.json", pcfg), out) == 0
    sd = symbols.track_branches(cli.mero_from_config(pcfg["symbol"]),
                                cli.y_grid_from_config(pcfg["y"]))
    lines = {}                  # per branch, nodes ascending
    for y, rec, ids in zip(sd.y_nodes, sd.poles, sd.branch_ids):
        for (p, m), b in zip(rec.pairs, ids):
            lines.setdefault(b, []).append("%.17g %.17g %.17g %d %d\n" % (
                y, p.real, p.imag, m, b))
    assert (out / "branches.csv").read_text() == \
        "y,Re p,Im p,multiplicity,branch_id\n" + "".join(
            line.replace(" ", ",") for b in sorted(lines) for line in lines[b])
    assert (out / "branches.dat").read_text() == \
        "# y re_p im_p multiplicity branch_id\n" + "".join(
            "".join(lines[b]) + "\n" for b in sorted(lines))

    scfg = solve_config()
    scfg["grid"] = {"t_min": -6.0, "n_points": 1024}
    scfg["y"]["n"] = 3
    out = tmp_path / "solve"
    assert run("solve", write_cfg(tmp_path, "s.json", scfg), out) == 0
    grid = cli.grid_from_config(scfg["grid"])
    ys = cli.y_grid_from_config(scfg["y"])
    problem = cone.ConeProblem(
        symbols.decode_rows(scfg["cone"]["coeffs"]), 0, 0.0,
        cone.bump_rhs(grid, 1.0, 3.0, 1.0), ys, y_domain=(-0.5, 0.5))
    br = cone.detect_branching(problem, 0.75, radii=(0.05, 0.1, 0.2))
    assert (out / "coefficients.csv").read_text() == \
        "y,re_p,im_p,k,re_c,im_c,branch_id\n" + "".join(
            "%.17g,%.17g,%.17g,%d,%.17g,%.17g,%d\n"
            % (y, p.real, p.imag, k, c.real, c.imag, bid)
            for y, p, k, c, bid in br.table)
    rows = ["y,r,re_u,im_u\n"]
    for y, poles in zip(ys, br.poles):
        u = cone.solve(problem, y, poles).values
        rows += ["%.17g,%.17g,%.17g,%.17g\n" % row for row in zip(
            [y] * len(u), grid.r.tolist(), u.real.tolist(), u.imag.tolist())]
    assert (out / "solution.csv").read_text() == "".join(rows)
    assert len(rows) == 1 + 3 * 1024


def test_cli_import_builds_no_power_table():
    """setup_s stays import time alone: importing the CLI loads neither
    fractions nor decimal, and the '%.17g' tables are built on the first
    CSV write, not at import."""
    code = ("import json, sys; import mellin_edge.cli; "
            "from mellin_edge import kernels; print(json.dumps("
            "[[m for m in ('fractions', 'decimal') if m in sys.modules], "
            "kernels._g17_tables.cache_info().currsize]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [[], 0]
