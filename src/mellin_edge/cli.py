"""Batch command-line front-end.

Subcommands: poles, solve, verify, green-check, edge-apply.  One JSON
config document per run; CSV/JSON outputs are deterministic (sorted JSON
keys, %.17g floats in CSV, LF line endings).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import cone, edge_ops, edge_spaces, mellin, symbols
from .errors import ConfigError, MellinEdgeError

DT_DEFAULT = np.log(2.0) / 96.0


# ----------------------------------------------------------------------
# config plumbing

def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))


def check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a JSON object" % where)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError("unknown keys in %s: %s"
                          % (where, ", ".join(sorted(unknown))))


def number(kind, value, name):
    """kind(value) for kind float or int, with a malformed value reported as
    a ConfigError naming the config entry."""
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigError("bad %s: %s" % (name, e))


def positive(value, name):
    v = number(float, value, name)
    if not v > 0:
        raise ConfigError("%s must be positive (got %r)" % (name, value))
    return v


def grid_from_config(obj, where="grid"):
    check_keys(obj, {"t_min", "n_points", "dt"}, where)
    try:
        t_min = float(obj["t_min"])
        n = int(obj["n_points"])
        dt = float(obj.get("dt", DT_DEFAULT))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError("bad %s: %s" % (where, e))
    if dt <= 0:
        raise ConfigError("%s.dt must be positive" % where)
    try:
        return mellin.LogGrid(t_min, t_min + n * dt, n)
    except ValueError as e:
        raise ConfigError("bad %s: %s" % (where, e))


def y_grid_from_config(obj, where="y"):
    check_keys(obj, {"min", "max", "n"}, where)
    try:
        lo, hi, n = float(obj["min"]), float(obj["max"]), int(obj["n"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError("bad %s: %s" % (where, e))
    if not (lo < hi and n >= 2):
        raise ConfigError("%s needs min < max and n >= 2" % where)
    return np.linspace(lo, hi, n)


def mero_from_config(obj, where="symbol"):
    check_keys(obj, {"num", "den", "y_domain"}, where)
    try:
        return symbols.symbol_from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError("bad %s: %s" % (where, e))


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# poles

def cmd_poles(cfg, out_dir, seed):
    check_keys(cfg, {"symbol", "y", "seed"}, "config")
    f = mero_from_config(cfg.get("symbol", {}))
    ys = y_grid_from_config(cfg.get("y", {}))
    sd = symbols.track_branches(f, ys, with_laurent=False)
    with open(os.path.join(out_dir, "branches.csv"), "w",
              encoding="utf-8", newline="") as fh:
        symbols.branches_to_csv(sd, fh)
    write_json({"events": ["%.17g" % e for e in sd.collision_events],
                "n_branches": len(sd.branches)},
               os.path.join(out_dir, "events.json"))
    with open(os.path.join(out_dir, "branches.dat"), "w",
              encoding="utf-8") as fh:
        fh.write("# y re_p im_p multiplicity branch_id\n")
        for b in sd.branches:
            for k in b.nodes():
                p, m, _l = b.samples[k]
                fh.write("%.17g %.17g %.17g %d %d\n"
                         % (sd.y_nodes[k], p.real, p.imag, m, b.branch_id))
            fh.write("\n")
    return 0


# ----------------------------------------------------------------------
# solve

def cmd_solve(cfg, out_dir, seed):
    check_keys(cfg, {"cone", "grid", "y", "depth", "radii", "seed"}, "config")
    cn = cfg.get("cone", {})
    check_keys(cn, {"coeffs", "y_domain", "mu", "gamma", "rhs",
                    "support_radius"}, "cone")
    grid = grid_from_config(cfg.get("grid", {}))
    ys = y_grid_from_config(cfg.get("y", {}))
    depth = positive(cfg.get("depth", 1.0), "depth")
    radii = cfg.get("radii", [0.05, 0.1, 0.2])
    if not isinstance(radii, list):
        raise ConfigError("radii must be a list of numbers")
    radii = tuple(number(float, r, "radii") for r in radii)
    try:
        a = symbols.ConormalSymbol.from_json(
            {"coeffs": cn["coeffs"], "y_domain": cn.get("y_domain")})
        mu = int(cn.get("mu", 0))
        gamma = float(cn.get("gamma", 0.0))
        rc = cn.get("rhs", {})
        check_keys(rc, {"a", "b", "amplitude"}, "cone.rhs")
        rhs = cone.bump_rhs(grid, float(rc.get("a", 1.0)),
                            float(rc.get("b", 3.0)),
                            float(rc.get("amplitude", 1.0)))
        sr = cn.get("support_radius")
        sr = None if sr is None else float(sr)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError("bad cone spec: %s" % e)
    problem = cone.ConeProblem(a, mu, gamma, rhs, ys, sr)

    br = cone.detect_branching(problem, depth, radii=radii)
    with open(os.path.join(out_dir, "coefficients.csv"), "w",
              encoding="utf-8") as fh:
        cone.coefficients_to_csv(br.table, fh)

    omega = mellin.CutoffFunction()
    cert = []
    # one solve per y; a row's r is the same for every y, so only re_u and
    # im_u are formatted per row
    r_cols = ["%.17g," % r for r in grid.r.tolist()]
    with open(os.path.join(out_dir, "solution.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("y,r,re_u,im_u\n")
        for y, ex in zip(ys, br.expansions):
            u = cone.solve(problem, y)
            y_col = "%.17g," % y
            fh.writelines("%s%s%.17g,%.17g\n" % (y_col, r_col, re, im)
                          for r_col, re, im in zip(r_cols,
                                                   u.values.real.tolist(),
                                                   u.values.imag.tolist()))
            flat, _sing = cone.split_flat_singular(u, ex, omega, gamma)
            cert.append({"y": "%.17g" % y,
                         "depth_used": "%.17g" % ex.depth_used,
                         "certified_weight": "%.17g" % flat.certified_weight,
                         "mass_ratios": ["%.17g" % v
                                         for v in flat.mass_ratios],
                         "notes": ex.notes})
    write_json({"certification": cert},
               os.path.join(out_dir, "flat_certification.json"))
    write_json({
        "events": ["%.17g" % e for e in br.events],
        "continuity_defect": "%.17g" % br.continuity_defect,
        "type": br.asym_type.to_json(),
    }, os.path.join(out_dir, "branching.json"))
    return 0


# ----------------------------------------------------------------------
# verify

def _check_plancherel(rng, tol):
    grid = mellin.LogGrid(-15.0, -15.0 + 4096 * DT_DEFAULT, 4096)
    worst = 0.0
    for _ in range(20):
        u = cone.random_bump_field(grid, rng)
        for g in (0.0, 0.3, -0.3):
            line = mellin.mellin_transform(u, g)
            d = abs(line.norm() - u.norm(g)) / max(u.norm(g), 1e-300)
            worst = max(worst, d)
    return worst, None


def _check_dilation(rng, tol):
    grid = mellin.LogGrid(-50.0, -50.0 + 8192 * DT_DEFAULT, 8192)
    u = cone.random_bump_field(grid, rng)
    worst = 0.0
    for k in range(10):
        p = -0.9 - 0.25 * k + 0.1j * (k % 3)
        f = symbols.MeromorphicSymbol([np.array([1.0])],
                                      [np.array([-p]), np.array([1.0])])
        for lam in (2.0, 4.0):
            worst = max(worst, mellin.dilation_commutation_defect(
                f, 0.0, u, lam))
    note = ("commutation holds without a dilation prefactor: "
            "M(delta_lambda u)(z) = lambda^{-z} Mu(z) gives "
            "delta_lambda op(f) = op(f) delta_lambda for r-independent f; "
            "a formulation with an extra lambda factor does not match the "
            "computed transforms")
    return worst, note


def _check_homogeneity(rng, tol):
    grid = mellin.LogGrid(-50.0, -50.0 + 8192 * DT_DEFAULT, 8192)
    u = mellin.HalfLineFunction(
        grid, cone.bump_rhs(grid, a=0.02, b=0.2).values)
    f = symbols.MeromorphicSymbol([np.array([1.0])],
                                  [np.array([0.2]), np.array([1.0])])
    m = edge_ops.MellinEdgeSymbol([(1, 1, f, 0.0)], mu=1.0, gamma=0.0,
                                  omega=mellin.CutoffFunction(),
                                  omega_prime=mellin.CutoffFunction())
    worst = 0.0
    for eta in (1.0, 1.5, 3.0):
        for lam in (2.0, 4.0):
            worst = max(worst, edge_ops.twisted_homogeneity_defect(
                m, 0.0, eta, lam, u))
    return worst, None


def _check_green(rng, tol):
    grid = mellin.LogGrid(-30.0, -30.0 + 32768 * DT_DEFAULT, 32768)
    u = mellin.HalfLineFunction(grid, grid.r * np.exp(-grid.r))
    p = 0.25
    f = symbols.MeromorphicSymbol([np.array([1.0])],
                                  [np.array([-p]), np.array([1.0])])
    delta, beta = 0.0, 0.5
    diff, cont = edge_ops.weight_shift_green(f, 0.0, delta, beta, u)
    return edge_ops.green_agreement(diff, cont, delta + beta), None


def _check_adjoint(rng, tol):
    grid = mellin.LogGrid(-50.0, -50.0 + 8192 * DT_DEFAULT, 8192)
    f = symbols.MeromorphicSymbol([np.array([1.0])],
                                  [np.array([0.2]), np.array([1.0])])
    m = edge_ops.MellinEdgeSymbol([(0, 0, f, 0.0)], mu=0.0, gamma=0.0,
                                  omega=mellin.CutoffFunction(),
                                  omega_prime=mellin.CutoffFunction())
    worst = 0.0
    for _ in range(5):
        u = mellin.HalfLineFunction(
            grid, cone.bump_rhs(grid, a=0.02, b=0.2).values
            * rng.uniform(0.5, 2.0))
        v = mellin.HalfLineFunction(
            grid, cone.bump_rhs(grid, a=0.03, b=0.3).values
            * rng.uniform(0.5, 2.0))
        worst = max(worst, edge_ops.adjoint_pairing_defect(
            m, 0.0, 1.5, u, v))
    return worst, None


def _random_edge_field(rng):
    """Random y-profile times r^2 e^{-r} on 8 torus nodes."""
    grid = mellin.LogGrid(-15.0, -15.0 + 4096 * DT_DEFAULT, 4096)
    tg = edge_spaces.TorusGrid(2 * np.pi, 8)
    ay = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return edge_spaces.EdgeField(
        tg, grid, ay[:, None] * (grid.r**2 * np.exp(-grid.r))[None, :])


def _check_edge_w0(rng, tol):
    u = _random_edge_field(rng)
    return (abs(edge_spaces.edge_norm(u, 0.0) - u.l2_norm())
            / u.l2_norm()), None


def _check_edge_roundtrip(rng, tol):
    u = _random_edge_field(rng)
    back = edge_spaces.inverse_potential_op(edge_spaces.potential_op(u))
    d = back.copy(values=back.values - u.values)
    return d.l2_norm() / u.l2_norm(), None


VERIFY_CHECKS = [
    ("plancherel", _check_plancherel, 1e-8),
    ("dilation_commutation", _check_dilation, 1e-8),
    ("twisted_homogeneity", _check_homogeneity, 1e-8),
    ("green_equivalence", _check_green, 1e-7),
    ("adjoint_pairing", _check_adjoint, 1e-8),
    ("edge_w0_is_l2", _check_edge_w0, 1e-10),
    ("edge_potential_roundtrip", _check_edge_roundtrip, 1e-9),
]


def cmd_verify(cfg, out_dir, seed):
    check_keys(cfg, {"checks", "tolerances", "seed"}, "config")
    names = [n for n, _f, _t in VERIFY_CHECKS]
    selected = cfg.get("checks", names)
    if not isinstance(selected, list):
        raise ConfigError("checks must be a list of check names")
    for n in selected:
        if n not in names:
            raise ConfigError("unknown check name %r" % n)
    overrides = cfg.get("tolerances", {})
    check_keys(overrides, set(names), "tolerances")
    report = []
    all_pass = True
    for name, fn, default_tol in VERIFY_CHECKS:
        if name not in selected:
            continue
        tol = number(float, overrides.get(name, default_tol),
                     "tolerances." + name)
        rng = np.random.default_rng(seed)
        defect, note = fn(rng, tol)
        ok = bool(defect <= tol)
        all_pass = all_pass and ok
        row = {"check_name": name, "max_defect": "%.17g" % defect,
               "tolerance": "%.17g" % tol, "pass": ok}
        if note:
            row["note"] = note
        report.append(row)
    write_json({"checks": report, "all_pass": all_pass, "seed": seed},
               os.path.join(out_dir, "verify_report.json"))
    return 0 if all_pass else 1


# ----------------------------------------------------------------------
# green-check

def cmd_green_check(cfg, out_dir, seed):
    check_keys(cfg, {"symbol", "delta", "beta", "grid", "tolerance", "seed"},
               "config")
    f = mero_from_config(cfg.get("symbol", {}))
    try:
        delta = float(cfg["delta"])
        beta = float(cfg["beta"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError("bad delta/beta: %s" % e)
    tol = positive(cfg.get("tolerance", 1e-7), "tolerance")
    grid = grid_from_config(cfg.get(
        "grid", {"t_min": -30.0, "n_points": 32768}))
    u = mellin.HalfLineFunction(grid, grid.r * np.exp(-grid.r))
    diff, cont = edge_ops.weight_shift_green(f, 0.0, delta, beta, u)
    agreement = edge_ops.green_agreement(diff, cont, delta + beta)
    gamma = delta + beta
    ok = bool(agreement <= tol)
    write_json({
        "agreement": "%.17g" % agreement,
        "diff_norm": "%.17g" % diff.norm(gamma),
        "contour_norm": "%.17g" % cont.norm(gamma),
        "tolerance": "%.17g" % tol,
        "pass": ok,
    }, os.path.join(out_dir, "green_report.json"))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# edge-apply

def cmd_edge_apply(cfg, out_dir, seed):
    check_keys(cfg, {"field", "operator", "seed"}, "config")
    fld = cfg.get("field", {})
    check_keys(fld, {"bin", "json"}, "field")
    try:
        u = edge_spaces.field_from_binary(fld["bin"], fld["json"])
    except (KeyError, OSError, ValueError) as e:
        raise ConfigError("bad field spec: %s" % e)
    op = cfg.get("operator", {})
    check_keys(op, {"terms", "mu", "gamma", "y", "y_dependent"}, "operator")
    try:
        terms = []
        for trm in op["terms"]:
            check_keys(trm, {"j", "alpha", "f", "gamma_j"}, "operator.terms")
            terms.append((int(trm["j"]), int(trm["alpha"]),
                          mero_from_config(trm["f"], "operator.terms.f"),
                          float(trm["gamma_j"])))
        m = edge_ops.MellinEdgeSymbol(
            terms, mu=float(op["mu"]), gamma=float(op["gamma"]),
            omega=mellin.CutoffFunction(),
            omega_prime=mellin.CutoffFunction())
        y = float(op.get("y", 0.0))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError("bad operator spec: %s" % e)
    y_dependent = op.get("y_dependent", False)
    if not isinstance(y_dependent, bool):
        raise ConfigError("operator.y_dependent must be true or false (got %r)"
                          % (y_dependent,))
    out = edge_spaces.apply_edge_operator(m, u, y=y, y_dependent=y_dependent)
    edge_spaces.field_to_binary(out, os.path.join(out_dir, "out_field.bin"),
                                os.path.join(out_dir, "out_field.json"))
    with open(os.path.join(out_dir, "mode_norms.csv"), "w",
              encoding="utf-8") as fh:
        edge_spaces.mode_norms_csv(out, fh)
    return 0


# ----------------------------------------------------------------------
# entry point

COMMANDS = {
    "poles": cmd_poles,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "green-check": cmd_green_check,
    "edge-apply": cmd_edge_apply,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mellin-edge",
        description="Mellin/edge symbolic-numeric toolkit (batch runner)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        seed = (args.seed if args.seed is not None
                else number(int, cfg.get("seed", 0), "seed"))
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, seed)
    except MellinEdgeError as e:
        json.dump({"error": type(e).__name__, "message": str(e)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2 if isinstance(e, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
