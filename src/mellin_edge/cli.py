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

from . import cone, edge_ops, edge_spaces, kernels, mellin, symbols
from .errors import CertificationFailed, ConfigError, MellinEdgeError


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
        dt = float(obj.get("dt", mellin.DT))
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
    if not (-np.inf < lo < hi < np.inf and n >= 2):
        raise ConfigError("%s needs finite min < max and n >= 2" % where)
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
    sd = symbols.track_branches(f, ys)
    # rows by branch, then node: a stable sort of the node-major poles;
    # each node's y is formatted once and its planes gathered per row
    bs = np.array([b for ids in sd.branch_ids for b in ids], dtype=np.int64)
    order = np.argsort(bs, kind="stable")
    bs = bs[order]
    ks = np.repeat(np.arange(len(ys)),
                   [len(ids) for ids in sd.branch_ids])[order]
    pairs = [pm for rec in sd.poles for pm in rec.pairs]
    p = np.array([pm[0] for pm in pairs], dtype=complex)[order]
    m = np.array([pm[1] for pm in pairs], dtype=np.int64)[order]
    y = kernels.g17_field(ys)[:, ks]
    data = b"".join(kernels.csv_rows([y, p.real, p.imag, m, bs]))
    with open(os.path.join(out_dir, "branches.csv"), "wb") as fh:
        fh.write(b"y,Re p,Im p,multiplicity,branch_id\n")
        fh.write(data)
    write_json({"events": ["%.17g" % e for e in sd.collision_events],
                "n_branches": sd.n_branches},
               os.path.join(out_dir, "events.json"))
    # branches.dat: the same rows space-separated, a blank line after each
    # branch
    data = data.replace(b",", b" ")
    ends = 1 + np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10)
    cuts = [0] + ends[np.flatnonzero(np.diff(bs, append=-1))].tolist()
    with open(os.path.join(out_dir, "branches.dat"), "wb") as fh:
        fh.write(b"# y re_p im_p multiplicity branch_id\n")
        fh.writelines(data[a:b] + b"\n" for a, b in zip(cuts, cuts[1:]))
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
    if not radii or not all(0 < r < np.inf for r in radii):
        raise ConfigError("radii must be finite and positive, at least one "
                          "(got %r)" % (list(radii),))
    try:
        # a_j(y) = coeffs[j], rows zero-padded like a symbol's num and den
        coeffs = symbols.decode_rows(cn["coeffs"])
        if not cn["coeffs"]:
            raise ValueError("need at least one coefficient")
        dom = symbols.decode_domain(cn.get("y_domain"))
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
    problem = cone.ConeProblem(coeffs, mu, gamma, rhs, ys, sr, dom)

    br = cone.detect_branching(problem, depth, radii=radii)
    # a nan jump fails too
    if not br.continuity_defect <= cone.CONT_TOL:
        raise CertificationFailed(
            "singular part jumps by %.3e across a collision event"
            % br.continuity_defect)
    with open(os.path.join(out_dir, "coefficients.csv"), "wb") as fh:
        fh.write(b"y,re_p,im_p,k,re_c,im_c,branch_id\n")
        if br.table:
            y, p, k, c, bid = (np.array(col) for col in zip(*br.table))
            fh.writelines(kernels.csv_rows(
                [y, p.real, p.imag, k, c.real, c.imag, bid]))

    omega = mellin.CutoffFunction()
    cert = []
    # one solve per y, rows streamed to a temporary name that becomes
    # solution.csv when complete; r is formatted once per call, y once
    # per node
    r_col = kernels.g17_field(grid.r)
    path = os.path.join(out_dir, "solution.csv")
    part = path + ".part"
    with open(part, "wb") as fh:
        try:
            fh.write(b"y,r,re_u,im_u\n")
            for y, ex, poles in zip(ys, br.expansions, br.poles):
                u = cone.solve(problem, y, poles)
                fh.writelines(kernels.csv_rows([kernels.g17_field([y]), r_col,
                                                u.values.real, u.values.imag]))
                flat, _sing = cone.split_flat_singular(u, ex, omega, gamma)
                cert.append({"y": "%.17g" % y,
                             "depth_used": "%.17g" % ex.depth_used,
                             "certified_weight":
                                 "%.17g" % flat.certified_weight,
                             "mass_ratios": ["%.17g" % v
                                             for v in flat.mass_ratios],
                             "notes": ex.notes})
        except BaseException:
            os.remove(part)
            raise
    os.replace(part, path)
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

def cmd_verify(cfg, out_dir, seed):
    from . import checks        # loaded by verify alone

    check_keys(cfg, {"checks", "tolerances", "seed"}, "config")
    names = list(checks.VERIFY)
    selected = cfg.get("checks", names)
    if not isinstance(selected, list):
        raise ConfigError("checks must be a list of check names")
    for n in selected:
        if n not in names:
            raise ConfigError("unknown check name %r" % n)
    overrides = cfg.get("tolerances", {})
    check_keys(overrides, set(checks.TOLERANCES), "tolerances")
    overrides = {k: number(float, v, "tolerances." + k)
                 for k, v in overrides.items()}
    report = []
    for name in names:
        if name not in selected:
            continue
        for row_name, defect, tol in checks.VERIFY[name](
                np.random.default_rng(seed)):
            tol = overrides.get(row_name, tol)
            row = {"check_name": row_name, "max_defect": "%.17g" % defect,
                   "tolerance": "%.17g" % tol, "pass": bool(defect <= tol)}
            if row_name in checks.NOTES:
                row["note"] = checks.NOTES[row_name]
            report.append(row)
    all_pass = all(row["pass"] for row in report)
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
    beta = positive(beta, "beta")
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
    if u.q != 1:
        raise ConfigError("edge-apply takes a field with q = 1 (got q = %d)"
                          % u.q)
    op = cfg.get("operator", {})
    check_keys(op, {"terms", "mu", "gamma", "y", "y_dependent"}, "operator")
    try:
        terms = []
        for trm in op["terms"]:
            check_keys(trm, {"j", "alpha", "f", "gamma_j"}, "operator.terms")
            terms.append((int(trm["j"]), int(trm["alpha"]),
                          mero_from_config(trm["f"], "operator.terms.f"),
                          float(trm["gamma_j"])))
        m = edge_ops.MellinEdgeSymbol(terms, mu=float(op["mu"]),
                                      gamma=float(op["gamma"]))
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
    g = out.r_grid
    norms = np.sqrt(g.dt * np.sum(np.abs(out.modes()) ** 2 * g.r,
                                  axis=-1)).ravel()
    etas = out.mode_etas().ravel()
    order = np.lexsort((norms, etas))
    with open(os.path.join(out_dir, "mode_norms.csv"), "wb") as fh:
        fh.write(b"eta,norm\n")
        fh.writelines(kernels.csv_rows([etas[order], norms[order]]))
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
