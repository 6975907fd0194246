"""Seeded inputs and output checks for the four benchmark workloads.

Input ``i`` of a workload is drawn from ``numpy.random.default_rng([seed,
workload id, i])``, so it depends only on the seed and its index, never on
how many inputs a run generates.  Each input directory holds what the CLI
reads (``config.json``, plus the field files for edge-apply) and a
``spec.json`` with the drawn parameters, from which the checks rebuild
their oracles after the timed loop.

A check returns a list of failure messages, each starting with the name of
the check that failed; an empty list means the output is correct.
"""

import csv
import json
import math
import os
from collections import namedtuple

import numpy as np

DT = math.log(2.0) / 96.0          # the CLI's default log-grid step

# keep: the artifacts the check reads; a loop invocation's other artifacts
# are deleted once it is timed, to bound disk use
Workload = namedtuple("Workload",
                      "wid subcommand params nominal_s keep why make check")


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _enc(c):
    return [float(np.real(c)), float(np.imag(c))]


def _poly2_mul(a, b):
    """Product of polynomials in (z, y) stored as [z-power][y-power] arrays."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                   dtype=complex)
    for i in range(a.shape[0]):
        for k in range(a.shape[1]):
            out[i:i + b.shape[0], k:k + b.shape[1]] += a[i, k] * b
    return out


def _symbol_json(den, y_domain=None):
    """CLI symbol 1/den with den a [z-power][y-power] coefficient array."""
    return {"num": [[[1.0, 0.0]]],
            "den": [[_enc(c) for c in row] for row in den],
            "y_domain": y_domain}


def _match(expected, got):
    """Greedy nearest matching; returns the worst error, inf on a size mismatch."""
    if len(expected) != len(got):
        return math.inf
    free = list(got)
    worst = 0.0
    for e in expected:
        j = min(range(len(free)), key=lambda i: abs(free[i] - e))
        worst = max(worst, abs(free[j] - e) / max(1.0, abs(e)))
        free.pop(j)
    return worst


# ----------------------------------------------------------------------
# poles_track: `poles` on four linear branches with planted crossings

POLES = {"y_min": -0.5, "y_max": 0.5, "y_nodes": 1001, "branches": 4,
         "crossings": 2}
POLE_TOL = 1e-9


def _y_nodes(p):
    return np.linspace(p["y_min"], p["y_max"], p["y_nodes"])


def make_poles(rng, in_dir):
    """Two pairs of branches p_i(y) = a_i + b_i y.  The pairs sit at
    distinct imaginary parts, so only the two branches of a pair meet, and
    each pair crosses once, on a drawn grid node.  The two crossing nodes
    are at least 3 nodes apart, because the CLI reports a collision where
    the multiplicity pattern changes and two adjacent one-node merges give
    the same pattern."""
    ys = _y_nodes(POLES)
    n = len(ys)
    k_a = int(rng.integers(50, n - 50))
    k_b = int(rng.choice([k for k in range(50, n - 50) if abs(k - k_a) >= 3]))
    a, b = [], []
    for k, im in ((k_a, rng.uniform(-1.0, -0.25)), (k_b, rng.uniform(0.25, 1.0))):
        x = rng.uniform(-1.0, 1.0)
        for s in (rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)):
            a.append(complex(x - s * ys[k], im))
            b.append(complex(s, 0.0))
    den = np.ones((1, 1), dtype=complex)
    for ai, bi in zip(a, b):
        den = _poly2_mul(den, np.array([[-ai, -bi], [1.0, 0.0]]))
    cfg = {"symbol": _symbol_json(den, [POLES["y_min"], POLES["y_max"]]),
           "y": {"min": POLES["y_min"], "max": POLES["y_max"],
                 "n": POLES["y_nodes"]}}
    _write_json(cfg, os.path.join(in_dir, "config.json"))
    return {"a": [_enc(c) for c in a], "b": [_enc(c) for c in b],
            "crossings": sorted([k_a, k_b])}


def check_poles(spec, in_dir, out_dir, index):
    ys = _y_nodes(POLES)
    a = np.array([complex(*c) for c in spec["a"]])
    b = np.array([complex(*c) for c in spec["b"]])
    got = {}
    with open(os.path.join(out_dir, "branches.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            p = complex(float(row["Re p"]), float(row["Im p"]))
            got.setdefault(row["y"], []).extend([p] * int(row["multiplicity"]))
    fails = []
    for k, y in enumerate(ys):
        err = _match(list(a + b * y), got.get("%.17g" % y, []))
        if not err <= POLE_TOL:
            fails.append("poles_track.positions: node %d (y=%.17g) error %.3e"
                         % (k, y, err))
            break
    events = _read_json(os.path.join(out_dir, "events.json"))["events"]
    planted = ["%.17g" % ys[k] for k in spec["crossings"]]
    if sorted(events) != sorted(planted):
        fails.append("poles_track.events: got %s, planted %s" % (events, planted))
    return fails


# ----------------------------------------------------------------------
# cone_solve: `solve` on the branching cone a = z^2 - y^2

CONE = {"n_points": 8192, "t_min": -50.0, "y_min": -0.004, "y_max": 0.004,
        "y_nodes": 9, "depth": 0.75}
CONE_TOL_SIMPLE = 1e-8     # acceptance check 6, simple poles p = +-y
CONE_TOL_DOUBLE = 1e-7     # acceptance check 6, the double pole at y = 0


def make_cone(rng, in_dir):
    a = rng.uniform(0.5, 1.5)
    rhs = {"a": a, "b": a + rng.uniform(1.0, 3.0),
           "amplitude": rng.uniform(0.5, 2.0)}
    cfg = {"cone": {"coeffs": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                               [[0.0, 0.0]], [[1.0, 0.0]]],
                    "y_domain": [-0.5, 0.5], "mu": 0, "gamma": 0.0,
                    "rhs": rhs},
           "grid": {"t_min": CONE["t_min"], "n_points": CONE["n_points"]},
           "y": {"min": CONE["y_min"], "max": CONE["y_max"],
                 "n": CONE["y_nodes"]},
           "depth": CONE["depth"],
           "radii": [0.05, 0.1, 0.2]}
    _write_json(cfg, os.path.join(in_dir, "config.json"))
    return {"rhs": rhs}


def bump_mellin(rhs, p, derivative=0):
    """int_0^inf r^{p-1} log^d(r) f(r) dr for the CLI's bump rhs, by quad."""
    from scipy.integrate import quad

    a, b, amp = rhs["a"], rhs["b"], rhs["amplitude"]

    def integrand(r):
        x = (r - a) / (b - a)
        if not 0.0 < x < 1.0:
            return 0.0
        return (amp * math.exp(-1.0 / (x * (1.0 - x)) + 4.0)
                * r ** (p - 1.0) * math.log(r) ** derivative)

    val, _err = quad(integrand, a, b, epsabs=0.0, epsrel=1e-11, limit=200)
    return val


def check_cone(spec, in_dir, out_dir, index):
    """Harvested coefficients against M f(p)/(2p) at p = +-y, and at y = 0
    against the log coefficient -M f(0) and the constant (M f)'(0)."""
    rows = {}
    with open(os.path.join(out_dir, "coefficients.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["y"], []).append(
                (complex(float(row["re_p"]), float(row["im_p"])), int(row["k"]),
                 complex(float(row["re_c"]), float(row["im_c"]))))
    rhs = spec["rhs"]
    fails = []
    ys = np.linspace(CONE["y_min"], CONE["y_max"], CONE["y_nodes"])
    for y in ys:
        got = sorted(rows.get("%.17g" % y, []), key=lambda t: (t[0].real, t[1]))
        if y == 0.0:
            want = [(0.0, 0, bump_mellin(rhs, 0.0, 1)),
                    (0.0, 1, -bump_mellin(rhs, 0.0))]
            tol = CONE_TOL_DOUBLE
        else:
            want = [(p, 0, bump_mellin(rhs, p) / (2.0 * p))
                    for p in sorted((-abs(y), abs(y)))]
            tol = CONE_TOL_SIMPLE
        ok = len(got) == len(want) and all(
            gk == wk and abs(gp - wp) <= 1e-12
            and abs(gc - wc) <= tol * max(1.0, abs(wc))
            for (gp, gk, gc), (wp, wk, wc) in zip(got, want))
        if not ok:
            fails.append("cone_solve.coefficients: y=%.17g got %s, oracle %s"
                         % (y, got, want))
    return fails


# ----------------------------------------------------------------------
# green_oracle: `green-check` at the default grid N = 32768

GREEN = {"n_points": 32768, "t_min": -30.0, "delta": 0.0, "beta": 0.5,
         "poles_in_strip": 1, "multiplicity": [1, 2]}


def make_green(rng, in_dir):
    """One pole of drawn multiplicity 1 or 2 inside the strip 0 < Re p < 1/2
    that the weight shift crosses, and one simple pole left of it."""
    p_in = complex(rng.uniform(0.15, 0.35), rng.uniform(-0.3, 0.3))
    mult = int(rng.integers(1, 3))
    p_out = complex(rng.uniform(-1.5, -0.5), rng.uniform(-0.5, 0.5))
    den = np.array([1.0 + 0j])
    for p in [p_in] * mult + [p_out]:
        den = np.convolve(den, [-p, 1.0])            # ascending powers of z
    cfg = {"symbol": _symbol_json(den[:, None]),
           "delta": GREEN["delta"], "beta": GREEN["beta"]}
    _write_json(cfg, os.path.join(in_dir, "config.json"))
    return {"p_in": _enc(p_in), "multiplicity": mult, "p_out": _enc(p_out)}


def check_green(spec, in_dir, out_dir, index):
    rep = _read_json(os.path.join(out_dir, "green_report.json"))
    if rep.get("pass") is not True:
        return ["green_oracle.pass: agreement %s > tolerance %s"
                % (rep.get("agreement"), rep.get("tolerance"))]
    return []


# ----------------------------------------------------------------------
# edge_apply: `edge-apply` with a y-dependent symbol on a 16-mode field

EDGE = {"modes": 16, "n_points": 4096, "t_min": -15.0, "y_dependent": True,
        "symbol": "1/(z + 1.2 + 0.3y)", "field_dtype": "complex64"}
EDGE_DEN = np.array([[1.2, 0.3], [1.0, 0.0]])        # [z-power][y-power]
EDGE_TOL = 1e-6            # complex64 output: ~6e-8 relative rounding


def _edge_sidecar():
    n = EDGE["n_points"]
    return {"y_grids": [{"length": 2 * math.pi, "n_points": EDGE["modes"]}],
            "r_grid": {"t_min": EDGE["t_min"], "t_max": EDGE["t_min"] + n * DT,
                       "n_points": n},
            "s": 0.0, "gamma": 0.0, "shape": [EDGE["modes"], n],
            "dtype": "complex64", "order": "C"}


def _read_c64(path):
    with open(path, "rb") as fh:
        arr = np.frombuffer(fh.read(), dtype=np.complex64)
    return arr.reshape(EDGE["modes"], EDGE["n_points"]).astype(complex)


def make_edge(rng, in_dir):
    """Mode k carries c_k r^alpha_k e^{-beta_k r}.  alpha_k >= 1.5 keeps the
    weighted left-end samples below the 1e-10 tail tolerance of op_mellin."""
    n, nm = EDGE["n_points"], EDGE["modes"]
    t = EDGE["t_min"] + DT * np.arange(n)
    r = np.exp(t)
    c = (rng.standard_normal(nm) + 1j * rng.standard_normal(nm))
    alpha = rng.uniform(1.5, 3.0, nm)
    beta = rng.uniform(0.5, 2.0, nm)
    modes = c[:, None] * r[None, :] ** alpha[:, None] * np.exp(
        -beta[:, None] * r[None, :])
    values = np.fft.ifft(modes * nm, axis=0).astype(np.complex64)
    bin_path = os.path.join(in_dir, "u.bin")
    with open(bin_path, "wb") as fh:
        fh.write(values.tobytes(order="C"))
    _write_json(_edge_sidecar(), os.path.join(in_dir, "u.json"))
    cfg = {"field": {"bin": bin_path, "json": os.path.join(in_dir, "u.json")},
           "operator": {"terms": [{"j": 0, "alpha": 0,
                                   "f": _symbol_json(EDGE_DEN),
                                   "gamma_j": 0.0}],
                        "mu": 0.0, "gamma": 0.0,
                        "y_dependent": EDGE["y_dependent"]}}
    _write_json(cfg, os.path.join(in_dir, "config.json"))
    return {"c": [_enc(v) for v in c], "alpha": alpha.tolist(),
            "beta": beta.tolist()}


def check_edge(spec, in_dir, out_dir, index):
    """One output row y_j (drawn from the input index) against the left
    quantization sum_k e^{i y_j eta_k} omega op_M(f)(y_j) omega' u-hat_k,
    built from per-mode op_mellin calls; mode_norms.csv against the
    written field."""
    from mellin_edge.edge_ops import eta_bracket
    from mellin_edge.mellin import (CutoffFunction, HalfLineFunction, LogGrid,
                                    op_mellin)
    from mellin_edge.symbols import MeromorphicSymbol

    nm = EDGE["modes"]
    sc = _edge_sidecar()
    out_sc = _read_json(os.path.join(out_dir, "out_field.json"))
    fails = []
    if out_sc["shape"] != sc["shape"] or out_sc["r_grid"] != sc["r_grid"]:
        fails.append("edge_apply.sidecar: %s" % out_sc)
        return fails
    grid = LogGrid(sc["r_grid"]["t_min"], sc["r_grid"]["t_max"], EDGE["n_points"])
    modes = np.fft.fft(_read_c64(os.path.join(in_dir, "u.bin")), axis=0) / nm
    out = _read_c64(os.path.join(out_dir, "out_field.bin"))
    f = MeromorphicSymbol(np.ones((1, 1)), EDGE_DEN.astype(complex),
                          reduce=False)
    omega = CutoffFunction()
    etas = 2 * np.pi * np.fft.fftfreq(nm, d=2 * np.pi / nm)
    j = index % nm
    yj = j * 2 * np.pi / nm
    ref = np.zeros(EDGE["n_points"], dtype=complex)
    for k in range(nm):
        w = omega(grid.r * eta_bracket(etas[k]))
        a = op_mellin(f, yj, 0.0, HalfLineFunction(grid, w * modes[k]))
        ref += np.exp(1j * yj * etas[k]) * w * a.values
    err = np.max(np.abs(out[j] - ref)) / max(np.max(np.abs(ref)), 1e-300)
    if not err <= EDGE_TOL:
        fails.append("edge_apply.mode_reference: row %d error %.3e" % (j, err))
    norms = np.sqrt(grid.dt * np.sum(np.abs(np.fft.fft(out, axis=0) / nm) ** 2
                                     * grid.r, axis=1))
    want = sorted(zip(np.abs(etas), norms))
    with open(os.path.join(out_dir, "mode_norms.csv"), encoding="utf-8") as fh:
        got = [(float(r["eta"]), float(r["norm"])) for r in csv.DictReader(fh)]
    if len(got) != nm or any(
            abs(ge - we) > 1e-12 * max(1.0, we)
            or abs(gn - wn) > 1e-5 * max(norms.max(), 1e-300)
            for (ge, gn), (we, wn) in zip(got, want)):
        fails.append("edge_apply.mode_norms: csv disagrees with out_field.bin")
    return fails


WORKLOADS = {
    "poles_track": Workload(
        1, "poles", POLES, 0.23, ("branches.csv", "events.json"),
        "symbol layer alone: np.roots, clustering, Hungarian matching, CSV "
        "output; no FFT, no contour quadrature",
        make_poles, check_poles),
    "cone_solve": Workload(
        2, "solve", CONE, 0.59, ("coefficients.csv",),
        "the only run of the cone, functionals and asym_types layers; "
        "mostly CLI artifact formatting; each y solved twice",
        make_cone, check_cone),
    "green_oracle": Workload(
        3, "green-check", GREEN, 0.75, ("green_report.json",),
        "contour oracle: mellin_eval and the dense exp(-t z) product; FFT "
        "path about 2 %",
        make_green, check_green),
    "edge_apply": Workload(
        4, "edge-apply", EDGE, 0.40,
        ("out_field.bin", "out_field.json", "mode_norms.csv"),
        "256 small op_mellin calls per invocation: FFT layer, per-call "
        "overhead and field I/O",
        make_edge, check_edge),
}


def generate(name, seed, index, in_dir):
    """Write input `index` of workload `name` into in_dir; return its spec."""
    w = WORKLOADS[name]
    os.makedirs(in_dir, exist_ok=True)
    spec = w.make(np.random.default_rng([seed, w.wid, index]), in_dir)
    _write_json(spec, os.path.join(in_dir, "spec.json"))
    return spec


def check(name, in_dir, out_dir, index):
    """Failure messages for one invocation's artifacts (empty when correct)."""
    try:
        spec = _read_json(os.path.join(in_dir, "spec.json"))
        return WORKLOADS[name].check(spec, in_dir, out_dir, index)
    except Exception as e:     # a check that cannot read the output fails it
        return ["%s.artifacts: %s: %s" % (name, type(e).__name__, e)]
