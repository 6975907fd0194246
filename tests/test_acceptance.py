"""End-to-end acceptance suite: the eleven numbered checks of
`mellin_edge.checks` on this suite's own corpora and independent oracles,
each clause at its pinned tolerance, with runtime budgets."""

import json
import time

import numpy as np
from scipy.special import gamma

from mellin_edge import checks
from mellin_edge.asym_types import AsymptoticType, WeightData, shadow_closure
from mellin_edge.cli import main as cli_main
from mellin_edge.edge_ops import GreenSymbolFiniteRank, MellinEdgeSymbol
from mellin_edge.edge_ops import eta_bracket
from mellin_edge.edge_spaces import EdgeField, TorusGrid
from mellin_edge.functionals import AnalyticFunctional
from mellin_edge.mellin import CutoffFunction, HalfLineFunction
from mellin_edge.symbols import invert_symbol

from conftest import (bump, bump_callable, double_pole, make_grid, quad_mellin,
                      random_bump_field, simple_pole)


def holds(rows, **tolerances):
    """The rows are the named clauses, each defect within its tolerance."""
    assert sorted(name for name, _d, _t in rows) == sorted(tolerances)
    for name, defect, _tol in rows:
        assert defect <= tolerances[name], (name, defect)


def edge_symbol(j, alpha, f, gamma_j, mu, **cutoffs):
    return MellinEdgeSymbol([(j, alpha, f, gamma_j)], mu=mu, gamma=0.0,
                            **cutoffs)


# ----------------------------------------------------------------------
# 1. Plancherel isometry

def test_acceptance_plancherel():
    t0 = time.monotonic()
    grid = make_grid(-15.0, 4096)
    rng = np.random.default_rng(11)
    fields = [random_bump_field(grid, rng) for _ in range(20)]
    holds(checks.plancherel(fields), plancherel=1e-8)
    assert time.monotonic() - t0 < 5.0


# ----------------------------------------------------------------------
# 2. Gamma-function oracle on the central weight line

def test_acceptance_gamma_oracle(grid_deep):
    t0 = time.monotonic()
    line = [(tau, complex(gamma(0.5 + 1j * tau)))
            for tau in (-5.0, -3.5, -2.0, -1.0, -0.25, 0.25, 1.0, 2.0, 3.5,
                        5.0)]
    holds(checks.gamma_oracle(grid_deep, line), gamma_oracle=1e-6)
    assert time.monotonic() - t0 < 5.0


def test_acceptance_checks_fail_against_wrong_oracles(grid_deep):
    # negative control: oracle values 1e-4 off fail their rows
    [(_n, d, tol)] = checks.gamma_oracle(grid_deep, [
        (tau, 1.0001 * g) for tau, g in checks.GAMMA_LINE])
    assert d > tol
    rows = checks.branching_benchmark(
        grid_deep, [0.25, -0.25], {p: 1.0001 * v for p, v in
                                   checks.BUMP_MELLIN.items()},
        checks.BUMP_MELLIN_D0, [-0.002, 0.0, 0.002])
    assert [d > tol for _n, d, tol in rows] == [True, True, False, False]


# ----------------------------------------------------------------------
# 3. Dilation commutation over a rational symbol corpus

def test_acceptance_dilation_commutation(grid_deep, tmp_path):
    u = random_bump_field(grid_deep, np.random.default_rng(7))
    fs = [(simple_pole if k % 2 == 0 else double_pole)(
        -0.9 - 0.25 * k + 0.1j * (k % 3)) for k in range(10)]
    holds(checks.dilation_commutation(fs, u), dilation_commutation=1e-8)
    # the factor-free form of the identity is documented in the batch
    # verification report
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"checks": ["dilation_commutation"]}))
    out = tmp_path / "out"
    out.mkdir()
    assert cli_main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    [row] = rep["checks"]
    assert row["pass"] is True
    assert "prefactor" in row["note"]


# ----------------------------------------------------------------------
# 4. Residue extraction vs exact partial fractions (20-symbol corpus)

def test_acceptance_residue_oracle():
    corpus = checks.rational_corpus(np.random.default_rng(4))
    holds(checks.residue_oracle(corpus), residue_oracle=1e-10)


# ----------------------------------------------------------------------
# 5. Weight-shift commutator: line difference vs contour form

def test_acceptance_green_commutator(grid_green):
    u = HalfLineFunction(grid_green, grid_green.r * np.exp(-grid_green.r))
    fs = [simple_pole(0.2 + 0.1j * (k % 3 - 1), scale=1.0 + 0.3 * k)
          for k in range(5)]
    fs += [simple_pole(0.3 - 0.05j * (k % 2), scale=0.5 + 0.2 * k)
           for k in range(4)]
    fs.append(double_pole(0.25))       # produces the log r term
    holds(checks.green_equivalence(fs, [(0.0, 0.5), (-0.1, 0.55),
                                        (0.05, 0.6)], u),
          green_equivalence=1e-7)


# ----------------------------------------------------------------------
# 6. Branching benchmark a(y, z) = z^2 - y^2

def test_acceptance_branching_benchmark(grid_deep):
    t0 = time.monotonic()
    f = bump_callable()
    ys = [s * y for y in (0.05, 0.15, 0.25, 0.35, 0.45) for s in (1.0, -1.0)]
    mf = {p: quad_mellin(f, p, 1.0, 3.0) for p in ys + [0.0]}
    dmf0 = quad_mellin(f, 0.0, 1.0, 3.0, derivative=1)
    rows = checks.branching_benchmark(grid_deep, ys, mf, dmf0,
                                      np.arange(-0.004, 0.0041, 0.002))
    holds(rows, branching_coefficients=1e-8, branching_log_terms=1e-7,
          branching_events=1e-12, branching_continuity=1e-4)
    assert time.monotonic() - t0 < 30.0


# ----------------------------------------------------------------------
# 7. Twisted homogeneity and measured symbol orders

def test_acceptance_twisted_homogeneity(grid_deep):
    u = bump(grid_deep, a=0.02, b=0.2)
    ms = [edge_symbol(j, alpha, simple_pole(-1.2), gj, mu)
          for j, alpha, mu, gj in [(1, 1, 1.0, 0.0), (1, 0, 1.0, 0.0),
                                   (2, 2, 2.0, 0.0), (2, 1, 2.0, 0.0),
                                   (1, 1, 1.0, -0.3)]]
    holds(checks.twisted_homogeneity(ms, u), twisted_homogeneity=1e-8)
    holds(checks.symbol_order(ms, u), symbol_order=0.1)


# ----------------------------------------------------------------------
# 8. Formal adjoints

def test_acceptance_adjoint(grid_deep):
    rng = np.random.default_rng(21)
    # dyadic pole coordinates survive the z -> 1 - z-bar reflection exactly
    specs = [
        [(0, 0, simple_pole(-1.25), 0.0)],
        [(1, 1, simple_pole(-0.75 + 0.5j), -0.5)],
        [(1, 0, double_pole(-1.5), -0.25)],
        [(2, 1, simple_pole(0.25 + 0.25j), -1.0)],
        [(0, 0, simple_pole(-2.0), 0.0), (1, 1, simple_pole(-1.0), -0.5)],
    ]
    ms = [MellinEdgeSymbol(t, mu=float(max(j for j, _a, _f, _g in t)),
                           gamma=0.0) for t in specs]
    pairs = []
    for _ in range(5):
        au, av = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        pairs.append((bump(grid_deep, 0.02, 0.2, au),
                      bump(grid_deep, 0.03, 0.3, av)))
    holds(checks.adjoint_pairing(ms, pairs), adjoint_pairing=1e-8)
    holds(checks.adjoint_involution(ms), adjoint_involution=0.0)


# ----------------------------------------------------------------------
# 9. Convention independence of the Mellin quantization

def test_acceptance_convention_independence(grid_deep):
    u = bump(grid_deep, a=0.02, b=0.2)
    # weight-choice differences reproduce the contour formula; the pole
    # is kept >= 0.3 away from both weight lines so the shifted-line tails
    # decay within the grid
    weight_cases = [
        (edge_symbol(1, 0, simple_pole(p), 0.0, 1.0),
         edge_symbol(1, 0, simple_pole(p), g2, 1.0), [1.0, 2.0])
        for p, g2 in [(0.8, -0.6), (0.85, -0.7), (1.0 + 0.2j, -1.0)]]
    # cut-off-choice differences certify flat near r = 0
    cutoff_cases = [
        (edge_symbol(0, 0, simple_pole(p), 0.0, 0.0),
         edge_symbol(0, 0, simple_pole(p), 0.0, 0.0,
                     omega_prime=CutoffFunction(scale=2.0)), [1.0, 1.5])
        for p in (-0.5, -0.8 + 0.3j)]
    holds(checks.convention_independence(weight_cases, cutoff_cases, u),
          convention_independence=1e-7)


# ----------------------------------------------------------------------
# 10. Edge-space suite

def test_acceptance_edge_suite():
    t0 = time.monotonic()
    r_grid = make_grid(-50.0, 8192)
    yg = TorusGrid(2 * np.pi, 8)
    profile = r_grid.r**2 * np.exp(-r_grid.r)
    u = EdgeField(yg, r_grid,
                  (1.0 + 0.3 * np.cos(yg.y))[:, None] * profile[None, :])
    holds(checks.edge_w0_is_l2([u]), edge_w0_is_l2=1e-10)
    holds(checks.edge_potential_roundtrip([u]), edge_potential_roundtrip=1e-9)
    # operator outputs decompose with the input type joined with the
    # operator's pole type, over a 6-case corpus
    m = edge_symbol(0, 0, simple_pole(-0.6 + 0j), 0.0, 0.0)
    corpus = [
        [(-0.3 + 0j, 0)],
        [(-0.3 + 0.2j, 1)],
        [(-0.2 + 0j, 0), (-0.45 - 0.1j, 0)],
        [(-0.35 + 0j, 1), (-0.15 + 0.3j, 0)],
        [(-0.25 - 0.2j, 0)],
        [],                                   # flat input
    ]
    holds(checks.edge_decomposition(m, yg, r_grid, corpus),
          edge_decomposition=1e-9)
    # finite-rank Green output matches its separable synthesis term by term
    trace = bump(r_grid, a=0.5, b=2.0)
    zetas = [AnalyticFunctional(masses=[(-0.4, [1.0, 0.5])]),
             AnalyticFunctional(masses=[(-0.7 + 0.2j, [2.0])])]
    g = GreenSymbolFiniteRank([(zetas[0], trace, 1.5),
                               (zetas[1], trace, eta_bracket)], order_m=1.0)
    holds(checks.green_finite_rank(g, bump(r_grid, a=1.0, b=3.0),
                                   [0.0, 1.5, 4.0]),
          green_finite_rank=1e-7)
    assert time.monotonic() - t0 < 60.0


# ----------------------------------------------------------------------
# 11. Asymptotic-type algebra

def test_acceptance_type_algebra():
    t0 = time.monotonic()
    ys = np.linspace(-0.5, 0.5, 21)
    r = AsymptoticType(ys, [[(complex(y), 0), (complex(-y), 0)] if y != 0
                            else [(0j, 1)] for y in ys])
    f = invert_symbol([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                      (-0.5, 0.5))
    others = [AsymptoticType(ys, [[(0.2 + 0j, 1)]] * 21),
              AsymptoticType(ys, [[(0.2 + 0j, 0), (-0.3 + 0j, 2)]] * 21)]
    w = WeightData(gamma=0.0, theta=-3.0)
    shadowed = [[(-2.0 + 0j, 0)], shadow_closure([(0.2 + 0j, 1)], w),
                [(0.3 + 0.5j, 0), (-0.7 + 0.5j, 0), (-1.7 + 0.5j, 1)]]
    unshadowed = [[(0.2 + 0j, 0)],
                  [(0.2 + 0j, 1), (-0.8 + 0j, 0), (-1.8 + 0j, 1)],
                  [(0.3 + 0.5j, 0), (-1.7 + 0.5j, 0)]]
    holds(checks.type_algebra(r, f, others, w, shadowed, unshadowed),
          type_algebra=0.0)
    assert time.monotonic() - t0 < 5.0
