"""End-to-end acceptance suite: every primary guarantee of the toolkit at
its stated tolerance, against independent oracles, with runtime budgets."""

import json
import time

import numpy as np
import pytest
import sympy as sp

from mellin_edge import cone, symbols
from mellin_edge.asym_types import (
    AsymptoticType,
    WeightData,
    build_covering,
    check_shadow,
    covering_reconstructs,
    restrict,
    set_equal,
    shadow_closure,
    union,
)
from mellin_edge.cli import main as cli_main
from mellin_edge.edge_ops import (
    GreenSymbolFiniteRank,
    MellinEdgeSymbol,
    adjoint_pairing_defect,
    eta_bracket,
    formal_adjoint,
    green_agreement,
    green_apply,
    measured_order,
    mellin_convention_difference,
    twisted_homogeneity_defect,
    weight_shift_green,
)
from mellin_edge.edge_spaces import (
    EdgeField,
    SingularEdgeData,
    TorusGrid,
    apply_edge_operator,
    decompose_flat_singular_edge,
    edge_norm,
    inverse_potential_op,
    potential_op,
    synthesize_singular,
)
from mellin_edge.functionals import (
    AnalyticFunctional,
    Contour,
    from_symbol,
    to_point_masses,
)
from mellin_edge.kernels import circle_moments
from mellin_edge.mellin import (
    CutoffFunction,
    HalfLineFunction,
    dilation_commutation_defect,
    mellin_eval,
    mellin_transform,
)
from mellin_edge.symbols import (
    N_CONTOUR,
    MeromorphicSymbol,
    laurent_expand,
)

from conftest import (
    bump,
    bump_callable,
    double_pole,
    make_grid,
    quad_mellin,
    random_bump_field,
    simple_pole,
)

# Gamma(1/2 + i tau) frozen from 30-digit independent quadrature of
# int_0^inf r^{z-1} e^{-r} dr
GAMMA_LINE = [
    (-5.0, complex(-0.00096948070526995127, -8.3630391299614968e-05)),
    (-3.5, complex(0.0064089281114485487, -0.008020659849544233)),
    (-2.0, complex(0.089855176706431644, 0.060493760292887569)),
    (-1.0, complex(0.30069461726065583, 0.42496787943312381)),
    (-0.25, complex(1.3851135919886661, 0.67318153575969975)),
    (0.25, complex(1.3851135919886661, -0.67318153575969975)),
    (1.0, complex(0.30069461726065583, -0.42496787943312381)),
    (2.0, complex(0.089855176706431644, -0.060493760292887569)),
    (3.5, complex(0.0064089281114485487, 0.008020659849544233)),
    (5.0, complex(-0.00096948070526995127, 8.3630391299614968e-05)),
]


# ----------------------------------------------------------------------
# 1. Plancherel isometry

def test_acceptance_plancherel():
    t0 = time.monotonic()
    grid = make_grid(-15.0, 4096)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        u = random_bump_field(grid, rng)
        for gamma in (0.0, 0.3, -0.3):
            line = mellin_transform(u, gamma)
            worst = max(worst, abs(line.norm() - u.norm(gamma))
                        / max(u.norm(gamma), 1e-300))
    assert worst <= 1e-8
    assert time.monotonic() - t0 < 5.0


# ----------------------------------------------------------------------
# 2. Gamma-function oracle on the central weight line

def test_acceptance_gamma_oracle(grid_deep):
    t0 = time.monotonic()
    u = HalfLineFunction(grid_deep, np.exp(-grid_deep.r))
    for tau, oracle in GAMMA_LINE:
        got = mellin_eval(u, 0.5 + 1j * tau)
        assert abs(got - oracle) <= 1e-6 * abs(oracle)
    assert time.monotonic() - t0 < 5.0


# ----------------------------------------------------------------------
# 3. Dilation commutation over a rational symbol corpus

def test_acceptance_dilation_commutation(grid_deep, tmp_path):
    rng = np.random.default_rng(7)
    u = random_bump_field(grid_deep, rng)
    worst = 0.0
    for k in range(10):
        p = -0.9 - 0.25 * k + 0.1j * (k % 3)
        f = simple_pole(p) if k % 2 == 0 else double_pole(p)
        for lam in (2.0, 4.0):
            worst = max(worst, dilation_commutation_defect(f, 0.0, u, lam))
    assert worst <= 1e-8
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

_Z = sp.symbols("z")


def _rational_corpus():
    """20 rational symbols with known exact partial-fraction data.

    Poles are rational (quarter-integer lattice) so sympy's apart gives the
    exact decomposition to compare against.
    """
    rng = np.random.default_rng(4)
    lattice = [sp.Rational(n, 4) for n in (-8, -6, -4, -2, 2, 4, 6, 8)]
    corpus = []
    for _ in range(20):
        k = int(rng.integers(2, 4))       # number of distinct poles
        idx = rng.choice(len(lattice), size=k, replace=False)
        poles = [lattice[i] for i in idx]
        orders = [int(rng.integers(1, 3)) for _ in range(k)]
        den = sp.prod([(_Z - p) ** m for p, m in zip(poles, orders)])
        deg = sum(orders)
        num = sum(int(rng.integers(-5, 6)) * _Z**i for i in range(deg))
        if num == 0:
            num = sp.Integer(1)
        corpus.append((num, sp.expand(den)))
    return corpus


def _apart_oracle(num, den):
    """{pole: array of d_0..} with d_{j-1} the coefficient of (z-p)^{-j}."""
    out = {}
    for term in sp.Add.make_args(sp.apart(num / den, _Z)):
        n_, d_ = term.as_numer_denom()
        if not d_.free_symbols:
            continue
        const, zpart = d_.as_independent(_Z, as_Add=False)
        base, exp = zpart.as_base_exp()
        poly = sp.Poly(base, _Z)
        a = poly.coeff_monomial(_Z)
        b = poly.coeff_monomial(1)
        p = complex(-sp.Rational(b, a))
        j = int(exp)
        c = complex(n_) / complex(const) / complex(a) ** j
        key = (round(p.real, 12), round(p.imag, 12))
        arr = out.setdefault(key, np.zeros(8, dtype=complex))
        arr[j - 1] += c
    return out


def _poly_to_array(expr):
    return np.array([complex(c) for c in
                     sp.Poly(expr, _Z).all_coeffs()[::-1]]).reshape(-1, 1)


def test_acceptance_residue_oracle():
    for num, den in _rational_corpus():
        f = MeromorphicSymbol(_poly_to_array(num), _poly_to_array(den),
                              reduce=False)
        oracle = _apart_oracle(num, den)
        poles = symbols.locate_poles(f, 0.0)
        assert len(poles.pairs) == len(oracle)
        scale = max(np.max(np.abs(arr)) for arr in oracle.values())
        for i, (p, m) in enumerate(poles.pairs):
            key = min(oracle, key=lambda k: abs(complex(*k) - p))
            exact = oracle[key][:m]
            d = laurent_expand(f, 0.0, poles, i)
            assert np.max(np.abs(d - exact)) <= 1e-10 * scale
            # contour-radius independence
            others = [abs(complex(*k2) - p) for k2 in oracle if k2 != key]
            rmax = min(others, default=1.0) / 2
            d1, d2 = (circle_moments(lambda z: f(0.0, z), complex(*key),
                                     frac * rmax, np.arange(m), N_CONTOUR)
                      for frac in (0.9, 0.45))
            assert np.max(np.abs(d1 - d2)) <= 1e-10 * scale
        # functional path: contour around all poles -> point masses
        pts = [complex(*k) for k in oracle]
        center = np.mean(pts)
        radius = max(abs(p - center) for p in pts) + 0.7
        zeta = from_symbol(f, 0.0, Contour("circle", n_nodes=512,
                                           center=center, radius=radius))
        pm = to_point_masses(zeta)
        assert len(pm.masses) == len(oracle)
        for p, weights in pm.masses:
            key = min(oracle, key=lambda k: abs(complex(*k) - p))
            exact = oracle[key][: len(weights)]
            assert np.max(np.abs(weights - exact)) <= 1e-10 * scale


# ----------------------------------------------------------------------
# 5. Weight-shift commutator: line difference vs contour form

def test_acceptance_green_commutator(grid_green):
    u = HalfLineFunction(grid_green, grid_green.r * np.exp(-grid_green.r))
    fs = [simple_pole(0.2 + 0.1j * (k % 3 - 1), scale=1.0 + 0.3 * k)
          for k in range(5)]
    fs += [simple_pole(0.3 - 0.05j * (k % 2), scale=0.5 + 0.2 * k)
           for k in range(4)]
    fs.append(double_pole(0.25))       # produces the log r term
    weight_pairs = [(0.0, 0.5), (-0.1, 0.55), (0.05, 0.6)]
    for f in fs:
        for delta, beta in weight_pairs:
            diff, cont = weight_shift_green(f, 0.0, delta, beta, u)
            assert green_agreement(diff, cont, delta + beta) <= 1e-7


# ----------------------------------------------------------------------
# 6. Branching benchmark a(y, z) = z^2 - y^2

def _benchmark_problem(grid, y_grid):
    a = [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    return cone.ConeProblem(a, 0, 0.0, cone.bump_rhs(grid), y_grid,
                            y_domain=(-0.5, 0.5))


def test_acceptance_branching_benchmark(grid_deep):
    t0 = time.monotonic()
    f = bump_callable()
    ys_coarse = [s * y for y in (0.05, 0.15, 0.25, 0.35, 0.45)
                 for s in (1.0, -1.0)]
    prob = _benchmark_problem(grid_deep, np.array(sorted(ys_coarse)))
    # coefficients at |y| >= 0.05: c = M f(p) / (2p) at p = +-y
    for y in ys_coarse:
        exp = cone.extract_asymptotics(
            prob, y, symbols.locate_poles(prob.inverse_symbol, y), depth=1.0)
        assert len(exp.terms) == 2
        for p, k, c in exp.terms:
            assert k == 0
            oracle = quad_mellin(f, p, 1.0, 3.0) / (2.0 * p)
            assert abs(c - oracle) <= 1e-8 * max(1.0, abs(oracle))
    # y = 0: double pole; in the r^{-p} log^k r normalization the log
    # coefficient is -M f(0) (equivalently +M f(0) in powers of log(1/r))
    # and the constant term is (M f)'(0)
    exp0 = cone.extract_asymptotics(
        prob, 0.0, symbols.locate_poles(prob.inverse_symbol, 0.0), depth=1.0)
    mf0 = quad_mellin(f, 0.0, 1.0, 3.0)
    dmf0 = quad_mellin(f, 0.0, 1.0, 3.0, derivative=1)
    got = {k: c for p, k, c in exp0.terms}
    assert abs(abs(got[1]) - abs(mf0)) <= 1e-7 * abs(mf0)
    assert got[1] == pytest.approx(-mf0, rel=1e-7)
    assert got[0] == pytest.approx(dmf0, rel=1e-7)
    # continuity of the singular part across the collision at y = 0
    y_fine = np.arange(-0.004, 0.0041, 0.002)
    prob_fine = _benchmark_problem(grid_deep, y_fine)
    res = cone.detect_branching(prob_fine, depth=1.0, radii=(0.05, 0.1, 0.2))
    assert res.events == [pytest.approx(0.0, abs=1e-12)]
    assert res.continuity_defect <= 1e-4
    assert time.monotonic() - t0 < 30.0


# ----------------------------------------------------------------------
# 7. Twisted homogeneity and measured symbol orders

def test_acceptance_twisted_homogeneity(grid_deep):
    u = bump(grid_deep, a=0.02, b=0.2)
    cases = [(1, 1, 1.0, 0.0), (1, 0, 1.0, 0.0), (2, 2, 2.0, 0.0),
             (2, 1, 2.0, 0.0), (1, 1, 1.0, -0.3)]
    for j, alpha, mu, gj in cases:
        m = MellinEdgeSymbol([(j, alpha, simple_pole(-1.2), gj)],
                             mu=mu, gamma=0.0)
        for lam in (2.0, 4.0):
            for eta in (1.0, 1.5, 3.0):
                assert twisted_homogeneity_defect(m, 0.0, eta, lam, u) <= 1e-8
        slope, _ = measured_order(m, 0.0, u, [1.0, 2.0, 4.0, 8.0])
        assert abs(slope - (mu - j + abs(alpha))) <= 0.1


# ----------------------------------------------------------------------
# 8. Formal adjoints

def test_acceptance_adjoint(grid_deep):
    rng = np.random.default_rng(21)
    # dyadic pole coordinates survive the z -> 1 - z-bar reflection exactly
    sym_specs = [
        [(0, 0, simple_pole(-1.25), 0.0)],
        [(1, 1, simple_pole(-0.75 + 0.5j), -0.5)],
        [(1, 0, double_pole(-1.5), -0.25)],
        [(2, 1, simple_pole(0.25 + 0.25j), -1.0)],
        [(0, 0, simple_pole(-2.0), 0.0), (1, 1, simple_pole(-1.0), -0.5)],
    ]
    ms = [MellinEdgeSymbol(t, mu=float(max(j for j, _a, _f, _g in t)),
                           gamma=0.0) for t in sym_specs]
    pairs = []
    for _ in range(5):
        au, av = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        pairs.append((bump(grid_deep, 0.02, 0.2, au),
                      bump(grid_deep, 0.03, 0.3, av)))
    for m in ms:
        for u, v in pairs:
            assert adjoint_pairing_defect(m, 0.0, 1.5, u, v) <= 1e-8
        # involution on the data level
        mss = formal_adjoint(formal_adjoint(m))
        assert mss.mu == m.mu and mss.gamma == m.gamma
        assert mss.r_power_right == m.r_power_right
        for (j1, a1, f1, g1), (j2, a2, f2, g2) in zip(m.terms, mss.terms):
            assert (j1, a1, g1) == (j2, a2, g2)
            assert np.array_equal(f1.num, f2.num)
            assert np.array_equal(f1.den, f2.den)


# ----------------------------------------------------------------------
# 9. Convention independence of the Mellin quantization

def test_acceptance_convention_independence(grid_deep):
    u = bump(grid_deep, a=0.02, b=0.2)
    # weight-choice differences reproduce the contour formula
    # pole kept >= 0.3 away from both weight lines so the shifted-line
    # tails decay within the grid
    for p, g2 in [(0.8, -0.6), (0.85, -0.7), (1.0 + 0.2j, -1.0)]:
        m1 = MellinEdgeSymbol([(1, 0, simple_pole(p), 0.0)], mu=1.0,
                              gamma=0.0)
        m2 = MellinEdgeSymbol([(1, 0, simple_pole(p), g2)], mu=1.0,
                              gamma=0.0)
        rep = mellin_convention_difference(m1, m2, 0.0, u, etas=[1.0, 2.0])
        assert rep["max_defect"] <= 1e-7
    # cut-off-choice differences certify flat near r = 0
    for p in (-0.5, -0.8 + 0.3j):
        m1 = MellinEdgeSymbol([(0, 0, simple_pole(p), 0.0)], mu=0.0,
                              gamma=0.0)
        m2 = MellinEdgeSymbol([(0, 0, simple_pole(p), 0.0)], mu=0.0,
                              gamma=0.0,
                              omega_prime=CutoffFunction(scale=2.0))
        rep = mellin_convention_difference(m1, m2, 0.0, u, etas=[1.0, 1.5])
        assert rep["max_defect"] <= 1e-7
        assert all(c["clause"] == "cut-off flatness" for c in rep["clauses"])


# ----------------------------------------------------------------------
# 10. Edge-space suite

def test_acceptance_edge_suite():
    t0 = time.monotonic()
    r_grid = make_grid(-50.0, 8192)
    yg = TorusGrid(2 * np.pi, 8)
    profile = r_grid.r**2 * np.exp(-r_grid.r)
    u = EdgeField(yg, r_grid,
                  (1.0 + 0.3 * np.cos(yg.y))[:, None] * profile[None, :])
    # W^0 = L^2
    assert abs(edge_norm(u, 0.0) - u.l2_norm()) <= 1e-10 * u.l2_norm()
    # potential-operator roundtrip
    back = inverse_potential_op(potential_op(u))
    assert back.copy(values=back.values - u.values).l2_norm() \
        <= 1e-9 * u.l2_norm()

    # operator outputs decompose with the input type joined with the
    # operator's pole type, over a 6-case corpus
    op_pole = -0.6 + 0j
    m = MellinEdgeSymbol([(0, 0, simple_pole(op_pole), 0.0)], mu=0.0,
                         gamma=0.0)
    corpus = [
        [(-0.3 + 0j, 0)],
        [(-0.3 + 0.2j, 1)],
        [(-0.2 + 0j, 0), (-0.45 - 0.1j, 0)],
        [(-0.35 + 0j, 1), (-0.15 + 0.3j, 0)],
        [(-0.25 - 0.2j, 0)],
        [],                                   # flat input
    ]
    flat_bg = (0.5 + 0.2 * np.sin(yg.y))[:, None] * \
        bump(r_grid, 0.02, 0.2).values[None, :]
    for pairs in corpus:
        functionals = []
        for k in range(yg.n_points):
            masses = []
            for i, (p, order) in enumerate(pairs):
                w = np.zeros(order + 1, dtype=complex)
                w[order] = 1.0 + 0.1j * (k + i)
                if order > 0:
                    w[0] = 0.3
                masses.append((p, w))
            functionals.append(AnalyticFunctional(masses=masses))
        data = SingularEdgeData(yg, r_grid, functionals, gamma=0.0)
        field = synthesize_singular(data)
        field = field.copy(values=field.values + flat_bg)
        out = apply_edge_operator(m, field, y_dependent=False)
        joined = pairs + [(op_pole, 0)]
        atype = AsymptoticType(yg.y, [list(joined)] * yg.n_points)
        flat, harvested = decompose_flat_singular_edge(out, atype, depth=1.2)
        hit = set()
        for z in harvested.mode_functionals:
            for p, _w in z.masses:
                key = min(range(len(joined)),
                          key=lambda i: abs(joined[i][0] - p))
                assert abs(joined[key][0] - p) <= 1e-9
                hit.add(key)
        assert len(joined) - 1 in hit     # the operator pole is always hit

    # finite-rank Green output matches its separable synthesis term by term
    trace = bump(r_grid, a=0.5, b=2.0)
    zetas = [AnalyticFunctional(masses=[(-0.4, [1.0, 0.5])]),
             AnalyticFunctional(masses=[(-0.7 + 0.2j, [2.0])])]
    amps = [1.5, lambda e: eta_bracket(e)]
    g_full = GreenSymbolFiniteRank(list(zip(zetas, [trace, trace], amps)),
                                   order_m=1.0)
    v = bump(r_grid, a=1.0, b=3.0)
    omega0 = CutoffFunction()
    for eta in (0.0, 1.5, 4.0):
        got = green_apply(g_full, 0.0, eta, v).values
        s = eta_bracket(eta)
        from mellin_edge.mellin import kappa
        tval = r_grid.dt * np.sum(
            kappa(trace, s).values / np.sqrt(s) * v.values * r_grid.r)
        rs = r_grid.r * s
        lrs = np.log(rs)
        synth = np.zeros(r_grid.n_points, dtype=complex)
        for zeta, amp in zip(zetas, amps):
            a = amp(eta) if callable(amp) else amp
            part = np.zeros(r_grid.n_points, dtype=complex)
            for p, weights in zeta.masses:
                rp = rs ** (-p)
                for l, w in enumerate(weights):
                    if w != 0:
                        part += w * (-lrs) ** l * rp
            synth += a * np.sqrt(s) * omega0(rs) * part * tval
        scale = max(1e-300, np.max(np.abs(synth)))
        assert np.max(np.abs(got - synth)) <= 1e-7 * scale
    assert time.monotonic() - t0 < 60.0


# ----------------------------------------------------------------------
# 11. Asymptotic-type algebra

def test_acceptance_type_algebra():
    t0 = time.monotonic()
    ys = np.linspace(-0.5, 0.5, 21)
    pairs = [[(complex(y), 0), (complex(-y), 0)] if y != 0 else [(0j, 1)]
             for y in ys]
    r = AsymptoticType(ys, pairs)
    # restriction is idempotent
    region = lambda p: p.real > 0.1
    r1 = restrict(r, region=region, u_box=(0.0, 0.5))
    assert set_equal(r1, restrict(r1, region=region, u_box=(0.0, 0.5)))
    # union: identity and commutativity
    empty = AsymptoticType(ys, [[] for _ in ys])
    assert set_equal(union([r, empty]), r)
    a = AsymptoticType(ys, [[(0.2 + 0j, 1)]] * 21)
    b = AsymptoticType(ys, [[(0.2 + 0j, 0), (-0.3 + 0j, 2)]] * 21)
    assert set_equal(union([a, b]), union([b, a]))
    # shadow checker: three pass and three fail cases
    w = WeightData(gamma=0.0, theta=-3.0)
    mk = lambda pl: AsymptoticType(np.array([0.0]), [list(pl)], w)
    assert check_shadow(mk([(-2.0 + 0j, 0)]))[0]
    assert check_shadow(mk(shadow_closure([(0.2 + 0j, 1)], w)))[0]
    assert check_shadow(mk([(0.3 + 0.5j, 0), (-0.7 + 0.5j, 0),
                            (-1.7 + 0.5j, 1)]))[0]
    assert not check_shadow(mk([(0.2 + 0j, 0)]))[0]
    assert not check_shadow(mk([(0.2 + 0j, 1), (-0.8 + 0j, 0),
                                (-1.8 + 0j, 1)]))[0]
    assert not check_shadow(mk([(0.3 + 0.5j, 0), (-1.7 + 0.5j, 0)]))[0]
    # covering reconstruction on samples
    cov = build_covering(r, strip=(-0.4, 0.4), u_box=(-0.5, 0.5),
                         eps_target=0.1)
    assert covering_reconstructs(r, cov)
    assert time.monotonic() - t0 < 5.0
