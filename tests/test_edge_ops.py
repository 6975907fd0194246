"""Edge symbols: twisted homogeneity, symbol orders, weight-shift Green
commutators, adjoints, finite-rank Green symbols, eta-derivatives,
asymptotic summation, convention differences."""

import numpy as np
import pytest

from mellin_edge import checks, edge_ops
from mellin_edge.edge_ops import (
    GreenSymbolFiniteRank,
    MellinEdgeSymbol,
    adjoint_pairing_defect,
    asymptotic_sum,
    eta_bracket,
    eta_derivative,
    eval_mellin_edge_symbol,
    excision,
    formal_adjoint,
    green_agreement,
    green_apply,
    l2_dr_pairing,
    measured_order,
    mellin_convention_difference,
    twisted_homogeneity_defect,
    weight_shift_green,
)
from mellin_edge.errors import LambdaOffGrid, ScheduleDiverged
from mellin_edge.functionals import AnalyticFunctional
from mellin_edge.mellin import CutoffFunction, HalfLineFunction, LogGrid

from conftest import (
    DT,
    bump,
    count_pole_searches,
    double_pole,
    make_grid,
    simple_pole,
)

# Gamma(0.2) frozen from independent high-precision evaluation
GAMMA_02 = 4.5908437119988026


def small_bump(grid):
    return bump(grid, a=0.02, b=0.2)


def single_term_symbol(j=0, alpha=0, p=-1.2, mu=0.0, gamma=0.0, gj=None):
    f = simple_pole(p)
    return MellinEdgeSymbol([(j, alpha, f, gamma if gj is None else gj)],
                            mu=mu, gamma=gamma)


def test_eta_bracket():
    assert eta_bracket(3.0) == 3.0
    assert eta_bracket(-5.0) == 5.0
    assert eta_bracket(0.0) == 1.0
    assert eta_bracket(1e-3) == pytest.approx(1.0, abs=1e-10)
    assert eta_bracket(0.7) >= 0.5


def test_twisted_homogeneity_exact(grid_deep):
    # defects are measured in L^2(dr), so pick terms whose output lives
    # there (mu = j keeps the r-power bounded at r -> 0)
    ms = [single_term_symbol(j=j, alpha=alpha, mu=mu, gj=gj)
          for j, alpha, mu, gj in [(1, 1, 1.0, 0.0), (2, 2, 2.0, 0.0),
                                   (2, 1, 2.0, 0.0), (1, 1, 1.0, -0.3)]]
    [(_name, defect, _tol)] = checks.twisted_homogeneity(ms, small_bump(
        grid_deep))
    assert defect <= 1e-8


def test_homogeneity_lambda_off_grid(grid_deep):
    u = small_bump(grid_deep)
    m = single_term_symbol()
    with pytest.raises(LambdaOffGrid):
        twisted_homogeneity_defect(m, 0.0, 1.0, 1.9, u)


def test_measured_order_slope(grid_deep):
    u = small_bump(grid_deep)
    for j, alpha, mu in [(1, 0, 1.0), (1, 1, 1.0), (2, 2, 2.0)]:
        m = single_term_symbol(j=j, alpha=alpha, mu=mu)
        slope, samples = measured_order(m, 0.0, u, [1.0, 2.0, 4.0, 8.0])
        assert abs(slope - (mu - j + abs(alpha))) <= 0.1
        assert len(samples) == 4


def test_weight_shift_green_simple_pole(grid_green):
    u = HalfLineFunction(grid_green, grid_green.r * np.exp(-grid_green.r))
    f = simple_pole(0.2, scale=1.5)
    delta, beta = 0.0, 0.6      # lines Re z = 0.5 and -0.1 bracket the pole
    diff, cont = weight_shift_green(f, 0.0, delta, beta, u)
    assert green_agreement(diff, cont, delta + beta) <= 1e-7
    # closed form: -1.5 r^{-0.2} M(r e^{-r})(0.2) = -1.5 r^{-0.2} Gamma(1.2)
    idx = np.searchsorted(grid_green.r, 0.5)
    r0 = grid_green.r[idx]
    exact = -1.5 * r0 ** (-0.2) * 0.2 * GAMMA_02        # Gamma(1.2)
    assert diff.values[idx] == pytest.approx(exact, rel=1e-8)


def test_weight_shift_green_one_pole_search(grid_green, monkeypatch):
    # both line-clearance checks and the contour radii use one record
    calls = count_pole_searches(monkeypatch)
    u = HalfLineFunction(grid_green, grid_green.r * np.exp(-grid_green.r))
    weight_shift_green(simple_pole(0.2), 0.0, 0.0, 0.6, u)
    assert len(calls) == 1


def test_weight_shift_green_gamma_oracle():
    # deep grid so the weighted tails of u = e^{-r} vanish at both ends
    grid = LogGrid(-160.0, -160.0 + 32768 * DT, 32768)
    u = HalfLineFunction(grid, np.exp(-grid.r))
    # the line at weight 0.42 decays only like e^{0.08 t} on the left
    diff, cont = weight_shift_green(simple_pole(0.2), 0.0, -0.18, 0.6, u,
                                    tail_tol=1e-5)
    # the difference is r^{-0.2} globally, so pointwise agreement in the
    # well-resolved middle of the grid is the meaningful check here
    for r_target in (0.5, 2.0):
        idx = np.searchsorted(grid.r, r_target)
        assert abs(diff.values[idx] - cont.values[idx]) \
            <= 1e-8 * abs(cont.values[idx])
    for r_target in (0.5, 2.0):
        idx = np.searchsorted(grid.r, r_target)
        r0 = grid.r[idx]
        exact = -r0 ** (-0.2) * GAMMA_02    # residue carries M(e^{-r})(0.2)
        assert diff.values[idx] == pytest.approx(exact, rel=1e-7)


def test_weight_shift_green_double_pole_log(grid_green):
    u = HalfLineFunction(grid_green, grid_green.r * np.exp(-grid_green.r))
    f = double_pole(0.2)
    diff, cont = weight_shift_green(f, 0.0, 0.0, 0.6, u)
    assert green_agreement(diff, cont, 0.6) <= 1e-7
    # the double pole produces a log r term: check the synthesized form
    from math import gamma as gamma_fn
    idx = np.searchsorted(grid_green.r, 0.5)
    r0, t0 = grid_green.r[idx], np.log(grid_green.r[idx])
    # residue of r^{-z} f M u at z = 0.2 with M u = Gamma(z+1):
    # r^{-0.2} (Gamma'(1.2) - log r Gamma(1.2))
    h = 1e-6
    dg = (gamma_fn(1.2 + h) - gamma_fn(1.2 - h)) / (2 * h)
    exact = -r0 ** (-0.2) * (dg - t0 * gamma_fn(1.2))
    assert diff.values[idx] == pytest.approx(exact, rel=1e-6)


def test_formal_adjoint_involution():
    m = MellinEdgeSymbol(
        [(1, 1, simple_pole(0.3 + 0.4j), -0.7), (2, 0, double_pole(-0.5), -1.0)],
        mu=2.0, gamma=0.0,
        omega=CutoffFunction(), omega_prime=CutoffFunction(scale=2.0))
    mss = formal_adjoint(formal_adjoint(m))
    assert mss.mu == m.mu and mss.gamma == m.gamma
    assert mss.r_power_right == m.r_power_right
    assert mss.omega is m.omega and mss.omega_prime is m.omega_prime
    for (j1, a1, f1, g1), (j2, a2, f2, g2) in zip(m.terms, mss.terms):
        assert (j1, a1, g1) == (j2, a2, g2)
        assert np.allclose(f1.num, f2.num) and np.allclose(f1.den, f2.den)


def test_adjoint_pairing(grid_deep):
    u = bump(grid_deep, a=0.02, b=0.2)
    v = bump(grid_deep, a=0.03, b=0.3, amplitude=0.7)
    m = MellinEdgeSymbol([(1, 1, simple_pole(-1.2), -0.4)], mu=1.0, gamma=0.0)
    for eta in (1.0, 2.5, -1.5):
        assert adjoint_pairing_defect(m, 0.0, eta, u, v) <= 1e-8


def rank_one_green(order_m=1.0, p=-0.4):
    grid = make_grid(-15.0, 2048)
    trace = bump(grid, a=0.5, b=2.0)
    zeta = AnalyticFunctional(masses=[(p, [1.0, 0.5])])

    def amp(eta):
        return eta_bracket(eta) ** order_m

    return GreenSymbolFiniteRank([(zeta, trace, amp)], order_m=order_m), grid


def test_green_apply_closed_form():
    g, grid = rank_one_green()
    u = bump(grid, a=1.0, b=3.0)
    out = green_apply(g, 0.0, 0.0, u)      # eta = 0: [eta] = 1, amp = 1
    # T = int trace u dr; output = omega(r) (r^{0.4} + 0.5 (-log r) r^{0.4}) T
    tval = grid.dt * np.sum(g.rank_terms[0][1].values * u.values * grid.r)
    lr = np.log(grid.r)
    exact = (CutoffFunction()(grid.r)
             * (1.0 + 0.5 * (-lr)) * grid.r ** 0.4 * tval)
    assert np.max(np.abs(out.values - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_green_measured_order():
    g, grid = rank_one_green(order_m=1.0)
    u = bump(grid, a=0.5, b=2.0)
    slope, _ = measured_order(g, 0.0, u, [1.0, 2.0, 4.0, 8.0])
    # the L^2-normalized trace kernel contributes an extra [eta]^{-1/2}
    assert abs(slope - (1.0 - 0.5)) <= 0.1


def test_eta_derivative_fd_consistency(grid_deep):
    u = small_bump(grid_deep)
    m = single_term_symbol(j=1, alpha=1, mu=1.0, gj=-0.5)
    d, fd_defect = eta_derivative(m, 0.0, 2.0, u)
    assert fd_defect <= 1e-6
    assert d.norm(0.0) > 0


def test_eta_derivative_green_check(grid_deep):
    u = small_bump(grid_deep)
    m = single_term_symbol(j=1, alpha=1, mu=1.0, gj=-0.5)
    [(_name, defect, _tol)] = checks.eta_derivative_order([m], u)
    assert defect <= 0.1


def test_eta_derivative_order_fails_two_orders_low(grid_deep, monkeypatch):
    """The row is two-sided: a derivative planted two orders too low (its
    output divided by [eta]^2) fails it with a defect of about 2."""
    u = small_bump(grid_deep)
    m = single_term_symbol(j=1, alpha=1, mu=1.0, gj=-0.5)

    def planted(m, y, eta, w):
        out, fd_defect = eta_derivative(m, y, eta, w)
        return (HalfLineFunction(out.grid, out.values / eta_bracket(eta) ** 2),
                fd_defect)

    monkeypatch.setattr(checks, "eta_derivative", planted)
    [(_name, defect, tol)] = checks.eta_derivative_order([m], u)
    assert defect == pytest.approx(2.0, abs=0.1)
    assert not defect <= tol


def test_asymptotic_sum_schedule():
    g0, grid = rank_one_green(order_m=1.0)
    g1, _ = rank_one_green(order_m=0.0)
    g2, _ = rank_one_green(order_m=-1.0)
    u = bump(grid, a=0.5, b=2.0)
    total = asymptotic_sum([g0, g1, g2], 0.0, u, eta_fan=[2.0, 4.0, 8.0])
    # each term keeps its g_j's amplitude, excised near eta = 0 by its
    # scheduled c_j >= 1 (the remainders' bound is the acceptance check
    # asymptotic_sum_remainders)
    gs_terms = [t for g in (g0, g1, g2) for t in g.rank_terms]
    assert len(total.rank_terms) == len(gs_terms)
    for (_z, _t, amp), (_z0, _t0, amp0) in zip(total.rank_terms, gs_terms):
        assert amp(0.1) == 0.0
        assert amp(1e9) == amp0(1e9)
    assert total.order_m == 1.0
    # the summed symbol acts and keeps the leading order
    out = green_apply(total, 0.0, 8.0, u)
    assert np.all(np.isfinite(out.values))


def test_asymptotic_sum_diverges():
    g0, grid = rank_one_green(order_m=1.0)
    g1, _ = rank_one_green(order_m=0.0)
    big = GreenSymbolFiniteRank(
        [(z, t, (lambda a: (lambda e: 1e12 * (a(e) if callable(a) else a)))(amp))
         for z, t, amp in g1.rank_terms], order_m=0.0)
    u = bump(grid, a=0.5, b=2.0)
    with pytest.raises(ScheduleDiverged):
        asymptotic_sum([g0, big], 0.0, u, eta_fan=[64.0], margin=1e-9,
                       c_max=4.0)


def test_excision_profile():
    assert excision(0.1) == 0.0
    assert excision(2.0) == 1.0
    assert 0.0 < excision(0.75) < 1.0


def test_convention_difference_weight_shift(grid_deep, monkeypatch):
    # the clause compares against the contour form alone: no op_mellin
    # call, and the defect of the oracle built from weight_shift_green's
    # contour form on the same cut-off input
    u = small_bump(grid_deep)
    f = simple_pole(0.8)
    m1 = MellinEdgeSymbol([(1, 0, f, 0.0)], mu=1.0, gamma=0.0)
    m2 = MellinEdgeSymbol([(1, 0, f, -0.6)], mu=1.0, gamma=0.0)
    calls = []
    real = edge_ops.op_mellin
    monkeypatch.setattr(edge_ops, "op_mellin",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    clause, defects = mellin_convention_difference(m1, m2, 0.0, u,
                                                   etas=[1.0, 2.0])
    assert calls == []
    monkeypatch.undo()
    assert clause == "weight-shift contour"
    assert max(defects) <= 1e-7
    g = grid_deep
    for eta, defect in zip([1.0, 2.0], defects, strict=True):
        s = eta_bracket(eta)
        v = HalfLineFunction(g, m1.omega_prime(g.r * s) * u.values)
        _diff, cont = weight_shift_green(f, 0.0, -0.6, 0.6, v)
        d = (eval_mellin_edge_symbol(m1, 0.0, eta, u).values
             - eval_mellin_edge_symbol(m2, 0.0, eta, u).values)
        resid = HalfLineFunction(g, d - m1.omega(g.r * s) * cont.values)
        assert defect == pytest.approx(
            resid.norm(-0.6) / u.norm(-0.6), rel=1e-12)


def test_convention_difference_cutoffs(grid_deep):
    u = small_bump(grid_deep)
    f = simple_pole(-0.5)
    m1 = MellinEdgeSymbol([(0, 0, f, 0.0)], mu=0.0, gamma=0.0)
    m2 = MellinEdgeSymbol([(0, 0, f, 0.0)], mu=0.0, gamma=0.0,
                          omega_prime=CutoffFunction(scale=2.0))
    clause, defects = mellin_convention_difference(m1, m2, 0.0, u,
                                                   etas=[1.0, 1.5])
    assert clause == "cut-off flatness"
    assert len(defects) == 2 and max(defects) <= 1e-7


def test_convention_difference_negative_control(grid_deep):
    # differing symbols are not a Green difference: the oracle must miss
    # by far more than the convention_independence tolerance
    u = small_bump(grid_deep)
    m1 = MellinEdgeSymbol([(1, 0, simple_pole(0.8), 0.0)], mu=1.0, gamma=0.0)
    m2 = MellinEdgeSymbol([(1, 0, simple_pole(0.7), -0.6)], mu=1.0, gamma=0.0)
    clause, [defect] = mellin_convention_difference(m1, m2, 0.0, u,
                                                    etas=[1.0])
    assert clause == "weight-shift contour"
    assert defect > 1e3 * checks.TOLERANCES["convention_independence"]


def test_l2_pairing_symmetry(grid_short):
    u = bump(grid_short)
    v = bump(grid_short, a=0.5, b=2.0)
    assert l2_dr_pairing(u, v) == pytest.approx(
        np.conj(l2_dr_pairing(v, u)), rel=1e-12)


def test_eta_bracket_is_elementwise():
    etas = np.array([0.0, 2.0, 5.0])
    assert np.array_equal(eta_bracket(etas), [1.0, 2.0, 5.0])
    grid = np.array([[0.0, -0.7, 1e-3], [0.9, -3.0, 12.5]])
    out = eta_bracket(grid)
    assert out.shape == grid.shape
    assert np.array_equal(out, np.vectorize(eta_bracket)(grid))
    assert type(eta_bracket(np.float64(0.7))) is float


def convention_pair(kind):
    """One-term symbols (m1, m2) differing in their weight or cut-off."""
    if kind == "weight-shift contour":
        f = simple_pole(0.8)
        return (MellinEdgeSymbol([(1, 0, f, 0.0)], mu=1.0, gamma=0.0),
                MellinEdgeSymbol([(1, 0, f, -0.6)], mu=1.0, gamma=0.0))
    f = simple_pole(-0.5)
    return (MellinEdgeSymbol([(0, 0, f, 0.0)], mu=0.0, gamma=0.0),
            MellinEdgeSymbol([(0, 0, f, 0.0)], mu=0.0, gamma=0.0,
                             omega_prime=CutoffFunction(scale=2.0)))


@pytest.mark.parametrize("kind", ["weight-shift contour", "cut-off flatness"])
def test_convention_difference_returns_one_clause(grid_deep, kind):
    # the cut-offs select the clause; its defects, one per eta, are compared
    # with a tolerance only by the caller (convention_independence)
    m1, m2 = convention_pair(kind)
    clause, defects = mellin_convention_difference(
        m1, m2, 0.0, small_bump(grid_deep), etas=[1.0, 2.0])
    assert clause == kind
    assert len(defects) == 2
    assert all(isinstance(d, float) for d in defects)


@pytest.mark.parametrize("kind", ["weight-shift contour", "cut-off flatness"])
def test_convention_difference_one_pole_search_per_term(grid_deep,
                                                        monkeypatch, kind):
    # m1 and m2 are each applied at every eta after one search of their
    # term, and the clause searches the term's poles once: 3 searches of
    # (f, 0.0) for three etas, not one per eta
    calls = count_pole_searches(monkeypatch)
    m1, m2 = convention_pair(kind)
    _clause, defects = mellin_convention_difference(
        m1, m2, 0.0, small_bump(grid_deep), etas=[1.0, 2.0, 3.0])
    assert len(defects) == 3
    assert len(calls) == 3
