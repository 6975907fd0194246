"""Cone solver: residuals, coefficient harvesting against quadrature
oracles, flat/singular splitting with certification, branching."""

import itertools
import re

import numpy as np
import pytest

from mellin_edge import cli
from mellin_edge.cone import (
    SOLVE_TOL,
    AsymptoticExpansion,
    ConeProblem,
    bump_rhs,
    detect_branching,
    extract_asymptotics,
    solve,
    split_flat_singular,
)
from mellin_edge.errors import (
    CertificationFailed,
    PoleOnHarvestBoundary,
    PoleOnWeightLine,
    ResidualTooLarge,
)
from mellin_edge.kernels import csv_rows
from mellin_edge.mellin import CutoffFunction, HalfLineFunction, op_mellin
from mellin_edge.symbols import locate_poles, track_branches

from conftest import bump_callable, make_grid, quad_mellin


# a(y, z) = z^2 - y^2: row j holds the y-coefficients of z^j
BENCHMARK_COEFFS = [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
# a = 1 + z^4: its residual pass fails SOLVE_TOL (test_solve_residual_too_large)
Z4_PLUS_1 = [[1.0], [0.0], [0.0], [0.0], [1.0]]


def make_problem(grid, y_grid=(0.0,)):
    return ConeProblem(coeffs=BENCHMARK_COEFFS, mu=0, gamma=0.0,
                       rhs=bump_rhs(grid), y_grid=np.asarray(y_grid),
                       y_domain=(-0.5, 0.5))


def poles_at(prob, y):
    return locate_poles(prob.inverse_symbol, y)


def test_solve_residual(grid_deep):
    prob = make_problem(grid_deep)
    u = solve(prob, 0.3, poles_at(prob, 0.3))
    assert u.residual <= 1e-7


def test_solve_pole_on_line(grid_deep):
    prob = make_problem(grid_deep)
    with pytest.raises(PoleOnWeightLine):
        # pole z = y sits on the weight line Re z = 1/2
        solve(prob, 0.5, poles_at(prob, 0.5))


def test_harvest_simple_poles_oracle(grid_deep):
    # residues of 1/(z^2 - y^2) give c_+- = M f(+-y) / (+-2y)
    prob = make_problem(grid_deep)
    y = 0.3
    exp = extract_asymptotics(prob, y, poles_at(prob, y), depth=0.9)
    assert len(exp.terms) == 2
    f = bump_callable()
    for p, k, c in exp.terms:
        assert k == 0
        oracle = quad_mellin(f, p, 1.0, 3.0) / (2.0 * p)
        assert abs(c - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_harvest_double_pole_log_term(grid_deep):
    # at y = 0 the poles merge: 1/z^2 contributes
    # -M f(0) r^0 log r + (M f)'(0)
    prob = make_problem(grid_deep)
    exp = extract_asymptotics(prob, 0.0, poles_at(prob, 0.0), depth=0.75)
    f = bump_callable()
    mf0 = quad_mellin(f, 0.0, 1.0, 3.0)
    dmf0 = quad_mellin(f, 0.0, 1.0, 3.0, derivative=1)
    got = {k: c for p, k, c in exp.terms}
    assert set(got) == {0, 1}
    assert abs(got[1] - (-mf0)) <= 1e-8 * abs(mf0)
    assert abs(got[0] - dmf0) <= 1e-8 * max(1.0, abs(dmf0))


def test_boundary_auto_shrink(grid_deep):
    # pole at -0.3 sits exactly on the harvest boundary 0.5 - 0.8
    prob = make_problem(grid_deep)
    exp = extract_asymptotics(prob, 0.3, poles_at(prob, 0.3), depth=0.8)
    assert exp.depth_used < 0.8
    assert exp.notes
    assert len(exp.terms) == 1        # the boundary pole is excluded
    with pytest.raises(PoleOnHarvestBoundary):
        extract_asymptotics(prob, 0.3, poles_at(prob, 0.3), depth=0.8,
                            strict_boundary=True)


def test_expansion_terms_from_masses():
    # w_k (-log r)^k r^{-p} is the term c r^{-p} log^k r with c = (-1)^k w_k;
    # zero weights give no term, and the harvest order is kept
    exp = AsymptoticExpansion(masses=[(0.2 + 0j, np.array([1.5, 2.0, 0.0])),
                                      (0.5 + 0j, np.array([0.0, 3.0j]))],
                              depth_used=1.0)
    assert exp.terms == [(0.2 + 0j, 0, 1.5 + 0j), (0.2 + 0j, 1, -2.0 + 0j),
                         (0.5 + 0j, 1, -3.0j)]
    r = np.array([0.1, 0.5, 2.0])
    closed = sum(c * r ** (-p) * np.log(r) ** k for p, k, c in exp.terms)
    assert np.allclose(exp.evaluate(r), closed, rtol=1e-14, atol=0)


def test_split_flat_singular_certifies(grid_deep):
    prob = make_problem(grid_deep)
    y = 0.3
    u = solve(prob, y, poles_at(prob, y))
    exp = extract_asymptotics(prob, y, poles_at(prob, y), depth=0.75)
    omega = CutoffFunction()
    flat, sing = split_flat_singular(u, exp, omega, gamma=0.0)
    assert flat.certified_weight == pytest.approx(0.75 - 0.1)
    # reconstruction is exact by construction
    recon = flat.values.values + sing.values
    assert np.max(np.abs(recon - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_split_negative_control(grid_deep):
    # dropping the rightmost singular term must break the flatness check
    prob = make_problem(grid_deep)
    y = 0.3
    u = solve(prob, y, poles_at(prob, y))
    exp = extract_asymptotics(prob, y, poles_at(prob, y), depth=0.75)
    truncated = AsymptoticExpansion(
        masses=[m for m in exp.masses if m[0].real < 0],
        depth_used=exp.depth_used)
    with pytest.raises(CertificationFailed) as err:
        split_flat_singular(u, truncated, CutoffFunction(), gamma=0.0)
    # the certification window t >= -12 caps the amplification: only the
    # last shifted weight, beta' = 0.95 * (0.75 - 0.1), fails, and there a
    # missed r^{-0.3} pole still exceeds the certification factor by ~3x
    msg = str(err.value)
    assert msg.startswith(
        "flat remainder fails the weight check at beta'=0.6175 ")
    assert float(re.search(r"mass ratio (\S+)\)", msg).group(1)) > 1e2


def test_detect_branching_event(grid_deep):
    ys = np.array([-0.004, -0.002, 0.0, 0.002, 0.004])
    prob = make_problem(grid_deep, y_grid=ys)
    res = detect_branching(prob, depth=0.75)
    assert len(res.events) == 1
    assert res.events[0] == pytest.approx(0.0, abs=1e-12)
    assert res.continuity_defect <= 1e-4
    # type: two simple pairs off the event, one log-order-1 pair at y = 0
    t = res.asym_type
    assert len(t.pairs[t.node_index(0.004)]) == 2
    pairs0 = t.pairs[t.node_index(0.0)]
    assert len(pairs0) == 1 and pairs0[0][1] == 1


def test_detect_branching_table_ids_are_the_branch_table(grid_deep):
    ys = np.array([-0.004, -0.002, 0.0, 0.002, 0.004])
    prob = make_problem(grid_deep, y_grid=ys)
    res = detect_branching(prob, depth=0.75)
    sd = track_branches(prob.inverse_symbol, ys)
    assert {row[4] for row in res.table} == {0, 1}
    for y, p, _k, _c, bid in res.table:
        i = int(np.flatnonzero(ys == y)[0])
        [j] = [j for j, (q, _m) in enumerate(sd.poles[i].pairs) if q == p]
        assert bid == sd.branch_ids[i][j]


@pytest.mark.parametrize("radii", [(-0.05, 0.1), (0.05, np.nan)],
                         ids=["negative", "nan"])
def test_detect_branching_returns_a_nan_defect(grid_deep, radii):
    # log r is nan at a radius r outside (0, inf): the jump at the event is
    # nan, and the continuity defect keeps it instead of dropping it, so
    # any comparison with a tolerance fails
    prob = make_problem(grid_deep, y_grid=[-0.004, -0.002, 0.0, 0.002, 0.004])
    with np.errstate(invalid="ignore"):
        res = detect_branching(prob, depth=0.75, radii=radii)
    assert res.events == [0.0]
    assert np.isnan(res.continuity_defect)


def test_coefficients_csv_format(tmp_path):
    # the header of a small solve's artifact; a row of the columns
    # cli.cmd_solve builds, through csv_rows
    cfg = {"cone": {"coeffs": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                               [[0.0, 0.0]], [[1.0, 0.0]]],
                    "y_domain": [-0.5, 0.5]},
           "grid": {"t_min": -6.0, "n_points": 1024},
           "y": {"min": -0.004, "max": 0.004, "n": 3}, "depth": 0.75}
    assert cli.cmd_solve(cfg, str(tmp_path), 0) == 0
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "y,re_p,im_p,k,re_c,im_c,branch_id"
    table = [(0.5, 0.25 + 0.5j, 1, 2.0 - 1.0j, 3)]
    y, p, k, c, bid = (np.array(col) for col in zip(*table))
    row = b"".join(csv_rows([y, p.real, p.imag, k, c.real, c.imag, bid]))
    assert row.decode() == "0.5,0.25,0.5,1,2,-1,3\n"


def test_solve_residual_too_large(grid_short):
    # a = 1 + z^4: the residual pass multiplies the line samples by up to
    # (pi/dt)^4 ~ 4e10, which lifts rounding in u past SOLVE_TOL;
    # a = 1 + z^2 on the same grid passes
    def problem(k):
        coeffs = [[1.0]] + [[0.0]] * (k - 1) + [[1.0]]
        return ConeProblem(coeffs, 0, 0.0,
                           bump_rhs(grid_short), np.array([0.0]))

    ok, bad = problem(2), problem(4)
    assert solve(ok, 0.0, poles_at(ok, 0.0)).residual <= 1e-7
    with pytest.raises(ResidualTooLarge) as err:
        solve(bad, 0.0, poles_at(bad, 0.0))
    assert err.value.residual > err.value.tol == 1e-7


def solve_by_op_mellin(problem, y, poles):
    """(u, residual) as two op_mellin calls: u = op_M(sigma_c^{-1})(r^mu f),
    then the residual of op_M(sigma_c) u against r^mu f."""
    gamma, ft = problem.gamma, problem.scaled_rhs
    u = op_mellin(problem.inverse_symbol, y, gamma, ft, poles=poles)
    au = op_mellin(problem.symbol, y, gamma, u, tail_tol=np.inf)
    return u.values, (HalfLineFunction(ft.grid, au.values - ft.values)
                      .norm(gamma) / max(ft.norm(gamma), 1e-300))


@pytest.mark.parametrize("n", [8192, 16384, 32768, 65536])
def test_solve_is_the_op_mellin_composition_bit_for_bit(n):
    # from N = 16384 (256 KiB of complex128) on, numpy may form a product
    # of temporaries in its left operand's buffer, in the other operand
    # order; complex products are not bit-symmetric, so a reordered
    # product would change the last bits of u or of the residual
    grid = make_grid(-50.0, n)
    raised = 0
    for coeffs, mu, support_radius in itertools.product(
            (BENCHMARK_COEFFS, Z4_PLUS_1), (0, 1), (None, 2.5)):
        prob = ConeProblem(coeffs, mu, 0.0, bump_rhs(grid),
                           np.array([0.3]), support_radius, (-0.5, 0.5))
        poles = poles_at(prob, 0.3)
        u_ref, res_ref = solve_by_op_mellin(prob, 0.3, poles)
        try:
            u = solve(prob, 0.3, poles)
        except ResidualTooLarge as err:
            raised += 1
            assert res_ref > SOLVE_TOL
            assert np.float64(err.residual).tobytes() == (
                np.float64(res_ref).tobytes())
            assert str(err) == str(
                ResidualTooLarge(res_ref, SOLVE_TOL))
            continue
        assert u.values.tobytes() == u_ref.tobytes()
        assert np.float64(u.residual).tobytes() == (
            np.float64(res_ref).tobytes())
    # both outcomes are covered: a = 1 + z^4 fails the residual check
    assert raised == 4


def test_solve_mu_is_a_shift_of_the_rhs(grid_deep):
    """A = r^{-1} a with rhs f and A = a with rhs r f are solved from the
    same samples: the same u and the same residual, bit for bit, whose
    norm divides nothing by r^mu (it passes on the deep grid)."""
    f = bump_rhs(grid_deep)
    rf = HalfLineFunction(grid_deep, grid_deep.r * f.values)
    got = []
    for mu, rhs in ((1, f), (0, rf)):
        prob = ConeProblem(BENCHMARK_COEFFS, mu, 0.0, rhs, np.array([0.3]),
                           y_domain=(-0.5, 0.5))
        u = solve(prob, 0.3, poles_at(prob, 0.3))
        got.append((u.values.tobytes(), np.float64(u.residual).tobytes()))
    assert got[0] == got[1]
    assert u.residual <= SOLVE_TOL
