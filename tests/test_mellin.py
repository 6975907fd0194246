"""Weighted Mellin transform, dilations, cut-offs, kernel cut-off."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_edge import checks, mellin
from mellin_edge.errors import (
    GridMismatch,
    InsufficientDecay,
    LambdaOffGrid,
    NonFiniteInput,
    PoleOnWeightLine,
    TailTooLarge,
)
from mellin_edge.mellin import (
    CutoffFunction,
    HalfLineFunction,
    LogGrid,
    VerticalLineFunction,
    dilate,
    kappa,
    kernel_cutoff,
    mellin_eval,
    mellin_transform,
    op_mellin,
)
from mellin_edge.symbols import MeromorphicSymbol, locate_poles

from conftest import DT, bump, make_grid, random_bump_field, simple_pole


def test_log_grid_basics():
    g = make_grid(-15.0, 4096)
    assert g.dt == pytest.approx(DT)
    assert g.t[0] == g.t_min
    # t_max is exclusive: the last node is one step short of it
    assert g.t[-1] == pytest.approx(g.t_max - g.dt)
    with pytest.raises(ValueError):
        LogGrid(0.0, 1.0, 100)     # not a power of two


def test_roundtrip_exact(grid_short):
    # op_mellin of the unit symbol is M_gamma^{-1} M_gamma
    rng = np.random.default_rng(0)
    u = random_bump_field(grid_short, rng)
    one = MeromorphicSymbol([np.array([1.0])], [np.array([1.0])])
    for gamma in (0.0, 0.3, -0.3):
        back = op_mellin(one, None, gamma, u)
        # unweighting amplifies rounding noise at the grid ends by
        # e^{|1/2-gamma| |t|}, so compare at 1e-10 rather than machine eps
        err = np.max(np.abs(back.values - u.values))
        assert err <= 1e-10 * np.max(np.abs(u.values))


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(-0.45, 0.45), seed=st.integers(0, 10**6))
def test_plancherel_property(gamma, seed):
    grid = make_grid(-15.0, 1024)
    u = random_bump_field(grid, np.random.default_rng(seed))
    line = mellin_transform(u, gamma)
    assert abs(line.norm() - u.norm(gamma)) <= 1e-10 * u.norm(gamma)


def test_gamma_point(grid_deep):
    # M(e^{-r})(z) = Gamma(z) on the weight line gamma = 0
    u = HalfLineFunction(grid_deep, np.exp(-grid_deep.r))
    from math import gamma as gamma_fn
    z = 0.7
    assert mellin_eval(u, z) == pytest.approx(gamma_fn(z), rel=1e-10)


def test_op_volterra_closed_form(grid_deep):
    # op(1/(z-p)) u (r) = r^{-p} int_r^inf s^{p-1} u(s) ds for a weight
    # line right of p (causal kernel)
    p = 0.2
    u = bump(grid_deep)
    au = op_mellin(simple_pole(p), None, 0.0, u)
    from scipy.integrate import quad
    from conftest import bump_callable
    f = bump_callable()
    idx = np.searchsorted(grid_deep.r, 0.5)
    r0 = grid_deep.r[idx]
    oracle, _ = quad(lambda s: s ** (p - 1) * f(s), 1.0, 3.0,
                     epsabs=1e-13, epsrel=1e-13)
    # discrete-vs-continuum quadrature of the C-infinity bump limits the
    # match to ~1e-8 at this step size
    assert au.values[idx] == pytest.approx(r0 ** (-p) * oracle, rel=1e-7)


def test_op_mellin_takes_pole_record(grid_deep, monkeypatch):
    # a given record replaces the pole search; the output is the same array
    f = simple_pole(0.2) + simple_pole(-0.7, scale=2.0)
    u = bump(grid_deep)
    searched = op_mellin(f, None, 0.0, u)
    poles = locate_poles(f, None)
    monkeypatch.setattr(mellin, "locate_poles", None)
    given = op_mellin(f, None, 0.0, u, poles=poles)
    assert np.array_equal(given.values, searched.values)


def test_op_pole_on_line(grid_deep):
    u = bump(grid_deep)
    with pytest.raises(PoleOnWeightLine):
        op_mellin(simple_pole(0.5), None, 0.0, u)


def test_tail_precondition(grid_short):
    vals = np.ones(grid_short.n_points, dtype=complex)
    u = HalfLineFunction(grid_short, vals)
    with pytest.raises(TailTooLarge):
        mellin_transform(u, 0.0)


def test_nonfinite_rejected(grid_short):
    vals = np.zeros(grid_short.n_points, dtype=complex)
    vals[5] = np.nan
    with pytest.raises(NonFiniteInput):
        HalfLineFunction(grid_short, vals)


def test_dilate_exact_grid_aligned(grid_short):
    u = bump(grid_short)
    v = dilate(u, 2.0)
    # (delta_2 u)(r) = u(2r): exact index shift
    k = int(round(np.log(2.0) / grid_short.dt))
    assert np.allclose(v.values[: -k], u.values[k:], atol=1e-15)
    with pytest.raises(LambdaOffGrid):
        dilate(u, 1.9)


def test_kappa_unitary(grid_short):
    u = bump(grid_short)
    for lam in (2.0, 3.0, 1.0 / 3.0):
        v = kappa(u, lam)
        assert v.norm(0.0) == pytest.approx(u.norm(0.0), rel=1e-10)


def test_mellin_eval_derivative(grid_short):
    u = bump(grid_short)
    z = 0.4 + 0.3j
    h = 1e-5
    fd = (mellin_eval(u, z + h) - mellin_eval(u, z - h)) / (2 * h)
    assert mellin_eval(u, z, derivative=1) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("name", ["bump", "r_exp", "zero"])
def test_mellin_eval_equals_dense_table(grid_green, name):
    # evaluating exp(z t) on the support only, in row blocks of one reused
    # table, gives bit for bit the dense exp(outer(z, t)) @ w: support in the
    # middle, a prefix, and empty; K = 1 (the cone harvest), 256
    # (green-check), and the K next to multiples of the block size, where
    # fixed blocks would leave a one-row tail.  A row prefix of the dense
    # table is the dense table of the prefix of z.
    r = grid_green.r
    vals = {"bump": bump(grid_green).values, "r_exp": r * np.exp(-r),
            "zero": np.zeros_like(r)}[name]
    u = HalfLineFunction(grid_green, vals)
    rows = mellin.EVAL_ROWS
    ks = [1, rows - 1, rows + 1, 2 * rows + 1, 255, 256, 257]
    z_all = 0.3 + 0.2 * np.exp(2j * np.pi * np.arange(max(ks)) / max(ks))
    table = np.exp(np.outer(z_all, grid_green.t))
    for d in range(3):
        w = u.values * grid_green.dt * grid_green.t ** d
        for k in ks:
            got = mellin_eval(u, z_all[:k], derivative=d)
            assert got.shape == (k,)
            assert np.array_equal(got, table[:k] @ w)
        got = mellin_eval(u, z_all[1], derivative=d)
        assert np.shape(got) == ()
        assert np.array_equal(np.atleast_1d(got), table[1:2] @ w)


@pytest.mark.filterwarnings("error")
def test_mellin_eval_overflow_is_typed(grid_green):
    # u = r e^{-r} on a grid reaching t = 206.6: exp(z t) overflows for
    # Re z > 709 / 206.6, where u has underflowed to 0 and inf * 0 is nan;
    # the typed error is the only report (no numpy warning on stderr)
    u = HalfLineFunction(grid_green, grid_green.r * np.exp(-grid_green.r))
    assert mellin_eval(u, 3.0) == pytest.approx(6.0, rel=1e-10)   # Gamma(4)
    with pytest.raises(InsufficientDecay, match=r"z = \(4\+0j\)"):
        mellin_eval(u, 4.0)
    with pytest.raises(InsufficientDecay, match=r"z = \(3.5\+1j\)"):
        mellin_eval(u, np.array([3.0, 3.5 + 1j, 4.0]))
    # the first overflowing z in the second row block is still the one named
    z = np.full(2 * mellin.EVAL_ROWS, 3.0, dtype=complex)
    z[mellin.EVAL_ROWS + 1], z[-1] = 3.5 + 1j, 4.0
    with pytest.raises(InsufficientDecay, match=r"z = \(3.5\+1j\)"):
        mellin_eval(u, z)


def test_mellin_eval_memory_is_bounded(grid_green):
    # green-check's call, 256 contour nodes on its default grid with
    # u = r e^{-r}, peaks below twice one EVAL_ROWS x N complex table plus
    # 1 MB (the dense K x N table alone is 134 MB)
    u = HalfLineFunction(grid_green, grid_green.r * np.exp(-grid_green.r))
    z = 0.3 + 0.2 * np.exp(2j * np.pi * np.arange(256) / 256)
    tracemalloc.start()
    try:
        mellin_eval(u, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * mellin.EVAL_ROWS * grid_green.n_points * 16 + 2**20


def test_kernel_cutoff_grid_mismatch(grid_short):
    line = mellin_transform(bump(grid_short), 0.0)
    with pytest.raises(GridMismatch, match="source grid"):
        kernel_cutoff(replace(line, grid=None), CutoffFunction())


def test_kernel_cutoff_insufficient_decay(grid_short):
    line = mellin_transform(bump(grid_short), 0.0)
    flat = VerticalLineFunction(0.0, line.rho_nodes,
                                np.ones_like(line.values), grid_short)
    with pytest.raises(InsufficientDecay, match="do not decay"):
        kernel_cutoff(flat, CutoffFunction())


def test_cutoff_profile():
    w = CutoffFunction()
    r = np.linspace(1e-6, 2.0, 2001)
    vals = w(r)
    assert np.all(vals[r <= 0.5] == 1.0)
    assert np.all(vals[r >= 1.0] == 0.0)
    assert np.all(np.diff(vals) <= 1e-12)
    ws = CutoffFunction(scale=4.0)
    assert ws(1.9) == 1.0 and ws(4.1) == 0.0


def test_dilation_commutation(grid_deep):
    u = bump(grid_deep)
    f = simple_pole(-1.2)
    for lam in (2.0, 4.0):
        d = mellin.dilation_commutation_defect(f, 0.0, u, lam)
        assert d <= 1e-9


def test_kernel_cutoff_defect_decay(grid_short):
    # entire kernel matches the line symbol to rapid decay: sup |defect|
    # <rho>^2 over |rho| <= 20, and k on the weight line of gamma = 0
    u = random_bump_field(grid_short, np.random.default_rng(3))
    [(_name, defect, _tol)] = checks.kernel_cutoff_decay([u])
    assert defect <= 1e-8
