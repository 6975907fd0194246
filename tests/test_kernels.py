"""The shared numerical kernels against closed forms."""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_edge.kernels import (
    CERT_FACTOR,
    CERT_FRACS,
    CERT_MARGIN,
    CERT_T_FLOOR,
    CSV_SMALL_ROWS,
    G17_TIE_BOUND,
    certify_flat,
    circle_moments,
    circle_nodes,
    contour_synthesis,
    csv_rows,
    g17_digits,
    g17_field,
    point_mass_synthesis,
    residue_weights,
    scaled_singular,
    windowed_mass,
)
from mellin_edge import kernels
from mellin_edge.cone import ConeProblem, bump_rhs, detect_branching, solve
from mellin_edge.errors import CertificationFailed
from mellin_edge.mellin import CutoffFunction
from mellin_edge.symbols import decode_rows

from conftest import make_grid


@settings(max_examples=40, deadline=None)
@given(re_p=st.floats(-1.0, 0.5, exclude_min=True, exclude_max=True),
       im_p=st.floats(-2.0, 2.0), k=st.integers(0, 3),
       scale=st.floats(1.0, 64.0), c_re=st.floats(-2.0, 2.0),
       c_im=st.floats(-2.0, 2.0))
def test_point_mass_synthesis_scaled_closed_form(re_p, im_p, k, scale, c_re,
                                                 c_im):
    # weight c (-1)^k at order k synthesizes c (r s)^{-p} log^k (r s)
    grid = make_grid(-10.0, 1024)
    p, c = complex(re_p, im_p), complex(c_re, c_im)
    w = np.zeros(k + 1, dtype=complex)
    w[k] = c * (-1) ** k
    got = point_mass_synthesis(grid.t + np.log(scale), [(p, w)])
    rs = grid.r * scale
    exact = c * rs ** (-p) * np.log(rs) ** k
    scale_ref = max(np.max(np.abs(exact)), 1e-300)
    assert np.max(np.abs(got - exact)) <= 1e-12 * scale_ref


def test_circle_moments_laurent_and_cauchy():
    # 3/(z-1)^2 + 2/(z-1) + z: d_0 = 2, d_1 = 3, d_2 = 0
    f = lambda z: 3 / (z - 1) ** 2 + 2 / (z - 1) + z
    d = circle_moments(f, 1.0, 0.5, np.arange(3), 256)
    assert np.max(np.abs(d - [2, 3, 0])) <= 1e-13
    # k = -(l+1) gives h^(l)(c) / l! for entire h
    h = lambda z: np.exp(2 * z)
    got = circle_moments(h, 0.3, 0.25, [-1, -2, -3], 128)
    exact = np.exp(0.6) * np.array([1.0, 2.0, 2.0])
    assert np.max(np.abs(got - exact)) <= 1e-13


def test_residue_weights_double_pole():
    # r^{-z} e^{az} / (z - p)^2 has residue (a - log r) e^{ap} r^{-p}:
    # w_0 = a e^{ap}, w_1 = e^{ap} in sum_k w_k (-log r)^k r^{-p}
    a, p = 0.7, -0.3 + 0.2j
    taylor = [np.exp(a * p), a * np.exp(a * p)]
    w = residue_weights([0.0, 1.0], taylor)
    assert np.max(np.abs(w - [a * np.exp(a * p), np.exp(a * p)])) <= 1e-15


def test_windowed_mass_window_and_nonfinite():
    s = np.linspace(-20.0, 5.0, 501)
    dt = s[1] - s[0]
    v = np.exp(-0.5 * s) + 0j          # weight 0: |e^{s/2} v| = 1
    full = np.sqrt(dt * np.sum(s >= CERT_T_FLOOR))
    assert abs(windowed_mass(s, v, 0.0, dt) - full) <= 1e-14 * full
    # samples left of the window do not count, even if not finite
    v_left = v.copy()
    v_left[0] = np.nan
    assert windowed_mass(s, v_left, 0.0, dt) == windowed_mass(s, v, 0.0, dt)
    for bad in (np.nan, np.inf):
        v_bad = v.copy()
        v_bad[-1] = bad
        with np.errstate(invalid="ignore"):
            assert windowed_mass(s, v_bad, 0.0, dt) == np.inf


def test_certify_flat_ratios_and_failure():
    shifts = np.array([f * (1.0 - CERT_MARGIN) for f in CERT_FRACS])
    ratios = certify_flat(lambda g: np.exp(-g), 0.5, 1.0, "x")
    assert np.allclose(ratios, np.exp(-shifts), rtol=1e-15)
    assert all(r <= CERT_FACTOR for r in ratios)
    # mass growing like e^{10 g}: the first shift whose ratio passes
    # CERT_FACTOR = 50 is named (e^{10 * 0.225} ~ 9.5, e^{10 * 0.54} ~ 221)
    with pytest.raises(CertificationFailed) as err:
        certify_flat(lambda g: np.exp(10 * g), 0.5, 1.0, "what")
    assert str(err.value) == (
        "what fails the weight check at beta'=0.54 (mass ratio %.3e); "
        "a deeper harvest is likely needed" % np.exp(10 * 0.54))
    # a non-finite mass never certifies
    with pytest.raises(CertificationFailed):
        certify_flat(lambda g: np.nan if g > 0.5 else 1.0, 0.5, 1.0, "x")


def test_scaled_singular_at_unit_scale_is_plain_synthesis():
    # s = 1: t + log 1 == t and sqrt(1) == 1 exactly, so the bits are those
    # of omega(e^t) times the point-mass synthesis at t
    grid = make_grid(-10.0, 1024)
    omega = CutoffFunction()
    masses = [(-0.3 + 0.2j, np.array([1.0, 0.5 - 0.25j])),
              (0.1 + 0j, np.array([0.0, 0.0, 2.0]))]
    assert np.array_equal(scaled_singular(masses, grid.t, 1.0, omega),
                          omega(np.exp(grid.t))
                          * point_mass_synthesis(grid.t, masses))


def test_scaled_singular_closed_form():
    # s^{1/2} omega(r s) c (r s)^{-p} log^k (r s) for weight c (-1)^k at k
    grid = make_grid(-10.0, 1024)
    omega = CutoffFunction()
    p, c, s = -0.2 + 0.3j, 1.5 - 0.5j, 6.0
    got = scaled_singular([(p, np.array([0.0, -c]))], grid.t, s, omega)
    rs = grid.r * s
    exact = np.sqrt(s) * omega(rs) * c * rs ** (-p) * np.log(rs)
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("t_min, n", [(-1.0, 16), (-1.0, 32), (-15.0, 4096),
                                      (-30.0, 32768)])
def test_contour_synthesis_matches_dense(t_min, n):
    # the factored product against the dense table exp(outer(-t, z)) @ f_dz,
    # for odd and even log2 n
    grid = make_grid(t_min, n)
    _theta, z, dz = circle_nodes(0.3 + 0.1j, 0.15, 256)
    f_dz = np.exp(z) / (z - 0.3 - 0.1j) ** 2 * dz
    dense = (np.exp(np.outer(-grid.t, z)) @ f_dz) / (2j * np.pi)
    got = contour_synthesis(grid, z, f_dz)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_contour_synthesis_simple_pole_residue(grid_green):
    # Gamma(1+z)/(z - p) on a circle around p synthesizes Gamma(1+p) r^{-p}
    from scipy.special import gamma

    for p in (0.25, 0.3 + 0.2j):
        _theta, z, dz = circle_nodes(p, 0.1, 256)
        got = contour_synthesis(grid_green, z, gamma(1 + z) / (z - p) * dz)
        exact = gamma(1 + p) * np.exp(-grid_green.t * p)
        err = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        assert err <= 1e-12


# ----------------------------------------------------------------------
# CSV rows: byte for byte against '%.17g' % v and '%d' % v

def g17_lines(values):
    """The rows of g17_field itself (csv_rows writes few rows with '%.17g'
    directly)."""
    f = g17_field(np.asarray(values, dtype=np.float64))
    return [col[col != 0].tobytes().decode() for col in f.T]


def percent_g(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=400)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_any_float(values):
    # st.floats() draws subnormals, +-0.0, +-inf and nan too
    assert g17_lines(values) == percent_g(values)


def tie_family():
    """x = m / 2^(j+1), m odd with m 5^j in [2e16, 2e17): x 10^j is half an
    odd integer of 17 digits, an exact tie at the 17th digit."""
    rng = np.random.default_rng(18)
    xs = [186714551458061.875, 131073 / 2 ** 18]
    for j in range(1, 25):
        lo = -(-2 * 10 ** 16 // 5 ** j)
        hi = min(2 * 10 ** 17 // 5 ** j, 2 ** 53)
        for m in {lo, hi - 1, *rng.integers(lo, hi, 6).tolist()}:
            m |= 1
            if m * 5 ** j < 2 * 10 ** 17 and m < 2 ** 53:
                xs.append(math.ldexp(m, -(j + 1)))
    return np.array(xs + [-x for x in xs])


def test_g17_exact_ties_round_half_even():
    xs = tie_family()
    assert len(xs) > 200
    assert g17_lines(xs) == percent_g(xs)
    # where 10^(16-e) is a double the product is exact: its ties are
    # certified and rounded on the fast path
    d, e, sure = g17_digits(xs)
    assert sure[(e >= -6) & (e <= 16)].all()


def test_g17_dyadic_families():
    rng = np.random.default_rng(53)
    ms = rng.integers(2 ** 52, 2 ** 53, 400).tolist()
    xs = [math.ldexp(m, k) for m in ms for k in range(-1126, 971, 37)]
    assert g17_lines(xs) == percent_g(xs)


def test_g17_around_powers_of_ten():
    xs = []
    for k in range(-300, 301):
        for toward in (math.inf, 0.0):
            x = float("1e%d" % k)
            for _ in range(5):
                xs += [x, -x]
                x = math.nextafter(x, toward)
    assert g17_lines(xs) == percent_g(xs)


def test_g17_decade_carries_and_layouts():
    # rounding carries to 10^17; %g switches to the exponent form at 1e17
    # and below 1e-4; three-digit exponents
    xs = [9.999999999999999e22, 9.9999999999999999e16, 1e17, 1e16,
          99999999999999984.0, 0.99999999999999994, 9.9999999999999995e-5,
          1e-4, 1.5e-5, 0.5, 123456.75, 1e100, 1.7976931348623157e308,
          2.2250738585072014e-308, 1e-280, 1e280, 9.999999999999999e279]
    xs += [-x for x in xs]
    assert g17_lines(xs) == percent_g(xs)


def writes_percent_g(xs):
    """Whether csv_rows writes the float array xs as '%.17g' % v, line by
    line (the reference is one % operation over all of xs)."""
    return b"".join(csv_rows([xs])).decode() == (
        "%.17g\n" * xs.size) % tuple(xs.tolist())


def test_g17_random_bit_patterns():
    # 4.2e6 seeded 64-bit patterns: every exponent, nan and inf payloads,
    # subnormals; compared in batches, two processes at a time
    rng = np.random.default_rng(1971)
    batches = [rng.integers(0, 2 ** 64, 2 ** 18, dtype=np.uint64).view(
        np.float64) for _ in range(16)]
    with ProcessPoolExecutor(
            2, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert list(pool.map(writes_percent_g, batches)) == [True] * 16


def test_g17_certifies_every_cone_solve_float():
    # the solution.csv floats of a cone_solve input (N = 8192, 9 y nodes):
    # no r, re_u or im_u needs the per-element fallback
    grid = make_grid(-50.0, 8192)
    a = decode_rows([[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]],
                     [[1.0, 0.0]]])
    ys = np.linspace(-0.004, 0.004, 9)
    problem = ConeProblem(a, 0, 0.0, bump_rhs(grid, 0.9, 2.7, 1.3), ys,
                          y_domain=(-0.5, 0.5))
    br = detect_branching(problem, 0.75)
    values = [grid.r]
    for y, poles in zip(ys, br.poles):
        u = solve(problem, y, poles)
        values += [u.values.real, u.values.imag]
    _d, _e, sure = g17_digits(np.concatenate(values))
    assert np.count_nonzero(~sure) == 0
    assert np.abs(np.concatenate(values)).min() > 0


def test_g17_tie_bound_covers_the_product_error():
    # the two-product p + l against exact rational arithmetic: within the
    # 7.2e-15 the bound allows for, on random values of every decade
    from fractions import Fraction

    rng = np.random.default_rng(7)
    xs = 10.0 ** rng.uniform(-279, 279, 3000) * rng.uniform(1, 10, 3000)
    d, e, sure = g17_digits(xs)
    for x, di, ei, ok in zip(xs.tolist(), d.tolist(), e.tolist(),
                             sure.tolist()):
        exact = Fraction(x) * Fraction(10) ** (16 - ei)
        assert 10 ** 16 <= di < 10 ** 17
        assert abs(exact - di) <= Fraction(1, 2) or not ok
        assert ok or abs(abs(exact - di) - Fraction(1, 2)) < G17_TIE_BOUND


@pytest.mark.parametrize("n", [6, CSV_SMALL_ROWS + 6])
def test_csv_rows_columns(n):
    # up to CSV_SMALL_ROWS rows of arrays '%.17g' % v writes them itself;
    # beyond, the fast path does, with the same bytes
    ints = np.resize([0, 7, -7, 10, 2 ** 63 - 1, -2 ** 63], n)
    got = b"".join(csv_rows([np.arange(n) * 0.1, ints, np.full(n, 2.5)])
                   ).decode()
    assert got == "".join("%.17g,%d,2.5\n" % (0.1 * k, v)
                          for k, v in enumerate(ints.tolist()))


def test_csv_rows_fields():
    # planes gathered by row index repeat their columns, and planes of one
    # column repeat on every row; rows come in chunks
    ys = np.array([0.1, -0.2, 0.3])
    idx = np.arange(5000) % 3
    chunks = list(csv_rows([g17_field(ys)[:, idx], idx, g17_field([2.5])]))
    assert len(chunks) > 1
    assert b"".join(chunks).decode() == "".join(
        "%.17g,%d,2.5\n" % (ys[k], k) for k in idx.tolist())
    assert b"".join(csv_rows([np.zeros(0)])) == b""


def test_csv_rows_chunk_independent(monkeypatch):
    # about 10k rows crossing every chunk boundary: a one-column block, an
    # int column and floats with the fallback values (zero, a subnormal,
    # nan, +-inf, near-ties) at and around the boundaries.  One- and
    # seven-row chunks (0.5 ms a chunk) write the first 1100 rows only
    xs = tie_family()
    near = xs[~g17_digits(xs)[2]][:4]
    assert near.size == 4
    n = 10007
    rng = np.random.default_rng(26)
    ints = rng.integers(-10 ** 12, 10 ** 12, n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    odd = np.concatenate([[0.0, -0.0, 5e-324, -2.5e-310, np.nan, np.inf,
                           -np.inf], near])
    for at in (0, 6, 7, 1023, 1024, 4095, 4096, 8191, 8192, n - odd.size):
        floats[at:at + odd.size] = odd
    want = ["0.125,%d,%.17g\n" % row
            for row in zip(ints.tolist(), floats.tolist())]
    for rows, m in ((1, 1100), (7, 1100), (1024, n), (4096, n)):
        monkeypatch.setattr(kernels, "CSV_CHUNK_ROWS", rows)
        chunks = list(csv_rows([g17_field([0.125]), ints[:m], floats[:m]]))
        assert len(chunks) == -(-m // rows)
        assert b"".join(chunks) == "".join(want[:m]).encode()
