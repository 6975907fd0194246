"""Meromorphic symbol families: reduction, pole location, Laurent data,
branch tracking, weight splitting, algebra, serialization."""

import io
import json

import numpy as np
import pytest

from mellin_edge.errors import (
    BandOccupied,
    DegenerateDenominator,
    DomainMismatch,
    EllipticityViolated,
    NotAPole,
    PoleTooClose,
)
from mellin_edge.symbols import (
    ConormalSymbol,
    MeromorphicSymbol,
    branches_to_csv,
    differentiate_y,
    invert_symbol,
    laurent_expand,
    locate_poles,
    multiply,
    split_by_weight,
    strip_bound,
    symbol_from_json,
    track_branches,
    translate,
)

from conftest import double_pole, simple_pole


def branching_symbol():
    """f(y, z) = 1 / (z^2 - y^2): poles +-y merging at y = 0."""
    return MeromorphicSymbol(
        np.ones((1, 1)),
        np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        y_domain=(-0.5, 0.5),
    )


def test_reduce_cancels_common_factor():
    # (z - 1)(z - 2) / (z - 1) reduces to z - 2: no pole at z = 1
    num = np.array([[2.0], [-3.0], [1.0]])
    den = np.array([[-1.0], [1.0]])
    f = MeromorphicSymbol(num, den)
    assert f.den.shape == (1, 1)
    assert locate_poles(f, 0.0) == []


def test_locate_poles_quadratic_oracle():
    # z^2 + (y - 1) z - y has roots 1 and -y (quadratic formula)
    den = np.array([[0.0, -1.0], [-1.0, 1.0], [1.0, 0.0]])
    f = MeromorphicSymbol(np.ones((1, 1)), den, reduce=False)
    for y in (0.3, -0.7, 2.0):
        got = sorted(locate_poles(f, y), key=lambda pm: pm[0].real)
        exact = sorted([-y, 1.0])
        assert len(got) == 2
        for (p, m), e in zip(got, exact):
            assert m == 1
            assert p == pytest.approx(e, abs=1e-10)


def test_locate_poles_multiplicity():
    f = double_pole(0.25)
    [(p, m)] = locate_poles(f, 0.0)
    assert p == pytest.approx(0.25, abs=1e-9)
    assert m == 2


def test_laurent_expand_partial_fraction_oracle():
    # (3z + 2)/(z - 1)^2 = 3/(z - 1) + 5/(z - 1)^2  (sympy apart)
    f = MeromorphicSymbol(np.array([[2.0], [3.0]]),
                          np.array([[1.0], [-2.0], [1.0]]), reduce=False)
    d = laurent_expand(f, 0.0, 1.0 + 0j, 1)
    assert abs(d[0] - 3.0) <= 1e-10
    assert abs(d[1] - 5.0) <= 1e-10


def test_laurent_radius_independent():
    f = simple_pole(0.3, scale=2.0) + double_pole(-0.5, scale=0.7)
    for radius in (0.1, 0.2, 0.35):
        d = laurent_expand(f, 0.0, 0.3 + 0j, 0, contour_radius=radius)
        assert abs(d[0] - 2.0) <= 1e-10


def test_laurent_not_a_pole():
    f = simple_pole(2.0)
    with pytest.raises(NotAPole):
        laurent_expand(f, 0.0, 0.0 + 0j, 0, contour_radius=0.25)


def test_laurent_pole_too_close():
    f = simple_pole(0.0) + simple_pole(0.1)
    with pytest.raises(PoleTooClose):
        laurent_expand(f, 0.0, 0.0 + 0j, 0, contour_radius=0.3)


def test_strip_bound():
    poles = [(0.2 + 3.0j, 1), (0.2 - 5.0j, 1), (2.0 + 99.0j, 1)]
    assert strip_bound(poles, 0.0, 1.0) == 5.0
    assert strip_bound(poles, 3.0, 4.0) == 0.0


def test_track_branches_branching_pair():
    f = branching_symbol()
    ys = np.linspace(-0.5, 0.5, 41)
    sd = track_branches(f, ys)
    assert len(sd.branches) == 2
    assert len(sd.collision_events) == 1
    assert sd.collision_events[0] == pytest.approx(0.0, abs=1e-12)
    # residues at y != 0: 1/(z^2 - y^2) has residue 1/(2y) at z = y
    k = 40          # y = 0.5 node
    for b in sd.branches:
        p, m, laur = b.samples[k]
        assert m == 1
        assert abs(laur[0] - 1.0 / (2.0 * p)) <= 1e-10
    # double pole exactly at the collision node
    mults = sorted(m for _p, m in sd.pairs_at(20))
    assert mults == [2]


def test_track_branches_constant_pole():
    sd = track_branches(simple_pole(0.25), np.linspace(-1, 1, 11))
    assert len(sd.branches) == 1
    assert sd.collision_events == []
    ks = sd.branches[0].nodes()
    assert ks == list(range(11))


def test_track_branches_pole_free():
    f = MeromorphicSymbol(np.array([[1.0], [2.0]]), np.ones((1, 1)))
    sd = track_branches(f, np.linspace(0, 1, 5))
    assert sd.branches == []
    assert sd.collision_events == []


def test_spectral_remainder_holomorphic():
    f = simple_pole(0.3) + MeromorphicSymbol(np.array([[5.0]]), np.ones((1, 1)))
    sd = track_branches(f, np.array([0.0]))
    # subtracting the singular part leaves the constant 5
    zs = 0.3 + 0.05 * np.exp(1j * np.linspace(0, 2 * np.pi, 7))
    assert np.max(np.abs(sd.remainder(0, zs) - 5.0)) <= 1e-9


def test_split_by_weight_convention():
    f = branching_symbol()
    res = split_by_weight(f, 0.3, 0.0, 0.2)
    # at y = 0.3 > 0 the pole -y sits left of beta = 0, +y to the right
    p0 = locate_poles(res.f0, 0.3)
    p1 = locate_poles(res.f1, 0.3)
    assert len(p0) == 1 and p0[0][0] == pytest.approx(-0.3, abs=1e-9)
    assert len(p1) == 1 and p1[0][0] == pytest.approx(0.3, abs=1e-9)
    assert 0.0 < res.eps1 < res.eps0 < 0.2
    # the split reconstructs f
    zs = np.array([1.0 + 2.0j, -2.0 + 0.5j, 0.1 + 1.0j])
    recon = res.f0(0.3, zs) + res.f1(0.3, zs)
    assert np.max(np.abs(recon - f(0.3, zs))) <= 1e-12


def test_split_band_occupied():
    f = simple_pole(0.1)
    with pytest.raises(BandOccupied):
        split_by_weight(f, 0.0, 0.0, 0.2)


def test_multiply_and_translate():
    f = simple_pole(0.5)
    g = simple_pole(-1.0)
    h = multiply(f, g)
    z = 2.0 + 1.0j
    assert h(0.0, z) == pytest.approx(f(0.0, z) * g(0.0, z), rel=1e-12)
    # translation moves the pole by -sigma
    t = translate(f, 0.75)
    [(p, m)] = locate_poles(t, 0.0)
    assert p == pytest.approx(0.5 - 0.75, abs=1e-10)


def test_zero_denominator_rejected():
    with pytest.raises(DegenerateDenominator):
        MeromorphicSymbol(np.ones((1, 1)), np.zeros((3, 2)))


def test_disjoint_y_domains_rejected():
    f = MeromorphicSymbol(np.ones((1, 1)), np.array([[1.0], [1.0]]),
                          y_domain=(0.0, 1.0))
    g = MeromorphicSymbol(np.ones((1, 1)), np.array([[2.0], [1.0]]),
                          y_domain=(2.0, 3.0))
    for op in (f.__add__, f.__sub__):
        with pytest.raises(DomainMismatch, match="disjoint"):
            op(g)


def test_differentiate_y_quotient_rule():
    f = branching_symbol()
    df = differentiate_y(f)
    y, z = 0.3, 1.5 + 0.5j
    # d/dy [1/(z^2 - y^2)] = 2y / (z^2 - y^2)^2
    exact = 2 * y / (z * z - y * y) ** 2
    assert df(y, z) == pytest.approx(exact, rel=1e-12)


def test_invert_conormal_symbol():
    a = ConormalSymbol([np.array([0.0, 0.0, -1.0]), np.array([0.0]),
                        np.array([1.0])], y_domain=(-0.5, 0.5))
    f = invert_symbol(a)
    y, z = 0.2, 1.0 + 1.0j
    assert f(y, z) == pytest.approx(1.0 / (z * z - y * y), rel=1e-12)
    bad = ConormalSymbol([np.array([1.0]), np.array([0.0, 1.0])],
                         y_domain=(-1.0, 1.0))
    with pytest.raises(EllipticityViolated):
        invert_symbol(bad)       # leading coefficient vanishes at y = 0


def test_symbol_json_roundtrip():
    # c[i][j] = [re, im] of the z^i y^j coefficient
    obj = {"num": [[[1.0, 0.0]]],
           "den": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                   [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                   [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
           "y_domain": [-0.5, 0.5]}
    f = branching_symbol()
    g = symbol_from_json(obj)
    assert np.array_equal(g.num, f.num)
    assert np.array_equal(g.den, f.den)
    assert g.y_domain == f.y_domain


def test_conormal_json_roundtrip():
    a = ConormalSymbol([np.array([1.0, 2.0]), np.array([3.0])],
                       y_domain=(0.0, 1.0))
    b = ConormalSymbol.from_json(json.loads(json.dumps(a.to_json())))
    assert all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs))
    assert b.y_domain == (0.0, 1.0)


def test_branches_csv_format():
    sd = track_branches(simple_pole(0.25), np.array([0.0, 1.0]))
    buf = io.StringIO()
    branches_to_csv(sd, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "y,Re p,Im p,multiplicity,branch_id"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.25, abs=1e-12)
    assert row[3] == "1" and row[4] == "0"
