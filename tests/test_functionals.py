"""Analytic functionals: contour/point-mass representations, pairing,
Laurent conversion, singular functions, Mellin potentials."""

import numpy as np
import pytest

from mellin_edge.errors import (
    CarrierTooFarRight,
    NotDiscrete,
    PoleOnContour,
    RepresentationInvalid,
    WindingMismatch,
)
from mellin_edge.functionals import (
    AnalyticFunctional,
    Contour,
    MellinPotential,
    from_symbol,
    pair,
    potential,
    singular_function,
    to_point_masses,
)
from mellin_edge.kernels import circle_moments
from mellin_edge.mellin import CutoffFunction
from mellin_edge.symbols import MeromorphicSymbol

from conftest import make_grid, simple_pole

# M omega for the canonical cut-off profile, frozen from independent
# high-precision quadrature of int_0^1 omega(r) r^{z-1} dr
PHI_POINTS = [
    (0.5 + 0j, complex(1.7311019835703316, 0.0)),
    (2.0 + 1.0j, complex(0.18535866956188732, -0.17088953838465731)),
    (-0.3 + 0.7j, complex(-0.8183403932841643, -1.1740345817969677)),
]


def unit_circle(center=0.25, radius=0.4):
    return Contour("circle", center=center, radius=radius)


def test_pair_residue_of_simple_pole():
    # <zeta, h> = h(p) for zeta = contour functional of 1/(z-p)
    zeta = from_symbol(simple_pole(0.25), 0.0, unit_circle())
    val, defect = pair(zeta, lambda z: np.ones_like(z), certify=True)
    assert abs(val - 1.0) <= 1e-12
    assert defect <= 1e-12
    h = lambda z: np.exp(z) + z**2
    assert abs(pair(zeta, h) - (np.exp(0.25) + 0.0625)) <= 1e-10


def test_pair_point_mass_derivatives():
    # <zeta, h> = 2 h(p) + 3 h'(p)
    zeta = AnalyticFunctional(masses=[(0.5, [2.0, 3.0])])
    h = lambda z: np.exp(2.0 * z)
    exact = 2 * np.exp(1.0) + 3 * 2 * np.exp(1.0)
    assert abs(pair(zeta, h) - exact) <= 1e-9
    # explicit derivative callable bypasses the Cauchy circle
    hd = lambda p, l: 2.0**l * np.exp(2.0 * p)
    assert abs(pair(zeta, h, h_derivatives=hd) - exact) <= 1e-13


def test_pole_on_contour_rejected():
    with pytest.raises(PoleOnContour):
        from_symbol(simple_pole(0.65), 0.0, unit_circle())


def test_to_point_masses_partial_fraction_oracle():
    # (3z + 2)/(z - 1)^2: d_0 = 3, d_1 = 5 (sympy apart oracle)
    f = MeromorphicSymbol(np.array([[2.0], [3.0]]),
                          np.array([[1.0], [-2.0], [1.0]]), reduce=False)
    zeta = from_symbol(f, 0.0, unit_circle(center=1.0, radius=0.4))
    pm = to_point_masses(zeta)
    assert len(pm.masses) == 1
    [(_p, weights)] = pm.masses
    assert len(weights) == 2
    assert abs(weights[0] - 3.0) <= 1e-10
    assert abs(weights[1] - 5.0) <= 1e-10


def test_point_mass_radius_independence():
    zeta = from_symbol(simple_pole(0.25, scale=1.7), 0.0, unit_circle())
    d1 = circle_moments(zeta.density, 0.25 + 0j, 0.3, np.arange(3), 256)
    d2 = circle_moments(zeta.density, 0.25 + 0j, 0.12, np.arange(3), 256)
    assert np.max(np.abs(d1 - d2)) <= 1e-10
    assert abs(d1[0] - 1.7) <= 1e-10


def test_not_discrete_branch_cut():
    # sqrt branch point inside the contour: moments depend on the radius
    c = unit_circle(center=0.0, radius=0.5)
    zeta = AnalyticFunctional(contour=c,
                              density=lambda z: np.sqrt(z - 0.1),
                              carrier=[0.1 + 0j])
    with pytest.raises(NotDiscrete):
        to_point_masses(zeta, pole_hints=[0.1 + 0j])


def test_singular_function_closed_form():
    grid = make_grid(-15.0, 2048)
    omega = CutoffFunction()
    p = 0.2 + 0.5j
    zeta = AnalyticFunctional(masses=[(p, [1.5, -0.5])])
    u = singular_function(zeta, omega, grid)
    t = grid.t
    # weights multiply (-log r)^l = (-t)^l
    exact = omega(grid.r) * (1.5 - 0.5 * (-t)) * np.exp(-p * t)
    assert np.max(np.abs(u.values - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_singular_function_contour_matches_point_mass():
    grid = make_grid(-15.0, 2048)
    omega = CutoffFunction()
    zeta = from_symbol(simple_pole(0.25), 0.0, unit_circle())
    u_c = singular_function(zeta, omega, grid)
    u_m = singular_function(to_point_masses(zeta), omega, grid)
    assert np.max(np.abs(u_c.values - u_m.values)) <= 1e-10


def test_singular_function_carrier_guard():
    grid = make_grid(-15.0, 2048)
    zeta = AnalyticFunctional(masses=[(0.45, [1.0])])
    singular_function(zeta, CutoffFunction(), grid, gamma_target=0.0)
    with pytest.raises(CarrierTooFarRight):
        singular_function(zeta, CutoffFunction(), grid, gamma_target=0.1)


def test_mellin_potential_frozen_values():
    phi = MellinPotential(CutoffFunction())
    for z, val in PHI_POINTS:
        got = complex(phi(np.array([z]))[0])
        assert abs(got - val) <= 1e-12 * max(1.0, abs(val))


def test_mellin_potential_residue_and_derivative():
    phi = MellinPotential(CutoffFunction())
    # simple pole at 0 with residue 1: z Phi(z) -> 1
    for eps in (1e-3, 1e-5):
        assert abs(eps * phi(np.array([eps + 0j]))[0] - 1.0) <= 5 * eps
    # pole-free part is bounded through the origin
    assert abs(phi.pole_free_part(np.array([1e-6 + 0j]))[0]) < 10.0
    # derivative matches a central difference
    z = 1.3 + 0.4j
    h = 1e-5
    fd = (phi(np.array([z + h]))[0] - phi(np.array([z - h]))[0]) / (2 * h)
    assert abs(phi(np.array([z]), derivative=1)[0] - fd) <= 1e-8 * abs(fd)


def test_mellin_potential_scaled_cutoff():
    # Phi_s(z) = s^z Phi(z) + s^z-free relation: check against quadrature
    # via the defining integral int_0^s omega(r/s) r^{z-1} dr at a point
    from scipy.integrate import quad
    s = 4.0
    omega = CutoffFunction(scale=s)
    phi = MellinPotential(omega)
    z = 1.5
    oracle, _ = quad(lambda r: omega(r) * r ** (z - 1), 0.0, s,
                     epsabs=1e-13, epsrel=1e-13)
    assert abs(phi(np.array([z + 0j]))[0] - oracle) <= 1e-10


def test_potential_representative():
    # f1 = <zeta_w, Phi(z-w)> has Laurent data of zeta at each carrier point
    zeta = AnalyticFunctional(masses=[(0.2, [2.0, 0.7])])
    f1 = potential(zeta, CutoffFunction())
    d = circle_moments(f1, 0.2 + 0j, 0.15, np.arange(3), 256)
    assert abs(d[0] - 2.0) <= 1e-9
    assert abs(d[1] - 0.7) <= 1e-9
    assert abs(d[2]) <= 1e-9


def test_potential_contour_rep():
    zeta = from_symbol(simple_pole(0.25, scale=1.3), 0.0, unit_circle())
    f1 = potential(zeta, CutoffFunction())
    # evaluate outside the representing contour (radius 0.4), where f1
    # agrees with the meromorphic extension carrying the full residue
    d = circle_moments(f1, 0.25 + 0j, 0.5, np.arange(2), 256)
    assert abs(d[0] - 1.3) <= 1e-8


def test_contour_winding():
    c = unit_circle(center=0.0, radius=1.0)
    assert c.winding(0.2 + 0.1j) == 1
    assert c.winding(2.0 + 0j) == 0
    rect = Contour("rectangle", c=0.0, c_prime=1.0, m=2.0, eps=0.1)
    assert rect.winding(0.5 + 0j) == 1
    assert rect.winding(-1.0 + 0j) == 0


def test_contour_winding_twice_rejected():
    # a square around the pole traversed twice winds 2 times
    square = [0.65 + v for v in (1.0, 1j, -1.0, -1j)]
    contour = Contour("polygon", 256, vertices=square * 2)
    assert contour.winding(0.65) == 2
    with pytest.raises(WindingMismatch, match="winding 2"):
        from_symbol(simple_pole(0.65), 0.0, contour)


def test_functional_needs_masses_or_contour_and_density():
    with pytest.raises(RepresentationInvalid):
        AnalyticFunctional()
    with pytest.raises(RepresentationInvalid):
        AnalyticFunctional(contour=unit_circle())     # no density
