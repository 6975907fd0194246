"""Analytic functionals: contour/point-mass representations, Laurent
conversion, singular functions."""

import numpy as np
import pytest

from mellin_edge.errors import (
    CarrierTooFarRight,
    NotDiscrete,
    PoleOnContour,
    RepresentationInvalid,
)
from mellin_edge.functionals import (
    AnalyticFunctional,
    Contour,
    from_symbol,
    singular_function,
    to_point_masses,
)
from mellin_edge.kernels import circle_moments
from mellin_edge.mellin import CutoffFunction
from mellin_edge.symbols import MeromorphicSymbol

from conftest import make_grid, simple_pole


def unit_circle(center=0.25, radius=0.4):
    return Contour(center, radius)


def test_pole_on_contour_rejected():
    with pytest.raises(PoleOnContour):
        from_symbol(simple_pole(0.65), 0.0, unit_circle())


def test_to_point_masses_partial_fraction_oracle():
    # (3z + 2)/(z - 1)^2: d_0 = 3, d_1 = 5 (sympy apart oracle)
    f = MeromorphicSymbol(np.array([[2.0], [3.0]]),
                          np.array([[1.0], [-2.0], [1.0]]))
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
        to_point_masses(zeta)


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


def test_contour_winding():
    c = unit_circle(center=0.0, radius=1.0)
    assert c.winding(0.2 + 0.1j) == 1
    assert c.winding(2.0 + 0j) == 0


def test_functional_needs_masses_or_contour_and_density():
    with pytest.raises(RepresentationInvalid):
        AnalyticFunctional()
    with pytest.raises(RepresentationInvalid):
        AnalyticFunctional(contour=unit_circle())     # no density
