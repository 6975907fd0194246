"""Shared grids, corpora, and independent quadrature oracles."""

import sys

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

from mellin_edge.cone import bump_rhs as bump, random_bump_field  # noqa: F401
from mellin_edge.mellin import LogGrid
from mellin_edge.symbols import MeromorphicSymbol

# property tests draw the same examples on every run, without the
# .hypothesis/ example database and without per-example deadlines
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")

# dt = ln2/96 keeps lambda in {2, 4} grid-aligned (log 2 = 96 dt)
DT = np.log(2.0) / 96.0


def make_grid(t_min, n_points):
    return LogGrid(t_min, t_min + n_points * DT, n_points)


@pytest.fixture(scope="session")
def grid_short():
    """t in [-15, 14.6): compactly supported data around r = 1."""
    return make_grid(-15.0, 4096)


@pytest.fixture(scope="session")
def grid_deep():
    """t in [-50, 9.2): room for slow r^{-p} tails at r -> 0."""
    return make_grid(-50.0, 8192)


@pytest.fixture(scope="session")
def grid_green():
    """t in [-30, 206.6): long right end for slow pole-to-line decay
    rates of weight-shift outputs."""
    return make_grid(-30.0, 32768)


def bump_callable(a=1.0, b=3.0, amplitude=1.0):
    def f(r):
        if not (a < r < b):
            return 0.0
        x = (r - a) / (b - a)
        return amplitude * np.exp(-1.0 / (x * (1.0 - x)) + 4.0)
    return f


def simple_pole(p, scale=1.0):
    """f(z) = scale / (z - p), constant in y."""
    return MeromorphicSymbol([np.array([scale])],
                             [np.array([-p]), np.array([1.0])])


def double_pole(p, scale=1.0):
    """f(z) = scale / (z - p)^2."""
    return MeromorphicSymbol([np.array([scale])],
                             [np.array([p * p]), np.array([-2.0 * p]),
                              np.array([1.0])])


def count_pole_searches(monkeypatch):
    """Route every mellin_edge binding of symbols.pole_records, which
    locate_poles calls too, through a counter; returns the list that gets
    the (num, den, y) of each node searched."""
    from mellin_edge import symbols

    search = symbols.pole_records
    calls = []

    def counted(f, ys):
        calls.extend((f.num.tobytes(), f.den.tobytes(), y) for y in ys)
        return search(f, ys)

    for name, mod in list(sys.modules.items()):
        if (name.partition(".")[0] == "mellin_edge"
                and getattr(mod, "pole_records", None) is search):
            monkeypatch.setattr(mod, "pole_records", counted)
    return calls


def quad_mellin(f, z, a, b, derivative=0, epsabs=1e-12, epsrel=1e-12):
    """Independent adaptive-quadrature Mellin transform of a real-valued
    compactly supported function: int_a^b r^{z-1} log^d r f(r) dr."""
    z = complex(z)

    def integrand_re(r):
        return (r ** (z.real - 1) * np.cos(z.imag * np.log(r))
                * np.log(r) ** derivative * f(r))

    def integrand_im(r):
        return (r ** (z.real - 1) * np.sin(z.imag * np.log(r))
                * np.log(r) ** derivative * f(r))

    re, _ = quad(integrand_re, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
    im, _ = quad(integrand_im, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
    return complex(re, im)
