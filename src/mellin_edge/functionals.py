"""Analytic functionals carried by compact sets.

Two representations: a closed contour with a quadrature density
(<zeta, h> = oint f(z) h(z) dz / (2 pi i)) and finite sums of point masses
with derivative orders (<zeta, h> = sum c_{jl} h^(l)(p_j)), and the
synthesis of singular functions omega(r) <zeta, r^{-z}>.
"""

import numpy as np

from .errors import (
    CarrierTooFarRight,
    NotDiscrete,
    PoleOnContour,
    RepresentationInvalid,
    WindingMismatch,
)
from .kernels import (
    circle_moments,
    circle_nodes,
    contour_synthesis,
    scaled_singular,
)
from .mellin import HalfLineFunction
from .symbols import locate_poles

CONTOUR_CLEARANCE = 1e-6
LAURENT_TOL = 1e-10
MAX_MASS_ORDER = 8
STABILIZE_TOL = 1e-8


class Contour:
    """Closed positively oriented quadrature contour."""

    def __init__(self, kind, n_nodes=256, **params):
        self.kind = kind
        self.n_nodes = int(n_nodes)
        if kind == "circle":
            self.center = complex(params["center"])
            self.radius = float(params["radius"])
            if self.radius <= 0:
                raise ValueError("radius must be positive")
        elif kind == "polygon":
            self.vertices = [complex(v) for v in params["vertices"]]
            if len(self.vertices) < 3:
                raise ValueError("polygon needs at least 3 vertices")
        else:
            raise ValueError("unknown contour kind %r" % kind)

    def nodes(self):
        """(z nodes, dz weights) for the trapezoid rule along the contour."""
        if self.kind == "circle":
            return circle_nodes(self.center, self.radius, self.n_nodes)[1:]
        verts = self.vertices
        lengths = [abs(verts[(i + 1) % len(verts)] - verts[i])
                   for i in range(len(verts))]
        total = sum(lengths)
        zs, dzs = [], []
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            n_edge = max(2, int(round(self.n_nodes * lengths[i] / total)))
            tt = (np.arange(n_edge) + 0.5) / n_edge   # midpoint rule per edge
            zs.append(v + tt * (w - v))
            dzs.append(np.full(n_edge, (w - v) / n_edge, dtype=complex))
        return np.concatenate(zs), np.concatenate(dzs)

    def winding(self, p):
        z, _dz = self.nodes()
        ang = np.angle((z - p) / np.roll(z - p, 1))
        return int(round(np.sum(ang) / (2 * np.pi)))


def masses_from_orders(by_pole):
    """Point masses [(p, weights)] from {p: {derivative order: weight}},
    sorted by p."""
    masses = []
    for p, orders in sorted(by_pole.items(),
                            key=lambda kv: (kv[0].real, kv[0].imag)):
        w = np.zeros(max(orders) + 1, dtype=complex)
        for l, c in orders.items():
            w[l] = c
        masses.append((p, w))
    return masses


class AnalyticFunctional:
    """Functional on entire functions, carried by a compact set; point
    masses are [(p, weights)], weights[l] the weight of h^(l)(p)."""

    def __init__(self, contour=None, density=None, masses=None, carrier=None):
        if masses is not None:
            self.rep = "point_mass"
            self.masses = [(complex(p), np.asarray(w, dtype=complex))
                           for p, w in masses]
            self.contour = None
            self.density = None
            self.carrier = (carrier if carrier is not None
                            else [p for p, _w in self.masses])
        elif contour is not None and density is not None:
            self.rep = "contour"
            self.contour = contour
            self.density = density
            self.masses = None
            self.carrier = list(carrier) if carrier is not None else []
        else:
            raise RepresentationInvalid(
                "need either masses or contour+density"
            )

    def carrier_max_re(self):
        if self.carrier:
            return max(p.real for p in self.carrier)
        return None


def from_symbol(f, y, contour):
    """zeta(y): h -> oint f(y, z) h(z) dz/(2 pi i) along the contour."""
    z, _dz = contour.nodes()
    enclosed = []
    for p, _m in locate_poles(f, y).pairs:
        d = np.min(np.abs(z - p))
        if d < CONTOUR_CLEARANCE:
            raise PoleOnContour("pole %s at distance %.3e from contour" % (p, d))
        w = contour.winding(p)
        if w == 1:
            enclosed.append(p)
        elif w != 0:
            raise WindingMismatch("winding %d around pole %s" % (w, p))
    return AnalyticFunctional(contour=contour, density=lambda zz: f(y, zz),
                              carrier=enclosed)


def to_point_masses(zeta):
    """Convert a contour representation to point masses via Laurent data
    of orders up to MAX_MASS_ORDER at each point of its carrier."""
    if zeta.rep == "point_mass":
        return zeta
    masses = []
    for p in zeta.carrier:
        others = [q for q in zeta.carrier if q != p]
        dmin = min((abs(q - p) for q in others), default=np.inf)
        radius = min(0.5, dmin / 2)
        ks = np.arange(MAX_MASS_ORDER + 1)
        d = circle_moments(zeta.density, p, radius, ks, 256)
        d2 = circle_moments(zeta.density, p, radius / 2, ks, 256)
        scale = max(1.0, np.max(np.abs(d)))
        if np.max(np.abs(d - d2)) > STABILIZE_TOL * scale:
            raise NotDiscrete(
                "contour moments at %s do not stabilize under radius change" % p
            )
        order = MAX_MASS_ORDER
        while order >= 0 and abs(d[order]) <= LAURENT_TOL * scale:
            order -= 1
        if order < 0:
            continue
        masses.append((p, d[: order + 1]))
    return AnalyticFunctional(masses=masses)


def singular_function(zeta, omega, grid, gamma_target=None):
    """omega(r) <zeta_z, r^{-z}> on the log grid.

    For point masses this is exactly
    omega(r) sum_j sum_l c_{jl} (-log r)^l r^{-p_j}.
    """
    if gamma_target is not None:
        mre = zeta.carrier_max_re()
        if mre is not None and mre >= 0.5 - gamma_target:
            raise CarrierTooFarRight(
                "carrier reaches Re = %g >= %g" % (mre, 0.5 - gamma_target)
            )
    if zeta.rep == "point_mass":
        return HalfLineFunction(grid, scaled_singular(zeta.masses,
                                                      grid.t, 1.0, omega))
    z, dz = zeta.contour.nodes()
    fv = np.asarray(zeta.density(z), dtype=complex)
    return HalfLineFunction(grid, omega(grid.r)
                            * contour_synthesis(grid, z, fv * dz))
