"""Analytic functionals carried by compact sets.

Two representations: a closed contour with a quadrature density
(<zeta, h> = oint f(z) h(z) dz / (2 pi i)) and finite sums of point masses
with derivative orders (<zeta, h> = sum c_{jl} h^(l)(p_j)).  The module also
provides the Mellin potential Phi = M omega (meromorphic, simple pole at 0
with residue 1) and the synthesis of singular functions omega(r) <zeta, r^{-z}>.
"""

from dataclasses import dataclass
from math import comb, factorial

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
    point_mass_synthesis,
)
from .mellin import CutoffFunction, HalfLineFunction
from .symbols import LAURENT_TOL

CONTOUR_CLEARANCE = 1e-6
MAX_MASS_ORDER = 8
STABILIZE_TOL = 1e-8
POTENTIAL_N_QUAD = 400


class Contour:
    """Closed positively oriented quadrature contour."""

    def __init__(self, kind, n_nodes=256, **params):
        self.kind = kind
        self.n_nodes = int(n_nodes)
        self.params = params
        if kind == "circle":
            self.center = complex(params["center"])
            self.radius = float(params["radius"])
            if self.radius <= 0:
                raise ValueError("radius must be positive")
        elif kind == "rectangle":
            c, cp = params["c"], params["c_prime"]
            m, eps = params["m"], params["eps"]
            self.vertices = [complex(c - eps, -(m + eps)),
                             complex(cp + eps, -(m + eps)),
                             complex(cp + eps, m + eps),
                             complex(c - eps, m + eps)]
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

    def scaled(self, factor):
        """A nearby admissible contour (scaled about the center/centroid)."""
        if self.kind == "circle":
            return Contour("circle", self.n_nodes, center=self.center,
                           radius=self.radius * factor)
        c = np.mean(self.vertices)
        return Contour("polygon", self.n_nodes,
                       vertices=[c + factor * (v - c) for v in self.vertices])

    def winding(self, p):
        z, _dz = self.nodes()
        ang = np.angle((z - p) / np.roll(z - p, 1))
        return int(round(np.sum(ang) / (2 * np.pi)))


@dataclass
class PointMass:
    p: complex
    order: int
    weights: np.ndarray  # c_0..c_order

    def __post_init__(self):
        self.p = complex(self.p)
        self.weights = np.asarray(self.weights, dtype=complex)
        if self.weights.shape != (self.order + 1,):
            raise RepresentationInvalid("weights must have order+1 entries")


def masses_from_orders(by_pole):
    """Point masses from {p: {derivative order: weight}}, sorted by p."""
    masses = []
    for p, orders in sorted(by_pole.items(),
                            key=lambda kv: (kv[0].real, kv[0].imag)):
        w = np.zeros(max(orders) + 1, dtype=complex)
        for l, c in orders.items():
            w[l] = c
        masses.append(PointMass(p, max(orders), w))
    return masses


class AnalyticFunctional:
    """Functional on entire functions, carried by a compact set."""

    def __init__(self, contour=None, density=None, masses=None, carrier=None):
        if masses is not None:
            self.rep = "point_mass"
            self.masses = [m if isinstance(m, PointMass) else PointMass(*m)
                           for m in masses]
            self.contour = None
            self.density = None
            self.carrier = carrier if carrier is not None else [m.p for m in self.masses]
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
    for p, _m in f.poles(y):
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


def _cauchy_derivative(h, p, order, radius=0.25, n=128):
    """h^(order)(p) by the Cauchy integral formula on a small circle."""
    return factorial(order) * circle_moments(h, p, radius, [-order - 1], n)[0]


def pair(zeta, h, h_derivatives=None, certify=False):
    """<zeta, h> for h holomorphic near the carrier.

    h_derivatives, if given, is a callable (p, l) -> h^(l)(p) used by the
    point-mass path instead of the Cauchy circle.  With certify=True the
    contour path re-evaluates on a scaled contour and returns (value, defect).
    """
    if zeta.rep == "point_mass":
        val = 0j
        for m in zeta.masses:
            for l in range(m.order + 1):
                if m.weights[l] == 0:
                    continue
                if h_derivatives is not None:
                    hd = h_derivatives(m.p, l)
                elif l == 0:
                    hd = complex(np.asarray(h(np.array([m.p])))[0])
                else:
                    hd = _cauchy_derivative(h, m.p, l)
                val += m.weights[l] * hd
        return (val, 0.0) if certify else val

    def integral(contour):
        z, dz = contour.nodes()
        return np.sum(np.asarray(zeta.density(z), dtype=complex)
                      * np.asarray(h(z), dtype=complex) * dz) / (2j * np.pi)

    val = integral(zeta.contour)
    if certify:
        return val, abs(val - integral(zeta.contour.scaled(1.25)))
    return val


def to_point_masses(zeta, pole_hints=None):
    """Convert a contour representation to point masses via Laurent data
    of orders up to MAX_MASS_ORDER."""
    if zeta.rep == "point_mass":
        return zeta
    hints = list(pole_hints) if pole_hints is not None else list(zeta.carrier)
    if not hints:
        return AnalyticFunctional(masses=[], carrier=[])
    masses = []
    for p in hints:
        others = [q for q in hints if q != p]
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
        masses.append(PointMass(p, order, d[: order + 1]))
    return AnalyticFunctional(masses=masses, carrier=[m.p for m in masses])


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
        vals = point_mass_synthesis(grid.t, [(m.p, m.weights)
                                             for m in zeta.masses])
    else:
        z, dz = zeta.contour.nodes()
        fv = np.asarray(zeta.density(z), dtype=complex)
        vals = contour_synthesis(grid.t, z, fv * dz)
    return HalfLineFunction(grid, omega(grid.r) * vals)


class MellinPotential:
    """Phi = M omega: meromorphic with a simple pole at 0, residue 1.

    Phi(z) = s^z / z + s^z E(z) for the shifted cut-off omega(r/s), where
    E(z) = int_{1/2}^{1} (omega(r) - 1) r^{z-1} dr is entire (quadrature).
    """

    def __init__(self, omega):
        self.scale = omega.scale
        # Gauss-Legendre nodes on [1/2, 1] for the canonical profile
        x, w = np.polynomial.legendre.leggauss(POTENTIAL_N_QUAD)
        self._r = 0.75 + 0.25 * x
        self._w = 0.25 * w
        canonical = CutoffFunction("canonical")
        self._f = (canonical(self._r) - 1.0) * self._w / self._r

    def _entire(self, z, derivative=0):
        z = np.asarray(z, dtype=complex)
        lr = np.log(self._r)
        return np.exp(np.multiply.outer(z, lr)) @ (self._f * lr**derivative)

    def __call__(self, z, derivative=0):
        z = np.asarray(z, dtype=complex)
        ls = np.log(self.scale)
        val = np.zeros(z.shape, dtype=complex)
        for k in range(derivative + 1):
            ck = comb(derivative, k) * ls ** (derivative - k)
            val += ck * ((-1) ** k * factorial(k) / z ** (k + 1)
                         + self._entire(z, k))
        return self.scale**z * val

    def pole_free_part(self, z):
        """Phi(z) - 1/z (entire)."""
        return self(z) - 1.0 / np.asarray(z, dtype=complex)


def potential(zeta, omega):
    """f1(z) = <zeta_w, Phi(z - w)>: a meromorphic representative of zeta."""
    phi = MellinPotential(omega)

    if zeta.rep == "point_mass":
        def f1(z, derivative=0):
            z = np.asarray(z, dtype=complex)
            out = np.zeros(z.shape, dtype=complex)
            for m in zeta.masses:
                for l in range(m.order + 1):
                    if m.weights[l] != 0:
                        # d^l/dw^l Phi(z-w)|_{w=p} = (-1)^l Phi^(l)(z-p);
                        # an extra d/dz brings no sign change.
                        out += (m.weights[l] * (-1) ** l
                                * phi(z - m.p, derivative=l + derivative))
            return out
    else:
        w_nodes, dw = zeta.contour.nodes()
        fv = np.asarray(zeta.density(w_nodes), dtype=complex)

        def f1(z, derivative=0):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            out = np.array([
                np.sum(fv * phi(zz - w_nodes, derivative=derivative) * dw)
                / (2j * np.pi)
                for zz in z
            ])
            return out if out.size > 1 else out[0]
    return f1


def masses_to_json(zeta):
    if zeta.rep != "point_mass":
        raise RepresentationInvalid("JSON export needs a point-mass representation")
    return [
        {"p_re": m.p.real, "p_im": m.p.imag, "order": m.order,
         "weights_re": [c.real for c in m.weights],
         "weights_im": [c.imag for c in m.weights]}
        for m in zeta.masses
    ]


def masses_from_json(obj):
    masses = [
        PointMass(complex(d["p_re"], d["p_im"]), int(d["order"]),
                  np.array([complex(re, im) for re, im
                            in zip(d["weights_re"], d["weights_im"])]))
        for d in obj
    ]
    return AnalyticFunctional(masses=masses)
