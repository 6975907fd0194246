"""Conormal symbols and their meromorphic inverses.

Symbols are rational in the Mellin covariable z with coefficients rational
in a single edge variable y; both numerator and denominator are stored as
2-D coefficient arrays c[i, j] for z^i y^j.  This class is closed under
multiplication, y-differentiation, translation and weight splitting, and
admits exact partial-fraction oracles.
"""

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    BandOccupied,
    DegenerateDenominator,
    DomainMismatch,
    EllipticityViolated,
    NonDifferentiableCoefficients,
    NotAPole,
    PoleTooClose,
)
from .kernels import circle_moments, circle_nodes

CLUSTER_TOL = 1e-6
N_CONTOUR = 256
RADIUS_CAP = 1.0
LAURENT_TOL = 1e-10
MATCH_TIE_TOL = 1e-9
ELLIPTICITY_TOL = 1e-8
ELLIPTICITY_SAMPLES = 33
SPLIT_SAMPLES = 9


# ----------------------------------------------------------------------
# 2-D polynomial helpers (coefficient arrays, ascending powers)

def p2(arr):
    return np.atleast_2d(np.asarray(arr, dtype=complex))


def p2_trim(a):
    a = p2(arr=a)
    while a.shape[0] > 1 and np.all(a[-1] == 0):
        a = a[:-1]
    while a.shape[1] > 1 and np.all(a[:, -1] == 0):
        a = a[:, :-1]
    return a


def p2_mul(a, b):
    a, b = p2(a), p2(b)
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                   dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0:
                out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
    return out


def p2_add(a, b):
    a, b = p2(a), p2(b)
    out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])),
                   dtype=complex)
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def p2_at_y(a, y):
    """1-D ascending z-coefficients at a fixed y."""
    a = p2(a)
    ypow = np.asarray(y, dtype=complex) ** np.arange(a.shape[1])
    return a @ ypow


def p2_eval(a, y, z):
    cz = p2_at_y(a, 0.0 if y is None else y)
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), cz)


def p2_dy(a):
    a = p2(a)
    if a.shape[1] == 1:
        return np.zeros((1, 1), dtype=complex)
    return a[:, 1:] * np.arange(1, a.shape[1])


def p2_shift_z(a, sigma):
    """Coefficients of p(z + sigma, y)."""
    a = p2(a)
    out = np.zeros_like(a)
    for k in range(a.shape[0]):
        for i in range(k + 1):
            out[i] += comb(k, i) * sigma ** (k - i) * a[k]
    return out


def p2_reflect_conj(a):
    """Coefficients of conj(p(1 - conj(z), y)) for real y."""
    a = np.conj(p2(a))
    out = np.zeros_like(a)
    for k in range(a.shape[0]):
        # (1 - z)^k = sum_i C(k,i) (-1)^i z^i
        for i in range(k + 1):
            out[i] += comb(k, i) * (-1) ** i * a[k]
    return out


# ----------------------------------------------------------------------
# exact reduction via sympy (when coefficients are rational-representable)

import sympy as sp

_Z, _Y = sp.symbols("z y")


def _to_rational(x, tol=1e-12):
    if x == 0:
        return sp.Integer(0)
    fr = Fraction(x).limit_denominator(10**9)
    if abs(float(fr) - x) <= tol * max(1.0, abs(x)):
        return sp.Rational(fr.numerator, fr.denominator)
    return None


def _arr_to_sympy(a):
    a = p2(a)
    expr = sp.Integer(0)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            c = a[i, j]
            if c == 0:
                continue
            re = _to_rational(c.real)
            im = _to_rational(c.imag)
            if re is None or im is None:
                return None
            expr += (re + sp.I * im) * _Z**i * _Y**j
    return expr


def _sympy_to_arr(expr):
    p = sp.Poly(sp.expand(expr), _Z, _Y)
    dz = p.degree(_Z)
    dy = p.degree(_Y)
    out = np.zeros((dz + 1, dy + 1), dtype=complex)
    for (i, j), c in p.terms():
        out[i, j] = complex(c)
    return out


def _reduce(num, den):
    """Cancel common factors exactly when possible; otherwise leave as-is."""
    num, den = p2_trim(num), p2_trim(den)
    if num.shape == (1, 1) or den.shape == (1, 1):
        return num, den
    ns = _arr_to_sympy(num)
    ds = _arr_to_sympy(den)
    if ns is None or ds is None or ns == 0:
        return num, den
    frac = sp.cancel(ns / ds)
    n2, d2 = sp.fraction(sp.together(frac))
    try:
        return p2_trim(_sympy_to_arr(n2)), p2_trim(_sympy_to_arr(d2))
    except sp.PolynomialError:
        return num, den


# ----------------------------------------------------------------------
# core types

class MeromorphicSymbol:
    """y-parameterized rational function f(y, z) = num(z,y)/den(z,y)."""

    def __init__(self, num, den, y_domain=None, reduce=True):
        num, den = p2_trim(num), p2_trim(den)
        if np.all(den == 0):
            raise DegenerateDenominator("zero denominator")
        if reduce:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self.y_domain = tuple(y_domain) if y_domain is not None else None

    def __call__(self, y, z):
        return p2_eval(self.num, y, z) / p2_eval(self.den, y, z)

    def num_at(self, y):
        return _trim1d(p2_at_y(self.num, 0.0 if y is None else y))

    def den_at(self, y):
        return _trim1d(p2_at_y(self.den, 0.0 if y is None else y))

    def poles(self, y):
        return locate_poles(self, y)

    def __add__(self, other):
        num = p2_add(p2_mul(self.num, other.den), p2_mul(other.num, self.den))
        return MeromorphicSymbol(num, p2_mul(self.den, other.den),
                                 _domain_meet(self.y_domain, other.y_domain))

    def __sub__(self, other):
        num = p2_add(p2_mul(self.num, other.den),
                     -p2_mul(other.num, self.den))
        return MeromorphicSymbol(num, p2_mul(self.den, other.den),
                                 _domain_meet(self.y_domain, other.y_domain))

    def __repr__(self):
        return "MeromorphicSymbol(num %s, den %s)" % (self.num.shape, self.den.shape)


def _trim1d(c, rel=1e-12):
    c = np.asarray(c, dtype=complex)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return c[:1]
    n = c.size
    while n > 1 and abs(c[n - 1]) <= rel * scale:
        n -= 1
    return c[:n]


def _domain_meet(a, b):
    if a is None:
        return b
    if b is None:
        return a
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo > hi:
        raise DomainMismatch("disjoint y domains %s, %s" % (a, b))
    return (lo, hi)


class ConormalSymbol:
    """Polynomial symbol a(y, z) = sum_j a_j(y) z^j (Fuchsian principal part)."""

    def __init__(self, coeffs, y_domain=None):
        # coeffs[j] = ascending y-polynomial coefficients of a_j(y)
        self.coeffs = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in coeffs]
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")
        for c in self.coeffs:
            if c.ndim != 1:
                raise NonDifferentiableCoefficients(
                    "coefficients must be 1-D y-polynomial arrays"
                )
        self.y_domain = tuple(y_domain) if y_domain is not None else None

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def num2d(self):
        dy = max(len(c) for c in self.coeffs)
        out = np.zeros((len(self.coeffs), dy), dtype=complex)
        for j, c in enumerate(self.coeffs):
            out[j, : len(c)] = c
        return out

    def __call__(self, y, z):
        return p2_eval(self.num2d(), y, z)

    def leading_at(self, y):
        return np.polynomial.polynomial.polyval(y, self.coeffs[-1])

    def to_json(self):
        return {
            "degree": self.degree,
            "coeffs": [[[float(c.real), float(c.imag)] for c in cj]
                       for cj in self.coeffs],
            "y_domain": list(self.y_domain) if self.y_domain else None,
        }

    @classmethod
    def from_json(cls, obj):
        coeffs = [np.array([complex(re, im) for re, im in cj])
                  for cj in obj["coeffs"]]
        dom = obj.get("y_domain")
        return cls(coeffs, tuple(dom) if dom else None)


def invert_symbol(a):
    """Meromorphic inverse 1/a(y, z) after an ellipticity margin check."""
    if a.y_domain is not None:
        ys = np.linspace(a.y_domain[0], a.y_domain[1], ELLIPTICITY_SAMPLES)
    else:
        ys = np.array([0.0])
    lead = np.abs(a.leading_at(ys))
    if np.min(lead) < ELLIPTICITY_TOL:
        raise EllipticityViolated(
            "leading coefficient reaches %.3e (< %.1e) on the sample grid"
            % (np.min(lead), ELLIPTICITY_TOL)
        )
    return MeromorphicSymbol(np.ones((1, 1)), a.num2d(), a.y_domain)


# ----------------------------------------------------------------------
# pole location / Laurent data

def same_pole(q, p):
    """Whether q is the pole p: within CLUSTER_TOL relative to max(1, |p|)."""
    return abs(q - p) <= CLUSTER_TOL * max(1.0, abs(p))


def _cluster(roots):
    """Merge roots that are the same pole as a cluster's first root into
    centroids."""
    roots = sorted(roots, key=lambda r: (r.real, r.imag))
    clusters = []
    for r in roots:
        placed = False
        for c in clusters:
            if same_pole(r, c[0]):
                c.append(r)
                placed = True
                break
        if not placed:
            clusters.append([r])
    out = [(complex(np.mean(c)), len(c)) for c in clusters]
    out.sort(key=lambda pm: (pm[0].real, pm[0].imag))
    return out


def locate_poles(f, y):
    """Poles of f(y, .) with multiplicities via companion-matrix roots.

    Denominator roots matched by numerator roots (same_pole) are cancelled,
    so unreduced representations still report the true poles.
    """
    den = f.den_at(y)
    if den.size <= 1:
        return []
    droots = np.roots(den[::-1])
    clusters = _cluster(list(droots))
    num = f.num_at(y)
    nroots = list(np.roots(num[::-1])) if num.size > 1 else []
    out = []
    for p, m in clusters:
        cancel = 0
        remaining = []
        for nr in nroots:
            if cancel < m and same_pole(nr, p):
                cancel += 1
            else:
                remaining.append(nr)
        nroots = remaining
        if m - cancel >= 1:
            out.append((p, m - cancel))
    return out


def strip_bound(poles, c, c_prime):
    """Certified M with D(y) in {c < Re z < c'} contained in {|Im z| <= M}."""
    ims = [abs(p.imag) for p, _m in poles if c < p.real < c_prime]
    return max(ims) if ims else 0.0


def laurent_expand(f, y, pole, order, contour_radius=None):
    """Laurent coefficients d_0..d_order at `pole`:

    d_k = (2 pi i)^{-1} oint f(y,z) (z - pole)^k dz

    over a circle of half the distance to the nearest other pole (capped),
    trapezoid rule (geometric convergence for rational f).
    """
    poles = locate_poles(f, y)
    dists = [abs(p - pole) for p, _m in poles if not same_pole(p, pole)]
    dmin = min(dists) if dists else np.inf
    radius = (contour_radius if contour_radius is not None
              else min(RADIUS_CAP, dmin / 2))
    if not np.isfinite(radius) or radius <= 0:
        radius = RADIUS_CAP
    if dmin < 2 * radius * (1 - 1e-12):
        raise PoleTooClose(
            "nearest other pole at %.3e < 2 x contour radius %.3e" % (dmin, radius)
        )
    d = circle_moments(lambda z: f(y, z), pole, radius, np.arange(order + 1),
                       N_CONTOUR)
    if not any(same_pole(p, pole) for p, _m in poles):
        fv = f(y, circle_nodes(pole, radius, N_CONTOUR)[1])
        scale = max(1.0, float(np.max(np.abs(fv))) * radius)
        if np.all(np.abs(d) <= LAURENT_TOL * scale):
            raise NotAPole("contour moments below LAURENT_TOL at %s" % pole)
    return d


# ----------------------------------------------------------------------
# branch tracking

@dataclass
class PoleBranch:
    branch_id: int
    samples: dict = field(default_factory=dict)  # node index -> (p, mult, laurent)
    collision_events: list = field(default_factory=list)

    def nodes(self):
        return sorted(self.samples)


@dataclass
class SpectralData:
    y_nodes: np.ndarray
    branches: list
    collision_events: list            # y values where the multiplicity pattern changes
    ambiguities: list = field(default_factory=list)
    symbol: MeromorphicSymbol = None

    def pairs_at(self, k):
        out = []
        for b in self.branches:
            if k in b.samples:
                p, m, _l = b.samples[k]
                out.append((p, m))
        out.sort(key=lambda pm: (pm[0].real, pm[0].imag))
        return out

    def remainder(self, k, z):
        """Holomorphic part of the symbol at node k: f minus all singular parts."""
        y = self.y_nodes[k]
        val = np.asarray(self.symbol(y, z), dtype=complex)
        for b in self.branches:
            if k not in b.samples:
                continue
            p, m, laur = b.samples[k]
            for i in range(m):
                val = val - laur[i] / (np.asarray(z) - p) ** (i + 1)
        return val


def track_branches(f, y_grid, with_laurent=True):
    """Locate poles at each y node and stitch them into branches.

    Adjacent nodes are matched by Hungarian assignment on |delta p|; nodes
    where the clustered multiplicity pattern changes are collision events.
    Near-tie matchings are recorded (lexicographic order breaks them).
    """
    y_grid = np.asarray(y_grid, dtype=float)
    branches = []
    patterns = []         # sorted multiplicity tuple per node
    ambiguities = []
    prev = None           # list of (p, m)
    prev_ids = []         # branch id per prev cluster
    closed = {}           # branch id -> (last node, last position)
    for k, yv in enumerate(y_grid):
        cur = locate_poles(f, yv)
        laur = [laurent_expand(f, yv, p, m - 1) if with_laurent else None
                for p, m in cur]
        if prev is None:
            ids = []
            for (p, m), d in zip(cur, laur):
                b = PoleBranch(branch_id=len(branches))
                b.samples[k] = (p, m, d)
                branches.append(b)
                ids.append(b.branch_id)
        else:
            ids = [-1] * len(cur)
            if prev and cur:
                cost = np.array([[abs(pp - cp) for cp, _cm in cur]
                                 for pp, _pm in prev])
                rows, cols = linear_sum_assignment(cost)
                # near-tie report: any transposition of the chosen matching
                # that changes total cost by less than MATCH_TIE_TOL
                for a in range(len(rows)):
                    for b_ in range(a + 1, len(rows)):
                        ra, rb = rows[a], rows[b_]
                        ca, cb = cols[a], cols[b_]
                        delta = (cost[ra, cb] + cost[rb, ca]
                                 - cost[ra, ca] - cost[rb, cb])
                        if abs(delta) < MATCH_TIE_TOL:
                            ambiguities.append((float(yv), int(ra), int(rb)))
                matched_rows = set()
                for r_, c_ in zip(rows, cols):
                    bid = prev_ids[r_]
                    branches[bid].samples[k] = (cur[c_][0], cur[c_][1], laur[c_])
                    ids[c_] = bid
                    matched_rows.add(r_)
                for r_ in range(len(prev)):
                    if r_ not in matched_rows:
                        closed[prev_ids[r_]] = (k - 1, prev[r_][0])
            for c_, bid in enumerate(ids):
                if bid != -1:
                    continue
                # a cluster (re)appears: prefer resurrecting a branch that
                # just closed at a nearby position (split after a merge)
                best = None
                for cb, (kc, pc) in closed.items():
                    if k - kc <= 2:
                        d = abs(pc - cur[c_][0])
                        if best is None or d < best[1]:
                            best = (cb, d)
                if best is not None:
                    bid = best[0]
                    del closed[bid]
                else:
                    b = PoleBranch(branch_id=len(branches))
                    branches.append(b)
                    bid = b.branch_id
                branches[bid].samples[k] = (cur[c_][0], cur[c_][1], laur[c_])
                ids[c_] = bid
        patterns.append(tuple(sorted(m for _p, m in cur)))
        prev, prev_ids = cur, ids
    # collision events: nodes where the multiplicity pattern changes; an
    # isolated one-node excursion (merge immediately followed by the reverse
    # split) is recorded once, at the excursion node
    events = []
    k = 1
    n_nodes = len(y_grid)
    while k < n_nodes:
        if patterns[k] != patterns[k - 1]:
            if k + 1 < n_nodes and patterns[k + 1] == patterns[k - 1]:
                events.append(float(y_grid[k]))
                k += 2
                continue
            events.append(float(y_grid[k]))
        k += 1
    for b in branches:
        b.collision_events = list(events)
    sd = SpectralData(y_nodes=y_grid, branches=branches,
                      collision_events=events, ambiguities=ambiguities,
                      symbol=f)
    return sd


# ----------------------------------------------------------------------
# symbol algebra

def multiply(f1, f2):
    dom = _domain_meet(f1.y_domain, f2.y_domain)
    return MeromorphicSymbol(p2_mul(f1.num, f2.num), p2_mul(f1.den, f2.den), dom)


def differentiate_y(f):
    """d f / d y by the quotient rule (pole multiplicities may grow by 1)."""
    num = p2_add(p2_mul(p2_dy(f.num), f.den), -p2_mul(f.num, p2_dy(f.den)))
    den = p2_mul(f.den, f.den)
    return MeromorphicSymbol(num, den, f.y_domain)


def translate(f, sigma):
    """(T^sigma f)(y, z) = f(y, z + sigma); poles move by -sigma."""
    return MeromorphicSymbol(p2_shift_z(f.num, sigma), p2_shift_z(f.den, sigma),
                             f.y_domain, reduce=False)


class SplitResult(NamedTuple):
    f0: MeromorphicSymbol
    f1: MeromorphicSymbol
    eps0: float
    eps1: float


def split_by_weight(f, y_region, beta, eps):
    """Partial-fraction split of f across the weight line Re z = beta.

    f0 = sum of singular parts at poles with Re p <= beta (holomorphic in
    {Re z > beta + eps0}); f1 = f - f0 (holomorphic in {Re z < beta + eps1}),
    0 < eps1 < eps0 < eps.
    """
    if np.isscalar(y_region):
        ys = np.array([float(y_region)])
    else:
        ys = np.linspace(y_region[0], y_region[1], SPLIT_SAMPLES)
    left_gap, right_gap = np.inf, np.inf
    for yv in ys:
        for p, _m in locate_poles(f, yv):
            if beta < p.real < beta + eps:
                raise BandOccupied(
                    "pole %s inside the band (%g, %g) at y = %g"
                    % (p, beta, beta + eps, yv)
                )
            if p.real <= beta:
                left_gap = min(left_gap, beta - p.real)
            else:
                right_gap = min(right_gap, p.real - beta)
    ns = _arr_to_sympy(f.num)
    ds = _arr_to_sympy(f.den)
    if ns is None or ds is None:
        raise NonDifferentiableCoefficients(
            "split_by_weight needs rational-representable coefficients"
        )
    terms = sp.Add.make_args(sp.apart(sp.cancel(ns / ds), _Z))
    f0_expr = sp.Integer(0)
    f1_expr = sp.Integer(0)
    for term in terms:
        _tn, td = term.as_numer_denom()
        if sp.degree(td, _Z) == 0:
            f1_expr += term          # polynomial (entire) part
            continue
        sides = set()
        for yv in ys:
            dcoef = _trim1d(p2_at_y(_sympy_to_arr(td), yv))
            for root in np.roots(dcoef[::-1]):
                sides.add("L" if root.real <= beta else "R")
        if sides == {"L"}:
            f0_expr += term
        elif sides == {"R"}:
            f1_expr += term
        else:
            raise BandOccupied(
                "irreducible factor %s has poles on both sides of beta" % td
            )
    def _mk(expr):
        if expr == 0:
            return MeromorphicSymbol(np.zeros((1, 1)), np.ones((1, 1)), f.y_domain)
        n2, d2 = sp.fraction(sp.together(expr))
        return MeromorphicSymbol(_sympy_to_arr(n2), _sympy_to_arr(d2), f.y_domain)

    eps1 = min(eps / 3, 0.9 * right_gap)
    eps0 = (eps1 + eps) / 2
    return SplitResult(_mk(f0_expr), _mk(f1_expr), float(eps0), float(eps1))


# ----------------------------------------------------------------------
# serialization

def symbol_to_json(f):
    def enc(a):
        return [[[float(c.real), float(c.imag)] for c in row] for row in a]
    return {"num": enc(f.num), "den": enc(f.den),
            "y_domain": list(f.y_domain) if f.y_domain else None}


def symbol_from_json(obj):
    def dec(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    dom = obj.get("y_domain")
    return MeromorphicSymbol(dec(obj["num"]), dec(obj["den"]),
                             tuple(dom) if dom else None, reduce=False)


def branches_to_csv(spectral, fileobj):
    w = csv.writer(fileobj, lineterminator="\n")
    w.writerow(["y", "Re p", "Im p", "multiplicity", "branch_id"])
    for b in spectral.branches:
        for k in b.nodes():
            p, m, _l = b.samples[k]
            w.writerow(["%.17g" % spectral.y_nodes[k], "%.17g" % p.real,
                        "%.17g" % p.imag, m, b.branch_id])
