"""Model cone equation on the half-line: A u = f with
A = r^{-mu} sum_j a_j(y) (-r d/dr)^j.

The solver inverts the conormal symbol on the weight line
(u = op_M^gamma(1/sigma_c)(r^mu f)), extracts the discrete asymptotics of u
by residue harvesting left of the line, splits the solution into a flat
remainder plus an explicit singular part, and tracks how the asymptotic
type branches with the parameter y.
"""

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .errors import (
    CertificationFailed,
    PoleOnHarvestBoundary,
    ResidualTooLarge,
)
from .functionals import (
    AnalyticFunctional,
    masses_from_orders,
    singular_function,
)
from .kernels import (
    CERT_FACTOR,
    CERT_MARGIN,
    cert_shifts,
    mass_ratios,
    residue_weights,
    windowed_mass,
)
from .mellin import (
    CutoffFunction,
    HalfLineFunction,
    check_line_clearance,
    mellin_eval,
    op_mellin,
)
from .symbols import (
    MeromorphicSymbol,
    invert_symbol,
    laurent_expand,
    locate_poles,
    track_branches,
)
from .asym_types import AsymptoticType

SOLVE_TOL = 1e-7
CONT_TOL = 1e-4
BOUNDARY_TOL = 1e-6


def bump_rhs(grid, a=1.0, b=3.0, amplitude=1.0):
    """Smooth right-hand side supported in (a, b): the standard exp bump."""
    r = grid.r
    vals = np.zeros(grid.n_points)
    mid = (r > a) & (r < b)
    x = (r[mid] - a) / (b - a)
    vals[mid] = np.exp(-1.0 / (x * (1.0 - x)) + 4.0)
    return HalfLineFunction(grid, amplitude * vals + 0j)


def random_bump_field(grid, rng):
    """Sum of three bumps with random centers, widths and amplitudes."""
    vals = np.zeros(grid.n_points, dtype=complex)
    for _ in range(3):
        c = rng.uniform(0.8, 3.0)
        w = rng.uniform(0.3, 0.8)
        amp = rng.uniform(0.5, 2.0)
        vals += bump_rhs(grid, c - w, c + w, amp).values
    return HalfLineFunction(grid, vals)


@dataclass
class ConeProblem:
    """A = r^{-mu} sum_j a_j(y) (-r d/dr)^j acting at weight gamma."""

    symbol: object          # ConormalSymbol
    mu: int
    gamma: float
    rhs: object             # HalfLineFunction, or callable y -> HalfLineFunction
    y_grid: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    support_radius: float = None  # far cut-off scale R ("f vanishes for r > R")

    def __post_init__(self):
        self.y_grid = np.atleast_1d(np.asarray(self.y_grid, dtype=float))
        self._inv = invert_symbol(self.symbol)

    @property
    def inverse_symbol(self):
        return self._inv

    def rhs_at(self, y):
        f = self.rhs(y) if callable(self.rhs) else self.rhs
        if self.support_radius is not None:
            far = CutoffFunction("shifted", scale=2.0 * self.support_radius)
            f = HalfLineFunction(f.grid, f.values * far(f.grid.r))
        return f

    def scaled_rhs_at(self, y):
        """f_tilde = r^mu f, the function the Mellin inverse acts on."""
        f = self.rhs_at(y)
        if self.mu == 0:
            return f
        return HalfLineFunction(f.grid, f.grid.r**self.mu * f.values)

    def forward_symbol(self):
        """sigma_c(A) as a pole-free MeromorphicSymbol (for residuals)."""
        return MeromorphicSymbol(self.symbol.num2d(), np.ones((1, 1)),
                                 self.symbol.y_domain, reduce=False)


def solve(problem, y):
    """u = op_M^gamma(sigma_c^{-1})(r^mu f), with the residual verified by
    applying the discrete operator A."""
    gamma = problem.gamma
    ft = problem.scaled_rhs_at(y)
    u = op_mellin(problem.inverse_symbol, y, gamma, ft)
    # residual: A u = r^{-mu} op_M^gamma(sigma_c) u vs f.  The solution decays
    # only algebraically at r -> infinity, so the tail precondition is waived
    # for this same-grid verification pass.
    au = op_mellin(problem.forward_symbol(), y, gamma, u, tail_tol=np.inf)
    f = problem.rhs_at(y)
    rvals = au.values / f.grid.r**problem.mu - f.values
    residual = (HalfLineFunction(f.grid, rvals).norm(gamma)
                / max(f.norm(gamma), 1e-300))
    if residual > SOLVE_TOL:
        raise ResidualTooLarge(residual, SOLVE_TOL)
    u.residual = residual
    return u


@dataclass
class AsymptoticExpansion:
    """Harvested singular terms c * r^{-p} log^k r in a weight strip."""

    terms: list                 # (p: complex, k: int, c: complex)
    weight_front: float         # beta: flatness order of the remainder
    y: float = 0.0
    depth_used: float = None
    notes: list = field(default_factory=list)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        lr = np.log(r)
        for p, k, c in self.terms:
            out += c * r ** (-p) * lr**k
        return out


@dataclass
class FlatRemainder:
    values: object              # HalfLineFunction
    certified_weight: float     # gamma + beta
    mass_ratios: list = field(default_factory=list)  # one per shifted weight


def extract_asymptotics(problem, y, depth, strict_boundary=False):
    """Harvest poles of g(z) = sigma_c^{-1}(y,z) M(r^mu f)(z) in the strip
    {1/2 - gamma - depth < Re z < 1/2 - gamma}.

    At a pole p of order m with principal coefficients d_i (coefficient of
    (z-p)^{-(i+1)}) and Taylor data T_j = (M f~)^(j)(p)/j!, the product g has
    principal coefficients e_k = sum_{i>=k} d_i T_{i-k}, and the residue of
    r^{-z} g(z) contributes the term e_k (-1)^k / k! * r^{-p} log^k r.
    """
    gamma = problem.gamma
    line_re = 0.5 - gamma
    ft = problem.scaled_rhs_at(y)
    finv = problem.inverse_symbol
    check_line_clearance(finv, y, gamma)

    notes = []
    depth_used = float(depth)
    poles = locate_poles(finv, y)
    for p, _m in poles:
        if abs(p.real - (line_re - depth_used)) < BOUNDARY_TOL:
            if strict_boundary:
                raise PoleOnHarvestBoundary(p, depth_used)
            depth_used = line_re - p.real - 10 * BOUNDARY_TOL
            notes.append(
                "pole %s within %.1e of the harvest boundary; depth shrunk "
                "to %.6g" % (p, BOUNDARY_TOL, depth_used)
            )
    left_re = line_re - depth_used

    terms = []
    for p, m in poles:
        if not (left_re < p.real < line_re):
            continue
        d = laurent_expand(finv, y, p, order=m - 1)
        taylor = np.array([
            mellin_eval(ft, p, derivative=j) / factorial(j) for j in range(m)
        ])
        for k, w in enumerate(residue_weights(d, taylor)):
            c = (-1) ** k * w
            if c != 0:
                terms.append((complex(p), int(k), complex(c)))
    terms.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    return AsymptoticExpansion(terms=terms, weight_front=depth_used,
                               y=float(y), depth_used=depth_used, notes=notes)


def expansion_to_functional(expansion):
    """Point-mass representation of the expansion's singular part.

    c r^{-p} log^k r = c (-1)^k (-log r)^k r^{-p}: the mass at p gets weight
    c (-1)^k at derivative order k.
    """
    by_pole = {}
    for p, k, c in expansion.terms:
        key = complex(p)
        by_pole.setdefault(key, {})[k] = by_pole.get(key, {}).get(k, 0) \
            + c * (-1) ** k
    return AnalyticFunctional(masses=masses_from_orders(by_pole))


def singular_part(expansion, omega, grid):
    """omega(r) * sum of the expansion terms, as a grid function."""
    if not expansion.terms:
        return HalfLineFunction(grid, np.zeros(grid.n_points, dtype=complex))
    zeta = expansion_to_functional(expansion)
    return singular_function(zeta, omega, grid)


def _windowed_mass(u):
    """gamma -> weighted L^2 mass of u on the certification window: far
    left, a flat remainder is a difference of huge near-equal values whose
    rounding noise a left-shifted weight amplifies without bound."""
    return lambda gamma: windowed_mass(u.grid.t, u.values, gamma, u.grid.dt)


def split_flat_singular(u, expansion, omega, gamma=None):
    """(flat remainder, singular part): u = flat + omega * sum of terms.

    The flat part is certified in the gamma+beta' weight classes at three
    beta' below beta = depth - CERT_MARGIN: its beta'-weighted L^2 mass must
    stay within CERT_FACTOR of the base-weight mass (a missed pole makes it
    blow up by many orders of magnitude on the left end of the grid).  The
    mass ratios are returned on the FlatRemainder.
    """
    if gamma is None:
        gamma = getattr(u, "weight_hint", 0.0) or 0.0
    grid = u.grid
    sing = singular_part(expansion, omega, grid)
    flat = HalfLineFunction(grid, u.values - sing.values)
    shifts = cert_shifts(expansion.weight_front)
    ratios = mass_ratios(_windowed_mass(flat), gamma, shifts)
    for beta_p, ratio in zip(shifts, ratios):
        if not ratio <= CERT_FACTOR:
            raise CertificationFailed(
                "flat remainder fails the weight check at beta'=%.4g "
                "(mass ratio %.3e); a deeper harvest is likely needed"
                % (beta_p, ratio),
                clause="flatness",
            )
    beta = expansion.weight_front - CERT_MARGIN
    return FlatRemainder(values=flat, certified_weight=gamma + beta,
                         mass_ratios=ratios), sing


def flatness_ratio(flat, gamma, beta_p):
    """Weighted-mass ratio used by the certification (negative-control aid)."""
    return mass_ratios(_windowed_mass(flat.values), gamma, [beta_p])[0]


@dataclass
class BranchingResult:
    asym_type: AsymptoticType
    events: list
    table: list                 # rows (y, p, k, c, branch_id)
    continuity_defect: float
    expansions: list = field(default_factory=list)


def detect_branching(problem, depth, radii=(0.05, 0.1, 0.2)):
    """Asymptotics of the solution over the whole y-grid.

    Harvests every node, assembles the y-dependent asymptotic type and the
    coefficient table, reports pole-collision events, and verifies that the
    synthesized singular part is continuous in y across each event.
    """
    y_grid = problem.y_grid
    expansions = [extract_asymptotics(problem, y, depth) for y in y_grid]

    spectral = track_branches(problem.inverse_symbol, y_grid,
                              with_laurent=False)
    line_re = 0.5 - problem.gamma
    events = []
    for ye in spectral.collision_events:
        k = int(np.argmin(np.abs(y_grid - ye)))
        ps = [p for p, _k, _c in expansions[k].terms]
        if ps and any(line_re - depth < p.real < line_re for p in ps):
            events.append(float(ye))

    pairs_per_node = []
    for exp in expansions:
        seen = {}
        for p, k, _c in exp.terms:
            seen[p] = max(seen.get(p, 0), k)
        pairs_per_node.append([(p, m) for p, m in sorted(
            seen.items(), key=lambda kv: (kv[0].real, kv[0].imag))])
    atype = AsymptoticType(y_grid, pairs_per_node)

    table = []
    for i, exp in enumerate(expansions):
        for p, k, c in exp.terms:
            bid = _branch_id_for(spectral, i, p)
            table.append((float(y_grid[i]), p, k, c, bid))

    # the check is done in the omega == 1 region; radii must sit there
    rr = np.asarray(radii, dtype=float)
    using = np.array([exp.evaluate(rr) for exp in expansions])  # y x r
    defect = 0.0
    for ye in events:
        k = int(np.argmin(np.abs(y_grid - ye)))
        if 0 < k < len(y_grid) - 1:
            mid = 0.5 * (using[k - 1] + using[k + 1])
            defect = max(defect, float(np.max(np.abs(using[k] - mid))))
    if defect > CONT_TOL:
        raise CertificationFailed(
            "singular part jumps by %.3e across a collision event" % defect,
            clause="continuity",
        )
    return BranchingResult(asym_type=atype, events=events, table=table,
                           continuity_defect=defect, expansions=expansions)


def _branch_id_for(spectral, node_index, p):
    best, best_d = -1, np.inf
    for b in spectral.branches:
        if node_index in b.samples:
            q = b.samples[node_index][0]
            d = abs(q - p)
            if d < best_d:
                best, best_d = b.branch_id, d
    return best


def coefficients_to_csv(table, fileobj):
    fileobj.write("y,re_p,im_p,k,re_c,im_c,branch_id\n")
    for y, p, k, c, bid in table:
        fileobj.write("%.17g,%.17g,%.17g,%d,%.17g,%.17g,%d\n"
                      % (y, p.real, p.imag, k, c.real, c.imag, bid))
