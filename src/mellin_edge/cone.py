"""Model cone equation on the half-line: A u = f with
A = r^{-mu} sum_j a_j(y) (-r d/dr)^j.

The solver inverts the conormal symbol on the weight line
(u = op_M^gamma(1/sigma_c)(r^mu f)), extracts the discrete asymptotics of u
by residue harvesting left of the line, splits the solution into a flat
remainder plus an explicit singular part, and tracks how the asymptotic
type branches with the parameter y.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PoleOnHarvestBoundary, ResidualTooLarge
from .kernels import (
    CERT_MARGIN,
    certify_flat,
    point_mass_synthesis,
    scaled_singular,
    windowed_mass,
)
from .mellin import (
    TAIL_TOL,
    CutoffFunction,
    HalfLineFunction,
    check_line_clearance,
    line_inverse,
    line_transform,
    residue_masses,
)
from .symbols import (
    MeromorphicSymbol,
    invert_symbol,
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
    """A = r^{-mu} sum_j a_j(y) (-r d/dr)^j acting at weight gamma, with
    coeffs[j] the ascending y-coefficients of a_j."""

    coeffs: np.ndarray
    mu: int
    gamma: float
    rhs: object             # HalfLineFunction
    y_grid: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    support_radius: float = None  # far cut-off scale R ("f vanishes for r > R")
    y_domain: tuple = None

    def __post_init__(self):
        self.y_grid = np.atleast_1d(np.asarray(self.y_grid, dtype=float))
        # sigma_c(A), pole-free (for residuals), and its inverse
        self.inverse_symbol = invert_symbol(self.coeffs, self.y_domain)
        self.symbol = MeromorphicSymbol(self.coeffs, np.ones((1, 1)),
                                        self.y_domain)
        # the right-hand side f, cut off beyond the support radius, and
        # f_tilde = r^mu f, the function the Mellin inverse acts on
        f = self.rhs
        if self.support_radius is not None:
            far = CutoffFunction(scale=2.0 * self.support_radius)
            f = HalfLineFunction(f.grid, f.values * far(f.grid.r))
        self.scaled_rhs = f if self.mu == 0 else HalfLineFunction(
            f.grid, f.grid.r**self.mu * f.values)

    @cached_property
    def weight_line(self):
        """What every solve shares, made on the first: (z, the tail-checked
        samples of r^mu f at z, the inverse step, max(||r^mu f||_gamma,
        1e-300)) with z = 1/2 - gamma + i rho."""
        ft, gamma = self.scaled_rhs, self.gamma
        grid = ft.grid
        line = line_transform(ft.values, grid, gamma, TAIL_TOL)
        return ((0.5 - gamma) + 1j * grid.rho, line,
                line_inverse(grid.rho, grid, gamma),
                max(ft.norm(gamma), 1e-300))


def solve(problem, y, poles):
    """u = op_M^gamma(sigma_c^{-1})(r^mu f), with the residual verified by
    applying the discrete operator A; `poles` is the PoleRecord of
    sigma_c^{-1}(y, .).  Only the symbols depend on y: the rest is the
    problem's weight_line, and each product keeps op_mellin's operand
    order (a named left operand, the symbol's temporary on the right)."""
    gamma, ft = problem.gamma, problem.scaled_rhs
    grid = ft.grid
    check_line_clearance(poles, gamma)
    z, line, invert, ftnorm = problem.weight_line
    u = HalfLineFunction(grid, invert(line * problem.inverse_symbol(y, z)))
    # residual in the range of A: ||A u - f||_{gamma-mu} / ||f||_{gamma-mu}
    # = ||a u - r^mu f||_gamma / ||r^mu f||_gamma with a u =
    # op_M^gamma(sigma_c) u, so nothing is divided by r^mu.  The solution
    # decays only algebraically at r -> infinity, so the tail precondition
    # is waived for this same-grid verification pass.
    check_line_clearance(locate_poles(problem.symbol, y), gamma)
    vals = line_transform(u.values, grid, gamma, np.inf)
    au = HalfLineFunction(grid, invert(vals * problem.symbol(y, z)))
    rvals = au.values - ft.values
    residual = HalfLineFunction(grid, rvals).norm(gamma) / ftnorm
    if residual > SOLVE_TOL:
        raise ResidualTooLarge(residual, SOLVE_TOL)
    u.residual = residual
    return u


@dataclass
class AsymptoticExpansion:
    """Harvested singular part in a weight strip, as the point masses
    [(p, w)] of mellin.residue_masses: sum_k w_k (-log r)^k r^{-p}."""

    masses: list
    depth_used: float           # harvest depth: flatness order of the remainder
    notes: list = field(default_factory=list)

    @property
    def terms(self):
        """(p, k, c) for the terms c r^{-p} log^k r, c = (-1)^k w_k != 0,
        in harvest order."""
        return [(complex(p), k, complex((-1) ** k * w))
                for p, weights in self.masses
                for k, w in enumerate(weights) if w != 0]

    def evaluate(self, r):
        return point_mass_synthesis(np.log(np.asarray(r, dtype=float)),
                                    self.masses)


@dataclass
class FlatRemainder:
    values: object              # HalfLineFunction
    certified_weight: float     # gamma + beta
    mass_ratios: list = field(default_factory=list)  # one per shifted weight


def extract_asymptotics(problem, y, poles, depth, strict_boundary=False):
    """Harvest poles of g(z) = sigma_c^{-1}(y,z) M(r^mu f)(z) in the strip
    {1/2 - gamma - depth < Re z < 1/2 - gamma}; `poles` is the PoleRecord
    of sigma_c^{-1}(y, .).

    At a pole p of order m with principal coefficients d_i (coefficient of
    (z-p)^{-(i+1)}) and Taylor data T_j = (M f~)^(j)(p)/j!, the product g has
    principal coefficients e_k = sum_{i>=k} d_i T_{i-k}, and the residue of
    r^{-z} g(z) contributes the term e_k (-1)^k / k! * r^{-p} log^k r.
    """
    gamma = problem.gamma
    line_re = 0.5 - gamma
    ft = problem.scaled_rhs
    check_line_clearance(poles, gamma)

    notes = []
    depth_used = float(depth)
    for p, _m in poles.pairs:
        if abs(p.real - (line_re - depth_used)) < BOUNDARY_TOL:
            if strict_boundary:
                raise PoleOnHarvestBoundary(p, depth_used)
            depth_used = line_re - p.real - 10 * BOUNDARY_TOL
            notes.append(
                "pole %s within %.1e of the harvest boundary; depth shrunk "
                "to %.6g" % (p, BOUNDARY_TOL, depth_used)
            )

    masses = residue_masses(problem.inverse_symbol, y, poles, ft,
                            line_re - depth_used, line_re)
    return AsymptoticExpansion(masses=masses, depth_used=depth_used,
                               notes=notes)


def singular_part(expansion, omega, grid):
    """omega(r) * the expansion's singular part, as a grid function."""
    return HalfLineFunction(grid, scaled_singular(expansion.masses, grid.t,
                                                  1.0, omega))


def _windowed_mass(u):
    """gamma -> weighted L^2 mass of u on the certification window: far
    left, a flat remainder is a difference of huge near-equal values whose
    rounding noise a left-shifted weight amplifies without bound."""
    return lambda gamma: windowed_mass(u.grid.t, u.values, gamma, u.grid.dt)


def split_flat_singular(u, expansion, omega, gamma):
    """(flat remainder, singular part): u = flat + omega * sum of terms.

    The flat part is certified in the gamma+beta' weight classes at three
    beta' below beta = depth - CERT_MARGIN: its beta'-weighted L^2 mass must
    stay within CERT_FACTOR of the base-weight mass (a missed pole makes it
    blow up by many orders of magnitude on the left end of the grid).  The
    mass ratios are returned on the FlatRemainder.
    """
    grid = u.grid
    sing = singular_part(expansion, omega, grid)
    flat = HalfLineFunction(grid, u.values - sing.values)
    ratios = certify_flat(_windowed_mass(flat), gamma, expansion.depth_used,
                          "flat remainder")
    beta = expansion.depth_used - CERT_MARGIN
    return FlatRemainder(values=flat, certified_weight=gamma + beta,
                         mass_ratios=ratios), sing


@dataclass
class BranchingResult:
    asym_type: AsymptoticType
    events: list
    table: list                 # rows (y, p, k, c, branch_id)
    continuity_defect: float
    expansions: list            # AsymptoticExpansion per y node
    poles: list                 # PoleRecord of sigma_c^{-1} per y node


def detect_branching(problem, depth, radii=(0.05, 0.1, 0.2)):
    """Asymptotics of the solution over the whole y-grid.

    Harvests every node, assembles the y-dependent asymptotic type and the
    coefficient table, reports pole-collision events, and measures how far
    the synthesized singular part jumps in y across them: the largest jump
    (nan if one is nan) is the continuity_defect, which a caller compares
    with CONT_TOL.
    """
    y_grid = problem.y_grid
    spectral = track_branches(problem.inverse_symbol, y_grid)
    expansions = [extract_asymptotics(problem, y, poles, depth)
                  for y, poles in zip(y_grid, spectral.poles)]
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
        # each harvested p is a pole of the node's record
        bid = {p: b for (p, _m), b in zip(spectral.poles[i].pairs,
                                         spectral.branch_ids[i])}
        for p, k, c in exp.terms:
            table.append((float(y_grid[i]), p, k, c, bid[p]))

    # the check is done in the omega == 1 region; radii must sit there
    rr = np.asarray(radii, dtype=float)
    using = np.array([exp.evaluate(rr) for exp in expansions])  # y x r
    jumps = [0.0]
    for ye in events:
        k = int(np.argmin(np.abs(y_grid - ye)))
        if 0 < k < len(y_grid) - 1:
            mid = 0.5 * (using[k - 1] + using[k + 1])
            jumps.append(np.max(np.abs(using[k] - mid)))
    return BranchingResult(asym_type=atype, events=events, table=table,
                           continuity_defect=float(np.max(jumps)),
                           expansions=expansions, poles=spectral.poles)
