"""The acceptance checks of the calculus, each implemented once.

A check takes a corpus and, where its oracle needs scipy (which the
package never imports), the oracle's values.  It returns rows
(name, defect, tolerance), one per clause, named after the check when it
has one clause; it passes when no defect exceeds its tolerance, and a nan
defect never does.  `mellin-edge verify` runs VERIFY's seeded corpora with
frozen oracle values; `tests/test_acceptance.py` runs the numbered checks
on its own corpora and oracles.
"""

from itertools import combinations

import numpy as np

from .asym_types import (AsymptoticType, WeightData, build_covering,
                         check_shadow, covering_reconstructs, restrict,
                         set_equal, shadow_closure, subordinate, union)
from .cone import (CONT_TOL, ConeProblem, bump_rhs, detect_branching,
                   extract_asymptotics, random_bump_field)
from .edge_ops import (GreenSymbolFiniteRank, MellinEdgeSymbol,
                       adjoint_pairing_defect, asymptotic_sum, eta_bracket,
                       eta_derivative, formal_adjoint, green_agreement,
                       green_apply, measured_order,
                       mellin_convention_difference,
                       twisted_homogeneity_defect, twisted_norm,
                       weight_shift_green)
from .edge_spaces import (EdgeField, SingularEdgeData, TorusGrid,
                          apply_edge_operator, decompose_flat_singular_edge,
                          edge_norm, inverse_potential_op, potential_op,
                          synthesize_singular)
from .functionals import (AnalyticFunctional, Contour, from_symbol,
                          to_point_masses)
from .kernels import circle_moments
from .mellin import (DT, CutoffFunction, HalfLineFunction, LogGrid,
                     dilation_commutation_defect, kappa, kernel_cutoff,
                     mellin_eval, mellin_transform)
from .symbols import (N_CONTOUR, MeromorphicSymbol, invert_symbol,
                      laurent_expand, locate_poles)

TOLERANCES = {
    "plancherel": 1e-8,
    "gamma_oracle": 1e-6,
    "dilation_commutation": 1e-8,
    "residue_oracle": 1e-10,
    "twisted_homogeneity": 1e-8,
    "symbol_order": 0.1,
    "eta_derivative_order": 0.1,
    "green_equivalence": 1e-7,
    "branching_coefficients": 1e-8,
    "branching_log_terms": 1e-7,
    "branching_events": 1e-12,
    "branching_continuity": CONT_TOL,
    "adjoint_pairing": 1e-8,
    "adjoint_involution": 0.0,
    "convention_independence": 1e-7,
    "edge_w0_is_l2": 1e-10,
    "edge_potential_roundtrip": 1e-9,
    "edge_decomposition": 1e-9,
    "green_finite_rank": 1e-7,
    "asymptotic_sum_remainders": 10.0,
    "type_algebra": 0.0,
    "kernel_cutoff_decay": 1e-8,
}

NOTES = {
    "dilation_commutation":
        "commutation holds without a dilation prefactor: "
        "M(delta_lambda u)(z) = lambda^{-z} Mu(z) gives "
        "delta_lambda op(f) = op(f) delta_lambda for r-independent f; "
        "a formulation with an extra lambda factor does not match the "
        "computed transforms",
}

# Gamma(1/2 + i tau) frozen from 30-digit independent quadrature of
# int_0^inf r^{z-1} e^{-r} dr
GAMMA_LINE = [
    (-5.0, complex(-0.00096948070526995127, -8.3630391299614968e-05)),
    (-3.5, complex(0.0064089281114485487, -0.008020659849544233)),
    (-2.0, complex(0.089855176706431644, 0.060493760292887569)),
    (-1.0, complex(0.30069461726065583, 0.42496787943312381)),
    (-0.25, complex(1.3851135919886661, 0.67318153575969975)),
    (0.25, complex(1.3851135919886661, -0.67318153575969975)),
    (1.0, complex(0.30069461726065583, -0.42496787943312381)),
    (2.0, complex(0.089855176706431644, -0.060493760292887569)),
    (3.5, complex(0.0064089281114485487, 0.008020659849544233)),
    (5.0, complex(-0.00096948070526995127, 8.3630391299614968e-05)),
]

# M f(p) = int_1^3 r^{p-1} f(r) dr for the bump f of cone.bump_rhs, and
# (M f)'(0), frozen from 40-digit independent quadrature
BUMP_MELLIN = {
    0.05: 0.4047302525279135, -0.05: 0.3787645294084741,
    0.15: 0.4325652528654077, -0.15: 0.35453802929923584,
    0.25: 0.4624096452549059, -0.25: 0.3319300181459217,
    0.35: 0.4944144059119229, -0.35: 0.3108283972374567,
    0.45: 0.5287422384834332, -0.45: 0.2911290697967286,
    0.0: 0.39152208653977066,
}
BUMP_MELLIN_D0 = 0.2596030766185756

# a(y, z) = z^2 - y^2: row j holds the y-coefficients of z^j
_Z2_MINUS_Y2 = [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def _row(name, defects):
    """(name, the largest defect or nan if one is nan, name's tolerance)."""
    defects = np.asarray(list(defects), dtype=float)
    worst = float(np.max(defects)) if defects.size else 0.0
    return name, worst, TOLERANCES[name]


# ----------------------------------------------------------------------
# 1-6. the Mellin transform, residues and the cone

def plancherel(fields):
    """1. The weighted Mellin transform is an isometry onto the weight
    line: relative norm defect of each field at gamma = 0, 0.3, -0.3."""
    return [_row("plancherel", (
        abs(mellin_transform(u, g).norm() - u.norm(g)) / max(u.norm(g), 1e-300)
        for u in fields for g in (0.0, 0.3, -0.3)))]


def gamma_oracle(grid, line):
    """2. M(e^{-r})(1/2 + i tau) by quadrature on `grid`, relative to the
    Gamma(1/2 + i tau) of each (tau, value) of line."""
    u = HalfLineFunction(grid, np.exp(-grid.r))
    return [_row("gamma_oracle", (abs(mellin_eval(u, 0.5 + 1j * tau) - g)
                                  / abs(g) for tau, g in line))]


def dilation_commutation(fs, u):
    """3. op(f) commutes with the dilations lambda = 2, 4, for each
    r-independent symbol f (dilation_commutation_defect)."""
    return [_row("dilation_commutation", (
        dilation_commutation_defect(f, 0.0, u, lam)
        for f in fs for lam in (2.0, 4.0)))]


def rational_corpus(rng):
    """20 symbols num/den, den = prod (z - n/4)^m over 2 or 3 distinct
    even n in [-8, 8], n != 0, m in {1, 2}: (the n, the m, num's integer
    coefficients ascending)."""
    lattice = (-8, -6, -4, -2, 2, 4, 6, 8)
    corpus = []
    for _ in range(20):
        k = int(rng.integers(2, 4))
        idx = rng.choice(len(lattice), size=k, replace=False)
        orders = [int(rng.integers(1, 3)) for _ in range(k)]
        coeffs = [int(rng.integers(-5, 6)) for _ in range(sum(orders))]
        corpus.append(([lattice[i] for i in idx], orders, coeffs))
    return corpus


def residue_oracle(corpus):
    """4. Against sympy's exact partial fractions of each rational_corpus
    symbol, relative to their largest coefficient: the Laurent data at
    each pole (laurent_expand), the circle moments at 0.9 and 0.45 of half
    the distance to the nearest other pole, and the point masses of the
    contour functional around all poles (to_point_masses)."""
    import sympy as sp

    z = sp.Symbol("z")

    def array(expr):
        return np.array([complex(c) for c in sp.Poly(expr, z).all_coeffs()
                         [::-1]]).reshape(-1, 1)

    defects = []
    for ns, orders, coeffs in corpus:
        num = sum(c * z**i for i, c in enumerate(coeffs)) or sp.Integer(1)
        den = sp.expand(sp.prod([(z - sp.Rational(n, 4)) ** m
                                 for n, m in zip(ns, orders)]))
        f = MeromorphicSymbol(array(num), array(den))
        exact = {}          # pole -> coefficients of (z - p)^{-1-j}, j = 0..
        for term in sp.Add.make_args(sp.apart(num / den, z)):
            n_, d_ = term.as_numer_denom()
            if not d_.free_symbols:
                continue
            const, zpart = d_.as_independent(z, as_Add=False)
            base, j = zpart.as_base_exp()
            poly = sp.Poly(base, z)
            a, b = poly.coeff_monomial(z), poly.coeff_monomial(1)
            arr = exact.setdefault(complex(-sp.Rational(b, a)),
                                   np.zeros(8, dtype=complex))
            arr[int(j) - 1] += complex(n_) / complex(const) / complex(a) ** j
        pts = list(exact)
        scale = max(np.max(np.abs(arr)) for arr in exact.values())

        def near(p):
            return min(pts, key=lambda q: abs(q - p))

        poles = locate_poles(f, 0.0)
        center = np.mean(pts)
        contour = Contour(center, max(abs(q - center) for q in pts) + 0.7,
                          n_nodes=512)
        masses = to_point_masses(from_symbol(f, 0.0, contour)).masses
        if len(poles.pairs) != len(pts) or len(masses) != len(pts):
            defects.append(np.inf)
            continue
        for i, (p, m) in enumerate(poles.pairs):
            q = near(p)
            d = laurent_expand(f, 0.0, poles, i)
            defects.append(np.max(np.abs(d - exact[q][:m])) / scale)
            rmax = min((abs(o - q) for o in pts if o != q), default=1.0) / 2
            d1, d2 = (circle_moments(lambda w: f(0.0, w), q, frac * rmax,
                                     np.arange(m), N_CONTOUR)
                      for frac in (0.9, 0.45))
            defects.append(np.max(np.abs(d1 - d2)) / scale)
        for p, w in masses:
            defects.append(np.max(np.abs(w - exact[near(p)][:len(w)]))
                           / scale)
    return [_row("residue_oracle", defects)]


def green_equivalence(fs, weight_pairs, u):
    """5. op^{delta+beta}(f) - op^{delta}(f) against its residue-contour
    form (weight_shift_green), for each symbol and (delta, beta)."""
    return [_row("green_equivalence", (
        green_agreement(*weight_shift_green(f, 0.0, d, b, u), d + b)
        for f in fs for d, b in weight_pairs))]


def branching_benchmark(grid, ys, mf, dmf0, y_fine):
    """6. The cone a(y, z) = z^2 - y^2 with the bump rhs f on `grid`,
    harvested to depth 1; mf maps 0 and each p of ys to M f(p), dmf0 is
    (M f)'(0).  Rows: at each y of ys (none 0) the terms c r^{-p} at
    p = +-y, c = M f(p) / (2p), relative to max(1, |c|); at y = 0 the log
    term -M f(0) log r and the constant (M f)'(0), relative; over y_fine,
    the distance from 0 of the one collision event and the singular part's
    jump across it."""
    def problem(nodes):
        return ConeProblem(_Z2_MINUS_Y2, 0, 0.0, bump_rhs(grid), nodes,
                           y_domain=(-0.5, 0.5))

    prob = problem(np.array(sorted(ys)))

    def terms(y):
        poles = locate_poles(prob.inverse_symbol, y)
        return extract_asymptotics(prob, y, poles, depth=1.0).terms

    coef = []
    for y in ys:
        ts = terms(y)
        if len(ts) != 2 or any(k != 0 for _p, k, _c in ts):
            coef.append(np.inf)
        for p, _k, c in ts:
            c0 = mf[min(mf, key=lambda q: abs(q - p))] / (2.0 * p)
            coef.append(abs(c - c0) / max(1.0, abs(c0)))
    got = {k: c for _p, k, c in terms(0.0)}
    logs = ([abs(got[1] + mf[0.0]) / abs(mf[0.0]),
             abs(got[0] - dmf0) / abs(dmf0)]
            if 0 in got and 1 in got else [np.inf])
    res = detect_branching(problem(np.asarray(y_fine)), depth=1.0,
                           radii=(0.05, 0.1, 0.2))
    return [_row("branching_coefficients", coef),
            _row("branching_log_terms", logs),
            _row("branching_events",
                 [abs(res.events[0]) if len(res.events) == 1 else np.inf]),
            _row("branching_continuity", [res.continuity_defect])]


# ----------------------------------------------------------------------
# 7-9. edge symbols

def twisted_homogeneity(ms, u):
    """7a. m(y, lambda eta) = lambda^{mu-j+|alpha|} kappa_lambda m(y, eta)
    kappa_lambda^{-1} at lambda = 2, 4, eta = 1, 1.5, 3, relative."""
    return [_row("twisted_homogeneity", (
        twisted_homogeneity_defect(m, 0.0, eta, lam, u)
        for m in ms for eta in (1.0, 1.5, 3.0) for lam in (2.0, 4.0)))]


def symbol_order(ms, u):
    """7b. The measured order over |eta| = 1, 2, 4, 8 against
    mu - j + |alpha|, for each single-term symbol."""
    defects = []
    for m in ms:
        j, alpha, _f, _gj = m.single_term()
        slope, _ = measured_order(m, 0.0, u, [1.0, 2.0, 4.0, 8.0])
        defects.append(abs(slope - (m.mu - j + abs(alpha))))
    return [_row("symbol_order", defects)]


def eta_derivative_order(ms, u):
    """d m / d eta drops the order by one: the measured order of each
    single-term symbol's eta_derivative over |eta| = 1.5, 3, 6, 12 equals
    mu - j + |alpha| - 1; the defect is the distance between the two."""
    defects = []
    for m in ms:
        j, alpha, _f, _gj = m.single_term()
        slope, _ = measured_order(
            lambda y, eta, w: eta_derivative(m, y, eta, w)[0], 0.0, u,
            (1.5, 3.0, 6.0, 12.0))
        defects.append(abs(slope - (m.mu - j + abs(alpha) - 1)))
    return [_row("eta_derivative_order", defects)]


def adjoint_pairing(ms, pairs):
    """8a. (m u, v) = (u, m* v) in L^2(dr) at eta = 1.5, relative to
    ||u|| ||v||."""
    return [_row("adjoint_pairing", (adjoint_pairing_defect(m, 0.0, 1.5, u, v)
                                     for m in ms for u, v in pairs))]


def adjoint_involution(ms):
    """8b. (m*)* = m exactly on the data level: the count of failures."""
    def same(m, n):
        return ((n.mu, n.gamma, n.r_power_right, len(n.terms))
                == (m.mu, m.gamma, m.r_power_right, len(m.terms))
                and all((j1, a1, g1) == (j2, a2, g2)
                        and np.array_equal(f1.num, f2.num)
                        and np.array_equal(f1.den, f2.den)
                        for (j1, a1, f1, g1), (j2, a2, f2, g2)
                        in zip(m.terms, n.terms)))
    return [_row("adjoint_involution", (
        0.0 if same(m, formal_adjoint(formal_adjoint(m))) else 1.0
        for m in ms))]


def convention_independence(weight_cases, cutoff_cases, u):
    """9. mellin_convention_difference of each (m1, m2, etas): weight
    changes must reproduce the weight-shift contour form, cut-off changes
    must be flat near r = 0 (a case certified by the other clause is an
    infinite defect)."""
    defects = []
    for cases, clause in ((weight_cases, "weight-shift contour"),
                          (cutoff_cases, "cut-off flatness")):
        for m1, m2, etas in cases:
            got, ds = mellin_convention_difference(m1, m2, 0.0, u, etas)
            defects += ds if got == clause else [np.inf]
    return [_row("convention_independence", defects)]


def asymptotic_sum_remainders(gs, u, fan):
    """The asymptotic_sum g = sum_j chi(eta / c_j) g_j of Green symbols of
    orders m, m - 1, ..., scheduled on fan: the twisted norm of each
    remainder g - sum_{j<N} chi(eta / c_j) g_j on the fan, relative to
    [eta]^{m-N} ||u||."""
    total = asymptotic_sum(gs, 0.0, u, fan)
    m0 = gs[0].order_m
    defects = []
    for n in range(1, len(gs)):
        start = sum(len(g.rank_terms) for g in gs[:n])
        rest = GreenSymbolFiniteRank(total.rank_terms[start:], m0 - n)
        defects += [twisted_norm(rest, 0.0, eta, u)
                    / (eta_bracket(eta) ** (m0 - n) * u.norm(0.0))
                    for eta in fan]
    return [_row("asymptotic_sum_remainders", defects)]


# ----------------------------------------------------------------------
# 10. edge spaces

def edge_w0_is_l2(fields):
    """10a. The W^0 edge norm is the L^2 norm, relative."""
    return [_row("edge_w0_is_l2", (abs(edge_norm(u, 0.0) - u.l2_norm())
                                   / u.l2_norm() for u in fields))]


def edge_potential_roundtrip(fields):
    """10b. The potential operator's inverse undoes it, relative in L^2."""
    defects = []
    for u in fields:
        back = inverse_potential_op(potential_op(u))
        defects.append(back.copy(values=back.values - u.values).l2_norm()
                       / u.l2_norm())
    return [_row("edge_potential_roundtrip", defects)]


def edge_decomposition(m, y_grid, r_grid, cases):
    """10c. Outputs of m decompose with the input type joined with m's pole
    type: each case's pole pairs (p, order) carry at mode k the weight
    1 + 0.1i (k + i) on log order `order` (0.3 on order 0 below it) over a
    flat background, harvested to depth 1.2.  The defect is each harvested
    pole's distance from the joined type, infinite when a pole of m goes
    unharvested."""
    op_pairs = [(p, mult - 1) for _j, _a, f, _g in m.terms
                for p, mult in locate_poles(f, 0.0).pairs]
    flat_bg = ((0.5 + 0.2 * np.sin(y_grid.y))[:, None]
               * bump_rhs(r_grid, 0.02, 0.2).values[None, :])
    defects = []
    for pairs in cases:
        zetas = []
        for k in range(y_grid.n_points):
            masses = []
            for i, (p, order) in enumerate(pairs):
                w = np.zeros(order + 1, dtype=complex)
                w[order] = 1.0 + 0.1j * (k + i)
                if order > 0:
                    w[0] = 0.3
                masses.append((p, w))
            zetas.append(AnalyticFunctional(masses=masses))
        u = synthesize_singular(SingularEdgeData(y_grid, r_grid, zetas))
        out = apply_edge_operator(m, u.copy(values=u.values + flat_bg))
        joined = list(pairs) + op_pairs
        atype = AsymptoticType(y_grid.y, [joined] * y_grid.n_points)
        _flat, harvested = decompose_flat_singular_edge(out, atype, depth=1.2)
        hit = set()
        for zeta in harvested.mode_functionals:
            for p, _w in zeta.masses:
                i = min(range(len(joined)),
                        key=lambda i: abs(joined[i][0] - p))
                defects.append(abs(joined[i][0] - p))
                hit.add(i)
        if not hit >= set(range(len(pairs), len(joined))):
            defects.append(np.inf)
    return [_row("edge_decomposition", defects)]


def green_finite_rank(g, v, etas):
    """10d. green_apply of the finite-rank Green symbol g at each eta
    against its separable closed form
    sum a(eta) [eta]^{1/2} omega(r[eta]) <zeta, (r[eta])^{-z}> T,
    T = int t(r'[eta]) v(r') dr', relative to the closed form's maximum."""
    grid = v.grid
    defects = []
    for eta in etas:
        s = eta_bracket(eta)
        rs = grid.r * s
        closed = np.zeros(grid.n_points, dtype=complex)
        for zeta, trace, amp in g.rank_terms:
            a = amp(eta) if callable(amp) else amp
            t_val = grid.dt * np.sum(kappa(trace, s).values / np.sqrt(s)
                                     * v.values * grid.r)
            for p, weights in zeta.masses:
                for l, w in enumerate(weights):
                    closed += (a * np.sqrt(s) * g.omega(rs) * t_val * w
                               * (-np.log(rs)) ** l * rs ** (-p))
        got = green_apply(g, 0.0, eta, v).values
        defects.append(np.max(np.abs(got - closed))
                       / max(1e-300, np.max(np.abs(closed))))
    return [_row("green_finite_rank", defects)]


# ----------------------------------------------------------------------
# 11. asymptotic types, and the remaining constructs

def type_algebra(r, f, others, weight, shadowed, unshadowed):
    """11. The count of failed identities: on the type r of the poles of f,
    restriction to Re p > 0.1, y >= 0 is idempotent, the union with the
    empty type is r, f is subordinate to r, r's covering of the strip
    |Re p| < 0.4 reconstructs it; unions of `others` commute; at y = 0
    under `weight`, `shadowed` pair lists meet the shadow condition and
    `unshadowed` ones fail it."""
    ys = r.y_nodes
    box = (0.0, float(ys.max()))

    def region(p):
        return p.real > 0.1

    def shadow_ok(pairs):
        return check_shadow(AsymptoticType([0.0], [pairs], weight))[0]

    r1 = restrict(r, region=region, u_box=box)
    cover = build_covering(r, strip=(-0.4, 0.4), eps_target=0.1,
                           u_box=(float(ys.min()), float(ys.max())))
    holds = [set_equal(r1, restrict(r1, region=region, u_box=box)),
             set_equal(union([r, AsymptoticType(ys, [[] for _ in ys])]), r),
             subordinate(f, r, ys)[0],
             covering_reconstructs(r, cover)]
    holds += [set_equal(union([a, b]), union([b, a]))
              for a, b in combinations(others, 2)]
    holds += [shadow_ok(pl) for pl in shadowed]
    holds += [not shadow_ok(pl) for pl in unshadowed]
    return [_row("type_algebra", (0.0 if ok else 1.0 for ok in holds))]


def kernel_cutoff_decay(fields):
    """The kernel_cutoff k of each field's line transform l at gamma = 0:
    sup |l - k| <rho>^2 over |rho| <= 20, and |k - l| at the middle node,
    relative to max |l|."""
    defects = []
    for u in fields:
        line = mellin_transform(u, 0.0)
        k, defect = kernel_cutoff(line, CutoffFunction())
        rho = defect.rho_nodes
        near = np.abs(rho) <= 20.0
        mid = len(rho) // 2
        scale = np.max(np.abs(line.values))
        defects += [np.max(np.abs(defect.values[near]) * (1 + rho[near]**2))
                    / scale,
                    abs(k(0.5 + 1j * rho[mid]) - line.values[mid]) / scale]
    return [_row("kernel_cutoff_decay", defects)]


# ----------------------------------------------------------------------
# the corpora of `verify`, drawn from its seed

def _grid(t_min, n):
    return LogGrid(t_min, t_min + n * DT, n)


def _pole(p):
    """1 / (z - p), constant in y."""
    return MeromorphicSymbol([np.array([1.0])],
                             [np.array([-p]), np.array([1.0])])


def _edge(j, alpha, p, mu, gamma_j=0.0, **cutoffs):
    return MellinEdgeSymbol([(j, alpha, _pole(p), gamma_j)], mu=mu,
                            gamma=0.0, **cutoffs)


def _random_edge_field(rng):
    """Random y-profile times r^2 e^{-r} on 8 torus nodes."""
    grid = _grid(-15.0, 4096)
    tg = TorusGrid(2 * np.pi, 8)
    ay = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return EdgeField(
        tg, grid, ay[:, None] * (grid.r**2 * np.exp(-grid.r))[None, :])


def _bump_pairs(rng):
    grid = _grid(-50.0, 8192)
    return [tuple(HalfLineFunction(grid, bump_rhs(grid, a, b).values
                                   * rng.uniform(0.5, 2.0))
                  for a, b in ((0.02, 0.2), (0.03, 0.3))) for _ in range(5)]


def _rank_one(order, trace):
    """[eta]^order times a rank-one Green symbol with kernel `trace`."""
    zeta = AnalyticFunctional(masses=[(-0.4, [1.0, 0.5])])
    return GreenSymbolFiniteRank(
        [(zeta, trace, lambda eta: eta_bracket(eta) ** order)], order)


def _type_algebra(ys):
    """Check 11 on the pole type of 1/(z^2 - y^2) at the nodes ys."""
    w = WeightData(gamma=0.0, theta=-3.0)
    r = AsymptoticType(ys, [[(complex(y), 0), (complex(-y), 0)] if y != 0
                            else [(0j, 1)] for y in ys])
    others = [AsymptoticType(ys, [pairs] * len(ys))
              for pairs in ([(0.2 + 0j, 1)], [(0.2 + 0j, 0), (-0.3 + 0j, 2)])]
    return type_algebra(r, invert_symbol(_Z2_MINUS_Y2, (-0.5, 0.5)), others,
                        w, [shadow_closure([(0.2 + 0j, 1)], w)],
                        [[(0.2 + 0j, 0)]])


def _deep_bump(a=0.02, b=0.2):
    return bump_rhs(_grid(-50.0, 8192), a, b)


def _r_exp(grid):
    """r e^{-r} on grid."""
    return HalfLineFunction(grid, grid.r * np.exp(-grid.r))


VERIFY = {
    "plancherel": lambda rng: plancherel(
        [random_bump_field(_grid(-15.0, 4096), rng) for _ in range(20)]),
    "gamma_oracle": lambda rng: gamma_oracle(_grid(-50.0, 8192), GAMMA_LINE),
    "dilation_commutation": lambda rng: dilation_commutation(
        [_pole(-0.9 - 0.25 * k + 0.1j * (k % 3)) for k in range(10)],
        random_bump_field(_grid(-50.0, 8192), rng)),
    "residue_oracle": lambda rng: residue_oracle(rational_corpus(rng)),
    "twisted_homogeneity": lambda rng: twisted_homogeneity(
        [_edge(1, 1, -0.2, 1.0)], _deep_bump()),
    "symbol_order": lambda rng: symbol_order(
        [_edge(1, 1, -0.2, 1.0)], _deep_bump()),
    "eta_derivative_order": lambda rng: eta_derivative_order(
        [_edge(1, 1, -1.2, 1.0, -0.5)], _deep_bump()),
    "green_equivalence": lambda rng: green_equivalence(
        [_pole(0.25)], [(0.0, 0.5)], _r_exp(_grid(-30.0, 32768))),
    "branching_benchmark": lambda rng: branching_benchmark(
        _grid(-50.0, 8192), [s * y for y in (0.05, 0.15, 0.25, 0.35, 0.45)
                             for s in (1.0, -1.0)],
        BUMP_MELLIN, BUMP_MELLIN_D0, np.arange(-0.004, 0.0041, 0.002)),
    "adjoint_pairing": lambda rng: adjoint_pairing(
        [_edge(0, 0, -0.2, 0.0)], _bump_pairs(rng)),
    "adjoint_involution": lambda rng: adjoint_involution(
        [_edge(0, 0, -1.25, 0.0), _edge(1, 0, -0.75 + 0.5j, 1.0, -0.25)]),
    "convention_independence": lambda rng: convention_independence(
        [(_edge(1, 0, 0.8, 1.0), _edge(1, 0, 0.8, 1.0, -0.6), [1.0, 2.0])],
        [(_edge(0, 0, -0.5, 0.0), _edge(0, 0, -0.5, 0.0, omega_prime=(
            CutoffFunction(scale=2.0))), [1.0, 1.5])], _deep_bump()),
    "edge_w0_is_l2": lambda rng: edge_w0_is_l2([_random_edge_field(rng)]),
    "edge_potential_roundtrip": lambda rng: edge_potential_roundtrip(
        [_random_edge_field(rng)]),
    "edge_decomposition": lambda rng: edge_decomposition(
        _edge(0, 0, -0.6, 0.0), TorusGrid(2 * np.pi, 8), _grid(-50.0, 8192),
        [[(-0.3 + 0j, 0)], [(-0.35 + 0j, 1), (-0.15 + 0.3j, 0)]]),
    "green_finite_rank": lambda rng: green_finite_rank(
        _rank_one(1.0, _deep_bump(0.5, 2.0)), _deep_bump(1.0, 3.0),
        [0.0, 1.5, 4.0]),
    "asymptotic_sum_remainders": lambda rng: asymptotic_sum_remainders(
        [_rank_one(m, bump_rhs(_grid(-15.0, 2048), 0.5, 2.0))
         for m in (1.0, 0.0, -1.0)],
        bump_rhs(_grid(-15.0, 2048), 0.5, 2.0), [2.0, 4.0, 8.0]),
    "type_algebra": lambda rng: _type_algebra(np.linspace(-0.5, 0.5, 5)),
    "kernel_cutoff_decay": lambda rng: kernel_cutoff_decay(
        [random_bump_field(_grid(-15.0, 4096), rng)]),
}
