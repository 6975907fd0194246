"""Operator-valued edge symbols on the half-line fiber (scalar mode, n = 0).

Smoothing Mellin symbols m(y, eta) = sum over terms of
omega(r[eta]) r^{-mu+j} eta^alpha op_M^{gamma_j}(f)(y) omega'(r[eta]),
their twisted homogeneity and symbol estimates, weight-shift Green
commutators, formal adjoints, finite-rank Green symbols, convention
differences, eta-derivatives, and asymptotic summation with excision.
"""

from math import factorial

import numpy as np

from .errors import (
    CertificationFailed,
    LambdaOffGrid,
    ScheduleDiverged,
)
from .kernels import (
    CERT_T_FLOOR,
    circle_nodes,
    contour_synthesis,
    point_mass_synthesis,
    residue_weights,
)
from .mellin import (
    SHIFTED_TAIL_TOL,
    TAIL_TOL,
    CutoffFunction,
    HalfLineFunction,
    kappa,
    mellin_eval,
    op_mellin,
)
from .symbols import (
    MeromorphicSymbol,
    laurent_expand,
    locate_poles,
    p2_reflect_conj,
)

GREEN_TOL = 1e-7
SLOPE_TOL = 0.1
FD_ETA_REL = 1e-3
GREEN_N_CONTOUR = 256
# |eta| fan on which eta_derivative_green_check measures the order drop
ETA_DERIVATIVE_FAN = (1.5, 3.0, 6.0, 12.0)

_omega0 = CutoffFunction("canonical")


def eta_bracket(eta):
    """[eta] = (1 - omega0(|eta|)) |eta| + omega0(|eta|), elementwise:
    smooth, >= 1/2, equal to |eta| for |eta| >= 1 and to 1 near eta = 0.
    A scalar gives a float."""
    mag = np.abs(np.asarray(eta, dtype=float))
    w = _omega0(mag.ravel()).reshape(mag.shape)
    out = (1.0 - w) * mag + w
    return float(out) if out.ndim == 0 else out


def eta_power(eta, alpha):
    """eta^alpha for scalar eta / multi-index collapsed to an integer."""
    return complex(eta) ** int(alpha)


def l2_dr_pairing(u, v):
    """(u, v) = int_0^infty u v-bar dr on the log grid (dr = r dt)."""
    g = u.grid
    return complex(g.dt * np.sum(u.values * np.conj(v.values) * g.r))


class MellinEdgeSymbol:
    """terms: list of (j, alpha, f, gamma_j); evaluation per eval_mellin_edge_symbol."""

    def __init__(self, terms, mu, gamma, omega=None, omega_prime=None,
                 r_power_right=False, validate=True):
        self.terms = [(int(j), int(alpha), f, float(gj))
                      for j, alpha, f, gj in terms]
        self.mu = float(mu)
        self.gamma = float(gamma)
        self.omega = omega if omega is not None else CutoffFunction("canonical")
        self.omega_prime = (omega_prime if omega_prime is not None
                            else CutoffFunction("canonical"))
        self.r_power_right = bool(r_power_right)
        if validate:
            for j, alpha, _f, gj in self.terms:
                if abs(alpha) > j:
                    raise ValueError("|alpha| must be <= j")
                if not (self.gamma - j - 1e-12 <= gj <= self.gamma + 1e-12):
                    raise ValueError(
                        "gamma_j = %g outside [gamma - j, gamma] = [%g, %g]"
                        % (gj, self.gamma - j, self.gamma)
                    )

    def single_term(self):
        if len(self.terms) != 1:
            raise ValueError("operation requires a single-term symbol")
        return self.terms[0]


def eval_mellin_edge_symbol(m, y, eta, u, tail_tol=TAIL_TOL):
    """Apply m(y, eta) to u on the log grid."""
    s = eta_bracket(eta)
    g = u.grid
    w_out = m.omega(g.r * s)
    w_in = m.omega_prime(g.r * s)
    out = np.zeros(g.n_points, dtype=complex)
    for j, alpha, f, gj in m.terms:
        rp = g.r ** (-m.mu + j)
        if m.r_power_right:
            v = HalfLineFunction(g, rp * w_in * u.values)
            a = op_mellin(f, y, gj, v, tail_tol=tail_tol)
            out += eta_power(eta, alpha) * w_out * a.values
        else:
            v = HalfLineFunction(g, w_in * u.values)
            a = op_mellin(f, y, gj, v, tail_tol=tail_tol)
            out += eta_power(eta, alpha) * w_out * rp * a.values
    return HalfLineFunction(g, out, weight_hint=m.gamma)


def _require_grid_aligned(lam, dt):
    s = np.log(lam)
    k = s / dt
    if abs(k - round(k)) > 1e-9:
        raise LambdaOffGrid("log(lambda)/dt = %.6g is not an integer" % k)


def twisted_homogeneity_defect(m, y, eta, lam, u):
    """Relative defect of m(y, lam*eta) - lam^{mu-j+|alpha|} kappa_lam
    m(y, eta) kappa_lam^{-1}, for |eta| >= 1, lam >= 1 (single term)."""
    j, alpha, _f, _gj = m.single_term()
    if abs(eta) < 1 or lam < 1:
        raise ValueError("homogeneity regime needs |eta| >= 1 and lambda >= 1")
    _require_grid_aligned(lam, u.grid.dt)
    lhs = eval_mellin_edge_symbol(m, y, lam * eta, u)
    inner = eval_mellin_edge_symbol(m, y, eta, kappa(u, 1.0 / lam),
                                    tail_tol=SHIFTED_TAIL_TOL)
    rhs_vals = lam ** (m.mu - j + abs(alpha)) * kappa(inner, lam).values
    num = HalfLineFunction(u.grid, lhs.values - rhs_vals).norm(0.0)
    den = max(lhs.norm(0.0), 1e-300)
    return num / den


def twisted_norm(m, y, eta, u):
    """||kappa_{[eta]}^{-1} m(y, eta) kappa_{[eta]} u|| in L^2(dr)."""
    s = eta_bracket(eta)
    w = kappa(u, s)
    mv = (eval_mellin_edge_symbol(m, y, eta, w)
          if isinstance(m, MellinEdgeSymbol) else m(y, eta, w))
    return kappa(mv, 1.0 / s).norm(0.0)


def _loglog_slope(ns, etas):
    """(slope of log ns against log [eta], the (scale, norm) samples)."""
    ss = [eta_bracket(e) for e in etas]
    slope = np.polyfit(np.log(ss), np.log(ns), 1)[0]
    return float(slope), list(zip(ss, ns))


def measured_order(m, y, u, etas):
    """Log-log slope of the twisted norm over an |eta| fan (symbol order)."""
    return _loglog_slope([twisted_norm(m, y, e, u) for e in etas], etas)


def weight_shift_green(f, y, delta, beta, u, tail_tol=TAIL_TOL):
    """G(y) u = op_M^{delta+beta}(f) u - op_M^{delta}(f) u and its contour
    form over the poles of f in the strip between the two weight lines.

    Moving the inversion line left across a pole removes its residue, so
    the line difference equals MINUS the counter-clockwise residue sum; the
    contour is oriented (clockwise) so both returned functions agree.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    # op_mellin checks each line's clearance; the delta line goes first
    b = op_mellin(f, y, delta, u, tail_tol=tail_tol)
    a = op_mellin(f, y, delta + beta, u, tail_tol=tail_tol)
    diff = HalfLineFunction(u.grid, a.values - b.values)

    lo, hi = 0.5 - delta - beta, 0.5 - delta
    poles = locate_poles(f, y)
    t = u.grid.t
    vals = np.zeros(u.grid.n_points, dtype=complex)
    for p, _mm in poles:
        if not lo < p.real < hi:
            continue
        others = [abs(q - p) for q, _m in poles if q != p]
        radius = min(p.real - lo, hi - p.real,
                     min(others, default=np.inf) / 2) * 0.9
        _theta, z, dz = circle_nodes(p, radius, GREEN_N_CONTOUR)
        fz = f(y, z) * mellin_eval(u, z)
        # clockwise orientation: minus the ccw integral
        vals -= contour_synthesis(t, z, fz * dz)
    contour_form = HalfLineFunction(u.grid, vals)
    return diff, contour_form


def green_agreement(diff, cont, gamma):
    """Relative two-form agreement in the gamma-weighted norm.

    Measuring at the weight of the right-hand line cancels the
    exponential amplification of rounding noise at the far-left grid end.
    """
    g = diff.grid
    d = HalfLineFunction(g, diff.values - cont.values)
    return d.norm(gamma) / max(diff.norm(gamma), cont.norm(gamma), 1e-300)


def _op_singular_values(f, y, gamma, w, depth=8.0):
    """Singular part of op_M^gamma(f) w near r = 0: residue synthesis of
    r^{-z} f(z) Mw(z) over the poles of f left of the weight line."""
    line_re = 0.5 - gamma
    masses = []
    for p, mm in locate_poles(f, y):
        if not (line_re - depth < p.real < line_re):
            continue
        d = laurent_expand(f, y, p, order=mm - 1)
        taylor = [mellin_eval(w, p, derivative=jj) / factorial(jj)
                  for jj in range(mm)]
        masses.append((p, residue_weights(d, taylor)))
    return point_mass_synthesis(w.grid.t, masses)


def formal_adjoint(m):
    """m* in the L^2(dr) = K^{0,0} pairing: symbols reflected z -> 1 - z-bar,
    weights negated, cut-offs swapped, r-power moved across the Mellin op."""
    terms = []
    for j, alpha, f, gj in m.terms:
        fstar = MeromorphicSymbol(p2_reflect_conj(f.num),
                                  p2_reflect_conj(f.den),
                                  f.y_domain, reduce=False)
        terms.append((j, alpha, fstar, -gj))
    return MellinEdgeSymbol(terms, mu=m.mu, gamma=-m.gamma,
                            omega=m.omega_prime, omega_prime=m.omega,
                            r_power_right=not m.r_power_right,
                            validate=False)


def adjoint_pairing_defect(m, y, eta, u, v):
    """|(m u, v) - (u, m* v)| / (||u|| ||v||) in L^2(dr)."""
    mu_ = eval_mellin_edge_symbol(m, y, eta, u)
    mstar = formal_adjoint(m)
    mv_ = eval_mellin_edge_symbol(mstar, y, eta, v)
    lhs = l2_dr_pairing(mu_, v)
    rhs = l2_dr_pairing(u, mv_)
    return abs(lhs - rhs) / max(u.norm(0.0) * v.norm(0.0), 1e-300)


class GreenSymbolFiniteRank:
    """Finite-rank Green symbol: sum of separable kernels with scaled
    arguments r[eta], r'[eta].

    rank_terms: list of (zeta_out, trace_in, amplitude) where zeta_out is an
    AnalyticFunctional (point masses), trace_in a HalfLineFunction kernel,
    and amplitude a scalar (or callable of eta) of declared order `order_m`.
    """

    def __init__(self, rank_terms, order_m, weights=None, omega=None):
        self.rank_terms = list(rank_terms)
        self.order_m = float(order_m)
        self.weights = weights
        self.omega = omega if omega is not None else CutoffFunction("canonical")


def green_apply(g, y, eta, u):
    """g(y, eta) u: y-independent finite-rank action, scaled arguments."""
    s = eta_bracket(eta)
    grid = u.grid
    out = np.zeros(grid.n_points, dtype=complex)
    for zeta_out, trace_in, amplitude in g.rank_terms:
        a = amplitude(eta) if callable(amplitude) else amplitude
        if a == 0:
            continue
        # T = int t(r'[eta]) u(r') dr'  with t(r'[eta]) = kappa_s t / sqrt(s)
        tk = kappa(trace_in, s).values / np.sqrt(s)
        tval = grid.dt * np.sum(tk * u.values * grid.r)
        # output: a [eta]^{1/2} omega(r[eta]) <zeta, (r[eta])^{-z}> T
        rs = grid.r * s
        sing = point_mass_synthesis(grid.t + np.log(s), [
            (mass.p, mass.weights) for mass in zeta_out.masses])
        out += a * np.sqrt(s) * g.omega(rs) * sing * tval
    return HalfLineFunction(grid, out)


def green_twisted_norm(g, y, eta, u):
    s = eta_bracket(eta)
    return kappa(green_apply(g, y, eta, kappa(u, s)), 1.0 / s).norm(0.0)


def green_measured_order(g, y, u, etas):
    return _loglog_slope([green_twisted_norm(g, y, e, u) for e in etas], etas)


def mellin_convention_difference(m1, m2, y, u, etas):
    """Certify that d(y, eta) = m1 - m2 behaves as a Green symbol.

    Same cut-offs / different weights: the difference must reproduce the
    weight-shift contour term.  Different cut-offs / same weights: the
    difference must vanish identically near r = 0 (flat to all orders).
    Both clauses compare against GREEN_TOL.  Returns a defect report;
    raises CertificationFailed on violation.
    """
    report = {"clauses": []}
    same_cutoffs = (m1.omega is m2.omega or
                    np.allclose(m1.omega(u.grid.r), m2.omega(u.grid.r))) and \
                   (m1.omega_prime is m2.omega_prime or
                    np.allclose(m1.omega_prime(u.grid.r),
                                m2.omega_prime(u.grid.r)))
    for eta in etas:
        d1 = eval_mellin_edge_symbol(m1, y, eta, u)
        d2 = eval_mellin_edge_symbol(m2, y, eta, u)
        dvals = d1.values - d2.values
        if same_cutoffs:
            # per-term weight-shift contour oracle
            s = eta_bracket(eta)
            w_in = m1.omega_prime(u.grid.r * s)
            oracle = np.zeros(u.grid.n_points, dtype=complex)
            for (j, alpha, f, gj), (_j2, _a2, _f2, gj2) in zip(m1.terms,
                                                               m2.terms):
                if abs(gj - gj2) < 1e-15:
                    continue
                lo_g, hi_g = min(gj, gj2), max(gj, gj2)
                v = HalfLineFunction(u.grid, w_in * u.values)
                _diff, cont = weight_shift_green(f, y, lo_g, hi_g - lo_g, v)
                sign = 1.0 if gj > gj2 else -1.0
                oracle += (sign * eta_power(eta, alpha)
                           * m1.omega(u.grid.r * s)
                           * u.grid.r ** (-m1.mu + j) * cont.values)
            gmin = min(min(gj, gj2) for (_j, _a, _f, gj), (_j2, _a2, _f2, gj2)
                       in zip(m1.terms, m2.terms))
            defect = (HalfLineFunction(u.grid, dvals - oracle).norm(gmin)
                      / max(u.norm(gmin), 1e-300))
            report["clauses"].append(
                {"clause": "weight-shift contour", "eta": float(eta),
                 "max_defect": defect, "tolerance": GREEN_TOL}
            )
            if defect > GREEN_TOL:
                raise CertificationFailed(
                    "weight-shift difference misses the contour oracle "
                    "(defect %.3e)" % defect, clause="weight-shift contour",
                )
        else:
            # below the smallest cut-off plateau the difference reduces to
            # op(f) applied to (omega1' - omega2') u, whose r -> 0 behavior
            # is the residue synthesis over poles left of the weight line;
            # after subtracting it the remainder must be flat.  The window
            # starts at t = CERT_T_FLOOR (left of it the shifted weights
            # amplify rounding noise past any fixed threshold).
            s = eta_bracket(eta)
            a_min = min(m1.omega.a, m2.omega.a, m1.omega_prime.a,
                        m2.omega_prime.a) / s
            sing = np.zeros(u.grid.n_points, dtype=complex)
            w_d = HalfLineFunction(
                u.grid,
                (m1.omega_prime(u.grid.r * s) - m2.omega_prime(u.grid.r * s))
                * u.values,
            )
            for j, alpha, f, gj in m1.terms:
                sing += (eta_power(eta, alpha) * u.grid.r ** (-m1.mu + j)
                         * _op_singular_values(f, y, gj, w_d))
            mask = (u.grid.r <= a_min) & (u.grid.t >= CERT_T_FLOOR)
            resid = np.abs(dvals - sing)[mask] if mask.any() else np.zeros(1)
            scale = max(float(np.max(np.abs(dvals))), 1e-300)
            defect = float(np.max(resid)) / scale
            report["clauses"].append(
                {"clause": "cut-off flatness", "eta": float(eta),
                 "max_defect": defect, "tolerance": GREEN_TOL}
            )
            if defect > GREEN_TOL:
                raise CertificationFailed(
                    "cut-off difference is not flat near r = 0 after "
                    "removing the residue-synthesized singular part",
                    clause="cut-off flatness",
                )
    report["max_defect"] = max(c["max_defect"] for c in report["clauses"])
    return report


def eta_derivative(m, y, eta, u):
    """Richardson-extrapolated central difference of eta -> m(y, eta) u."""
    h = FD_ETA_REL * eta_bracket(eta)

    def fd(step):
        a = eval_mellin_edge_symbol(m, y, eta + step, u)
        b = eval_mellin_edge_symbol(m, y, eta - step, u)
        return (a.values - b.values) / (2 * step)

    d1, d2 = fd(h), fd(h / 2)
    vals = (4 * d2 - d1) / 3.0
    fd_defect = (float(np.sqrt(u.grid.dt * np.sum(
        np.abs((d2 - d1) * np.exp(0.5 * u.grid.t)) ** 2)))
        / max(u.norm(0.0), 1e-300))
    return HalfLineFunction(u.grid, vals), fd_defect


def eta_derivative_green_check(m, y, u):
    """Certify that d m / d eta drops one order and keeps Green structure."""
    j, alpha, _f, _gj = m.single_term()

    def dm(yy, e, w):
        return eta_derivative(m, yy, e, w)[0]

    slope, samples = measured_order(dm, y, u, ETA_DERIVATIVE_FAN)
    target = m.mu - j + abs(alpha) - 1
    report = {
        "clause": "eta-derivative order drop",
        "measured_slope": slope,
        "target_order": target,
        "margin": target + SLOPE_TOL - slope,
        "grid": [float(x) for x, _n in samples],
    }
    if slope > target + SLOPE_TOL:
        raise CertificationFailed(
            "eta-derivative slope %.4f exceeds %.4f"
            % (slope, target + SLOPE_TOL),
            clause="eta-derivative order drop",
        )
    return report


def excision(x):
    """chi = 1 - omega0: 0 near 0, 1 beyond 1."""
    return 1.0 - _omega0(np.abs(np.asarray(x, dtype=float)))


def asymptotic_sum(gs, y, u, eta_fan, margin=10.0, c_max=2.0**24):
    """Sum_j chi(eta / c_j) g_j with c_j chosen so every partial-sum tail
    satisfies the order bound on the eta fan.

    gs are Green symbols of orders m - j (descending); the returned symbol's
    rank terms carry the excision inside their amplitudes.
    """
    if not gs:
        return GreenSymbolFiniteRank([], order_m=0.0)
    m0 = gs[0].order_m
    cs = [2.0 ** jj for jj in range(len(gs))]
    unorm = max(u.norm(0.0), 1e-300)

    def tail_norm(n_keep, eta):
        s = eta_bracket(eta)
        w = kappa(u, s)
        vals = np.zeros(u.grid.n_points, dtype=complex)
        for jj in range(n_keep + 1, len(gs)):
            chi = float(excision(np.abs(eta) / cs[jj]))
            if chi == 0.0:
                continue
            vals += chi * green_apply(gs[jj], y, eta, w).values
        return kappa(HalfLineFunction(u.grid, vals), 1.0 / s).norm(0.0)

    for n_keep in range(len(gs) - 1):
        bound_ok = False
        while not bound_ok:
            bound_ok = True
            for eta in eta_fan:
                s = eta_bracket(eta)
                if tail_norm(n_keep, eta) > margin * s ** (m0 - n_keep - 1) * unorm:
                    bound_ok = False
                    break
            if not bound_ok:
                for jj in range(n_keep + 1, len(gs)):
                    cs[jj] *= 2.0
                if max(cs) > c_max:
                    raise ScheduleDiverged(
                        "excision schedule exceeded c_max", failing_n=n_keep
                    )

    rank_terms = []
    for jj, gj in enumerate(gs):
        cj = cs[jj]
        for zeta_out, trace_in, amplitude in gj.rank_terms:
            def make_amp(a0, c0):
                def amp(eta):
                    base = a0(eta) if callable(a0) else a0
                    return float(excision(np.abs(eta) / c0)) * base
                return amp
            rank_terms.append((zeta_out, trace_in, make_amp(amplitude, cj)))
    out = GreenSymbolFiniteRank(rank_terms, order_m=m0,
                                weights=gs[0].weights, omega=gs[0].omega)
    out.schedule = list(cs)
    return out


def defect_report_json(report):
    import json
    return json.dumps(report, sort_keys=True, default=float)


def slopes_to_csv(samples, fileobj):
    fileobj.write("scale,norm\n")
    for s, n in samples:
        fileobj.write("%.17g,%.17g\n" % (s, n))
