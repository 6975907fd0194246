"""Operator-valued edge symbols on the half-line fiber (scalar mode, n = 0).

Smoothing Mellin symbols m(y, eta) = sum over terms of
omega(r[eta]) r^{-mu+j} eta^alpha op_M^{gamma_j}(f)(y) omega'(r[eta]),
their twisted homogeneity and symbol estimates, weight-shift Green
commutators, formal adjoints, finite-rank Green symbols, convention
differences, eta-derivatives, and asymptotic summation with excision.
"""

import numpy as np

from .errors import LambdaOffGrid, NonFiniteInput, ScheduleDiverged
from .kernels import (
    CERT_T_FLOOR,
    circle_nodes,
    contour_synthesis,
    point_mass_synthesis,
    scaled_singular,
)
from .mellin import (
    SHIFTED_TAIL_TOL,
    TAIL_TOL,
    CutoffFunction,
    HalfLineFunction,
    check_line_clearance,
    kappa,
    line_inverse,
    line_transform,
    mellin_eval,
    op_mellin,
    residue_masses,
)
from .symbols import (
    MeromorphicSymbol,
    locate_poles,
    p2_reflect_conj,
    pole_records,
)

FD_ETA_REL = 1e-3
GREEN_N_CONTOUR = 256
# harvest depth left of the weight line in the cut-off flatness clause of
# mellin_convention_difference
SINGULAR_DEPTH = 8.0
# modes per stacked inverse FFT in mellin_edge_rows: each extra mode keeps
# about six more N-point rows alive, and 4 ran no faster than 2 at N = 4096
MODE_BLOCK = 2

_omega0 = CutoffFunction()


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
        self.omega = omega if omega is not None else CutoffFunction()
        self.omega_prime = (omega_prime if omega_prime is not None
                            else CutoffFunction())
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


def mellin_edge_rows(m, ys, etas, modes, grid, tail_tol=TAIL_TOL):
    """Yield (j, k, m(ys[j], etas[k]) modes[k]), k ascending for each j.

    Line clearance and f(y_j, .) on each term's weight line run once per
    node, before any transform.  Each mode is transformed once per term;
    at each node, blocks of MODE_BLOCK modes share one stacked inverse FFT."""
    r, rho = grid.r, grid.rho
    records = [pole_records(f, ys) for _j, _a, f, _gj in m.terms]
    for k in range(len(ys)):
        for (_j, _a, _f, gj), recs in zip(m.terms, records):
            check_line_clearance(recs[k], gj)
    fz = [[f(y, (0.5 - gj) + 1j * rho) for _j, _a, f, gj in m.terms]
          for y in ys]
    rps = [r ** (-m.mu + j) for j, _a, _f, _gj in m.terms]
    inverts = [line_inverse(rho, grid, gj) for _j, _a, _f, gj in m.terms]
    for k0 in range(0, len(etas), MODE_BLOCK):
        ks = range(k0, min(k0 + MODE_BLOCK, len(etas)))
        lines = np.empty((len(m.terms), len(ks), grid.n_points), dtype=complex)
        coefs = np.empty_like(lines)
        for i, k in enumerate(ks):
            s = eta_bracket(etas[k])
            w_out, w_in = m.omega(r * s), m.omega_prime(r * s)
            for t, (_j, alpha, _f, gj) in enumerate(m.terms):
                ep = eta_power(etas[k], alpha)
                if m.r_power_right:
                    v, coefs[t, i] = rps[t] * w_in * modes[k], ep * w_out
                else:
                    v, coefs[t, i] = w_in * modes[k], ep * w_out * rps[t]
                lines[t, i] = line_transform(v, grid, gj, tail_tol)
        for j, fzj in enumerate(fz):
            out = np.zeros((len(ks), grid.n_points), dtype=complex)
            for t, invert in enumerate(inverts):
                a = invert(lines[t] * fzj[t])
                out += np.multiply(coefs[t], a, out=a)
            if not np.all(np.isfinite(out)):
                raise NonFiniteInput("non-finite edge symbol output")
            yield from ((j, k, row) for k, row in zip(ks, out))


def eval_mellin_edge_symbol(m, y, eta, u, tail_tol=TAIL_TOL):
    """Apply m(y, eta) to u on the log grid."""
    _j, _k, out = next(mellin_edge_rows(m, [y], [eta], u.values[None],
                                        u.grid, tail_tol))
    return HalfLineFunction(u.grid, out)


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
    """||kappa_{[eta]}^{-1} m(y, eta) kappa_{[eta]} u|| in L^2(dr), for a
    MellinEdgeSymbol, a GreenSymbolFiniteRank or a callable m(y, eta, u)."""
    s = eta_bracket(eta)
    w = kappa(u, s)
    if isinstance(m, MellinEdgeSymbol):
        mv = eval_mellin_edge_symbol(m, y, eta, w)
    elif isinstance(m, GreenSymbolFiniteRank):
        mv = green_apply(m, y, eta, w)
    else:
        mv = m(y, eta, w)
    return kappa(mv, 1.0 / s).norm(0.0)


def measured_order(m, y, u, etas):
    """Log-log slope of the twisted norm over an |eta| fan (symbol order),
    and the ([eta], norm) samples it was fitted to."""
    ns = [twisted_norm(m, y, e, u) for e in etas]
    ss = [eta_bracket(e) for e in etas]
    slope = np.polyfit(np.log(ss), np.log(ns), 1)[0]
    return float(slope), list(zip(ss, ns))


def weight_shift_green(f, y, delta, beta, u, tail_tol=TAIL_TOL):
    """G(y) u = op_M^{delta+beta}(f) u - op_M^{delta}(f) u and its contour
    form over the poles of f in the strip between the two weight lines.

    Moving the inversion line left across a pole removes its residue, so
    the line difference equals MINUS the counter-clockwise residue sum; the
    contour is oriented (clockwise) so both returned functions agree.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    poles = locate_poles(f, y)
    # op_mellin checks each line's clearance; the delta line goes first
    b = op_mellin(f, y, delta, u, tail_tol=tail_tol, poles=poles)
    a = op_mellin(f, y, delta + beta, u, tail_tol=tail_tol, poles=poles)
    diff = HalfLineFunction(u.grid, a.values - b.values)
    return diff, _shift_contour(f, y, delta, beta, u, poles)


def _shift_contour(f, y, delta, beta, u, poles):
    """Contour form of the weight-shift Green operator: the clockwise circle
    integrals of r^{-z} f(y, z) M u(z) / (2 pi i) around the poles of the
    PoleRecord `poles` strictly between the two weight lines."""
    lo, hi = 0.5 - delta - beta, 0.5 - delta
    vals = np.zeros(u.grid.n_points, dtype=complex)
    for (p, _mm), gap in zip(poles.pairs, poles.gaps):
        if not lo < p.real < hi:
            continue
        radius = min(p.real - lo, hi - p.real, gap / 2) * 0.9
        _theta, z, dz = circle_nodes(p, radius, GREEN_N_CONTOUR)
        fz = f(y, z) * mellin_eval(u, z)
        # clockwise orientation: minus the ccw integral
        vals -= contour_synthesis(u.grid, z, fz * dz)
    return HalfLineFunction(u.grid, vals)


def green_agreement(diff, cont, gamma):
    """Relative two-form agreement in the gamma-weighted norm.

    Measuring at the weight of the right-hand line cancels the
    exponential amplification of rounding noise at the far-left grid end.
    """
    g = diff.grid
    d = HalfLineFunction(g, diff.values - cont.values)
    return d.norm(gamma) / max(diff.norm(gamma), cont.norm(gamma), 1e-300)


def _op_singular_values(f, y, poles, gamma, w):
    """Singular part of op_M^gamma(f) w near r = 0: residue synthesis of
    r^{-z} f(z) Mw(z) over the poles of f (the PoleRecord `poles` of
    f(y, .)) within SINGULAR_DEPTH left of the weight line."""
    line_re = 0.5 - gamma
    masses = residue_masses(f, y, poles, w, line_re - SINGULAR_DEPTH,
                            line_re)
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

    def __init__(self, rank_terms, order_m, omega=None):
        self.rank_terms = list(rank_terms)
        self.order_m = float(order_m)
        self.omega = omega if omega is not None else CutoffFunction()


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
        out += a * scaled_singular(zeta_out.masses, grid.t, s,
                                   g.omega) * tval
    return HalfLineFunction(grid, out)


def mellin_convention_difference(m1, m2, y, u, etas):
    """How far d(y, eta) = m1 - m2 is from a Green symbol: (clause, the
    clause's defect at each eta), with the clause chosen by the cut-offs.

    Same cut-offs / different weights ("weight-shift contour"): the
    difference must reproduce the weight-shift contour term.  Different
    cut-offs / same weights ("cut-off flatness"): the difference must
    vanish identically near r = 0 (flat to all orders).
    """
    g = u.grid
    same_cutoffs = (m1.omega is m2.omega or
                    np.allclose(m1.omega(g.r), m2.omega(g.r))) and \
                   (m1.omega_prime is m2.omega_prime or
                    np.allclose(m1.omega_prime(g.r), m2.omega_prime(g.r)))
    # m1 and m2 applied to u at every eta, one pole search per term each
    modes = np.broadcast_to(u.values, (len(etas), g.n_points))
    d1, d2 = ([a for _j, _k, a in mellin_edge_rows(m, [y], etas, modes, g)]
              for m in (m1, m2))
    if same_cutoffs:
        # the terms whose weights differ, with their poles at y
        shifted = [(j, alpha, f, gj, gj2, locate_poles(f, y))
                   for (j, alpha, f, gj), (_j2, _a2, _f2, gj2)
                   in zip(m1.terms, m2.terms) if not abs(gj - gj2) < 1e-15]
        gmin = min(min(gj, gj2) for (_j, _a, _f, gj), (_j2, _a2, _f2, gj2)
                   in zip(m1.terms, m2.terms))
    else:
        term_poles = [locate_poles(f, y) for _j, _a, f, _gj in m1.terms]
    defects = []
    for eta, a1, a2 in zip(etas, d1, d2):
        dvals = a1 - a2
        s = eta_bracket(eta)
        if same_cutoffs:
            # per-term weight-shift contour oracle
            v = HalfLineFunction(g, m1.omega_prime(g.r * s) * u.values)
            oracle = np.zeros(g.n_points, dtype=complex)
            for j, alpha, f, gj, gj2, poles in shifted:
                lo_g, hi_g = min(gj, gj2), max(gj, gj2)
                cont = _shift_contour(f, y, lo_g, hi_g - lo_g, v, poles)
                sign = 1.0 if gj > gj2 else -1.0
                oracle += (sign * eta_power(eta, alpha)
                           * m1.omega(g.r * s)
                           * g.r ** (-m1.mu + j) * cont.values)
            defects.append(HalfLineFunction(g, dvals - oracle).norm(gmin)
                           / max(u.norm(gmin), 1e-300))
        else:
            # below the smallest cut-off plateau the difference reduces to
            # op(f) applied to (omega1' - omega2') u, whose r -> 0 behavior
            # is the residue synthesis over poles left of the weight line;
            # after subtracting it the remainder must be flat.  The window
            # starts at t = CERT_T_FLOOR (left of it the shifted weights
            # amplify rounding noise past any fixed threshold).
            a_min = min(m1.omega.a, m2.omega.a, m1.omega_prime.a,
                        m2.omega_prime.a) / s
            sing = np.zeros(g.n_points, dtype=complex)
            w_d = HalfLineFunction(
                g, (m1.omega_prime(g.r * s) - m2.omega_prime(g.r * s))
                * u.values)
            for (j, alpha, f, gj), poles in zip(m1.terms, term_poles):
                sing += (eta_power(eta, alpha) * g.r ** (-m1.mu + j)
                         * _op_singular_values(f, y, poles, gj, w_d))
            mask = (g.r <= a_min) & (g.t >= CERT_T_FLOOR)
            resid = np.abs(dvals - sing)[mask] if mask.any() else np.zeros(1)
            scale = max(float(np.max(np.abs(dvals))), 1e-300)
            defects.append(float(np.max(resid)) / scale)
    return ("weight-shift contour" if same_cutoffs else "cut-off flatness",
            defects)


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
                    raise ScheduleDiverged("excision schedule exceeded c_max")

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
    return GreenSymbolFiniteRank(rank_terms, order_m=m0, omega=gs[0].omega)
