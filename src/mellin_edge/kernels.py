"""The numerical kernels shared by the calculus modules, one implementation
each: circle trapezoid quadrature (geometrically convergent for functions
analytic on an annulus; Trefethen & Weideman, SIAM Review 56, 2014), factored
contour synthesis, point-mass synthesis and its scaled singular function,
residue weights, and the windowed weighted mass with the flat-remainder
certification built on it.  numpy and the standard library only.
"""

import math

import numpy as np

from .errors import CertificationFailed

# Flat-remainder certification: weighted masses on the window t >=
# CERT_T_FLOOR (further left, shifted weights amplify rounding noise past
# any fixed threshold) at the shifts frac * (depth - CERT_MARGIN) must stay
# within CERT_FACTOR of the base-weight mass.
CERT_T_FLOOR = -12.0
CERT_FACTOR = 50.0
CERT_FRACS = (0.25, 0.6, 0.95)
CERT_MARGIN = 0.1


def circle_nodes(center, radius, n):
    """Trapezoid rule on |z - center| = radius, counter-clockwise:
    (theta, z nodes, dz weights) with n equispaced nodes."""
    theta = 2 * np.pi * np.arange(n) / n
    z = center + radius * np.exp(1j * theta)
    dz = 1j * radius * np.exp(1j * theta) * (2 * np.pi / n)
    return theta, z, dz


def circle_moments(f, center, radius, ks, n):
    """d_k = (2 pi i)^{-1} oint f(z) (z - center)^k dz for k in ks, by the
    n-node trapezoid rule: d_k = radius^{k+1} mean(f e^{i(k+1) theta}).

    At a pole, d_k is the coefficient of (z - center)^{-(k+1)}; k = -(l+1)
    gives the Cauchy integral f^(l)(center) / l!.
    """
    theta, z, _dz = circle_nodes(center, radius, n)
    fv = np.asarray(f(z), dtype=complex)
    ks = np.asarray(ks)
    return radius ** (ks + 1) * np.mean(
        fv[None, :] * np.exp(1j * np.outer(ks + 1, theta)), axis=1
    )


def contour_synthesis(grid, z, f_dz):
    """sum over contour nodes of f(z) r^{-z} dz / (2 pi i) at the grid's
    r = e^t, with f_dz = f(z) dz.  t = t_a + s_b (t_a = t_min + a B dt,
    s_b = b dt) factors e^{-t z} into one (N/B x K) @ (K x B) product:
    (N/B + B) K exponentials in place of N K."""
    n, dt = grid.n_points, grid.dt
    b = 2 ** ((n.bit_length() - 1) // 2)   # n = 2^k: b = 2^floor(k/2)
    rows = np.exp(np.outer(-grid.t_min - b * dt * np.arange(n // b), z))
    cols = np.exp(np.outer(-dt * np.arange(b), z))
    return ((rows * f_dz) @ cols.T).reshape(n) / (2j * np.pi)


def point_mass_synthesis(s, masses):
    """sum_j sum_l w_jl (-s)^l e^{-p_j s} for masses [(p_j, w_j)], at
    s = log r (or log(r [eta]) for scaled arguments)."""
    vals = np.zeros(np.shape(s), dtype=complex)
    for p, weights in masses:
        rp = np.exp(-p * s)
        for l, w in enumerate(weights):
            if w != 0:
                vals += w * (-s) ** l * rp
    return vals


def residue_weights(d, taylor):
    """w_k = sum_{i>=k} d_i T_{i-k} / k!, k < len(d): with d the Laurent
    data of a symbol at p and T the Taylor data of the function it
    multiplies, the residue of r^{-z} times the product at p is
    sum_k w_k (-log r)^k r^{-p}."""
    m = len(d)
    return np.array([
        sum(d[i] * taylor[i - k] for i in range(k, m)) / math.factorial(k)
        for k in range(m)
    ], dtype=complex)


def windowed_mass(s, values, gamma, dt):
    """sqrt(dt sum |e^{(1/2 - gamma) s} v|^2) over the window
    s >= CERT_T_FLOOR; inf when a windowed sample is not finite."""
    sel = s >= CERT_T_FLOOR
    w = np.exp((0.5 - gamma) * s[sel]) * values[sel]
    if not np.all(np.isfinite(w)):
        return np.inf
    return float(np.sqrt(dt * np.sum(np.abs(w) ** 2)))


def scaled_singular(masses, t, s, omega):
    """s^{1/2} omega(e^t s) point_mass_synthesis(t + log s, masses): the
    singular function of point masses [(p_j, w_j)] at the scaled argument
    r s, r = e^t (s = [eta] on an edge mode, s = 1 on the cone)."""
    ts = t + np.log(s)
    return np.sqrt(s) * omega(np.exp(ts)) * point_mass_synthesis(ts, masses)


def certify_flat(mass, gamma, depth, what, clause):
    """Ratios mass(gamma + b) / mass(gamma) at the shifts
    b = frac * (depth - CERT_MARGIN), frac in CERT_FRACS, with mass a
    callable of the weight.  A certified flat part keeps every ratio <=
    CERT_FACTOR (a missed pole blows it up by many orders of magnitude);
    the first ratio above it raises CertificationFailed naming `what`."""
    beta = depth - CERT_MARGIN
    shifts = [frac * beta for frac in CERT_FRACS]
    base = max(mass(gamma), 1e-300)
    ratios = [mass(gamma + b) / base for b in shifts]
    for beta_p, ratio in zip(shifts, ratios):
        if not ratio <= CERT_FACTOR:
            raise CertificationFailed(
                "%s fails the weight check at beta'=%.4g (mass ratio %.3e); "
                "a deeper harvest is likely needed" % (what, beta_p, ratio),
                clause=clause,
            )
    return ratios
