"""Weighted Mellin transform on a log-uniform half-line grid.

Everything is built on the substitution t = log r: the weighted Mellin
transform M_gamma u restricted to the line Re z = 1/2 - gamma is the
Fourier transform in t of the weighted samples e^{(1/2-gamma)t} u(e^t),
so an FFT gives spectral accuracy for smooth decaying data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    InsufficientDecay,
    LambdaOffGrid,
    NonFiniteInput,
    PoleOnWeightLine,
    TailTooLarge,
)

TAIL_TOL = 1e-10
SHIFTED_TAIL_TOL = 1e-6     # for inputs a dilation moved toward a grid end
LINE_CLEARANCE_TOL = 1e-6
CUTOFF_PLATEAU = 12.0       # kernel_cutoff plateau half-width in log r
CUTOFF_DECAY_FLOOR = 0.1    # largest relative line sample at window ends


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _weighted(values, grid, gamma):
    """e^{(1/2-gamma)t} u(e^t): the L^2(dt) representative in r^{-gamma}L^2."""
    return np.exp((0.5 - gamma) * grid.t) * values


@dataclass(frozen=True)
class LogGrid:
    """Log-uniform grid r_k = exp(t_min + k*dt), k = 0..n_points-1."""

    t_min: float
    t_max: float
    n_points: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be < t_max")
        if self.n_points < 16 or not _is_power_of_two(self.n_points):
            raise ValueError("n_points must be a power of two >= 16")

    @property
    def dt(self):
        return (self.t_max - self.t_min) / self.n_points

    @property
    def t(self):
        return self.t_min + self.dt * np.arange(self.n_points)

    @property
    def r(self):
        return np.exp(self.t)

    @property
    def rho(self):
        """rho of the weight-line samples, in FFT order."""
        return 2 * np.pi * np.fft.fftfreq(self.n_points, d=self.dt)


@dataclass
class HalfLineFunction:
    """Samples of u(r) on a LogGrid with a weight-class hint."""

    grid: LogGrid
    values: np.ndarray
    weight_hint: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n_points,):
            raise ValueError("values length must match grid")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteInput("HalfLineFunction values must be finite")

    def norm(self, gamma=None):
        """Norm in r^{-gamma}L^2(R_+) by the trapezoid rule in t."""
        if gamma is None:
            gamma = self.weight_hint
        v = _weighted(self.values, self.grid, gamma)
        return float(np.sqrt(self.grid.dt * np.sum(np.abs(v) ** 2)))


@dataclass
class VerticalLineFunction:
    """Samples of a function on the weight line Gamma_{1/2-gamma}."""

    gamma: float
    rho_nodes: np.ndarray
    values: np.ndarray
    grid: LogGrid = None  # source grid, kept for exact inversion

    def __post_init__(self):
        self.rho_nodes = np.asarray(self.rho_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.rho_nodes.shape != self.values.shape:
            raise ValueError("rho_nodes/values shape mismatch")
        if np.any(np.diff(self.rho_nodes) <= 0):
            raise ValueError("rho_nodes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteInput("VerticalLineFunction values must be finite")

    @property
    def z_nodes(self):
        return (0.5 - self.gamma) + 1j * self.rho_nodes

    def norm(self):
        """L^2(Gamma) norm with the measure d rho / (2 pi)."""
        drho = self.rho_nodes[1] - self.rho_nodes[0]
        return float(np.sqrt(drho / (2 * np.pi) * np.sum(np.abs(self.values) ** 2)))


class CutoffFunction:
    """Smooth cut-off: 1 on (0, a], 0 on [b, inf), monotone in between.

    canonical: a = 1/2, b = 1, with the exponential bump formula
    w(r) = 1/(1 + exp(1/(1-r) - 1/(r-1/2))) on (1/2, 1).
    shifted(scale): canonical evaluated at r/scale.
    """

    def __init__(self, descriptor="canonical", scale=1.0):
        if descriptor not in ("canonical", "shifted"):
            raise ValueError("descriptor must be 'canonical' or 'shifted'")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.descriptor = descriptor
        self.scale = 1.0 if descriptor == "canonical" else float(scale)

    @property
    def a(self):
        return 0.5 * self.scale

    def __call__(self, r):
        r = np.asarray(r, dtype=float) / self.scale
        out = np.zeros_like(r)
        out[r <= 0.5] = 1.0
        mid = (r > 0.5) & (r < 1.0)
        rm = r[mid]
        # clip the exponent so the tails underflow gracefully
        expo = np.clip(1.0 / (1.0 - rm) - 1.0 / (rm - 0.5), -700, 700)
        out[mid] = 1.0 / (1.0 + np.exp(expo))
        return out


def _check_tails(v, tail_tol, what="input"):
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return
    ends = max(np.max(np.abs(v[:2])), np.max(np.abs(v[-2:])))
    if ends > tail_tol * scale:
        raise TailTooLarge(
            "%s end samples %.3e exceed tail_tol %.1e relative to max %.3e"
            % (what, ends, tail_tol, scale)
        )


def line_transform(values, grid, gamma, tail_tol=TAIL_TOL):
    """Forward step: M_gamma of each row of `values` (last axis on `grid`)
    at z = 1/2 - gamma + i grid.rho; the tail check is per row."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteInput("non-finite samples")
    v = _weighted(values, grid, gamma)
    for row in v.reshape(-1, grid.n_points):
        _check_tails(row, tail_tol, "weighted")
    vals = (grid.dt * grid.n_points * np.fft.ifft(v)
            * np.exp(1j * grid.rho * grid.t_min))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteInput("non-finite line samples")
    return vals


def line_inverse(rho, grid, gamma):
    """Inverse step: a function taking line samples at rho (FFT order, last
    axis) back to `grid`; it overwrites and returns its argument."""
    phase = np.exp(-1j * rho * grid.t_min)
    weight = np.exp(-(0.5 - gamma) * grid.t)

    def invert(vals):
        vals *= phase
        np.fft.fft(vals, out=vals)
        vals /= grid.n_points * grid.dt
        return np.multiply(weight, vals, out=vals)
    return invert


def mellin_transform(u, gamma, tail_tol=TAIL_TOL):
    """Weighted Mellin transform M_gamma u on Gamma_{1/2-gamma} (FFT in log r)."""
    vals = line_transform(u.values, u.grid, gamma, tail_tol)
    return VerticalLineFunction(gamma, np.fft.fftshift(u.grid.rho),
                                np.fft.fftshift(vals), u.grid)


def _inverse_mellin_raw(g, grid):
    invert = line_inverse(np.fft.ifftshift(g.rho_nodes), grid, g.gamma)
    return HalfLineFunction(grid, invert(np.fft.ifftshift(g.values)),
                            weight_hint=g.gamma)


def inverse_mellin(g, tail_tol=TAIL_TOL):
    """Inverse weighted Mellin transform back onto the source log grid."""
    grid = g.grid
    if grid is None:
        raise GridMismatch("no output grid available")
    n = grid.n_points
    if g.values.shape != (n,):
        raise GridMismatch("line sampling length != n_points")
    drho = g.rho_nodes[1] - g.rho_nodes[0]
    if abs(drho - 2 * np.pi / (n * grid.dt)) > 1e-9 * drho:
        raise GridMismatch("line sampling incompatible with grid resolution")
    _check_tails(g.values, tail_tol, "line")
    return _inverse_mellin_raw(g, grid)


def mellin_eval(u, z, derivative=0):
    """Evaluate M u (and d/dz derivatives) at arbitrary z by direct quadrature.

    Mu(z) = int_0^inf r^{z-1} u(r) dr = int e^{zt} u(e^t) dt; the d-th
    derivative inserts a factor t^d.
    """
    t = u.grid.t
    w = u.values * u.grid.dt
    if derivative:
        w = w * t**derivative
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        out = np.exp(np.outer(zarr, t)) @ w
    bad = ~np.isfinite(out)
    if bad.any():
        raise InsufficientDecay(
            "Mellin quadrature not finite at z = %s: exp(z t) overflows "
            "on this grid" % zarr[bad][0])
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def check_line_clearance(f, y, gamma):
    """Raise PoleOnWeightLine when a pole of the MeromorphicSymbol f(y, .)
    is within LINE_CLEARANCE_TOL of the weight line Re z = 1/2 - gamma."""
    line_re = 0.5 - gamma
    for p, _m in f.poles(y):
        d = abs(p.real - line_re)
        if d < LINE_CLEARANCE_TOL:
            raise PoleOnWeightLine(p, d, line_re)


def op_mellin(f, y, gamma, u, tail_tol=TAIL_TOL):
    """Mellin pseudo-differential action op_M^gamma(f) u = M^{-1}[f . M u]
    for a MeromorphicSymbol f, after the line-clearance check."""
    check_line_clearance(f, y, gamma)
    g = mellin_transform(u, gamma, tail_tol=tail_tol)
    g.values = g.values * f(y, g.z_nodes)
    return _inverse_mellin_raw(g, u.grid)


def _shift_weighted(u, a, interpolation):
    """Shift the L^2(dr)-weighted samples w(t) = e^{t/2} u(e^t) by a in t.

    Integer multiples of dt are realized as exact index shifts with zero
    fill; fractional shifts use trigonometric interpolation (unitary).
    """
    grid = u.grid
    w = np.exp(0.5 * grid.t) * u.values
    s = a / grid.dt
    k = int(round(s))
    if abs(s - k) < 1e-9:
        out = np.zeros_like(w)
        n = len(w)
        if k >= 0:
            out[: n - k] = w[k:]
        else:
            out[-k:] = w[: n + k]
    else:
        if not interpolation:
            raise LambdaOffGrid(
                "log lambda / dt = %.6f is not an integer" % s
            )
        nu = 2 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dt)
        out = np.fft.ifft(np.fft.fft(w) * np.exp(1j * nu * a))
    return HalfLineFunction(grid, np.exp(-0.5 * grid.t) * out, u.weight_hint)


def dilate(u, lam, interpolation=True):
    """(delta_lambda u)(r) = u(lambda r) via log-grid shift."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    a = np.log(lam)
    out = _shift_weighted(u, a, interpolation)
    out.values *= np.exp(-0.5 * a)
    return out


def kappa(u, lam):
    """Unitary dilation (kappa_lambda u)(r) = lambda^{1/2} u(lambda r) (n=0)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return _shift_weighted(u, np.log(lam), True)


def dilation_commutation_defect(f, gamma, u, lam):
    """Relative L^2 defect of delta_lambda op(f) u - op(f) delta_lambda u.

    The identity tested is plain commutation (no lambda prefactor): from
    M(delta_lambda u)(z) = lambda^{-z} Mu(z) the two sides agree exactly for
    r-independent f.  Exact up to tail wrap when log lambda is a grid
    multiple; off-grid lambda raises LambdaOffGrid.
    """
    if not (0.25 <= lam <= 4.0):
        raise ValueError("lambda must lie in [1/4, 4]")
    au = op_mellin(f, None, gamma, u)
    lhs = dilate(au, lam, False)
    rhs = op_mellin(f, None, gamma, dilate(u, lam, False),
                    tail_tol=SHIFTED_TAIL_TOL)
    num = (lhs.values - rhs.values)
    scale = max(lhs.norm(gamma), 1e-300)
    diff = HalfLineFunction(u.grid, num, gamma)
    return diff.norm(gamma) / scale


class EntireKernel:
    """Entire function produced by the kernel cut-off, backed by quadrature.

    k(z) = M(psi_1 . M^{-1} l)(z) where psi_1 is smooth, == 1 on a wide
    plateau around r = 1, and compactly supported in (0, inf); entire in z
    because the integrand is compactly supported.
    """

    def __init__(self, w, line):
        self.w = w                # HalfLineFunction psi_1 * M^{-1} l
        self.line = line          # VerticalLineFunction: k restricted to Gamma
        self.gamma = line.gamma

    def __call__(self, z):
        return mellin_eval(self.w, z)


def kernel_cutoff(l, psi):
    """Kernel cut-off: entire k with (l - k)|_Gamma rapidly decaying.

    psi_1(r) = psi(r/S) (1 - psi(S r)) with S = e^CUTOFF_PLATEAU; any
    plateau works in exact arithmetic, a wide one keeps the defect
    numerically tiny for inputs concentrated near |Im z| small.

    Returns (k: EntireKernel, defect: VerticalLineFunction).
    """
    if l.grid is None:
        raise GridMismatch("line function must carry its source grid")
    scale = np.max(np.abs(l.values))
    if scale > 0:
        ends = max(np.max(np.abs(l.values[:4])), np.max(np.abs(l.values[-4:])))
        if ends > CUTOFF_DECAY_FLOOR * scale:
            raise InsufficientDecay(
                "line samples do not decay (%.3e of max at window ends)" % (ends / scale)
            )
    grid = l.grid
    u = _inverse_mellin_raw(l, grid)     # may ring for slowly decaying l; fine
    s = np.exp(CUTOFF_PLATEAU)
    psi1 = psi(grid.r / s) * (1.0 - psi(grid.r * s))
    w = HalfLineFunction(grid, psi1 * u.values, weight_hint=l.gamma)
    # k on the line via the same discrete transform => defect is exactly
    # the transform of (1 - psi_1) M^{-1} l
    k_line = mellin_transform(w, l.gamma, tail_tol=np.inf)
    defect = VerticalLineFunction(
        l.gamma, l.rho_nodes, l.values - k_line.values, grid
    )
    return EntireKernel(w, k_line), defect


def decay_constants(defect, orders=(2, 4, 6), window=None):
    """sup over the window of |defect(rho)| <rho>^p for each order p."""
    rho = defect.rho_nodes
    mask = np.ones_like(rho, dtype=bool) if window is None else (np.abs(rho) <= window)
    jap = np.sqrt(1.0 + rho[mask] ** 2)
    d = np.abs(defect.values[mask])
    return {p: float(np.max(d * jap**p)) for p in orders}
