"""Discrete edge Sobolev spaces on a torus times the half-line.

W^s is realized by the norm || [eta]^s kappa_{[eta]}^{-1} u-hat(eta) ||_{L^2}
over the discrete Fourier modes of the torus; the potential operator
K = F^{-1} kappa_{[eta]} F is an isomorphism onto it.  Singular edge data
(per-mode analytic functionals subordinate to an asymptotic type) can be
synthesized into fields and harvested back out of them.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .edge_ops import eta_bracket, mellin_edge_rows
from .errors import NonFiniteInput
from .functionals import AnalyticFunctional, masses_from_orders
from .kernels import certify_flat, scaled_singular, windowed_mass
from .mellin import CutoffFunction, HalfLineFunction, LogGrid, kappa

HARVEST_TOL = 1e-7


@dataclass
class TorusGrid:
    """Uniform periodic grid on a circle of circumference `length`."""

    length: float
    n_points: int

    @property
    def dy(self):
        return self.length / self.n_points

    @property
    def y(self):
        return self.dy * np.arange(self.n_points)

    @property
    def etas(self):
        return 2 * np.pi * np.fft.fftfreq(self.n_points, d=self.dy)


class EdgeField:
    """u(y, r) on torus x log-grid; leading axes are y, last axis is r."""

    def __init__(self, y_grids, r_grid, values, s=0.0, gamma=0.0):
        if isinstance(y_grids, TorusGrid):
            y_grids = [y_grids]
        self.y_grids = list(y_grids)
        if len(self.y_grids) not in (1, 2):
            raise ValueError("edge dimension q must be 1 or 2")
        self.r_grid = r_grid
        self.values = np.asarray(values, dtype=complex)
        expected = tuple(g.n_points for g in self.y_grids) + (r_grid.n_points,)
        if self.values.shape != expected:
            raise ValueError("values shape %s != %s" % (self.values.shape,
                                                        expected))
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteInput("EdgeField values must be finite")
        self.s = float(s)
        self.gamma = float(gamma)

    @property
    def q(self):
        return len(self.y_grids)

    def y_axes(self):
        return tuple(range(self.q))

    def modes(self):
        """Fourier coefficients over the y axes (1/n-normalized)."""
        n = np.prod([g.n_points for g in self.y_grids])
        return np.fft.fftn(self.values, axes=self.y_axes()) / n

    @classmethod
    def from_modes(cls, y_grids, r_grid, modes, s=0.0, gamma=0.0):
        if isinstance(y_grids, TorusGrid):
            y_grids = [y_grids]
        n = np.prod([g.n_points for g in y_grids])
        axes = tuple(range(len(y_grids)))
        values = np.fft.ifftn(np.asarray(modes, dtype=complex) * n, axes=axes)
        return cls(y_grids, r_grid, values, s=s, gamma=gamma)

    def mode_etas(self):
        """|eta| magnitude array matching the mode layout."""
        if self.q == 1:
            return np.abs(self.y_grids[0].etas)
        e1 = self.y_grids[0].etas[:, None]
        e2 = self.y_grids[1].etas[None, :]
        return np.sqrt(e1**2 + e2**2)

    def l2_norm(self):
        """Plain L^2(torus x half-line, dy dr)."""
        dy = np.prod([g.dy for g in self.y_grids])
        w = np.abs(self.values) ** 2 * self.r_grid.r
        return float(np.sqrt(dy * self.r_grid.dt * np.sum(w)))

    def copy(self, values=None):
        return EdgeField(self.y_grids, self.r_grid,
                         self.values if values is None else values,
                         s=self.s, gamma=self.gamma)


def _mode_iter(field_modes, etas_mag):
    """Yield (index, eta magnitude, r-slice) over the flattened mode axes."""
    lead = field_modes.shape[:-1]
    for idx in np.ndindex(*lead):
        yield idx, float(etas_mag[idx]), field_modes[idx]


def edge_norm(u, s=None):
    """|| [eta]^s kappa^{-1}_{[eta]} u-hat(eta) || over the discrete modes.

    Normalized so that s = 0 reproduces the plain L^2(dy dr) norm exactly
    (kappa is unitary on L^2(R_+, dr) with the lambda^{1/2} convention).
    """
    if s is None:
        s = u.s
    modes = u.modes()
    mags = u.mode_etas()
    vol = np.prod([g.length for g in u.y_grids])
    total = 0.0
    for _idx, mag, slc in _mode_iter(modes, mags):
        br = eta_bracket(mag)
        h = HalfLineFunction(u.r_grid, slc)
        total += br ** (2 * s) * kappa(h, 1.0 / br).norm(0.0) ** 2
    return float(np.sqrt(vol * total))


def _kappa_modes(u, inverse, s):
    """Per-mode dilation kappa_{[eta]} (or its inverse) of an edge field."""
    modes = u.modes()
    out = np.empty_like(modes)
    for idx, mag, slc in _mode_iter(modes, u.mode_etas()):
        br = eta_bracket(mag)
        out[idx] = kappa(HalfLineFunction(u.r_grid, slc),
                         1.0 / br if inverse else br).values
    return EdgeField.from_modes(u.y_grids, u.r_grid, out, s=s, gamma=u.gamma)


def potential_op(v):
    """K = F^{-1} kappa_{[eta]} F: per-mode dilation by [eta]."""
    return _kappa_modes(v, False, v.s)


def inverse_potential_op(u):
    return _kappa_modes(u, True, u.s)


@dataclass
class SingularEdgeData:
    """Per-mode analytic functionals (point masses), cut-off, weight."""

    y_grid: TorusGrid
    r_grid: object
    mode_functionals: list          # one AnalyticFunctional per eta mode
    cutoff: CutoffFunction = field(default_factory=CutoffFunction)
    gamma: float = 0.0


def synthesize_singular(data):
    """F^{-1} { [eta]^{1/2} omega(r[eta]) <zeta(eta), (r[eta])^{-z}> }."""
    g = data.r_grid
    n = data.y_grid.n_points
    etas = data.y_grid.etas
    modes = np.zeros((n, g.n_points), dtype=complex)
    for k in range(n):
        zeta = data.mode_functionals[k]
        if zeta is None or not zeta.masses:
            continue
        br = eta_bracket(abs(float(etas[k])))
        modes[k] = scaled_singular(zeta.masses, g.t, br, data.cutoff)
    return EdgeField.from_modes(data.y_grid, data.r_grid, modes,
                                gamma=data.gamma)


def _harvest_masses(slc, r_grid, candidates, br):
    """Least squares for the coefficients c_l of
    sqrt(br) (-log(r br))^l (r br)^{-p} on the far-left window
    -40 <= log(r br) <= -15, where the cut-off is 1 and flat parts are
    negligible.

    Fitting the raw mode against the [eta]-scaled basis avoids the
    interpolation error of an explicit kappa^{-1} normalization.

    candidates: list of (p, max_order).  Columns are normalized so the
    design matrix stays well conditioned despite the exponential scales.
    """
    t = r_grid.t
    ts = t + np.log(br)                       # log(r [eta])
    sel = (ts >= -40.0) & (ts <= -15.0)
    cols, labels, scales = [], [], []
    for p, top in candidates:
        for l in range(top + 1):
            col = np.sqrt(br) * (-ts[sel]) ** l * np.exp(-p * ts[sel])
            sc = np.max(np.abs(col))
            cols.append(col / sc)
            scales.append(sc)
            labels.append((p, l))
    if not cols:
        return {}
    a = np.array(cols).T
    coef, _res, _rk, _sv = np.linalg.lstsq(a, slc[sel], rcond=None)
    return {lab: c / sc for lab, c, sc in zip(labels, coef, scales)}


def decompose_flat_singular_edge(u, asym_type, depth):
    """(flat EdgeField, SingularEdgeData): per-mode harvesting on the
    kappa^{-1}-normalized mode slices at the type's candidate poles, with
    the canonical cut-off."""
    if u.q != 1:
        raise ValueError("decomposition implemented for q = 1")
    cutoff = CutoffFunction()
    line_re = 0.5 - u.gamma
    # candidate (p, m) pairs: union of the declared type over its nodes
    cand = {}
    for pl in asym_type.pairs:
        for p, m in pl:
            if line_re - depth < p.real < line_re:
                cand[complex(p)] = max(cand.get(complex(p), 0), int(m))
    candidates = sorted(cand.items(), key=lambda kv: (kv[0].real, kv[0].imag))

    modes = u.modes()
    etas = u.y_grids[0].etas
    functionals = []
    g = u.r_grid
    mode_scales = [float(np.max(np.abs(modes[k]))) /
                   np.sqrt(eta_bracket(abs(float(etas[k]))))
                   for k in range(u.y_grids[0].n_points)]
    global_scale = max(mode_scales + [1e-300])
    for k in range(u.y_grids[0].n_points):
        br = eta_bracket(abs(float(etas[k])))
        if mode_scales[k] <= 1e-9 * global_scale:
            found = {}
        else:
            found = _harvest_masses(modes[k], g, candidates, br=br)
        masses = {}
        scale = max(mode_scales[k], 1e-300)
        for (p, l), c in found.items():
            if abs(c) > HARVEST_TOL * scale:
                masses.setdefault(p, {})[l] = c
        functionals.append(AnalyticFunctional(
            masses=masses_from_orders(masses)))

    data = SingularEdgeData(u.y_grids[0], u.r_grid, functionals,
                            cutoff=cutoff, gamma=u.gamma)
    flat = u.copy(values=u.values - synthesize_singular(data).values)
    _certify_flat_edge(flat, u, u.gamma, depth)
    return flat, data


def _certify_flat_edge(flat, reference, gamma, depth):
    """Per-mode kappa-normalized weighted-mass check at 3 shifted weights.

    The kappa^{-1} normalization is evaluated exactly via the change of
    variables t -> t + log[eta] (mass of kappa^{-1}_b v at weight g equals
    b^{g-1} times the weighted mass of v in the scaled variable), avoiding
    the spectral-interpolation noise of an explicit dilation.
    """
    g = flat.r_grid

    def mass(slc, br):
        ts = g.t + np.log(br)
        return lambda gam: br ** (gam - 1.0) * windowed_mass(ts, slc, gam,
                                                              g.dt)

    ref_base = 1e-300
    for _idx, mag, slc in _mode_iter(reference.modes(),
                                     reference.mode_etas()):
        ref_base = max(ref_base, mass(slc, eta_bracket(mag))(gamma))
    for idx, mag, slc in _mode_iter(flat.modes(), flat.mode_etas()):
        mode_mass = mass(slc, eta_bracket(mag))
        # modes below the harvest noise floor of the input field carry no
        # certifiable mass; a genuinely missed pole keeps its mode large
        if mode_mass(gamma) <= 1e-6 * ref_base:
            continue
        certify_flat(mode_mass, gamma, depth,
                     "edge flat part at mode %s" % (idx,))


def apply_edge_operator(symbol, u, y=0.0, y_dependent=False):
    """Apply a Mellin edge symbol to an edge field.

    y-independent mode: Op_y(a) u-hat(eta) = a(eta) u-hat(eta) per mode.
    y-dependent mode: left quantization
    (Op_y(a) u)(y_j) = sum_k a(y_j, eta_k) u-hat(eta_k) e^{i y_j eta_k}.
    It costs one transform per mode and term, and at each node one symbol
    evaluation and stacked inverse FFTs over blocks of modes
    (edge_ops.mellin_edge_rows).
    """
    if u.q != 1:
        raise ValueError("operator action implemented for q = 1")
    modes = u.modes()
    etas = u.y_grids[0].etas
    g = u.r_grid
    if not y_dependent:
        out_modes = np.zeros_like(modes)
        for _j, k, a in mellin_edge_rows(symbol, [y], etas, modes, g):
            out_modes[k] = a
        return EdgeField.from_modes(u.y_grids, u.r_grid, out_modes,
                                    s=u.s, gamma=u.gamma)
    # left quantization over the torus nodes
    ys = u.y_grids[0].y
    out_vals = np.zeros_like(u.values)
    for j, k, a in mellin_edge_rows(symbol, ys, etas, modes, g):
        out_vals[j] += np.exp(1j * ys[j] * etas[k]) * a
    return EdgeField(u.y_grids, u.r_grid, out_vals, s=u.s, gamma=u.gamma)


# ----------------------------------------------------------------------
# serialization

def field_to_binary(u, path_bin, path_json):
    arr = u.values.astype(np.complex64)
    with open(path_bin, "wb") as fh:
        fh.write(arr.tobytes(order="C"))
    sidecar = {
        "y_grids": [{"length": g.length, "n_points": g.n_points}
                    for g in u.y_grids],
        "r_grid": {"t_min": u.r_grid.t_min, "t_max": u.r_grid.t_max,
                   "n_points": u.r_grid.n_points},
        "s": u.s,
        "gamma": u.gamma,
        "shape": list(u.values.shape),
        "dtype": "complex64",
        "order": "C",
    }
    with open(path_json, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)


def field_from_binary(path_bin, path_json):
    with open(path_json, "r", encoding="utf-8") as fh:
        sc = json.load(fh)
    y_grids = [TorusGrid(d["length"], d["n_points"]) for d in sc["y_grids"]]
    rg = LogGrid(sc["r_grid"]["t_min"], sc["r_grid"]["t_max"],
                 sc["r_grid"]["n_points"])
    with open(path_bin, "rb") as fh:
        arr = np.frombuffer(fh.read(), dtype=np.complex64)
    values = arr.reshape(sc["shape"]).astype(complex)
    return EdgeField(y_grids, rg, values, s=sc["s"], gamma=sc["gamma"])
