"""Conormal symbols and their meromorphic inverses.

Symbols are rational in the Mellin covariable z with coefficients rational
in a single edge variable y; both numerator and denominator are stored as
2-D coefficient arrays c[i, j] for z^i y^j.  The poles at each y come with
their multiplicities, Laurent data and branches over a y grid.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DegenerateDenominator, EllipticityViolated
from .kernels import circle_moments

CLUSTER_TOL = 1e-6
N_CONTOUR = 256
RADIUS_CAP = 1.0
ELLIPTICITY_TOL = 1e-8
ELLIPTICITY_SAMPLES = 33
# margin by which each row's minimum must beat its runner-up, relative to
# max(1, minimum), for the row-minimum matching to be taken without _lsap
MATCH_TIE_TOL = 1e-12


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


def p2_at_y(a, y):
    """1-D ascending z-coefficients at a fixed y."""
    a = p2(a)
    ypow = np.asarray(y, dtype=complex) ** np.arange(a.shape[1])
    return a @ ypow


def p2_eval(a, y, z):
    cz = p2_at_y(a, 0.0 if y is None else y)
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), cz)


def p2_shift_z(a, sigma):
    """Coefficients of p(z + sigma, y)."""
    a = p2(a)
    out = np.zeros_like(a)
    for k in range(a.shape[0]):
        for i in range(k + 1):
            out[i] += comb(k, i) * sigma ** (k - i) * a[k]
    return out


def p2_reflect_conj(a):
    """Coefficients of conj(p(1 - conj(z), y)) for real y: conj(p) with its
    odd z-powers negated is q(z) = conj(p)(-z), and q(z - 1) is the result."""
    a = np.conj(p2(a))
    a[1::2] = -a[1::2]
    return p2_shift_z(a, -1)


# ----------------------------------------------------------------------
# core types

class MeromorphicSymbol:
    """y-parameterized rational function f(y, z) = num(z,y)/den(z,y).

    num and den are kept as given, trimmed; pole_records cancels their
    common roots.  `reduce` is unused; it stays for the benchmark's
    edge_apply check (perfbench/workloads.py), which passes reduce=False."""

    def __init__(self, num, den, y_domain=None, reduce=True):
        num, den = p2_trim(num), p2_trim(den)
        if np.all(den == 0):
            raise DegenerateDenominator("zero denominator")
        self.num = num
        self.den = den
        self.y_domain = tuple(y_domain) if y_domain is not None else None

    def __call__(self, y, z):
        return p2_eval(self.num, y, z) / p2_eval(self.den, y, z)


def invert_symbol(coeffs, y_domain=None):
    """Meromorphic inverse 1/a(y, z) of the polynomial symbol
    a(y, z) = sum_j a_j(y) z^j, coeffs[j] the ascending y-coefficients of
    a_j, after an ellipticity margin check of the declared leading
    coefficient coeffs[-1] (a zero row included) on y_domain (at y = 0
    without one)."""
    a = p2(coeffs)
    if y_domain is not None:
        ys = np.linspace(y_domain[0], y_domain[1], ELLIPTICITY_SAMPLES)
    else:
        ys = np.array([0.0])
    lead = np.abs(np.polynomial.polynomial.polyval(ys, a[-1]))
    if np.min(lead) < ELLIPTICITY_TOL:
        raise EllipticityViolated(
            "leading coefficient reaches %.3e (< %.1e) on the sample grid"
            % (np.min(lead), ELLIPTICITY_TOL)
        )
    return MeromorphicSymbol(np.ones((1, 1)), a, y_domain)


# ----------------------------------------------------------------------
# pole location / Laurent data

def _modulus(z):
    """|z| elementwise through hypot: on arrays the same bits as abs() of
    each element as a Python complex, which np.abs does not promise."""
    return np.hypot(np.real(z), np.imag(z))


def same_pole(q, p):
    """Whether q is the pole p: within CLUSTER_TOL relative to max(1, |p|).
    Elementwise on arrays."""
    return _modulus(q - p) <= CLUSTER_TOL * np.maximum(1.0, _modulus(p))


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


def _coef_rows(a, ys):
    """Ascending z-coefficients of a at each y, and each row's length once
    trailing entries at most 1e-12 times the row's largest are trimmed (at
    least 1).  Row k is p2_at_y(a, ys[k]) bit for bit: the power table is
    the same elementwise power, and matmul over the stack makes, per row,
    the matrix-vector product that a @ ypow makes."""
    a = p2(a)
    yv = np.array([0.0 if y is None else y for y in ys], dtype=complex)
    ypow = yv[:, None] ** np.arange(a.shape[1])
    c = np.matmul(a, ypow[:, :, None])[:, :, 0]
    mag = np.abs(c)
    keep = ~(mag <= 1e-12 * mag.max(axis=1, initial=0.0, keepdims=True))
    n = np.where(keep.any(axis=1),
                 c.shape[1] - np.argmax(keep[:, ::-1], axis=1), 1)
    return c, n


def _root_groups(c, n):
    """Roots of the rows c[k, :n[k]] with n[k] >= 2, as np.roots gives them:
    yields (rows, roots), roots[i] being those of row rows[i].  A group
    shares the degree and the count of exactly-zero low coefficients,
    which are zero roots; the others are the eigenvalues of the group's
    stacked companion matrices, from one eigvals call."""
    low = np.argmax(c != 0, axis=1)
    cand = np.flatnonzero(n >= 2)
    keys, inv = np.unique(np.stack([n[cand], low[cand]], axis=1), axis=0,
                          return_inverse=True)
    for g, (nk, t) in enumerate(keys.tolist()):
        rows = cand[inv.ravel() == g]
        roots = np.zeros((len(rows), nk - 1), dtype=complex)
        p = c[rows, t:nk][:, ::-1]        # descending, leading entry nonzero
        m = nk - 1 - t
        if m > 0:
            comp = np.zeros((len(rows), m, m), dtype=complex)
            comp[:, 0, :] = -p[:, 1:] / p[:, :1]
            comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            roots[:, :m] = np.linalg.eigvals(comp)
        yield rows, roots


def _gaps(p):
    """For each row of pole locations p (rows x n), each pole's distance to
    the nearest pole of its row that is not the same pole (inf if none)."""
    q, p = p[:, None, :], p[:, :, None]
    dist = np.where(same_pole(q, p), np.inf, _modulus(q - p))
    return dist.min(axis=2, initial=np.inf)


def _cancel(clusters, nroots):
    """Clusters (p, m) less the numerator roots that are the same pole."""
    pairs = []
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
            pairs.append((p, m - cancel))
    return pairs


@dataclass(frozen=True)
class PoleRecord:
    """The poles of f(y, .) from one search: `pairs` holds (p, m) sorted by
    (Re p, Im p); `gaps[i]` is the distance from pole i to the nearest
    other pole that is not the same pole (inf when alone)."""

    pairs: tuple
    gaps: tuple


def pole_records(f, ys):
    """One PoleRecord per y in ys: the poles of f(y, .) with multiplicities,
    from companion-matrix eigenvalues batched over the nodes.

    Denominator roots matched by numerator roots (same_pole) are cancelled,
    so unreduced representations still report the true poles.  A node
    whose roots hold no two that are the same pole has only simple poles;
    the roots of a crowded node are clustered by _cluster.
    """
    records = [PoleRecord((), ())] * len(ys)
    if f.den.shape[0] == 1:           # no z in the denominator: no poles
        return records
    nroots = {}
    for rows, roots in _root_groups(*_coef_rows(f.num, ys)):
        nroots.update(zip(rows.tolist(), roots))
    for rows, roots in _root_groups(*_coef_rows(f.den, ys)):
        order = np.lexsort((roots.imag, roots.real), axis=-1)
        srt = np.take_along_axis(roots, order, axis=-1)
        crowded = (same_pole(srt[:, :, None], srt[:, None, :])
                   & ~np.eye(srt.shape[1], dtype=bool)).any(axis=(1, 2))
        # a singleton's centroid, as _cluster's complex(np.mean([r]))
        cent = np.mean(srt[:, :, None], axis=-1)
        for k, r, busy, ps, gs in zip(rows.tolist(), roots, crowded.tolist(),
                                      cent.tolist(), _gaps(cent).tolist()):
            pairs = _cluster(list(r)) if busy else [(p, 1) for p in ps]
            if k in nroots:
                pairs = _cancel(pairs, list(nroots[k]))
            if busy or k in nroots:
                gs = _gaps(np.array([[p for p, _m in pairs]],
                                    dtype=complex))[0].tolist()
            records[k] = PoleRecord(tuple(pairs), tuple(gs))
    return records


def locate_poles(f, y):
    """The PoleRecord of f(y, .) (see pole_records)."""
    return pole_records(f, [y])[0]


def laurent_expand(f, y, poles, i):
    """Laurent coefficients d_0..d_{m-1} at pole i, (p, m), of the record:

    d_k = (2 pi i)^{-1} oint f(y,z) (z - p)^k dz

    over a circle of half the distance to the nearest other pole (capped),
    trapezoid rule (geometric convergence for rational f).
    """
    p, m = poles.pairs[i]
    radius = min(RADIUS_CAP, poles.gaps[i] / 2)
    return circle_moments(lambda z: f(y, z), p, radius, np.arange(m),
                          N_CONTOUR)


# ----------------------------------------------------------------------
# branch tracking

@dataclass
class SpectralData:
    y_nodes: np.ndarray
    collision_events: list            # y values where the multiplicity pattern changes
    poles: list                       # one PoleRecord per node
    branch_ids: list                  # branch_ids[k][i]: branch of poles[k].pairs[i]

    @property
    def n_branches(self):
        return 1 + max((b for ids in self.branch_ids for b in ids), default=-1)


def _lsap(cost):
    """Minimum-cost assignment of a finite 2-D cost array, as
    scipy.optimize.linear_sum_assignment returns it: (rows, cols) with rows
    ascending.  A port of the shortest augmenting path method (Crouse, IEEE
    TAES 52(4), 2016) as scipy runs it, so ties break the same way: a tall
    matrix is transposed, the columns are scanned in reverse order, and on
    equal path costs an unassigned column wins."""
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    transpose = cost.shape[1] < cost.shape[0]
    c = (cost.T if transpose else cost).tolist()
    nr, nc = len(c), len(c[0])
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        spc = [np.inf] * nc               # shortest path cost per column
        seen_rows, seen_cols = [False] * nr, [False] * nc
        remaining = list(range(nc - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            seen_rows[i] = True
            index, lowest = -1, np.inf
            for it, j in enumerate(remaining):
                r = min_val + c[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(nr):
            if seen_rows[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if seen_cols[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:                       # augment along the path
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    col4row = np.array(col4row, dtype=np.intp)
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr, dtype=np.intp), col4row


def _node_matchings(points):
    """matchings[k]: the minimum-cost matching (rows, cols) of the poles
    points[k - 1] to points[k] on |delta p|, in _lsap's format but as lists
    of ints, for each k >= 1 whose predecessor has poles (None otherwise).
    A node without poles gets the empty matching, so every branch before it
    closes.

    The costs of all node pairs of one shape are built in one broadcast,
    oriented so that rows are no more than columns.  Where each row's
    minimum beats its runner-up by more than MATCH_TIE_TOL * max(1, min)
    and the row argmins are distinct, the argmins reach the lower bound
    sum of row minima, so they are the unique optimum and what _lsap
    returns; only the other pairs run _lsap."""
    matchings = [None] * len(points)
    groups = {}
    for k in range(1, len(points)):
        groups.setdefault((len(points[k - 1]), len(points[k])), []).append(k)
    for (n_prev, n_cur), ks in groups.items():
        if n_prev == 0:
            continue
        prev = np.array([points[k - 1] for k in ks], dtype=complex)
        cur = np.array([points[k] for k in ks], dtype=complex)
        cost = _modulus(prev[:, :, None] - cur[:, None, :])
        tall = n_prev > n_cur
        oriented = cost.transpose(0, 2, 1) if tall else cost
        srt = np.sort(oriented, axis=2)
        lo = srt[:, :, 0]
        runner_up = srt[:, :, 1] if srt.shape[2] > 1 else np.inf
        arg = np.argmin(oriented, axis=2)
        certified = ((runner_up - lo > MATCH_TIE_TOL * np.maximum(1.0, lo))
                     .all(axis=1)
                     & (np.diff(np.sort(arg, axis=1), axis=1) != 0).all(axis=1))
        for g, k in enumerate(ks):
            if not certified[g]:
                rows, cols = _lsap(cost[g])
            elif tall:
                cols = np.argsort(arg[g])
                rows = arg[g][cols]
            else:
                rows, cols = np.arange(n_prev), arg[g]
            matchings[k] = (rows.tolist(), cols.tolist())
    return matchings


def track_branches(f, y_grid):
    """Locate poles at each y node and stitch them into branches.

    Adjacent nodes are matched by minimum total |delta p| (_node_matchings);
    a branch of the previous node left unmatched is closed (also at a node
    without poles), and a pole left unmatched takes back the nearest
    branch closed within 2 nodes, or else a new id.  Nodes where the
    clustered multiplicity pattern changes are collision events.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    records = pole_records(f, y_grid)
    matchings = _node_matchings([[p for p, _m in rec.pairs]
                                 for rec in records])
    branch_ids = []
    n_branches = 0
    patterns = []         # sorted multiplicity tuple per node
    prev, prev_ids = (), []
    closed = {}           # branch id -> (last node, last position)
    for k, rec in enumerate(records):
        cur = rec.pairs
        ids = [-1] * len(cur)
        if prev:
            rows, cols = matchings[k]
            for r_, c_ in zip(rows, cols):
                ids[c_] = prev_ids[r_]
            if len(rows) < len(prev):     # some branches end here
                for r_ in sorted(set(range(len(prev))) - set(rows)):
                    closed[prev_ids[r_]] = (k - 1, prev[r_][0])
        for c_, (p, _m) in enumerate(cur):
            if ids[c_] != -1:
                continue
            # a cluster (re)appears: prefer resurrecting a branch that
            # just closed at a nearby position (split after a merge)
            near = [(abs(pc - p), cb) for cb, (kc, pc) in closed.items()
                    if k - kc <= 2]
            if near:
                ids[c_] = min(near, key=lambda dc: dc[0])[1]
                del closed[ids[c_]]
            else:
                ids[c_] = n_branches
                n_branches += 1
        branch_ids.append(ids)
        patterns.append((1,) * len(cur) if all(m == 1 for _p, m in cur)
                        else tuple(sorted(m for _p, m in cur)))
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
    return SpectralData(y_nodes=y_grid, collision_events=events,
                        poles=records, branch_ids=branch_ids)


# ----------------------------------------------------------------------
# serialization

def decode_rows(rows):
    """[z-power][y-power] -> [re, im] rows as a 2-D complex array, each row
    zero-padded to the longest, so an empty row (or row list) is the zero
    polynomial; a non-finite coefficient is a ValueError."""
    rows = [[complex(re, im) for re, im in row] for row in rows]
    out = np.zeros((max(1, len(rows)), max([1] + [len(row) for row in rows])),
                   dtype=complex)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    if not np.all(np.isfinite(out)):
        raise ValueError("coefficients must be finite")
    return out


def decode_domain(dom):
    """A y_domain entry: None, or [lo, hi] of two finite numbers with
    lo <= hi as a tuple of floats; anything else is a ValueError."""
    if dom is None:
        return None
    try:
        lo, hi = (float(v) for v in dom)
        ok = -np.inf < lo <= hi < np.inf
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError("y_domain must be null or two finite numbers "
                         "lo <= hi (got %r)" % (dom,))
    return lo, hi


def symbol_from_json(obj):
    return MeromorphicSymbol(decode_rows(obj["num"]), decode_rows(obj["den"]),
                             decode_domain(obj.get("y_domain")))
