"""Variable discrete asymptotic types and their algebra.

A type is a y-sampled family of pairs (p, m): exponent p in C and log-order
m (so the pole multiplicity is m+1).  Types come in two kinds: plain Mellin
types (pole data of a symbol family) and weighted types tied to weight data
(gamma, Theta) whose pairs must sit in the strip
{1/2 - gamma + theta < Re p < 1/2 - gamma}.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import CoveringFailed, EmptyDomain, WrongKind
from .symbols import CLUSTER_TOL, locate_poles, same_pole, track_branches

PAD_TOL = 1e-3
MAX_HALVINGS = 8


@dataclass(frozen=True)
class WeightData:
    gamma: float
    theta: float  # < 0 (may be -inf)

    def __post_init__(self):
        if not self.theta < 0:
            raise ValueError("theta must be negative")

    @property
    def strip(self):
        """(lower, upper) bounds on Re p (n = 0 convention)."""
        return (0.5 - self.gamma + self.theta, 0.5 - self.gamma)


class AsymptoticType:
    """y-sampled set of (exponent, log-order) pairs."""

    def __init__(self, y_nodes, pairs_per_node, weight=None, y_domain=None):
        self.y_nodes = np.asarray(y_nodes, dtype=float)
        self.pairs = [sorted(((complex(p), int(m)) for p, m in pl),
                             key=lambda pm: (pm[0].real, pm[0].imag))
                      for pl in pairs_per_node]
        if len(self.pairs) != len(self.y_nodes):
            raise ValueError("one pair list per y node required")
        self.weight = weight
        self.y_domain = (tuple(y_domain) if y_domain is not None
                         else (float(self.y_nodes.min()), float(self.y_nodes.max()))
                         if len(self.y_nodes) else None)
        if weight is not None:
            lo, hi = weight.strip
            for yv, pl in zip(self.y_nodes, self.pairs):
                for p, _m in pl:
                    if not (lo < p.real < hi):
                        raise ValueError(
                            "pair %s at y=%g outside the weight strip (%g, %g)"
                            % (p, yv, lo, hi)
                        )

    @property
    def kind(self):
        return "mellin" if self.weight is None else "weighted"

    def node_index(self, y):
        return int(np.argmin(np.abs(self.y_nodes - y)))

    def pairs_at(self, y):
        return list(self.pairs[self.node_index(y)])

    def is_empty(self):
        return all(len(pl) == 0 for pl in self.pairs)

    def __eq__(self, other):
        return set_equal(self, other)

    def to_json(self):
        return {
            "kind": self.kind,
            "weight": ({"gamma": self.weight.gamma, "theta": self.weight.theta}
                       if self.weight else None),
            "y_nodes": [float(y) for y in self.y_nodes],
            "pairs": [[[p.real, p.imag, m] for p, m in pl] for pl in self.pairs],
            "y_domain": list(self.y_domain) if self.y_domain else None,
        }

    @classmethod
    def from_json(cls, obj):
        w = obj.get("weight")
        weight = WeightData(w["gamma"], w["theta"]) if w else None
        pairs = [[(complex(re, im), int(m)) for re, im, m in pl]
                 for pl in obj["pairs"]]
        dom = obj.get("y_domain")
        return cls(obj["y_nodes"], pairs, weight, tuple(dom) if dom else None)


def _match(pairs, p):
    """Index of the pair whose location is the same pole as p, or None."""
    for i, (q, _m) in enumerate(pairs):
        if same_pole(q, p):
            return i
    return None


def set_equal(r1, r2):
    if len(r1.y_nodes) != len(r2.y_nodes):
        return False
    if np.max(np.abs(r1.y_nodes - r2.y_nodes), initial=0.0) > 1e-12:
        return False
    for pl1, pl2 in zip(r1.pairs, r2.pairs):
        if len(pl1) != len(pl2):
            return False
        for (p, m) in pl1:
            i = _match(pl2, p)
            if i is None or pl2[i][1] != m:
                return False
    return True


def type_of_family(f, y_grid=None, spectral=None):
    """The Mellin asymptotic type of a symbol family: its actual pole data,
    from `spectral` (SpectralData of f) when given, else tracked over
    y_grid."""
    if spectral is not None:
        sd = spectral
    elif y_grid is not None:
        sd = track_branches(f, y_grid, with_laurent=False)
    else:
        raise ValueError("type_of_family needs y_grid or spectral")
    pairs = [[(p, m - 1) for p, m in sd.pairs_at(k)]
             for k in range(len(sd.y_nodes))]
    return AsymptoticType(sd.y_nodes, pairs)


def restrict(r, region=None, u_box=None):
    """p_A R|_U: keep pairs with p in the region, nodes in the y-box."""
    if u_box is None:
        mask = np.ones(len(r.y_nodes), dtype=bool)
    else:
        mask = (r.y_nodes >= u_box[0]) & (r.y_nodes <= u_box[1])
    if not np.any(mask):
        raise EmptyDomain("no y nodes in %s" % (u_box,))
    nodes = r.y_nodes[mask]
    pairs = []
    for keep, pl in zip(mask, r.pairs):
        if not keep:
            continue
        if region is None:
            pairs.append(list(pl))
        else:
            pairs.append([(p, m) for p, m in pl if region(p)])
    dom = u_box if u_box is not None else r.y_domain
    return AsymptoticType(nodes, pairs, r.weight, dom)


def union(rs):
    """Pointwise union; coincident locations take the maximum log-order."""
    rs = list(rs)
    if not rs:
        raise ValueError("empty union")
    base = rs[0]
    nodes = base.y_nodes
    for r in rs[1:]:
        keep = np.array([np.min(np.abs(r.y_nodes - y)) < 1e-12 for y in nodes])
        nodes = nodes[keep]
    if len(nodes) == 0:
        raise EmptyDomain("types share no y nodes")
    pairs = []
    for y in nodes:
        merged = []
        for r in rs:
            for p, m in r.pairs[r.node_index(y)]:
                i = _match(merged, p)
                if i is None:
                    merged.append((p, m))
                else:
                    merged[i] = (merged[i][0], max(merged[i][1], m))
        pairs.append(merged)
    weight = base.weight
    return AsymptoticType(nodes, pairs, weight)


def check_shadow(p_type):
    """Shadow condition: closure under p -> p - l inside the weight strip."""
    if p_type.weight is None:
        raise WrongKind("shadow condition applies to weighted types")
    lo, _hi = p_type.weight.strip
    violations = []
    for yv, pl in zip(p_type.y_nodes, p_type.pairs):
        for p, m in pl:
            l = 1
            while p.real - l > lo:
                q = p - l
                i = _match(pl, q)
                if i is None or pl[i][1] < m:
                    violations.append((float(yv), p, l))
                l += 1
    return (len(violations) == 0, violations)


def shadow_closure(pairs, weight):
    """Close a constant pair list under p -> p-1 within the strip (test helper)."""
    lo, _hi = weight.strip
    out = list(pairs)
    changed = True
    while changed:
        changed = False
        for p, m in list(out):
            if p.real - 1 > lo and _match(out, p - 1) is None:
                out.append((p - 1, m))
                changed = True
    return out


def subordinate(f, r, y_samples):
    """Is every pole of f(y, .) matched in R(y) with multiplicity <= m+1?"""
    violations = []
    for yv in np.asarray(y_samples, dtype=float):
        pl = r.pairs[r.node_index(yv)]
        for p, mult in locate_poles(f, yv):
            i = _match(pl, p)
            if i is None:
                violations.append((float(yv), p, "missing"))
            elif mult > pl[i][1] + 1:
                violations.append((float(yv), p, "multiplicity"))
    return (len(violations) == 0, violations)


# ----------------------------------------------------------------------
# covering data

@dataclass
class CompactRegion:
    """Padded bounding rectangle stored as a polygon."""

    vertices: list = field(default_factory=list)

    @classmethod
    def of_points(cls, points, pad=PAD_TOL):
        if not points:
            return cls([])
        re = [p.real for p in points]
        im = [p.imag for p in points]
        lo_r, hi_r = min(re) - pad, max(re) + pad
        lo_i, hi_i = min(im) - pad, max(im) + pad
        return cls([(lo_r, lo_i), (hi_r, lo_i), (hi_r, hi_i), (lo_r, hi_i)])

    def contains(self, p, slack=0.0):
        if not self.vertices:
            return False
        re = [v[0] for v in self.vertices]
        im = [v[1] for v in self.vertices]
        return (min(re) - slack <= p.real <= max(re) + slack
                and min(im) - slack <= p.imag <= max(im) + slack)

    @property
    def re_bounds(self):
        if not self.vertices:
            return None
        re = [v[0] for v in self.vertices]
        return (min(re), max(re))


@dataclass
class CoveringData:
    sets: list          # (U_i = (ylo, yhi), K_i: CompactRegion, eps_i)
    strip: tuple

    def set_for(self, y):
        for u, k, e in self.sets:
            if u[0] - 1e-12 <= y <= u[1] + 1e-12:
                return (u, k, e)
        return None


def _classify_node(pairs, c, cp, eps):
    """Split a node's poles into in-strip members, or None on ambiguity.

    A pole inside the eps/2-enlarged strip belongs to the set; one at
    distance >= eps outside is excluded; anything in the annulus between is
    ambiguous at this eps.
    """
    members = []
    for p, _m in pairs:
        if c - eps / 2 < p.real < cp + eps / 2:
            members.append(p)
        elif p.real <= c - eps or p.real >= cp + eps:
            continue
        else:
            return None
    return members


def build_covering(r, strip, u_box, eps_target):
    """Greedy finite covering {U_i, K_i, eps_i} for R restricted to a strip.

    Grows y-intervals while every node's in-strip poles classify cleanly at
    the current margin; a pole falling in the ambiguity annulus ends the
    interval and seeds the next one (with eps halved as needed).
    """
    c, cp = strip
    mask = (r.y_nodes >= u_box[0]) & (r.y_nodes <= u_box[1])
    if not np.any(mask):
        raise EmptyDomain("no y nodes in %s" % (u_box,))
    nodes = r.y_nodes[mask]
    plists = [pl for keep, pl in zip(mask, r.pairs) if keep]
    n = len(nodes)
    sets = []
    i = 0
    while i < n:
        eps = eps_target
        halvings = 0
        while _classify_node(plists[i], c, cp, eps) is None:
            eps /= 2
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise CoveringFailed(
                    "pole too close to the strip boundary at y = %g" % nodes[i],
                    y_interval=(float(nodes[i]), float(nodes[i])),
                )
        members = []
        j = i
        while j < n:
            cls = _classify_node(plists[j], c, cp, eps)
            if cls is None:
                break
            members.extend(cls)
            j += 1
        k_region = CompactRegion.of_points(members)
        sets.append(((float(nodes[i]), float(nodes[j - 1])), k_region,
                     eps / 2 + PAD_TOL))
        i = j
    return CoveringData(sets=sets, strip=(float(c), float(cp)))


def covering_reconstructs(r, cov):
    """Eq.-level fidelity: the union of p_{K_i} R|_{U_i} over the covering
    equals R restricted to the strip on every sample node."""
    c, cp = cov.strip
    for yv, pl in zip(r.y_nodes, r.pairs):
        hit = cov.set_for(yv)
        if hit is None:
            continue
        _u, k_region, _e = hit
        for p, _m in pl:
            if c < p.real < cp and not k_region.contains(p, slack=CLUSTER_TOL):
                return False
    return True


def covering_to_json(cov):
    return {
        "strip": list(cov.strip),
        "sets": [{"U": list(u), "K_vertices": [list(v) for v in k.vertices],
                  "eps": e} for u, k, e in cov.sets],
    }


def pairs_to_csv(r, fileobj):
    w = csv.writer(fileobj, lineterminator="\n")
    w.writerow(["y", "Re p", "Im p", "log_order"])
    for yv, pl in zip(r.y_nodes, r.pairs):
        for p, m in pl:
            w.writerow(["%.17g" % yv, "%.17g" % p.real, "%.17g" % p.imag, m])
