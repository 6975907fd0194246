"""Meromorphic symbol families: reduction, pole location, Laurent data,
branch tracking, weight splitting, algebra, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mellin_edge import cli, symbols
from mellin_edge.errors import (
    DegenerateDenominator,
    DomainMismatch,
    EllipticityViolated,
)
from mellin_edge.kernels import circle_moments
from mellin_edge.symbols import (
    MeromorphicSymbol,
    PoleRecord,
    _cluster,
    decode_rows,
    invert_symbol,
    laurent_expand,
    locate_poles,
    p2_at_y,
    p2_mul,
    p2_shift_z,
    pole_records,
    same_pole,
    symbol_from_json,
    track_branches,
)

from conftest import double_pole, simple_pole


def branching_symbol():
    """f(y, z) = 1 / (z^2 - y^2): poles +-y merging at y = 0."""
    return MeromorphicSymbol(
        np.ones((1, 1)),
        np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        y_domain=(-0.5, 0.5),
    )


def test_reduce_cancels_common_factor():
    # (z - 1)(z - 2) / (z - 1) reduces to z - 2: no pole at z = 1
    num = np.array([[2.0], [-3.0], [1.0]])
    den = np.array([[-1.0], [1.0]])
    f = MeromorphicSymbol(num, den)
    assert f.den.shape == (1, 1)
    assert locate_poles(f, 0.0).pairs == ()


def test_locate_poles_quadratic_oracle():
    # z^2 + (y - 1) z - y has roots 1 and -y (quadratic formula)
    den = np.array([[0.0, -1.0], [-1.0, 1.0], [1.0, 0.0]])
    f = MeromorphicSymbol(np.ones((1, 1)), den, reduce=False)
    for y in (0.3, -0.7, 2.0):
        got = sorted(locate_poles(f, y).pairs, key=lambda pm: pm[0].real)
        exact = sorted([-y, 1.0])
        assert len(got) == 2
        for (p, m), e in zip(got, exact):
            assert m == 1
            assert p == pytest.approx(e, abs=1e-10)


def test_locate_poles_multiplicity():
    f = double_pole(0.25)
    [(p, m)] = locate_poles(f, 0.0).pairs
    assert p == pytest.approx(0.25, abs=1e-9)
    assert m == 2


def test_laurent_expand_partial_fraction_oracle():
    # (3z + 2)/(z - 1)^2 = 3/(z - 1) + 5/(z - 1)^2  (sympy apart)
    f = MeromorphicSymbol(np.array([[2.0], [3.0]]),
                          np.array([[1.0], [-2.0], [1.0]]), reduce=False)
    poles = locate_poles(f, 0.0)
    assert [m for _p, m in poles.pairs] == [2]
    d = laurent_expand(f, 0.0, poles, 0)
    assert abs(d[0] - 3.0) <= 1e-10
    assert abs(d[1] - 5.0) <= 1e-10


def test_laurent_radius_independent():
    f = simple_pole(0.3, scale=2.0) + double_pole(-0.5, scale=0.7)
    poles = locate_poles(f, 0.0)
    assert [m for _p, m in poles.pairs] == [2, 1]
    assert poles.gaps == pytest.approx((0.8, 0.8), abs=1e-9)
    # the record's circle (radius 0.4) and smaller ones give one residue
    assert abs(laurent_expand(f, 0.0, poles, 1)[0] - 2.0) <= 1e-10
    for radius in (0.1, 0.2, 0.35):
        d = circle_moments(lambda z: f(0.0, z), poles.pairs[1][0], radius,
                           [0], 256)
        assert abs(d[0] - 2.0) <= 1e-10


def test_locate_poles_gaps():
    # gaps[i]: distance to the nearest other pole, inf for a lone pole
    f = simple_pole(0.0) + simple_pole(0.1) + double_pole(1.0)
    poles = locate_poles(f, 0.0)
    assert [m for _p, m in poles.pairs] == [1, 1, 2]
    assert poles.gaps == pytest.approx((0.1, 0.1, 0.9), abs=1e-9)
    assert locate_poles(simple_pole(0.25), 0.0).gaps == (np.inf,)
    assert locate_poles(MeromorphicSymbol(np.ones((1, 1)), np.ones((1, 1))),
                        0.0).gaps == ()


def branches_csv(tmp_path, f, ys):
    """The lines of the branches.csv that `poles` writes for f on ys, a
    linspace."""
    def enc(a):
        return [[[c.real, c.imag] for c in row] for row in a.tolist()]
    cfg = {"symbol": {"num": enc(f.num), "den": enc(f.den),
                      "y_domain": f.y_domain},
           "y": {"min": ys[0], "max": ys[-1], "n": len(ys)}}
    assert np.array_equal(cli.y_grid_from_config(cfg["y"]), ys)
    assert cli.cmd_poles(cfg, str(tmp_path), 0) == 0
    return (tmp_path / "branches.csv").read_text().splitlines()


def test_track_branches_branching_pair(tmp_path):
    f = branching_symbol()
    ys = np.linspace(-0.5, 0.5, 41)
    sd = track_branches(f, ys)
    assert sd.n_branches == 2
    assert len(sd.collision_events) == 1
    assert sd.collision_events[0] == pytest.approx(0.0, abs=1e-12)
    # residues at y != 0: 1/(z^2 - y^2) has residue 1/(2y) at z = y
    k = 40          # y = 0.5 node
    rows = [line.split(",") for line in branches_csv(tmp_path, f, ys)[1:]]
    assert ({(complex(float(re), float(im)), int(m))
             for y, re, im, m, _b in rows if y == "%.17g" % ys[k]}
            == set(sd.poles[k].pairs))
    for i, (p, m) in enumerate(sd.poles[k].pairs):
        assert m == 1
        laur = laurent_expand(f, ys[k], sd.poles[k], i)
        assert abs(laur[0] - 1.0 / (2.0 * p)) <= 1e-10
    # double pole exactly at the collision node
    mults = sorted(m for _p, m in sd.poles[20].pairs)
    assert mults == [2]


def test_track_branches_constant_pole(tmp_path):
    ys = np.linspace(-1, 1, 11)
    sd = track_branches(simple_pole(0.25), ys)
    assert sd.n_branches == 1
    assert sd.collision_events == []
    rows = [line.split(",")
            for line in branches_csv(tmp_path, simple_pole(0.25), ys)[1:]]
    assert [row[0] for row in rows if row[4] == "0"] == [
        "%.17g" % y for y in ys]


def test_track_branches_pole_free(tmp_path):
    f = MeromorphicSymbol(np.array([[1.0], [2.0]]), np.ones((1, 1)))
    ys = np.linspace(0, 1, 5)
    sd = track_branches(f, ys)
    assert sd.n_branches == 0
    assert sd.branch_ids == [[]] * 5
    assert branches_csv(tmp_path, f, ys)[1:] == []
    assert sd.collision_events == []


def linear_poles(*ab):
    """f(y, z) = 1 / prod (z - a - b y): poles on the lines a + b y."""
    den = np.ones((1, 1), dtype=complex)
    for a, b in ab:
        den = p2_mul(den, np.array([[-a, -b], [1.0, 0.0]]))
    return MeromorphicSymbol(np.ones((1, 1)), den, reduce=False)


@pytest.mark.parametrize("f", [
    branching_symbol(),
    # two pairs crossing at y = -0.2 and y = -0.3, at distinct heights
    linear_poles((0.2 - 0.5j, 1.0), (-0.2 - 0.5j, -1.0),
                 (0.6 + 0.5j, 2.0), (-0.3 + 0.5j, -1.0)),
], ids=["merge", "crossings"])
def test_branch_ids_distinct_per_node(f):
    ys = np.linspace(-0.5, 0.5, 51)
    sd = track_branches(f, ys)
    assert len(sd.branch_ids) == len(sd.poles) == len(ys)
    for rec, ids in zip(sd.poles, sd.branch_ids):
        assert len(ids) == len(rec.pairs)
        assert len(set(ids)) == len(ids)
    assert sorted({b for ids in sd.branch_ids for b in ids}) \
        == list(range(sd.n_branches))


def test_branch_ids_survive_a_merge():
    # z^2 - y^2: the poles +-y merge into a double pole at y = 0 and split
    # again; the split takes back both ids and no third one appears
    ys = np.linspace(-0.5, 0.5, 41)
    sd = track_branches(branching_symbol(), ys)
    assert sd.n_branches == 2
    for k, ids in enumerate(sd.branch_ids):
        if k == 20:
            assert sd.poles[k].pairs[0][1] == 2 and ids in ([0], [1])
        else:
            assert sorted(ids) == [0, 1]


def test_vanished_pole_returns_with_new_id():
    # f = 1 / ((c(y) z - 1)(z - i/2)): the pole 1/c(y) leaves the finite
    # plane where c(y) = 0, while the pole i/2 keeps every node occupied
    ys = np.linspace(-0.5, 0.5, 11)            # step 0.1

    def moving_ids(c):                          # c: ascending y-coefficients
        fac = np.zeros((2, len(c)), dtype=complex)
        fac[0, 0], fac[1] = -1.0, c
        den = p2_mul(fac, np.array([[-0.5j], [1.0]]))
        sd = track_branches(
            MeromorphicSymbol(np.ones((1, 1)), den, reduce=False), ys)
        return sd, [[b for (p, _m), b in zip(rec.pairs, ids)
                     if abs(p.imag) < 0.25]
                    for rec, ids in zip(sd.poles, sd.branch_ids)]

    # c = y: gone at y = 0 only; it comes back within 2 nodes of its
    # closing and takes its id back
    sd, ids = moving_ids([0.0, 1.0])
    assert ids == [[0]] * 5 + [[]] + [[0]] * 5 and sd.n_branches == 2
    # c = y (y - 0.1)(y + 0.1): gone at y = -0.1, 0, 0.1; it comes back
    # 4 nodes after its closing, as a new branch
    sd, ids = moving_ids([0.0, -0.01, 0.0, 1.0])
    assert ids == [[0]] * 4 + [[]] * 3 + [[2]] * 4 and sd.n_branches == 3


def test_pole_free_node_closes_its_branches():
    # the pole 1/y of 1/(y z - 1) is gone at y = 0 only; it keeps one id
    # across that node whether or not another pole occupies it
    ys = np.linspace(-0.5, 0.5, 11)
    moving = np.array([[-1.0, 0.0], [0.0, 1.0]])
    for den in (moving, p2_mul(moving, np.array([[-0.5j], [1.0]]))):
        sd = track_branches(
            MeromorphicSymbol(np.ones((1, 1)), den, reduce=False), ys)
        ids = [b for rec, ids in zip(sd.poles, sd.branch_ids)
               for (p, _m), b in zip(rec.pairs, ids) if abs(p.imag) < 0.25]
        assert len(ids) == 10 and set(ids) == {0}


def _trim1d(c, rel=1e-12):
    c = np.asarray(c, dtype=complex)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return c[:1]
    n = c.size
    while n > 1 and abs(c[n - 1]) <= rel * scale:
        n -= 1
    return c[:n]


def _reference_locate_poles(f, y):
    """The per-y pole search that pole_records batches: np.roots of the
    trimmed denominator, _cluster, numerator cancellation and gaps, one
    node and one root at a time."""
    yv = 0.0 if y is None else y
    den = _trim1d(p2_at_y(f.den, yv))
    if den.size <= 1:
        return PoleRecord((), ())
    clusters = _cluster(list(np.roots(den[::-1])))
    num = _trim1d(p2_at_y(f.num, yv))
    nroots = list(np.roots(num[::-1])) if num.size > 1 else []
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
    gaps = [min((abs(q - p) for q, _n in pairs if not same_pole(q, p)),
                default=np.inf) for p, _m in pairs]
    return PoleRecord(tuple(pairs), tuple(gaps))


ORACLE_YS = [float(y) for y in np.linspace(-0.5, 0.5, 11)] + [None]
coef = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False)


@st.composite
def pole_families(draw):
    """Denominators whose degree drops at a node, with zero roots, planted
    double and triple roots, cancelling numerator factors and pole-free
    nodes, over ORACLE_YS."""
    nz, ny = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    den = np.array([[draw(coef) for _j in range(ny)] for _i in range(nz)])
    den[-1, 0] = den[-1, 0] or 1.0
    y0 = draw(st.sampled_from(ORACLE_YS[:-1]))
    lead = draw(st.sampled_from(["generic", "vanishes", "constant"]))
    if lead == "vanishes":           # leading coefficient y - y0
        den = p2_mul(den, np.array([[0.0, 0.0], [-y0, 1.0]]))
    elif lead == "constant":         # y z - 1 alone: no pole at y = 0
        den = np.array([[-1.0, 0.0], [0.0, 1.0]])
    if draw(st.booleans()):          # zero roots
        den = p2_mul(den, np.array([[0.0]] * draw(st.integers(1, 2))
                                   + [[1.0]]))
    k = draw(st.sampled_from([1, 2, 3]))
    if k > 1:                        # (z - r0 - r1 y)^k
        fac = np.array([[-draw(coef), -draw(coef)], [1.0, 0.0]])
        for _i in range(k):
            den = p2_mul(den, fac)
    num = np.array([[draw(coef) or 1.0]])
    if draw(st.booleans()):          # a factor cancelling in f
        fac = np.array([[-draw(coef), -draw(coef)], [1.0, 0.0]])
        num, den = p2_mul(num, fac), p2_mul(den, fac)
    return MeromorphicSymbol(num, den, reduce=False)


@settings(max_examples=150)
@given(f=pole_families())
def test_pole_records_match_the_per_y_search(f):
    got = pole_records(f, ORACLE_YS)
    want = [_reference_locate_poles(f, y) for y in ORACLE_YS]
    assert [r.pairs for r in got] == [r.pairs for r in want]
    assert [r.gaps for r in got] == [r.gaps for r in want]


def _crossing_family(n):
    """Two pairs of linear pole branches, each pair crossing on a node."""
    ys = np.linspace(-0.5, 0.5, n)
    f = linear_poles(*[(x - s * ys[k] + 1j * im, s) for k, x, im, slopes
                       in ((n // 3, 0.3, -0.5, (1.5, -0.7)),
                           (2 * n // 3, -0.2, 0.6, (0.8, -1.9)))
                       for s in slopes])
    return {"num": [[[1.0, 0.0]]],
            "den": [[[c.real, c.imag] for c in row] for row in f.den],
            "y_domain": [-0.5, 0.5]}


@pytest.mark.parametrize("symbol, n", [
    ({"num": [[[1.0, 0.0]]],
      "den": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
      "y_domain": [-0.5, 0.5]}, 21),
    (_crossing_family(301), 301),
], ids=["readme", "crossings"])
def test_poles_artifacts_match_the_per_y_search(tmp_path, monkeypatch,
                                               symbol, n):
    cfg = tmp_path / "poles.json"
    cfg.write_text(json.dumps({"symbol": symbol,
                               "y": {"min": -0.5, "max": 0.5, "n": n}}))
    assert cli.main(["poles", "--config", str(cfg),
                     "--out", str(tmp_path / "batched")]) == 0
    monkeypatch.setattr(symbols, "pole_records", lambda f, ys: [
        _reference_locate_poles(f, y) for y in ys])
    assert cli.main(["poles", "--config", str(cfg),
                     "--out", str(tmp_path / "per_y")]) == 0
    for name in ("branches.csv", "branches.dat", "events.json"):
        assert ((tmp_path / "batched" / name).read_bytes()
                == (tmp_path / "per_y" / name).read_bytes())


def test_pole_free_symbol_makes_no_eigvals_call(monkeypatch):
    # no z in the denominator: every record is empty, and the numerator's
    # roots (here +-y at each node) are never computed
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(a.shape) or eigvals(a))
    f = MeromorphicSymbol([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                          [[1.0, 0.5]], reduce=False)
    records = pole_records(f, np.linspace(-0.004, 0.004, 9))
    assert records == [PoleRecord((), ())] * 9
    assert calls == []


def test_track_branches_one_eigvals_call_per_degree(monkeypatch):
    # 1001 nodes of one degree and no zero root: one stacked eigvals call
    shapes = []
    eigvals = np.linalg.eigvals

    def counted(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    f = linear_poles((0.2 - 0.5j, 1.0), (-0.2 - 0.5j, -1.0),
                     (0.6 + 0.5j, 2.0), (-0.3 + 0.5j, -1.0))
    sd = track_branches(f, np.linspace(-0.5, 0.5, 1001))
    assert shapes == [(1001, 4, 4)]
    assert sd.n_branches == 4


cost_entries = st.one_of(
    st.integers(0, 2).map(float),                # dense exact ties
    st.floats(0.0, 10.0, allow_nan=False))


@st.composite
def cost_matrices(draw):
    """Cost matrices of every orientation, 1 x n, n x 1 and 0-size
    included; half of them integer-valued, so ties are frequent."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = (st.integers(0, 2).map(float) if draw(st.booleans())
               else cost_entries)
    return np.array([[draw(entries) for _j in range(nc)]
                     for _i in range(nr)]).reshape(nr, nc)


@settings(max_examples=200)
@given(cost=cost_matrices())
def test_lsap_is_scipys_assignment(cost):
    want = linear_sum_assignment(cost)
    got = symbols._lsap(cost)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# pole positions on a coarse lattice: equal distances, coincident poles
# and contested argmins are common
lattice = st.builds(complex, st.integers(-2, 2).map(lambda n: 0.001 * n),
                    st.integers(-1, 1).map(lambda n: 0.001 * n))
planes = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=150)
@given(points=st.lists(st.lists(st.one_of(lattice, planes), max_size=5),
                       min_size=1, max_size=8))
def test_node_matchings_are_the_optimal_assignment(points):
    # certified or not, each node's matching is _lsap's and scipy's on its
    # cost matrix; a node after a pole-free one has none
    matchings = symbols._node_matchings(points)
    assert matchings[0] is None
    for k in range(1, len(points)):
        if not points[k - 1]:
            assert matchings[k] is None
            continue
        cost = symbols._modulus(np.array(points[k - 1], dtype=complex)[:, None]
                                - np.array(points[k], dtype=complex))
        for want in (symbols._lsap(cost), linear_sum_assignment(cost)):
            assert all(np.array_equal(g, w)
                       for g, w in zip(matchings[k], want))


def _reference_events(sd):
    """Collision events from each node's sorted multiplicity tuple."""
    patterns = [tuple(sorted(m for _p, m in rec.pairs)) for rec in sd.poles]
    events, k = [], 1
    while k < len(patterns):
        if patterns[k] != patterns[k - 1]:
            events.append(float(sd.y_nodes[k]))
            if k + 1 < len(patterns) and patterns[k + 1] == patterns[k - 1]:
                k += 1
        k += 1
    return events


@pytest.mark.parametrize("f, ys, events", [
    (symbol_from_json(_crossing_family(1001)), np.linspace(-0.5, 0.5, 1001),
     [-0.16699999999999998, 0.16700000000000004]),
    (branching_symbol(), np.linspace(-0.004, 0.004, 5), [0.0]),
    (branching_symbol(), np.linspace(-0.5, 0.5, 41), [0.0]),
], ids=["crossings", "merge-solve", "merge-poles"])
def test_collision_events_pinned(f, ys, events):
    sd = track_branches(f, ys)
    assert sd.collision_events == events == _reference_events(sd)


@pytest.mark.parametrize("f, ys, costs", [
    # 4 branches, 2 crossings on nodes: every node is certified
    (symbol_from_json(_crossing_family(1001)), np.linspace(-0.5, 0.5, 1001),
     []),
    # the +-y merge of z^2 - y^2 on solve's README grid: the merged node's
    # matchings in and out are exact ties
    (branching_symbol(), np.linspace(-0.004, 0.004, 5), [[[0.002], [0.002]],
                                                         [[0.002, 0.002]]]),
], ids=["crossings", "merge"])
def test_only_contested_nodes_run_lsap(monkeypatch, f, ys, costs):
    seen = []
    lsap = symbols._lsap
    monkeypatch.setattr(symbols, "_lsap",
                        lambda cost: seen.append(cost) or lsap(cost))
    track_branches(f, ys)
    assert len(seen) == len(costs)
    for got, want in zip(seen, costs):
        assert got == pytest.approx(np.array(want), abs=1e-15)


def test_spectral_remainder_holomorphic():
    f = simple_pole(0.3) + MeromorphicSymbol(np.array([[5.0]]), np.ones((1, 1)))
    sd = track_branches(f, np.array([0.0]))
    # subtracting the singular parts of the node's record leaves the constant 5
    zs = 0.3 + 0.05 * np.exp(1j * np.linspace(0, 2 * np.pi, 7))
    rem = f(0.0, zs)
    for i, (p, m) in enumerate(sd.poles[0].pairs):
        laur = laurent_expand(f, 0.0, sd.poles[0], i)
        rem = rem - sum(laur[j] / (zs - p) ** (j + 1) for j in range(m))
    assert np.max(np.abs(rem - 5.0)) <= 1e-9


def test_multiply_and_translate():
    f = simple_pole(0.5)
    g = simple_pole(-1.0)
    h = MeromorphicSymbol(p2_mul(f.num, g.num), p2_mul(f.den, g.den))
    z = 2.0 + 1.0j
    assert h(0.0, z) == pytest.approx(f(0.0, z) * g(0.0, z), rel=1e-12)
    # translation z -> z + sigma of both polynomials moves the pole by
    # -sigma
    t = MeromorphicSymbol(p2_shift_z(f.num, 0.75), p2_shift_z(f.den, 0.75))
    [(p, m)] = locate_poles(t, 0.0).pairs
    assert p == pytest.approx(0.5 - 0.75, abs=1e-10)


def test_zero_denominator_rejected():
    with pytest.raises(DegenerateDenominator):
        MeromorphicSymbol(np.ones((1, 1)), np.zeros((3, 2)))


def test_disjoint_y_domains_rejected():
    f = MeromorphicSymbol(np.ones((1, 1)), np.array([[1.0], [1.0]]),
                          y_domain=(0.0, 1.0))
    g = MeromorphicSymbol(np.ones((1, 1)), np.array([[2.0], [1.0]]),
                          y_domain=(2.0, 3.0))
    for op in (f.__add__, f.__sub__):
        with pytest.raises(DomainMismatch, match="disjoint"):
            op(g)


def test_invert_conormal_symbol():
    # row j holds the y-coefficients of z^j: a = z^2 - y^2
    a = [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    f = invert_symbol(a, y_domain=(-0.5, 0.5))
    y, z = 0.2, 1.0 + 1.0j
    assert f(y, z) == pytest.approx(1.0 / (z * z - y * y), rel=1e-12)
    with pytest.raises(EllipticityViolated):
        # leading coefficient y vanishes at y = 0
        invert_symbol([[1.0, 0.0], [0.0, 1.0]], y_domain=(-1.0, 1.0))
    with pytest.raises(EllipticityViolated):
        invert_symbol([[1.0], [0.0]])     # a declared zero leading row


def test_decode_rows_zero_pads_and_rejects_non_finite():
    # rows are zero-padded to the longest; an empty row, or an empty row
    # list, is the zero polynomial
    assert np.array_equal(decode_rows([[], [[1.0, 0.0], [2.0, -1.0]]]),
                          [[0.0, 0.0], [1.0, 2.0 - 1.0j]])
    assert np.array_equal(decode_rows([]), [[0.0]])
    assert np.array_equal(decode_rows([[]]), [[0.0]])
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            decode_rows([[[1.0, 0.0]], [[0.0, bad]]])


def test_symbol_json_roundtrip():
    # c[i][j] = [re, im] of the z^i y^j coefficient
    obj = {"num": [[[1.0, 0.0]]],
           "den": [[[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                   [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                   [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
           "y_domain": [-0.5, 0.5]}
    f = branching_symbol()
    g = symbol_from_json(obj)
    assert np.array_equal(g.num, f.num)
    assert np.array_equal(g.den, f.den)
    assert g.y_domain == f.y_domain


def test_branches_csv_format(tmp_path):
    lines = branches_csv(tmp_path, simple_pole(0.25), np.array([0.0, 1.0]))
    assert lines[0] == "y,Re p,Im p,multiplicity,branch_id"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.25, abs=1e-12)
    assert row[3] == "1" and row[4] == "0"
