"""Asymptotic types: strip validation, restriction, union, shadow
condition, subordination, coverings."""

import numpy as np
import pytest

from mellin_edge.asym_types import (
    AsymptoticType,
    CompactRegion,
    WeightData,
    build_covering,
    check_shadow,
    covering_reconstructs,
    restrict,
    set_equal,
    shadow_closure,
    subordinate,
    union,
)
from mellin_edge.errors import CoveringFailed, EmptyDomain, WrongKind

from conftest import double_pole


def const_type(pairs, weight=None, nodes=(-1.0, 0.0, 1.0)):
    return AsymptoticType(np.array(nodes), [list(pairs)] * len(nodes), weight)


def branching_type():
    ys = np.linspace(-0.5, 0.5, 21)
    pairs = [[(complex(y), 0), (complex(-y), 0)] if y != 0 else [(0j, 1)]
             for y in ys]
    return AsymptoticType(ys, pairs)


def test_weight_strip():
    w = WeightData(gamma=0.25, theta=-2.0)
    assert w.strip == (0.25 - 2.0, 0.25)
    with pytest.raises(ValueError):
        WeightData(0.0, 0.0)


def test_weighted_ctor_validates_strip():
    w = WeightData(gamma=0.0, theta=-1.0)
    const_type([(0.2 + 0j, 0)], weight=w)            # inside (-0.5, 0.5)
    with pytest.raises(ValueError):
        const_type([(0.7 + 0j, 0)], weight=w)        # outside


def test_restrict_idempotent():
    r = branching_type()
    region = lambda p: p.real > 0.1
    r1 = restrict(r, region=region, u_box=(0.0, 0.5))
    r2 = restrict(r1, region=region, u_box=(0.0, 0.5))
    assert set_equal(r1, r2)
    with pytest.raises(EmptyDomain):
        restrict(r, u_box=(5.0, 6.0))


def test_union_identity_and_commutativity():
    r = branching_type()
    empty = AsymptoticType(r.y_nodes, [[] for _ in r.y_nodes])
    assert set_equal(union([r, empty]), r)
    a = const_type([(0.2 + 0j, 1)])
    b = const_type([(0.2 + 0j, 0), (-0.3 + 0j, 2)])
    assert set_equal(union([a, b]), union([b, a]))
    # coincident location takes the max log-order
    ab = union([a, b])
    m = ab.pairs[ab.node_index(0.0)]
    orders = {round(p.real, 9): k for p, k in m}
    assert orders[0.2] == 1


def test_check_shadow_cases():
    w = WeightData(gamma=0.0, theta=-3.0)    # strip (-2.5, 0.5)
    # pass: single pair whose shadows leave the strip immediately
    ok, v = check_shadow(const_type([(-2.0 + 0j, 0)], weight=w))
    assert ok and v == []
    # pass: closed chain with non-increasing log-orders
    chain = [(0.2 + 0j, 1), (-0.8 + 0j, 1), (-1.8 + 0j, 2)]
    ok, v = check_shadow(const_type(chain, weight=w))
    assert ok
    # fail: missing shadow p - 1
    ok, v = check_shadow(const_type([(0.2 + 0j, 0)], weight=w))
    assert not ok and len(v) == 3 * 2     # two missing shadows per node
    # fail: shadow present but with too small a log-order
    bad = [(0.2 + 0j, 1), (-0.8 + 0j, 0), (-1.8 + 0j, 1)]
    ok, v = check_shadow(const_type(bad, weight=w))
    assert not ok
    with pytest.raises(WrongKind):
        check_shadow(const_type([(0.2 + 0j, 0)]))


def test_shadow_closure_passes_checker():
    w = WeightData(gamma=0.0, theta=-3.0)
    closed = shadow_closure([(0.2 + 0j, 1)], w)
    ok, _ = check_shadow(const_type(closed, weight=w))
    assert ok
    assert len(closed) == 3       # 0.2, -0.8, -1.8


def test_subordinate():
    f = double_pole(0.25)
    good = const_type([(0.25 + 0j, 1)])
    ok, v = subordinate(f, good, [0.0, 0.5])
    assert ok
    weak = const_type([(0.25 + 0j, 0)])
    ok, v = subordinate(f, weak, [0.0])
    assert not ok and v[0][2] == "multiplicity"
    wrong = const_type([(0.9 + 0j, 3)])
    ok, v = subordinate(f, wrong, [0.0])
    assert not ok and v[0][2] == "missing"


def test_build_covering_and_reconstruct():
    r = branching_type()
    cov = build_covering(r, strip=(-0.4, 0.4), u_box=(-0.5, 0.5),
                         eps_target=0.1)
    assert len(cov.sets) >= 2     # poles cross the strip boundary at |y|=0.4
    assert covering_reconstructs(r, cov)
    for u, k, e in cov.sets:
        assert e > 0
        lo, hi = cov.strip
        if k.vertices:
            # compact carriers sit inside the closed strip (up to padding)
            re = [v[0] for v in k.vertices]
            assert min(re) >= lo - 0.1
            assert max(re) <= hi + 0.1


def test_compact_region():
    k = CompactRegion.of_points([0.1 + 0.2j, -0.3 - 0.1j], pad=1e-3)
    assert k.contains(0.0 + 0.0j)
    assert not k.contains(1.0 + 0.0j)
    assert CompactRegion.of_points([]).contains(0.0) is False


def test_build_covering_fails_on_poles_accumulating_at_the_strip():
    # poles at 0.75 eps / 2^k below the strip edge, k = 0..8: every halving
    # of eps leaves one in the ambiguous annulus [eps/2, eps)
    c, eps = -0.4, 0.1
    r = AsymptoticType(np.array([0.0]),
                       [[(c - 0.75 * eps / 2 ** k, 0) for k in range(9)]])
    with pytest.raises(CoveringFailed) as err:
        build_covering(r, strip=(c, 0.4), u_box=(-0.5, 0.5), eps_target=eps)
    assert err.value.y_interval == (0.0, 0.0)
    # one pole fewer and the ninth eps classifies every pole
    r8 = AsymptoticType(np.array([0.0]), [r.pairs[0][1:]])
    cov = build_covering(r8, strip=(c, 0.4), u_box=(-0.5, 0.5),
                         eps_target=eps)
    assert len(cov.sets) == 1
