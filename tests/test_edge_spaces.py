"""Edge Sobolev fields on torus x half-line: norms, potential operators,
singular synthesis/harvesting, operator action, serialization."""

import numpy as np
import pytest

from mellin_edge.asym_types import AsymptoticType
from mellin_edge import cli, edge_ops
from mellin_edge.edge_ops import (
    MellinEdgeSymbol,
    eta_bracket,
    eval_mellin_edge_symbol,
)
from mellin_edge.edge_spaces import (
    EdgeField,
    SingularEdgeData,
    TorusGrid,
    apply_edge_operator,
    decompose_flat_singular_edge,
    edge_norm,
    field_from_binary,
    field_to_binary,
    inverse_potential_op,
    potential_op,
    synthesize_singular,
)
from mellin_edge.errors import (
    CertificationFailed,
    NonFiniteInput,
    PoleOnWeightLine,
    TailTooLarge,
)
from mellin_edge.functionals import AnalyticFunctional
from mellin_edge.mellin import kappa, HalfLineFunction

from mellin_edge.symbols import MeromorphicSymbol

from conftest import bump, make_grid, simple_pole


@pytest.fixture(scope="module")
def r_grid():
    return make_grid(-50.0, 8192)


def smooth_field(r_grid, y_grid=None, s=0.0, gamma=0.0):
    yg = y_grid if y_grid is not None else TorusGrid(2 * np.pi, 8)
    profile = r_grid.r**2 * np.exp(-r_grid.r)
    vals = (1.0 + 0.3 * np.cos(yg.y))[:, None] * profile[None, :]
    return EdgeField(yg, r_grid, vals, s=s, gamma=gamma)


def test_w0_is_l2(r_grid):
    u = smooth_field(r_grid)
    assert edge_norm(u, 0.0) == pytest.approx(u.l2_norm(), rel=1e-10)


def test_w0_is_l2_q2(r_grid):
    g1 = TorusGrid(1.0, 4)
    g2 = TorusGrid(2.0, 4)
    profile = r_grid.r**2 * np.exp(-r_grid.r)
    vals = np.ones((4, 4))[:, :, None] * profile[None, None, :]
    vals[1, 2] *= 1.7
    u = EdgeField([g1, g2], r_grid, vals)
    assert edge_norm(u, 0.0) == pytest.approx(u.l2_norm(), rel=1e-10)


def test_edge_norm_monotone_in_s(r_grid):
    u = smooth_field(r_grid)
    n0 = edge_norm(u, 0.0)
    n1 = edge_norm(u, 1.0)
    n2 = edge_norm(u, 2.0)
    assert n0 <= n1 <= n2


def test_potential_roundtrip(r_grid):
    u = smooth_field(r_grid)
    back = inverse_potential_op(potential_op(u))
    err = back.copy(values=back.values - u.values).l2_norm()
    assert err <= 1e-9 * u.l2_norm()


def test_potential_mode_identity(r_grid):
    # (F K u)(eta) = kappa_{[eta]} u-hat(eta), mode by mode
    u = smooth_field(r_grid)
    ku = potential_op(u)
    modes_in = u.modes()
    modes_out = ku.modes()
    etas = u.y_grids[0].etas
    scale = np.max(np.abs(modes_in))
    for k in range(u.y_grids[0].n_points):
        br = eta_bracket(abs(float(etas[k])))
        expect = kappa(HalfLineFunction(r_grid, modes_in[k]), br).values
        assert np.max(np.abs(modes_out[k] - expect)) <= 1e-12 * scale


def test_potential_is_isomorphism_norms(r_grid):
    # K maps the s-norm of v onto the s-norm of K v up to the [eta]-weights:
    # at s = 0 it is unitary mode-by-mode after the kappa twist
    u = smooth_field(r_grid)
    ku = potential_op(u)
    assert edge_norm(ku, 0.0) == pytest.approx(u.l2_norm(), rel=1e-9)


def declared_type(y_grid, pairs):
    return AsymptoticType(y_grid.y, [list(pairs)] * y_grid.n_points)


def make_singular_data(r_grid, y_grid, p=-0.3 + 0.2j):
    functionals = []
    for k in range(y_grid.n_points):
        if k in (0, 1, 3):
            w = np.array([1.0 + 0.2j * k, 0.5 * (k + 1)])
            functionals.append(AnalyticFunctional(masses=[(p, w)]))
        else:
            functionals.append(AnalyticFunctional(masses=[]))
    return SingularEdgeData(y_grid, r_grid, functionals, gamma=0.0)


def test_synthesize_decompose_roundtrip(r_grid):
    yg = TorusGrid(2 * np.pi, 8)
    p = -0.3 + 0.2j
    data = make_singular_data(r_grid, yg, p=p)
    sing = synthesize_singular(data)
    flat_bg = smooth_field(r_grid, yg)
    u = sing.copy(values=sing.values + flat_bg.values)
    atype = declared_type(yg, [(p, 1)])
    flat, harvested = decompose_flat_singular_edge(u, atype, depth=1.0)
    # recovered per-mode masses match the synthesized ones
    for k, (zin, zout) in enumerate(zip(data.mode_functionals,
                                        harvested.mode_functionals)):
        if not zin.masses:
            assert not zout.masses
            continue
        [(pi, wi)] = zin.masses
        [(po, wo)] = zout.masses
        assert abs(po - pi) <= 1e-9
        assert len(wo) == len(wi)
        scale = max(1.0, np.max(np.abs(wi)))
        assert np.max(np.abs(wo - wi)) <= 1e-7 * scale
    # flat remainder matches the smooth background
    err = flat.copy(values=flat.values - flat_bg.values).l2_norm()
    assert err <= 1e-7 * flat_bg.l2_norm()


def test_decompose_flat_only(r_grid):
    yg = TorusGrid(2 * np.pi, 8)
    u = smooth_field(r_grid, yg)
    atype = declared_type(yg, [(-0.3 + 0j, 1)])
    flat, harvested = decompose_flat_singular_edge(u, atype, depth=1.0)
    assert all(not z.masses for z in harvested.mode_functionals)
    assert np.max(np.abs(flat.values - u.values)) == 0.0


def test_decompose_negative_control(r_grid):
    # a synthesized pole outside the declared type cannot be harvested and
    # must break the flatness certification of the remainder
    yg = TorusGrid(2 * np.pi, 8)
    data = make_singular_data(r_grid, yg, p=-0.3 + 0j)
    sing = synthesize_singular(data)
    atype = declared_type(yg, [(-0.7 + 0j, 1)])
    with pytest.raises(CertificationFailed) as err:
        decompose_flat_singular_edge(sing, atype, depth=1.0)
    # mode 3 carries the heaviest missed mass; it fails at the last shift
    assert str(err.value).startswith(
        "edge flat part at mode (3,) fails the weight check at beta'=0.855 ")


def test_apply_edge_operator_y_modes(r_grid):
    # a y-constant symbol acts identically through both quantizations
    yg = TorusGrid(2 * np.pi, 8)
    profile = bump(r_grid, a=0.02, b=0.2).values
    vals = (1.0 + 0.5 * np.sin(yg.y))[:, None] * profile[None, :]
    u = EdgeField(yg, r_grid, vals)
    m = MellinEdgeSymbol([(0, 0, simple_pole(-1.2), 0.0)], mu=0.0, gamma=0.0)
    a = apply_edge_operator(m, u, y_dependent=False)
    b = apply_edge_operator(m, u, y_dependent=True)
    scale = max(1e-300, np.max(np.abs(a.values)))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


def decaying_field(grid, n, seed=1, heavy_mode=None):
    """Mode k carries c_k r^alpha_k e^{-beta_k r} (alpha_k >= 1.5, so the
    weighted end samples pass the tail check); heavy_mode carries e^{-r}."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    alpha = rng.uniform(1.5, 3.0, n)
    beta = rng.uniform(0.5, 2.0, n)
    modes = c[:, None] * grid.r ** alpha[:, None] * np.exp(
        -beta[:, None] * grid.r)
    if heavy_mode is not None:
        modes[heavy_mode] = np.exp(-grid.r)
    return EdgeField.from_modes(TorusGrid(2 * np.pi, n), grid, modes)


def two_term_symbol(r_power_right):
    """j = 0: 1/(z + 1.2 + 0.3y); j = 1, alpha = 1:
    (0.5 + 0.1y)/((z + 2 + 0.2y)(z - 2.5 - 0.1y)) on Re z = 1."""
    f0 = MeromorphicSymbol(np.ones((1, 1)), [[1.2, 0.3], [1.0, 0.0]])
    f1 = MeromorphicSymbol([[0.5, 0.1]],
                           [[-5.0, -0.7, -0.02], [-0.5, 0.1, 0.0],
                            [1.0, 0.0, 0.0]])
    return MellinEdgeSymbol([(0, 0, f0, 0.0), (1, 1, f1, -0.5)], mu=0.0,
                            gamma=0.0, r_power_right=r_power_right)


def per_mode(m, u, modes, y, k):
    """m(y, eta_k) applied to mode k by one eval_mellin_edge_symbol call."""
    h = HalfLineFunction(u.r_grid, modes[k])
    return eval_mellin_edge_symbol(m, y, float(u.y_grids[0].etas[k]), h).values


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("r_power_right", [False, True])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_apply_edge_operator_matches_per_node_calls(grid_short, n,
                                                    r_power_right):
    # left quantization against n^2 single (y_j, eta_k) evaluations
    u = decaying_field(grid_short, n)
    m = two_term_symbol(r_power_right)
    ys, etas, modes = u.y_grids[0].y, u.y_grids[0].etas, u.modes()
    ref = np.array([sum(np.exp(1j * ys[j] * etas[k])
                        * per_mode(m, u, modes, ys[j], k) for k in range(n))
                    for j in range(n)])
    got = apply_edge_operator(m, u, y_dependent=True).values
    assert rel_err(got, ref) <= 1e-14


@pytest.mark.parametrize("r_power_right", [False, True])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_apply_edge_operator_y_independent_matches_per_mode_calls(
        grid_short, n, r_power_right):
    u = decaying_field(grid_short, n, seed=2)
    m = two_term_symbol(r_power_right)
    modes = u.modes()
    ref = EdgeField.from_modes(u.y_grids, grid_short,
                               [per_mode(m, u, modes, 0.3, k) for k in range(n)])
    got = apply_edge_operator(m, u, y=0.3, y_dependent=False).values
    assert rel_err(got, ref.values) <= 1e-14


def line_crossing_symbol(y_hit):
    """1/(z - 1/2 - y + y_hit): on the weight line Re z = 1/2 at y_hit only."""
    return MellinEdgeSymbol([(0, 0, MeromorphicSymbol(
        np.ones((1, 1)), [[-0.5 + y_hit, -1.0], [1.0, 0.0]]),
        0.0)], mu=0.0, gamma=0.0)


def test_apply_edge_operator_pole_on_line_at_one_node(grid_short):
    u = decaying_field(grid_short, 8)
    m = line_crossing_symbol(u.y_grids[0].y[3])
    with pytest.raises(PoleOnWeightLine) as err:
        apply_edge_operator(m, u, y_dependent=True)
    assert abs(err.value.pole - 0.5) < 1e-12
    apply_edge_operator(m, u, y=0.0, y_dependent=False)   # clear off y_3


@pytest.mark.parametrize("y_dependent", [False, True])
def test_apply_edge_operator_heavy_tail_mode(grid_short, y_dependent):
    u = decaying_field(grid_short, 8, heavy_mode=5)
    with pytest.raises(TailTooLarge):
        apply_edge_operator(two_term_symbol(False), u,
                            y_dependent=y_dependent)


def test_apply_edge_operator_clearance_precedes_tail_check(grid_short):
    # both errors apply: every node's clearance runs before any transform
    u = decaying_field(grid_short, 8, heavy_mode=0)
    m = line_crossing_symbol(u.y_grids[0].y[3])
    with pytest.raises(PoleOnWeightLine):
        apply_edge_operator(m, u, y_dependent=True)


def test_apply_edge_operator_call_counts(grid_short, monkeypatch):
    # one pole search per torus node, all nodes in one pole_records call,
    # and one forward transform per mode
    calls = {"pole_records": 0, "searched_nodes": 0, "line_transform": 0}
    search, transform = edge_ops.pole_records, edge_ops.line_transform

    def counted_search(f, ys):
        calls["pole_records"] += 1
        calls["searched_nodes"] += len(ys)
        return search(f, ys)

    def counted_transform(*args, **kwargs):
        calls["line_transform"] += 1
        return transform(*args, **kwargs)

    monkeypatch.setattr(edge_ops, "pole_records", counted_search)
    monkeypatch.setattr(edge_ops, "line_transform", counted_transform)
    n = 8
    u = decaying_field(grid_short, n)
    f = MeromorphicSymbol(np.ones((1, 1)), [[1.2, 0.3], [1.0, 0.0]])
    m = MellinEdgeSymbol([(0, 0, f, 0.0)], mu=0.0, gamma=0.0)
    apply_edge_operator(m, u, y_dependent=True)
    assert calls == {"pole_records": 1, "searched_nodes": n,
                     "line_transform": n}


def test_nonfinite_field_rejected(r_grid):
    yg = TorusGrid(2 * np.pi, 4)
    vals = np.zeros((4, r_grid.n_points))
    vals[0, 10] = np.inf
    with pytest.raises(NonFiniteInput):
        EdgeField(yg, r_grid, vals)


def test_field_binary_roundtrip(tmp_path, r_grid):
    u = smooth_field(r_grid, s=1.0, gamma=0.25)
    pb, pj = str(tmp_path / "f.bin"), str(tmp_path / "f.json")
    field_to_binary(u, pb, pj)
    v = field_from_binary(pb, pj)
    assert v.s == 1.0 and v.gamma == 0.25
    assert v.values.shape == u.values.shape
    scale = np.max(np.abs(u.values))
    # complex64 storage: single-precision agreement
    assert np.max(np.abs(v.values - u.values)) <= 1e-6 * scale


def test_mode_norms_csv(r_grid, tmp_path):
    u = smooth_field(r_grid)
    pb, pj = str(tmp_path / "u.bin"), str(tmp_path / "u.json")
    field_to_binary(u, pb, pj)
    f = {"num": [[[1.0, 0.0]]], "den": [[[1.2, 0.0]], [[1.0, 0.0]]],
         "y_domain": None}
    cfg = {"field": {"bin": pb, "json": pj},
           "operator": {"terms": [{"j": 0, "alpha": 0, "f": f,
                                   "gamma_j": 0.0}], "mu": 0.0, "gamma": 0.0}}
    assert cli.cmd_edge_apply(cfg, str(tmp_path), 0) == 0
    lines = (tmp_path / "mode_norms.csv").read_text().splitlines()
    assert lines[0] == "eta,norm"
    assert len(lines) == 1 + u.y_grids[0].n_points
    first = lines[1].split(",")
    assert float(first[0]) == 0.0          # sorted by |eta|
