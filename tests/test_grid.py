import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.grid import (
    FieldSeries,
    Grid,
    ScalarField,
    TensorField,
    bochner_norm,
    dual_norm,
    export_csv,
    l2_norm,
    refined,
    time_weights,
    write_snapshots,
)

from conftest import constant_field, fibres, h1_norm, integrate, read_snapshots, scar


def test_grid_basic_geometry():
    g = Grid((5, 9), (2.0, 1.0), 1.0, 10)
    assert g.dim == 2
    assert g.n_nodes == 45
    assert g.n_cells == 32
    assert g.h == pytest.approx((0.5, 0.125))
    assert g.dt == pytest.approx(0.1)
    assert g.measure == pytest.approx(2.0)
    assert [x.tolist() for x in g.axis_coords] == [[0.0, 0.5, 1.0, 1.5, 2.0], list(np.arange(9) / 8)]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((5,), (1.0, 1.0), 1.0, 10)  # mismatched lengths
    with pytest.raises(ValueError):
        Grid((1,), (1.0,), 1.0, 10)  # too few nodes
    with pytest.raises(ValueError):
        Grid((5, 5, 5, 5), (1.0,) * 4, 1.0, 10)  # unsupported dimension


def test_weights_sum_to_measure():
    for g in (
        Grid((17,), (1.0,), 1.0, 4),
        Grid((5, 7), (2.0, 3.0), 1.0, 4),
        Grid((3, 4, 5), (1.0, 2.0, 0.5), 1.0, 4),
    ):
        assert g.weights.sum() == pytest.approx(g.measure, rel=1e-13)
        assert np.all(g.weights > 0)


def test_time_weights_trapezoid():
    g = Grid((5,), (1.0,), 2.0, 4)
    wt = time_weights(g)
    assert wt[0] == pytest.approx(0.25)
    assert wt[-1] == pytest.approx(0.25)
    assert wt.sum() == pytest.approx(2.0)


def test_integrate_linear_exact():
    g = Grid((33,), (1.0,), 1.0, 1)
    f = ScalarField(g, g.axis_coords[0])
    assert integrate(f) == pytest.approx(0.5, abs=1e-14)


def test_h1_norm_of_coordinate():
    # ||x||_{H1(0,1)}^2 = 1/3 + 1; the quadrature error is O(h^2)
    g = Grid((65,), (1.0,), 1.0, 1)
    f = ScalarField(g, g.axis_coords[0])
    assert h1_norm(f) == pytest.approx(np.sqrt(4.0 / 3.0), abs=2e-4)


def test_lp_norms_of_constant():
    g = Grid((9, 9), (1.0, 1.0), 1.0, 1)
    f = constant_field(g, -3.0)
    assert l2_norm(f) == pytest.approx(3.0, rel=1e-13)


@settings(max_examples=50)
@given(st.floats(-10.0, 10.0), st.integers(0, 2**31 - 1))
def test_lp_norm_homogeneous(c, seed):
    g = Grid((17,), (1.0,), 1.0, 1)
    vals = np.random.default_rng(seed).standard_normal(g.n_nodes)
    f = ScalarField(g, vals)
    cf = ScalarField(g, c * vals)
    assert l2_norm(cf) == pytest.approx(abs(c) * l2_norm(f), rel=1e-10, abs=1e-12)


def test_bochner_norm_matches_direct_sum():
    g = Grid((9,), (1.0,), 0.8, 5)
    rng = np.random.default_rng(3)
    s = FieldSeries(g, rng.standard_normal((6, 9)))
    wt = time_weights(g)
    direct = np.sqrt(sum(w * l2_norm(s.frame(k)) ** 2 for k, w in enumerate(wt)))
    assert bochner_norm(s, 2, "L2") == pytest.approx(direct, rel=1e-13)
    direct_inf = max(l2_norm(s.frame(k)) for k in range(6))
    assert bochner_norm(s, np.inf, "L2") == pytest.approx(direct_inf, rel=1e-13)


def test_dual_norm_of_constant_is_its_magnitude():
    g = Grid((33,), (1.0,), 1.0, 1)
    f = constant_field(g, 2.5)
    assert dual_norm(f) == pytest.approx(2.5, rel=1e-10)


def test_dual_norm_below_l2():
    g = Grid((33,), (1.0,), 1.0, 1)
    f = ScalarField(g, np.sin(3 * np.pi * g.axis_coords[0]))
    assert dual_norm(f) <= l2_norm(f) + 1e-10


def test_refined_doubles_resolution():
    g = Grid((9, 5), (1.0, 2.0), 1.0, 10)
    r = refined(g)
    assert r.nodes_per_axis == (17, 9)
    assert r.n_steps == 20
    assert r.T == g.T


def test_snapshot_roundtrip(tmp_path):
    g = Grid((4, 3), (1.0, 1.0), 1.0, 2)
    rng = np.random.default_rng(11)
    s = FieldSeries(g, rng.standard_normal((3, 12)))
    path = tmp_path / "s.bdmf"
    write_snapshots(path, s)
    dim, nodes, frames = read_snapshots(path)
    assert dim == 2
    assert nodes[:2] == (4, 3)
    assert frames.shape == (3, 12)
    assert np.array_equal(frames, s.data)


def test_snapshot_of_a_batch_rejected(tmp_path):
    g = Grid((4,), (1.0,), 1.0, 2)
    with pytest.raises(ValueError, match="write_snapshots"):
        write_snapshots(tmp_path / "b.bdmf", FieldSeries.zeros(g, (2,)))


def test_snapshot_magic_rejected(tmp_path):
    path = tmp_path / "junk.bdmf"
    path.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(ValueError):
        read_snapshots(path)


def test_csv_export_layout(tmp_path):
    g = Grid((3,), (1.0,), 1.0, 1)
    f = ScalarField(g, np.array([0.0, 0.5, 1.0]))
    path = tmp_path / "f.csv"
    export_csv(f, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,value"
    assert len(lines) == 4
    assert lines[2].split(",")[-1] == "0.5"


def test_tensor_field_algebra():
    g = Grid((5,), (1.0,), 1.0, 1)
    a = TensorField.isotropic(g, 2.0)
    b = TensorField.diagonal(g, (3.0,))
    c = a + b
    assert np.allclose(c.entries, 5.0 * np.eye(1))
    assert np.allclose((a * 2.0).entries, 4.0 * np.eye(1))


def _constant_tensors(g):
    mi, me = TensorField.diagonal(g, np.arange(1.0, g.dim + 1.0)), TensorField.isotropic(g, 0.6)
    tiled = TensorField(g, np.tile(np.diag(np.arange(2.0, g.dim + 2.0)), (g.n_cells, 1, 1)))
    return {"isotropic": me, "diagonal": mi, "tiled": tiled, "scaled": mi * 2, "sum": mi + me}


@pytest.mark.parametrize("nodes", [(6,), (5, 4), (4, 3, 5)], ids=["1d", "2d", "3d"])
def test_constant_tensors_are_stored_as_one_broadcast_cell(nodes):
    g = Grid(nodes, (1.0,) * len(nodes), 1.0, 1)
    for name, t in _constant_tensors(g).items():
        assert t.constant, name
        assert t.entries.shape == (g.n_cells, g.dim, g.dim)
        assert t.entries.strides[0] == 0, name
        with pytest.raises(ValueError):
            t.entries[0, 0, 0] = 5.0


@pytest.mark.parametrize("nodes", [(6,), (5, 4), (4, 6, 5)], ids=["1d", "2d", "3d"])
def test_varied_tensors_are_not_constant(nodes):
    g = Grid(nodes, (1.0,) * len(nodes), 1.0, 1)
    perturbed = np.tile(np.eye(g.dim), (g.n_cells, 1, 1))
    perturbed[g.n_cells // 2] *= 1.5
    varied = {"scar": scar(g, 1e-2), "one-cell": TensorField(g, perturbed)}
    if g.dim > 1:
        varied["fibres"] = fibres(g)
    for name, t in varied.items():
        assert not t.constant, name
        assert t.entries.flags.writeable, name
    assert not (varied["scar"] + TensorField.isotropic(g, 1.0)).constant
    assert not (varied["scar"] * 2.0).constant
