import numpy as np
import pytest

from elastobranch.mesh import (Mesh, build_box_mesh, gauss_points,
                               star_shape_check, write_vtk)


def _lshape(divisions=(2, 2, 2)):
    # drop the upper-right quadrant column; re-entrant edge at x = y = 0.5
    return build_box_mesh((1.0, 1.0, 1.0), divisions,
                          keep_cell=lambda c: not (c[0] > 0.5 and c[1] > 0.5))


def test_gauss_rule_degree_five_exactness():
    pts, w = gauss_points()
    assert pts.shape == (27, 3)
    assert abs(w.sum() - 8.0) < 1e-13
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    assert abs(w @ (x ** 4 * y ** 2) - (2 / 5) * (2 / 3) * 2) < 1e-13
    assert abs(w @ (x ** 5)) < 1e-13
    assert abs(w @ (x ** 2 * y ** 2 * z ** 2) - (2 / 3) ** 3) < 1e-13


def test_unit_cube_counts_and_measures():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    assert mesh.n_nodes == 27
    assert mesh.n_elements == 8
    assert mesh.boundary_nodes.size == 26          # all but the center node
    assert mesh.boundary_facets.shape == (24, 4)
    assert abs(mesh.volume() - 1.0) < 1e-12
    assert abs(mesh.facet_qw.sum() - 6.0) < 1e-12


def test_anisotropic_box_volume_and_area():
    mesh = build_box_mesh((2.0, 1.0, 3.0), (3, 2, 4))
    assert abs(mesh.volume() - 6.0) < 1e-12
    area = 2 * (2 * 1 + 1 * 3 + 3 * 2)
    assert abs(mesh.facet_qw.sum() - area) < 1e-12


def test_facet_normals_outward_axis_aligned():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    center = np.array([0.5, 0.5, 0.5])
    # every facet normal is a signed unit axis vector pointing away
    assert np.abs(np.abs(mesh.facet_normals).max(axis=1) - 1.0).max() < 1e-12
    centroids = mesh.facet_qp.mean(axis=1)
    out = np.einsum('fi,fi->f', mesh.facet_normals, centroids - center)
    assert out.min() > 0.0


def test_positive_geometric_jacobians():
    mesh = build_box_mesh((1.5, 0.7, 2.0), (3, 2, 4), center_at_origin=True)
    assert mesh.qp_weight.min() > 0.0
    assert abs(mesh.nodes.mean(axis=0)).max() < 1e-12


@pytest.mark.parametrize("args,kwargs", [
    (((1.0, 1.0, 1.0), (2, 2, 2)), {}),
    (((1.0, 1.0, 1.0), (5, 5, 5)), {}),
    (((1.5, 1.0, 1.0), (3, 2, 2)), {}),
    (((2.0, 1.0, 3.0), (3, 2, 4)), {}),
    (((1.5, 0.7, 2.0), (3, 2, 4)), dict(center_at_origin=True)),
    (((1.0, 1.0, 0.5), (4, 4, 2)), dict(keep_cell=lambda c: not (c[0] > 0.5 and c[1] > 0.5))),
    (((4.0, 3.0, 2.0), (4, 3, 2)), dict(keep_cell=lambda c: c[0] < 2.0 or c[2] < 1.0)),
    (((1.0, 1.0, 1.0), (3, 3, 3)),
     dict(keep_cell=lambda c: int(np.floor(3 * c).sum()) % 2 == 0)),
], ids=["unit_2", "unit_5", "box_3x2x2", "anisotropic", "centred", "l_shape",
        "masked_4x3x2", "checkerboard"])
def test_every_cell_has_the_first_cells_weights(args, kwargs):
    """The cells are congruent lattice cells, so every row of qp_weight is
    the first: the element kernel integrates with that one row."""
    w = build_box_mesh(*args, **kwargs).qp_weight
    assert np.array_equal(w, np.broadcast_to(w[0], w.shape))


def test_build_validation():
    with pytest.raises(ValueError):
        build_box_mesh((1.0, 1.0, 1.0), (1, 2, 2))
    with pytest.raises(ValueError):
        build_box_mesh((0.0, 1.0, 1.0), (2, 2, 2))
    with pytest.raises(ValueError):
        build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2), keep_cell=lambda c: False)


def test_lshape_counts_and_volume():
    mesh = _lshape()
    assert mesh.n_elements == 6
    assert mesh.n_nodes == 24                      # corner column removed
    assert mesh.boundary_nodes.size == 24          # re-entrant edge included
    assert abs(mesh.volume() - 0.75) < 1e-12


def test_star_shape_centered_cube():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3), center_at_origin=True)
    rep = star_shape_check(mesh, (0.0, 0.0, 0.0))
    assert rep.passed
    assert abs(rep.min_value - 0.5) < 1e-12


def test_star_shape_boundary_origin_fails():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    rep = star_shape_check(mesh, (0.0, 0.5, 0.5))
    assert not rep.passed
    assert abs(rep.min_value) < 1e-12


def test_star_shape_origin_outside_rejected():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    with pytest.raises(ValueError):
        star_shape_check(mesh, (2.0, 0.5, 0.5))


def test_star_shape_lshape_kernel_and_leg():
    mesh = _lshape((4, 4, 2))
    inside = star_shape_check(mesh, (0.25, 0.25, 0.5))
    assert inside.passed
    leg = star_shape_check(mesh, (0.75, 0.25, 0.5))
    assert not leg.passed
    assert leg.min_value < -0.2
    # the witness sits on one of the re-entrant faces
    x, y = leg.location[0], leg.location[1]
    assert (abs(x - 0.5) < 1e-9 and y > 0.5) or (abs(y - 0.5) < 1e-9 and x > 0.5)


def test_write_vtk_layout_and_round_trip(tmp_path):
    mesh = build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    u = 0.01 * mesh.nodes
    p = mesh.nodes[:, 0] - 0.5
    path = tmp_path / "snap.vtk"
    write_vtk(path, mesh, point_data={"u": u, "p": p})
    lines = path.read_text().splitlines()

    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 27 double"
    pts = np.array([[float(v) for v in ln.split()] for ln in lines[5:32]])
    assert np.array_equal(pts, mesh.nodes)
    icells = lines.index("CELLS 8 72")
    for ln in lines[icells + 1:icells + 9]:
        assert ln.startswith("8 ")
    itypes = lines.index("CELL_TYPES 8")
    assert lines[itypes + 1:itypes + 9] == ["12"] * 8
    assert "POINT_DATA 27" in lines
    assert "VECTORS u double" in lines
    assert "SCALARS p double 1" in lines
    assert "LOOKUP_TABLE default" in lines


def test_write_vtk_deterministic_and_validating(tmp_path):
    mesh = build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(p1, mesh)
    write_vtk(p2, mesh)
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "c.vtk", mesh,
                  point_data={"bad": np.zeros((5, 2))})
