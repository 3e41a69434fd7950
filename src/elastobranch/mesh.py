"""Hexahedral reference domains on an integer lattice: box meshes, possibly
cell-masked, with boundary classification, Gauss quadrature, the
star-shapedness certificate, and a legacy-VTK text writer.

Every element is an axis-aligned lattice cell, so the geometry is closed
form: each element map is a diagonal scaling, and the boundary facets are
the cell faces with no mesh cell across.  The mixed function spaces live in
the assembly module, which reads the lattice metadata carried here.
"""

from dataclasses import dataclass

import numpy as np

# 3-point Gauss rule per axis
_G1 = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_W1 = np.array([5.0, 8.0, 5.0]) / 9.0

# VTK hexahedron local vertex offsets
_HEX_OFFSETS = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                         (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])

# local faces as vertex index quadruples; face lf lies at side lf % 2 of
# axis lf // 2, so its outward normal is _FACE_NORMALS[lf]
_HEX_FACES = np.array([(0, 4, 7, 3), (1, 2, 6, 5),
                       (0, 1, 5, 4), (3, 7, 6, 2),
                       (0, 3, 2, 1), (4, 5, 6, 7)])
_FACE_NORMALS = np.array([(-1, 0, 0), (1, 0, 0), (0, -1, 0),
                          (0, 1, 0), (0, 0, -1), (0, 0, 1)])


# 3x3 Gauss points of each local face in cell units, (6, 9, 3): the first
# face coordinate runs from quad vertex 0 to 1, the second from 0 to 3
_FACE_CORNERS = _HEX_OFFSETS[_HEX_FACES]
_FACE_UV = 0.5 * (1.0 + np.stack(np.meshgrid(_G1, _G1, indexing='ij'), axis=-1))
_FACE_POINTS = _FACE_CORNERS[:, :1] + _FACE_UV.reshape(9, 2) @ (
    _FACE_CORNERS[:, [1, 3]] - _FACE_CORNERS[:, :1])
_FACE_WEIGHTS = (_W1[:, None] * _W1[None, :]).reshape(-1)


def gauss_points():
    """Tensor-product 3x3x3 rule on [-1,1]^3: (27,3) points, (27,) weights."""
    pts = np.stack(np.meshgrid(_G1, _G1, _G1, indexing='ij'), axis=-1).reshape(-1, 3)
    w = (_W1[:, None, None] * _W1[None, :, None] * _W1[None, None, :]).reshape(-1)
    return pts, w


def lattice_index(ijk):
    """Index tuple into a 3-D lattice array from integer coords (..., 3)."""
    return tuple(np.moveaxis(ijk, -1, 0))


@dataclass
class Mesh:
    """A mesh of lattice cells.  The boundary tables, which only the
    star-shape check reads, are computed on each access."""

    nodes: np.ndarray            # (N, 3) vertex coordinates
    hexes: np.ndarray            # (E, 8) connectivity, VTK vertex order
    qp_phys: np.ndarray          # (E, 27, 3)
    qp_weight: np.ndarray        # (E, 27) weight x cell volume / 8: one
                                 # row broadcast, as the cells are congruent
    origin: np.ndarray           # lattice origin
    spacing: np.ndarray          # lattice cell size
    divisions: np.ndarray        # cells per axis of the enclosing box
    cells_ijk: np.ndarray        # (E, 3) integer lattice coords per element
    active: np.ndarray           # divisions + 2 bools per axis: True at the
                                 # mesh cells, shifted by one padding layer

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.hexes.shape[0]

    def volume(self):
        return float(self.qp_weight.sum())

    def _faces(self):
        """(owner cell, local face) of each boundary facet: the cell faces
        with no mesh cell across."""
        across = self.cells_ijk[:, None, :] + 1 + _FACE_NORMALS    # padded, (E, 6, 3)
        return np.nonzero(~self.active[lattice_index(across)])

    @property
    def boundary_facets(self):
        """(Fb, 4) vertex quadruples."""
        owner, lf = self._faces()
        return self.hexes[owner[:, None], _HEX_FACES[lf]]

    @property
    def boundary_nodes(self):
        """Sorted vertex indices on the boundary."""
        return np.unique(self.boundary_facets)

    @property
    def facet_normals(self):
        """(Fb, 3) unit outward normals, +-e_axis."""
        return _FACE_NORMALS[self._faces()[1]].astype(float)

    @property
    def facet_qp(self):
        """(Fb, 9, 3) facet quadrature points."""
        owner, lf = self._faces()
        return self.origin + self.spacing * (self.cells_ijk[owner, None, :]
                                             + _FACE_POINTS[lf])

    @property
    def facet_qw(self):
        """(Fb, 9) facet weights (area measure): the reference face's, scaled
        by facet area / reference face area (4), by normal axis."""
        lf = self._faces()[1]
        return _FACE_WEIGHTS * (np.prod(self.spacing) / self.spacing / 4.0)[lf // 2, None]


def build_box_mesh(extent=(1.0, 1.0, 1.0), divisions=(4, 4, 4),
                   center_at_origin=False, keep_cell=None):
    """Box mesh of axis-aligned lattice cells, optionally cell-masked.

    keep_cell, when given, maps a cell centroid to a bool; dropped cells
    leave their faces as boundary, so unions of boxes (L-shapes and the
    like) come out with correct facet normals.
    """
    extent = np.asarray(extent, dtype=float)
    divisions = np.asarray(divisions, dtype=int)
    if np.any(extent <= 0):
        raise ValueError("extents must be positive")
    if np.any(divisions < 2):
        raise ValueError("need at least 2 divisions per axis for the mixed pair")

    origin = -0.5 * extent if center_at_origin else np.zeros(3)
    spacing = extent / divisions

    cells_ijk = np.array(list(np.ndindex(*divisions)), dtype=int)
    if keep_cell is not None:
        keep = [bool(keep_cell(origin + spacing * (c + 0.5))) for c in cells_ijk]
        cells_ijk = cells_ijk[np.array(keep, dtype=bool)]
    if not len(cells_ijk):
        raise ValueError("cell mask removed every element")
    active = np.zeros(divisions + 2, dtype=bool)
    active[lattice_index(cells_ijk + 1)] = True

    # vertices: the lattice points of the kept cells, in lattice order
    corners = np.ravel_multi_index(
        lattice_index(cells_ijk[:, None, :] + _HEX_OFFSETS), divisions + 1)
    used, hexes = np.unique(corners, return_inverse=True)
    hexes = hexes.reshape(corners.shape)
    nodes = origin + spacing * np.stack(np.unravel_index(used, divisions + 1),
                                        axis=-1)

    # element quadrature: each cell is the reference cube scaled by spacing/2
    qp_ref, qw_ref = gauss_points()
    qp_phys = origin + spacing * (cells_ijk[:, None, :] + 0.5 * (1.0 + qp_ref))
    qp_weight = np.broadcast_to(qw_ref * np.prod(0.5 * spacing), (len(cells_ijk), 27))

    return Mesh(nodes=nodes, hexes=hexes, qp_phys=qp_phys, qp_weight=qp_weight,
                origin=origin, spacing=spacing, divisions=divisions,
                cells_ijk=cells_ijk, active=active)


@dataclass
class StarShapeReport:
    min_value: float
    location: np.ndarray
    facet: int
    passed: bool


def star_shape_check(mesh: Mesh, origin=(0.0, 0.0, 0.0)):
    """Evaluate n(x) . (x - origin) at boundary quadrature points.

    Strict positivity of the minimum certifies star-shapedness with respect
    to the origin.  An origin on the boundary fails (minimum zero) rather
    than erroring; only an origin outside the element union is rejected.
    """
    origin = np.asarray(origin, dtype=float)
    lo = mesh.nodes[mesh.hexes].min(axis=1)
    hi = mesh.nodes[mesh.hexes].max(axis=1)
    inside = np.any(np.all((origin >= lo - 1e-12) & (origin <= hi + 1e-12), axis=1))
    if not inside:
        raise ValueError("origin lies outside the mesh")
    qp = mesh.facet_qp
    vals = np.einsum('fi,fqi->fq', mesh.facet_normals, qp - origin)
    f, q = np.unravel_index(int(np.argmin(vals)), vals.shape)
    mn = float(vals[f, q])
    return StarShapeReport(min_value=mn, location=qp[f, q],
                           facet=int(f), passed=mn > 0.0)


def write_vtk(path, mesh: Mesh, point_data=None, title="elastobranch snapshot"):
    """Legacy VTK unstructured-grid text file with optional point data.

    point_data maps names to arrays over mesh vertices: (N,3) entries are
    written as VECTORS, (N,) as SCALARS.  %.17g formatting keeps files
    bit-reproducible.
    """
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             "POINTS %d double" % mesh.n_nodes]
    for x in mesh.nodes:
        lines.append("%.17g %.17g %.17g" % tuple(x))
    lines.append("CELLS %d %d" % (mesh.n_elements, 9 * mesh.n_elements))
    for h in mesh.hexes:
        lines.append("8 " + " ".join(str(int(v)) for v in h))
    lines.append("CELL_TYPES %d" % mesh.n_elements)
    lines.extend(["12"] * mesh.n_elements)
    if point_data:
        lines.append("POINT_DATA %d" % mesh.n_nodes)
        for name, arr in point_data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim == 2 and arr.shape == (mesh.n_nodes, 3):
                lines.append("VECTORS %s double" % name)
                for v in arr:
                    lines.append("%.17g %.17g %.17g" % tuple(v))
            elif arr.shape == (mesh.n_nodes,):
                lines.append("SCALARS %s double 1" % name)
                lines.append("LOOKUP_TABLE default")
                for v in arr:
                    lines.append("%.17g" % v)
            else:
                raise ValueError("point data %r has unsupported shape %r"
                                 % (name, arr.shape))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
