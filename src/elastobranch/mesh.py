"""Hexahedral reference domains: structured box meshes with boundary
classification, Gauss quadrature, the star-shapedness certificate, and a
legacy-VTK text writer.

The mesh is purely geometric (trilinear hexes); the mixed function spaces
live in the assembly module, which reads the structured lattice metadata
carried here.
"""

from dataclasses import dataclass

import numpy as np

# 3-point Gauss rule per axis
_G1 = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_W1 = np.array([5.0, 8.0, 5.0]) / 9.0

# VTK hexahedron local vertex offsets
_HEX_OFFSETS = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                         (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])

# local faces as vertex index quadruples
_HEX_FACES = np.array([(0, 4, 7, 3), (1, 2, 6, 5),
                       (0, 1, 5, 4), (3, 7, 6, 2),
                       (0, 3, 2, 1), (4, 5, 6, 7)])


def _trilinear(ref):
    """Q1 shape values and reference gradients at points (..., 3)."""
    ref = np.asarray(ref, dtype=float)
    signs = 2.0 * _HEX_OFFSETS - 1.0                     # (8, 3)
    terms = 1.0 + ref[..., None, :] * signs              # (..., 8, 3)
    vals = 0.125 * terms.prod(axis=-1)
    grads = np.empty(terms.shape)
    for d in range(3):
        others = [k for k in range(3) if k != d]
        grads[..., d] = 0.125 * signs[:, d] * terms[..., others[0]] * terms[..., others[1]]
    return vals, grads


def gauss_points():
    """Tensor-product 3x3x3 rule on [-1,1]^3: (27,3) points, (27,) weights."""
    pts = np.stack(np.meshgrid(_G1, _G1, _G1, indexing='ij'), axis=-1).reshape(-1, 3)
    w = (_W1[:, None, None] * _W1[None, :, None] * _W1[None, None, :]).reshape(-1)
    return pts, w


@dataclass
class Mesh:
    nodes: np.ndarray            # (N, 3) vertex coordinates
    hexes: np.ndarray            # (E, 8) connectivity, VTK vertex order
    boundary_nodes: np.ndarray   # sorted vertex indices on the boundary
    boundary_facets: np.ndarray  # (Fb, 4) vertex quadruples
    facet_normals: np.ndarray    # (Fb, 3) unit outward
    facet_qp: np.ndarray         # (Fb, 9, 3) facet quadrature points
    facet_qw: np.ndarray         # (Fb, 9) facet weights (area measure)
    qp_ref: np.ndarray           # (27, 3) reference quadrature points
    qp_phys: np.ndarray          # (E, 27, 3)
    qp_weight: np.ndarray        # (E, 27) weight x |det J|
    qp_jac_inv: np.ndarray       # (E, 27, 3, 3) inverse geometry Jacobian
    origin: np.ndarray           # lattice origin
    spacing: np.ndarray          # lattice cell size
    divisions: np.ndarray        # cells per axis of the enclosing box
    cells_ijk: np.ndarray        # (E, 3) integer lattice coords per element

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.hexes.shape[0]

    def volume(self):
        return float(self.qp_weight.sum())


def build_box_mesh(extent=(1.0, 1.0, 1.0), divisions=(4, 4, 4),
                   center_at_origin=False, keep_cell=None):
    """Structured trilinear hex mesh of a box, optionally cell-masked.

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
    nx, ny, nz = divisions

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    ii, jj, kk = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                             np.arange(nz + 1), indexing='ij')
    all_nodes = origin + spacing * np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)

    cells = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                centroid = origin + spacing * (np.array([i, j, k]) + 0.5)
                if keep_cell is not None and not keep_cell(centroid):
                    continue
                cells.append((i, j, k))
    if not cells:
        raise ValueError("cell mask removed every element")
    cells_ijk = np.array(cells, dtype=int)

    hexes_full = np.array([[vid(i + di, j + dj, k + dk)
                            for di, dj, dk in _HEX_OFFSETS]
                           for i, j, k in cells_ijk])

    used = np.unique(hexes_full)
    renum = -np.ones(all_nodes.shape[0], dtype=int)
    renum[used] = np.arange(used.size)
    nodes = all_nodes[used]
    hexes = renum[hexes_full]

    # boundary facets: faces owned by exactly one element
    face_count = {}
    for e, hexa in enumerate(hexes):
        for lf, quad in enumerate(_HEX_FACES):
            key = tuple(sorted(hexa[quad]))
            face_count.setdefault(key, []).append((e, lf))
    boundary = [(e, lf) for owners in face_count.values()
                if len(owners) == 1 for e, lf in owners]
    boundary.sort()

    facets = np.array([hexes[e][_HEX_FACES[lf]] for e, lf in boundary])
    elem_centroids = nodes[hexes].mean(axis=1)

    # facet quadrature (3x3 Gauss on the bilinear quad) and outward normals
    fq = np.stack(np.meshgrid(_G1, _G1, indexing='ij'), axis=-1).reshape(-1, 2)
    fw = (_W1[:, None] * _W1[None, :]).reshape(-1)
    sgn2 = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    shp = 0.25 * (1 + fq[:, None, 0] * sgn2[:, 0]) * (1 + fq[:, None, 1] * sgn2[:, 1])
    dshp = np.stack([0.25 * sgn2[:, 0] * (1 + fq[:, None, 1] * sgn2[:, 1]),
                     0.25 * sgn2[:, 1] * (1 + fq[:, None, 0] * sgn2[:, 0])], axis=-1)

    fnodes = nodes[facets]                               # (Fb, 4, 3)
    facet_qp = np.einsum('qa,fai->fqi', shp, fnodes)
    tang = np.einsum('qad,fai->fqid', dshp, fnodes)      # (Fb, 9, 3, 2)
    cr = np.cross(tang[..., 0], tang[..., 1])
    area = np.linalg.norm(cr, axis=-1)
    normals = cr / area[..., None]
    facet_qw = fw[None, :] * area

    # orient outward against the owning element centroid
    owner = np.array([e for e, _ in boundary])
    away = facet_qp.mean(axis=1) - elem_centroids[owner]
    flip = np.einsum('fqi,fi->fq', normals, away).mean(axis=1) < 0
    normals[flip] *= -1.0
    facet_normals = normals.mean(axis=1)
    facet_normals /= np.linalg.norm(facet_normals, axis=-1, keepdims=True)

    boundary_nodes = np.unique(facets)

    # element quadrature
    qp_ref, qw_ref = gauss_points()
    vals, grads = _trilinear(qp_ref)                     # (27, 8), (27, 8, 3)
    enodes = nodes[hexes]                                # (E, 8, 3)
    qp_phys = np.einsum('qa,eai->eqi', vals, enodes)
    jac = np.einsum('eai,qad->eqid', enodes, grads)      # dx/dxi
    detj = np.linalg.det(jac)
    if np.any(detj <= 0):
        raise ValueError("element with non-positive geometric Jacobian")
    qp_weight = qw_ref[None, :] * detj
    qp_jac_inv = np.linalg.inv(jac)

    return Mesh(nodes=nodes, hexes=hexes, boundary_nodes=boundary_nodes,
                boundary_facets=facets, facet_normals=facet_normals,
                facet_qp=facet_qp, facet_qw=facet_qw,
                qp_ref=qp_ref, qp_phys=qp_phys, qp_weight=qp_weight,
                qp_jac_inv=qp_jac_inv, origin=origin, spacing=spacing,
                divisions=divisions, cells_ijk=cells_ijk)


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
    vals = np.einsum('fi,fqi->fq', mesh.facet_normals, mesh.facet_qp - origin)
    f, q = np.unravel_index(int(np.argmin(vals)), vals.shape)
    mn = float(vals[f, q])
    return StarShapeReport(min_value=mn, location=mesh.facet_qp[f, q],
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
