"""Mixed finite-element assembly for incompressible equilibrium.

Discretizes the weak equilibrium system on Q2/Q1 Taylor-Hood hexahedra:

    momentum:    int [ W_F(A+grad u) - p Cof(A+grad u) ] : grad v - b.v = 0
    constraint:  int q (det(A+grad u) - 1) + mu_p int q = 0
    mean row:    int p = 0

for all test fields v vanishing on the boundary and all pressure tests q.
Boundary displacement dofs are eliminated (u = 0 there after the change of
variables that moves the boundary data into A); the scalar multiplier mu_p
pins the pressure mean through a symmetric border row/column.
"""

import ctypes
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .tensor import det3, cof, identity4
from .mesh import _HEX_OFFSETS, Mesh, gauss_points, lattice_index


class InvertedElementError(RuntimeError):
    """det(A + grad u) <= 0 at a quadrature point."""

    def __init__(self, element, lam, min_det):
        super().__init__("inverted element %d at lambda=%.6g (det=%.3e)"
                         % (element, lam, min_det))
        self.element = element
        self.lam = lam
        self.min_det = min_det


class SingularMatrixError(RuntimeError):
    pass


def _lagrange2(x):
    """1D quadratic Lagrange values/derivatives on nodes {-1, 0, 1}."""
    v = np.stack([0.5 * x * (x - 1.0), 1.0 - x * x, 0.5 * x * (x + 1.0)], axis=-1)
    d = np.stack([x - 0.5, -2.0 * x, x + 0.5], axis=-1)
    return v, d


def _lagrange1(x):
    """1D linear Lagrange values on nodes {-1, 1}."""
    return np.stack([0.5 * (1.0 - x), 0.5 * (1.0 + x)], axis=-1)


def _shape_tables():
    """Q2 values (q, l), reference gradients (q, l, j) and Q1 values (q, m)
    at the 27 Gauss points: one set serves every mesh."""
    ref = gauss_points()[0]
    (v0, d0), (v1, d1), (v2, d2) = (_lagrange2(x) for x in ref.T)
    n2 = np.einsum('qa,qb,qc->qabc', v0, v1, v2).reshape(27, 27)
    g2 = np.stack([np.einsum('qa,qb,qc->qabc', d0, v1, v2),
                   np.einsum('qa,qb,qc->qabc', v0, d1, v2),
                   np.einsum('qa,qb,qc->qabc', v0, v1, d2)],
                  axis=-1).reshape(27, 27, 3)
    n1 = np.einsum('qa,qb,qc->qabc',
                   *(_lagrange1(x) for x in ref.T)).reshape(27, 8)
    for table in (n2, g2, n1):
        table.flags.writeable = False
    return n2, g2, n1


_N2, _G2, _N1 = _shape_tables()

# local Q2 node offsets, lexicographic, in half-cell units
_Q2_OFFSETS = np.array(list(np.ndindex(3, 3, 3)))
# the eight vertices among the 27 local Q2 nodes, in Q1 (conn1) order
_Q2_CORNERS = [0, 2, 6, 8, 18, 20, 24, 26]


# Parts this small are not cut further: cutting down to single cells saved
# under 4 % of the 8^3 factor's fill and took the build from 4 to 9 ms.
_ND_LEAF = 64


def _nested_dissection(lattice, idx, parts):
    """Append the dofs idx to parts in nested-dissection order.

    Each part is cut at the even lattice coordinate (a cell-face plane)
    nearest the middle of its longest axis, or of the next longest if that
    axis has no cell-face plane strictly inside the part.  A dof strictly
    on one side shares a cell only with dofs on that side or on the plane,
    so on any mesh of lattice cells the plane separates the two halves.  The
    left half comes first, then the right half, then the separator.
    """
    c = lattice[idx]
    lo, hi = c.min(axis=0), c.max(axis=0)
    if idx.size > _ND_LEAF:
        for axis in np.argsort(lo - hi, kind='stable'):
            cut = 2 * ((lo[axis] + hi[axis] + 2) // 4)
            if lo[axis] < cut < hi[axis]:
                x = c[:, axis]
                _nested_dissection(lattice, idx[x < cut], parts)
                _nested_dissection(lattice, idx[x > cut], parts)
                parts.append(idx[x == cut])
                return
    parts.append(idx)


class Discretization:
    """Taylor-Hood Q2/Q1 spaces on a structured hex mesh.

    Parameters
    ----------
    mesh : Mesh
        Structured box mesh (possibly cell-masked) from the mesh module.

    Attributes
    ----------
    n_u, n_p, n_total : int
        Free displacement dofs, pressure dofs, and the full bordered size
        n_u + n_p + 1.
    fill_order : ndarray
        Nested-dissection order of the n_total bordered unknowns, with the
        mean multiplier mdof last and each free node's three dofs adjacent
        and in order; linearize assembles J in it.
    n2, n1 : ndarray
        Q2 and Q1 shape values at the 27 Gauss points, (27, 27) and (27, 8),
        shared by every Discretization.
    dndx : ndarray
        Physical Q2 shape gradients (q, l, j), one table for all cells.
    """

    n2, n1 = _N2, _N1

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        cells = mesh.cells_ijk

        # Q2 lattice nodes (half-cell units) of the cells, numbered by first
        # appearance over cells and their lexicographic local nodes
        shape2 = 2 * mesh.divisions + 1
        keys = np.ravel_multi_index(
            lattice_index(2 * cells[:, None, :] + _Q2_OFFSETS), shape2)
        uniq, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.conn2 = conn2 = rank[inverse.reshape(keys.shape)]
        self.q2_lattice = np.stack(np.unravel_index(uniq[order], shape2), axis=-1)

        # Q1 connectivity in lexicographic local order
        self.conn1 = conn1 = mesh.hexes[:, [0, 4, 3, 7, 1, 5, 2, 6]]

        # a Q2 node at lattice point L is free only when every cell that
        # could hold it is in the mesh: cells (L - 1) // 2 and L // 2 along
        # each axis, plus one for the padding of mesh.active
        held = lattice_index((self.q2_lattice[:, None, :] + 1 + _HEX_OFFSETS) // 2)
        mask = mesh.active[held].all(axis=1)
        interior = -np.ones(mask.size, dtype=int)
        interior[mask] = np.arange(mask.sum())
        self.q2_interior = interior          # q2 node -> free index or -1
        self.n_u = 3 * int(mask.sum())
        self.n_p = mesh.nodes.shape[0]
        self.n_total = self.n_u + self.n_p + 1

        # every cell maps from the reference cube by the same scaling
        # spacing / 2, so one table of physical gradients serves all cells
        self.dndx = _G2 * (2.0 / mesh.spacing)

        # element dof tables
        comp = np.arange(3)
        udof = 3 * interior[conn2][..., None] + comp
        udof[interior[conn2] < 0] = -1
        # int32 tables: half the memory of every Discretization a caller keeps
        self.udof = udof.reshape(len(cells), 81).astype(np.int32)  # -1 = fixed
        self.pdof = (self.n_u + conn1).astype(np.int32)            # (E, 8)
        self.mdof = self.n_total - 1

        # pressure mass row (border): int N1_m dx
        w = mesh.qp_weight
        self.p_mass = np.zeros(self.n_p)
        np.add.at(self.p_mass, conn1,
                  np.einsum('eq,qm->em', w, self.n1))

        # u-dofs sit at their Q2 lattice nodes, p-dofs at their vertices
        vertex_lattice = np.empty((self.n_p, 3), dtype=int)
        vertex_lattice[conn1] = self.q2_lattice[conn2[:, _Q2_CORNERS]]
        lattice = np.concatenate([np.repeat(self.q2_lattice[mask], 3, axis=0),
                                  vertex_lattice])
        parts = []
        _nested_dissection(lattice, np.arange(len(lattice)), parts)
        self.fill_order = np.concatenate(parts + [[self.mdof]])

    # field evaluation -------------------------------------------------

    def u_elem(self, u):
        """Element-local displacement values (E, 27, 3); fixed dofs are 0."""
        full = np.zeros((self.q2_interior.size, 3))
        free = self.q2_interior >= 0
        full[free] = u.reshape(-1, 3)
        return full[self.conn2]

    def grad_u(self, u):
        """Displacement gradient at quadrature points, a C-contiguous (E, 27,
        3, 3), so F = A + grad u is contiguous and reshapes to (..., 9) as views."""
        ue = self.u_elem(u).transpose(0, 2, 1).reshape(-1, 27)     # (ei, l)
        g = self.dndx.transpose(1, 0, 2).reshape(27, 81)          # (l, qj)
        return np.ascontiguousarray((ue @ g).reshape(-1, 3, 27, 3).transpose(0, 2, 1, 3))

    def u_at_qp(self, u):
        """Displacement at quadrature points, (E, 27, 3)."""
        return self.n2 @ self.u_elem(u)

    def stress_rows(self, w, stress):
        """Element rows (E, 81) of int stress : grad v, stress (E, 27, 3, 3)."""
        ws = (w[..., None, None] * stress).transpose(0, 2, 1, 3)   # (e, i, q, j)
        g = self.dndx.transpose(0, 2, 1).reshape(81, 27)          # (qj, l)
        r = (ws.reshape(-1, 81) @ g).reshape(-1, 3, 27)
        return r.transpose(0, 2, 1).reshape(-1, 81)

    def scatter(self, u_rows, p_rows):
        """Sum element rows (E, 81) and (E, 8) into one bordered vector."""
        keep = self.udof >= 0
        return np.bincount(np.concatenate([self.udof[keep], self.pdof.ravel()]),
                           np.concatenate([u_rows[keep], p_rows.ravel()]),
                           minlength=self.n_total)

    def p_at_qp(self, p):
        return np.einsum('qm,em->eq', self.n1, p[self.conn1])


@dataclass
class State:
    """Point on the solution branch: load parameter and coefficient arrays."""
    lam: float
    u: np.ndarray
    p: np.ndarray
    mu_p: float = 0.0

    @classmethod
    def zero(cls, disc: Discretization, lam=0.0):
        return cls(lam=lam, u=np.zeros(disc.n_u), p=np.zeros(disc.n_p), mu_p=0.0)

    def pack(self):
        return np.concatenate([self.u, self.p, [self.mu_p]])

    def with_increment(self, delta, dlam=0.0):
        n_u, n_p = self.u.size, self.p.size
        return State(lam=self.lam + dlam,
                     u=self.u + delta[:n_u],
                     p=self.p + delta[n_u:n_u + n_p],
                     mu_p=self.mu_p + delta[-1])

    def copy(self):
        return State(self.lam, self.u.copy(), self.p.copy(), self.mu_p)


# boundary family -> its traceless generator G (see LoadProgram)
_A_GENERATORS = {
    'identity': np.zeros((3, 3)),
    'shear': np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    'stretch': np.diag([1.0, -0.5, -0.5]),
}

# body family -> weights (dead, centering, gradient) of LoadProgram's body law
_B_WEIGHTS = {
    'none': (0.0, 0.0, 0.0),
    'dead': (1.0, 0.0, 0.0),
    'live_centering': (0.0, 1.0, 0.0),
    'live_gradient': (0.0, 0.0, 1.0),
}


@dataclass
class LoadProgram:
    """Boundary family A(lambda) plus body-force family b.

    a_family names a traceless generator G: 'identity' (G = 0), 'shear'
    (G = e_1 (x) e_2) or 'stretch' (G = diag(1, -1/2, -1/2)), and
    A(lambda) = expm(lambda a_rate G), so A' = a_rate G A.  b_family names
    the weights of one affine law in the point x, its image f and grad f:

        b = lambda b_scale [w_dead (1 + b_ramp . x) d
                            + w_centering (f - x) + w_gradient (grad f - I) d]

    with d = b_direction, one term each for 'dead', 'live_centering' and
    'live_gradient', and none for 'none'.  A zero b_ramp makes a dead load
    a gradient field, which the pressure absorbs exactly (u stays 0); a
    transverse one makes it non-conservative.  tr G = 0 and b proportional
    to lambda give det A = 1, A(0) = I and b(0, .) = 0.
    """
    a_family: str = 'identity'
    a_rate: float = 1.0
    b_family: str = 'none'
    b_scale: float = 1.0
    b_direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -1.0]))
    b_ramp: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def a_matrix(self, lam):
        # each G is diagonal or, for shear, squares to zero: expm in closed form
        g = lam * self.a_rate * _A_GENERATORS[self.a_family]
        return np.diag(np.exp(np.diag(g))) if np.all(g == np.diag(np.diag(g))) \
            else np.eye(3) + g

    def a_dot(self, lam):
        return self.a_rate * _A_GENERATORS[self.a_family] @ self.a_matrix(lam)

    def body(self, lam, x, f, grad_f):
        """Body force b at quadrature points; x, f are (..., 3).  Only the
        terms of nonzero weight are formed: f is read by a centering load only."""
        dead, centering, gradient = _B_WEIGHTS[self.b_family]
        c = lam * self.b_scale
        b = np.zeros(np.shape(x))
        if dead:
            b += (c * dead * (1.0 + x @ self.b_ramp))[..., None] * self.b_direction
        if centering:
            b += c * centering * (f - x)
        if gradient:
            b += c * gradient * ((grad_f - np.eye(3)) @ self.b_direction)
        return b

    def body_du(self, lam):
        """d b / d u, a constant 3x3."""
        return lam * self.b_scale * _B_WEIGHTS[self.b_family][1] * np.eye(3)

    def body_dgradu(self, lam):
        """d b_i / d(grad u)_km as a (3, 3, 3) array."""
        c = lam * self.b_scale * _B_WEIGHTS[self.b_family][2]
        return c * np.einsum('ik,m->ikm', np.eye(3), self.b_direction)

    def validate(self):
        for name in ("a_rate", "b_scale", "b_direction", "b_ramp"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s must be finite (got %s)"
                                 % (name, getattr(self, name)))
        if self.a_family not in _A_GENERATORS:
            raise ValueError("unknown boundary family %r" % self.a_family)
        if self.b_family not in _B_WEIGHTS:
            raise ValueError("unknown body-force family %r" % self.b_family)
        return self


def _kinematics(state: State, program: LoadProgram, disc: Discretization):
    a = program.a_matrix(state.lam)
    gradu = disc.grad_u(state.u)
    f = a + gradu
    detf = det3(f)
    if np.any(detf <= 0.0):
        e = int(np.argmin(detf.min(axis=1)))
        raise InvertedElementError(e, state.lam, float(detf.min()))
    return a, gradu, f, detf


def _load_rows(state, program, disc, a, fgrad, lam, extra=0.0):
    """Element rows (E, 81) of int (b + extra) . v, the body force b at load
    lam; the image f = A x + u is formed for a centering load only."""
    x, w = disc.mesh.qp_phys, disc.mesh.qp_weight
    f = x @ a.T + disc.u_at_qp(state.u) if _B_WEIGHTS[program.b_family][1] else None
    b = program.body(lam, x, f, fgrad) + extra
    return (disc.n2.T @ (w[..., None] * b)).reshape(-1, 81)


def residual(state: State, program: LoadProgram, material, disc: Discretization):
    """Stacked weak-form residual [momentum, constraint, mean row]."""
    w = disc.mesh.qp_weight
    a, gradu, fgrad, detf = _kinematics(state, program, disc)
    stress = material.stress(fgrad, disc.p_at_qp(state.p))
    out = disc.scatter(disc.stress_rows(w, stress)
                       - _load_rows(state, program, disc, a, fgrad, state.lam),
                       (w * (detf - 1.0)) @ disc.n1)
    out[disc.n_u:disc.n_u + disc.n_p] += state.mu_p * disc.p_mass
    out[disc.mdof] = disc.p_mass @ state.p
    return out


_PATTERN = weakref.WeakKeyDictionary()     # for one Discretization at a time


def _pattern(disc):
    """J's CSC indptr and indices in fill_order, the elements grouped by
    their free local nodes, and where each entry of a group's blocks lands
    in J's data.

    A free node's three dofs are adjacent in fill_order, so its columns
    share one row list, of length ncol, in which each node's rows are
    adjacent.  Taken group by group, each element with its free nodes fl in
    order, pair holds the slot of each block entry (e, l, i, k, n) over free
    local nodes l, n: the pair's slot + i + k ncol of n.  cp holds the slot
    of every coupling entry, in the order of np.stack([-cup, cup]): free
    node q = (e, l) has its (i, m) at cp[0, q, i, m] in -cup and at cp[1,
    q, i, m] in cup^T.  Built on a mesh's first linearization.
    """
    if disc in _PATTERN:
        return _PATTERN[disc]
    _PATTERN.clear()                        # the last mesh's, before building
    # nodes (free Q2 nodes, vertices, the multiplier), numbered by the
    # position of their first dof; first[b] is that position, width[b] dofs
    first = np.argsort(disc.fill_order)[np.r_[:disc.n_u:3, disc.n_u:disc.n_total]]
    node, first = np.argsort(np.argsort(first)), np.sort(first)
    width, shift = np.diff(first, append=disc.n_total), first.size.bit_length()
    # the elements in groups of one 27-bit free-node mask
    free = disc.udof[:, ::3] >= 0
    _, group, count = np.unique(free @ (1 << np.arange(27)), return_inverse=True,
                                return_counts=True)
    order, stop = np.argsort(group, kind='stable'), np.cumsum(count)
    groups = [(order[s:t], np.flatnonzero(free[order[s]])) for s, t in zip(stop - count, stop)]
    free = free[order]
    u = np.where(free, node[disc.udof[order, ::3] // 3], -1)   # (E, 27)
    vert, mult = node[-1 - disc.n_p:-1], node[-1]
    p, both = vert[disc.conn1[order]], free[:, :, None] & free[:, None, :]
    # (column << shift | row) of the node pairs: u-u, u-p and p-u, border
    key, entry = np.unique(np.concatenate([
        (u[:, None, :] << shift | u[:, :, None])[both],
        np.stack([p[:, None, :] << shift | u[:, :, None],
                  u[:, :, None] << shift | p[:, None, :]])[:, free].ravel(),
        vert << shift | mult, mult << shift | vert]), return_inverse=True)
    col, row = np.divmod(key, 1 << shift)
    rw, end = width[row], np.cumsum(width[row])
    # per column of J: its length and where its node's row list starts
    ncol = np.repeat(np.bincount(col, rw).astype(np.int64), width)
    start = np.repeat(end[np.cumsum(np.bincount(col)) - 1], width) - ncol
    indptr = np.append(0, np.cumsum(ncol)).astype(np.int32)
    # each node's row list, then that list in each of the node's columns
    rows = np.repeat(first[row] - end + rw, rw) + np.arange(end[-1])
    indices = rows[np.repeat(start - indptr[:-1], ncol) + np.arange(indptr[-1])]
    slot = (indptr[first[col]] + end - rw - start[first[col]])[entry].astype(np.int32)
    n_uu, ncol = both.sum(), np.where(free, ncol[first[u]], 0).astype(np.int32)
    at, i = np.zeros(both.shape, dtype=np.int32), np.arange(3, dtype=np.int32)[:, None]
    at[both] = slot[:n_uu]
    pair = (at[:, :, None, None, :] + i[:, None] + i * ncol[:, None, None, None, :])[
        np.broadcast_to(both[:, :, None, None, :], both.shape[:2] + (3, 3, 27))]
    cp = slot[n_uu:-2 * disc.n_p].reshape(2, -1, 1, 8)
    cp = np.stack([cp[0] + i, cp[1] + ncol[free][:, None, None] * i])
    indices = indices.astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False    # shared by every J
    _PATTERN[disc] = (indptr, indices, groups, pair, cp, slot[-2 * disc.n_p:])
    return _PATTERN[disc]


def _assemble(disc, c_eff, cof_f, body_du=np.zeros((3, 3)), body_dg=np.zeros((3, 3, 3))):
    """J in fill_order from pointwise moduli: _element_blocks sums the
    displacement blocks into J's data, then one np.add.at adds -cup and
    cup^T, in one order, so J's saddle is antisymmetric to the bit."""
    indptr, indices, _, _, cp, border = _pattern(disc)
    data = np.zeros(indices.size)
    cup = _element_blocks(disc, data, c_eff, cof_f, body_du, body_dg)
    np.add.at(data, cp.ravel(), np.stack([-cup, cup]).ravel())
    data[border] = np.tile(disc.p_mass, 2)
    return sp.csc_matrix((data, indices, indptr), shape=(disc.n_total,) * 2)


def _renumbered(matrix, new):
    """matrix with each unknown r renumbered new[r], as canonical CSC."""
    m = sp.coo_matrix(matrix)
    out = sp.csc_matrix((m.data, (new[m.row], new[m.col])), shape=m.shape)
    out.data, out.indices = out.data.copy(), out.indices.copy()  # not [:nnz] views
    return out


_BLOCK = 8  # elements per batch: the temporaries stay near a megabyte


def _element_blocks(disc, data, c_eff, cof_f, body_du, body_dg):
    """Sum J's blocks over free node pairs into data, J's CSC data in
    fill_order, from pointwise moduli, as batched GEMMs over each of
    _pattern's groups of elements; return the coupling.

    With g the physical shape gradients and w the mesh's one weight row
    (every cell is congruent), a group's displacement blocks over its free
    nodes l, n are K[(l,i),(n,k)] = sum_q w_q sum_{j,m} g_qlj C_q,ijkm
    g_qnm, computed per element as H = C_(q,jik,m) @ g_q^T and K =
    (w g)_(l,qj) @ H_(qj,ikn), less one constant block of the body terms.
    Each batch's blocks are added into data as they are computed, at the
    slots _pattern's pair gives.  Returns the coupling cup (Q, 3, 8) of each
    free node (e, l), cup[(e,l), i, m] = sum_q w_q (g_ql . cof F_qi) N1_qm;
    the displacement-pressure block is -cup, the pressure-displacement cup^T.
    """
    _, _, groups, pair, cp, _ = _pattern(disc)
    g, w = disc.dndx, disc.mesh.qp_weight[0]
    wn, wn1 = disc.n2.T * w, w[:, None] * disc.n1                 # (l, q), (q, m)
    # int N_l (body_du N_n + body_dg . grad N_n), as (l, i, k, n)
    low = (wn @ g.reshape(27, 81)).reshape(27, 27, 3) @ body_dg.reshape(9, 3).T
    body = body_du[:, :, None] * (wn @ disc.n2)[:, None, None] \
        + low.transpose(0, 2, 1).reshape(27, 3, 3, 27)
    live, cup = body.any(), np.empty(cp.shape[1:])
    p = q = 0
    for elems, fl in groups:
        nf, gf = fl.size, g[:, fl]                                  # (q, nf, m)
        wg = (w[:, None, None] * gf).transpose(1, 0, 2).reshape(nf, 81)
        for s in range(0, elems.size, _BLOCK):
            blk = elems[s:s + _BLOCK]
            b = blk.size
            c = c_eff[blk].transpose(0, 1, 3, 2, 4, 5).reshape(b, 27, 27, 3)
            h = (c @ gf.transpose(0, 2, 1)).reshape(b, 81, 9 * nf)   # (b, qj, ikn)
            k = (wg @ h).reshape(b, nf, 3, 3, nf)                    # (b, l, i, k, n)
            if live:
                k -= body[fl][..., fl]
            np.add.at(data, pair[p:p + k.size], k.ravel())
            gc = gf @ cof_f[blk].transpose(0, 1, 3, 2)             # (b, q, l, i)
            cup[q:q + b * nf] = gc.transpose(0, 2, 3, 1).reshape(-1, 3, 27) @ wn1
            p, q = p + k.size, q + b * nf
    return cup


def linearize(state: State, program: LoadProgram, material, disc: Discretization):
    """(J, F_lambda, grad u, F, det F, C_eff): the bordered tangent J = dR/dw
    (sparse CSC) and F_lambda = dR/dlambda from one evaluation of the moduli
    C_eff = W_FF - p D^2 det (MaterialModel.elasticity), with the point
    fields they came from.  J has rows and columns for free dofs only, so
    its element blocks are computed over free node pairs.

    lambda moves F = A + grad u by A' and the point f = A x + u by A' x,
    and every body force is lambda g(x, f, grad f).  So F_lambda is read at
    the points: int (C_eff : A') : grad v, less int (b_u A' x + b_grad u :
    A' + g) . v, on the momentum rows, and int (Cof F : A') q on the
    pressure rows.
    """
    w, ad = disc.mesh.qp_weight, program.a_dot(state.lam)
    a, gradu, fgrad, detf = _kinematics(state, program, disc)
    c_eff = material.elasticity(fgrad, disc.p_at_qp(state.p))
    cof_f, b_u, b_g = cof(fgrad), program.body_du(state.lam), program.body_dgradu(state.lam)
    j = _assemble(disc, c_eff, cof_f, b_u, b_g)
    rate = (c_eff.reshape(w.shape + (9, 9)) @ ad.ravel()).reshape(fgrad.shape)  # C_eff : A'
    body_rate = (disc.mesh.qp_phys @ (b_u @ ad).T + b_g.reshape(3, 9) @ ad.ravel()
                 if b_u.any() or b_g.any() else 0.0)     # only a live load has one
    f_lam = disc.scatter(
        disc.stress_rows(w, rate) - _load_rows(state, program, disc, a, fgrad, 1.0, body_rate),
        (w * (cof_f.reshape(w.shape + (9,)) @ ad.ravel())) @ disc.n1)
    return j, f_lam, gradu, fgrad, detf, c_eff


def jacobian(state: State, program: LoadProgram, material, disc: Discretization):
    """Bordered tangent matrix at the given state (CSC, natural order)."""
    return _renumbered(linearize(state, program, material, disc)[0], disc.fill_order)


def residual_dlam(state: State, program: LoadProgram, material, disc: Discretization):
    """Partial derivative of the residual in lambda at fixed coefficients."""
    return linearize(state, program, material, disc)[1]


def homotopy_operator(mu, disc: Discretization, material):
    """Bordered operator with moduli mu*I4 + (1-mu)*C(I) at F = I.

    mu = 1 is the discrete Stokes matrix; mu = 0 is the equilibrium Jacobian
    at the origin to the bit, as every load term carries lambda and A(0) = I.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError("homotopy parameter must lie in [0, 1]")
    c_mu = mu * identity4() + (1.0 - mu) * material.elasticity(np.eye(3))
    shape = disc.mesh.qp_weight.shape
    return _renumbered(_assemble(disc, np.broadcast_to(c_mu, shape + c_mu.shape),
                                 np.broadcast_to(np.eye(3), shape + (3, 3))),
                       disc.fill_order)


@dataclass
class SolveInfo:
    min_pivot: float
    det_sign: int


def _perm_parity(perm):
    """Sign of a permutation: (-1)^(n - number of its cycles), from a walk
    of the cycles of the entries it moves; SuperLU's pivoting moves few."""
    moved = np.flatnonzero(perm != np.arange(len(perm))).tolist()
    seen, cycles = set(), 0
    for j in moved:
        cycles += j not in seen
        while j not in seen:
            seen.add(j)
            j = int(perm[j])
    return -1 if (len(moved) - cycles) % 2 else 1


_TRIM_NNZ = 1 << 20     # factors this large read lu.U on a trimmed heap
try:        # glibc's malloc_trim(pad), see _lu
    _TRIM = ctypes.CDLL(None).malloc_trim
    _TRIM.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):     # another C library
    _TRIM = None


def _lu(make, order):
    """LU factors of the bordered matrix make() returns: a solve(rhs) and
    its SolveInfo.

    The matrix is in a fill-reducing order of the unknowns, order, as
    linearize gives J in fill_order; solve maps natural-order vectors.  An
    arclength row is bordered onto the solve by block elimination, never
    factored.  SuperLU keeps the order, with threshold pivoting 0.01: the
    default 1.0 pivots away from the order's fill savings, and 0 loses all
    accuracy on the zero pressure block.  The sign of det J, the same in
    every symmetric order, is the product of U-diagonal signs times the
    parities of the row and column permutations.  Reading lu.U makes scipy
    build CSC copies of L and U, its only public route to the pivots, and
    a trace's memory peak (8^3 dead load, one thread: RSS 122 MB after
    linearize, 202 after splu, 261 after lu.U).  So the matrix is made
    here and lives only until splu returns, and the heap's free pages go
    back to the system before a factor of _TRIM_NNZ nonzeros or more is
    read, lest the peak count allocation history (8^3: 316-335 MB,
    trimmed 299-305); 4^3 skips it (refaults 5 %).
    """
    try:
        lu = splu(make(), permc_spec='NATURAL', diag_pivot_thresh=0.01)
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if _TRIM and lu.nnz >= _TRIM_NNZ:
        _TRIM(0)
    diag = lu.U.diagonal()      # none is 0: splu raises on an exact zero pivot
    sign = int(np.prod(np.sign(diag))) \
        * _perm_parity(lu.perm_r) * _perm_parity(lu.perm_c)

    def solve(rhs):
        x = np.empty(len(order))
        x[order] = lu.solve(np.asarray(rhs, dtype=float)[order])
        return x

    return solve, SolveInfo(min_pivot=float(np.abs(diag).min()), det_sign=sign)


def factor_at(state: State, program: LoadProgram, material, disc: Discretization,
              monitor=None):
    """Linearize at state and factor J: (solve, tangent, det J sign, seen).

    monitor(grad u, F, det F, C_eff), when given, reads the point fields,
    which go before J is factored; seen is its value.  J goes once splu
    returns (see _lu).  The tangent t = dw/dlambda solves J t = -F_lambda.
    """
    parts = list(linearize(state, program, material, disc))   # J, F_lambda, fields
    f_lam, seen = parts[1], monitor(*parts[2:]) if monitor else None
    del parts[1:]                                   # the fields go before splu,
    solve, info = _lu(parts.pop, disc.fill_order)   # J as it returns
    return solve, solve(-f_lam), info.det_sign, seen


def solve_bordered(matrix, rhs, order):
    """_lu and solve for a natural-order matrix: (x, SolveInfo)."""
    solve, info = _lu(lambda: _renumbered(matrix, np.argsort(order)), order)
    return solve(rhs), info
