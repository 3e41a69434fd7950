import gc
import itertools
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from elastobranch import assembly
from elastobranch.assembly import (_A_GENERATORS, Discretization,
                                   InvertedElementError, LoadProgram,
                                   SingularMatrixError, State,
                                   homotopy_operator,
                                   jacobian, linearize, residual,
                                   residual_dlam, solve_bordered)
from elastobranch.materials import MooneyRivlin, NeoHookean
from elastobranch.mesh import build_box_mesh
from elastobranch.tensor import cof, dcof

from stokes_case import solve_stokes


def _disc(n=2):
    return Discretization(build_box_mesh((1.0, 1.0, 1.0), (n, n, n)))


def _q2_nodes(disc):
    """Q2 node coordinates (N2, 3) from their half-cell lattice indices."""
    return disc.mesh.origin + 0.5 * disc.mesh.spacing * disc.q2_lattice


def _box_3x2x2():
    return Discretization(build_box_mesh((1.5, 1.0, 1.0), (3, 2, 2)))


def _l_shape():
    return Discretization(build_box_mesh(
        (1.0, 1.0, 0.5), (4, 4, 2),
        keep_cell=lambda c: not (c[0] > 0.5 and c[1] > 0.5)))


def _random_state(disc, rng, scale=1e-2):
    return State(lam=0.0,
                 u=scale * rng.standard_normal(disc.n_u),
                 p=scale * rng.standard_normal(disc.n_p),
                 mu_p=scale * rng.standard_normal())


def test_dof_counts():
    d2 = _disc(2)
    assert (d2.n_u, d2.n_p, d2.n_total) == (81, 27, 109)
    d3 = _disc(3)
    assert (d3.n_u, d3.n_p, d3.n_total) == (375, 64, 440)


def _inside_some_cell(mesh, pts):
    """Whether each point (..., 3) lies strictly inside a cell of the mesh."""
    corners = mesh.nodes[mesh.hexes]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    pts = pts[..., None, :]
    return np.any(np.all((pts > lo) & (pts < hi), axis=-1), axis=-1)


@pytest.mark.parametrize("kwargs", [
    dict(extent=(1.5, 0.7, 2.0), divisions=(3, 2, 4), center_at_origin=True),
    dict(divisions=(4, 4, 2), keep_cell=lambda c: not (c[0] > 0.5 and c[1] > 0.5)),
    # two columns of cells that touch only along the edge x = y = 0.5
    dict(divisions=(2, 2, 3), keep_cell=lambda c: (c[0] < 0.5) == (c[1] < 0.5)),
    # a 3-D checkerboard: cells meet only along edges and at vertices
    dict(divisions=(3, 3, 3), keep_cell=lambda c: int(np.floor(3 * c).sum()) % 2 == 0),
], ids=["box_centred", "l_shape", "edge_contact", "checkerboard"])
def test_lattice_tables_match_a_geometric_oracle(kwargs):
    mesh = build_box_mesh(**{"extent": (1.0, 1.0, 1.0), **kwargs})
    disc = Discretization(mesh)
    h = mesh.spacing

    # a Q2 node is fixed exactly when a point just off it, toward one of
    # its eight octants, lies in no cell
    octants = np.array(list(itertools.product((-1, 1), repeat=3)))
    probes = _q2_nodes(disc)[:, None, :] + 0.25 * h * octants
    fixed = ~_inside_some_cell(mesh, probes).all(axis=1)
    assert fixed.any() and not fixed.all()
    assert np.array_equal(np.flatnonzero(disc.q2_interior < 0), np.flatnonzero(fixed))
    assert np.array_equal(disc.q2_interior[~fixed], np.arange((~fixed).sum()))
    assert np.all(disc.q2_interior[fixed] == -1)
    assert np.array_equal(disc.udof.reshape(-1, 27, 3) < 0,
                          np.repeat(fixed[disc.conn2][..., None], 3, axis=-1))

    # each element's local nodes sit at its lattice points, lexicographic,
    # and no lattice point is numbered twice
    lo = mesh.nodes[mesh.hexes].min(axis=1)[:, None, :]
    q2_local = np.array(list(np.ndindex(3, 3, 3))) * 0.5 * h
    q1_local = np.array(list(np.ndindex(2, 2, 2))) * h
    assert np.abs(_q2_nodes(disc)[disc.conn2] - (lo + q2_local)).max() < 1e-14
    assert np.abs(mesh.nodes[disc.conn1] - (lo + q1_local)).max() < 1e-14
    assert len(np.unique(disc.q2_lattice, axis=0)) == len(disc.q2_lattice)

    # the facets are exactly the cell faces with no cell across
    want = {}
    for hexa in mesh.hexes:
        corners = mesh.nodes[hexa]
        centre = corners.mean(axis=0)
        for n in np.vstack([np.eye(3), -np.eye(3)]):
            if not _inside_some_cell(mesh, centre + 0.75 * h * n):
                on_face = np.abs((corners - centre) @ n - 0.5 * h @ np.abs(n)) < 1e-14
                want[tuple(sorted(hexa[on_face]))] = tuple(n)
    got = {tuple(sorted(f)): tuple(n)
           for f, n in zip(mesh.boundary_facets, mesh.facet_normals)}
    assert len(got) == len(mesh.boundary_facets)
    assert got == want
    assert np.array_equal(mesh.boundary_nodes, np.unique(mesh.boundary_facets))

    # facet quadrature points lie on their facet, and the weights sum to
    # its area
    fv = mesh.nodes[mesh.boundary_facets]
    flo, fhi = fv.min(axis=1)[:, None, :], fv.max(axis=1)[:, None, :]
    assert np.all((mesh.facet_qp > flo - 1e-14) & (mesh.facet_qp < fhi + 1e-14))
    area = np.prod(np.where(mesh.facet_normals != 0, 1.0, (fhi - flo)[:, 0]), axis=1)
    assert np.abs(mesh.facet_qw.sum(axis=1) / area - 1.0).max() < 1e-14


def test_discretizations_share_the_reference_tables():
    """The Gauss-point shape tables are module constants, read-only; only
    the physical gradients scale with the mesh."""
    a, b = _disc(3), Discretization(build_box_mesh((2.0, 1.0, 1.0), (3, 3, 3)))
    assert a.n2 is b.n2 and a.n1 is b.n1
    assert not (a.n2.flags.writeable or a.n1.flags.writeable)
    assert np.array_equal(b.dndx[..., 0], 0.5 * a.dndx[..., 0])
    assert np.array_equal(b.dndx[..., 1:], a.dndx[..., 1:])
    # every cell's weights are one broadcast row
    assert a.mesh.qp_weight.strides[0] == 0


def _held_buffers(*objs):
    """The distinct buffers behind the arrays that objs hold, by id."""
    roots = {}
    for obj in objs:
        for a in vars(obj).values():
            while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
                a = a.base
            if isinstance(a, np.ndarray):
                roots[id(a)] = a
    return roots


def test_a_small_discretization_holds_each_table_once():
    """A 3^3 mesh and its Discretization hold 68 KB of arrays (114 KB when
    they held the shape and boundary tables per mesh and every weight
    row); a caller that keeps one per run keeps this much."""
    _disc(3)                    # module constants and caches are built
    gc.collect()
    tracemalloc.start()
    try:
        kept = _disc(3)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    roots = _held_buffers(kept, kept.mesh)
    # the shared tables are not held per instance, the weights are one row
    for table in (assembly._N2, assembly._N1, assembly._G2):
        assert id(table) not in roots
    weights = kept.mesh.qp_weight
    while weights.base is not None:
        weights = weights.base
    assert weights.size == 27
    for name in ("boundary_nodes", "boundary_facets", "facet_normals",
                 "facet_qp", "facet_qw", "qp_ref"):
        assert name not in vars(kept.mesh)
    held = sum(a.nbytes for a in roots.values())
    assert held < 75_000
    # nothing else is kept: every array buffer of 1 KB or more still
    # allocated is a held array's (numpy traces its buffers in a domain of
    # its own, apart from the Python objects, whose sizes vary by version)
    blocks = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    assert sorted(t.size for t in blocks.traces if t.size >= 1024) == sorted(
        a.nbytes for a in roots.values() if a.nbytes >= 1024)


def test_shape_functions_partition_of_unity():
    disc = _disc(2)
    assert np.abs(disc.n2.sum(axis=1) - 1.0).max() < 1e-13
    assert np.abs(disc.n1.sum(axis=1) - 1.0).max() < 1e-13
    # gradients of the constant field vanish; the cells share one table
    assert disc.dndx.shape == (27, 27, 3)
    assert np.abs(disc.dndx.sum(axis=1)).max() < 1e-12
    assert abs(disc.p_mass.sum() - disc.mesh.volume()) < 1e-12


def test_q2_field_reproduction():
    """A triquadratic bubble vanishing on the boundary lies exactly in the
    Q2 space, so interpolation and gradients must be reproduced to round-off."""
    disc = _disc(3)

    def w(x):
        return (x[..., 0] * (1 - x[..., 0]) * x[..., 1] * (1 - x[..., 1])
                * x[..., 2] * (1 - x[..., 2]))

    def grad_w(x):
        a, b, c = (x[..., i] * (1 - x[..., i]) for i in range(3))
        da, db, dc = (1 - 2 * x[..., i] for i in range(3))
        return np.stack([da * b * c, a * db * c, a * b * dc], axis=-1)

    free = disc.q2_interior >= 0
    u = np.zeros((disc.q2_interior.size, 3))
    u[:, 0] = w(_q2_nodes(disc))
    uvec = u[free].reshape(-1)

    qp = disc.mesh.qp_phys
    assert np.abs(disc.u_at_qp(uvec)[..., 0] - w(qp)).max() < 1e-13
    assert np.abs(disc.grad_u(uvec)[..., 0, :] - grad_w(qp)).max() < 1e-12
    assert np.abs(disc.u_at_qp(uvec)[..., 1:]).max() == 0.0


def test_q1_reproduces_linear_pressure():
    disc = _disc(3)
    nodes = disc.mesh.nodes
    p = 2.0 * nodes[:, 0] - nodes[:, 1] + 3.0 * nodes[:, 2] + 1.0
    qp = disc.mesh.qp_phys
    exact = 2.0 * qp[..., 0] - qp[..., 1] + 3.0 * qp[..., 2] + 1.0
    assert np.abs(disc.p_at_qp(p) - exact).max() < 1e-13


def test_state_pack_round_trip():
    disc = _disc(2)
    rng = np.random.default_rng(0)
    s = _random_state(disc, rng)
    packed = s.pack()
    assert packed.size == disc.n_total
    delta = rng.standard_normal(disc.n_total)
    s2 = s.with_increment(delta, dlam=0.25)
    assert abs(s2.lam - 0.25) < 1e-15
    assert np.abs(s2.pack() - (packed + delta)).max() < 1e-14
    s3 = s.copy()
    s3.u[0] += 1.0
    assert s.u[0] != s3.u[0]
    z = State.zero(disc)
    assert np.abs(z.pack()).max() == 0.0


def test_load_program_families():
    shear = LoadProgram(a_family='shear', a_rate=2.0).validate()
    a = shear.a_matrix(0.3)
    assert a[0, 1] == 0.6
    assert abs(np.linalg.det(a) - 1.0) < 1e-14

    stretch = LoadProgram(a_family='stretch', a_rate=0.5).validate()
    a = stretch.a_matrix(0.8)
    assert abs(np.linalg.det(a) - 1.0) < 1e-13
    h = 1e-6
    fd = (stretch.a_matrix(0.8 + h) - stretch.a_matrix(0.8 - h)) / (2 * h)
    assert np.abs(fd - stretch.a_dot(0.8)).max() < 1e-8

    with pytest.raises(ValueError):
        LoadProgram(a_family='twist').validate()


@pytest.mark.parametrize("family", sorted(_A_GENERATORS))
def test_boundary_matrix_is_the_exponential_in_closed_form(family):
    """A(lambda) = expm(lambda a_rate G) without a matrix exponential: I +
    lambda a_rate G for shear (G^2 = 0), exp of the diagonal otherwise."""
    prog = LoadProgram(a_family=family, a_rate=0.8).validate()
    gen = _A_GENERATORS[family]
    for lam in (-1.5, -0.7, -0.1, 0.0, 0.3, 1.2, 2.0):
        assert np.abs(prog.a_matrix(lam) - expm(lam * 0.8 * gen)).max() <= 1e-15, lam


@pytest.mark.parametrize("family", sorted(_A_GENERATORS))
def test_boundary_families_are_one_parameter_groups(family):
    """A(s) A(t) = A(s + t), det A = 1 and A' = a_rate G A, the derivative
    of A, negative loads included."""
    prog = LoadProgram(a_family=family, a_rate=0.8).validate()
    gen = _A_GENERATORS[family]
    loads = (-0.7, 0.3, 1.2)
    for s in loads:
        a = prog.a_matrix(s)
        assert abs(np.linalg.det(a) - 1.0) < 1e-13
        assert np.abs(prog.a_dot(s) - 0.8 * gen @ a).max() < 1e-13
        fd = (prog.a_matrix(s + 1e-6) - prog.a_matrix(s - 1e-6)) / 2e-6
        assert np.abs(fd - prog.a_dot(s)).max() < 1e-8
        for t in loads:
            assert np.abs(a @ prog.a_matrix(t) - prog.a_matrix(s + t)).max() < 1e-13


def test_body_force_families():
    x = np.array([[0.2, 0.5, 0.7], [1.0, 0.0, 0.3]])
    f = x + 0.05
    gf = np.eye(3) * 1.02

    dead = LoadProgram(b_family='dead', b_scale=3.0,
                       b_direction=np.array([1.0, 0.0, 0.0]),
                       b_ramp=np.array([0.0, 2.0, 0.0])).validate()
    b = dead.body(0.5, x, f, gf)
    assert np.abs(b[:, 0] - 0.5 * 3.0 * (1.0 + 2.0 * x[:, 1])).max() < 1e-14
    assert np.abs(b[:, 1:]).max() == 0.0

    for family in ('none', 'dead', 'live_centering', 'live_gradient'):
        prog = LoadProgram(b_family=family).validate()
        assert np.abs(prog.body(0.0, x, f, gf)).max() == 0.0
        h = 1e-6
        fd = (prog.body(0.4 + h, x, f, gf) - prog.body(0.4 - h, x, f, gf)) / (2 * h)
        # every family is lam g(x, f, grad f): linearize's F_lambda relies on it
        assert np.abs(fd - prog.body(1.0, x, f, gf)).max() < 1e-8

    live = LoadProgram(b_family='live_centering', b_scale=2.0)
    assert np.abs(live.body_du(0.3) - 0.6 * np.eye(3)).max() < 1e-14
    grad_live = LoadProgram(b_family='live_gradient', b_scale=2.0,
                            b_direction=np.array([0.0, 1.0, 0.0]))
    dg = grad_live.body_dgradu(0.5)
    h = np.random.default_rng(1).standard_normal((3, 3))
    fd = (grad_live.body(0.5, x[0], f[0], gf + 1e-6 * h)
          - grad_live.body(0.5, x[0], f[0], gf - 1e-6 * h)) / 2e-6
    assert np.abs(np.einsum('ikm,km->i', dg, h) - fd).max() < 1e-8


def test_grad_u_is_contiguous_and_equals_the_transposed_product():
    disc = _disc(3)
    u = np.random.default_rng(17).standard_normal(disc.n_u)
    ue = disc.u_elem(u).transpose(0, 2, 1).reshape(-1, 27)
    g = disc.dndx.transpose(1, 0, 2).reshape(27, 81)
    view = (ue @ g).reshape(-1, 3, 27, 3).transpose(0, 2, 1, 3)
    got = disc.grad_u(u)
    assert got.flags.c_contiguous and not view.flags.c_contiguous
    assert np.array_equal(got, view)


def _load_rows_by_all_terms(state, prog, disc, a, fgrad, lam, extra=0.0):
    """The body law with every term formed, zero-weight ones included."""
    x, w = disc.mesh.qp_phys, disc.mesh.qp_weight
    dead, centering, gradient = assembly._B_WEIGHTS[prog.b_family]
    c, f = lam * prog.b_scale, x @ a.T + disc.u_at_qp(state.u)
    b = ((c * dead * (1.0 + x @ prog.b_ramp))[..., None] * prog.b_direction
         + c * centering * (f - x)
         + c * gradient * ((fgrad - np.eye(3)) @ prog.b_direction)) + extra
    return (disc.n2.T @ (w[..., None] * b)).reshape(-1, 81)


@pytest.mark.parametrize("family", ['none', 'dead', 'live_centering',
                                    'live_gradient'])
def test_load_rows_equal_the_all_terms_formula(family):
    """Forming only the live body terms drops terms that are +-0 at every
    point, so the rows equal the all-terms formula exactly: at the load,
    and for F_lambda with the body's rate along A', which linearize drops
    for a dead load or none, where it is zero."""
    disc = _l_shape()
    prog = LoadProgram(a_family='shear', a_rate=0.5, b_family=family, b_scale=-2.0,
                       b_direction=np.array([0.6, 0.0, -0.8]),
                       b_ramp=np.array([0.0, 2.0, 0.0]))
    state = _random_state(disc, np.random.default_rng(18))
    state.lam = 0.3
    a, ad = prog.a_matrix(state.lam), prog.a_dot(state.lam)
    fgrad = a + disc.grad_u(state.u)
    b_u, b_g = prog.body_du(state.lam), prog.body_dgradu(state.lam)
    rate = disc.mesh.qp_phys @ (b_u @ ad).T + b_g.reshape(3, 9) @ ad.ravel()
    got = assembly._load_rows(state, prog, disc, a, fgrad, state.lam)
    assert np.array_equal(got, _load_rows_by_all_terms(state, prog, disc, a, fgrad, state.lam))
    want = _load_rows_by_all_terms(state, prog, disc, a, fgrad, 1.0, rate)
    assert np.array_equal(assembly._load_rows(state, prog, disc, a, fgrad, 1.0, rate), want)
    if family in ('none', 'dead'):
        assert np.abs(rate).max() == 0.0
        assert np.array_equal(assembly._load_rows(state, prog, disc, a, fgrad, 1.0), want)
    if family != 'none':
        assert np.abs(got).max() > 0.0


def test_perm_parity_matches_the_determinant_and_the_cycle_count():
    """The cycle walk's sign against det of the permutation matrix, and on
    large permutations against (-1)^(n - cycles) by connected components."""
    from scipy.sparse.csgraph import connected_components
    parity = assembly._perm_parity
    rng = np.random.default_rng(19)
    for _ in range(300):
        perm = rng.permutation(int(rng.integers(1, 9))).astype(np.int32)
        assert parity(perm) == round(np.linalg.det(np.eye(perm.size)[perm]))
    n = 1155
    swap = np.arange(n)
    swap[[3, 700]] = swap[[700, 3]]
    assert parity(np.arange(n)) == round(np.linalg.det(np.eye(n))) == 1
    assert parity(swap) == round(np.linalg.det(np.eye(n)[swap])) == -1
    assert parity(np.roll(np.arange(10 ** 4), 1)) == -1      # one cycle, 9999 swaps
    for n in (10 ** 4, 10 ** 5 + 1):
        perm = rng.permutation(n)
        cycles = connected_components(
            sp.coo_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n)))[0]
        assert parity(perm) == (-1 if (n - cycles) % 2 else 1)


def test_residual_zero_at_origin():
    disc = _disc(2)
    mat = NeoHookean(mu=1.0)
    r = residual(State.zero(disc), LoadProgram(), mat, disc)
    assert np.abs(r).max() == 0.0


def test_residual_zero_along_homogeneous_shear():
    """u = 0, p = 0 solves the pure-shear program at every lambda: the
    constitutive stress of a homogeneous isochoric state is divergence free."""
    disc = _disc(2)
    mat = NeoHookean(mu=1.0)
    prog = LoadProgram(a_family='shear', a_rate=1.0)
    for lam in (0.25, 0.7, 1.0):
        r = residual(State(lam=lam, u=np.zeros(disc.n_u), p=np.zeros(disc.n_p)),
                     prog, mat, disc)
        assert np.abs(r).max() < 1e-12


@pytest.mark.parametrize("family,extra", [
    ('none', {}),
    ('dead', {'b_ramp': np.array([0.0, 2.0, 0.0])}),
    ('live_centering', {}),
    ('live_gradient', {}),
])
def test_jacobian_matches_residual_finite_differences(family, extra):
    disc = _disc(2)
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    prog = LoadProgram(a_family='shear', a_rate=0.5, b_family=family,
                       b_scale=2.0, **extra)
    rng = np.random.default_rng(2)
    state = _random_state(disc, rng)
    state.lam = 0.3
    j = jacobian(state, prog, mat, disc)
    h = 1e-6
    for _ in range(3):
        d = rng.standard_normal(disc.n_total)
        d /= np.linalg.norm(d)
        rp = residual(state.with_increment(h * d), prog, mat, disc)
        rm = residual(state.with_increment(-h * d), prog, mat, disc)
        fd = (rp - rm) / (2 * h)
        assert np.abs(j @ d - fd).max() < 1e-8


def _reference_blocks(disc, c_eff, cof_f, body_du, body_dg):
    """Element blocks (E, 81, 81) and couplings (E, 81, 8) over all 27 nodes,
    fixed ones included, assembled point by point from the weak form.

    At each element and quadrature point, B maps the element displacement
    dofs (l, k) to grad u (i, j), N maps them to u (i); the momentum row
    pairs B^T with C B and the body terms, and the constraint row pairs N1
    with cof F : B, which enters the momentum row as -p cof F.
    """
    w = disc.mesh.qp_weight
    eye = np.eye(3)
    kuu = np.zeros((len(w), 81, 81))
    cup = np.zeros((len(w), 81, 8))
    for e in range(len(w)):
        for q in range(27):
            bmat = np.einsum('ik,lj->ijlk', eye, disc.dndx[q]).reshape(9, 81)
            nmat = np.einsum('ik,l->ilk', eye, disc.n2[q]).reshape(3, 81)
            cmat = c_eff[e, q].reshape(9, 9)
            kuu[e] += w[e, q] * (bmat.T @ cmat @ bmat
                                 - nmat.T @ body_du @ nmat
                                 - nmat.T @ body_dg.reshape(3, 9) @ bmat)
            cup[e] += w[e, q] * np.outer(cof_f[e, q].reshape(9) @ bmat, disc.n1[q])
    return kuu, cup


def _reference_operator(disc, c_eff, cof_f, body_du, body_dg):
    """Dense bordered operator from the pointwise element blocks: kuu and
    -cup on the free displacement rows, cup^T on the pressure rows."""
    dense = np.zeros((disc.n_total, disc.n_total))
    kuu, cup = _reference_blocks(disc, c_eff, cof_f, body_du, body_dg)
    for e in range(len(disc.udof)):
        free = disc.udof[e] >= 0
        ud = disc.udof[e][free]
        dense[np.ix_(ud, ud)] += kuu[e][np.ix_(free, free)]
        dense[np.ix_(ud, disc.pdof[e])] -= cup[e][free]
        dense[np.ix_(disc.pdof[e], ud)] += cup[e][free].T
    p_rows = slice(disc.n_u, disc.n_u + disc.n_p)
    dense[disc.mdof, p_rows] = disc.p_mass
    dense[p_rows, disc.mdof] = disc.p_mass
    return dense


def _assert_close(matrix, dense):
    got = matrix.toarray()
    assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("family", ['none', 'dead', 'live_centering',
                                    'live_gradient'])
def test_jacobian_kernel_matches_pointwise_reference(family):
    # The kernel runs over free node pairs, one group of elements per set of
    # free local nodes.  On 2^3 every element is a corner, alone in its
    # group; the 3x2x2 box has 12 groups of one.  The L-shape is
    # cell-masked, with fixed nodes on its re-entrant edge, and has groups
    # of two.
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    prog = LoadProgram(a_family='shear', a_rate=0.5, b_family=family,
                       b_scale=2.0, b_ramp=np.array([0.0, 2.0, 0.0]))
    for disc in (_disc(2), _box_3x2x2(), _l_shape()):
        state = _random_state(disc, np.random.default_rng(6))
        state.lam = 0.3
        fgrad = prog.a_matrix(state.lam) + disc.grad_u(state.u)
        c_eff = mat.elasticity(fgrad) \
            - disc.p_at_qp(state.p)[..., None, None, None, None] * dcof(fgrad)
        dense = _reference_operator(disc, c_eff, cof(fgrad),
                                    prog.body_du(state.lam),
                                    prog.body_dgradu(state.lam))
        _assert_close(jacobian(state, prog, mat, disc), dense)


def test_jacobian_kernel_splits_a_group_into_batches(monkeypatch):
    """On 4^3 the groups hold 1, 2, 4 and 8 elements; in batches of 3 the
    larger ones split, with a partial last batch."""
    monkeypatch.setattr(assembly, "_BLOCK", 3)
    disc = _disc(4)
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    prog = LoadProgram(a_family='stretch', b_family='live_gradient', b_scale=2.0)
    state = _random_state(disc, np.random.default_rng(13))
    state.lam = 0.3
    fgrad = prog.a_matrix(state.lam) + disc.grad_u(state.u)
    dense = _reference_operator(disc, mat.elasticity(fgrad, disc.p_at_qp(state.p)),
                                cof(fgrad), prog.body_du(state.lam),
                                prog.body_dgradu(state.lam))
    assert sorted(e.size for e, _ in assembly._pattern(disc)[4])[-1] == 8
    _assert_close(jacobian(state, prog, mat, disc), dense)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
def test_homotopy_kernel_matches_pointwise_reference(mu):
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    eye4 = np.einsum('ik,jl->ijkl', np.eye(3), np.eye(3))
    c_mu = mu * eye4 + (1.0 - mu) * mat.elasticity(np.eye(3))
    for disc in (_box_3x2x2(), _l_shape()):
        shape = disc.mesh.qp_weight.shape
        dense = _reference_operator(disc, np.broadcast_to(c_mu, shape + c_mu.shape),
                                    np.broadcast_to(np.eye(3), shape + (3, 3)),
                                    np.zeros((3, 3)), np.zeros((3, 3, 3)))
        _assert_close(homotopy_operator(mu, disc, mat), dense)


def test_assembled_matrix_holds_only_its_nonzeros():
    """The natural-order views' CSC arrays own buffers of exactly nnz
    entries, not views into larger ones."""
    disc = _disc(2)
    state = _random_state(disc, np.random.default_rng(7))
    for mat in (jacobian(state, LoadProgram(), NeoHookean(mu=1.0), disc),
                homotopy_operator(0.5, disc, NeoHookean(mu=1.0))):
        for arr in (mat.data, mat.indices):
            assert arr.base is None
            assert arr.size == mat.nnz


@pytest.mark.parametrize('hook', ['profile', 'trace'])
def test_assembly_under_a_profiling_or_tracing_hook(hook):
    """cProfile, pdb and coverage set these hooks; the assembly and the
    natural-order views must neither raise under them nor change a bit."""
    disc = _disc(2)
    state = _random_state(disc, np.random.default_rng(7))
    mat = NeoHookean(mu=1.0)

    def build():
        return (jacobian(state, LoadProgram(a_family='shear'), mat, disc),
                homotopy_operator(0.5, disc, mat))

    plain = build()
    get, set_ = (sys.getprofile, sys.setprofile) if hook == 'profile' \
        else (sys.gettrace, sys.settrace)
    previous = get()
    set_(lambda *args: None)
    try:
        hooked = build()
    finally:
        set_(previous)
    for a, b in zip(plain, hooked):
        for name in ('data', 'indices', 'indptr'):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert b.data.base is None and b.data.size == b.nnz


def _coo_reference(disc, kuu, cup):
    """J in the order of J's structure from element triplets on udof and
    pdof, summed by a COO -> CSC conversion: a reference that shares only
    that order with _pattern."""
    ud, pd, rank = disc.udof, disc.pdof, np.argsort(assembly._pattern(disc)[0])
    iu, ju = (np.broadcast_to(x, kuu.shape) for x in (ud[:, :, None], ud[:, None, :]))
    m = (iu >= 0) & (ju >= 0)
    ip, jp = (np.broadcast_to(x, cup.shape) for x in (ud[:, :, None], pd[:, None, :]))
    mp = ip >= 0
    p_rows = np.arange(disc.n_u, disc.n_u + disc.n_p)
    mult = np.full(disc.n_p, disc.mdof)
    rows = np.concatenate([iu[m], ip[mp], jp[mp], mult, p_rows])
    cols = np.concatenate([ju[m], jp[mp], ip[mp], p_rows, mult])
    vals = np.concatenate([kuu[m], -cup[mp], cup[mp], disc.p_mass, disc.p_mass])
    return sp.coo_matrix((vals, (rank[rows], rank[cols])),
                         shape=(disc.n_total,) * 2).tocsc()


def test_assembly_on_alternating_meshes_matches_the_coo_reference():
    """J comes from a structure kept for one mesh at a time.  Assembling on
    meshes A, B, A in turn rebuilds it each time and gives each mesh's J
    bit for bit; its structure is the COO -> CSC one of the element dof
    tables, and its entries are the COO sums of the pointwise element
    blocks to round-off."""
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    prog = LoadProgram(a_family='shear', b_family='live_gradient', b_scale=2.0)
    rng = np.random.default_rng(12)
    discs = [_l_shape(), _box_3x2x2()]
    states = [_random_state(disc, rng) for disc in discs]
    for state in states:
        state.lam = 0.3
    firsts = {}
    for k in (0, 1, 0):
        disc, state = discs[k], states[k]
        j, _, _, fgrad, _, c_eff = linearize(state, prog, mat, disc)
        assert list(assembly._PATTERN.keys()) == [disc]
        if k in firsts:
            for name in ('data', 'indices', 'indptr'):
                assert np.array_equal(getattr(j, name), getattr(firsts[k], name))
            continue
        firsts[k] = j
        ref = _coo_reference(disc, *_reference_blocks(
            disc, c_eff, cof(fgrad), prog.body_du(state.lam),
            prog.body_dgradu(state.lam)))
        assert np.array_equal(j.indptr, ref.indptr)
        assert np.array_equal(j.indices, ref.indices)
        assert np.abs(j.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


def test_jacobian_saddle_block_antisymmetry():
    disc = _disc(2)
    mat = NeoHookean(mu=1.0)
    rng = np.random.default_rng(3)
    state = _random_state(disc, rng)
    j = jacobian(state, LoadProgram(a_family='shear'), mat, disc).toarray()
    nu, np_ = disc.n_u, disc.n_p
    kup = j[:nu, nu:nu + np_]
    kpu = j[nu:nu + np_, :nu]
    assert np.abs(kup + kpu.T).max() < 1e-12
    # the mean-pressure border is symmetric and matches the mass row
    assert np.abs(j[disc.mdof, nu:nu + np_] - disc.p_mass).max() < 1e-14
    assert np.abs(j[nu:nu + np_, disc.mdof] - disc.p_mass).max() < 1e-14
    assert j[disc.mdof, disc.mdof] == 0.0


def test_residual_dlam_matches_finite_differences():
    """F_lambda read at the quadrature points (C_eff : A' and the body
    terms' derivatives along A'), against central differences of the
    residual in lambda, for every material, boundary family and body
    family."""
    disc = _disc(2)
    rng = np.random.default_rng(4)
    for mat, a_family, b_family in itertools.product(
            (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)),
            ('identity', 'shear', 'stretch'),
            ('none', 'dead', 'live_centering', 'live_gradient')):
        prog = LoadProgram(a_family=a_family, a_rate=0.4, b_family=b_family,
                           b_scale=1.5, b_direction=np.array([0.6, 0.0, -0.8]),
                           b_ramp=np.array([0.0, 2.0, 0.0]))
        state = _random_state(disc, rng)
        state.lam = 0.2
        h = 1e-6
        sp_ = state.copy()
        sp_.lam += h
        sm = state.copy()
        sm.lam -= h
        fd = (residual(sp_, prog, mat, disc) - residual(sm, prog, mat, disc)) / (2 * h)
        f_lam = residual_dlam(state, prog, mat, disc)
        case = (type(mat).__name__, a_family, b_family)
        assert np.abs(f_lam - fd).max() < 1e-6 * max(np.abs(fd).max(), 1.0), case
        if a_family != 'identity' or b_family != 'none':
            assert np.abs(fd).max() > 1e-4, case


def test_residual_dlam_matches_the_lift_through_the_element_blocks():
    """F_lambda read at the points equals the full element blocks applied
    to l = A' x at all 27 nodes, fixed ones included, less int g . v: the
    lift that Q2, which holds l exactly, makes the same derivative."""
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    rng = np.random.default_rng(14)
    cases = [(_disc(2), a, b) for a, b in itertools.product(
        ('identity', 'shear', 'stretch'),
        ('none', 'dead', 'live_centering', 'live_gradient'))]
    cases += [(_l_shape(), 'shear', 'live_gradient'), (_l_shape(), 'stretch', 'live_centering')]
    for disc, a_family, b_family in cases:
        prog = LoadProgram(a_family=a_family, a_rate=0.4, b_family=b_family,
                           b_scale=1.5, b_direction=np.array([0.6, 0.0, -0.8]),
                           b_ramp=np.array([0.0, 2.0, 0.0]))
        state = _random_state(disc, rng)
        state.lam = 0.3
        a = prog.a_matrix(state.lam)
        fgrad = a + disc.grad_u(state.u)
        kuu, cup = _reference_blocks(disc, mat.elasticity(fgrad, disc.p_at_qp(state.p)),
                                     cof(fgrad), prog.body_du(state.lam),
                                     prog.body_dgradu(state.lam))
        lift = (_q2_nodes(disc)[disc.conn2] @ prog.a_dot(state.lam).T).reshape(-1, 81, 1)
        u_rows = (kuu @ lift)[..., 0]
        load = assembly._load_rows(state, prog, disc, a, fgrad, 1.0)
        want = disc.scatter(u_rows - load, (cup.transpose(0, 2, 1) @ lift)[..., 0])
        got = residual_dlam(state, prog, mat, disc)
        # relative to the element rows it sums: on shear, the momentum rows
        # of a near-homogeneous state cancel to far below them
        scale = max(np.abs(u_rows).max(), np.abs(load).max(), np.abs(want).max())
        case = (disc.n_total, a_family, b_family)
        assert np.abs(got - want).max() <= 1e-13 * scale, case


@pytest.mark.parametrize("mat", [NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)],
                         ids=["neo-hookean", "mooney-rivlin"])
def test_homogeneous_shear_tangent_has_no_displacement(mat):
    """On the exact shear branch u = 0 at every lambda, so the tangent's
    displacement part dw/dlambda vanishes; F_lambda's momentum rows are the
    divergence of the uniform C_eff : A', zero to round-off."""
    disc = _disc(3)
    prog = LoadProgram(a_family='shear')
    for lam in (0.0, 0.4, 1.0):
        state = State(lam=lam, u=np.zeros(disc.n_u), p=np.zeros(disc.n_p))
        tangent = assembly.factor_at(state, prog, mat, disc)[1]
        assert np.abs(tangent[:disc.n_u]).max() <= 1e-15, lam


def test_homotopy_endpoint_matches_origin_jacobian():
    """The mu = 0 blend is the origin Jacobian to the bit, for every load
    family and material: each load term carries lambda, and A(0) = I."""
    disc = _disc(2)
    for mat, a_family, b_family in itertools.product(
            (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125),
             MooneyRivlin(c1=0.0, c2=0.25)),
            ('identity', 'shear', 'stretch'),
            ('none', 'dead', 'live_centering', 'live_gradient')):
        prog = LoadProgram(a_family=a_family, a_rate=0.7, b_family=b_family,
                           b_scale=2.0, b_ramp=np.array([0.0, 2.0, 0.0]))
        j0 = jacobian(State.zero(disc), prog, mat, disc)
        t0 = homotopy_operator(0.0, disc, mat)
        assert abs(j0 - t0).max() == 0.0, (type(mat).__name__, a_family, b_family)
    with pytest.raises(ValueError):
        homotopy_operator(1.5, disc, NeoHookean(mu=1.0))


class _ConstantModuli:
    """A stand-in material whose moduli at the identity are c."""

    def __init__(self, c):
        self.c = c

    def elasticity(self, f, p=0.0):
        return self.c


def test_homotopy_block_is_a_laplacian_plus_a_divergence_term():
    """On zero-boundary Q2 fields the 1(x)1 and the transpose moduli both
    assemble D = int (div v)^2, and 0 <= D <= K_I, the vector Laplacian.
    So for C(I) = alpha I + beta 1(x)1 + gamma T each blend's displacement
    block is a K_I + d D, a = mu + (1 - mu) alpha, d = (1 - mu)(beta +
    gamma), and every blend of the bordered operator has sign -1."""
    disc = _disc(2)
    n, eye = disc.n_u, np.eye(3)
    k_i = homotopy_operator(1.0, disc, NeoHookean(mu=1.0))[:n, :n].toarray()
    d = homotopy_operator(0.0, disc, _ConstantModuli(
        np.einsum('ij,kl->ijkl', eye, eye)))[:n, :n].toarray()
    d_t = homotopy_operator(0.0, disc, _ConstantModuli(
        np.einsum('il,jk->ijkl', eye, eye)))[:n, :n].toarray()
    assert np.abs(d_t - d).max() <= 1e-14 * np.abs(d).max()
    assert np.linalg.eigvalsh(d).min() >= -1e-13
    assert np.linalg.eigvalsh(k_i - d).min() >= -1e-13
    for mat in (NeoHookean(mu=1.0), MooneyRivlin(c1=0.5, c2=0.125)):
        c = mat.elasticity(eye)
        alpha, div = c[0, 1, 0, 1], c[0, 0, 1, 1] + c[0, 1, 1, 0]
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            t_mu = homotopy_operator(mu, disc, mat)
            want = (mu + (1.0 - mu) * alpha) * k_i + (1.0 - mu) * div * d
            assert np.abs(t_mu[:n, :n].toarray() - want).max() <= 1e-13
            assert np.linalg.slogdet(t_mu.toarray())[0] == -1.0


def test_homotopy_sweep_uniformly_invertible():
    """For the neo-Hookean blend the pivot profile is flat in mu: the
    cofactor-derivative pairing at I integrates to a null Lagrangian on
    zero-boundary fields, so all blend members assemble the same matrix."""
    disc = _disc(2)
    mat = NeoHookean(mu=1.0)
    pivots = []
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, info = solve_bordered(homotopy_operator(mu, disc, mat),
                                 np.zeros(disc.n_total), assembly._pattern(disc)[0])
        assert info.min_pivot > 0.0
        pivots.append(info.min_pivot)
    assert max(pivots) / min(pivots) < 1.0 + 1e-9


def test_solve_bordered_solution_and_sign():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((12, 12)) + 3.0 * np.eye(12)
        b = rng.standard_normal(12)
        x, info = solve_bordered(sp.csc_matrix(a), b, rng.permutation(12))
        assert np.abs(a @ x - b).max() < 1e-9
        assert info.det_sign == int(np.sign(np.linalg.det(a)))
        assert info.min_pivot > 0.0


def test_fill_order_is_a_permutation_with_the_multiplier_last():
    for disc in (_disc(2), _disc(4), _box_3x2x2(), _l_shape()):
        order = assembly._pattern(disc)[0]
        assert np.array_equal(np.sort(order), np.arange(disc.n_total))
        assert order[-1] == disc.mdof
        # each free node's dofs 3a, 3a+1, 3a+2 are adjacent and in order:
        # the assembly's node-level slot tables rely on it
        rank = np.argsort(order)
        for k in (1, 2):
            assert np.array_equal(rank[k:disc.n_u:3], rank[:disc.n_u:3] + k)


@pytest.mark.parametrize("make_disc", [_box_3x2x2, _l_shape])
def test_solve_bordered_on_fill_order_residual_and_sign(make_disc):
    """At a loaded live-gradient state, the solve in the order of J's
    structure has a relative residual below 1e-12 and the determinant sign of a dense
    slogdet, for J and for its arclength augmentation."""
    disc = make_disc()
    rng = np.random.default_rng(11)
    prog = LoadProgram(a_family='shear', b_family='live_gradient', b_scale=2.0,
                       b_direction=np.array([0.3, -0.5, 0.8]))
    state = _random_state(disc, rng)
    state.lam = 0.4
    mat = MooneyRivlin(c1=0.5, c2=0.125)
    j = jacobian(state, prog, mat, disc)
    f_lam = residual_dlam(state, prog, mat, disc)
    order = assembly._pattern(disc)[0]
    # the arclength row is the unit tangent (dw/dlambda, 1)
    t, _ = solve_bordered(j, -f_lam, order)
    row = np.append(t, 1.0)
    row /= np.linalg.norm(row)
    aug = sp.bmat([[j, f_lam[:, None]],
                   [sp.csr_matrix(row[None, :-1]), sp.csr_matrix([[row[-1]]])]],
                  format='csc')
    for matrix, perm in ((j, order), (aug, np.append(order, disc.n_total))):
        b = rng.standard_normal(matrix.shape[0])
        x, info = solve_bordered(matrix, b, perm)
        assert np.linalg.norm(matrix @ x - b) <= 1e-12 * np.linalg.norm(b)
        sign, _ = np.linalg.slogdet(matrix.toarray())
        assert info.det_sign == int(sign)


def test_fill_order_factor_is_sparser_than_colamd(monkeypatch):
    """Fill guard: at the 4^3 dead-load origin the factors in the order of
    J's structure hold fewer nonzeros than the 653 k of SuperLU's default
    COLAMD order."""
    from elastobranch import assembly
    factors = []
    real = assembly.splu

    def spy(*args, **kwargs):
        factors.append(real(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(assembly, "splu", spy)
    disc = _disc(4)
    prog = LoadProgram(b_family='dead', b_scale=3.0,
                       b_direction=np.array([1.0, 0.0, 0.0]),
                       b_ramp=np.array([0.0, 2.0, 0.0]))
    j = jacobian(State.zero(disc), prog, MooneyRivlin(c1=0.5, c2=0.125), disc)
    solve_bordered(j, np.zeros(disc.n_total), assembly._pattern(disc)[0])
    lu = factors[0]
    # L is stored with its unit diagonal; count it once
    assert lu.L.nnz + lu.U.nnz - disc.n_total < 653_000


def _demo_dead_load(scale):
    """demos/dead_load_branch.py's load: a pull along x ramped in y."""
    return LoadProgram(b_family='dead', b_scale=scale,
                       b_direction=np.array([1.0, 0.0, 0.0]),
                       b_ramp=np.array([0.0, 2.0, 0.0]))


_FAR = dict(ds0=0.1, ds_min=1e-3, ds_max=4.0, newton_max_iter=8, audit_dirs=8)


@pytest.mark.parametrize("make_disc, material, program, settings, flips", [
    pytest.param(lambda: _disc(3), NeoHookean(), _demo_dead_load(50.0),
                 dict(lam_target=50.0, **_FAR), 1, id="3^3-neo-hookean-50x"),
    pytest.param(lambda: _disc(3), MooneyRivlin(c1=0.5, c2=0.125),
                 _demo_dead_load(50.0), dict(lam_target=50.0, **_FAR), 0,
                 id="3^3-mooney-rivlin-50x"),
    pytest.param(_l_shape, NeoHookean(), _demo_dead_load(20.0),
                 dict(lam_target=20.0, **_FAR), 0, id="l-shape-20x"),
    pytest.param(lambda: _disc(3), NeoHookean(), LoadProgram(b_family='live_centering'),
                 dict(lam_target=120.0, ds0=5.0, ds_max=5.0, audit_dirs=8), 3,
                 id="3^3-live-centering")])
def test_front_factorization_agrees_with_superlu_and_slogdet_on_a_branch(
        make_disc, material, program, settings, flips):
    """At every record of a branch the fronts' det J sign is SuperLU's, a
    dense slogdet's and the record's, and their solve of J t = -F_lambda
    has a relative residual below 1e-12.  The neo-Hookean 50x load flips
    the sign once, the live centering load (u = 0, so J(lambda) = J(0) -
    lambda M) three times."""
    from elastobranch.continuation import ContinuationSettings, trace_branch
    disc, states = make_disc(), []
    trace = trace_branch(program, ContinuationSettings(**settings), material, disc,
                         on_accept=lambda state, rec: states.append(state.copy()))
    assert len(trace.records) > 5
    assert flips == sum(a.jac_det_sign != b.jac_det_sign
                        for a, b in zip(trace.records, trace.records[1:]))
    for state, rec in zip(states, trace.records):
        j, f_lam = linearize(state, program, material, disc)[:2]
        order = assembly._pattern(disc)[0]
        natural = assembly._renumbered(j, order)
        solve, info = assembly._multifrontal(assembly._scatter(j, disc), disc)
        t = solve(-f_lam)
        assert np.linalg.norm(natural @ t + f_lam) <= 1e-12 * np.linalg.norm(f_lam)
        _, oracle = solve_bordered(natural, -f_lam, order)
        sign, _ = np.linalg.slogdet(natural.toarray())
        assert info.det_sign == oracle.det_sign == int(sign) == rec.jac_det_sign


@pytest.mark.parametrize("material, pivot", [
    (NeoHookean(), 4.75447514075154e-05), (MooneyRivlin(c1=0.5, c2=0.125), 3.621546180324025e-05)])
def test_front_min_pivot_is_superlus_at_the_origin(material, pivot):
    """At the 4^3 origin the smallest pivot of the fronts is SuperLU's to a
    few ulps: both eliminate the multiplier last, with the top separator.
    In a front of its own it would pivot on the box saddle's constant
    pressure mode (a pivot near 1e-18 and a residual near 1e2)."""
    disc = _disc(4)
    j = linearize(State.zero(disc), _demo_dead_load(3.0), material, disc)[0]
    _, info = assembly._multifrontal(assembly._scatter(j, disc), disc)
    order, tree = assembly._pattern(disc)[:2]
    _, oracle = solve_bordered(assembly._renumbered(j, order),
                               np.zeros(disc.n_total), order)
    assert abs(oracle.min_pivot - pivot) <= 8e-16 * pivot
    assert abs(info.min_pivot - oracle.min_pivot) <= 8e-16 * pivot
    assert info.det_sign == oracle.det_sign == -1
    assert tree[-1].tolist() == [tree[-1, 0], disc.n_total, -1]


def test_a_singular_front_raises_through_factor_at(monkeypatch):
    """With zero moduli J is [[0, -B^T], [B, 0]] bordered, and the first
    front, with more displacement than pressure unknowns, is singular:
    dgetrf meets an exact zero pivot and factor_at raises."""
    disc, material = _disc(3), NeoHookean()
    real = material.elasticity
    monkeypatch.setattr(material, "elasticity", lambda f, *p: 0.0 * real(f, *p))
    with pytest.raises(SingularMatrixError, match="zero pivot in the front"):
        assembly.factor_at(State.zero(disc), LoadProgram(), material, disc)


def test_fronts_tile_the_dissection_tree():
    """Each front's own positions are its tree node's, the nodes tile
    0:n_total in postorder, each separator's dofs are already in bisection
    order, each front's external positions are the later positions J
    couples to its subtree, and take/put place every entry of J exactly
    once, at its (row, column) in F11, F21 or F12 of one front's compact
    buffer."""
    for disc in (_disc(4), _box_3x2x2(), _l_shape()):
        order, tree, indptr, indices = assembly._pattern(disc)[:4]
        fronts, lattice = assembly._fronts(disc), assembly._dof_lattice(disc)
        assert tree[0, 0] == 0 and tree[-1, 1] == disc.n_total
        assert np.array_equal(tree[1:, 0], tree[:-1, 1])
        assert all(p > v for v, p in enumerate(tree[:-1, 2]))
        for s, e, _ in tree[np.unique(tree[:-1, 2])]:    # the separators
            e -= e == disc.n_total                       # but the multiplier
            assert np.array_equal(assembly._bisection_order(
                lattice[order[s:e]].T, np.array([e - s])), np.arange(e - s))
        assert order[-1] == disc.mdof
        j = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=(disc.n_total,) * 2)
        assert (j != j.T).nnz == 0                   # structurally symmetric
        lo = np.array(tree[:, 0])
        for v in range(len(tree)):                   # subtree start: the first child's
            for c in np.flatnonzero(tree[:, 2] == v):
                lo[v] = min(lo[v], lo[c])
        taken = np.concatenate([f[3] for f in fronts])
        assert np.array_equal(np.sort(taken), np.arange(indices.size))
        for (s, e, ext, take, put, parent, runs), start in zip(fronts, lo):
            assert np.array_equal(ext, np.flatnonzero(j[start:e, e:].sum(axis=0)) + e)
            k, m = e - s, ext.size
            front = np.concatenate([np.arange(s, e), ext])
            assert put.min() >= 0 and put.max() < k * k + 2 * k * m
            f11, f21 = put < k * k, (put >= k * k) & (put < k * k + k * m)
            f12 = put >= k * k + k * m
            q = np.select([f11, f21, f12], [put, put - k * k, put - k * k - k * m])
            row = np.select([f11, f21, f12], [q % k, k + q % max(m, 1), q % k])
            col = np.select([f11, f21, f12], [q // k, q // max(m, 1), k + q // k])
            assert np.array_equal(front[row], j.indices[take])
            assert np.array_equal(front[col], np.searchsorted(indptr, take, side='right') - 1)
            assert np.all(np.minimum(row, col) < k)
            assert np.unique(put).size == put.size


def test_a_child_meets_its_parent_in_few_runs():
    """Each separator's dofs are in bisection order, so a child's external
    unknowns fall into at most 5 runs of consecutive positions in its
    parent's front on 4^3 (48 runs in all; 13 and 114 with the separators
    in the dissection's own order), and its update is added by slices."""
    disc = _disc(4)
    fronts = assembly._fronts(disc)
    runs = [len(child) for *_, child in fronts[:-1]]
    assert max(runs) <= 5 and sum(runs) <= 48
    for s, e, ext, _, _, parent, child in fronts[:-1]:
        k = fronts[parent][1] - fronts[parent][0]
        assert sum(a.stop - a.start for _, _, a in child) == ext.size
        for high, r, a in child:                     # F11/F12 rows, then F21/F22 rows
            assert r.stop - r.start == a.stop - a.start and r.stop <= (
                fronts[parent][2].size if high else k)


def test_fronts_are_factored_in_their_buffers_after_j_is_gone(monkeypatch):
    """factor_at scatters J into every front's buffer by a call of its own
    before it eliminates anything: J and its data are gone when dgetrf
    first runs, on every Python version.  dgetrf,
    dlaswp, the two dtrsm and dgemm work in place, on Fortran-order views
    of the front's buffer [F11 | F21 | F12] and of its update F22."""
    disc = _disc(3)
    fronts = assembly._fronts(disc)
    sizes = {(e - s) * (e - s + 2 * ext.size) for s, e, ext, *_ in fronts}
    refs, live, calls = [], [], []
    real_linearize = assembly.linearize

    def linearize(*args):
        out = real_linearize(*args)
        refs.extend([weakref.ref(out[0]), weakref.ref(out[0].data)])
        return out

    def spy(name, overwritten):         # the position of the array overwritten
        real = getattr(assembly, name)

        def call(*args, **kwargs):
            if name == "dgetrf" and not live:
                live.append(sum(ref() is not None for ref in refs))
            out = real(*args, **kwargs)
            calls.append((name, args[overwritten], out[0] if name == "dgetrf" else out))
            return out
        monkeypatch.setattr(assembly, name, call)

    for name, overwritten in (("dgetrf", 0), ("dlaswp", 0), ("dtrsm", 2), ("dgemm", 4)):
        spy(name, overwritten)
    monkeypatch.setattr(assembly, "linearize", linearize)
    assembly.factor_at(State.zero(disc), _demo_dead_load(3.0), NeoHookean(), disc)
    assert live == [0]
    assert {name for name, _, _ in calls} == {"dgetrf", "dlaswp", "dtrsm", "dgemm"}
    for name, a, out in calls:
        assert a.flags.f_contiguous and np.shares_memory(out, a)
        if name != "dgemm":
            assert a.base is not None and a.base.ndim == 1 and a.base.size in sizes


def test_solve_bordered_singular_matrix():
    a = sp.csc_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(SingularMatrixError):
        solve_bordered(a, np.ones(3), np.arange(3))


def test_inverted_element_reported_with_context():
    disc = _disc(2)
    mat = NeoHookean(mu=1.0)
    state = State(lam=0.1, u=np.full(disc.n_u, 5.0), p=np.zeros(disc.n_p))
    with pytest.raises(InvertedElementError) as err:
        residual(state, LoadProgram(a_family='shear'), mat, disc)
    assert err.value.min_det <= 0.0
    assert err.value.lam == 0.1
    assert isinstance(err.value.element, int)


def test_stokes_single_mesh_errors():
    err_u, err_p = solve_stokes(3)
    assert abs(err_u - 5.213718668846194e-04) < 1e-9
    assert abs(err_p - 3.0121732621478717e-02) < 1e-7
