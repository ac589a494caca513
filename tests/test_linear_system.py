from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from degenmfem import linear_system
from degenmfem.benchmark import DEFAULT_SOLUTION
from degenmfem.fem import assemble_forms, project_scalar
from degenmfem.linear_system import (
    SingularSystemError,
    StaleFactorizationError,
    assemble,
    factorize,
    flux,
    solve,
)
from degenmfem.mesh import build_structured_unit_square
from degenmfem.nonlinearity import (
    NonlinearitySpec,
    RegularizationSpec,
    b_eps_prime,
)
from degenmfem.schemes import SchemeConfig, StoppingCriterion, hl_iterate
from oracle_utils import (
    block_matrix,
    residual_norm,
    skeleton_matrix,
    solve_general_flux,
    solve_with_flux,
)


@pytest.fixture(scope="module")
def forms1():
    return assemble_forms(build_structured_unit_square(1))


@pytest.fixture(scope="module")
def forms2():
    return assemble_forms(build_structured_unit_square(2))


def test_system_size_bookkeeping(forms1):
    system = assemble(forms1, 1.0, 1.0)
    assert block_matrix(system).shape == (7, 7)  # 2 cells + 5 edges


def test_zero_weights_still_nonsingular(forms2):
    # Pure Darcy structure: weights = 0 keeps the saddle system solvable.
    rng = np.random.default_rng(11)
    rhs_s = rng.normal(size=forms2.num_cells)
    rhs_f = rng.normal(size=forms2.num_edges)
    fact, u, q = solve_general_flux(forms2, 0.0, 0.3, rhs_s, rhs_f)
    assert residual_norm(fact.system, u, q, rhs_s) < 1e-10


def test_tau_scales_coupling_block_only(forms2):
    s1 = assemble(forms2, 2.0, 0.5)
    s2 = assemble(forms2, 2.0, 1.0)
    nc = forms2.num_cells
    a1 = block_matrix(s1).toarray()
    a2 = block_matrix(s2).toarray()
    np.testing.assert_allclose(a2[:nc, nc:], 2.0 * a1[:nc, nc:])
    np.testing.assert_allclose(a2[:nc, :nc], a1[:nc, :nc])
    np.testing.assert_allclose(a2[nc:, :], a1[nc:, :])


def test_invalid_weights(forms1):
    with pytest.raises(ValueError):
        assemble(forms1, -1.0, 1.0)
    with pytest.raises(ValueError):
        assemble(forms1, np.array([1.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        assemble(forms1, 1.0, 0.0)


def test_zero_rhs_gives_zero(forms2):
    # The forms' Dirichlet functional, the flux side, is zero here.
    assert not forms2.dirichlet_functional.any()
    fact = factorize(assemble(forms2, 1.0, 1.0))
    zero = np.zeros(forms2.num_cells)
    u, x = solve(fact, zero)
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(flux(fact, x), 0.0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_manufactured_rhs_recovery(n):
    forms = assemble_forms(build_structured_unit_square(n))
    rng = np.random.default_rng(n)
    weights = rng.uniform(0.0, 3.0, size=forms.num_cells)
    system = assemble(forms, weights, 0.05)
    u_star = rng.normal(size=forms.num_cells)
    q_star = rng.normal(size=forms.num_edges)
    rhs = block_matrix(system) @ np.concatenate([u_star, q_star])
    _, u, q = solve_general_flux(forms, weights, 0.05, rhs[: forms.num_cells],
                                 rhs[forms.num_cells:])
    np.testing.assert_allclose(u, u_star, atol=1e-9)
    np.testing.assert_allclose(q, q_star, atol=1e-9)


def test_matches_dense_oracle(forms1):
    # n=1, weights=1, tau=1, rhs_scalar = cell areas, the Dirichlet
    # functional of a zero trace, against straight dense Gaussian
    # elimination on the 7x7 matrix.
    system = assemble(forms1, 1.0, 1.0)
    fact = factorize(system)
    rhs_s = forms1.scalar_mass.copy()
    rhs_f = np.zeros(forms1.num_edges)
    np.testing.assert_array_equal(forms1.dirichlet_functional, rhs_f)
    u, q = solve_with_flux(fact, rhs_s)
    dense = np.linalg.solve(block_matrix(system).toarray(),
                            np.concatenate([rhs_s, rhs_f]))
    np.testing.assert_allclose(np.concatenate([u, q]), dense, atol=1e-12)


def _weights(pattern, forms, rng):
    nc = forms.num_cells
    if pattern == "positive":
        return rng.uniform(0.1, 3.0, size=nc)
    if pattern == "zero":
        return np.zeros(nc)
    if pattern == "tiny":
        # Subnormal weights, whose reciprocals overflow, act as zero.
        return np.full(nc, 1e-320)
    if pattern == "mixed":
        weights = rng.uniform(0.1, 3.0, size=nc)
        weights[rng.permutation(nc)[: max(1, nc // 2)]] = 0.0
        return weights
    return _newton_weights(forms, 1e-3)


def _num_skeleton(n):
    # Interior horizontals and verticals on the even grid lines, which
    # bound the 2x2 macro squares: n edges on each of (n - 1) // 2 lines
    # per direction.
    return 2 * n * ((n - 1) // 2)


def _newton_weights(forms, eps):
    # Newton's weights b'_eps(u) at the manufactured solution, t = 0.25:
    # zero on the dry cells u < 0, positive elsewhere.
    reg = RegularizationSpec(kind="linear", epsilon=eps,
                             base=DEFAULT_SOLUTION.nonlinearity())
    u = project_scalar(forms.mesh,
                       lambda x, y: DEFAULT_SOLUTION.exact(0.25, x, y))
    weights = b_eps_prime(reg, u)
    assert 0 < np.count_nonzero(weights == 0.0) < forms.num_cells
    return weights


@pytest.mark.parametrize("n, pattern", [
    *((n, p) for n in (1, 2, 4, 8)
      for p in ("positive", "zero", "tiny", "mixed")),
    (8, "newton"),
])
def test_reduced_solve_matches_dense_oracle(n, pattern):
    # The reduced solve against dense elimination on the full block
    # matrix: whatever the weights, the condensed hybridized matrix on the
    # skeleton is factorized.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(100 + n)
    weights = _weights(pattern, forms, rng)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    fact, u, q = solve_general_flux(forms, weights, 0.05, rhs_s, rhs_f)
    assert fact.lu.shape[0] == _num_skeleton(n)
    dense = np.linalg.solve(block_matrix(fact.system).toarray(),
                            np.concatenate([rhs_s, rhs_f]))
    np.testing.assert_allclose(u, dense[: forms.num_cells], atol=1e-9)
    np.testing.assert_allclose(q, dense[forms.num_cells:], atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11])
def test_operator_solve_matches_dense_oracle(n, monkeypatch):
    # A constant weight is solved through its precomputed operators, with
    # the forms' Dirichlet functional, random on every edge here, as the
    # flux right-hand side.  Odd n has phantom cells, n = 1 no skeleton.
    forms = assemble_forms(build_structured_unit_square(n))
    rng = np.random.default_rng(40 + n)
    forms = replace(forms,
                    dirichlet_functional=rng.normal(size=forms.num_edges))
    system = assemble(forms, 84.0, 0.05)
    fact = factorize(system)

    def per_call(*args):
        raise AssertionError("solved per call, not by the operators")

    monkeypatch.setattr(linear_system, "_solve_hybrid", per_call)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = forms.dirichlet_functional
    # Only u is formed; ``flux`` gives q from the unknowns
    # x = [rhs_s; lambda_s; 0; 1] the solve returns in its place.
    u, x = solve(fact, rhs_s)
    nc, nsk = forms.num_cells, forms.hybrid.skeleton_edges.size
    assert x.shape == (nc + nsk + 2,)
    np.testing.assert_array_equal(x[:nc], rhs_s)
    np.testing.assert_array_equal(x[-2:], [0.0, 1.0])
    q = flux(fact, x)
    assert residual_norm(system, u, q, rhs_s) < 1e-10
    dense = np.linalg.solve(block_matrix(system).toarray(),
                            np.concatenate([rhs_s, rhs_f]))
    np.testing.assert_allclose(u, dense[: forms.num_cells], atol=1e-9)
    np.testing.assert_allclose(q, dense[forms.num_cells:], atol=1e-9)
    # Repeated solves give the same bits.
    again = solve(fact, rhs_s)
    np.testing.assert_array_equal(again[0], u)
    np.testing.assert_array_equal(again[1], x)
    np.testing.assert_array_equal(flux(fact, again[1]), q)


def test_hybrid_pattern_does_not_depend_on_dry_cells():
    # The skeleton matrix is stored as the macros' 8x8 Schur blocks,
    # whichever cells are dry.
    forms = assemble_forms(build_structured_unit_square(6))
    rng = np.random.default_rng(4)
    matrices = []
    for _ in range(2):
        weights = rng.uniform(0.1, 3.0, size=forms.num_cells)
        weights[rng.random(forms.num_cells) < 0.5] = 0.0
        matrices.append(assemble(forms, weights, 0.05).reduced)
    first, second = matrices
    num_macros = forms.hybrid.macro_multiplier.shape[1]
    assert first.shape == second.shape == (num_macros, 8, 8)
    assert not np.array_equal(first, second)


def test_hybrid_matrix_is_symmetric_positive_definite():
    forms = assemble_forms(build_structured_unit_square(8))
    matrix = skeleton_matrix(assemble(forms, _newton_weights(forms, 1e-3),
                                      0.05)).toarray()
    np.testing.assert_array_equal(matrix, matrix.T)
    np.linalg.cholesky(matrix)


@pytest.mark.parametrize("n, size, bandwidth", [
    (11, 110, 22),
    (32, 960, 63),
    (64, 3_968, 127),
])
def test_skeleton_band_for_every_weight(n, size, bandwidth):
    # The skeleton, numbered row by row, is factorized the same way
    # whether the weight is Newton's or a constant L: up to n = 32 as one
    # band, at n = 64 by two condensation levels and the band of the 896
    # edges left.  Only a constant L gets solve operators.
    levels, coarse = {64: (2, 896)}.get(n, (0, size))
    forms = assemble_forms(build_structured_unit_square(n))
    assert len(forms.hybrid.levels) == levels
    assert forms.hybrid.bandwidth == bandwidth
    newton = assemble(forms, _newton_weights(forms, 1e-4), 0.05)
    constant = assemble(forms, 84.0, 0.05)
    assert newton.operators is None
    num_macros = forms.hybrid.macro_multiplier.shape[1]
    for system in (newton, constant):
        assert system.reduced.shape == (num_macros, 8, 8)
        assert not system.reduced.flags.writeable
        lu = factorize(system).lu
        assert len(lu.factors) == levels
        assert lu.shape == (size, size)
        assert lu.band.shape == (bandwidth + 1, coarse)


def _macro_columns(forms):
    """The macro of each cell and, by macro, the sorted columns of
    x = [rhs_scalar; lambda_s; 0; 1] its operator rows take: its cells,
    and its skeleton numbers, each padded to 8 with the 0 column."""
    mesh, nc = forms.mesh, forms.num_cells
    nsk = forms.hybrid.skeleton_edges.size
    square = np.arange(nc) // 2
    side = (mesh.n + 1) // 2
    macro = (square % mesh.n) // 2 + (square // mesh.n) // 2 * side
    number = np.full(forms.num_edges, -1)
    number[forms.hybrid.skeleton_edges] = np.arange(nsk)
    columns = {}
    for m in np.unique(macro):
        cells = np.flatnonzero(macro == m)
        skeleton = np.setdiff1d(number[mesh.cell_edges[cells]], [-1])
        assert skeleton.size <= 8
        columns[m] = (np.sort(np.append(cells, [nc + nsk] * (8 - cells.size))),
                      np.sort(np.append(nc + skeleton,
                                        [nc + nsk] * (8 - skeleton.size))))
    return macro, columns


@pytest.mark.parametrize("n", [11, 32])
def test_operator_rows_are_fixed_width(n):
    # Every row of R, S and F holds 17 entries over
    # x = [rhs_scalar; lambda_s; 0; 1], the 0 standing in for a phantom
    # cell (odd n) or a missing multiplier and the Dirichlet share last,
    # on the 1: a skeleton edge's R row takes the cells of its two
    # macros, a cell's S row and an edge's F row (by the edge's
    # lowest-numbered cell) its macro's cells, then its skeleton numbers.
    forms = assemble_forms(build_structured_unit_square(n))
    ops = assemble(forms, 84.0, 0.05).operators
    nc, ne = forms.num_cells, forms.num_edges
    nsk = forms.hybrid.skeleton_edges.size
    macro, columns = _macro_columns(forms)
    # The lowest- and highest-numbered cells of each edge.
    edge_cells = np.array([np.full(ne, nc), np.full(ne, -1)]).T
    owner = np.repeat(np.arange(nc), 3)
    np.minimum.at(edge_cells[:, 0], forms.mesh.cell_edges.ravel(), owner)
    np.maximum.at(edge_cells[:, 1], forms.mesh.cell_edges.ravel(), owner)
    for matrix, count in ((ops.skeleton_rhs, nsk), (ops.scalar, nc),
                          (ops.flux, ne)):
        assert matrix.shape == (count, nc + nsk + 2)
        np.testing.assert_array_equal(matrix.indptr, np.arange(count + 1) * 17)
        assert np.all(matrix.indices.reshape(count, 17)[:, 16] == nc + nsk + 1)
    rows = ops.scalar.indices.reshape(nc, 17)
    for cell in range(nc):
        cells, skeleton = columns[macro[cell]]
        np.testing.assert_array_equal(np.sort(rows[cell, :8]), cells)
        np.testing.assert_array_equal(np.sort(rows[cell, 8:16]), skeleton)
    rows = ops.flux.indices.reshape(ne, 17)
    for edge in range(ne):
        cells, skeleton = columns[macro[edge_cells[edge, 0]]]
        np.testing.assert_array_equal(np.sort(rows[edge, :8]), cells)
        np.testing.assert_array_equal(np.sort(rows[edge, 8:16]), skeleton)
    rows = ops.skeleton_rhs.indices.reshape(nsk, 17)
    for i, edge in enumerate(forms.hybrid.skeleton_edges):
        first, second = macro[edge_cells[edge]]
        assert first != second
        both = np.concatenate([columns[first][0], columns[second][0]])
        np.testing.assert_array_equal(np.sort(rows[i, :16]), np.sort(both))


@pytest.mark.parametrize("n, newton", [
    *(pytest.param(n, False, id=str(n)) for n in (1, 2, 3, 5, 8, 11, 32)),
    *(pytest.param(n, True, id=f"newton-{n}") for n in (11, 32)),
])
def test_band_solve_matches_dense_oracle(n, newton):
    # The band factor against dense elimination on the full block matrix.
    # A constant weight solves through the precomputed operators (u and
    # the unknowns x, ``flux`` for q), and its per-call solve matches them;
    # Newton's weights, exact zeros included, solve per call.  Another
    # flux right-hand side is the Dirichlet functional of other forms.
    # n = 1 and 2 have no skeleton, odd n has phantom cells.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(60 + n)
    weights = _newton_weights(forms, 1e-4) if newton else 84.0
    system = assemble(forms, weights, 0.05)
    fact = factorize(system)
    band = fact.lu
    assert band.shape[0] == _num_skeleton(n)
    # U^T U is the skeleton matrix, in the skeleton's own numbering.
    np.testing.assert_allclose((band.L @ band.U).toarray(),
                               skeleton_matrix(system).toarray(), rtol=0,
                               atol=1e-12)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    dirichlet = forms.dirichlet_functional
    nc = forms.num_cells
    dense = np.linalg.solve(block_matrix(system).toarray(), np.column_stack([
        np.concatenate([rhs_s, dirichlet]), np.concatenate([rhs_s, rhs_f])]))
    u, q = solve(fact, rhs_s)
    if not newton:
        q = flux(fact, q)
        per_call = linear_system._solve_hybrid(fact, rhs_s)
        np.testing.assert_allclose(per_call[0], dense[:nc, 0], atol=1e-9)
        np.testing.assert_allclose(per_call[1], dense[nc:, 0], atol=1e-9)
    np.testing.assert_allclose(u, dense[:nc, 0], atol=1e-9)
    np.testing.assert_allclose(q, dense[nc:, 0], atol=1e-9)
    fact_f, u_f, q_f = solve_general_flux(forms, weights, 0.05, rhs_s, rhs_f)
    np.testing.assert_allclose(u_f, dense[:nc, 1], atol=1e-9)
    np.testing.assert_allclose(q_f, dense[nc:, 1], atol=1e-9)
    for f, expected in ((fact, (u, q)), (fact_f, (u_f, q_f))):
        again = solve_with_flux(f, rhs_s)
        np.testing.assert_array_equal(again[0], expected[0])
        np.testing.assert_array_equal(again[1], expected[1])


@pytest.mark.parametrize("n", [1, 2, 3, 11, 32])
def test_operator_products_are_scipys(n):
    # A constant-weight solve calls scipy's private CSR kernel without
    # its dispatch: u and q are, to the bit, scipy's R @ x, S @ x and
    # F @ x, so a scipy release that changes the kernel fails here.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(80 + n)
    fact = factorize(assemble(forms, 84.0, 0.05))
    ops = fact.system.operators
    nc = forms.num_cells
    rhs_s = rng.normal(size=nc)
    x = np.zeros(ops.scalar.shape[1])
    x[:nc], x[-1] = rhs_s, 1.0
    x[nc:-2] = fact.lu.solve(ops.skeleton_rhs @ x)
    u, unknowns = solve(fact, rhs_s)
    assert unknowns.tobytes() == x.tobytes()
    assert u.tobytes() == (ops.scalar @ x).tobytes()
    assert flux(fact, unknowns).tobytes() == (ops.flux @ x).tobytes()


def test_band_cholesky_rejects_indefinite_matrix():
    # The band Cholesky of a matrix that is not positive definite fails
    # with a singular system, for a constant and for per-cell weights.
    forms = assemble_forms(build_structured_unit_square(5))
    for weights in (84.0, _newton_weights(forms, 1e-4)):
        system = assemble(forms, weights, 0.05)
        negated = replace(system, reduced=-system.reduced)
        with pytest.raises(SingularSystemError):
            factorize(negated)


def test_levels_start_past_n_32():
    # The band keeps every mesh up to n = 32 (and its bits); n = 64
    # condenses two levels.
    for n in range(1, 33):
        assert assemble_forms(build_structured_unit_square(n)).hybrid.levels \
            == ()
    assert len(assemble_forms(build_structured_unit_square(64)).hybrid
               .levels) == 2


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("kind", ["newton", "random", "constant"])
def test_level_solve_residuals(n, kind):
    # Past n = 32 the skeleton is condensed on levels of merged blocks
    # before its band Cholesky; n = 65 pads odd block grids with
    # phantoms.  Newton's weights have dry cells, the random ones zeros.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(90 + n)
    if kind == "newton":
        weights = _newton_weights(forms, 1e-4)
    elif kind == "random":
        weights = rng.uniform(0.0, 3.0, size=forms.num_cells)
        weights[rng.random(forms.num_cells) < 0.3] = 0.0
    else:
        weights = 84.0
    system = assemble(forms, weights, 0.05)
    fact = factorize(system)
    assert len(fact.lu.factors) == 2
    # U^T U is the skeleton matrix, row i of U the factor row whose pivot
    # is skeleton edge i.
    skeleton = skeleton_matrix(system)
    assert abs(fact.lu.L @ fact.lu.U - skeleton).max() \
        < 1e-12 * abs(skeleton).max()
    rhs_s = rng.normal(size=forms.num_cells)
    u, q = solve_with_flux(fact, rhs_s)
    assert residual_norm(system, u, q, rhs_s) < 1e-10
    if kind == "constant":
        per_call = linear_system._solve_hybrid(fact, rhs_s)
        assert residual_norm(system, *per_call, rhs_s) < 1e-10
    again = solve_with_flux(factorize(system), rhs_s)
    np.testing.assert_array_equal(again[0], u)
    np.testing.assert_array_equal(again[1], q)


@pytest.mark.parametrize("n", [64, 65])
def test_level_factorization_rejects_indefinite_matrix(n):
    # A negated matrix fails in a cross Cholesky of the first level; one
    # whose coarse skeleton alone has negative diagonal entries passes
    # the crosses and fails in the band Cholesky.
    forms = assemble_forms(build_structured_unit_square(n))
    hybrid = forms.hybrid
    system = assemble(forms, _newton_weights(forms, 1e-4), 0.05)
    with pytest.raises(SingularSystemError, match="cross"):
        factorize(replace(system, reduced=-system.reduced))
    coarse = np.arange(hybrid.skeleton_edges.size)
    for level in hybrid.levels:
        coarse = coarse[level.kept]
    macro, position = np.nonzero(np.isin(hybrid.macro_multiplier.T, coarse))
    reduced = system.reduced.copy()
    reduced[macro, position, position] = -1e6
    with pytest.raises(SingularSystemError, match="band"):
        factorize(replace(system, reduced=reduced))


@pytest.mark.parametrize("n", [1, 2, 3, 11, 32])
def test_interior_edges_are_a_permutation(n):
    # The multipliers left to factorize list each interior edge on a macro
    # boundary once: the edges whose midpoint lies on an even grid line.
    # Every other interior edge is a diagonal or inside a macro.  They
    # are numbered by midpoint, y then x, for the band.
    mesh = build_structured_unit_square(n)
    skeleton = assemble_forms(mesh).hybrid.skeleton_edges
    interior = np.setdiff1d(np.arange(mesh.num_edges), mesh.boundary_edges)
    keys = np.rint(2 * n * mesh.edge_midpoints[interior]).astype(int)
    np.testing.assert_array_equal(
        np.sort(skeleton), interior[(keys % 4 == 0).any(axis=1)])
    assert skeleton.size == _num_skeleton(n)
    keys = np.rint(2 * n * mesh.edge_midpoints[skeleton]).astype(int)
    np.testing.assert_array_equal(np.lexsort(keys.T),
                                  np.arange(skeleton.size))


def _uncondensed_hybrid(forms, weights, tau):
    """The hybridized matrix on all interior edges, in index order, and
    the map from a multiplier vector to (u, q), in the batched cell-major
    formulation, built from the forms alone."""
    mesh = forms.mesh
    nc, ne = forms.num_cells, forms.num_edges
    signs = mesh.cell_edge_signs.astype(float)
    minv = np.linalg.inv(forms.local_mass)
    m = np.einsum("ckl,cl->ck", minv, signs)
    v = signs * m
    den = weights * forms.scalar_mass + tau * v.sum(axis=1)
    local = (signs[:, :, None] * minv * signs[:, None, :]
             - (tau / den)[:, None, None] * v[:, :, None] * v[:, None, :])
    rows = np.repeat(mesh.cell_edges, 3, axis=1).ravel()
    cols = np.tile(mesh.cell_edges, (1, 3)).ravel()
    interior = np.setdiff1d(np.arange(ne), mesh.boundary_edges)
    matrix = sps.coo_matrix((local.ravel(), (rows, cols)),
                            shape=(ne, ne)).toarray()[np.ix_(interior,
                                                             interior)]
    _, owner = np.unique(mesh.cell_edges.ravel(), return_index=True)

    def solve_with(rhs_s, rhs_f):
        rho = np.zeros(3 * nc)
        rho[owner] = rhs_f
        m_rho = np.einsum("ckl,cl->ck", minv, rho.reshape(nc, 3))
        u0 = (rhs_s - tau * np.einsum("ck,ck->c", signs, m_rho)) / den
        rhs = np.bincount(mesh.cell_edges.ravel(),
                          weights=(signs * m_rho + v * u0[:, None]).ravel(),
                          minlength=ne)[interior]
        lam = np.zeros(ne)
        lam[interior] = np.linalg.solve(matrix, rhs)
        lam = lam[mesh.cell_edges]
        u = u0 + tau * np.einsum("ck,ck->c", v, lam) / den
        q = (m_rho + m * u[:, None]
             - np.einsum("ckl,cl->ck", minv, signs * lam)).ravel()[owner]
        return u, q

    return matrix, interior, solve_with


@pytest.mark.parametrize("n, constant", [
    *(pytest.param(n, False, id=str(n)) for n in (3, 5, 6, 11)),
    *(pytest.param(n, True, id=f"constant-{n}") for n in (3, 5, 6, 11)),
])
def test_condensed_matrix_is_schur_complement_of_hybridized(n, constant):
    # Condensing the diagonals and the inner crosses leaves the Schur
    # complement of the whole hybridized matrix on the skeleton, and the
    # solve matches the uncondensed one, for per-cell weights (per call)
    # and a constant one (through the operators); odd n has partial
    # macros, n = 11 a 110-edge skeleton.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(12 + n)
    if constant:
        weights = 84.0
    else:
        weights = rng.uniform(0.0, 3.0, size=forms.num_cells)
        weights[rng.random(forms.num_cells) < 0.5] = 0.0
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    fact, u, q = solve_general_flux(forms, weights, 0.05, rhs_s, rhs_f)
    assert (fact.system.operators is not None) == constant
    matrix, interior, solve_with = _uncondensed_hybrid(forms, weights, 0.05)
    keep = np.searchsorted(interior, forms.hybrid.skeleton_edges)
    drop = np.setdiff1d(np.arange(interior.size), keep)
    schur = (matrix[np.ix_(keep, keep)] - matrix[np.ix_(keep, drop)]
             @ np.linalg.solve(matrix[np.ix_(drop, drop)],
                               matrix[np.ix_(drop, keep)]))
    np.testing.assert_allclose(skeleton_matrix(fact.system).toarray(), schur,
                               rtol=0, atol=1e-12 * np.abs(schur).max())
    u_ref, q_ref = solve_with(rhs_s, rhs_f)
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-12)
    # A system assembled anew solves to the same bits.
    _, *again = solve_general_flux(forms, weights, 0.05, rhs_s, rhs_f)
    np.testing.assert_array_equal(again[0], u)
    np.testing.assert_array_equal(again[1], q)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       dry=st.floats(0.0, 1.0), tau=st.floats(1e-3, 1.0))
def test_condensed_solve_matches_dense_oracle(n, seed, dry, tau):
    # n = 1 and 2 condense every multiplier; odd n has partial macros
    # along the top and right sides.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 3.0, size=forms.num_cells)
    weights[rng.random(forms.num_cells) < dry] = 0.0
    weights[rng.integers(forms.num_cells)] = 0.0
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    fact, u, q = solve_general_flux(forms, weights, tau, rhs_s, rhs_f)
    assert fact.lu.shape[0] == _num_skeleton(n)
    assert residual_norm(fact.system, u, q, rhs_s) < 1e-10
    dense = np.linalg.solve(block_matrix(fact.system).toarray(),
                            np.concatenate([rhs_s, rhs_f]))
    np.testing.assert_allclose(u, dense[: forms.num_cells], atol=1e-9)
    np.testing.assert_allclose(q, dense[forms.num_cells:], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       dry=st.floats(0.0, 1.0), tau=st.floats(1e-3, 1.0))
def test_solve_residual_with_random_zero_weights(n, seed, dry, tau):
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 3.0, size=forms.num_cells)
    weights[rng.random(forms.num_cells) < dry] = 0.0
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    fact, u, q = solve_general_flux(forms, weights, tau, rhs_s, rhs_f)
    # The factorized size depends on neither which cells are dry nor
    # whether any is.
    assert fact.lu.shape[0] == _num_skeleton(n)
    assert residual_norm(fact.system, u, q, rhs_s) < 1e-10


def test_repeated_solves_bit_identical(forms2):
    rng = np.random.default_rng(2)
    rhs_s = rng.normal(size=forms2.num_cells)
    rhs_f = rng.normal(size=forms2.num_edges)
    fact, u1, q1 = solve_general_flux(forms2, 0.7, 0.25, rhs_s, rhs_f)
    u2, q2 = solve_with_flux(fact, rhs_s)
    assert np.array_equal(u1, u2)
    assert np.array_equal(q1, q2)


def test_stale_factorization_rejected(forms2):
    # The step checks a supplied factorization against its own (L, tau)
    # once, before iterating.
    config = SchemeConfig(
        kind="hl", tau=0.5,
        stopping=StoppingCriterion(mode="increment", tol=1e-8),
        nonlinearity=NonlinearitySpec(alpha=0.5), L=1.0)
    u = np.full(forms2.num_cells, 0.5)
    f = np.zeros(forms2.num_cells)
    b_prev = np.sqrt(u)
    for weights, tau in ((2.0, 0.5), (1.0, 0.25)):
        with pytest.raises(StaleFactorizationError):
            hl_iterate(forms2, config, b_prev, u, f,
                       factorize(assemble(forms2, weights, tau)))
    # The same (weights, tau) assembled anew is accepted.
    _, _, report = hl_iterate(forms2, config, b_prev, u, f,
                              factorize(assemble(forms2, 1.0, 0.5)))
    assert report.converged


def test_rhs_shape_validation(forms1):
    fact = factorize(assemble(forms1, 1.0, 1.0))
    with pytest.raises(ValueError):
        solve(fact, np.zeros(3))


def test_discrete_integration_by_parts():
    # Any solve enforces the flux equation M q - B^T u = g exactly, which
    # is the discrete integration-by-parts identity against every test
    # flux (g carries the Dirichlet boundary term).
    mesh = build_structured_unit_square(3)
    forms = assemble_forms(mesh, -0.5)
    fact = factorize(assemble(forms, 2.0, 0.3))
    rng = np.random.default_rng(8)
    rhs_s = rng.normal(size=forms.num_cells)
    u, q = solve_with_flux(fact, rhs_s)
    identity = (forms.flux_mass @ q - forms.divergence.T @ u
                - forms.dirichlet_functional)
    assert np.abs(identity).max() < 1e-11
