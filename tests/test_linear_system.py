from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from degenmfem import linear_system
from degenmfem.benchmark import DEFAULT_SOLUTION
from degenmfem.fem import assemble_forms, project_scalar
from degenmfem.linear_system import (
    StaleFactorizationError,
    assemble,
    factorize,
    flux,
    residual_norm,
    solve,
)
from degenmfem.mesh import build_structured_unit_square
from degenmfem.nonlinearity import (
    NonlinearitySpec,
    RegularizationSpec,
    b_eps_prime,
)
from degenmfem.schemes import SchemeConfig, StoppingCriterion, hl_iterate


@pytest.fixture(scope="module")
def forms1():
    return assemble_forms(build_structured_unit_square(1))


@pytest.fixture(scope="module")
def forms2():
    return assemble_forms(build_structured_unit_square(2))


def test_system_size_bookkeeping(forms1):
    system = assemble(forms1, 1.0, 1.0)
    assert system.matrix.shape == (7, 7)  # 2 cells + 5 edges


def test_zero_weights_still_nonsingular(forms2):
    # Pure Darcy structure: weights = 0 keeps the saddle system solvable.
    system = assemble(forms2, 0.0, 0.3)
    fact = factorize(system)
    rng = np.random.default_rng(11)
    rhs_s = rng.normal(size=system.num_cells)
    rhs_f = rng.normal(size=system.num_edges)
    u, q = solve(fact, rhs_s, rhs_f)
    assert residual_norm(system, u, q, rhs_s, rhs_f) < 1e-10


def test_tau_scales_coupling_block_only(forms2):
    s1 = assemble(forms2, 2.0, 0.5)
    s2 = assemble(forms2, 2.0, 1.0)
    nc = forms2.num_cells
    a1 = s1.matrix.toarray()
    a2 = s2.matrix.toarray()
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
    system = assemble(forms2, 1.0, 1.0)
    fact = factorize(system)
    u, q = solve(fact, np.zeros(system.num_cells), np.zeros(system.num_edges))
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(q, 0.0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_manufactured_rhs_recovery(n):
    forms = assemble_forms(build_structured_unit_square(n))
    rng = np.random.default_rng(n)
    weights = rng.uniform(0.0, 3.0, size=forms.num_cells)
    system = assemble(forms, weights, 0.05)
    fact = factorize(system)
    u_star = rng.normal(size=forms.num_cells)
    q_star = rng.normal(size=forms.num_edges)
    rhs = system.matrix @ np.concatenate([u_star, q_star])
    u, q = solve(fact, rhs[: forms.num_cells], rhs[forms.num_cells:])
    np.testing.assert_allclose(u, u_star, atol=1e-9)
    np.testing.assert_allclose(q, q_star, atol=1e-9)


def test_matches_dense_oracle(forms1):
    # n=1, weights=1, tau=1, rhs_scalar = cell areas, rhs_flux = 0,
    # against straight dense Gaussian elimination on the 7x7 matrix.
    system = assemble(forms1, 1.0, 1.0)
    fact = factorize(system)
    rhs_s = forms1.scalar_mass.copy()
    rhs_f = np.zeros(forms1.num_edges)
    u, q = solve(fact, rhs_s, rhs_f)
    dense = np.linalg.solve(system.matrix.toarray(),
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
    system = assemble(forms, weights, 0.05)
    fact = factorize(system)
    assert fact.lu.shape[0] == _num_skeleton(n)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    u, q = solve(fact, rhs_s, rhs_f)
    dense = np.linalg.solve(system.matrix.toarray(),
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
    u, q = solve(fact, rhs_s, rhs_f)
    assert residual_norm(system, u, q, rhs_s, rhs_f) < 1e-10
    dense = np.linalg.solve(system.matrix.toarray(),
                            np.concatenate([rhs_s, rhs_f]))
    np.testing.assert_allclose(u, dense[: forms.num_cells], atol=1e-9)
    np.testing.assert_allclose(q, dense[forms.num_cells:], atol=1e-9)
    # Without rhs_flux only u is formed, to the same bits; ``flux`` gives
    # the same q, and an equal functional that is another array the same
    # solve.
    u_only, no_flux = solve(fact, rhs_s)
    assert no_flux is None
    np.testing.assert_array_equal(u_only, u)
    np.testing.assert_array_equal(flux(fact, rhs_s), q)
    again = solve(fact, rhs_s, rhs_f.copy())
    np.testing.assert_array_equal(again[0], u)
    np.testing.assert_array_equal(again[1], q)


def test_hybrid_pattern_does_not_depend_on_dry_cells():
    forms = assemble_forms(build_structured_unit_square(6))
    rng = np.random.default_rng(4)
    matrices = []
    for _ in range(2):
        weights = rng.uniform(0.1, 3.0, size=forms.num_cells)
        weights[rng.random(forms.num_cells) < 0.5] = 0.0
        matrices.append(assemble(forms, weights, 0.05).reduced)
    first, second = matrices
    np.testing.assert_array_equal(first.indptr, second.indptr)
    np.testing.assert_array_equal(first.indices, second.indices)
    assert not np.array_equal(first.data, second.data)


def test_hybrid_matrix_is_symmetric_positive_definite():
    forms = assemble_forms(build_structured_unit_square(8))
    matrix = assemble(forms, _newton_weights(forms, 1e-3), 0.05).reduced
    assert (matrix != matrix.T).nnz == 0
    np.linalg.cholesky(matrix.toarray())


@pytest.mark.parametrize("n, fill", [(11, 2_768), (32, 41_408)])
def test_constant_weight_fill_matches_newton(n, fill):
    # A constant L factorizes the same skeleton pattern as Newton's
    # weights, so both fill the same.  Its solve operators are local to
    # the macros: a skeleton edge's right-hand side takes the 16 cells of
    # its two macros, and a cell's u or an edge's q the 8 cells and at
    # most 8 skeleton edges of its macro.
    forms = assemble_forms(build_structured_unit_square(n))

    def factor_nnz(weights):
        lu = factorize(assemble(forms, weights, 0.05)).lu
        return lu.L.nnz + lu.U.nnz

    assert factor_nnz(_newton_weights(forms, 1e-4)) == fill
    assert factor_nnz(84.0) == fill
    if n == 32:
        ops = assemble(forms, 84.0, 0.05).operators
        assert [a.nnz for a in (ops.skeleton_rhs, ops.scalar, ops.flux)] == [
            15_360, 15_360 + 16_384, 23_408 + 25_088]


@pytest.mark.parametrize("n", [1, 2, 3, 11, 32])
def test_interior_edges_are_a_permutation(n):
    # The multipliers left to SuperLU list each interior edge on a macro
    # boundary once: the edges whose midpoint lies on an even grid line.
    # Every other interior edge is a diagonal or inside a macro.
    mesh = build_structured_unit_square(n)
    skeleton = assemble_forms(mesh).hybrid.skeleton_edges
    interior = np.setdiff1d(np.arange(mesh.num_edges), mesh.boundary_edges)
    keys = np.rint(2 * n * mesh.edge_midpoints[interior]).astype(int)
    np.testing.assert_array_equal(
        np.sort(skeleton), interior[(keys % 4 == 0).any(axis=1)])
    assert skeleton.size == _num_skeleton(n)


@pytest.mark.parametrize("n, size, dissection, minimum_degree", [
    (32, 960, 41_408, 46_160),
    (64, 3_968, 226_176, 271_392),
])
def test_dissection_fills_less_than_minimum_degree(n, size, dissection,
                                                    minimum_degree):
    # Newton's condensed matrix factorized in dissection order, against
    # SuperLU's minimum degree ordering of the same matrix with the
    # skeleton edges in index order.
    forms = assemble_forms(build_structured_unit_square(n))
    system = assemble(forms, _newton_weights(forms, 1e-4), 0.05)
    lu = factorize(system).lu
    by_index = np.argsort(forms.hybrid.skeleton_edges)
    mmd = spla.splu(system.reduced[by_index][:, by_index].tocsc(),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    assert lu.shape == (size, size)
    assert lu.L.nnz + lu.U.nnz == dissection
    assert mmd.L.nnz + mmd.U.nnz == minimum_degree


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


@pytest.mark.parametrize("n", [3, 5, 6])
def test_condensed_matrix_is_schur_complement_of_hybridized(n):
    # Condensing the diagonals and the inner crosses leaves the Schur
    # complement of the whole hybridized matrix on the skeleton, and the
    # solve matches the uncondensed one; odd n has partial macros.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(12 + n)
    weights = rng.uniform(0.0, 3.0, size=forms.num_cells)
    weights[rng.random(forms.num_cells) < 0.5] = 0.0
    system = assemble(forms, weights, 0.05)
    matrix, interior, solve_with = _uncondensed_hybrid(forms, weights, 0.05)
    keep = np.searchsorted(interior, forms.hybrid.skeleton_edges)
    drop = np.setdiff1d(np.arange(interior.size), keep)
    schur = (matrix[np.ix_(keep, keep)] - matrix[np.ix_(keep, drop)]
             @ np.linalg.solve(matrix[np.ix_(drop, drop)],
                               matrix[np.ix_(drop, keep)]))
    np.testing.assert_allclose(system.reduced.toarray(), schur, rtol=0,
                               atol=1e-12 * np.abs(schur).max())
    fact = factorize(system)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    u, q = solve(fact, rhs_s, rhs_f)
    u_ref, q_ref = solve_with(rhs_s, rhs_f)
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-12)
    # A system assembled anew solves to the same bits.
    again = solve(factorize(assemble(forms, weights, 0.05)), rhs_s, rhs_f)
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
    system = assemble(forms, weights, tau)
    fact = factorize(system)
    assert fact.lu.shape[0] == _num_skeleton(n)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    u, q = solve(fact, rhs_s, rhs_f)
    assert residual_norm(system, u, q, rhs_s, rhs_f) < 1e-10
    dense = np.linalg.solve(system.matrix.toarray(),
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
    system = assemble(forms, weights, tau)
    fact = factorize(system)
    # The factorized size depends on neither which cells are dry nor
    # whether any is.
    assert fact.lu.shape[0] == _num_skeleton(n)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    u, q = solve(fact, rhs_s, rhs_f)
    assert residual_norm(system, u, q, rhs_s, rhs_f) < 1e-10


def test_repeated_solves_bit_identical(forms2):
    system = assemble(forms2, 0.7, 0.25)
    fact = factorize(system)
    rng = np.random.default_rng(2)
    rhs_s = rng.normal(size=system.num_cells)
    rhs_f = rng.normal(size=system.num_edges)
    u1, q1 = solve(fact, rhs_s, rhs_f)
    u2, q2 = solve(fact, rhs_s, rhs_f)
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
        solve(fact, np.zeros(3), np.zeros(5))
    with pytest.raises(ValueError):
        solve(fact, np.zeros(2), np.zeros(4))


def test_discrete_integration_by_parts():
    # Any solve enforces the flux equation M q - B^T u = g exactly, which
    # is the discrete integration-by-parts identity against every test
    # flux (g carries the Dirichlet boundary term).
    mesh = build_structured_unit_square(3)
    forms = assemble_forms(mesh, -0.5)
    system = assemble(forms, 2.0, 0.3)
    fact = factorize(system)
    rng = np.random.default_rng(8)
    u, q = solve(fact, rng.normal(size=forms.num_cells),
                 forms.dirichlet_functional)
    identity = (forms.flux_mass @ q - forms.divergence.T @ u
                - forms.dirichlet_functional)
    assert np.abs(identity).max() < 1e-11
