import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from degenmfem.benchmark import DEFAULT_SOLUTION
from degenmfem.fem import assemble_forms, project_scalar
from degenmfem.linear_system import (
    StaleFactorizationError,
    assemble,
    factorize,
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
    # matrix: with every weight positive the flux Schur complement on all
    # edges is factorized, otherwise the hybridized matrix on the
    # interior edges.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(100 + n)
    weights = _weights(pattern, forms, rng)
    system = assemble(forms, weights, 0.05)
    fact = factorize(system)
    num_interior = forms.num_edges - forms.mesh.boundary_edges.size
    assert fact.lu.shape[0] == (forms.num_edges if pattern == "positive"
                                else num_interior)
    rhs_s = rng.normal(size=forms.num_cells)
    rhs_f = rng.normal(size=forms.num_edges)
    u, q = solve(fact, rhs_s, rhs_f)
    dense = np.linalg.solve(system.matrix.toarray(),
                            np.concatenate([rhs_s, rhs_f]))
    np.testing.assert_allclose(u, dense[: forms.num_cells], atol=1e-9)
    np.testing.assert_allclose(q, dense[forms.num_cells:], atol=1e-9)


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


def test_hybrid_fill_matches_flux_schur_complement():
    # The hybridized matrix of Newton's weights fills no more than the
    # flux Schur complement of positive weights on the same mesh.
    forms = assemble_forms(build_structured_unit_square(11))

    def fill(weights):
        lu = factorize(assemble(forms, weights, 0.05)).lu
        return lu.L.nnz + lu.U.nnz

    assert fill(_newton_weights(forms, 1e-4)) <= 1.1 * fill(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 11, 32])
def test_interior_edges_are_a_permutation(n):
    mesh = build_structured_unit_square(n)
    interior = assemble_forms(mesh).hybrid.interior_edges
    np.testing.assert_array_equal(
        np.sort(interior),
        np.setdiff1d(np.arange(mesh.num_edges), mesh.boundary_edges))


@pytest.mark.parametrize("n, dissection, minimum_degree", [
    (32, 64_088, 72_550),
    (64, 318_332, 364_888),
])
def test_dissection_fills_less_than_minimum_degree(n, dissection,
                                                    minimum_degree):
    # Newton's hybridized matrix factorized in dissection order, against
    # SuperLU's minimum degree ordering of the same matrix with the
    # interior edges in index order.
    forms = assemble_forms(build_structured_unit_square(n))
    system = assemble(forms, _newton_weights(forms, 1e-4), 0.05)
    lu = factorize(system).lu
    by_index = np.argsort(forms.hybrid.interior_edges)
    mmd = spla.splu(system.reduced[by_index][:, by_index].tocsc(),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    assert lu.L.nnz + lu.U.nnz == dissection
    assert mmd.L.nnz + mmd.U.nnz == minimum_degree


def test_hybrid_solve_matches_batched_formulation():
    # The cell-by-cell recovery as batched einsum over (cell, local edge)
    # blocks and a bincount onto the edges: the solve gives the same bits.
    forms = assemble_forms(build_structured_unit_square(5), -0.5)
    mesh, hybrid = forms.mesh, forms.hybrid
    nc, ne = forms.num_cells, forms.num_edges
    rng = np.random.default_rng(12)
    weights = rng.uniform(0.0, 3.0, size=nc)
    weights[rng.random(nc) < 0.5] = 0.0
    tau = 0.05
    system = assemble(forms, weights, tau)
    fact = factorize(system)
    rhs_s = rng.normal(size=nc)
    rhs_f = rng.normal(size=ne)

    signs, m, v = (np.ascontiguousarray(a.T)
                   for a in (hybrid.signs, hybrid.m, hybrid.v))
    minv = np.ascontiguousarray(hybrid.minv.transpose(2, 0, 1))
    den = system.den
    _, owner = np.unique(mesh.cell_edges.ravel(), return_index=True)
    rho = np.zeros(3 * nc)
    rho[owner] = rhs_f
    m_rho = np.einsum("ckl,cl->ck", minv, rho.reshape(nc, 3))
    u0 = (rhs_s - tau * np.einsum("ck,ck->c", signs, m_rho)) / den
    local_rhs = signs * m_rho + v * u0[:, None]
    rhs = np.bincount(mesh.cell_edges.ravel(), weights=local_rhs.ravel(),
                      minlength=ne)[hybrid.interior_edges]
    lam = np.zeros(ne)
    lam[hybrid.interior_edges] = fact.lu.solve(rhs)
    lam = lam[mesh.cell_edges]
    u_ref = u0 + tau * np.einsum("ck,ck->c", v, lam) / den
    q_ref = (m_rho + m * u_ref[:, None]
             - np.einsum("ckl,cl->ck", minv, signs * lam)).ravel()[owner]

    u, q = solve(fact, rhs_s, rhs_f)
    np.testing.assert_array_equal(u, u_ref)
    np.testing.assert_array_equal(q, q_ref)


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
    # The factorized size depends on whether a cell is dry, not on which.
    num_interior = forms.num_edges - forms.mesh.boundary_edges.size
    assert fact.lu.shape[0] == (num_interior if np.any(weights == 0.0)
                                else forms.num_edges)
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
