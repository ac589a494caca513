import numpy as np
import pytest

from degenmfem.fem import (
    assemble_forms,
    l2_norm_flux,
    l2_norm_scalar,
    project_scalar,
)
from degenmfem.mesh import build_structured_unit_square


from oracle_utils import brute_force_flux_mass, interpolate_flux


@pytest.mark.parametrize("n", [1, 2])
def test_flux_mass_matches_quadrature_oracle(n):
    mesh = build_structured_unit_square(n)
    forms = assemble_forms(mesh)
    oracle = brute_force_flux_mass(mesh)
    np.testing.assert_allclose(forms.flux_mass.toarray(), oracle,
                               rtol=0, atol=1e-12)


def test_diagonal_edge_self_pairing_n1():
    # At n=1 the diagonal basis function is +-(x - P) on each triangle;
    # integral of |phi|^2 over both triangles is 1/6 + 1/6 = 1/3.
    mesh = build_structured_unit_square(1)
    forms = assemble_forms(mesh)
    diag_edge = 4  # horizontals (2), verticals (2), then the diagonal
    np.testing.assert_allclose(mesh.vertices[mesh.edges[diag_edge]],
                               [[0, 0], [1, 1]])
    assert forms.flux_mass[diag_edge, diag_edge] == pytest.approx(1.0 / 3.0,
                                                                  abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_flux_mass_symmetric_positive_definite(n):
    mesh = build_structured_unit_square(n)
    M = assemble_forms(mesh).flux_mass.toarray()
    np.testing.assert_allclose(M, M.T, atol=1e-15)
    eigenvalues = np.linalg.eigvalsh(M)
    assert eigenvalues.min() > 0


@pytest.mark.parametrize("n", [1, 2, 4])
def test_constant_fields_are_divergence_free(n):
    mesh = build_structured_unit_square(n)
    forms = assemble_forms(mesh)
    rng = np.random.default_rng(7)
    for _ in range(3):
        cx, cy = rng.normal(size=2)
        q = interpolate_flux(mesh, lambda x, y: (cx, cy))
        np.testing.assert_allclose(forms.divergence @ q, 0.0, atol=1e-13)
    q = interpolate_flux(mesh, lambda x, y: (1.0, 0.0))
    np.testing.assert_allclose(forms.divergence @ q, 0.0, atol=1e-14)


def test_divergence_of_linear_field():
    # div(x, y) = 2, so (B q)_T must equal 2 |T| for the interpolant.
    mesh = build_structured_unit_square(3)
    forms = assemble_forms(mesh)
    q = interpolate_flux(mesh, lambda x, y: (x, y))
    np.testing.assert_allclose(forms.divergence @ q, 2.0 * mesh.cell_areas,
                               atol=1e-14)


def test_dirichlet_functional_zero_trace():
    mesh = build_structured_unit_square(1)
    forms = assemble_forms(mesh, 0.0)
    np.testing.assert_array_equal(forms.dirichlet_functional, 0.0)


def test_dirichlet_functional_constant_trace():
    mesh = build_structured_unit_square(2)
    forms = assemble_forms(mesh, -0.5)
    g = forms.dirichlet_functional
    boundary = mesh.boundary_edges
    np.testing.assert_allclose(g[boundary], 0.5)
    interior = np.setdiff1d(np.arange(mesh.num_edges), boundary)
    np.testing.assert_array_equal(g[interior], 0.0)


def test_project_scalar():
    mesh = build_structured_unit_square(1)
    np.testing.assert_array_equal(project_scalar(mesh, lambda x, y: 1.0), 1.0)
    u = project_scalar(mesh, lambda x, y: x)
    # Cell 0 is (0,0),(1,0),(1,1): barycenter x = 2/3.
    assert u[0] == pytest.approx(2.0 / 3.0)
    ux = project_scalar(mesh, lambda x, y: x)
    uy = project_scalar(mesh, lambda x, y: y)
    uxy = project_scalar(mesh, lambda x, y: x + y)
    np.testing.assert_allclose(uxy, ux + uy, atol=1e-15)


def test_scalar_norm_values():
    mesh = build_structured_unit_square(4)
    assert l2_norm_scalar(mesh, np.ones(mesh.num_cells)) == pytest.approx(1.0)
    for c in (-3.0, 0.25):
        assert l2_norm_scalar(mesh, np.full(mesh.num_cells, c)) == \
            pytest.approx(abs(c))


def test_flux_norm_values():
    mesh = build_structured_unit_square(2)
    forms = assemble_forms(mesh)
    assert l2_norm_flux(forms, np.zeros(mesh.num_edges)) == 0.0
    # Constant field (1, 0) has L2 norm 1 on the unit square.
    q = interpolate_flux(mesh, lambda x, y: (1.0, 0.0))
    assert l2_norm_flux(forms, q) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_norm_properties_random_fields(n):
    mesh = build_structured_unit_square(n)
    forms = assemble_forms(mesh)
    rng = np.random.default_rng(123)
    for _ in range(10):
        u = rng.normal(size=mesh.num_cells)
        v = rng.normal(size=mesh.num_cells)
        s = rng.normal()
        assert l2_norm_scalar(mesh, s * u) == pytest.approx(
            abs(s) * l2_norm_scalar(mesh, u), rel=1e-12, abs=1e-12)
        assert l2_norm_scalar(mesh, u + v) <= (
            l2_norm_scalar(mesh, u) + l2_norm_scalar(mesh, v) + 1e-12)
        q = rng.normal(size=mesh.num_edges)
        r = rng.normal(size=mesh.num_edges)
        assert l2_norm_flux(forms, s * q) == pytest.approx(
            abs(s) * l2_norm_flux(forms, q), rel=1e-12, abs=1e-12)
        assert l2_norm_flux(forms, q + r) <= (
            l2_norm_flux(forms, q) + l2_norm_flux(forms, r) + 1e-12)


def test_norm_shape_validation():
    mesh = build_structured_unit_square(2)
    forms = assemble_forms(mesh)
    with pytest.raises(ValueError):
        l2_norm_scalar(mesh, np.zeros(3))
    with pytest.raises(ValueError):
        l2_norm_flux(forms, np.zeros(3))
