"""Shared independent oracles for the test suite.

These deliberately avoid the package's own quadrature choices: the mass
matrix oracle integrates with a 7-point degree-5 rule rather than the
implementation's edge-midpoint rule.  The saddle-system oracles build
the full block matrix and the skeleton matrix from an assembled system,
and solve with any flux right-hand side.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sps

from degenmfem.linear_system import assemble, factorize, flux, solve


def degree5_triangle_rule():
    """7-point symmetric quadrature rule, exact through degree 5."""
    s15 = np.sqrt(15.0)
    a = (6.0 - s15) / 21.0
    b = (6.0 + s15) / 21.0
    wa = (155.0 - s15) / 1200.0
    wb = (155.0 + s15) / 1200.0
    bary = [(1 / 3, 1 / 3, 1 / 3)]
    weights = [9.0 / 40.0]
    for p, w in [(a, wa), (b, wb)]:
        bary += [(p, p, 1 - 2 * p), (p, 1 - 2 * p, p), (1 - 2 * p, p, p)]
        weights += [w, w, w]
    return np.array(bary), np.array(weights)


def brute_force_flux_mass(mesh):
    """Dense lowest-order Raviart-Thomas mass matrix via the degree-5 rule."""
    bary, weights = degree5_triangle_rule()
    M = np.zeros((mesh.num_edges, mesh.num_edges))
    for c in range(mesh.num_cells):
        verts = mesh.vertices[mesh.cells[c]]
        area = mesh.cell_areas[c]
        qpts = bary @ verts
        basis = np.empty((3, len(weights), 2))
        for k in range(3):
            opposite = verts[(k + 2) % 3]
            sign = mesh.cell_edge_signs[c, k]
            basis[k] = sign / (2.0 * area) * (qpts - opposite)
        for k in range(3):
            for l in range(3):
                val = area * np.sum(
                    weights * np.sum(basis[k] * basis[l], axis=1)
                )
                M[mesh.cell_edges[c, k], mesh.cell_edges[c, l]] += val
    return M


def block_matrix(system):
    """The full block matrix [[D, tau B], [-B^T, M]] of a saddle system."""
    forms = system.forms
    return sps.bmat(
        [
            [sps.diags(system.weights * forms.scalar_mass),
             system.tau * forms.divergence],
            [-forms.divergence.T, forms.flux_mass],
        ],
        format="csc",
    )


def residual_norm(system, u, q, rhs_scalar) -> float:
    """Relative residual of the full block system for a candidate
    solution; the flux right-hand side is the forms' Dirichlet
    functional, as in every solve."""
    rhs = np.concatenate([rhs_scalar, system.forms.dirichlet_functional])
    r = block_matrix(system) @ np.concatenate([u, q]) - rhs
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (denom if denom > 0.0 else 1.0))


def skeleton_matrix(system):
    """The symmetric skeleton matrix, sparse, summed from the upper
    triangles of the macros' Schur blocks (``reduced``) at their skeleton
    numbers."""
    hybrid = system.forms.hybrid
    nsk = hybrid.skeleton_edges.size
    number = hybrid.macro_multiplier.T
    a, b = np.triu_indices(number.shape[1])
    rows, cols = number[:, a].ravel(), number[:, b].ravel()
    values = system.reduced[:, a, b].ravel()
    keep = (rows < nsk) & (cols < nsk)
    rows, cols, values = rows[keep], cols[keep], values[keep]
    off = rows != cols
    return sps.coo_matrix(
        (np.append(values, values[off]),
         (np.append(rows, cols[off]), np.append(cols, rows[off]))),
        shape=(nsk, nsk)).tocsr()


def solve_general_flux(forms, weights, tau, rhs_scalar, rhs_flux):
    """Assemble, factorize and solve the block system with any flux
    right-hand side: the solve takes the forms' Dirichlet functional, so
    the system is assembled on forms that carry ``rhs_flux`` as theirs.
    Returns the factorization and (u, q), q from ``flux`` for a constant
    weight.
    """
    fact = factorize(assemble(replace(forms, dirichlet_functional=rhs_flux),
                              weights, tau))
    return (fact, *solve_with_flux(fact, rhs_scalar))


def solve_with_flux(fact, rhs_scalar):
    """(u, q) of a solve, q formed by ``flux`` from the unknowns a
    constant-weight solve returns in its place."""
    u, q = solve(fact, rhs_scalar)
    return u, q if fact.system.operators is None else flux(fact, q)
