"""Shared independent oracles for the test suite.

These deliberately avoid the package's own quadrature choices: the mass
matrix oracle integrates with a 7-point degree-5 rule rather than the
implementation's edge-midpoint rule.  The saddle-system oracles build
the full block matrix and the skeleton matrix from an assembled system,
and solve with any flux right-hand side.  The theory oracles state the
convergence theorem's one-iteration bound, the regularization's
Lipschitz constants and gap bound, the edges' lengths and normals, an
RT0 interpolant and the discretization error of a reference series; no
run of the package calls them.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sps

import degenmfem.schemes as schemes
from degenmfem.benchmark import DEFAULT_SOLUTION
from degenmfem.fem import l2_norm_scalar, project_scalar
from degenmfem.linear_system import assemble, factorize, flux, solve
from degenmfem.theory import c_alpha, contraction_factor


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


def record_fluxes(monkeypatch):
    """Wrap ``schemes.solve`` so that every constant-weight solve also
    forms its iterate's q by ``flux``; returns the list they go to, in
    solve order.  The step loop records no flux of its own."""
    fluxes, solve = [], schemes.solve

    def solve_forming_flux(fact, rhs_scalar):
        u, x = solve(fact, rhs_scalar)
        fluxes.append(flux(fact, x))
        return u, x

    monkeypatch.setattr(schemes, "solve", solve_forming_flux)
    return fluxes


def per_iteration_accumulation(delta, tau, spec):
    """The additive term 2 C(alpha) R delta^(2/(1-alpha)) of one iteration."""
    r = contraction_factor(delta, tau)
    return 2.0 * c_alpha(spec) * r * delta ** (2.0 / (1.0 - spec.alpha))


def theorem_bound_monitor(u_errors, flux_errors, delta, tau, spec,
                          slack=1e-7):
    """Check the one-iteration error inequality along a recorded history.

    ``u_errors`` holds the scalar error norms against the reference for
    the initial guess and every iterate (length k+1); ``flux_errors``
    holds the flux error norms of the iterates (length k).  Iteration i
    satisfies the bound when

        e_u[i]^2 + tau delta R e_q[i]^2
            <= R e_u[i-1]^2 + 2 C(alpha) R delta^(2/(1-alpha)) + slack,

    the absolute slack absorbing the reference-solution error.  Returns
    one boolean per iteration; violations are reported, not raised.
    """
    if len(flux_errors) != len(u_errors) - 1:
        raise ValueError("flux_errors must have one entry per iteration")
    r = contraction_factor(delta, tau)
    accumulation = per_iteration_accumulation(delta, tau, spec)
    checks = []
    for i in range(1, len(u_errors)):
        lhs = u_errors[i] ** 2 + tau * delta * r * flux_errors[i - 1] ** 2
        rhs = r * u_errors[i - 1] ** 2 + accumulation + slack
        checks.append(bool(lhs <= rhs))
    return checks


def lipschitz_constants(spec):
    """Return (L_beps, L_beps_prime) for a RegularizationSpec.

    The linear kind has L_beps = eps^(alpha-1) and
    L_beps_prime = alpha (1-alpha) eps^(alpha-2).  The quadratic kind is
    steepest at 0+, giving L_beps = (2-alpha) eps^(alpha-1), and its
    b'_eps has maximal slope 2 (1-alpha) eps^(alpha-2) inside the
    regularization interval.  A shift adds itself to L_beps.
    """
    alpha, eps = spec.base.alpha, spec.epsilon
    if spec.kind == "linear":
        l_beps = eps ** (alpha - 1.0)
        l_prime = alpha * (1.0 - alpha) * eps ** (alpha - 2.0)
    else:
        l_beps = (2.0 - alpha) * eps ** (alpha - 1.0)
        l_prime = 2.0 * (1.0 - alpha) * eps ** (alpha - 2.0)
    return float(l_beps + spec.shift), float(l_prime)


def regularization_gap_bound(spec):
    """Upper bound (1-alpha) alpha^(alpha/(1-alpha)) eps^alpha on b - b_eps.

    Exact for the linear kind; the quadratic kind satisfies the same
    bound (its gap is pointwise no larger), which the tests verify
    numerically.  Zero in the Lipschitz case alpha = 1.
    """
    alpha, eps = spec.base.alpha, spec.epsilon
    if alpha == 1.0:
        return 0.0
    return (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha)) * eps**alpha


def edge_geometry(mesh):
    """Each edge's length and its global unit normal, the outward normal
    of its lowest-numbered cell: from that cell into the other one, or out
    of the domain."""
    ends = mesh.vertices[mesh.edges]
    lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    normals = np.empty((mesh.num_edges, 2))
    for c in reversed(range(mesh.num_cells)):   # the lowest cell writes last
        pts = mesh.vertices[mesh.cells[c]]
        for k in range(3):
            tx, ty = pts[(k + 1) % 3] - pts[k]
            normals[mesh.cell_edges[c, k]] = (ty, -tx) / np.hypot(tx, ty)
    return lengths, normals


def interpolate_flux(mesh, vector_func):
    """Interpolate a vector field into RT0 via edge-midpoint normal fluxes.

    ``vector_func(x, y)`` must return the two components; the degree of
    freedom is  v(midpoint) . n_E  |E|,  exact for fields with linear
    normal components along each edge (constants in particular).
    """
    mx, my = mesh.edge_midpoints[:, 0], mesh.edge_midpoints[:, 1]
    vx, vy = vector_func(mx, my)
    vx = np.broadcast_to(np.asarray(vx, dtype=float), (mesh.num_edges,))
    vy = np.broadcast_to(np.asarray(vy, dtype=float), (mesh.num_edges,))
    lengths, normals = edge_geometry(mesh)
    return (vx * normals[:, 0] + vy * normals[:, 1]) * lengths


def discretization_error(mesh, reference_results):
    """L2 distance of the final reference step to the exact solution at
    barycenters (used for the mesh-refinement sanity check)."""
    final = reference_results[-1]
    exact = project_scalar(
        mesh, lambda x, y: DEFAULT_SOLUTION.exact(final.t, x, y))
    return l2_norm_scalar(mesh, final.u - exact)
