"""Lowest-order Raviart-Thomas / piecewise-constant mixed discretization.

Field conventions
-----------------
Scalar fields live in the piecewise-constant space: one value per cell,
stored as a plain ``(num_cells,)`` array.  Flux fields live in the
lowest-order Raviart-Thomas space: one degree of freedom per edge, the
integrated normal flux  int_E q . n  with respect to the global edge
normal, stored as a ``(num_edges,)`` array.  Normal-component continuity
across interior edges is automatic because a single value is stored per
edge.

With this normalization the basis function of edge E restricted to an
adjacent triangle T is  phi_E(x) = s / (2|T|) (x - P_E),  where P_E is
the vertex of T opposite E and s the outward-normal sign, so its
divergence is the constant s / |T| and the divergence matrix B has
entries B_{TE} = s in {-1, +1}.

Quadrature: flux-mass entries use the 3-point edge-midpoint rule, which
is exact for the quadratic integrands of RT0 pairings; scalar
projections use the one-point barycenter rule.  Dirichlet data, a
constant trace, enters the flux equation as a natural boundary
functional.

``AssembledForms`` is immutable after assembly and safe to share between
threads; assembly itself is single-threaded.  It caches the mesh-only
operators of the hybridized system and the Dirichlet functional's terms
of its per-call solve, which ``linear_system`` defines and builds on
first use.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps

from degenmfem.mesh import Mesh


@dataclass(frozen=True)
class AssembledForms:
    """Discrete operators of the mixed method on one mesh.

    Attributes
    ----------
    mesh : Mesh
    scalar_mass : (num_cells,) array
        Diagonal scalar mass, the cell areas |T|.
    flux_mass : sparse (num_edges, num_edges) symmetric positive definite
        Raviart-Thomas mass matrix M with M_{EF} = <phi_E, phi_F>.
    divergence : sparse (num_cells, num_edges)
        B with B_{TE} = <div phi_E, 1_T> = s_{T,E}; (B q)_T is the net
        outflow of q through the boundary of T.
    dirichlet_functional : (num_edges,) array
        g with g_E = -int_{E} g_D phi_E . n on boundary edges, 0 inside,
        so the discrete flux equation reads  M q - B^T u = g.  It is the
        flux right-hand side of every ``linear_system.solve``.
    local_mass : (num_cells, 3, 3) array
        The per-cell blocks M_T of M, in the cell's local edge order.
    """

    mesh: Mesh
    scalar_mass: np.ndarray
    flux_mass: sps.csr_matrix
    divergence: sps.csr_matrix
    dirichlet_functional: np.ndarray
    local_mass: np.ndarray

    @property
    def num_cells(self) -> int:
        return self.mesh.num_cells

    @property
    def num_edges(self) -> int:
        return self.mesh.num_edges

    @cached_property
    def hybrid(self) -> "HybridOperators":
        """``linear_system.hybrid_operators``, built once per mesh."""
        from degenmfem.linear_system import hybrid_operators
        return hybrid_operators(self)

    @cached_property
    def dirichlet_terms(self) -> tuple:
        """``linear_system.dirichlet_terms``, built once per forms."""
        from degenmfem.linear_system import dirichlet_terms
        return dirichlet_terms(self)


def assemble_forms(mesh: Mesh, g_dirichlet=0.0) -> AssembledForms:
    """Assemble mass, divergence and boundary operators on a mesh.

    Parameters
    ----------
    mesh : Mesh
    g_dirichlet : float
        Constant Dirichlet trace of the scalar unknown on the domain
        boundary.
    """
    nc, ne = mesh.num_cells, mesh.num_edges
    pts = mesh.vertices[mesh.cells]              # (nc, 3, 2)
    areas = mesh.cell_areas                      # (nc,)
    signs = mesh.cell_edge_signs.astype(float)   # (nc, 3)

    # Local edge k joins local vertices k and (k+1)%3; opposite vertex is
    # (k+2)%3.  Quadrature nodes are the three edge midpoints.
    midpoints = 0.5 * (pts + np.roll(pts, -1, axis=1))   # (nc, 3, 2)
    opposite = np.roll(pts, -2, axis=1)                  # (nc, 3, 2)

    # phi[c, k, m, :] = basis of local edge k at quadrature node m.
    phi = (
        signs[:, :, None, None]
        * (midpoints[:, None, :, :] - opposite[:, :, None, :])
        / (2.0 * areas)[:, None, None, None]
    )
    local_mass = np.einsum("ckmd,clmd->ckl", phi, phi) * (areas / 3.0)[:, None, None]

    rows = np.repeat(mesh.cell_edges, 3, axis=1).ravel()
    cols = np.tile(mesh.cell_edges, (1, 3)).ravel()
    flux_mass = sps.coo_matrix(
        (local_mass.ravel(), (rows, cols)), shape=(ne, ne)
    ).tocsr()

    divergence = sps.coo_matrix(
        (
            signs.ravel(),
            (np.repeat(np.arange(nc), 3), mesh.cell_edges.ravel()),
        ),
        shape=(nc, ne),
    ).tocsr()

    g = np.zeros(ne)
    g[mesh.boundary_edges] = -float(g_dirichlet)
    g.flags.writeable = False
    local_mass.flags.writeable = False

    return AssembledForms(mesh, areas, flux_mass, divergence, g, local_mass)


def project_scalar(mesh: Mesh, func) -> np.ndarray:
    """Project a pointwise function onto piecewise constants.

    Uses the barycenter value of each cell (midpoint quadrature of the
    cell average), which reproduces constants and linear functions'
    cell averages exactly.
    """
    bx, by = mesh.cell_barycenters[:, 0], mesh.cell_barycenters[:, 1]
    vals = np.asarray(func(bx, by), dtype=float)
    if vals.ndim == 0:
        vals = np.full(mesh.num_cells, float(vals))
    return vals


def l2_norm_scalar(mesh: Mesh, u: np.ndarray) -> float:
    """L2(Omega) norm of a piecewise-constant field."""
    u = np.asarray(u)
    if u.shape != (mesh.num_cells,):
        raise ValueError(f"expected shape ({mesh.num_cells},), got {u.shape}")
    return float(np.sqrt(np.dot(mesh.cell_areas, u * u)))


def l2_norm_flux(forms: AssembledForms, q: np.ndarray) -> float:
    """L2(Omega) norm of an RT0 field, sqrt(q^T M q)."""
    q = np.asarray(q)
    if q.shape != (forms.num_edges,):
        raise ValueError(f"expected shape ({forms.num_edges},), got {q.shape}")
    val = float(q @ (forms.flux_mass @ q))
    return float(np.sqrt(max(val, 0.0)))
