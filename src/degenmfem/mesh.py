"""Structured conforming triangulations of the unit square.

The mesh is an n-by-n grid of squares, each split into two triangles by
the diagonal from the lower-left to the upper-right corner, so all cells
have area 1/(2n^2) and counterclockwise vertex order.

Edges carry a global orientation through their unit normal: for an
interior edge the normal points from the lower-numbered adjacent cell to
the higher-numbered one; boundary normals point out of the domain.  The
per-cell sign in ``cell_edge_signs`` converts the global normal into the
outward normal of that cell, so interior edges always get +1 from one
cell and -1 from the other.

Indices are deterministic functions of the grid position (edges are
enumerated horizontals, then verticals, then diagonals), so two builds
with the same n are bit-identical.  A ``Mesh`` is immutable after
construction and safe to share between threads.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the unit square with oriented edges.

    Attributes
    ----------
    n : int
        Subdivisions per side; the mesh size is h = 1/n.
    vertices : (nv, 2) float array
    edges : (ne, 2) int array
        Vertex index pairs.
    cells : (nc, 3) int array
        Vertex triples in counterclockwise order.
    cell_edges : (nc, 3) int array
        Edge indices; local edge k connects local vertices k and (k+1)%3.
    cell_edge_signs : (nc, 3) int array
        +1 where the global edge normal is outward for the cell, else -1.
    edge_midpoints : (ne, 2) float array
    boundary_edges : sorted int array of edges on the domain boundary
    cell_areas, cell_barycenters : per-cell geometry
    """

    n: int
    vertices: np.ndarray
    edges: np.ndarray
    cells: np.ndarray
    cell_edges: np.ndarray
    cell_edge_signs: np.ndarray
    edge_midpoints: np.ndarray
    boundary_edges: np.ndarray
    cell_areas: np.ndarray
    cell_barycenters: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]


def build_structured_unit_square(n: int) -> Mesh:
    """Build the uniform diagonal-split triangulation with n cells per side.

    Parameters
    ----------
    n : int
        Number of grid squares per side, n >= 1.

    Returns
    -------
    Mesh
        (n+1)^2 vertices, 3n^2 + 2n edges, 2n^2 triangles.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n = int(n)

    # Vertices: index j*(n+1) + i at (i/n, j/n).
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    vertices = np.column_stack([ii.ravel() / n, jj.ravel() / n]).astype(float)

    # Index grids addressed [j, i]: vertex (i, j) is vid[j, i]; the
    # edges are enumerated horizontals h[j, i] = j*n + i, then verticals,
    # then the diagonal of each square.
    vid = np.arange((n + 1) ** 2, dtype=np.int64).reshape(n + 1, n + 1)
    n_h = n * (n + 1)
    h_edge = np.arange(n_h, dtype=np.int64).reshape(n + 1, n)
    v_edge = n_h + np.arange(n_h, dtype=np.int64).reshape(n, n + 1)
    d_edge = 2 * n_h + np.arange(n * n, dtype=np.int64).reshape(n, n)
    ne = 2 * n_h + n * n

    edges = np.concatenate([
        np.stack([vid[:, :-1], vid[:, 1:]], axis=-1).reshape(-1, 2),
        np.stack([vid[:-1, :], vid[1:, :]], axis=-1).reshape(-1, 2),
        np.stack([vid[:-1, :-1], vid[1:, 1:]], axis=-1).reshape(-1, 2),
    ])

    # Cells: square (i,j) gives the lower triangle 2*(j*n+i) and the upper
    # triangle 2*(j*n+i)+1, both counterclockwise.
    v00, v10 = vid[:-1, :-1], vid[:-1, 1:]
    v01, v11 = vid[1:, :-1], vid[1:, 1:]
    cells = np.stack([np.stack([v00, v10, v11], axis=-1),
                      np.stack([v00, v11, v01], axis=-1)],
                     axis=2).reshape(-1, 3)
    cell_edges = np.stack(
        [np.stack([h_edge[:-1], v_edge[:, 1:], d_edge], axis=-1),
         np.stack([d_edge, h_edge[1:], v_edge[:, :-1]], axis=-1)],
        axis=2).reshape(-1, 3)

    # An edge's global normal is the outward normal of its first
    # occurrence in the cell-major ``cell_edges``, in the lowest-numbered
    # adjacent cell: its sign is +1 there and -1 in the other cell.
    _, first = np.unique(cell_edges.ravel(), return_index=True)
    cell_edge_signs = np.full(cell_edges.size, -1, dtype=np.int64)
    cell_edge_signs[first] = 1
    cell_edge_signs = cell_edge_signs.reshape(cell_edges.shape)

    boundary_edges = np.flatnonzero(
        np.bincount(cell_edges.ravel(), minlength=ne) == 1)

    ev = vertices[edges]
    edge_midpoints = 0.5 * (ev[:, 0, :] + ev[:, 1, :])

    pts = vertices[cells]                        # (nc, 3, 2)
    cross = (
        (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
        - (pts[:, 1, 1] - pts[:, 0, 1]) * (pts[:, 2, 0] - pts[:, 0, 0])
    )
    cell_areas = 0.5 * cross  # positive because cells are CCW
    cell_barycenters = pts.mean(axis=1)

    arrays = (
        vertices, edges, cells, cell_edges, cell_edge_signs, edge_midpoints,
        boundary_edges, cell_areas, cell_barycenters,
    )
    for a in arrays:
        a.flags.writeable = False

    return Mesh(n, *arrays)
