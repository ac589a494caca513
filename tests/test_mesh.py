import numpy as np
import pytest

from degenmfem.mesh import build_structured_unit_square
from oracle_utils import edge_geometry


@pytest.mark.parametrize(
    "n,nv,ne,nc",
    [
        (1, 4, 5, 2),        # smallest mesh, counted by hand
        (2, 9, 16, 8),
        (32, 1089, 3136, 2048),
    ],
)
def test_entity_counts(n, nv, ne, nc):
    mesh = build_structured_unit_square(n)
    assert mesh.vertices.shape[0] == nv == (n + 1) ** 2
    assert mesh.num_edges == ne == 3 * n**2 + 2 * n
    assert mesh.num_cells == nc == 2 * n**2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_euler_formula(n):
    mesh = build_structured_unit_square(n)
    # V - E + F = 2 with the outer face counted.
    assert mesh.vertices.shape[0] - mesh.num_edges + (mesh.num_cells + 1) == 2


def test_invalid_n():
    with pytest.raises(ValueError):
        build_structured_unit_square(0)
    with pytest.raises(ValueError):
        build_structured_unit_square(-3)
    for n in (2.0, True, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            build_structured_unit_square(n)


def test_numbering_n2():
    # The numbering sets the fill-reducing ordering of every factorization,
    # and with it the last bits of every solve, so it is pinned exactly.
    mesh = build_structured_unit_square(2)
    np.testing.assert_array_equal(mesh.edges, [
        [0, 1], [1, 2], [3, 4], [4, 5], [6, 7], [7, 8],      # horizontals
        [0, 3], [1, 4], [2, 5], [3, 6], [4, 7], [5, 8],      # verticals
        [0, 4], [1, 5], [3, 7], [4, 8],                      # diagonals
    ])
    np.testing.assert_array_equal(mesh.cells, [
        [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
        [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7],
    ])
    np.testing.assert_array_equal(mesh.cell_edges, [
        [0, 7, 12], [12, 2, 6], [1, 8, 13], [13, 3, 7],
        [2, 10, 14], [14, 4, 9], [3, 11, 15], [15, 5, 10],
    ])
    for a in (mesh.edges, mesh.cells, mesh.cell_edges):
        assert a.dtype == np.int64


@pytest.mark.parametrize("n", [1, 2, 4])
def test_edge_sharing_and_signs(n):
    mesh = build_structured_unit_square(n)
    adjacency = [[] for _ in range(mesh.num_edges)]
    for c in range(mesh.num_cells):
        for k in range(3):
            adjacency[mesh.cell_edges[c, k]].append(mesh.cell_edge_signs[c, k])
    boundary = set(mesh.boundary_edges.tolist())
    for e, signs in enumerate(adjacency):
        if e in boundary:
            assert len(signs) == 1
            assert signs[0] == 1  # boundary normal is outward
        else:
            assert len(signs) == 2
            assert signs[0] * signs[1] == -1
    assert len(boundary) == 4 * n


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_areas_and_orientation(n):
    mesh = build_structured_unit_square(n)
    assert np.all(mesh.cell_areas > 0)  # CCW orientation
    np.testing.assert_allclose(mesh.cell_areas, 1.0 / (2 * n**2), rtol=1e-14)
    assert abs(mesh.cell_areas.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 4])
def test_closed_polygon_identity(n):
    # Outward unit normals scaled by edge lengths sum to zero per cell.
    mesh = build_structured_unit_square(n)
    lengths, normals = edge_geometry(mesh)
    for c in range(mesh.num_cells):
        total = np.zeros(2)
        for k in range(3):
            e = mesh.cell_edges[c, k]
            total += mesh.cell_edge_signs[c, k] * lengths[e] * normals[e]
        assert np.linalg.norm(total) < 1e-14


def test_normal_orientation_rule():
    # Interior normals point from the lower-numbered cell to the higher one.
    mesh = build_structured_unit_square(3)
    adjacency = [[] for _ in range(mesh.num_edges)]
    for c in range(mesh.num_cells):
        for k in range(3):
            adjacency[mesh.cell_edges[c, k]].append((c, mesh.cell_edge_signs[c, k]))
    for e, adj in enumerate(adjacency):
        if len(adj) == 2:
            (c_lo, s_lo), (c_hi, s_hi) = sorted(adj)
            assert c_lo < c_hi
            assert s_lo == 1 and s_hi == -1


def test_cell_geometry_values():
    mesh1 = build_structured_unit_square(1)
    assert mesh1.cell_areas[0] == pytest.approx(0.5)
    # Cell 0 has vertices (0,0), (1,0), (1,1).
    np.testing.assert_allclose(mesh1.vertices[mesh1.cells[0]],
                               [[0, 0], [1, 0], [1, 1]])
    np.testing.assert_allclose(mesh1.cell_barycenters[0],
                               [2.0 / 3.0, 1.0 / 3.0])
    lengths = sorted(edge_geometry(mesh1)[0][mesh1.cell_edges[0]])
    np.testing.assert_allclose(lengths, [1.0, 1.0, np.sqrt(2.0)])

    mesh2 = build_structured_unit_square(2)
    np.testing.assert_allclose(mesh2.cell_areas, 0.125)


def test_deterministic_rebuild():
    a = build_structured_unit_square(5)
    b = build_structured_unit_square(5)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.cell_edges, b.cell_edges)
    assert np.array_equal(a.cell_edge_signs, b.cell_edge_signs)


def test_mesh_is_immutable():
    mesh = build_structured_unit_square(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0
