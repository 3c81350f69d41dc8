import math

import numpy as np
import pytest
import scipy.sparse as sp

from bubblemesh.conformal import _conformal_operator, conformal_factors, flatten
from bubblemesh.mesh import MeshError, PlanarMesh, TriangleMesh
from bubblemesh.surfaces import cylinder_patch, plane

from conftest import annulus_mesh, cap_mesh, grid_mesh_on_surface


def dict_conformal_operator(mesh, loop):
    """The conformal energy's operator assembled face by face: each edge's
    cotangent weight summed in a dict, then four entries per edge and
    coordinate block and four per boundary-loop edge. The reference for
    `conformal._conformal_operator`."""
    v = mesh.vertices.tolist()
    weights = {}
    for face in mesh.faces.tolist():
        for corner in range(3):
            a, i, j = (face[(corner + k) % 3] for k in range(3))
            e1 = [v[i][d] - v[a][d] for d in range(3)]
            e2 = [v[j][d] - v[a][d] for d in range(3)]
            cross = math.sqrt((e1[1] * e2[2] - e1[2] * e2[1]) ** 2
                              + (e1[2] * e2[0] - e1[0] * e2[2]) ** 2
                              + (e1[0] * e2[1] - e1[1] * e2[0]) ** 2)
            cot = sum(p * q for p, q in zip(e1, e2)) / max(cross, 1e-300)
            key = (min(i, j), max(i, j))
            weights[key] = weights.get(key, 0.0) + 0.5 * cot
    n = mesh.n_vertices
    entries = []
    for (i, j), w in weights.items():
        for off in (0, n):
            entries += [(i + off, j + off, -w), (j + off, i + off, -w),
                        (i + off, i + off, w), (j + off, j + off, w)]
    for k, i in enumerate(loop):
        j = loop[(k + 1) % len(loop)]
        entries += [(i, j + n, -0.5), (j + n, i, -0.5), (j, i + n, 0.5), (i + n, j, 0.5)]
    rows, cols, vals = zip(*entries)
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()


@pytest.fixture(scope="module")
def planar_input():
    return grid_mesh_on_surface(plane(0.0, 2.0, 0.0, 1.0), 9, 5)


@pytest.fixture(scope="module")
def cylinder_input():
    return grid_mesh_on_surface(cylinder_patch(1.0, 0.0, 0.9 * np.pi, 0.0, 2.0), 25, 12)


class TestFlattenPlanar:
    def test_angles_preserved(self, planar_input):
        result = flatten(planar_input)
        dev = np.abs(planar_input.face_corner_angles() - result.flat.face_corner_angles())
        assert np.radians(dev).max() < 1e-9

    def test_congruent_up_to_rigid_motion(self, planar_input):
        result = flatten(planar_input)
        edges = planar_input.undirected_edges()
        l3 = np.linalg.norm(planar_input.vertices[edges[:, 0]]
                            - planar_input.vertices[edges[:, 1]], axis=1)
        l2 = np.linalg.norm(result.flat.vertices[edges[:, 0]]
                            - result.flat.vertices[edges[:, 1]], axis=1)
        assert np.allclose(l2, l3, rtol=1e-9)

    def test_area_normalized_and_centered(self, planar_input):
        result = flatten(planar_input)
        assert result.flat.signed_areas().sum() == pytest.approx(
            float(planar_input.face_areas().sum()), rel=1e-9)
        assert np.allclose(result.flat.vertices.mean(axis=0), 0.0, atol=1e-9)

    def test_connectivity_preserved(self, planar_input):
        result = flatten(planar_input)
        assert np.array_equal(result.flat.faces, planar_input.faces)

    def test_orientation_positive(self, planar_input):
        result = flatten(planar_input)
        assert np.all(result.flat.signed_areas() > 0.0)


class TestFlattenCylinder:
    def test_quasi_conformal_distortion(self, cylinder_input):
        result = flatten(cylinder_input)
        assert result.max_distortion < 1.01

    def test_angle_error_bound(self, cylinder_input):
        result = flatten(cylinder_input)
        dev = np.abs(cylinder_input.face_corner_angles()
                     - result.flat.face_corner_angles())
        assert dev.max() < 0.5


class TestFlattenCap:
    def test_distortion_decreases_under_refinement(self):
        coarse = flatten(cap_mesh(rings=6))
        fine = flatten(cap_mesh(rings=12))
        assert fine.qc_distortion.mean() < coarse.qc_distortion.mean()

    def test_distortion_at_least_one(self):
        result = flatten(cap_mesh(rings=6))
        assert np.all(result.qc_distortion >= 1.0)

    def test_edge_scale_consistency(self):
        result = flatten(cap_mesh(rings=8))
        mesh = cap_mesh(rings=8)
        edges, factors = conformal_factors(mesh, result.flat)
        assert np.array_equal(edges, result.edges)
        assert np.allclose(factors, result.edge_scale, rtol=1e-12)


class TestFlattenErrors:
    def test_rejects_non_disk(self):
        with pytest.raises(MeshError, match="disk"):
            flatten(annulus_mesh())

    def test_rejects_degenerate_face(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                          [0.5, 1.0, 0.0]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 3], [0, 1, 2]]))
        with pytest.raises(MeshError):
            flatten(mesh)


class TestConformalOperator:
    @pytest.mark.parametrize("make", [
        lambda: grid_mesh_on_surface(plane(0.0, 2.0, 0.0, 1.0), 9, 5),
        lambda: grid_mesh_on_surface(cylinder_patch(1.0, 0.0, 0.9 * np.pi, 0.0, 2.0), 25, 12),
        lambda: cap_mesh(rings=8),
    ], ids=["plane", "cylinder", "cap"])
    def test_matches_dict_assembly(self, make):
        self.check(make())

    def test_matches_dict_assembly_on_sphere_workload(self, sphere_workload_mesh):
        self.check(sphere_workload_mesh)

    @staticmethod
    def check(mesh):
        # same sparsity; the sums over a row's entries differ in order only
        loop = mesh.boundary_loop
        got, want = _conformal_operator(mesh, loop), dict_conformal_operator(mesh, loop)
        got.sort_indices()
        want.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.all(np.abs(got.data - want.data) <= 1e-15 * np.abs(want.data))


class TestConformalFactors:
    def test_identity(self, planar_input):
        flat = PlanarMesh(planar_input.uv, planar_input.faces)
        edges, factors = conformal_factors(planar_input, flat)
        assert np.allclose(factors, 1.0, rtol=1e-12)

    def test_uniform_scaling(self, planar_input):
        flat = PlanarMesh(2.0 * planar_input.uv, planar_input.faces)
        _, factors = conformal_factors(planar_input, flat)
        assert np.allclose(factors, 2.0, rtol=1e-12)

    def test_cap_factors_spread(self):
        mesh = cap_mesh(rings=8)
        result = flatten(mesh)
        assert result.edge_scale.min() > 0.0
        assert result.edge_scale.max() / result.edge_scale.min() > 1.0 + 1e-6

    def test_mismatched_connectivity(self, planar_input):
        other = PlanarMesh(planar_input.uv, planar_input.faces[::-1].copy())
        with pytest.raises(MeshError, match="connectivity"):
            conformal_factors(planar_input, other)

    def test_zero_length_edge(self):
        verts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        flat = PlanarMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.array([[0, 1, 2]]))
        with pytest.raises(MeshError, match="zero-length"):
            conformal_factors(mesh, flat)
