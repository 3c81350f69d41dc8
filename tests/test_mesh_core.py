import numpy as np
import pytest

from bubblemesh.geometry import polygon_signed_area
from bubblemesh.mesh import (MeshError, PlanarMesh, TriangleMesh,
                             hausdorff_estimate, load_mesh, quality_report,
                             save_mesh, validate_disk_topology, write_svg)
from bubblemesh.surfaces import plane, sphere_patch

from conftest import (annulus_mesh, duplicated_face_mesh, fin_mesh,
                      grid_mesh_on_surface, loop_boundary_loops,
                      loop_directed_edge_set, loop_edge_counts,
                      loop_validate_disk_topology, pinched_mesh,
                      single_triangle_mesh, tetrahedron_mesh)


class TestIO:
    def test_off_single_triangle(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.n_vertices == 3
        assert mesh.n_faces == 1
        assert len(mesh.boundary_loop) == 3

    def test_obj_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshError, match="non-triangular"):
            load_mesh(path)

    def test_off_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(MeshError, match="non-triangular"):
            load_mesh(path)

    @pytest.mark.parametrize("ext", ["obj", "off"])
    def test_round_trip(self, tmp_path, ext):
        mesh = grid_mesh_on_surface(sphere_patch(), 6, 5)
        path = tmp_path / f"mesh.{ext}"
        save_mesh(path, mesh)
        back = load_mesh(path)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.allclose(back.vertices, mesh.vertices, rtol=5e-9, atol=1e-12)

    def test_obj_slash_indices(self, tmp_path):
        path = tmp_path / "tex.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
        mesh = load_mesh(path)
        assert mesh.n_faces == 1

    def test_svg_writer(self, tmp_path):
        mesh = PlanarMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.array([[0, 1, 2]]))
        path = tmp_path / "mesh.svg"
        write_svg(path, mesh)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<line") == 3

    @pytest.mark.parametrize("special", [False, True], ids=["plain", "special-values"])
    @pytest.mark.parametrize("source", ["planar", "sphere-workload"])
    def test_writers_equal_row_writers(self, tmp_path, request, source, special):
        if source == "planar":
            grid = grid_mesh_on_surface(plane(), 6, 5)
            mesh = flat = PlanarMesh(grid.vertices[:, :2], grid.faces)
        else:
            mesh = request.getfixturevalue("sphere_workload_mesh")
            flat = PlanarMesh(mesh.uv, mesh.faces)
        if special:
            mesh = type(mesh)(with_special_values(mesh.vertices), mesh.faces)
            flat = PlanarMesh(with_special_values(flat.vertices), flat.faces)
        for ext in ("obj", "off"):
            save_mesh(tmp_path / f"flat.{ext}", mesh)
            row_save_mesh(tmp_path / f"rows.{ext}", mesh)
            assert (tmp_path / f"flat.{ext}").read_bytes() == (tmp_path / f"rows.{ext}").read_bytes()
        with np.errstate(invalid="ignore"):  # inf - inf in the bounding box
            write_svg(tmp_path / "flat.svg", flat)
            row_write_svg(tmp_path / "rows.svg", flat)
        assert (tmp_path / "flat.svg").read_bytes() == (tmp_path / "rows.svg").read_bytes()


def with_special_values(vertices):
    """A copy whose first coordinates are -0.0, infinities and very large
    and very small numbers."""
    v = vertices.copy()
    special = [-0.0, np.inf, -np.inf, 1e300, -1e-300, 5e-324, 123456789.123456789,
               1.0000000005, -2.5e-17, 0.0]
    v.flat[:len(special)] = special
    return v


def row_save_mesh(path, mesh):
    """`save_mesh` with one f-string per vertex and face row, formatting
    numpy scalars: the oracle for the writer of flat lists."""
    v = mesh.vertices
    if v.shape[1] == 2:
        v = np.column_stack([v, np.zeros(len(v))])
    lines = []
    if path.suffix == ".obj":
        for p in v:
            lines.append(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")
        for f in mesh.faces:
            lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    else:
        lines.append("OFF")
        lines.append(f"{len(v)} {len(mesh.faces)} 0")
        for p in v:
            lines.append(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")
        for f in mesh.faces:
            lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    path.write_text("\n".join(lines) + "\n")


def row_write_svg(path, mesh):
    """`write_svg` with one f-string per edge, formatting numpy scalars: the
    oracle for the writer of flat lists."""
    v = mesh.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    span = hi - lo
    stroke_width = 0.002 * max(float(span[0]), float(span[1]), 1e-12)
    ymid = 0.5 * (lo[1] + hi[1])
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{lo[0]:.9g} {lo[1]:.9g} {span[0]:.9g} {span[1]:.9g}">',
        f'<g stroke="black" stroke-width="{stroke_width:.9g}" stroke-linecap="round">',
    ]
    for a, b in mesh.undirected_edges():
        pa, pb = v[a], v[b]
        out.append(
            f'<line x1="{pa[0]:.9g}" y1="{2 * ymid - pa[1]:.9g}" '
            f'x2="{pb[0]:.9g}" y2="{2 * ymid - pb[1]:.9g}"/>'
        )
    out.append("</g></svg>")
    path.write_text("\n".join(out) + "\n")


class TestValidation:
    def test_single_triangle_accepted(self):
        assert validate_disk_topology(single_triangle_mesh()).ok

    def test_tetrahedron_rejected(self):
        result = validate_disk_topology(tetrahedron_mesh())
        assert not result.ok
        assert "0 boundary loops" in result.reason

    def test_annulus_rejected(self):
        mesh = annulus_mesh()
        # oracle: count loops by traversal
        assert len(mesh.boundary_loops()) == 2
        result = validate_disk_topology(mesh)
        assert not result.ok
        assert "boundary loops" in result.reason

    def test_grid_mesh_accepted(self):
        mesh = grid_mesh_on_surface(plane(), 5, 4)
        assert validate_disk_topology(mesh).ok

    def test_duplicated_face_rejected(self):
        assert not validate_disk_topology(duplicated_face_mesh()).ok

    def test_lowest_non_manifold_edge_named(self):
        # edges (2, 3) and (0, 1) both carry three faces
        result = validate_disk_topology(fin_mesh())
        assert not result.ok
        assert result.reason.startswith("non-manifold edge (0, 1)")

    def test_lowest_pinched_vertex_named(self):
        # vertices 2 and 1 both have two boundary out-edges
        with pytest.raises(MeshError, match="non-manifold boundary at vertex 1$"):
            pinched_mesh().boundary_loops()
        assert validate_disk_topology(pinched_mesh()).reason == \
            "non-manifold boundary at vertex 1"


TOPOLOGY_MESHES = {
    "triangle": single_triangle_mesh,
    "grid": lambda: grid_mesh_on_surface(plane(), 5, 4),
    "annulus": annulus_mesh,
    "tetrahedron": tetrahedron_mesh,
    "duplicated-face": duplicated_face_mesh,
    "fin": fin_mesh,
    "pinched": pinched_mesh,
    "empty": lambda: TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64)),
}


class TestEdgeTableOracles:
    """Every topology query read from the edge table equals the set, dict
    and per-vertex loops it replaced."""

    def check(self, mesh):
        assert [tuple(e) for e in mesh.undirected_edges().tolist()] == \
            sorted(loop_edge_counts(mesh))
        assert mesh.directed_edge_set() == loop_directed_edge_set(mesh)
        assert mesh.euler_characteristic() == \
            mesh.n_vertices - len(loop_edge_counts(mesh)) + mesh.n_faces
        try:
            want = loop_boundary_loops(mesh)
        except MeshError as exc:
            with pytest.raises(MeshError, match=f"^{exc}$"):
                mesh.boundary_loops()
        else:
            assert mesh.boundary_loops() == want
        assert validate_disk_topology(mesh) == loop_validate_disk_topology(mesh)

    @pytest.mark.parametrize("name", TOPOLOGY_MESHES)
    def test_small_meshes(self, name):
        self.check(TOPOLOGY_MESHES[name]())

    def test_sphere_workload_mesh(self, sphere_workload_mesh):
        assert validate_disk_topology(sphere_workload_mesh).ok
        self.check(sphere_workload_mesh)

    def test_undirected_edges_fresh_each_call(self):
        mesh = grid_mesh_on_surface(plane(), 5, 4)
        first = mesh.undirected_edges()
        first[:] = -1
        assert mesh.undirected_edges().min() == 0


class TestQualityReport:
    def test_equilateral(self):
        mesh = PlanarMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]),
                          np.array([[0, 1, 2]]))
        rep = quality_report(mesh)
        assert rep.min_angle == pytest.approx(60.0, abs=1e-9)
        assert rep.min_angle_histogram == [0, 0, 0, 1]

    def test_right_isoceles(self):
        mesh = PlanarMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.array([[0, 1, 2]]))
        rep = quality_report(mesh)
        assert rep.min_angle == pytest.approx(45.0, abs=1e-9)
        assert rep.min_angle_histogram == [0, 0, 0, 1]
        assert rep.max_angle == pytest.approx(90.0, abs=1e-9)

    def test_histogram_sums_to_count(self):
        mesh = grid_mesh_on_surface(sphere_patch(), 8, 7)
        rep = quality_report(mesh)
        assert sum(rep.min_angle_histogram) == rep.triangle_count == mesh.n_faces

    def test_degenerate_face_named(self):
        mesh = PlanarMesh(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.0]]),
                          np.array([[0, 3, 1], [0, 1, 2]]))
        with pytest.raises(MeshError, match="face 1"):
            quality_report(mesh)

    def test_corner_angles_equal_the_per_corner_form(self, rng):
        # one pass over the (F,3) corner cosines gives, bit for bit, the
        # angles of the per-corner einsum and np.linalg.norm form it
        # replaced, on 2-D and 3-D meshes at scales far apart
        def per_corner(vertices, faces):
            v = vertices[faces]
            angles = np.empty((len(faces), 3))
            for k in range(3):
                e1 = v[:, (k + 1) % 3] - v[:, k]
                e2 = v[:, (k + 2) % 3] - v[:, k]
                cosang = np.einsum("ij,ij->i", e1, e2) / (np.linalg.norm(e1, axis=1)
                                                          * np.linalg.norm(e2, axis=1))
                angles[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            return angles

        for mesh_type, dim in ((PlanarMesh, 2), (TriangleMesh, 3)):
            for scale in (1e-6, 1.0, 1e4):
                for _ in range(20):
                    pts = rng.uniform(-1.0, 1.0, size=(100, dim)) * scale + rng.uniform(-50, 50, dim)
                    faces = np.array([rng.choice(100, size=3, replace=False) for _ in range(150)])
                    got = mesh_type(pts, faces).face_corner_angles()
                    assert got.tobytes() == per_corner(pts, faces).tobytes()

    def test_fraction_at_least(self):
        mesh = PlanarMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.array([[0, 1, 2]]))
        rep = quality_report(mesh)
        assert rep.fraction_at_least(45.0) == 1.0
        assert rep.fraction_at_least(30.0) == 1.0


class TestHausdorff:
    def test_plane_is_exact(self):
        surf = plane(0, 2, 0, 1)
        mesh = grid_mesh_on_surface(surf, 7, 5)
        assert hausdorff_estimate(mesh, surf, 4) <= 1e-12

    def test_density_monotone(self):
        surf = sphere_patch()
        mesh = grid_mesh_on_surface(surf, 8, 8)
        assert hausdorff_estimate(mesh, surf, 4) >= hausdorff_estimate(mesh, surf, 1)

    def test_sphere_second_order(self):
        # oracle: refining edge length by 2 must shrink the estimate ~4x
        surf = sphere_patch(radius=1.0, u0=0.0, u1=1.0, v0=0.8, v1=1.8)
        coarse = grid_mesh_on_surface(surf, 9, 9)
        fine = grid_mesh_on_surface(surf, 17, 17)
        ratio = hausdorff_estimate(coarse, surf, 4) / hausdorff_estimate(fine, surf, 4)
        assert 3.0 <= ratio <= 5.0
        # independent oracle: distance of face samples to the exact sphere
        for mesh, est in ((coarse, hausdorff_estimate(coarse, surf, 4)),):
            tri = mesh.vertices[mesh.faces]
            mids = tri.mean(axis=1)
            exact = np.abs(np.linalg.norm(mids, axis=1) - 1.0).max()
            assert est >= exact * 0.9

    def test_requires_uv(self):
        mesh = single_triangle_mesh()
        with pytest.raises(MeshError, match="parametric"):
            hausdorff_estimate(mesh, plane(), 2)


class TestInvariants:
    def test_orientation_shoelace_consistency(self):
        surf = plane(0, 3, 0, 2)
        m3 = grid_mesh_on_surface(surf, 7, 6)
        mesh = PlanarMesh(m3.uv, m3.faces)
        # summed signed face areas against the shoelace area of the loops
        total = float(mesh.signed_areas().sum())
        loop_area = sum(polygon_signed_area(mesh.vertices[lp])
                        for lp in mesh.boundary_loops())
        assert abs(total - loop_area) < 1e-9 * max(abs(total), abs(loop_area))

    def test_boundary_loop_starts_at_min_index(self):
        mesh = grid_mesh_on_surface(plane(), 4, 4)
        loop = mesh.boundary_loop
        assert loop[0] == min(loop)
