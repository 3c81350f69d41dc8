"""Indexed triangle meshes, validation, quality metrics and file I/O.

Meshes are stored as a vertex array plus face index triples; adjacency is
derived on demand and is deterministic in face order. Instances are treated
as immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

DEGENERATE_AREA_FACTOR = 1e-14  # relative to squared bbox diagonal
ANGLE_BUCKET_EDGES = (0.0, 15.0, 30.0, 45.0, 60.0)


class MeshError(Exception):
    """Invalid mesh topology, geometry or file contents."""


@dataclass
class ValidationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class MeshQualityReport:
    triangle_count: int
    min_angle: float
    max_angle: float
    min_angle_histogram: list[int]

    def fraction_at_least(self, degrees: float) -> float:
        """Fraction of triangles whose minimum angle is >= the given value.

        Only meaningful at bucket edges (15, 30, 45)."""
        start = ANGLE_BUCKET_EDGES.index(degrees)
        return sum(self.min_angle_histogram[start:]) / self.triangle_count

    def to_text(self) -> str:
        lines = [
            f"triangles:  {self.triangle_count}",
            f"min angle:  {self.min_angle:.4f}",
            f"max angle:  {self.max_angle:.4f}",
            "min-angle distribution:",
        ]
        labels = ["0-15", "15-30", "30-45", "45-60"]
        for label, count in zip(labels, self.min_angle_histogram):
            lines.append(f"  {label:>5}: {count}")
        return "\n".join(lines) + "\n"


class EdgeTable(NamedTuple):
    """A mesh's edges as sorted int64 keys over its vertex count V: the
    distinct half-edges a -> b of its faces (a*V+b), the distinct edges
    i < j (i*V+j), and the number of faces on each of the latter."""

    directed: np.ndarray
    undirected: np.ndarray
    faces: np.ndarray


class _MeshBase:
    """Shared topology queries for 2D and 3D triangle meshes."""

    vertices: np.ndarray
    faces: np.ndarray

    def _check_indices(self):
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def edge_table(self) -> EdgeTable:
        """The edges of the faces, derived once (meshes are immutable)."""
        n = self.n_vertices
        a = self.faces.ravel()
        b = self.faces[:, [1, 2, 0]].ravel()
        undirected, faces = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                      return_counts=True)
        return EdgeTable(np.unique(a * n + b), undirected, faces)

    def undirected_edges(self) -> np.ndarray:
        """(E,2) array of unique undirected edges, i<j, lexicographically sorted."""
        return np.column_stack(np.divmod(self.edge_table.undirected, self.n_vertices))

    def directed_edge_set(self) -> set[tuple[int, int]]:
        a, b = np.divmod(self.edge_table.directed, self.n_vertices)
        return set(zip(a.tolist(), b.tolist()))

    def boundary_loops(self) -> list[list[int]]:
        """All boundary loops, longest first, each rotated to start at its
        smallest vertex index. Follows face orientation. Traced once per
        mesh (meshes are immutable); each call returns fresh lists."""
        return [list(lp) for lp in self._boundary_loops]

    @cached_property
    def _boundary_loops(self) -> list[list[int]]:
        n = self.n_vertices
        directed = self.edge_table.directed
        a, b = np.divmod(directed, n)
        # a half-edge is on the boundary when no face has its reverse
        on = ~np.isin(b * n + a, directed)
        a, b = a[on], b[on]
        out_degree = np.bincount(a, minlength=n)
        bad = np.flatnonzero((out_degree > 1) | (out_degree != np.bincount(b, minlength=n)))
        if len(bad):
            raise MeshError(f"non-manifold boundary at vertex {bad[0]}")
        # every boundary vertex has one successor: the loops are its cycles,
        # each walked from its smallest vertex
        succ = np.full(n, -1)
        succ[a] = b
        succ = succ.tolist()
        loops = []
        for v in a.tolist():
            loop = []
            while succ[v] >= 0:
                loop.append(v)
                succ[v], v = -1, succ[v]
            if loop:
                loops.append(loop)
        loops.sort(key=lambda lp: (-len(lp), lp[0]))
        return loops

    @property
    def boundary_loop(self) -> list[int]:
        """The single boundary loop (longest one if the mesh is not a disk)."""
        loops = self.boundary_loops()
        if not loops:
            raise MeshError("mesh has no boundary")
        return loops[0]

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edge_table.undirected) + self.n_faces

    def face_corner_cosines(self) -> np.ndarray:
        """(F,3) corner cosines, corner k opposite edge k. With e_k = v[k+1] -
        v[k], corner k's cosine is -e_k . e_{k+2} / max(|e_k| |e_{k+2}|,
        1e-300), so a corner at a zero-length edge reads 0. A face's
        cosines do not depend on its vertex order."""
        v = self.vertices[self.faces]
        e = v[:, [1, 2, 0]] - v
        prev = e[:, [2, 0, 1]]
        norm = np.sqrt((e * e).sum(-1))
        dot = np.einsum("fkd,fkd->fk", e, prev)
        return -dot / np.maximum(norm * norm[:, [2, 0, 1]], 1e-300)

    def face_corner_angles(self) -> np.ndarray:
        """(F,3) corner angles in degrees, corner k opposite edge k."""
        return np.degrees(np.arccos(np.clip(self.face_corner_cosines(), -1.0, 1.0)))

    def face_areas(self) -> np.ndarray:
        v = self.vertices[self.faces]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        if v.shape[2] == 2:
            return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)

    def bbox_diagonal(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))


@dataclass
class TriangleMesh(_MeshBase):
    """Indexed 3D triangle mesh; `uv` optionally stores per-vertex parametric
    coordinates for meshes generated from a parametric surface."""

    vertices: np.ndarray
    faces: np.ndarray
    uv: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.uv is not None:
            self.uv = np.asarray(self.uv, dtype=float).reshape(-1, 2)
            if len(self.uv) != len(self.vertices):
                raise MeshError("uv array length does not match vertex count")
        self._check_indices()


@dataclass
class PlanarMesh(_MeshBase):
    """Indexed 2D triangle mesh with all faces counterclockwise."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        self._check_indices()

    def signed_areas(self) -> np.ndarray:
        v = self.vertices[self.faces]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def validate_disk_topology(mesh: _MeshBase) -> ValidationResult:
    """Accept iff the mesh is an edge-manifold disk: V - E + F = 1, one boundary loop."""
    if mesh.n_faces == 0:
        return ValidationResult(False, "mesh has no faces")
    edges = mesh.edge_table
    # checked first: three faces on an edge repeat one of its directions
    over = edges.undirected[edges.faces > 2]
    if len(over):
        bad = divmod(int(over[0]), mesh.n_vertices)
        return ValidationResult(False, f"non-manifold edge {bad} (more than two incident faces)")
    if len(edges.directed) != 3 * mesh.n_faces:
        return ValidationResult(False, "duplicate directed edge (inconsistent orientation or repeated face)")
    try:
        loops = mesh.boundary_loops()
    except MeshError as exc:
        return ValidationResult(False, str(exc))
    chi = mesh.euler_characteristic()
    if len(loops) != 1:
        return ValidationResult(
            False, f"found {len(loops)} boundary loops, expected exactly 1 "
                   f"(Euler characteristic {chi})")
    if chi != 1:
        return ValidationResult(False, f"Euler characteristic is {chi}, expected 1 (disk)")
    return ValidationResult(True)


def quality_report(mesh: _MeshBase) -> MeshQualityReport:
    """Per-face minimum-angle statistics and the 15-degree bucket histogram."""
    if mesh.n_faces == 0:
        raise MeshError("empty mesh")
    areas = mesh.face_areas()
    threshold = DEGENERATE_AREA_FACTOR * mesh.bbox_diagonal() ** 2
    bad = np.flatnonzero(areas < threshold)
    if len(bad):
        raise MeshError(f"degenerate face {int(bad[0])} (area {areas[bad[0]]:.3e})")
    angles = mesh.face_corner_angles()
    min_angles = angles.min(axis=1)
    buckets = np.clip((min_angles // 15.0).astype(int), 0, 3)
    hist = [int(np.sum(buckets == k)) for k in range(4)]
    return MeshQualityReport(
        triangle_count=mesh.n_faces,
        min_angle=float(min_angles.min()),
        max_angle=float(angles.max()),
        min_angle_histogram=hist,
    )


def hausdorff_estimate(mesh: TriangleMesh, surface, sample_density: int = 4) -> float:
    """One-sided distance estimate from the flat triangles to the smooth surface.

    Samples every face on the nested barycentric lattices of order 1..density;
    at each sample, compares the flat-triangle position against the exact
    surface position at the interpolated parametric coordinates. The estimate
    is monotone non-decreasing in sample_density.
    """
    if mesh.uv is None:
        raise MeshError("mesh has no stored parametric coordinates")
    if sample_density < 1:
        raise ValueError("sample_density must be >= 1")
    tri_xyz = mesh.vertices[mesh.faces]   # (F,3,3)
    tri_uv = mesh.uv[mesh.faces]          # (F,3,2)
    worst = 0.0
    for order in range(1, sample_density + 1):
        weights = []
        for i in range(order + 1):
            for j in range(order + 1 - i):
                k = order - i - j
                weights.append((i / order, j / order, k / order))
        w = np.asarray(weights)           # (S,3)
        flat = np.einsum("sk,fkd->fsd", w, tri_xyz)
        uv = np.einsum("sk,fkd->fsd", w, tri_uv)
        exact = surface.position(uv[..., 0], uv[..., 1])
        d = np.linalg.norm(flat - exact, axis=-1)
        worst = max(worst, float(d.max()))
    return worst


# ---------------------------------------------------------------------------
# File I/O: OBJ and OFF readers/writers, SVG writer for planar meshes.

def load_mesh(path) -> TriangleMesh:
    path = Path(path)
    text = path.read_text()
    ext = path.suffix.lower()
    if ext == ".obj":
        return _parse_obj(text)
    if ext == ".off":
        return _parse_off(text)
    raise MeshError(f"unsupported mesh format '{ext}' (expected .obj or .off)")


def _parse_obj(text: str) -> TriangleMesh:
    verts = []
    faces = []
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshError(f"line {ln}: malformed vertex record")
            verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
        elif parts[0] == "f":
            idx = [int(p.split("/")[0]) for p in parts[1:]]
            if len(idx) != 3:
                raise MeshError(f"line {ln}: non-triangular face")
            faces.append([i - 1 for i in idx])
    if not verts:
        raise MeshError("no vertices in OBJ file")
    return TriangleMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def _parse_off(text: str) -> TriangleMesh:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise MeshError("missing OFF header")
    pos = 1
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        pos += 3  # skip edge count
        verts = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            k = int(tokens[pos])
            if k != 3:
                raise MeshError("non-triangular face")
            faces.append([int(t) for t in tokens[pos + 1:pos + 4]])
            pos += 1 + k
    except (ValueError, IndexError) as exc:
        raise MeshError(f"malformed OFF file: {exc}") from exc
    return TriangleMesh(verts, np.asarray(faces, dtype=np.int64))


def _vertex_rows_3d(mesh) -> np.ndarray:
    v = mesh.vertices
    if v.shape[1] == 2:
        v = np.column_stack([v, np.zeros(len(v))])
    return v


def _rows(row_format: str, values: np.ndarray) -> str:
    """`row_format` once per row of the 2-D array, all rows formatted in one
    operation from the array's flat list of Python numbers (no container
    per row, no numpy scalar formatted on its own)."""
    return (row_format * len(values)) % tuple(values.ravel().tolist())


def save_mesh(path, mesh) -> None:
    """Write OBJ or OFF (by extension); planar meshes are written with z=0."""
    path = Path(path)
    v = _vertex_rows_3d(mesh)
    ext = path.suffix.lower()
    if ext == ".obj":
        text = _rows("v %.9g %.9g %.9g\n", v) + _rows("f %d %d %d\n", mesh.faces + 1)
    elif ext == ".off":
        text = (f"OFF\n{len(v)} {len(mesh.faces)} 0\n" + _rows("%.9g %.9g %.9g\n", v)
                + _rows("3 %d %d %d\n", mesh.faces))
    else:
        raise MeshError(f"unsupported mesh format '{ext}' (expected .obj or .off)")
    path.write_text(text or "\n")  # an empty OBJ is one empty line


def write_svg(path, mesh: PlanarMesh) -> None:
    """Render the edges of a planar mesh as SVG line segments."""
    path = Path(path)
    v = mesh.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    span = hi - lo
    stroke_width = 0.002 * max(float(span[0]), float(span[1]), 1e-12)
    # SVG y axis points down; flip about the bbox midline so the image is upright
    ymid = 0.5 * (lo[1] + hi[1])
    a, b = mesh.undirected_edges().T
    ends = np.column_stack([v[a, 0], 2 * ymid - v[a, 1], v[b, 0], 2 * ymid - v[b, 1]])
    path.write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{lo[0]:.9g} {lo[1]:.9g} {span[0]:.9g} {span[1]:.9g}">\n'
        f'<g stroke="black" stroke-width="{stroke_width:.9g}" stroke-linecap="round">\n'
        + _rows('<line x1="%.9g" y1="%.9g" x2="%.9g" y2="%.9g"/>\n', ends)
        + "</g></svg>\n")

