"""Conformal-mapping-accelerated bubble meshing.

Flattens disk-topology surfaces to the plane, packs and relaxes bubbles
with boundary-region quantity control, triangulates, and maps the result
back with curvature-adaptive sizing.
"""

from .conformal import FlattenResult, flatten
from .delaunay import TriangulationError, delaunay_triangulate
from .mapping import FaceGrid, MappingError, inverse_map, locate_points
from .mesh import (MeshError, MeshQualityReport, PlanarMesh, TriangleMesh,
                   ValidationResult, hausdorff_estimate, load_mesh,
                   quality_report, save_mesh, validate_disk_topology, write_svg)
from .packing import (BOUNDARY, INTERIOR_ANCHOR, MOBILE, Bubble, PackingDomain,
                      PackingError, interpolate_radius, overlap_ratio, pack_boundary,
                      pack_interior_quadtree)
from .pipeline import (PipelineConfig, PipelineError, load_config,
                       run_compare_qc, run_plane_pipeline, run_remesh_pipeline,
                       run_surface_pipeline)
from .relaxation import (ConvergenceTrace, RelaxationError, RelaxState, relax_step,
                         relax_until_converged, rk4_damped_step)
from .remesh import (fill_gaps, reconstruct_boundary_bubbles,
                     reconstruct_interior_bubbles, remesh_planar)
from .sizing import SizingError, SizingParams, g_of_eps, radius_bound
from .surfaces import ParametricSurface, make_surface

__version__ = "0.1.0"
