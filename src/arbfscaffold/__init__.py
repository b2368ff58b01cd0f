"""Porous scaffold construction via radial basis function interpolation.

A volumetric mesh (triangles, tetrahedra, or hexahedra) is turned into an
implicit field by assigning +1 to mesh vertices and -1 to interior centers,
fitting an RBF interpolant over those constraints, sampling the field on a
voxel grid, and extracting iso-surfaces.  The anisotropic variant measures
distance to line segments joining face centers to cell centers, which opens
pore channels along those directions; isotropic point-only interpolation,
TPMS level sets, and seeded mesh perturbation are included as baselines.
"""

from .errors import (
    DegenerateResultError,
    DuplicateCenterError,
    HeaderMismatchError,
    InvalidBBoxError,
    ParseError,
    ScaffoldError,
    SingularMatrixError,
    ValidationError,
)
from .mesh import (
    CenterSet,
    VolumetricMesh,
    assemble_center_set,
    build_segments,
    compute_centers,
    load_mesh,
    save_mesh,
)
from .rbf import (
    Basis,
    InterpolationModel,
    assemble_matrix,
    eval_basis,
    fit_mesh,
    fit_with_report,
    load_model,
    save_model,
)
from .grid import (
    VoxelGrid,
    make_grid,
    make_grid_2d,
    read_volume,
    sample_field,
    solid_fraction,
    write_volume,
)
from .isosurface import (
    ContourSet,
    TriangleSoup,
    euler_characteristic,
    export_obj,
    export_pgm,
    load_obj,
    marching_cubes,
    marching_squares,
    surface_area,
)
from .tpms import TpmsField
from .perturb import PerturbSpec, perturb_mesh

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CenterSet",
    "ContourSet",
    "DegenerateResultError",
    "DuplicateCenterError",
    "HeaderMismatchError",
    "InterpolationModel",
    "InvalidBBoxError",
    "ParseError",
    "PerturbSpec",
    "ScaffoldError",
    "SingularMatrixError",
    "TpmsField",
    "TriangleSoup",
    "ValidationError",
    "VolumetricMesh",
    "VoxelGrid",
    "assemble_center_set",
    "assemble_matrix",
    "build_segments",
    "compute_centers",
    "euler_characteristic",
    "eval_basis",
    "export_obj",
    "export_pgm",
    "fit_mesh",
    "fit_with_report",
    "load_mesh",
    "load_model",
    "load_obj",
    "make_grid",
    "make_grid_2d",
    "marching_cubes",
    "marching_squares",
    "perturb_mesh",
    "read_volume",
    "sample_field",
    "save_mesh",
    "save_model",
    "solid_fraction",
    "surface_area",
    "write_volume",
]
