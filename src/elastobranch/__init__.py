"""Branch continuation for incompressible elastic equilibria, with built-in audits.

The package splits into layers that can be used independently:

- :mod:`elastobranch.tensor` and :mod:`elastobranch.materials` give frame
  indifferent stored-energy models and their derivatives.
- :mod:`elastobranch.ellipticity` audits pointwise ellipticity margins
  and the bordered acoustic determinant.
- :mod:`elastobranch.mesh` and :mod:`elastobranch.assembly` discretize the
  incompressible equilibrium system on box meshes.
- :mod:`elastobranch.continuation` traces solution branches in the load
  parameter while recording the audit quantities per accepted step,
  including the sign of the Jacobian determinant (the live parity).
- :mod:`elastobranch.probes` checks global hypotheses: energy minimality at
  the identity, quasiconvexity over a closed-form volume-preserving test
  map, and uniqueness of the unloaded state.
- :mod:`elastobranch.runner` wires everything behind an INI config with a
  CSV/VTK output contract (also reachable as ``python3 -m elastobranch``).
"""

from .assembly import (Discretization, InvertedElementError, LoadProgram,
                       SingularMatrixError, State, homotopy_operator,
                       jacobian, residual, residual_dlam, solve_bordered)
from .continuation import (BranchRecord, BranchTrace, ContinuationSettings,
                           NewtonResult, newton_correct, parity_tracker,
                           trace_branch)
from .ellipticity import FieldAuditReport, audit_state, fibonacci_sphere
from .materials import (MaterialModel, MooneyRivlin, NeoHookean,
                        ObjectivityReport, make_material, random_gl_plus,
                        random_rotation, random_unimodular, verify_objectivity)
from .mesh import (Mesh, StarShapeReport, build_box_mesh, gauss_points,
                   star_shape_check, write_vtk)
from .probes import (GlobalMinReport, QuasiconvexityReport, UniquenessReport,
                     global_min_probe, quasiconvexity_probe, uniqueness_probe)
from .runner import (CSV_HEADER, EXIT_CONFIG, EXIT_INVERTED, EXIT_OK,
                     EXIT_STALL, ConfigError, RunConfig, run, summarize)

__version__ = "0.1.0"

__all__ = [
    "BranchRecord", "BranchTrace", "ConfigError", "ContinuationSettings",
    "CSV_HEADER", "Discretization", "EXIT_CONFIG",
    "EXIT_INVERTED", "EXIT_OK", "EXIT_STALL", "FieldAuditReport",
    "GlobalMinReport", "InvertedElementError", "LoadProgram", "MaterialModel",
    "Mesh", "MooneyRivlin", "NeoHookean", "NewtonResult", "ObjectivityReport",
    "QuasiconvexityReport", "RunConfig", "SingularMatrixError",
    "StarShapeReport", "State", "UniquenessReport", "audit_state",
    "build_box_mesh", "fibonacci_sphere", "gauss_points",
    "global_min_probe", "homotopy_operator", "jacobian", "make_material",
    "newton_correct", "parity_tracker", "quasiconvexity_probe",
    "random_gl_plus", "random_rotation", "random_unimodular", "residual",
    "residual_dlam", "run", "solve_bordered", "star_shape_check",
    "summarize", "trace_branch", "uniqueness_probe", "verify_objectivity",
    "write_vtk",
]
