"""Full multigrid solver for nonlinear (Gross-Pitaevskii type) eigenvalue
problems with P1 finite elements on nested box meshes."""

__version__ = "0.1.0"

from .mesh import (
    MeshLevel,
    MeshHierarchy,
    build_initial_mesh,
    refine,
    build_hierarchy,
    interior_prolongation,
)
from .fem import (
    ProblemSpec,
    FeFunction,
    harmonic_potential,
    assemble_stiffness,
    assemble_mass,
    assemble_weighted_mass,
    a_norm,
    l2_norm,
)
from .linalg import WorkReport, MgContext, cg_smooth, v_cycle, mg_solve
from .eigsolve import (
    ScfSettings,
    EigenPair,
    ScfResult,
    LevelSpace,
    AugmentedSpace,
    smallest_eigpair,
    scf_solve,
    build_augmented_space,
)
from .fmg import FmgParams, FmgResult, full_multigrid, one_correction_step, build_workspace
from .harness import (
    ExperimentConfig,
    ErrorReport,
    load_config,
    config_from_dict,
    run_experiment,
    compute_rates,
    fitted_rate,
    emit_report,
    measure_mg_contraction,
)

__all__ = [
    "MeshLevel",
    "MeshHierarchy",
    "build_initial_mesh",
    "refine",
    "build_hierarchy",
    "interior_prolongation",
    "ProblemSpec",
    "FeFunction",
    "harmonic_potential",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "a_norm",
    "l2_norm",
    "WorkReport",
    "MgContext",
    "cg_smooth",
    "v_cycle",
    "mg_solve",
    "ScfSettings",
    "EigenPair",
    "ScfResult",
    "LevelSpace",
    "AugmentedSpace",
    "smallest_eigpair",
    "scf_solve",
    "build_augmented_space",
    "FmgParams",
    "FmgResult",
    "full_multigrid",
    "one_correction_step",
    "build_workspace",
    "ExperimentConfig",
    "ErrorReport",
    "load_config",
    "config_from_dict",
    "run_experiment",
    "compute_rates",
    "fitted_rate",
    "emit_report",
    "measure_mg_contraction",
]
