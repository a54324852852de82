"""Isoparametric finite elements on stationary and evolving closed surfaces."""

__version__ = "0.1.0"

from .surfaces import (  # noqa: F401
    Circle,
    EllipsoidFlow,
    ScaledSphereFlow,
    Sphere,
    exact_heat_solution,
    forcing_profile,
    make_surface,
)
from .meshing import (  # noqa: F401
    SurfaceMesh,
    build_circle_mesh,
    build_sphere_mesh,
)
from .fem import (  # noqa: F401
    DISCRETE,
    LIFTED,
    FeFunction,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    discrete_delta,
    discrete_laplacian,
    interpolate,
    l2_project,
    lift_function,
    norm_lq,
    norm_w1q,
    ritz_project,
)
from .sparse import SparseMatrix, SolveReport, cg_solve  # noqa: F401
from .timestepping import (  # noqa: F401
    TimeGrid,
    TimeNode,
    norm_series,
    solve_heat,
    spacetime_norm,
)
from .greens import (  # noqa: F401
    DecayFit,
    delta_consistency,
    discrete_green,
    dyadic_report,
    green_decay_study,
    kernel_difference_l1,
)
from .studies import (  # noqa: F401
    StudyConfig,
    StudyReport,
    convergence_study,
    emit_reports,
    inequality_suite,
    maxreg_study,
)
