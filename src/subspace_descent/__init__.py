"""Randomized subspace descent solvers over explicit space decompositions.

The package splits into small layers:

``linalg``
    SPD operators (dense or tridiagonal), metric inner products and norms,
    direct solves with a residual guarantee, extreme eigenvalues.
``objectives``
    Convex objectives with gradients, including the classic worst-case
    smooth quadratic benchmark and problems loaded from triplet files.
``decomposition``
    Subspace families (coordinates, blocks, multilevel nodal hats) with
    Galerkin local matrices, local Lipschitz constants and the stability
    constant of the splitting.
``sampling``
    Seeded index streams: uniform, Lipschitz-proportional, per-epoch
    permutation, deterministic cyclic sweep.
``solvers``
    The iteration engines (gradient descent, preconditioned gradient
    descent, coordinate/block descent, subspace descent, and the
    full-approximation variant with nonlinear local solves).
``analysis``
    Convergence-theory checks: rate bounds, splitting identities,
    one-step expected decay, empirical rate fits.
``experiments``
    Multi-trial benchmark harness, table reproduction, theory reports.
"""

from .linalg import (
    DimensionMismatchError,
    NotSpdError,
    SpdOperator,
    a_inner_product,
    a_norm,
    dirichlet_laplacian,
    dual_norm,
    extreme_eigenvalues,
    inner_product,
    pencil_eigenvalue,
    spd_solve,
)
from .objectives import (
    NesterovWorstObjective,
    Objective,
    QuadraticObjective,
    load_quadratic_problem,
    nesterov_matrix_form,
    nesterov_worst,
    quadratic_minimizer,
    save_quadratic_problem,
)
from .decomposition import (
    Decomposition,
    block_decomposition,
    coordinate_decomposition,
    export_decomposition,
    multilevel_nodal_decomposition,
    rcd_column_lipschitz,
    stability_constant,
    with_local_lipschitz,
    with_quadratic_lipschitz,
)
from .sampling import SAMPLER_KINDS, Sampler, make_sampler
from .solvers import (
    METHODS,
    DivergenceError,
    LocalSolveError,
    QuadraticEnergyLocal,
    RunTrace,
    SolverConfig,
    fas_search_direction,
    rfasd_step,
    run_solver,
    solve_local_stationarity,
    subspace_search_direction,
)
from .analysis import (
    DecayCheck,
    IdentityCheck,
    RateFit,
    TheoryCheck,
    TheoryReport,
    decomposition_identity_check,
    empirical_rate_fit,
    expected_decay_check,
    linear_rate_bound,
    quadratic_metric_constants,
    r0_strongly_convex,
    sublinear_bound,
    theory_report,
)
from .experiments import (
    ExperimentSpec,
    TableResult,
    TrialSummary,
    build_problem,
    reproduce_tables,
    run_experiment,
    summary_json,
    summary_csv,
    theory_check,
)

__version__ = "0.1.0"
