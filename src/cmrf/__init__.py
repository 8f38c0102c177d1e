"""Colored Markov random fields for edge signals on 2-dimensional complexes.

The package builds oriented 2-complexes and their Hodge operators
(:mod:`cmrf.simplicial`), assembles structured Gaussian models over edge
signals and the colored dependence graphs they induce (:mod:`cmrf.model`),
answers separation and independence queries (:mod:`cmrf.independence`),
and simulates distributed diffusion-LMS estimation over the edge network
(:mod:`cmrf.diffusion`).  The ``cmrf`` console script exposes the same
functionality from the command line.
"""

from .errors import (
    ClosureViolation,
    CmrfError,
    DegenerateSimplex,
    DimensionMismatch,
    DuplicateSimplex,
    GenerationFailed,
    InvalidDocument,
    NotColorSeparated,
    NotPositiveDefinite,
    NotSeparated,
    OverlappingSets,
)
from .simplicial import (
    HodgeLaplacians,
    IncidencePair,
    SimplicialComplex2,
    build_complex,
    harmonic_dimension,
    hodge_decompose,
    hodge_laplacians,
    incidence,
    line_graph,
    load_complex,
    random_2sc,
    save_complex,
)
from .model import (
    CmrfGraph,
    EdgePrecision,
    SgmParams,
    build_cmrf,
    build_precision,
    covariance,
    covariance_cholesky,
    draw_params,
    find_cancellations,
    identity_residuals,
    load_model,
    min_valid_k,
    sample,
    save_model,
)
from .independence import (
    IndependenceReport,
    SeparationQuery,
    SingletonScan,
    color_separated_singleton_pairs,
    is_color_separated,
    is_graph_separated,
    scan_singleton_pairs,
    verify_conditional_independence,
    verify_marginal_independence,
)
from .diffusion import (
    VARIANTS,
    ExperimentConfig,
    MsdResult,
    VariantSpec,
    combination_weights,
    coupling_matrix,
    get_variant,
    run_experiment,
    step_sizes,
    write_csv,
)

__version__ = "0.1.0"
