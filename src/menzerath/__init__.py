"""Menzerath's law as a property of the joint length distribution.

The package models the relationship between construct length in
constituents (x) and in subconstituents (z) three ways: classical
closed-form curves derived from weighted moments, bivariate normal and
log-normal joint fits, and Gaussian copulas over the empirical
marginals.  Every model yields a predicted Menzerath curve that is
compared against the empirical one by residual sum of squares.
"""

from .boundaries import (
    boundary_copula_cells,
    cells_from_boundaries,
    from_boundaries,
    pairs_from_boundaries,
    to_boundaries,
)
from .classical import (
    AltmannFit,
    HyperbolicFit,
    LinearFit,
    altmann_from_loglinear,
    eval_model,
    fit_altmann_direct,
    fit_linear,
    hyperbolic_from_linear,
    rss,
)
from .copula import (
    Estimator,
    GaussianCopulaModel,
    JointProbabilityTable,
    cell_probabilities,
    estimate_rho,
    fit_copula,
    infeasible_mass,
    phi2,
    predicted_mal_from_cells,
    sample_copula,
    sample_indices,
)
from .errors import (
    DegenerateVariance,
    EmptyConstituent,
    EmptyInput,
    InvalidPair,
    LogOfNonpositive,
    MenzerathError,
    MismatchedSupport,
    NonpositiveY,
    ParseError,
    RhoOutOfRange,
    UOutOfRange,
    WrongDomain,
    WrongSpace,
)
from .gaussian import (
    BivariateGaussianParams,
    Discretize,
    fit_bivariate,
    fit_bivariate_pairs,
    lattice_density,
    predicted_mal,
    sample_synthetic,
)
from .ingest import (
    CorpusFormat,
    parse_frequency_table,
    parse_segmented_corpus,
    write_frequency_table,
)
from .report import (
    MODEL_ORDER,
    SCHEMA_VERSION,
    Comparison,
    cells_csv,
    compare,
    curves_csv,
    write_artifacts,
    write_report,
)
from .svgfig import render_svg
from .table import (
    Axis,
    Domain,
    JointFrequencyTable,
    MalCurve,
    MarginalDistribution,
    Space,
    WeightedMoments,
    build_table,
    empirical_mal_curve,
    marginal,
    weighted_moments,
)

__version__ = "0.1.0"
