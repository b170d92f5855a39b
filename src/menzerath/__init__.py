"""Menzerath's law as a property of the joint length distribution.

The package models the relationship between construct length in
constituents (x) and in subconstituents (z) three ways: classical
closed-form curves derived from weighted moments, bivariate normal and
log-normal joint fits, and Gaussian copulas over the empirical
marginals.  Every model yields a predicted Menzerath curve that is
compared against the empirical one by residual sum of squares.

``_EXPORTS`` below is the one list of the public API: each module reads
its ``__all__`` from it, and the package republishes those names.  It
resolves them on first use (PEP 562), so ``import menzerath`` loads
neither numpy nor scipy, and the command line (``__main__``) starts
before they load.
"""

import importlib

__version__ = "0.1.0"

# Public names by module; each module sets ``__all__ = list(_EXPORTS[module])``.
_EXPORTS = {
    "boundaries": ("to_boundaries", "from_boundaries", "cells_from_boundaries",
                   "pairs_from_boundaries", "boundary_copula_cells"),
    "classical": ("LinearFit", "HyperbolicFit", "AltmannFit", "fit_linear",
                  "hyperbolic_from_linear", "altmann_from_loglinear", "fit_altmann_direct",
                  "eval_model", "rss"),
    "copula": ("Estimator", "GaussianCopulaModel", "JointProbabilityTable", "phi2",
               "estimate_rho", "fit_copula", "cell_probabilities", "sample_copula",
               "predicted_mal_from_cells", "infeasible_mass"),
    "errors": ("MenzerathError", "InvalidPair", "EmptyInput", "WrongDomain", "WrongSpace",
               "LogOfNonpositive", "DegenerateVariance", "NonpositiveY", "MismatchedSupport",
               "RhoOutOfRange", "UOutOfRange", "ParseError", "EmptyConstituent"),
    "gaussian": ("BivariateGaussianParams", "Discretize", "fit_bivariate",
                 "fit_bivariate_pairs", "lattice_density", "predicted_mal",
                 "sample_synthetic"),
    "ingest": ("CorpusFormat", "parse_frequency_table", "write_frequency_table",
               "parse_segmented_corpus"),
    "report": ("SCHEMA_VERSION", "MODEL_ORDER", "Comparison", "compare", "write_report",
               "curves_csv", "cells_csv", "write_artifacts"),
    "svgfig": ("render_svg",),
    "table": ("Domain", "Axis", "Space", "JointFrequencyTable", "MarginalDistribution",
              "WeightedMoments", "MalCurve", "build_table", "marginal",
              "empirical_mal_curve", "weighted_moments"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        # Importing a submodule binds it here, so this runs once per module.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
