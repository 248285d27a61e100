"""Collaborative causal-effect estimation across heterogeneous data sites.

Sites hold covariate-shifted samples of a common target population; the
package estimates the target-population average treatment effect by weighting
each unit with site-and-arm selection scores that are identifiable only up to
one shared constant. Hajek forms make that constant irrelevant. Four
estimators are provided (per-site combination and pooled weighting, each with
a decoupled outcome-model-corrected variant), together with density-ratio
fitting, an auditable federated message protocol, and a Monte Carlo harness.
"""

from .core import (EstimateReport, SiteDataset, TargetCovariates,
                   read_sites_csv, read_target_csv, validate_dataset,
                   write_sites_csv, write_target_csv)
from .density_ratio import (IDENTITY_PLUS_INTERCEPT, MISSPECIFIED, FeatureMap,
                            RatioModel, TiltingError, fit_knn, fit_tilting,
                            misspecify_features, oracle_gaussian_ratio)
from .estimators import (AipwInputs, AllSitesExcludedError, Excluded,
                         MetaDeltas, OverlapError, SiteAggregates,
                         aipw_combine, clb_combine, clb_ipw,
                         clb_site_aggregates, decoupled_aipw, meta_combine,
                         meta_ipw)
from .fedsim import (MessageLog, PrivacyError, audit_messages,
                     expected_message_count, replay, run_algorithm1,
                     run_algorithm2)
from .harness import (SweepSpec, ci_grid, oracle_meta_site_variances,
                      oracle_shift_propensity, run_monte_carlo, sweep_kl)
from .nuisance import (FoldPlan, PropensitySet, ScoreTable, assemble_propensity,
                       crossfit_split, fit_outcome_direct, score_table)
from .synthgen import ShiftConfig, gen_covariate_shift, place_site_means

__version__ = "0.1.0"

__all__ = [
    "AipwInputs", "AllSitesExcludedError", "EstimateReport", "Excluded",
    "FeatureMap", "FoldPlan", "IDENTITY_PLUS_INTERCEPT", "MISSPECIFIED",
    "MessageLog", "MetaDeltas", "OverlapError", "PrivacyError", "PropensitySet",
    "RatioModel", "ScoreTable", "ShiftConfig", "SiteAggregates",
    "SiteDataset", "SweepSpec", "TargetCovariates", "TiltingError",
    "aipw_combine", "assemble_propensity", "audit_messages", "ci_grid",
    "clb_combine", "clb_ipw", "clb_site_aggregates", "crossfit_split",
    "decoupled_aipw", "expected_message_count", "fit_knn",
    "fit_outcome_direct", "fit_tilting", "gen_covariate_shift",
    "meta_combine", "meta_ipw", "misspecify_features",
    "oracle_gaussian_ratio", "oracle_meta_site_variances",
    "oracle_shift_propensity", "place_site_means", "read_sites_csv",
    "read_target_csv", "replay", "run_algorithm1", "run_algorithm2",
    "run_monte_carlo", "score_table", "sweep_kl", "validate_dataset",
    "write_sites_csv", "write_target_csv",
]
