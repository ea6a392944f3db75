"""Distribution-shift-robust contextual linear programming.

Calibrates covariate-conditional box uncertainty sets from shifted training
data via density-ratio-weighted conformal adjustment, solves the resulting
box-robust LPs, and reproduces the reference analytic and simulated
experiments at desk scale.
"""

from .analytic import (DiscreteWorld, coverage_band, exact_coverage,
                       oracle_toy_decision, prob_conservative, tv_distance)
from .conformal import (CalibScores, calib_scores, empirical_coverage, select_eta,
                        uncertainty_box)
from .density_ratio import (GaussianOracleRatio, RatioModel, fit_classifier_ratio,
                            fit_kmm_covariate, fit_kmm_label, trivial_ratio)
from .harness import (ExperimentConfig, Report, ReportRow, calibrate_replicate,
                      emit_report, empirical_var, run_pipeline, run_replicate)
from .lp import (BoxSet, LinearProgram, LpSolution, robustify_box, solve_lp,
                 solve_robust_box)
from .numerics import RngStream, normal_cdf, normal_quantile, solve_spd
from .predictors import Dataset, compute_residuals, fit_mean, fit_quantile, pinball
from .scenarios import (GridScenario, KnapsackScenario, SimpleScenario,
                        ToyScenario, build_knapsack_lp, build_shortest_path_lp)

__version__ = "0.1.0"
