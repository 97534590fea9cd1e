"""Survey-weighted pseudo-Bayesian estimation of a one-way ANOVA model
under two-stage informative sampling."""

__version__ = "0.1.0"

from .design import (ClusterDesign, SampleDraw, TwoStageDesign, UnitDesign,
                     WeightMode, WeightSet, build_weights, draw_two_stage_sample,
                     inclusion_probs, size_measures, systematic_pps)
from .diagnostics import (BalanceReport, BoundsReport, InformativenessSummary,
                          bounds_report, informativeness_summary,
                          weighted_re_average, weighted_residual_balance)
from .errors import ConfigError, DesignError, PosteriorError
from .harness import (ReplicationReport, Scenario, emit_plot_data,
                      load_scenarios, run_grid, run_scenario)
from .inference import (ChainConfig, DrawsMatrix, ParamState, PriorConfig,
                        augmented_logpseudolikelihood,
                        augmented_logpseudoposterior, fc_a_k, fc_mu, fc_tau_a,
                        fc_tau_eps, integrated_loglik, integrated_logposterior,
                        map_estimate, posterior_means, run_gibbs,
                        run_integrated_mcmc)
from .popgen import Population, PopulationConfig, generate_population

__all__ = [
    "__version__",
    "ChainConfig", "ClusterDesign", "ConfigError",
    "DesignError", "DrawsMatrix", "ParamState", "Population",
    "PopulationConfig", "PosteriorError", "PriorConfig", "ReplicationReport", "SampleDraw",
    "Scenario", "TwoStageDesign", "UnitDesign", "WeightMode", "WeightSet",
    "BalanceReport", "BoundsReport", "InformativenessSummary",
    "augmented_logpseudolikelihood", "augmented_logpseudoposterior",
    "bounds_report", "build_weights", "draw_two_stage_sample",
    "emit_plot_data", "fc_a_k", "fc_mu", "fc_tau_a", "fc_tau_eps",
    "generate_population", "inclusion_probs", "informativeness_summary",
    "integrated_loglik", "integrated_logposterior", "load_scenarios",
    "map_estimate", "posterior_means", "run_gibbs", "run_grid",
    "run_integrated_mcmc", "run_scenario", "size_measures", "systematic_pps",
    "weighted_re_average", "weighted_residual_balance",
]
