"""Granular counting and Bayesian inference for fuzzily reported counts."""

from .errors import GrancountError, NumericalError, ValidationError
from .possibility import (
    MembershipVector,
    PossibilityAssignment,
    complement_degrees,
    granular_count_bruteforce,
    granular_count_fast,
)
from .fuzzy import (
    BetaFuzzy,
    FitResult,
    alpha_cut,
    beta_centroid,
    beta_membership,
    bernoulli_kl,
    defuzzify,
    fit_beta,
    membership_grid,
)
from .kernel import (
    CarResult,
    LatentCountModel,
    ReportingKernel,
    is_car,
    kernel_prob,
    marginal_outcome_prob,
    normalizer,
    zadeh_probability,
)
from .model import (
    ModelParams,
    Posterior,
    PriorSpec,
    RegressionSpec,
    SimulatedData,
    car1_observed_loglik,
    car2_observed_loglik,
    cnar_observed_loglik,
    grad_log_posterior,
    log_posterior,
    mean_response,
    negbin_log_pmf,
    scalar_observed_loglik,
    simulate,
    truncated_count_pmf,
)
from .inference import HmcConfig, PosteriorDraws, diagnostics, leapfrog, sample
from .ppc import EnergyStats, PpcSummary, energy_components, fuzzy_distance, replicate, run_ppc, scalar_summaries

__version__ = "0.1.0"
