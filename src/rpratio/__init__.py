"""Two-parameter ratio-product-ratio estimation of a finite population mean.

The package covers the full workflow around the estimator family
``alpha * B * ybar + (1 - alpha) * ybar / B`` where ``B`` blends the sample
and population means of an auxiliary variable: population summaries,
point estimation, first-order bias and mean squared error, optimal and
bias-free parameter choices, dominance regions against the classical
ratio / product / sample-mean baselines, sample-size planning under
simple random sampling without replacement, synthetic population
generation, and a deterministic Monte Carlo comparison harness.
"""
from .errors import (
    DegenerateMseError,
    DegenerateVarianceError,
    EmptyDataError,
    EstimationError,
    InfeasibleTargetsError,
    InvalidDesignError,
    InvalidInputError,
    OutOfRangeError,
    ParseError,
    PoleAtHalfError,
    SingularDenominatorError,
    TooLargeError,
    ZeroMeanError,
)
from .estimators import (
    EstimatorSpec,
    Product,
    Ratio,
    RatioProductRatio,
    Reddy,
    SahaiTransformed,
    SampleMean,
    SampleSummary,
    SinghRatioProduct,
    SrivastavaPower,
    UnbiasedAOE,
    estimate,
    estimator_token,
    parse_estimator,
    symmetry_partner,
)
from .population import (
    Population,
    SummaryStats,
    load_population_csv,
    summarize,
)
from .sampling import (
    ConfidenceInterval,
    SamplePlan,
    SamplingDesign,
    SplitMix64,
    confidence_interval,
    plan_sample_size,
    quartiles,
    srswor,
    z_quantile,
)
from .simulation import (
    EstimatorReport,
    ExactMoments,
    RankingTable,
    SimConfig,
    SimResult,
    exhaustive_oracle,
    run_simulation,
    write_estimates_csv,
)
from .synthetic import MomentTargets, generate_population
from .theory import (
    AOESolution,
    Baseline,
    Branch,
    FirstOrderResult,
    SurfaceKind,
    aoe_bias1,
    aoe_parameters,
    biasfree_betas,
    dominates,
    family_theory,
    minimal_mse1,
    mse1_grad,
    relative_efficiency,
    surface_grid,
)

__version__ = "0.1.0"
