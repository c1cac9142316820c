"""smoothmask: mask spatial datasets with row-stochastic linear smoothers and
quantify the utility (GLM estimate quality) and identification disclosure risk
of the released data."""

__version__ = "0.1.0"

from .dataset import (
    CsvSchema,
    GridSpec,
    Location,
    ParseError,
    SpatialDataset,
    aggregate,
    load_csv,
    write_csv,
)
from .kernels import (
    BivariateNormalKernel,
    BlockRegion,
    EuclideanKernel,
    ExponentialDecayKernel,
    KernelFamily,
    PointSource,
    RingAngleKernel,
    RingBlockKernel,
    RingKernel,
    eval_weight,
    kernel_from_json,
    kernel_to_json,
)
from .masking import (
    MaskingOperator,
    build_operator,
    compose_two_step,
    mask_dataset,
)
from .glm import (
    BootstrapResult,
    FitResult,
    ModelSpec,
    OddsRatioResult,
    OutOfRangeError,
    bootstrap_ci,
    fit,
    naive_ci,
    population_odds_ratio,
)
from .risk import (
    IntruderScenario,
    RiskReport,
    expected_correct_rate,
    match_probabilities,
    risk_report,
)
from .bias import BiasReport, first_order_bias, function_bias, r0_matrix
from .sim import (
    BlockedExposure,
    DirectionalExposure,
    RadialExposure,
    SimConfig,
    StudyResult,
    default_lambda_grid,
    risk_utility_profile,
    run_study,
    sample_locations,
    simulate_outcomes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
