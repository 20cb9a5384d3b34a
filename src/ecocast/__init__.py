"""One-step ecosystem forecasting from stacked shallow learners.

The pipeline: named time series plus static context maps are assembled into
supervised one-step pairs, a stack of shallow bricks (linear, DSN, kernel,
tensor, or kernel-tensor) learns the next-step map, and iterated rollout
against a held-out suffix measures how far ahead the predictor stays
reliable.
"""

from .bricks import (
    Activation,
    Brick,
    DSNBrick,
    KernelBrick,
    KernelSpec,
    KernelTensorBrick,
    LinearBrick,
    TensorBrick,
    activate,
    gaussian_kernel,
    kernel_matrix,
    train_dsn_brick,
    train_kernel_brick,
    train_kt_brick,
    train_linear_brick,
    train_tensor_brick,
    uniform_kernel_spec,
)
from .datasets import (
    ContextMap,
    ScalingSearchResult,
    TimeSeriesSet,
    build_training_pairs,
    default_scaling,
    flatten_context,
    optimize_scaling,
    usle_soil_loss,
)
from .linalg import (
    EXACT_SVD,
    InverseConfig,
    SpectralEstimate,
    pseudo_inverse,
    spectral_radius,
    tikhonov,
)
from .lotka import (
    DegenerateFitError,
    LVParams,
    PopulationTrajectory,
    REFERENCE_PARAMS,
    first_integral,
    fit_lv,
    simulate_lv,
)
from .scaling import ScalingSet, adimensionalize
from .stability import (
    RolloutResult,
    StabilityReport,
    estimate_horizon,
    linear_stability,
    rollout,
    split_train_validate,
)
from .stack import (
    BrickConfig,
    BrickTrainingError,
    InputSchema,
    ParameterCounts,
    StackedModel,
    count_free_parameters,
    train_stack,
)

__version__ = "0.1.0"
