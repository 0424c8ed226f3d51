"""Without-replacement stochastic gradient methods and their verification oracles.

The package provides, for mean losses of linear predictions:

* exact ridge machinery and convex Lipschitz losses (:mod:`.problem`),
* deterministic counter-based randomness and the three sampling
  disciplines (:mod:`.rng`, :mod:`.sampling`),
* projected SGD with permutation-exact decomposition oracles (:mod:`.sgd`),
* variance-reduced epochs with a single initial shuffle (:mod:`.svrg`),
* a simulated multi-machine driver with communication accounting
  (:mod:`.distributed`),
* Monte-Carlo and exhaustive verification oracles (:mod:`.verify`),
* synthetic data generation and text serialization (:mod:`.datagen`).
"""

__version__ = "0.31.0"

from .datagen import GenSpec, generate, load, planted_weights, save
from .distributed import (
    CommLog,
    matched_permutation,
    partition,
    run_distributed_svrg,
)
from .errors import (
    BatchesExhausted,
    DataFormatError,
    DimensionMismatch,
    DivergenceError,
    IndexOutOfRange,
    InvalidParameter,
    ShufflegradError,
    SingularCurvature,
)
from .problem import (
    Dataset,
    LipschitzLinearProblem,
    RidgeProblem,
)
from .rng import Rng
from .sampling import (
    RESHUFFLE_EACH_EPOCH,
    SINGLE_SHUFFLE,
    WITH_REPLACEMENT,
    enumerate_permutations,
    is_permutation,
    shuffle,
)
from .sgd import (
    FixedStep,
    InverseSqrtStep,
    SGDConfig,
    SeedSummary,
    StronglyConvexStep,
    Trace,
    average_suboptimality_over_seeds,
    run_sgd,
    suboptimality_decomposition_check,
)
from .svrg import (
    EpochTrace,
    SVRGConfig,
    epoch_decrease_ratio,
    log_suboptimality_bound,
    recommended_params,
    run_svrg,
    run_svrg_over_streams,
)
from .verify import (
    FiniteVectorClass,
    LinearBallClass,
    McEstimate,
    central_band_peak,
    contraction_check,
    linear_ball_bound,
    matrix_concentration_check,
    permutation_identity_check,
    product_class_check,
    rademacher_estimate,
    sqrt_sum_bound_scan,
)
