"""Pool-based active learning at desk scale.

A model-agnostic harness for pool-based active learning: the
FNR-proportional acquisition loop, an entropy top-k baseline, a
proportional-random control, supervised-fraction baselines, confusion-matrix
metrics with micro/macro F1, native SGD learners, a seeded synthetic data
generator, and reproducible multi-seed sweeps with mean(std) reporting.
"""

from .config import ExperimentConfig
from .core import (
    ClassPools,
    DatasetBundle,
    RandomSource,
    Split,
    TrainingSet,
    class_balance,
    split_initial,
)
from .engine import (
    IterationRecord,
    RunRecord,
    evaluate_model,
    run_active_learning,
    run_one,
    run_supervised,
    run_sweep,
)
from .errors import (
    ConfigurationError,
    EvaluationError,
    PoolalError,
    RunError,
    TrainingError,
)
from .learner import (
    LearnerConfig,
    TrainedModel,
    gradient_check,
    predict_batch,
    predict_proba,
    train,
)
from .metrics import MetricsReport, confusion, report
from .strategy import (
    Strategy,
    allocate_fnr,
    allocate_proportional,
    entropy_of,
    largest_remainder,
    parse_strategy,
    row_entropies,
    sample_fraction,
    select_entropy_topk,
)
from .synthgen import GeneratorSpec, generate, tissue_benchmark_preset

__version__ = "0.1.0"
