"""Continual test-time adaptation at desk scale.

A small numpy stack: an autodiff core whose tape is a plain list, a
batch-normalized MLP with a named parameter registry, a diagonal-Gaussian
posterior fitted from SGD iterates, a synthetic corruption-stream
benchmark, the adaptation engine with its baselines, and proper-scoring
metrics.
"""

from .autodiff import Tensor, backward, softmax
from .engine import (
    AdaptState,
    AugmentParams,
    PetalConfig,
    RunReport,
    StepReport,
    adapt_step,
    baseline_step,
    init_adapt_state,
    run_lifelong,
)
from .metrics import MetricAccumulator, per_sample_scores
from .model import MlpClassifier
from .streams import (
    CorruptionSpec,
    StreamSchedule,
    apply_corruption,
    build_schedule,
    make_source_dataset,
    stream_batches,
)
from .swag import SwagDiagEstimator, SwagDiagPosterior, train_source

__version__ = "0.1.0"
