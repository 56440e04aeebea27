"""kdtrain: train an LSTM frame classifier from a feed-forward teacher
via temperature-softened targets, as a soft-only objective, a hard+soft
regularizer, or a soft-then-hard pretraining schedule."""

from .datasets import FrameDataset, SplitSet, SynthTaskSpec, generate_synth, validate_soft_targets
from .distill import (
    REGIMES,
    DistillLossSpec,
    SoftTargetSet,
    batch_soft_loss,
    export_soft_targets,
    frame_objective,
)
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    InvalidArgumentError,
    InvalidStateError,
    KdtrainError,
    NumericOverflowError,
    ShapeError,
)
from .feedforward import FeedForwardParams, ff_backward, ff_forward, init_feedforward
from .lstm import (
    LstmProjParams,
    RecurrentState,
    init_lstm,
    lstm_backward_batch,
    lstm_forward_batch,
    zeros_state,
)
from .numeric import softmax_rows
from .training import (
    GradVarianceAccumulator,
    OptimizerState,
    TrainingSchedule,
    frame_accuracy,
    gradient_variance_report,
    run_training,
    sgd_momentum_step,
)

__version__ = "0.1.0"
