"""nkdiff: round-based peer-teaching simulator for populations of small
classifiers trained under a teaching-capacity budget."""

from .data import (
    STREAMS,
    BlobsSpec,
    CorruptionSpec,
    Dataset,
    IdxCountMismatchError,
    IdxFormatError,
    IdxMagicError,
    IdxSpec,
    IdxTruncatedError,
    build_datasets,
    check_labels,
    corrupt_labels,
    corruption_indices,
    gen_blobs,
    load_idx,
    split_dataset,
    stream,
    write_idx,
)
from .engine import (
    ExperimentConfig,
    ResourceLedger,
    prepare_data,
    run_experiment,
    run_round,
    run_session,
)
from .metrics import (
    AggregateSeries,
    MetricsRecord,
    accuracy,
    aggregate_seeds,
    average_learner_accuracy,
    disagreement_stats,
    ensemble_classify,
    ensemble_predict,
)
from .nn import (
    PROB_FLOOR,
    Learner,
    ModelSpec,
    NonFiniteError,
    Oracle,
    TrainHyperparams,
    forward_batch,
    forward_stack,
    init_learner,
    loss_and_gradient,
    param_count,
    predict,
    pseudolabels,
    train_epoch,
    unpack_params,
)
from .policies import (
    ConfigurationError,
    RoundPlan,
    check_policy,
    group_btb,
    group_eq,
    group_oo,
    group_pom,
    group_rgbt,
    validate_plan,
)
from .population import (
    Population,
    evaluate_validation,
    init_population,
    pretrain_population,
    rank_models,
)

__version__ = "0.1.0"
