"""Round execution: evaluate, plan, run sessions, account resources.

Accounting conventions (these define the budget axes exactly):

* ``oracle_sessions`` counts learner epochs whose teacher is the oracle,
  including warm-up epochs when warm-up is enabled.
* ``forward_ops`` counts one unit per training example per executed
  session. A teacher's own label inference is not charged.
* A planned session whose learner is the oracle is skipped and charged
  nothing; the plan keeps it so pairwise exchange stays symmetric.

Determinism: the shuffle stream of a session is keyed by
(master_seed, round index, learner id), and a teacher's labels for a round
are computed once from its start-of-round parameters. Sessions run serially
in plan order, and results would be bit-identical in any other order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import (BlobsSpec, CorruptionSpec, Dataset, IdxSpec, Seed, build_datasets, check_types, corrupt_labels,
                   int_tuple, stream)
from .metrics import MetricsRecord, accuracy, average_learner_accuracy
from .nn import (
    Learner,
    ModelSpec,
    NonFiniteError,
    Oracle,
    TrainHyperparams,
    forward_stack,
    pseudolabels,
    train_epoch,
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


@dataclass
class ResourceLedger:
    """Cumulative training-resource counters; all monotone."""

    oracle_sessions: int = 0
    forward_ops: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; fully determines its output.

    ``master_seed`` drives model initialization, policy randomness and
    per-session shuffles. The dataset and corruption specs carry their
    own seeds so repeated runs share one task while the models vary.
    """

    policy: str
    n_models: int = 10
    capacity: int = 2
    rounds: int = 10
    pretrain: bool = False
    hidden_widths: tuple[int, ...] = (16,)
    hyperparams: TrainHyperparams = field(default_factory=TrainHyperparams)
    dataset: BlobsSpec | IdxSpec = field(default_factory=BlobsSpec)
    corruption: CorruptionSpec | None = None
    master_seed: Seed = 0

    def __post_init__(self):
        check_types(self)
        # A tuple, as ModelSpec stores its widths, so the frozen config hashes.
        object.__setattr__(self, "hidden_widths", int_tuple(self.hidden_widths, "hidden_widths"))
        if not isinstance(self.hyperparams, TrainHyperparams):
            raise ValueError(f"hyperparams must be a TrainHyperparams, got {self.hyperparams!r}")
        if not isinstance(self.dataset, (BlobsSpec, IdxSpec)):
            raise ValueError(f"dataset must be a BlobsSpec or an IdxSpec, got {self.dataset!r}")
        if not isinstance(self.corruption, (CorruptionSpec, type(None))):
            raise ValueError(f"corruption must be a CorruptionSpec or None, got {self.corruption!r}")
        check_policy(self.policy, self.capacity, self.n_models)
        if self.rounds < 1:
            raise ConfigurationError("rounds must be at least 1")
        if self.n_models < 2:
            raise ConfigurationError("population needs at least 2 models")
        if any(w < 1 for w in self.hidden_widths):
            raise ConfigurationError(f"hidden widths must be positive, got {list(self.hidden_widths)}")


def run_session(
    teacher: Learner | Oracle,
    learner: Learner,
    X: np.ndarray,
    hp: TrainHyperparams,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """One teaching session: the learner trains for an epoch on the
    teacher's ``labels``, shuffled by ``rng``, and its mean loss is returned.
    The teacher is never touched.
    """
    if teacher.id == learner.id:
        raise ValueError(f"model {learner.id} cannot be its own teacher")
    return train_epoch(learner, X, labels, hp, rng)


def run_round(
    pop: Population,
    plan: RoundPlan,
    train: Dataset,
    hp: TrainHyperparams,
    ledger: ResourceLedger,
    capacity: int,
    master_seed: int,
    round_index: int,
) -> None:
    """Execute every session of a plan and charge the ledger.

    Teacher labels are computed once per teacher from pre-round
    parameters, before any session runs, so teachers are frozen within
    the round. Each session shuffles from its own stream, keyed by
    (master_seed, round_index, learner id). Sessions touch disjoint learners
    and run one after another in plan order.
    """
    validate_plan(plan, pop.n, capacity)

    sessions = [
        (pop.learners[teacher_id], pop.learners[lid])
        for teacher_id, learner_ids in plan.groups
        for lid in learner_ids
        if not pop.learners[lid].is_oracle
    ]
    teachers = {teacher.id: teacher for teacher, _ in sessions}
    label_cache = {tid: pseudolabels(teacher, train.X) for tid, teacher in teachers.items()}

    for teacher, learner in sessions:
        rng = stream("session", master_seed, round_index, learner.id)
        run_session(teacher, learner, train.X, hp, label_cache[teacher.id], rng)

    ledger.oracle_sessions += sum(1 for teacher, _ in sessions if teacher.is_oracle)
    ledger.forward_ops += len(train) * len(sessions)


def _make_plan(cfg: ExperimentConfig, pop: Population, val: Dataset, round_index: int) -> RoundPlan:
    # Only oo, pom and rgbt draw from the round's policy stream; btb and eq build none.
    if cfg.policy == "oo":
        return group_oo(cfg.n_models, cfg.capacity, stream("policy", cfg.master_seed, round_index))
    if cfg.policy == "pom":
        return group_pom(cfg.n_models, stream("policy", cfg.master_seed, round_index))
    # Computes only before round 1: later rounds find the trainees' validation
    # outputs in the memo, filled by the stacked pass after the previous round.
    forward_stack(pop.trainees, val.X)
    scores = evaluate_validation(pop, val)
    if cfg.policy == "rgbt":
        return group_rgbt(scores, cfg.capacity, stream("policy", cfg.master_seed, round_index))
    ranked = rank_models(scores)
    if cfg.policy == "btb":
        return group_btb(ranked, cfg.capacity)
    return group_eq(ranked, cfg.capacity)


def prepare_data(
    cfg: ExperimentConfig, datasets: tuple[Dataset, Dataset, Dataset] | None = None
) -> tuple[Dataset, Dataset, Dataset]:
    """Build (train, val, test) and apply label corruption to train only.

    ``datasets``, if given, are the sets ``build_datasets(cfg.dataset)``
    returns; only the corruption is applied to them. Raises ValueError if a
    split has no rows or features, or other features than the training set,
    or the batch size exceeds the training set.
    """
    train, val, test = build_datasets(cfg.dataset) if datasets is None else datasets
    _check_data(cfg, train, val, test)
    if cfg.corruption is not None:
        train = train.with_labels(corrupt_labels(train.y, cfg.corruption, train.K))
    return train, val, test


def _check_data(cfg: ExperimentConfig, train: Dataset, val: Dataset, test: Dataset) -> None:
    for ds in (train, val, test):
        if len(ds) == 0 or ds.n_features == 0:
            raise ValueError(f"{ds.split} split is empty: {len(ds)} rows of {ds.n_features} features")
        if ds.n_features != train.n_features:
            raise ValueError(f"{ds.split} split has {ds.n_features} features, the train split {train.n_features}")
    if cfg.hyperparams.batch_size > len(train):
        raise ConfigurationError(
            f"batch_size {cfg.hyperparams.batch_size} exceeds training set of {len(train)}"
        )


def run_experiment(
    cfg: ExperimentConfig,
    data: tuple[Dataset, Dataset, Dataset] | None = None,
    threads: int | None = None,
) -> list[MetricsRecord]:
    """Run one full experiment and return its per-round metrics.

    ``data`` may supply pre-built (train, val, test) sets; corruption is
    assumed already applied to them. Otherwise the config's dataset and
    corruption specs are materialized here. The oracle holds the training
    labels as given, so a corrupted train set means a noisy oracle.
    ``threads`` is accepted for compatibility and ignored: sessions always
    run serially. A NonFiniteError gets ``(seed S, round t)`` or
    ``(seed S, warm-up)`` appended to its message.
    """
    if data is None:
        train, val, test = prepare_data(cfg)
    else:
        train, val, test = data
        _check_data(cfg, train, val, test)

    spec = ModelSpec(
        layer_widths=(train.n_features, *cfg.hidden_widths, train.K),
        seed=cfg.master_seed,
    )
    pop = init_population(spec, cfg.n_models, oracle_labels=train.y)
    ledger = ResourceLedger()
    if cfg.pretrain:
        with _numeric_context(cfg.master_seed, "warm-up"):
            sessions = pretrain_population(pop, train, cfg.hyperparams)
        ledger.oracle_sessions += sessions
        ledger.forward_ops += sessions * len(train)

    records: list[MetricsRecord] = []
    trainees = pop.trainees
    for t in range(1, cfg.rounds + 1):
        with _numeric_context(cfg.master_seed, f"round {t}"):
            plan = _make_plan(cfg, pop, val, t)
            run_round(
                pop,
                plan,
                train,
                cfg.hyperparams,
                ledger,
                capacity=cfg.capacity,
                master_seed=cfg.master_seed,
                round_index=t,
            )
            # One stacked pass per split fills every trainee's memo, in the
            # order the metrics below read the splits; they then only look up.
            for ds in (test, train, val):
                forward_stack(trainees, ds.X)
            per_learner = np.array([accuracy(l, test) for l in trainees])
            records.append(
                MetricsRecord(
                    round=t,
                    alacc_test=float(per_learner.mean()),
                    ensacc_test=accuracy(trainees, test),
                    alacc_train=average_learner_accuracy(pop, train),
                    ensacc_val=accuracy(trainees, val),
                    oracle_sessions=ledger.oracle_sessions,
                    forward_ops=ledger.forward_ops,
                    per_learner_acc=per_learner,
                )
            )
    return records


@contextmanager
def _numeric_context(seed: int, phase: str):
    """Append ``(seed S, phase)`` to a NonFiniteError raised inside."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{exc} (seed {seed}, {phase})") from None
