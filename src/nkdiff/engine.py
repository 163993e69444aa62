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
are computed once from its start-of-round parameters. Results are therefore
bit-identical for any worker-thread count and any session order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import BlobsSpec, CorruptionSpec, Dataset, IdxSpec, build_datasets, corrupt_labels
from .metrics import MetricsRecord, accuracy, average_learner_accuracy
from .nn import Learner, ModelSpec, SessionStats, TrainHyperparams, pseudolabels, train_epoch
from .policies import (
    ConfigurationError,
    PolicyConfig,
    RoundPlan,
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

THREADS_ENV_VAR = "NKDIFF_THREADS"

_SESSION_STREAM = 2
_POLICY_STREAM = 3


@dataclass
class ResourceLedger:
    """Cumulative training-resource counters; all monotone."""

    oracle_sessions: int = 0
    forward_ops: int = 0
    rounds_completed: int = 0


@dataclass
class RoundStats:
    executed_sessions: int
    oracle_sessions: int
    mean_loss: float


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
    hyperparams: TrainHyperparams = field(
        default_factory=lambda: TrainHyperparams(learning_rate=0.005, batch_size=32)
    )
    dataset: BlobsSpec | IdxSpec = field(default_factory=BlobsSpec)
    corruption: CorruptionSpec | None = None
    master_seed: int = 0

    def __post_init__(self):
        PolicyConfig(self.policy, self.capacity).validate_for(self.n_models)
        if self.rounds < 1:
            raise ConfigurationError("rounds must be at least 1")
        if self.n_models < 2:
            raise ConfigurationError("population needs at least 2 models")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative")


def resolve_threads(threads: int | None = None) -> int:
    """Worker-thread cap: explicit arg, else NKDIFF_THREADS, else CPUs this process may use."""
    if threads is not None:
        if threads < 1:
            raise ConfigurationError("thread count must be positive")
        return threads
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(f"{THREADS_ENV_VAR}={env!r} is not an integer") from None
        if value < 1:
            raise ConfigurationError(f"{THREADS_ENV_VAR} must be positive, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def session_stream(master_seed: int, round_index: int, learner_id: int) -> np.random.Generator:
    """The shuffle stream used by the session of one learner in one round."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, _SESSION_STREAM, round_index, learner_id))
    )


def policy_stream(master_seed: int, round_index: int) -> np.random.Generator:
    """The randomness a stochastic policy consumes in one round."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, _POLICY_STREAM, round_index))
    )


def run_session(
    teacher: Learner,
    learner: Learner,
    X: np.ndarray,
    hp: TrainHyperparams,
    labels: np.ndarray | None = None,
) -> SessionStats | None:
    """One teaching session: the learner trains for an epoch on the
    teacher's labels. Returns None (a no-op) when the learner is the
    oracle. The teacher's parameters are never touched.
    """
    if learner.is_oracle:
        return None
    if teacher.id == learner.id:
        raise ValueError(f"model {learner.id} cannot be its own teacher")
    if labels is None:
        labels = pseudolabels(teacher, X)
    return train_epoch(learner, X, labels, hp)


def run_round(
    pop: Population,
    plan: RoundPlan,
    train: Dataset,
    hp: TrainHyperparams,
    ledger: ResourceLedger,
    capacity: int | None = None,
    threads: int = 1,
    master_seed: int | None = None,
    round_index: int = 0,
) -> RoundStats:
    """Execute every session of a plan and charge the ledger.

    Teacher labels are computed once per teacher from pre-round
    parameters, before any session runs, so teachers are frozen within
    the round. With ``master_seed`` set, each session's shuffle stream is
    re-keyed to (master_seed, round_index, learner id); sessions touch
    disjoint learners and may run on any number of worker threads.
    """
    validate_plan(plan, pop.n, capacity)

    sessions: list[tuple[Learner, Learner]] = []
    for teacher_id, learner_ids in plan.groups:
        teacher = pop.learners[teacher_id]
        for lid in learner_ids:
            learner = pop.learners[lid]
            if learner.is_oracle:
                continue
            sessions.append((teacher, learner))

    label_cache: dict[int, np.ndarray] = {}
    for teacher, _ in sessions:
        if teacher.id not in label_cache:
            label_cache[teacher.id] = pseudolabels(teacher, train.X)

    if master_seed is not None:
        for _, learner in sessions:
            learner.rng = session_stream(master_seed, round_index, learner.id)

    def execute(job: tuple[Learner, Learner]) -> tuple[int, SessionStats]:
        teacher, learner = job
        stats = run_session(teacher, learner, train.X, hp, labels=label_cache[teacher.id])
        assert stats is not None
        return learner.id, stats

    if threads > 1 and len(sessions) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(execute, sessions))
    else:
        results = [execute(job) for job in sessions]

    oracle_sessions = sum(1 for teacher, _ in sessions if teacher.is_oracle)
    ledger.oracle_sessions += oracle_sessions
    ledger.forward_ops += len(train) * len(sessions)
    ledger.rounds_completed += 1

    losses = [stats.mean_loss for _, stats in sorted(results, key=lambda r: r[0])]
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return RoundStats(
        executed_sessions=len(sessions),
        oracle_sessions=oracle_sessions,
        mean_loss=mean_loss,
    )


def _make_plan(cfg: ExperimentConfig, pop: Population, val: Dataset, round_index: int) -> RoundPlan:
    rng = policy_stream(cfg.master_seed, round_index)
    if cfg.policy == "oo":
        return group_oo(cfg.n_models, cfg.capacity, rng)
    if cfg.policy == "pom":
        return group_pom(cfg.n_models, rng)
    scores = evaluate_validation(pop, val)
    if cfg.policy == "rgbt":
        return group_rgbt(scores, cfg.capacity, rng)
    ranked = rank_models(scores)
    if cfg.policy == "btb":
        return group_btb(ranked, cfg.capacity)
    return group_eq(ranked, cfg.capacity)


def prepare_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Build (train, val, test) and apply label corruption to train only."""
    train, val, test = build_datasets(cfg.dataset)
    if cfg.corruption is not None:
        train = train.with_labels(corrupt_labels(train.y, cfg.corruption, train.K))
    return train, val, test


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
    """
    threads = resolve_threads(threads)
    if data is None:
        train, val, test = prepare_data(cfg)
    else:
        train, val, test = data
    if cfg.hyperparams.batch_size > len(train):
        raise ConfigurationError(
            f"batch_size {cfg.hyperparams.batch_size} exceeds training set of {len(train)}"
        )

    spec = ModelSpec(
        layer_widths=(train.n_features, *cfg.hidden_widths, train.K),
        seed=cfg.master_seed,
    )
    pop = init_population(spec, cfg.n_models, oracle_labels=train.y)
    ledger = ResourceLedger()
    if cfg.pretrain:
        delta = pretrain_population(pop, train, cfg.hyperparams)
        ledger.oracle_sessions += delta.oracle_sessions
        ledger.forward_ops += delta.forward_ops

    records: list[MetricsRecord] = []
    trainees = pop.trainees
    for t in range(1, cfg.rounds + 1):
        plan = _make_plan(cfg, pop, val, t)
        run_round(
            pop,
            plan,
            train,
            cfg.hyperparams,
            ledger,
            capacity=cfg.capacity,
            threads=threads,
            master_seed=cfg.master_seed,
            round_index=t,
        )
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
