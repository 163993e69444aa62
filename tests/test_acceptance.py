"""Acceptance suite: one test per release criterion.

Each test exercises its criterion at the stated tolerance on the reference
task (3-class blobs, d=10, 600/200/200 rows, MLP [10,16,3], N=10) and
prints a PASS line with the measured margin; a failed assertion is the
FAIL line. Run with::

    pytest tests/test_acceptance.py -v -s

Hyperparameters are per-experiment, mirroring how the experiment families
differ in purpose: the diffusion-efficiency and policy-ordering runs use a
slow rate (0.005) so ten rounds are genuinely pre-convergent, while the
memorization and noise-robustness runs use faster rates (0.02 / 0.08)
where the architecture's capacity to overfit actually shows within their
round budgets.
"""

import json
import os

import numpy as np
import pytest

from nkdiff import (
    CorruptionSpec,
    ExperimentConfig,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    ModelSpec,
    RankedList,
    TrainHyperparams,
    accuracy,
    corrupt_labels,
    disagreement_stats,
    gen_blobs,
    group_btb,
    group_eq,
    init_learner,
    load_idx,
    loss_and_gradient,
    predict,
    run_experiment,
    train_epoch,
    write_idx,
)
from nkdiff.cli import main as cli_main
from nkdiff.data import BlobsSpec

from test_policies import btb_reference, eq_reference

# Reference task: one fixed pool of 1002 shuffled points sliced into
# exactly 600/200/200 rows.
DATASET_SEED = 7
CENTERS_SCALE = 1.0
NOISE_SIGMA = 1.5
N_MODELS = 10
CHANCE = 1.0 / 3.0
SEED_BASE = 1000

DIFFUSION_HP = TrainHyperparams(learning_rate=0.005, batch_size=32)
MEMORIZATION_HP = TrainHyperparams(learning_rate=0.02, batch_size=32)
NOISE_HP = TrainHyperparams(learning_rate=0.08, batch_size=32)


def ci95_halfwidth(values: np.ndarray) -> float:
    return 1.96 * values.std(ddof=1) / np.sqrt(len(values))


@pytest.fixture(scope="session")
def ref_data():
    pool = gen_blobs(
        n_per_class=334,
        K=3,
        d=10,
        centers_scale=CENTERS_SCALE,
        noise_sigma=NOISE_SIGMA,
        seed=DATASET_SEED,
    )
    train = pool.take(np.arange(0, 600), "train")
    val = pool.take(np.arange(600, 800), "validation")
    test = pool.take(np.arange(800, 1000), "test")
    return train, val, test


def run_batch(data, policy, capacity, rounds, seeds, hp, pretrain=False):
    runs = []
    for s in range(seeds):
        cfg = ExperimentConfig(
            policy=policy,
            n_models=N_MODELS,
            capacity=capacity,
            rounds=rounds,
            pretrain=pretrain,
            hyperparams=hp,
            dataset=BlobsSpec(),
            master_seed=SEED_BASE + s,
        )
        runs.append(run_experiment(cfg, data=data, threads=1))
    return runs


@pytest.fixture(scope="session")
def long_clean_runs(ref_data):
    """100-round OO C=10 and BTB C=2 batches shared by criteria 5 and 6."""
    return {
        "oo10": run_batch(ref_data, "oo", 10, 100, 20, DIFFUSION_HP),
        "btb2": run_batch(ref_data, "btb", 2, 100, 20, DIFFUSION_HP),
    }


def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        depth = int(rng.integers(1, 3))
        widths = tuple(int(w) for w in rng.integers(2, 7, size=depth + 1)) + (
            int(rng.integers(2, 5)),
        )
        spec = ModelSpec(layer_widths=widths, seed=trial)
        params = init_learner(spec, trial).params
        X = rng.normal(size=(int(rng.integers(1, 5)), widths[0]))
        y = rng.integers(0, widths[-1], size=len(X))
        _, analytic = loss_and_gradient(spec, params, X, y)
        numeric = np.empty_like(analytic)
        for i in range(len(params)):
            plus, minus = params.copy(), params.copy()
            plus[i] += h
            minus[i] -= h
            numeric[i] = (
                loss_and_gradient(spec, plus, X, y)[0]
                - loss_and_gradient(spec, minus, X, y)[0]
            ) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4
    print(f"PASS criterion 1: gradient vs central differences, max rel err {worst:.2e} < 1e-4")


def test_criterion_02_grouping_matches_brute_force():
    rng = np.random.default_rng(29)
    checked = 0
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.choice([4, 6, 8, 10, 12]))
        order = rng.permutation(n).tolist()
        ranked = RankedList(order=np.array(order), oracle_id=order[-1])
        for capacity in sorted({2, n // 2}):
            got_btb = group_btb(ranked, capacity).groups
            got_eq = group_eq(ranked, capacity).groups
            if got_btb != btb_reference(order, capacity):
                mismatches += 1
            if got_eq != eq_reference(order, capacity):
                mismatches += 1
            checked += 2
    assert mismatches == 0
    print(f"PASS criterion 2: {checked} plan constructions agree with brute force, 0 mismatches")


def test_criterion_03_csv_determinism_across_threads(tmp_path, monkeypatch):
    blobs = {
        "n_per_class": 60,
        "k": 3,
        "d": 4,
        "centers_scale": 2.0,
        "noise_sigma": 0.8,
        "seed": 3,
        "train_frac": 0.6,
        "val_frac": 0.2,
    }
    configs = [
        {"policy": "btb", "n": 10, "c": 2, "rounds": 4, "seeds": 2, "blobs": blobs},
        {"policy": "pom", "n": 10, "c": 2, "rounds": 4, "seeds": 2, "blobs": blobs},
        {"policy": "oo", "n": 10, "c": 5, "rounds": 4, "seeds": 2, "blobs": blobs, "pretrain": True},
    ]
    thread_counts = (1, 2, os.cpu_count() or 1)
    diffs = 0
    for i, config in enumerate(configs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(config))
        outputs = []
        for threads in thread_counts:
            out = tmp_path / f"out{i}_{threads}"
            monkeypatch.setenv("NKDIFF_THREADS", str(threads))
            assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        diffs += sum(outputs[0] != other for other in outputs[1:])
    assert diffs == 0
    print(f"PASS criterion 3: {len(configs)} configs x {len(thread_counts)} thread counts, byte-identical CSVs")


def test_criterion_04_per_round_oracle_session_identities(ref_data):
    cases = [("oo", 2), ("oo", 5), ("btb", 2), ("btb", 5), ("eq", 2), ("eq", 5), ("pom", 2)]
    for policy, capacity in cases:
        runs = run_batch(ref_data, policy, capacity, 10, 1, DIFFUSION_HP)
        expected = 1 if policy == "pom" else capacity - 1
        sessions = [rec.oracle_sessions for rec in runs[0]]
        deltas = np.diff([0] + sessions).tolist()
        assert deltas == [expected] * 10, (policy, capacity, deltas)
    print("PASS criterion 4: per-round oracle sessions C-1 (oo/btb/eq at C in {2,5}) and 1 (pom), 10 rounds exact")


@pytest.mark.slow
def test_criterion_05_capacity_efficiency_at_fixed_budget(long_clean_runs):
    # budget: two full C=10 rounds = 18 oracle sessions
    budget = 2 * (N_MODELS - 1)
    diffs = []
    for run_oo, run_btb in zip(long_clean_runs["oo10"], long_clean_runs["btb2"]):
        rec_oo = next(r for r in run_oo if r.oracle_sessions >= budget)
        rec_btb = next(r for r in run_btb if r.oracle_sessions >= budget)
        assert rec_oo.oracle_sessions == budget == rec_btb.oracle_sessions
        diffs.append(rec_btb.ensacc_test - rec_oo.ensacc_test)
    diffs = np.array(diffs)
    lower = diffs.mean() - ci95_halfwidth(diffs)
    assert lower > 0.0
    print(
        f"PASS criterion 5: at {budget} oracle sessions, BTB C=2 beats OO C=10 by "
        f"{diffs.mean():.4f} (95% CI lower bound {lower:+.4f} > 0, {len(diffs)} seeds)"
    )


@pytest.mark.slow
def test_criterion_06_convergence_gap_small(long_clean_runs):
    oo = np.mean([run[-1].alacc_test for run in long_clean_runs["oo10"]])
    btb = np.mean([run[-1].alacc_test for run in long_clean_runs["btb2"]])
    gap = abs(oo - btb)
    assert gap < 0.05
    print(
        f"PASS criterion 6: round-100 alacc OO C=10 {oo:.4f} vs BTB C=2 {btb:.4f}, "
        f"gap {gap:.4f} < 0.05"
    )


@pytest.mark.slow
def test_criterion_07_policy_ordering_with_pretraining(ref_data):
    seeds = 32
    runs = {
        policy: run_batch(ref_data, policy, 2, 10, seeds, DIFFUSION_HP, pretrain=True)
        for policy in ("btb", "rgbt", "oo")
    }
    ens = {p: np.array([r[-1].ensacc_test for r in runs[p]]) for p in runs}
    ala = {p: np.array([r[-1].alacc_test for r in runs[p]]) for p in runs}

    gap_br = ens["btb"] - ens["rgbt"]
    gap_ro = ens["rgbt"] - ens["oo"]
    lb_br = gap_br.mean() - ci95_halfwidth(gap_br)
    lb_ro = gap_ro.mean() - ci95_halfwidth(gap_ro)
    assert lb_br >= 0.0, f"BTB vs RGBT reversal not excluded: lb={lb_br:.4f}"
    assert lb_ro >= 0.0, f"RGBT vs OO reversal not excluded: lb={lb_ro:.4f}"
    assert ala["oo"].mean() < ala["btb"].mean()
    assert ala["oo"].mean() < ala["rgbt"].mean()
    print(
        f"PASS criterion 7: round-10 ensemble acc btb {ens['btb'].mean():.4f} >= "
        f"rgbt {ens['rgbt'].mean():.4f} >= oo {ens['oo'].mean():.4f} "
        f"(gap CIs exclude reversal: lb {lb_br:+.4f}, {lb_ro:+.4f}); "
        f"OO worst on alacc ({ala['oo'].mean():.4f})"
    )


@pytest.mark.slow
def test_criterion_08_pom_memorization_resistance(ref_data):
    train, val, test = ref_data
    random_labels = corrupt_labels(
        train.y, CorruptionSpec(fraction=1.0, mode="full_random", seed=97), train.K
    )
    randomized = train.with_labels(random_labels)
    seeds = 20

    pom_curves = []
    for s in range(seeds):
        cfg = ExperimentConfig(
            policy="pom",
            n_models=N_MODELS,
            capacity=2,
            rounds=100,
            hyperparams=MEMORIZATION_HP,
            dataset=BlobsSpec(),
            master_seed=SEED_BASE + s,
        )
        recs = run_experiment(cfg, data=(randomized, val, test), threads=1)
        pom_curves.append([rec.alacc_train for rec in recs])
    pom_mean = np.mean(pom_curves, axis=0)
    assert pom_mean.max() <= CHANCE + 0.03

    single_best = []
    for s in range(seeds):
        spec = ModelSpec(layer_widths=(10, 16, 3), seed=SEED_BASE + s)
        learner = init_learner(spec, 0)
        best = 0.0
        for _ in range(100):
            train_epoch(learner, randomized.X, randomized.y, MEMORIZATION_HP)
            best = max(best, accuracy(learner, randomized))
        single_best.append(best)
    single = float(np.mean(single_best))
    assert single > CHANCE + 0.10
    print(
        f"PASS criterion 8: POM train acc on random labels stays <= {pom_mean.max():.4f} "
        f"(chance+3pts = {CHANCE + 0.03:.4f}) for 100 rounds; single model reaches "
        f"{single:.4f} > {CHANCE + 0.10:.4f}"
    )


@pytest.mark.slow
def test_criterion_09_noise_robustness(ref_data):
    train, val, test = ref_data
    noisy = train.with_labels(
        corrupt_labels(train.y, CorruptionSpec(fraction=0.4, mode="uniform_replace", seed=97), train.K)
    )
    seeds = 10
    drops = {}
    for policy, capacity in (("oo", 10), ("pom", 2), ("rgbt", 2)):
        per_seed = []
        for s in range(seeds):
            cfg = ExperimentConfig(
                policy=policy,
                n_models=N_MODELS,
                capacity=capacity,
                rounds=300,
                hyperparams=NOISE_HP,
                dataset=BlobsSpec(),
                master_seed=SEED_BASE + s,
            )
            recs = run_experiment(cfg, data=(noisy, val, test), threads=1)
            curve = np.array([rec.alacc_test for rec in recs])
            per_seed.append(curve.max() - curve[-1])
        drops[policy] = float(np.mean(per_seed))
    assert drops["oo"] >= drops["pom"] + 0.10
    assert drops["oo"] >= drops["rgbt"] + 0.10
    print(
        f"PASS criterion 9: 40% noise peak-to-final drops: OO C=10 {drops['oo']:.4f} "
        f">= POM {drops['pom']:.4f} + 0.10 and >= RGBT {drops['rgbt']:.4f} + 0.10"
    )


def test_criterion_10_disagreement_curves(ref_data):
    train, val, test = ref_data
    spec = ModelSpec(layer_widths=(10, 16, 3), seed=123)
    a = init_learner(spec, 0)
    b = init_learner(spec, 1)
    rounds = 30
    for _ in range(rounds):
        train_epoch(a, train.X, train.y, DIFFUSION_HP)
        train_epoch(b, train.X, train.y, DIFFUSION_HP)
        both, at_least_one = disagreement_stats(a, b, test)
        correct_a = int(np.sum(predict(a, test.X) == test.y))
        correct_b = int(np.sum(predict(b, test.X) == test.y))
        assert both <= at_least_one <= len(test)
        assert at_least_one >= correct_a
        assert at_least_one >= correct_b
        assert both <= min(correct_a, correct_b)
    print(f"PASS criterion 10: disagreement count inequalities hold at every one of {rounds} rounds")


def test_criterion_11_idx_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    pixels = rng.integers(0, 256, size=(100, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 10, size=100).astype(np.uint8)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    write_idx(images_path, labels_path, pixels, labels)
    ds = load_idx(images_path, labels_path)
    assert np.array_equal(ds.X, pixels.reshape(100, 36).astype(np.float64) / 255.0)
    assert np.array_equal(ds.y, labels)

    # malformed variants, each with its own error type
    bad_magic = tmp_path / "bad_magic.idx"
    bad_magic.write_bytes(b"\x00\x00\x08\x04" + images_path.read_bytes()[4:])
    with pytest.raises(IdxMagicError):
        load_idx(bad_magic, labels_path)

    truncated = tmp_path / "truncated.idx"
    truncated.write_bytes(images_path.read_bytes()[:-10])
    with pytest.raises(IdxTruncatedError):
        load_idx(truncated, labels_path)

    short_labels = tmp_path / "short_labels.idx"
    short_labels.write_bytes(b"\x00\x00\x08\x01" + (99).to_bytes(4, "big") + bytes(labels[:99]))
    with pytest.raises(IdxCountMismatchError):
        load_idx(images_path, short_labels)
    print("PASS criterion 11: IDX writer/loader round-trips bit-exactly; all 3 malformed cases raise distinct errors")
