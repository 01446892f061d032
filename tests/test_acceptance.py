"""Acceptance gate: one test per shipped criterion, each printing a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria:
  1. CRF dynamic programming matches brute-force path enumeration.
  2. Analytic gradients (CRF, encoder BPTT, composed) match finite differences.
  3. The experiment-1 configuration hits 100% train accuracy on a toy corpus.
  4. The curves CSV shows the 10-epoch step-decay schedule.
  5. Full-scale replication; runs only when a real semtag corpus is supplied
     via SEMTAGGER_PMB_CORPUS (otherwise criterion 3 stands in; see README).
  6. Training is byte-identical across reruns with the same flags and seed.
  7. The large external-vector SGD configuration shows strictly higher
     epoch-to-epoch validation-loss variance than the small Adam one.
"""

import os
import time

import numpy as np
import pytest

from helpers import (brute_log_partition, brute_marginals, brute_viterbi,
                     fd_grad, gradient_posteriors, make_toy_corpus,
                     random_crf_instance, rel_err, trans_mask, type_vectors)
from semtagger import (ExperimentConfig, backward, build_model, build_vocab,
                       encode_corpus, encode_embedded, fit, forward,
                       init_crf_params, init_params, log_partition,
                       nll_and_grad, nll_loss, run_experiment,
                       serialize_corpus, split, experiment_grid,
                       viterbi_decode)
from semtagger.cli import main
from semtagger.data import EmbeddedSentence


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_1_crf_oracle_equivalence():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst_logz = worst_marg = worst_score = 0.0
    for i in range(500):
        k = 1 + i % 4          # K in 1..4
        big_t = 1 + (i // 4) % 6  # T in 1..6, every (K, T) combo covered
        params, emissions, gold = random_crf_instance(rng, k, big_t)

        fast = log_partition(params, emissions)
        slow = brute_log_partition(params, emissions)
        worst_logz = max(worst_logz, abs(fast - slow))

        path, score = viterbi_decode(params, emissions)
        slow_path, slow_score = brute_viterbi(params, emissions)
        assert np.array_equal(path, slow_path), (i, path, slow_path)
        worst_score = max(worst_score, abs(score - slow_score))

        unary, pair_counts = gradient_posteriors(params, emissions, gold)
        slow_u, slow_p = brute_marginals(params, emissions)
        worst_marg = max(worst_marg, float(np.max(np.abs(unary - slow_u))),
                         float(np.max(np.abs(pair_counts - slow_p.sum(axis=0)))))
    runtime = time.perf_counter() - t0
    ok = (worst_logz <= 1e-8 and worst_score <= 1e-8
          and worst_marg <= 1e-8 and runtime < 10.0)
    _report(1, ok,
            f"500 instances; max |logZ diff|={worst_logz:.2e}, "
            f"|viterbi score diff|={worst_score:.2e}, "
            f"|marginal diff|={worst_marg:.2e}; paths identical; "
            f"runtime {runtime:.1f}s (<10s)")


# --------------------------------------------------------------- criterion 2

def _crf_fd_suite(rng, n):
    worst = 0.0
    for i in range(n):
        # K >= 2: a single-tag chain has identically-zero loss, so relative
        # error against finite-difference noise is undefined there
        k = 2 + i % 3
        big_t = 1 + i % 6
        params, emissions, gold = random_crf_instance(rng, k, big_t)
        _, grads = nll_and_grad(params, emissions, gold)
        f = lambda: nll_loss(params, emissions, gold)
        worst = max(worst, rel_err(grads.d_transitions,
                                   fd_grad(f, params.transitions, 1e-6,
                                           mask=trans_mask(params))))
        worst = max(worst, rel_err(grads.d_emissions,
                                   fd_grad(f, emissions, 1e-6)))
    return worst


def _encoder_fd_suite(rng, n):
    worst = 0.0
    for i in range(n):
        params = init_params(vocab_size=int(rng.integers(4, 8)),
                             emb_dim=int(rng.integers(2, 5)),
                             hidden_dim=int(rng.integers(2, 6)),
                             num_tags=int(rng.integers(2, 4)),
                             seed=1000 + i)
        ids = rng.integers(0, params.vocab_size,
                           size=int(rng.integers(1, 6)))
        emissions, tape = forward(params, ids)
        weights = rng.normal(size=emissions.shape)
        grads = backward(params, tape, weights)
        f = lambda: float(np.sum(weights * forward(params, ids)[0]))
        for name, tensor in params.tensors().items():
            worst = max(worst, rel_err(grads.tensors()[name],
                                       fd_grad(f, tensor, 1e-5)))
    return worst


def _end_to_end_fd_suite(rng, n):
    worst = 0.0
    for i in range(n):
        k = int(rng.integers(2, 4))
        encoder = init_params(vocab_size=6, emb_dim=3,
                              hidden_dim=int(rng.integers(2, 5)),
                              num_tags=k, seed=2000 + i)
        crf = init_crf_params(k, seed=3000 + i)
        ids = rng.integers(0, 6, size=int(rng.integers(1, 6)))
        gold = rng.integers(0, k, size=ids.size)

        def loss():
            emissions, _ = forward(encoder, ids)
            return nll_loss(crf, emissions, gold)

        emissions, tape = forward(encoder, ids)
        _, crf_grads = nll_and_grad(crf, emissions, gold)
        enc_grads = backward(encoder, tape, crf_grads.d_emissions)

        worst = max(worst, rel_err(crf_grads.d_transitions,
                                   fd_grad(loss, crf.transitions, 1e-5,
                                           mask=trans_mask(crf))))
        for name, tensor in encoder.tensors().items():
            worst = max(worst, rel_err(enc_grads.tensors()[name],
                                       fd_grad(loss, tensor, 1e-5)))
    return worst


def test_criterion_2_gradient_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    crf_err = _crf_fd_suite(rng, 100)
    enc_err = _encoder_fd_suite(rng, 20)
    e2e_err = _end_to_end_fd_suite(rng, 20)
    runtime = time.perf_counter() - t0
    ok = (crf_err <= 1e-5 and enc_err <= 1e-4 and e2e_err <= 1e-4
          and runtime < 60.0)
    _report(2, ok,
            f"max rel err: CRF {crf_err:.2e} (<=1e-5, 100 instances), "
            f"encoder {enc_err:.2e} (<=1e-4, 20), "
            f"end-to-end {e2e_err:.2e} (<=1e-4, 20); "
            f"runtime {runtime:.1f}s (<60s)")


# ----------------------------------------------------- criteria 3 and 4

@pytest.fixture(scope="module")
def exp1_toy_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("exp1_toy")
    corpus = base / "toy.tsv"
    corpus.write_text(serialize_corpus(
        make_toy_corpus(200, vocab_size=20, num_tags=5, seed=7)))
    out = base / "run"
    t0 = time.perf_counter()
    history = run_experiment(experiment_grid()[1], corpus=corpus, out_dir=out)
    runtime = time.perf_counter() - t0
    return history, out / "curves.csv", runtime


def test_criterion_3_toy_convergence(exp1_toy_run):
    history, _, runtime = exp1_toy_run
    hit = next((m.epoch for m in history if m.train_acc == 1.0), None)
    ok = hit is not None and len(history) == 20 and runtime < 120.0
    _report(3, ok,
            f"toy corpus (vocab 20, K=5, 200 sentences), experiment-1 config: "
            f"train accuracy 1.0 first reached at epoch {hit} of 20; "
            f"runtime {runtime:.1f}s (<120s)")


def test_criterion_4_schedule_conformance(exp1_toy_run):
    _, curves_path, _ = exp1_toy_run
    rows = curves_path.read_text().splitlines()[1:]
    lrs = [float(line.split(",")[5]) for line in rows]
    base_lr = experiment_grid()[1].base_lr
    first_ok = all(abs(lr - base_lr) <= 1e-6 * base_lr for lr in lrs[:10])
    second_ok = all(abs(lr - 0.1 * base_lr) <= 1e-6 * base_lr
                    for lr in lrs[10:20])
    ok = len(lrs) == 20 and first_ok and second_ok
    _report(4, ok,
            f"curves CSV: lr={lrs[0]:g} for epochs 0-9 and lr={lrs[10]:g} "
            f"for epochs 10-19 (base {base_lr:g}, decay x0.1 at epoch 10)")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_full_scale_replication(tmp_path):
    corpus = os.environ.get("SEMTAGGER_PMB_CORPUS")
    if not corpus:
        print("\n[criterion 5] SKIP: no semtag corpus available "
              "(set SEMTAGGER_PMB_CORPUS to a two-column TSV to enable); "
              "criterion 3 stands in, per the acceptance contract")
        pytest.skip("SEMTAGGER_PMB_CORPUS not set; criterion 3 stands in")
    history = run_experiment(experiment_grid()[6], corpus=corpus,
                             out_dir=tmp_path / "exp6")
    last = history[-1]
    ok = last.train_acc >= 0.90 and 0.85 <= last.val_acc <= 0.93
    _report(5, ok,
            f"experiment-6 config on {corpus}: train_acc={last.train_acc:.4f}"
            f" (>=0.90), val_acc={last.val_acc:.4f} (in [0.85, 0.93])")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_train_determinism(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(serialize_corpus(
        make_toy_corpus(60, vocab_size=12, num_tags=4, seed=21)))
    flags = ["train", "--corpus", str(corpus), "--epochs", "3",
             "--seed", "5", "--quiet"]
    assert main(flags + ["--out", str(tmp_path / "a")]) == 0
    assert main(flags + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "curves.csv").read_bytes()
    b = (tmp_path / "b" / "curves.csv").read_bytes()
    ok = a == b
    _report(6, ok,
            f"two `train` runs with identical flags and seed: curves CSV "
            f"{'byte-identical' if ok else 'DIFFER'} ({len(a)} bytes)")


# --------------------------------------------------------------- criterion 7

def _val_loss_diff_variance(config, seeds, external, table):
    """Mean over seeds of the sample variance of first differences of the
    per-epoch validation loss."""
    variances = []
    for seed in seeds:
        cfg = ExperimentConfig(**{**config, "seed": seed})
        sents = make_toy_corpus(80, 100, 5, seed=200, min_len=3, max_len=6)
        if external:
            data = [EmbeddedSentence(
                s.tokens, s.tags,
                np.vstack([table[int(t[3:])] for t in s.tokens]))
                for s in sents]
            train_s, val_s = split(data, 0.15, seed=seed)
            _, tags = build_vocab(train_s + val_s)
            model = build_model(cfg, None, tags)
            train = encode_embedded(train_s, tags)
            val = encode_embedded(val_s, tags)
        else:
            train_s, val_s = split(sents, 0.15, seed=seed)
            vocab, _ = build_vocab(train_s)
            _, tags = build_vocab(train_s + val_s)
            model = build_model(cfg, vocab, tags)
            train = encode_corpus(train_s, vocab, tags)
            val = encode_corpus(val_s, vocab, tags)
        history = fit(model, train, val, cfg)
        diffs = np.diff([m.val_loss for m in history])
        variances.append(float(np.var(diffs, ddof=1)))
    return variances


def test_criterion_7_external_sgd_is_less_stable():
    seeds = (1, 2, 3)
    epochs = 6
    table = type_vectors(100, 768, seed=99)
    big = dict(id=7, optimizer="sgd", batch_size=5, emb_dim=768,
               hidden_dim=600, embedding_mode="external", epochs=epochs)
    small = dict(id=1, optimizer="adam", batch_size=5, emb_dim=50,
                 hidden_dim=8, epochs=epochs)
    var_big = _val_loss_diff_variance(big, seeds, True, table)
    var_small = _val_loss_diff_variance(small, seeds, False, table)
    ok = (np.mean(var_big) > np.mean(var_small)
          and all(b > s for b, s in zip(var_big, var_small)))
    _report(7, ok,
            f"val-loss first-difference variance over seeds {seeds}: "
            f"external-SGD (hid 600, 768-dim vectors) mean "
            f"{np.mean(var_big):.4g} vs internal-Adam (hid 8) mean "
            f"{np.mean(var_small):.4g} "
            f"(ratio {np.mean(var_big) / np.mean(var_small):.0f}x, "
            f"strictly higher on every seed)")
