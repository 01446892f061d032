"""Training loop semantics, experiment grid, config files, and curve export."""

import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from helpers import make_toy_corpus
from semtagger import (ConfigError, EmptyCorpusError, ExperimentConfig,
                       build_model, build_vocab, encode_corpus, evaluate,
                       evaluate_meta, export_curves, fit,
                       load_experiment_configs, read_curves, run_experiment,
                       sentence_loss_and_grads, serialize_corpus,
                       serialize_context_embeddings, split, experiment_grid,
                       train_epoch, load_checkpoint)
from semtagger.data import EmbeddedSentence, Sentence
from semtagger.model import MODE_EXTERNAL, MODE_INTERNAL
from semtagger import data as data_module
from semtagger import encoder as encoder_module
from semtagger import trainer as trainer_module
from semtagger.errors import DivergenceError
from semtagger.optim import OPTIMIZERS, init_optim_state
from semtagger.trainer import SETTINGS


def tiny_setup(n=12, vocab_size=6, k=3, seed=0, config=None):
    sents = make_toy_corpus(n, vocab_size, k, seed=seed, min_len=2, max_len=5)
    vocab, tags = build_vocab(sents)
    config = config or ExperimentConfig(emb_dim=5, hidden_dim=4, epochs=2,
                                        batch_size=4, seed=seed + 1)
    model = build_model(config, vocab, tags)
    data = encode_corpus(sents, vocab, tags)
    return model, data, config


def test_experiment_config_defaults_resolve_lr():
    assert ExperimentConfig(optimizer="adam").effective_lr == OPTIMIZERS["adam"]
    assert ExperimentConfig(optimizer="sgd").effective_lr == OPTIMIZERS["sgd"]
    assert ExperimentConfig(optimizer="SGD").optimizer == "sgd"
    assert ExperimentConfig(base_lr=0.5).effective_lr == 0.5


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(optimizer="adagrad")
    with pytest.raises(ConfigError):
        ExperimentConfig(embedding_mode="half-external")
    with pytest.raises(ConfigError):
        ExperimentConfig(epochs=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(base_lr=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(clip_norm=0.0)


def test_builtin_experiment_grid_rows():
    grid = experiment_grid()
    assert sorted(grid) == [1, 2, 3, 4, 5, 6, 7]
    rows = {n: (c.optimizer, c.batch_size, c.emb_dim, c.hidden_dim,
                c.embedding_mode, c.epochs) for n, c in grid.items()}
    assert rows[1] == ("adam", 5, 50, 8, MODE_INTERNAL, 20)
    assert rows[2] == ("adam", 5, 100, 20, MODE_INTERNAL, 20)
    assert rows[3] == ("sgd", 5, 100, 20, MODE_INTERNAL, 20)
    assert rows[4] == ("adam", 20, 100, 20, MODE_INTERNAL, 20)
    assert rows[5] == ("adam", 5, 100, 30, MODE_INTERNAL, 20)
    assert rows[6] == ("adam", 5, 100, 50, MODE_INTERNAL, 20)
    assert rows[7] == ("sgd", 5, 768, 600, MODE_EXTERNAL, 20)
    for config in grid.values():
        assert config.effective_lr == (OPTIMIZERS["adam"]
                                       if config.optimizer == "adam"
                                       else OPTIMIZERS["sgd"])


def test_load_experiment_configs(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment 1]\n"
        "optimizer = sgd\n"
        "epochs = 3\n"
        "hidden_dim = 12\n"
        "base_lr = 0.02\n"
        "\n"
        "[experiment 4]\n"
        "batch_size = 9\n"
        "embedding_mode = external\n"
        "emb_dim = 16\n"
    )
    configs = load_experiment_configs(path)
    assert sorted(configs) == [1, 4]
    one = configs[1]
    assert (one.optimizer, one.epochs, one.hidden_dim) == ("sgd", 3, 12)
    assert one.base_lr == 0.02
    assert one.batch_size == 5  # default fills the gap
    four = configs[4]
    assert four.embedding_mode == MODE_EXTERNAL
    assert four.batch_size == 9 and four.emb_dim == 16


def test_settings_table_lists_every_config_field():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(SETTINGS) == fields - {"id"}


def test_load_experiment_configs_errors(tmp_path):
    bad_key = tmp_path / "a.ini"
    bad_key.write_text("[experiment 1]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError):
        load_experiment_configs(bad_key)

    bad_value = tmp_path / "b.ini"
    bad_value.write_text("[experiment 1]\nepochs = soon\n")
    with pytest.raises(ConfigError):
        load_experiment_configs(bad_value)

    bad_section = tmp_path / "c.ini"
    bad_section.write_text("[defaults]\nepochs = 2\n")
    with pytest.raises(ConfigError):
        load_experiment_configs(bad_section)

    empty = tmp_path / "d.ini"
    empty.write_text("# nothing here\n")
    with pytest.raises(ConfigError):
        load_experiment_configs(empty)

    same_id = tmp_path / "e.ini"
    same_id.write_text("[experiment 1]\nepochs = 1\n\n"
                       "[experiment 01]\nepochs = 2\n")
    with pytest.raises(ConfigError, match=r"\[experiment 1\] and "
                                          r"\[experiment 01\]"):
        load_experiment_configs(same_id)


def test_sentence_loss_and_grads_keys_match_model():
    # clip_grads sums norms and checkpoints write tensors in this order
    order = ["embedding", "lstm_input_weights", "lstm_hidden_weights",
             "lstm_bias", "out_weights", "out_bias", "crf_transitions"]
    model, data, _ = tiny_setup()
    external = build_model(ExperimentConfig(emb_dim=5, hidden_dim=4,
                                            embedding_mode=MODE_EXTERNAL),
                           None, model.tags)
    vectors = np.random.default_rng(0).normal(size=(3, 5))
    for m, sentence, names in ((model, data[0], order),
                               (external, (vectors, np.array([0, 2, 1])),
                                order[1:])):
        loss, grads = sentence_loss_and_grads(m, *sentence)
        assert loss >= 0.0
        assert list(m.tensors()) == names
        assert list(grads) == names
        for name, g in grads.items():
            assert g.shape == m.tensors()[name].shape


def test_one_epoch_reduces_training_loss():
    model, data, config = tiny_setup(n=20)
    train, val = data[:16], data[16:]
    before, _ = evaluate(model, train)
    state = init_optim_state(config.optimizer, model.tensors())
    metrics, state = train_epoch(model, train, val, config, 0, state)
    assert metrics.train_loss < before
    assert metrics.epoch == 0
    assert metrics.lr == config.effective_lr


def test_full_batch_equals_manual_average_step():
    # batch_size == n means one SGD step on the mean gradient, so the result
    # must match doing that step by hand (up to summation reordering)
    config = ExperimentConfig(optimizer="sgd", emb_dim=4, hidden_dim=3,
                              epochs=1, batch_size=4, seed=9, base_lr=0.1)
    model, data, _ = tiny_setup(n=4, config=config)
    twin, _, _ = tiny_setup(n=4, config=config)

    sums = {k: np.zeros_like(v) for k, v in twin.tensors().items()}
    for inputs, gold in data:
        _, grads = sentence_loss_and_grads(twin, inputs, gold)
        for key in sums:
            sums[key] += grads[key]
    expected = {k: twin.tensors()[k] - 0.1 * sums[k] / 4 for k in sums}

    state = init_optim_state("sgd", model.tensors())
    train_epoch(model, data, data, config, 0, state)
    for name, arr in model.tensors().items():
        assert np.allclose(arr, expected[name], atol=1e-12), name


def test_trailing_partial_batch_still_steps():
    config = ExperimentConfig(optimizer="adam", emb_dim=4, hidden_dim=3,
                              epochs=1, batch_size=2, seed=5)
    model, data, _ = tiny_setup(n=5, config=config)
    state = init_optim_state("adam", model.tensors())
    _, state = train_epoch(model, data, data, config, 0, state)
    assert state.step_count == 3  # 2 + 2 + trailing 1


def test_divergence_names_the_batch_step_or_the_evaluation(monkeypatch):
    config = ExperimentConfig(id=4, optimizer="sgd", emb_dim=4, hidden_dim=3,
                              epochs=1, batch_size=2, seed=5)
    model, data, _ = tiny_setup(n=5, config=config)
    real = trainer_module.batch_loss_and_grads

    def diverge(*args):
        raise DivergenceError("emissions must be finite")

    def diverge_on_call(n):
        calls = []

        def fake(*args):
            calls.append(None)
            return diverge() if len(calls) == n else real(*args)
        return fake

    # 5 sentences in batches of 2: sentences 1-2, 3-4, then a trailing 5,
    # each batch one packed call
    for call, where in ((1, "batch step 1 of 3"), (2, "batch step 2 of 3"),
                        (3, "batch step 3 of 3"),
                        (4, "the end-of-epoch evaluation")):
        monkeypatch.setattr(trainer_module, "batch_loss_and_grads",
                            diverge_on_call(call))
        monkeypatch.setattr(trainer_module, "evaluate", diverge)
        with pytest.raises(DivergenceError) as err:
            train_epoch(model, data, data, config, 0,
                        init_optim_state("sgd", model.tensors()))
        assert str(err.value) == (f"experiment 4 diverged in epoch 0, {where}: "
                                  "emissions must be finite")


def test_a_non_finite_emission_in_a_packed_lane_moves_no_parameter():
    # one batch of 5 sentences of distinct lengths, so the 5-token sentence
    # runs in the 3rd lane whatever the shuffle; a NaN in its input vectors
    # makes only its emissions non-finite
    config = ExperimentConfig(id=2, optimizer="sgd", emb_dim=3, hidden_dim=4,
                              epochs=1, batch_size=5, seed=7,
                              embedding_mode=MODE_EXTERNAL)
    rng = np.random.default_rng(0)
    data = [(rng.normal(size=(n, 3)), np.arange(n) % 2) for n in (3, 7, 5, 4, 6)]
    data[2][0][1, 0] = np.nan
    tags = build_vocab([Sentence(["a", "b"], ["t0", "t1"])])[1]
    model = build_model(config, None, tags)
    before = {name: p.tobytes() for name, p in model.tensors().items()}
    with pytest.raises(DivergenceError) as err:
        train_epoch(model, data, data[:1], config, 0,
                    init_optim_state("sgd", model.tensors()))
    assert str(err.value) == ("experiment 2 diverged in epoch 0, batch step 1 "
                              "of 1: emissions must be finite")
    assert {name: p.tobytes() for name, p in model.tensors().items()} == before


def test_a_batch_adds_its_weight_gradients_in_blocks_of_gate_rows(monkeypatch):
    # 2000-dim vectors into 4H = 32 gate rows: one sentence's dense
    # lstm_input_weights gradient (512 KB) dwarfs the batch's tape (~100 KB
    # of input copies), and a block of 4 gate rows is a 64 KB product.
    # Making a dense gradient per sentence peaks above one such gradient.
    monkeypatch.setattr(encoder_module, "ROWS_PER_BLOCK", 4)
    config = ExperimentConfig(optimizer="sgd", emb_dim=2000, hidden_dim=8,
                              batch_size=3, embedding_mode=MODE_EXTERNAL)
    tags = build_vocab([Sentence(["a", "b"], ["t0", "t1"])])[1]
    model = build_model(config, None, tags)
    rng = np.random.default_rng(0)
    batch = [(rng.normal(size=(n, 2000)), np.arange(n) % 2) for n in (2, 3, 1)]
    sums = {name: np.zeros_like(p) for name, p in model.tensors().items()}
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        trainer_module.batch_loss_and_grads(model, batch, sums)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sums["lstm_input_weights"].nbytes


def test_fit_is_deterministic():
    runs = []
    for _ in range(2):
        model, data, config = tiny_setup(n=10)
        train, val = data[:8], data[8:]
        runs.append(fit(model, train, val, config))
    assert runs[0] == runs[1]  # exact float equality, dataclass-wise


def test_fit_uses_the_schedule():
    config = ExperimentConfig(emb_dim=4, hidden_dim=3, epochs=12,
                              batch_size=4, seed=2, base_lr=0.004)
    model, data, _ = tiny_setup(n=6, config=config)
    history = fit(model, data[:5], data[5:], config)
    assert [m.epoch for m in history] == list(range(12))
    assert all(m.lr == 0.004 for m in history[:10])
    assert all(abs(m.lr - 0.0004) < 1e-15 for m in history[10:])


def test_evaluate_errors_on_empty_and_is_pure():
    model, data, _ = tiny_setup()
    with pytest.raises(EmptyCorpusError):
        evaluate(model, [])
    before = {k: v.copy() for k, v in model.tensors().items()}
    evaluate(model, data)
    for name, arr in model.tensors().items():
        assert np.array_equal(arr, before[name])


def test_evaluate_chance_level_on_balanced_random_tags():
    # Gold tags drawn uniformly and independently of the tokens: no model
    # can beat chance, and an untrained one should sit near 50%.
    rng = np.random.default_rng(3)
    sents = [Sentence(tokens=[f"tok{rng.integers(10)}" for _ in range(4)],
                      tags=[f"t{rng.integers(2)}" for _ in range(4)])
             for _ in range(250)]
    vocab, tags = build_vocab(sents)
    config = ExperimentConfig(emb_dim=5, hidden_dim=4, seed=9)
    model = build_model(config, vocab, tags)
    _, acc = evaluate(model, encode_corpus(sents, vocab, tags))
    assert abs(acc - 0.5) <= 0.1


def test_evaluate_meta_rollup():
    model, data, _ = tiny_setup()
    assert evaluate_meta(model, data) is None  # no map attached
    # map every tag to one class: meta accuracy is trivially 1.0
    model.tags.meta_tags = {t: "ALL" for t in model.tags.id_to_tag}
    assert evaluate_meta(model, data) == 1.0
    # identity fallback: an irrelevant map reduces to fine-grained accuracy
    model.tags.meta_tags = {"not-a-tag": "X"}
    _, fine_acc = evaluate(model, data)
    assert evaluate_meta(model, data) == fine_acc


def test_export_and_read_curves_round_trip(tmp_path):
    model, data, config = tiny_setup()
    history = fit(model, data[:9], data[9:], config)
    path = tmp_path / "curves.csv"
    export_curves(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
    assert len(lines) == 1 + config.epochs
    back = read_curves(path)
    for orig, parsed in zip(history, back):
        assert parsed.epoch == orig.epoch
        # 6 significant digits survive the round trip
        assert abs(parsed.train_loss - orig.train_loss) <= 1e-5 * max(
            1.0, abs(orig.train_loss))
        assert parsed.lr == pytest.approx(orig.lr, rel=1e-5)


def test_export_curves_failing_midway_keeps_the_previous_file(tmp_path,
                                                              monkeypatch):
    model, data, config = tiny_setup()
    history = fit(model, data[:9], data[9:], config)
    path = tmp_path / "curves.csv"
    export_curves(history[:1], path)
    before = path.read_bytes()

    class HalfWriter(io.FileIO):
        def write(self, b):
            super().write(b[:len(b) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(data_module, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="no space"):
        export_curves(history, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]


def test_run_experiment_internal_writes_artifacts(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(serialize_corpus(
        make_toy_corpus(25, vocab_size=8, num_tags=3, seed=4)))
    config = ExperimentConfig(id=1, emb_dim=5, hidden_dim=4, epochs=2,
                              batch_size=5, seed=3)
    out = tmp_path / "run"
    history = run_experiment(config, corpus=corpus, out_dir=out)
    assert len(history) == 2
    assert (out / "curves.csv").exists()
    model = load_checkpoint(out / "checkpoint.npz")
    assert model.mode == MODE_INTERNAL
    assert read_curves(out / "curves.csv")[-1].epoch == 1


def test_run_experiment_provenance_records_every_setting(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(serialize_corpus(
        make_toy_corpus(12, vocab_size=8, num_tags=3, seed=4)))
    config = ExperimentConfig(id=3, optimizer="sgd", emb_dim=5, hidden_dim=4,
                              epochs=1, batch_size=4, base_lr=0.05, seed=3,
                              clip_norm=0.75)
    run_experiment(config, corpus=corpus, out_dir=tmp_path, min_freq=2,
                   val_fraction=0.25)
    with np.load(tmp_path / "checkpoint.npz") as archive:
        manifest = json.loads(archive["manifest"].tobytes())
    assert manifest["provenance"] == {
        "experiment": 3, "optimizer": "sgd", "epochs": 1, "batch_size": 4,
        "emb_dim": 5, "hidden_dim": 4, "embedding_mode": MODE_INTERNAL,
        "base_lr": 0.05, "clip_norm": 0.75, "seed": 3, "min_freq": 2,
        "val_fraction": 0.25,
    }


def test_run_experiment_external_mode(tmp_path):
    rng = np.random.default_rng(1)
    base = make_toy_corpus(20, vocab_size=6, num_tags=3, seed=5,
                           min_len=2, max_len=4)
    table = rng.normal(size=(6, 7))
    embedded = [EmbeddedSentence(
        s.tokens, s.tags,
        np.vstack([table[int(tok[3:])] for tok in s.tokens]))
        for s in base]
    emb_file = tmp_path / "vecs.txt"
    emb_file.write_text(serialize_context_embeddings(embedded))

    config = ExperimentConfig(id=7, optimizer="sgd", emb_dim=7, hidden_dim=4,
                              epochs=2, batch_size=5, seed=6,
                              embedding_mode=MODE_EXTERNAL)
    out = tmp_path / "ext"
    history = run_experiment(config, embeddings=emb_file, out_dir=out)
    assert len(history) == 2
    model = load_checkpoint(out / "checkpoint.npz")
    assert model.mode == MODE_EXTERNAL and model.vocab is None


def test_run_experiment_mode_errors(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(epochs=1))  # no corpus
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(epochs=1,
                                        embedding_mode=MODE_EXTERNAL))
    # dim mismatch between file and config
    emb_file = tmp_path / "v.txt"
    emb_file.write_text("1 3\na\tX\t1 2 3\n\n1 3\nb\tX\t0 0 1\n")
    config = ExperimentConfig(epochs=1, emb_dim=9,
                              embedding_mode=MODE_EXTERNAL)
    with pytest.raises(ConfigError):
        run_experiment(config, embeddings=emb_file)
    # a val corpus is for internal mode only; it is rejected before it is read
    config = ExperimentConfig(epochs=1, emb_dim=3,
                              embedding_mode=MODE_EXTERNAL)
    with pytest.raises(ConfigError):
        run_experiment(config, embeddings=emb_file,
                       val_corpus=tmp_path / "missing.tsv")


def test_run_experiment_explicit_val_corpus_closes_tagset(tmp_path):
    # a tag that only occurs in the val file must still encode
    train = tmp_path / "train.tsv"
    train.write_text("a\tX\nb\tY\n\nb\tX\n")
    val = tmp_path / "val.tsv"
    val.write_text("a\tZ\n")
    config = ExperimentConfig(emb_dim=3, hidden_dim=2, epochs=1, batch_size=2,
                              seed=0)
    history = run_experiment(config, corpus=train, val_corpus=val)
    assert len(history) == 1


def test_epoch_shuffle_differs_between_epochs():
    orders = [np.random.default_rng([3, e]).permutation(30).tolist()
              for e in range(2)]
    assert orders[0] != orders[1]
    assert orders[0] == np.random.default_rng([3, 0]).permutation(30).tolist()


def test_metrics_are_dataclasses_with_expected_fields():
    fields = {f.name for f in dataclasses.fields(
        __import__("semtagger").EpochMetrics)}
    assert fields == {"epoch", "train_loss", "train_acc", "val_loss",
                      "val_acc", "lr"}


@pytest.mark.parametrize("field", ["base_lr", "clip_norm"])
def test_experiment_config_rejects_non_finite_rates(field):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
            ExperimentConfig(**{field: value})


def test_a_step_that_writes_nan_is_reported_as_divergence(monkeypatch):
    config = ExperimentConfig(id=3, optimizer="sgd", emb_dim=4, hidden_dim=3,
                              epochs=1, batch_size=2, seed=5)
    model, data, _ = tiny_setup(n=5, config=config)
    monkeypatch.setattr(trainer_module, "sgd_step", lambda params, grads, lr: {
        k: np.full_like(v, np.nan) for k, v in params.items()})
    with pytest.raises(DivergenceError) as err:
        train_epoch(model, data, data, config, 0,
                    init_optim_state("sgd", model.tensors()))
    assert str(err.value) == ("experiment 3 diverged in epoch 0, batch step 1 "
                              "of 3: transitions must be finite everywhere")
